"""File I/O shared by every loader and writer: native framing, UTF-8 CSV
tables, and the one rule that turns rejected file content into an
``IngestError`` naming the file.

Each native format (PRSN, CDBK, DESC, DMAT) is a 4-byte magic, a packed
little-endian header and a flat little-endian payload.
"""

import contextlib
import csv
import math
import struct
from pathlib import Path

import numpy as np

from .errors import ArgumentError, IngestError


@contextlib.contextmanager
def ingesting(path):
    """Re-raise file content its container rejects (``ArgumentError``), or
    bytes that are not UTF-8 in a text file, as an ``IngestError`` naming
    ``path``."""
    try:
        yield
    except (ArgumentError, UnicodeDecodeError) as exc:
        raise IngestError(f"{path}: {exc}") from exc


def read_csv_rows(path, header: list, parse) -> list:
    """``parse`` of each row of a UTF-8 CSV file after its ``header`` row.

    A missing or different header, or a row that ``parse`` rejects, is an
    ``IngestError`` naming the file (and the row).
    """
    with ingesting(path), Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found is None or [h.strip() for h in found] != header:
            raise IngestError(f"{path}: expected header {header}, found {found!r}")
        rows = []
        for i, row in enumerate(reader, start=2):
            try:
                rows.append(parse(row))
            except (ValueError, IndexError, OverflowError) as exc:
                raise IngestError(f"{path}: row {i}: {exc}") from exc
    return rows


def write_csv_rows(path, header: list, rows) -> None:
    """Write a UTF-8 CSV file: the ``header`` row, then every row of ``rows``."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


class FrameReader:
    """A native file's bytes, read front to back after its magic: all of
    them, or with ``head`` only the ``head`` bytes after the magic, which
    is enough to read the header and nothing more."""

    def __init__(self, path, magic: bytes, head: int | None = None):
        self.path = Path(path)
        if head is None:
            self._buf = self.path.read_bytes()
        else:
            with self.path.open("rb") as fh:
                self._buf = fh.read(len(magic) + head)
        self._at = len(magic)
        if self._buf[: self._at] != magic:
            raise IngestError(f"{self.path}: bad magic {self._buf[: self._at]!r}")

    def header(self, fmt: str) -> tuple:
        """The next header fields, unpacked by the ``struct`` format ``fmt``."""
        size = struct.calcsize(fmt)
        if len(self._buf) < self._at + size:
            raise IngestError(f"{self.path}: file shorter than header")
        self._at += size
        return struct.unpack_from(fmt, self._buf, self._at - size)

    def payload(self, dtype: str, shape: tuple) -> np.ndarray:
        """The rest of the file as a read-only view of ``shape``; it must
        hold exactly that many items."""
        need = self._at + math.prod(shape) * np.dtype(dtype).itemsize
        if len(self._buf) != need:
            raise IngestError(f"{self.path}: expected {need} bytes, found {len(self._buf)}")
        return np.frombuffer(self._buf, dtype=dtype, offset=self._at).reshape(shape)


def write_frame(path, magic: bytes, header: str, fields, payload, dtype: str) -> None:
    """``magic``, the header ``fields`` packed by ``header``, then ``payload`` as flat ``dtype``."""
    head = magic + struct.pack(header, *fields)
    Path(path).write_bytes(head + np.ascontiguousarray(payload, dtype=dtype).tobytes())
