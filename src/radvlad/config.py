"""Run configuration: pipeline hyperparameters and the config-file format.

Config files are UTF-8 ``key = value`` lines with ``#`` comments and a
flat namespace; nested settings use dotted keys (``raplace.scale_pct``).
Command-line flags override file values, which override the defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from ._files import ingesting
from .errors import ArgumentError, bounded_int, finite_positive

METHOD_RINGKEY = "ringkey"
METHOD_RAPLACE = "raplace"
METHOD_RADVLAD = "radvlad"
METHOD_FFT_RADVLAD = "fft_radvlad"
METHODS = (METHOD_RINGKEY, METHOD_RAPLACE, METHOD_RADVLAD, METHOD_FFT_RADVLAD)
VLAD_METHODS = (METHOD_RADVLAD, METHOD_FFT_RADVLAD)


@dataclass(frozen=True)
class RaplaceConfig:
    """Settings of the sinogram-spectrum encoder; errors name each by its
    config key (``raplace.width_px``)."""

    width_px: int = field(default=256, metadata={"help": "Cartesian grid side in pixels"})
    resolution_m: float = field(default=1.2717, metadata={"help": "Cartesian metres per pixel"})
    scale_pct: float = field(default=25.0, metadata={"help": "sinogram radial downscale percent"})

    def __post_init__(self):
        if bounded_int("raplace.width_px", self.width_px, 2) % 2 != 0:
            raise ArgumentError(f"raplace.width_px must be even and >= 2, got {self.width_px!r}")
        finite_positive("raplace.resolution_m", self.resolution_m)
        if finite_positive("raplace.scale_pct", self.scale_pct) > 100.0:
            raise ArgumentError(f"raplace.scale_pct must be in (0, 100], got {self.scale_pct!r}")


@dataclass(frozen=True)
class RunConfig:
    method: str = field(default=METHOD_FFT_RADVLAD, metadata={"help": "place descriptor method"})
    suppress_bins: int = field(default=60, metadata={"help": "near-range bins zeroed before resampling"})
    target_bins: int = field(default=512, metadata={"help": "range bins after resampling"})
    k: int = field(default=64, metadata={"help": "codebook cluster count"})
    kmeans_tol: float = field(default=1e-4, metadata={"help": "relative inertia decrease to stop"})
    kmeans_seed: int = field(default=0, metadata={"help": "codebook seeding RNG seed"})
    kmeans_max_iter: int = field(default=300, metadata={"help": "iteration cap for clustering"})
    stride: int = field(default=10, metadata={"help": "keep every stride-th scan"})
    threshold_m: float = field(default=25.0, metadata={"help": "ground-truth match gate in metres"})
    n_max: int = field(default=50, metadata={"help": "largest N in the Recall@N curve"})
    vlad_l2_normalize: bool = field(default=False, metadata={"help": "L2-normalise aggregated descriptors"})
    raplace: RaplaceConfig = field(default_factory=RaplaceConfig)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ArgumentError(f"method must be one of {METHODS}, got {self.method!r}")
        for name in ("suppress_bins", "target_bins", "k", "kmeans_seed", "kmeans_max_iter", "stride", "n_max"):
            bounded_int(name, getattr(self, name), 0 if name in ("suppress_bins", "kmeans_seed") else 1)
        finite_positive("kmeans_tol", self.kmeans_tol)
        finite_positive("threshold_m", self.threshold_m)


def parse_config_file(path) -> dict:
    """Parse ``key = value`` lines into a flat string-to-string dict."""
    with ingesting(path):
        text = Path(path).read_text(encoding="utf-8")
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ArgumentError(f"{path}: line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ArgumentError(f"{path}: line {lineno}: empty key")
        values[key] = value
    return values


_BOOL_STRINGS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
_TYPES = {"str": str, "int": int, "float": float, "bool": bool}


def config_fields() -> dict:
    """Every config key mapped to its field, whose metadata holds its flag's
    help text; ``raplace`` settings take dotted keys (``raplace.width_px``)."""
    keys = {f.name: f for f in fields(RunConfig) if f.name != "raplace"}
    keys.update({f"raplace.{f.name}": f for f in fields(RaplaceConfig)})
    return keys


def setting_type(annotation: str) -> type:
    """The value type of a config field's annotation (``"int"`` -> int)."""
    return _TYPES[annotation]


def _convert(name: str, value, annotation: str):
    target_type = setting_type(annotation)
    if isinstance(value, str):
        if target_type is bool:
            try:
                return _BOOL_STRINGS[value.lower()]
            except KeyError:
                raise ArgumentError(f"{name}: expected a boolean, got {value!r}") from None
        try:
            return target_type(value)
        except ValueError:
            raise ArgumentError(f"{name}: expected {target_type.__name__}, got {value!r}") from None
    # A given int is checked, not truncated, by the config that takes it.
    return value if target_type is int else target_type(value)


def build_run_config(file_values: dict | None = None, overrides: dict | None = None) -> RunConfig:
    """Materialise a RunConfig from defaults, file values, then overrides.

    Both mappings use the flat dotted keys of ``config_fields``;
    ``overrides`` entries that are None are ignored so unset
    command-line flags fall through.
    """
    merged = dict(file_values or {})
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value

    keys = config_fields()
    cfg_kwargs = {}
    raplace_kwargs = {}
    for key, value in merged.items():
        if key not in keys:
            raise ArgumentError(f"unknown config key {key!r}")
        value = _convert(key, value, keys[key].type)
        if key.startswith("raplace."):
            raplace_kwargs[key[len("raplace."):]] = value
        else:
            cfg_kwargs[key] = value
    cfg = RunConfig(**cfg_kwargs)
    if raplace_kwargs:
        cfg = replace(cfg, raplace=replace(cfg.raplace, **raplace_kwargs))
    return cfg
