"""Run configuration: pipeline hyperparameters and the config-file format.

Config files are UTF-8 ``key = value`` lines with ``#`` comments and a
flat namespace; nested settings use dotted keys (``raplace.scale_pct``).
Command-line flags override file values, which override the defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .descriptors import RaplaceConfig
from .errors import ArgumentError

METHOD_RINGKEY = "ringkey"
METHOD_RAPLACE = "raplace"
METHOD_RADVLAD = "radvlad"
METHOD_FFT_RADVLAD = "fft_radvlad"
METHODS = (METHOD_RINGKEY, METHOD_RAPLACE, METHOD_RADVLAD, METHOD_FFT_RADVLAD)
VLAD_METHODS = (METHOD_RADVLAD, METHOD_FFT_RADVLAD)


@dataclass
class RunConfig:
    method: str = METHOD_FFT_RADVLAD
    suppress_bins: int = 60
    target_bins: int = 512
    k: int = 64
    kmeans_tol: float = 1e-4
    kmeans_seed: int = 0
    kmeans_max_iter: int = 300
    stride: int = 10
    threshold_m: float = 25.0
    n_max: int = 50
    vlad_l2_normalize: bool = False
    raplace: RaplaceConfig = field(default_factory=RaplaceConfig)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ArgumentError(f"method must be one of {METHODS}, got {self.method!r}")
        if min(self.target_bins, self.k, self.stride, self.n_max, self.kmeans_max_iter) < 1:
            raise ArgumentError("target_bins, k, stride, n_max, kmeans_max_iter must be >= 1")
        if self.suppress_bins < 0 or self.kmeans_seed < 0:
            raise ArgumentError("suppress_bins and kmeans_seed must be >= 0")
        if self.kmeans_tol <= 0.0 or self.threshold_m <= 0.0:
            raise ArgumentError("kmeans_tol and threshold_m must be positive")


def parse_config_file(path) -> dict:
    """Parse ``key = value`` lines into a flat string-to-string dict."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
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


def config_keys() -> dict:
    """Every config key mapped to its field's annotation; the ``raplace``
    settings are nested under dotted keys (``raplace.width_px``)."""
    keys = {f.name: f.type for f in fields(RunConfig) if f.name != "raplace"}
    keys.update({f"raplace.{f.name}": f.type for f in fields(RaplaceConfig)})
    return keys


def _convert(name: str, value, annotation: str):
    if annotation.endswith(" | None") and value in (None, "", "none"):
        return None
    target_type = _TYPES[annotation.removesuffix(" | None")]
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
    return target_type(value)


def build_run_config(file_values: dict | None = None, overrides: dict | None = None) -> RunConfig:
    """Materialise a RunConfig from defaults, file values, then overrides.

    Both mappings use the flat dotted keys of ``config_keys``;
    ``overrides`` entries that are None are ignored so unset
    command-line flags fall through.
    """
    merged = dict(file_values or {})
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value

    keys = config_keys()
    cfg_kwargs = {}
    raplace_kwargs = {}
    for key, value in merged.items():
        if key not in keys:
            raise ArgumentError(f"unknown config key {key!r}")
        value = _convert(key, value, keys[key])
        if key.startswith("raplace."):
            raplace_kwargs[key[len("raplace."):]] = value
        else:
            cfg_kwargs[key] = value
    cfg = RunConfig(**cfg_kwargs)
    if raplace_kwargs:
        cfg = replace(cfg, raplace=replace(cfg.raplace, **raplace_kwargs))
    return cfg
