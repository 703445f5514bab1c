"""Deterministic synthetic point-reflector worlds for desk-scale experiments.

Scenes are flat fields of point reflectors; a render places a Gaussian
blob at each reflector's (range, bearing) relative to the sensor pose.
Every random quantity flows from an explicit seed, so renders are
bit-reproducible.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ArgumentError, IngestError
from .scans import PolarScan, Trajectory, TrajectoryPoses

# Offset between per-place scene seeds inside a world; worlds with seeds
# less than this many apart still get disjoint scene seeds.
_SCENE_SEED_STRIDE = 1_000_003
_TIMESTAMP_STEP_NS = 1_000_000_000


@dataclass(frozen=True)
class ReflectorScene:
    """Point reflectors in a square of half-width ``extent_m``."""

    positions: np.ndarray
    intensities: np.ndarray
    extent_m: float
    seed: int = 0

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.float64).reshape(-1, 2)
        inten = np.asarray(self.intensities, dtype=np.float64).ravel()
        if pos.shape[0] != inten.shape[0]:
            raise ArgumentError("positions and intensities must have equal lengths")
        if pos.size and np.abs(pos).max() > self.extent_m:
            raise ArgumentError("reflectors must lie within the scene extent")
        if inten.size and not ((inten > 0.0).all() and (inten <= 1.0).all()):
            raise ArgumentError("intensities must lie in (0, 1]")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "intensities", inten)

    def __len__(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class SensorPose:
    x_m: float
    y_m: float
    heading_rad: float = 0.0

    def __post_init__(self):
        if not all(np.isfinite([self.x_m, self.y_m, self.heading_rad])):
            raise ArgumentError("pose fields must be finite")


def generate_scene(n_reflectors: int, extent_m: float, seed: int) -> ReflectorScene:
    """Draw reflectors uniformly in the square, intensities in (0, 1]."""
    if n_reflectors < 0:
        raise ArgumentError("n_reflectors must be >= 0")
    if extent_m <= 0.0:
        raise ArgumentError("extent_m must be positive")
    if seed < 0:
        raise ArgumentError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    positions = rng.uniform(-extent_m, extent_m, size=(n_reflectors, 2))
    intensities = 1.0 - rng.uniform(0.0, 1.0, size=n_reflectors)
    return ReflectorScene(positions, intensities, float(extent_m), seed)


def render_polar(
    scene: ReflectorScene,
    pose: SensorPose,
    n_azimuths: int = 64,
    n_bins: int = 256,
    max_range_m: float = 60.0,
    beam_sigma_bins: float = 1.5,
    noise_sigma: float = 0.0,
    seed=0,
) -> PolarScan:
    """Render the scene from a pose as an H x W polar power raster.

    Each reflector adds a Gaussian blob of width ``beam_sigma_bins`` (in
    bin units, both axes, wrapping in azimuth) centred at its range and
    bearing relative to the pose and scaled by its intensity. Gaussian
    noise of the given std, drawn from ``np.random.default_rng(seed)``
    (an int or a sequence of ints), is then added, and power is clipped
    to [0, 1].
    """
    if n_azimuths < 1 or n_bins < 1:
        raise ArgumentError("n_azimuths and n_bins must be >= 1")
    if max_range_m <= 0.0 or beam_sigma_bins <= 0.0 or noise_sigma < 0.0:
        raise ArgumentError("invalid render parameters")
    resolution = max_range_m / n_bins
    power = np.zeros((n_azimuths, n_bins))
    window = int(np.ceil(6.0 * beam_sigma_bins))

    dx = scene.positions[:, 0] - pose.x_m
    dy = scene.positions[:, 1] - pose.y_m
    ranges = np.hypot(dx, dy)
    bearings = np.mod(np.arctan2(dy, dx) - pose.heading_rad, 2.0 * np.pi)

    for i in range(len(scene)):
        bin_pos = ranges[i] / resolution
        lo = max(0, int(np.floor(bin_pos)) - window)
        hi = min(n_bins, int(np.ceil(bin_pos)) + window + 1)
        if lo >= hi:
            continue
        gauss_r = np.exp(-0.5 * ((np.arange(lo, hi) - bin_pos) / beam_sigma_bins) ** 2)

        az_pos = bearings[i] * (n_azimuths / (2.0 * np.pi))
        if 2 * window + 1 <= n_azimuths:
            offsets = np.arange(-window, window + 1)
            rows = (int(np.round(az_pos)) + offsets) % n_azimuths
            d_az = int(np.round(az_pos)) + offsets - az_pos
        else:
            rows = np.arange(n_azimuths)
            d_az = np.mod(rows - az_pos + n_azimuths / 2.0, n_azimuths) - n_azimuths / 2.0
        gauss_a = np.exp(-0.5 * (d_az / beam_sigma_bins) ** 2)
        cols = np.arange(lo, hi)
        power[rows[:, None], cols[None, :]] += scene.intensities[i] * np.outer(gauss_a, gauss_r)

    if noise_sigma > 0.0:
        rng = np.random.default_rng(seed)
        power += rng.normal(0.0, noise_sigma, size=power.shape)
    np.clip(power, 0.0, 1.0, out=power)
    return PolarScan(power, resolution)


def save_scene_csv(path, scene: ReflectorScene) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x_m", "y_m", "intensity"])
        for (x, y), inten in zip(scene.positions, scene.intensities):
            writer.writerow([repr(float(x)), repr(float(y)), repr(float(inten))])


def load_scene_csv(path, extent_m: float | None = None) -> ReflectorScene:
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["x_m", "y_m", "intensity"]:
            raise IngestError(f"{path}: bad header {header!r}")
        rows = []
        for i, row in enumerate(reader, start=2):
            try:
                rows.append((float(row[0]), float(row[1]), float(row[2])))
            except (ValueError, IndexError) as exc:
                raise IngestError(f"{path}: row {i}: {exc}") from exc
    data = np.array(rows, dtype=np.float64).reshape(-1, 3)
    if extent_m is None:
        extent_m = float(np.abs(data[:, :2]).max()) if len(data) else 1.0
    return ReflectorScene(data[:, :2], data[:, 2], extent_m)


@dataclass(frozen=True)
class WorldConfig:
    """Geometry and render settings shared by the synthetic world builders."""

    n_places: int = 50
    n_reflectors: int = 50
    extent_m: float = 80.0
    spacing_m: float = 40.0
    n_azimuths: int = 64
    n_bins: int = 256
    max_range_m: float = 60.0
    beam_sigma_bins: float = 1.5
    noise_sigma: float = 0.0


class PlaceWorld:
    """A set of places, each with its own local reflector scene.

    Scans of place p are rendered inside scene p with the sensor near the
    scene origin; for ground-truth gating the places are anchored on a
    line with ``spacing_m`` separation, so only a place's own queries fall
    inside typical match gates. Local sensor offsets (query translations)
    carry over into the ground-truth coordinates.
    """

    def __init__(self, seed: int, cfg: WorldConfig = WorldConfig()):
        if seed < 0:
            raise ArgumentError(f"seed must be >= 0, got {seed}")
        self.seed = seed
        self.cfg = cfg
        self.scenes = [
            generate_scene(cfg.n_reflectors, cfg.extent_m, seed * _SCENE_SEED_STRIDE + p)
            for p in range(cfg.n_places)
        ]

    def _trajectory(self, name: str, places, local_poses, noise_key: tuple) -> Trajectory:
        # Scan i's render noise is seeded by (world seed, *noise_key, i);
        # each trajectory kind has its own noise_key, so a reference scan
        # and a query scan never share a noise draw.
        cfg = self.cfg
        scans, east, north = [], [], []
        for i, (place, pose) in enumerate(zip(places, local_poses)):
            scan = render_polar(
                self.scenes[place],
                pose,
                n_azimuths=cfg.n_azimuths,
                n_bins=cfg.n_bins,
                max_range_m=cfg.max_range_m,
                beam_sigma_bins=cfg.beam_sigma_bins,
                noise_sigma=cfg.noise_sigma,
                seed=[self.seed, *noise_key, i],
            )
            scans.append(replace(scan, timestamp_ns=i * _TIMESTAMP_STEP_NS, id=f"{name}-{i:06d}"))
            east.append(place * cfg.spacing_m + pose.x_m)
            north.append(pose.y_m)
        track = TrajectoryPoses(
            np.arange(len(scans), dtype=np.int64) * _TIMESTAMP_STEP_NS,
            np.array(east),
            np.array(north),
        )
        return Trajectory(name=name, scans=scans, poses=track)

    def reference_trajectory(self) -> Trajectory:
        """One scan per place, sensor at the scene origin, heading zero."""
        places = list(range(self.cfg.n_places))
        return self._trajectory("reference", places, [SensorPose(0.0, 0.0)] * len(places), (0,))

    def rotated_query_trajectory(self, trials: int, seed: int) -> Trajectory:
        """Queries cycling through the places with random integer-step headings."""
        rng = np.random.default_rng(seed)
        places, poses = [], []
        for t in range(trials):
            places.append(t % self.cfg.n_places)
            step = int(rng.integers(self.cfg.n_azimuths))
            poses.append(SensorPose(0.0, 0.0, 2.0 * np.pi * step / self.cfg.n_azimuths))
        return self._trajectory("rotated-query", places, poses, (1, seed))

    def translated_query_trajectory(self, min_m: float, max_m: float, seed: int) -> Trajectory:
        """One query per place, offset by a random 2-D shift of |t| in [min_m, max_m]."""
        rng = np.random.default_rng(seed)
        places, poses = [], []
        for place in range(self.cfg.n_places):
            magnitude = rng.uniform(min_m, max_m)
            direction = rng.uniform(0.0, 2.0 * np.pi)
            places.append(place)
            poses.append(
                SensorPose(magnitude * np.cos(direction), magnitude * np.sin(direction), 0.0)
            )
        return self._trajectory("translated-query", places, poses, (2, seed))
