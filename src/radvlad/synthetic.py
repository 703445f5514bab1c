"""Deterministic synthetic point-reflector worlds for desk-scale experiments.

Scenes are flat fields of point reflectors; a render places a Gaussian
blob at each reflector's (range, bearing) relative to the sensor pose.
Every random quantity flows from an explicit seed, so renders are
bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ArgumentError, bounded_int, finite_positive
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
        object.__setattr__(self, "extent_m", finite_positive("extent_m", self.extent_m))
        if pos.shape[0] != inten.shape[0]:
            raise ArgumentError("positions and intensities must have equal lengths")
        if not np.isfinite(pos).all():
            raise ArgumentError("reflector positions must be finite")
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
    bounded_int("n_reflectors", n_reflectors, 0)
    extent_m = finite_positive("extent_m", extent_m)
    bounded_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    positions = rng.uniform(-extent_m, extent_m, size=(n_reflectors, 2))
    intensities = 1.0 - rng.uniform(0.0, 1.0, size=n_reflectors)
    return ReflectorScene(positions, intensities, extent_m, seed)


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

    def __post_init__(self):
        bounded_int("n_places", self.n_places, 1)


def render_polar(
    scene: ReflectorScene,
    pose: SensorPose,
    n_azimuths: int = WorldConfig.n_azimuths,
    n_bins: int = WorldConfig.n_bins,
    max_range_m: float = WorldConfig.max_range_m,
    beam_sigma_bins: float = WorldConfig.beam_sigma_bins,
    noise_sigma: float = WorldConfig.noise_sigma,
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
    bounded_int("n_azimuths", n_azimuths, 1)
    bounded_int("n_bins", n_bins, 1)
    resolution = finite_positive("max_range_m", max_range_m) / n_bins
    beam_sigma_bins = finite_positive("beam_sigma_bins", beam_sigma_bins)
    noise_sigma = finite_positive("noise_sigma", noise_sigma, zero_ok=True)
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


class PlaceWorld:
    """A set of places, each with its own local reflector scene.

    Scans of place p are rendered inside scene p with the sensor near the
    scene origin; for ground-truth gating the places are anchored on a
    line with ``spacing_m`` separation, so only a place's own queries fall
    inside typical match gates. Local sensor offsets (query translations)
    carry over into the ground-truth coordinates.
    """

    def __init__(self, seed: int, cfg: WorldConfig = WorldConfig()):
        bounded_int("seed", seed, 0)
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
        rng = np.random.default_rng(bounded_int("seed", seed, 0))
        places, poses = [], []
        for t in range(bounded_int("trials", trials, 1)):
            places.append(t % self.cfg.n_places)
            step = int(rng.integers(self.cfg.n_azimuths))
            poses.append(SensorPose(0.0, 0.0, 2.0 * np.pi * step / self.cfg.n_azimuths))
        return self._trajectory("rotated-query", places, poses, (1, seed))

    def translated_query_trajectory(self, min_m: float, max_m: float, seed: int) -> Trajectory:
        """One query per place, offset by a random 2-D shift of |t| in [min_m, max_m]."""
        low, high = (finite_positive("translation bounds", bound, zero_ok=True) for bound in (min_m, max_m))
        if low > high:
            raise ArgumentError(f"translation bounds must satisfy 0 <= min <= max, got {min_m} and {max_m}")
        rng = np.random.default_rng(bounded_int("seed", seed, 0))
        places, poses = [], []
        for place in range(self.cfg.n_places):
            magnitude = rng.uniform(min_m, max_m)
            direction = rng.uniform(0.0, 2.0 * np.pi)
            places.append(place)
            poses.append(
                SensorPose(magnitude * np.cos(direction), magnitude * np.sin(direction), 0.0)
            )
        return self._trajectory("translated-query", places, poses, (2, seed))
