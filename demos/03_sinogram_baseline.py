"""The sinogram-spectrum baseline: Cartesian projection, Radon transform,
radial downscale, per-angle spectrum, and circular-correlation matching.

Run with:  python3 demos/03_sinogram_baseline.py
"""

import numpy as np

from radvlad import (
    RaplaceConfig,
    SensorPose,
    encode_raplace,
    generate_scene,
    polar_to_cartesian,
    radon_sinogram,
    raplace_similarity,
    render_polar,
)

H, W = 64, 256
scene = generate_scene(40, 60.0, seed=21)
scan = render_polar(scene, SensorPose(0, 0, 0), n_azimuths=H, n_bins=W, max_range_m=60.0)

cfg = RaplaceConfig(width_px=128, resolution_m=2 * 60.0 / 128, scale_pct=25.0)
cart = polar_to_cartesian(scan, cfg.width_px, cfg.resolution_m)
sino = radon_sinogram(cart, cfg.width_px)
print(f"sinogram: {sino.shape} (angles x projection samples), covers [0, pi)")

desc = encode_raplace(scan, cfg)
print(f"descriptor: {desc.spectrum.shape} "
      f"(angle rows x {cfg.scale_pct:.0f}% radial samples, DFT magnitude per row)")

# Rotating the vehicle rotates the Cartesian scan, which circularly
# shifts the spectrum rows; the correlation peak search absorbs it.
steps = 4
rotated_scan = render_polar(
    scene, SensorPose(0, 0, 2 * np.pi * steps / H), n_azimuths=H, n_bins=W, max_range_m=60.0
)
rotated_desc = encode_raplace(rotated_scan, cfg)

self_score = raplace_similarity(desc, desc)
rot_score = raplace_similarity(desc, rotated_desc)
print(f"similarity self: {self_score:.2f}, vs {steps}-step rotated view: {rot_score:.2f}")

other = encode_raplace(
    render_polar(generate_scene(40, 60.0, seed=99), SensorPose(0, 0, 0),
                 n_azimuths=H, n_bins=W, max_range_m=60.0),
    cfg,
)
print(f"similarity vs a different place: {raplace_similarity(desc, other):.2f} (lower)")
