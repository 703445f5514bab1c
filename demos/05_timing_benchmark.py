"""Time descriptor construction and matching for the spectral residual
method against the sinogram-spectrum baseline on raw-scale scans.

Both methods are timed from the raw scan: a build sample covers
preprocessing (near-range suppression and range resampling) plus the
radial FFT and residual aggregation for the spectral method, and the
Cartesian projection, Radon transform and spectrum for the baseline. The
codebook is fitted once, outside the timed region. The spectral method
skips the projection and Radon transform when encoding, and compares
vectors by squared Euclidean distance rather than by circular
cross-correlation, so both phases come out much faster.

Run with:  python3 demos/05_timing_benchmark.py   (under half a minute)
"""

from dataclasses import replace

from radvlad import (
    RaplaceConfig,
    RunConfig,
    SensorPose,
    bench_timings,
    generate_scene,
    render_polar,
)

scans = []
for i in range(4):
    scene = generate_scene(80, 140.0, seed=500 + i)
    scan = render_polar(
        scene, SensorPose(0, 0, 0),
        n_azimuths=400, n_bins=3768, max_range_m=3768 * 0.0432, beam_sigma_bins=2.0,
    )
    scans.append(replace(scan, timestamp_ns=i * 10**9, id=f"demo-{i}"))
print(f"rendered {len(scans)} raw scans of shape {scans[0].power.shape}")

repetitions = 200
spectral = bench_timings("fft_radvlad", scans, repetitions, RunConfig(method="fft_radvlad"))
sinogram = bench_timings(
    "raplace",
    scans,
    repetitions,
    RunConfig(method="raplace", raplace=RaplaceConfig(width_px=128, resolution_m=2.5424)),
)

for report in (spectral, sinogram):
    print(f"{report.method:>12}: build median {report.median('build') * 1e3:8.2f} ms "
          f"(p95 {report.percentile('build', 95) * 1e3:8.2f} ms), "
          f"distance median {report.median('distance') * 1e6:7.1f} us")

print(f"build-time ratio:    {spectral.median('build') / sinogram.median('build'):.2f}")
print(f"distance-time ratio: {spectral.median('distance') / sinogram.median('distance'):.2f}")
