"""Localisation benchmark: one workload per invocation, run from the repo root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The process first re-executes itself with ``PINNED_ENV`` in place. The
inputs for the seed are then generated in a child process, under
``.perfbench/`` in the current directory; this process then builds the
map and runs the closed query loop against the package in ``src/``. The
last line of standard output is the result object; diagnostics go to
standard error. Exits non-zero without a result if ``src/radvlad`` is
missing or anything fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
# One closed-loop client: BLAS and OpenMP pools get one thread, which is
# within nproc on any machine and keeps runs comparable. glibc malloc is
# fixed at the thresholds its dynamic rule converges to (32 MiB mmap, 64
# MiB trim); left dynamic, whether a query's large temporaries are
# reused or faulted in afresh depends on the process's allocation
# history, which moved the rawscan median by half between seeds.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=67108864",
}


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment_report() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "pinned_env": {v: os.environ.get(v) for v in PINNED_ENV},
        "blas_threads": blas_threads(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def parse_args(workloads):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    return args


def main() -> int:
    root = Path.cwd()
    src = root / "src"
    if not (src / "radvlad" / "__init__.py").is_file():
        print(f"error: no package at {src / 'radvlad'}; run from the repository root", file=sys.stderr)
        return 2
    # The pins must be in place when the process starts (glibc reads its
    # tunables then), so the benchmark re-executes itself once with them;
    # the generator inherits them.
    if os.environ.get("PERFBENCH_PINNED") != "1":
        os.environ.update(PINNED_ENV, PERFBENCH_PINNED="1")
        os.execv(sys.executable, [sys.executable, *sys.argv])
    os.environ["PYTHONPATH"] = os.pathsep.join([str(src), str(BENCH_DIR)])
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    import radvlad
    from workloads import WORKLOADS

    if Path(radvlad.__file__).resolve().parent != (src / "radvlad").resolve():
        raise RuntimeError(f"imported radvlad from {radvlad.__file__}, not {src}")
    args = parse_args(WORKLOADS)

    work = root / ".perfbench"
    inputs = work / "inputs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        # Generation runs in its own process so its memory never counts
        # towards this process's peak RSS.
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "workloads.py"),
             "--workload", args.workload, "--seed", str(args.seed), "--out", str(inputs)],
            check=True,
        )
        import bench

        print("# environment: " + json.dumps(environment_report()))
        trace_path = None
        if args.trace:
            (work / "traces").mkdir(parents=True, exist_ok=True)
            trace_path = work / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        result = bench.measure(WORKLOADS[args.workload], inputs, args.seconds, trace_path)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
