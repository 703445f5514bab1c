"""The quick demos run end to end against the library as it stands.

``demos/05_timing_benchmark.py`` is left out: it renders full-size scans
and takes 200 build and 200 distance samples for each of two methods,
which takes tens of seconds.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0[1-4]_*.py"))


def test_quick_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
