import hashlib

import numpy as np
import pytest

from radvlad import WorldConfig, load_codebook
from radvlad.cli import build_parser, main
from radvlad.runs import write_trajectory
from radvlad.synthetic import PlaceWorld

SUBCOMMANDS = ("ingest", "cluster", "encode", "localize", "sweep", "bench", "synth")


def tree_digest(root, skip=("timing.csv",)):
    """Digest of every file except wall-clock timing artefacts."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file() and p.name not in skip):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def raw_source(tmp_path_factory):
    """Three raw u8 scan files plus a pose CSV."""
    src = tmp_path_factory.mktemp("raw")
    rng = np.random.default_rng(0)
    for i in range(3):
        payload = rng.integers(0, 256, size=(8, 5 + 16), dtype=np.uint8)
        (src / f"{1000 + i}.bin").write_bytes(payload.tobytes())
    (src / "poses.csv").write_text(
        "timestamp_ns,easting_m,northing_m\n1000,0.0,0.0\n1001,5.0,0.0\n1002,10.0,0.0\n"
    )
    return src


def ingest_args(src, out):
    return [
        "ingest",
        "--src", str(src),
        "--out", str(out),
        "--rows", "8",
        "--header-bytes", "5",
        "--bins", "16",
        "--encoding", "u8",
        "--range-resolution", "0.25",
        "--poses", str(src / "poses.csv"),
    ]


@pytest.fixture(scope="module")
def synth_pair(tmp_path_factory):
    """Query/reference run directories from a small synthetic world."""
    root = tmp_path_factory.mktemp("runs")
    world = PlaceWorld(seed=6, cfg=WorldConfig(n_places=5, n_bins=128))
    ref = world.reference_trajectory()
    query = world.rotated_query_trajectory(trials=5, seed=7)
    write_trajectory(root / "ref", ref.scans, ref.poses)
    write_trajectory(root / "query", query.scans, query.poses)
    return root / "query", root / "ref"


SYNTH_CFG_FLAGS = [
    "--suppress-bins", "0",
    "--target-bins", "128",
    "--k", "4",
    "--stride", "1",
    "--n-max", "5",
    "--raplace-width-px", "64",
    "--raplace-resolution-m", "1.875",
]


class TestHelp:
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0

    def test_localize_help_documents_config_fields_and_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["localize", "--help"])
        text = capsys.readouterr().out
        for flag in (
            "--method", "--suppress-bins", "--target-bins", "--k", "--kmeans-tol",
            "--kmeans-seed", "--kmeans-max-iter", "--stride", "--threshold-m",
            "--n-max", "--vlad-l2-normalize", "--raplace-width-px",
            "--raplace-resolution-m", "--raplace-scale-pct", "--raplace-n-angles",
        ):
            assert flag in text
        for default in ("60", "512", "64", "0.0001", "300", "10", "25", "50", "256", "1.2717"):
            assert default in text


def test_config_flags_match_config_keys():
    from radvlad.config import config_keys

    localize = build_parser()._subparsers._group_actions[0].choices["localize"]
    (group,) = [g for g in localize._action_groups if g.title.startswith("run configuration")]
    flag_dests = {action.dest for action in group._group_actions} - {"config"}
    assert flag_dests == {key.replace(".", "_") for key in config_keys()}


class TestIngest:
    def test_writes_scans_and_poses(self, raw_source, tmp_path):
        out = tmp_path / "run"
        assert main(ingest_args(raw_source, out)) == 0
        scans = sorted((out / "scans").glob("*.prsn"))
        assert [p.name for p in scans] == ["000000.prsn", "000001.prsn", "000002.prsn"]
        assert (out / "poses.csv").exists()

    def test_rerun_is_bit_identical(self, raw_source, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(ingest_args(raw_source, out_a)) == 0
        assert main(ingest_args(raw_source, out_b)) == 0
        assert tree_digest(out_a) == tree_digest(out_b)

    def test_partial_failure_keeps_good_files(self, raw_source, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        for path in raw_source.glob("*.bin"):
            (src / path.name).write_bytes(path.read_bytes())
        (src / "1001.bin").write_bytes(b"short")  # corrupt the middle file
        out = tmp_path / "run"
        args = ingest_args(src, out)
        args[args.index("--poses") + 1] = str(raw_source / "poses.csv")
        assert main(args) == 1
        written = sorted((out / "scans").glob("*.prsn"))
        assert [p.name for p in written] == ["000000.prsn", "000002.prsn"]
        assert "1001.bin" in capsys.readouterr().err


class TestClusterEncode:
    def test_cluster_writes_codebook(self, synth_pair, tmp_path):
        _, ref = synth_pair
        out = tmp_path / "map.cdbk"
        assert main(["cluster", "--run", str(ref), "--out", str(out), "--method", "fft_radvlad", *SYNTH_CFG_FLAGS]) == 0
        cb = load_codebook(out)
        assert cb.k == 4 and cb.width == 128

    def test_flags_override_config_file(self, synth_pair, tmp_path):
        _, ref = synth_pair
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("k = 3\nsuppress_bins = 0\ntarget_bins = 128\nstride = 1\n# comment\n")
        out = tmp_path / "k2.cdbk"
        rc = main(["cluster", "--run", str(ref), "--out", str(out), "--config", str(cfg_file), "--k", "2"])
        assert rc == 0
        assert load_codebook(out).k == 2

    def test_unknown_config_key_fails(self, synth_pair, tmp_path):
        _, ref = synth_pair
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("not_a_key = 1\n")
        rc = main(["cluster", "--run", str(ref), "--out", str(tmp_path / "x.cdbk"), "--config", str(cfg_file)])
        assert rc == 1

    def test_encode_writes_descriptor_per_scan(self, synth_pair, tmp_path):
        _, ref = synth_pair
        cb_path = tmp_path / "map.cdbk"
        main(["cluster", "--run", str(ref), "--out", str(cb_path), "--method", "fft_radvlad", *SYNTH_CFG_FLAGS])
        out = tmp_path / "descs"
        rc = main([
            "encode", "--run", str(ref), "--out", str(out),
            "--codebook", str(cb_path), "--method", "fft_radvlad", *SYNTH_CFG_FLAGS,
        ])
        assert rc == 0
        assert len(sorted(out.glob("*.desc"))) == 5

    def test_encode_vlad_without_codebook_fails(self, synth_pair, tmp_path):
        _, ref = synth_pair
        rc = main(["encode", "--run", str(ref), "--out", str(tmp_path / "d"), "--method", "radvlad", *SYNTH_CFG_FLAGS])
        assert rc == 1

    def test_cluster_and_encode_idempotent(self, synth_pair, tmp_path):
        _, ref = synth_pair
        cb_a, cb_b = tmp_path / "a.cdbk", tmp_path / "b.cdbk"
        for out in (cb_a, cb_b):
            assert main(["cluster", "--run", str(ref), "--out", str(out), "--method", "fft_radvlad", *SYNTH_CFG_FLAGS]) == 0
        assert cb_a.read_bytes() == cb_b.read_bytes()
        enc_a, enc_b = tmp_path / "ea", tmp_path / "eb"
        for out in (enc_a, enc_b):
            assert main([
                "encode", "--run", str(ref), "--out", str(out),
                "--codebook", str(cb_a), "--method", "fft_radvlad", *SYNTH_CFG_FLAGS,
            ]) == 0
        assert tree_digest(enc_a) == tree_digest(enc_b)


class TestLocalize:
    def test_self_pair_reports_100(self, synth_pair, tmp_path, capsys):
        _, ref = synth_pair
        out = tmp_path / "out"
        rc = main(["localize", "--query", str(ref), "--ref", str(ref), "--method", "fft_radvlad", "--out", str(out), *SYNTH_CFG_FLAGS])
        assert rc == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[1].split(",")[4] == "100.000000"
        assert (out / "codebook.cdbk").exists()
        assert (out / "distances.dmat").exists()
        timing_lines = (out / "timing.csv").read_text().splitlines()
        assert timing_lines[0] == "method,phase,sample_idx,seconds"
        assert len(timing_lines) == 1 + 10 + 1  # 5 ref + 5 query encodes, 1 distance sample

    def test_codebook_dimensions_match_config(self, synth_pair, tmp_path):
        _, ref = synth_pair
        out = tmp_path / "out"
        main(["localize", "--query", str(ref), "--ref", str(ref), "--method", "fft_radvlad", "--out", str(out), *SYNTH_CFG_FLAGS])
        cb = load_codebook(out / "codebook.cdbk")
        assert cb.k == 4 and cb.width == 128

    def test_repeat_invocations_identical(self, synth_pair, tmp_path):
        query, ref = synth_pair
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["localize", "--query", str(query), "--ref", str(ref), "--method", "fft_radvlad", *SYNTH_CFG_FLAGS]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert tree_digest(out_a) == tree_digest(out_b)

    def test_jobs_do_not_change_artifacts(self, synth_pair, tmp_path):
        query, ref = synth_pair
        out_a, out_b = tmp_path / "j1", tmp_path / "j2"
        args = ["localize", "--query", str(query), "--ref", str(ref), "--method", "radvlad", *SYNTH_CFG_FLAGS]
        assert main(args + ["--out", str(out_a), "--jobs", "1"]) == 0
        assert main(args + ["--out", str(out_b), "--jobs", "3"]) == 0
        assert tree_digest(out_a) == tree_digest(out_b)

    def test_missing_input_fails(self, synth_pair, tmp_path):
        query, _ = synth_pair
        rc = main(["localize", "--query", str(query), "--ref", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        assert rc == 1


class TestSweepCommand:
    def test_ringkey_grid_rows(self, synth_pair, tmp_path):
        query, ref = synth_pair
        out = tmp_path / "grid.csv"
        rc = main([
            "sweep", "--method", "ringkey", "--query", str(query), "--ref", str(ref),
            "--out", str(out), "--azis", "16,32,64", "--bins", "64,128", "--lengths", "32,64",
            "--suppress-bins", "0", "--stride", "1",
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "param1,param2,param3,recall_at_1"
        assert len(lines) == 1 + 12

    def test_raplace_grid_rows(self, synth_pair, tmp_path):
        query, ref = synth_pair
        out = tmp_path / "grid.csv"
        rc = main([
            "sweep", "--method", "raplace", "--query", str(query), "--ref", str(ref),
            "--out", str(out), "--scales", "20,30", "--resolutions", "1.875,3.75",
            "--widths", "64,32", "--stride", "1",
        ])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 1 + 4

    def test_empty_grid_zero_rows(self, synth_pair, tmp_path):
        query, ref = synth_pair
        out = tmp_path / "empty.csv"
        rc = main([
            "sweep", "--method", "ringkey", "--query", str(query), "--ref", str(ref),
            "--out", str(out), "--azis", "", "--bins", "64", "--lengths", "32",
            "--suppress-bins", "0", "--stride", "1",
        ])
        assert rc == 0
        assert out.read_text().splitlines() == ["param1,param2,param3,recall_at_1"]

    @pytest.mark.parametrize(
        "flag, value",
        [("--azis", "16,x"), ("--bins", "64;128"), ("--lengths", "3.5"),
         ("--scales", "10,x"), ("--resolutions", "1.8.75"), ("--widths", "64,3x")],
    )
    def test_malformed_list_is_a_usage_error(self, synth_pair, tmp_path, capsys, flag, value):
        query, ref = synth_pair
        method = "ringkey" if flag in ("--azis", "--bins", "--lengths") else "raplace"
        with pytest.raises(SystemExit) as exc:
            main([
                "sweep", "--method", method, "--query", str(query), "--ref", str(ref),
                "--out", str(tmp_path / "grid.csv"), f"{flag}={value}",
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}" in err and "Traceback" not in err
        assert not (tmp_path / "grid.csv").exists()

    def test_sweep_idempotent_across_job_counts(self, synth_pair, tmp_path):
        query, ref = synth_pair
        args = [
            "sweep", "--method", "ringkey", "--query", str(query), "--ref", str(ref),
            "--azis", "16,64", "--bins", "128", "--lengths", "32",
            "--suppress-bins", "0", "--stride", "1",
        ]
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out_a), "--jobs", "1"]) == 0
        assert main(args + ["--out", str(out_b), "--jobs", "3"]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()


class TestBenchCommand:
    def test_zero_repetitions(self, synth_pair, tmp_path):
        _, ref = synth_pair
        out = tmp_path / "timings.csv"
        rc = main(["bench", "--run", str(ref), "--repetitions", "0", "--out", str(out), "--method", "ringkey", *SYNTH_CFG_FLAGS])
        assert rc == 0
        assert out.read_text().splitlines() == ["method,phase,sample_idx,seconds"]

    def test_small_bench(self, synth_pair, tmp_path):
        _, ref = synth_pair
        out = tmp_path / "timings.csv"
        rc = main(["bench", "--run", str(ref), "--repetitions", "4", "--out", str(out), "--method", "ringkey", *SYNTH_CFG_FLAGS])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 8

    def test_bench_reports_blas_threads(self, synth_pair, tmp_path, capsys):
        _, ref = synth_pair
        rc = main(["bench", "--run", str(ref), "--repetitions", "2", "--out", str(tmp_path / "t.csv"), "--method", "ringkey", *SYNTH_CFG_FLAGS])
        assert rc == 0
        assert "BLAS threads " in capsys.readouterr().out


class TestSynthCommand:
    def test_rotation_scenario(self, tmp_path, capsys):
        out = tmp_path / "rot"
        rc = main([
            "synth", "--scenario", "rotation", "--out", str(out),
            "--places", "5", "--trials", "6", "--bins", "128", "--k", "3",
        ])
        assert rc == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[1].split(",")[4] == "100.000000"

    def test_seed_repeat_identical(self, tmp_path):
        args = ["synth", "--scenario", "rotation", "--places", "4", "--trials", "4", "--bins", "128", "--k", "3", "--seed", "5"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert tree_digest(out_a) == tree_digest(out_b)

    def test_translation_scenario_writes_both_methods(self, tmp_path):
        out = tmp_path / "tr"
        rc = main([
            "synth", "--scenario", "translation", "--out", str(out),
            "--places", "4", "--bins", "128", "--k", "3",
        ])
        assert rc == 0
        lines = (out / "results.csv").read_text().splitlines()
        methods = {line.split(",")[2] for line in lines[1:]}
        assert methods == {"radvlad", "fft_radvlad"}
        assert (out / "distances_radvlad.dmat").exists()
        assert (out / "distances_fft_radvlad.dmat").exists()


@pytest.mark.parametrize("command", ["localize", "cluster", "bench", "synth"])
def test_negative_seed_exits_1_without_traceback(synth_pair, tmp_path, capsys, command):
    query, ref = synth_pair
    out = str(tmp_path / "out")
    argv = {
        "localize": ["localize", "--query", str(query), "--ref", str(ref), "--out", out, "--kmeans-seed", "-1"],
        "cluster": ["cluster", "--run", str(ref), "--out", out, "--kmeans-seed", "-1"],
        "bench": ["bench", "--run", str(ref), "--out", out, "--repetitions", "1", "--kmeans-seed", "-1"],
        "synth": ["synth", "--scenario", "rotation", "--out", out, "--seed", "-1", "--places", "2", "--trials", "2"],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"radvlad {command}: ") and "seed" in err
    assert "Traceback" not in err


def test_parser_lists_all_subcommands():
    parser = build_parser()
    actions = [a for a in parser._actions if hasattr(a, "choices") and a.choices]
    assert set(actions[0].choices) == set(SUBCOMMANDS)
