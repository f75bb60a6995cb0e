import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ar1mc import limits
from ar1mc.cli import main
from ar1mc.estimator import ls_estimate
from ar1mc.innovations import _CHUNK_ELEMENTS, InnovationModel
from ar1mc.limits import sample_limit
from ar1mc.process import Regime, simulate_path
from ar1mc.rng import DEFAULT_SEED


SRC = Path(__file__).resolve().parents[1] / "src"
# Runs the CLI on argv, then prints the process's peak RSS in KiB: Linux's
# VmHWM, the high-water mark of this program's own memory.  getrusage's
# ru_maxrss would not do: it keeps the peak of the process that spawned it,
# so a test runner larger than the command would hide the command's peak.
PEAK_RSS = ("import sys\nfrom ar1mc.cli import main\ncode = main(sys.argv[1:])\n"
            "with open('/proc/self/status') as fh:\n"
            "    print(next(line.split()[1] for line in fh if line.startswith('VmHWM:')))\n"
            "sys.exit(code)\n")


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_config(path, **overrides):
    cfg = {
        "regime": {"tag": "P1", "rho": 0.5},
        "model": {"id": "gaussian", "sigma": 1.0},
        "mu": 1.0,
        "n_list": [100],
        "replications": 120,
        "limit_draws": 2000,
        "seed": 9,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


class TestSimulate:
    def test_csv_format(self, tmp_path, capsys):
        out = tmp_path / "path.csv"
        code, _, _ = run(["simulate", "--regime", "P4", "--c", "-2", "--n", "100",
                          "--mu", "1", "--model", "gaussian", "--sigma", "1",
                          "--seed", "7", "--out", str(out)], capsys)
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,y,e"
        assert len(lines) == 102  # header + t=0..100
        assert lines[1].startswith("0,") and lines[1].endswith(",")

    def test_stdout_default(self, capsys):
        code, out, _ = run(["simulate", "--regime", "P3", "--n", "60", "--mu", "1"], capsys)
        assert code == 0
        assert out.startswith("t,y,e\n")

    def test_missing_regime_parameter(self, capsys):
        code, _, err = run(["simulate", "--regime", "P1", "--n", "50", "--mu", "1"], capsys)
        assert code == 2
        assert "rho" in err

    def test_bad_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--regime", "P3", "--n", "50", "--mu", "1", "--frobnicate"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "--frobnicate" in err

    def test_overflow_is_runtime_error(self, capsys):
        code, _, err = run(["simulate", "--regime", "P2", "--rho", "2.0",
                            "--n", "5000", "--mu", "1"], capsys)
        assert code == 1
        assert "rho^n" in err

    @pytest.mark.filterwarnings("error")  # a numpy warning would add stderr lines
    def test_disc_overflow_refused_once_a_block_fills(self, capsys):
        # at rho = 0.5 a block holds 700 terms (see README)
        argv = ["simulate", "--regime", "P1", "--rho", "0.5", "--mu", "1e250"]
        code, out, _ = run(argv + ["--n", "100"], capsys)
        assert code == 0
        assert float(out.splitlines()[-1].split(",")[1]) == pytest.approx(2e250, rel=1e-13)
        code, out, err = run(argv + ["--n", "2000"], capsys)
        assert code == 1
        assert out == ""
        assert err == "error: simulated path overflowed double precision\n"


class TestEstimateRoundTrip:
    def test_full_precision_round_trip(self, tmp_path, capsys):
        csv = tmp_path / "p.csv"
        code, _, _ = run(["simulate", "--regime", "P1", "--rho", "0.5", "--n", "200",
                          "--mu", "1", "--y0", "0.25", "--seed", "21", "--out", str(csv)], capsys)
        assert code == 0
        out_json = tmp_path / "est.json"
        code, out, _ = run(["estimate", "--in", str(csv), "--out", str(out_json)], capsys)
        assert code == 0
        assert out == ""
        # independent in-memory reference
        path = simulate_path(Regime("P1", rho=0.5), 1.0, 0.25, InnovationModel("gaussian", 1.0),
                             200, 21)
        est = ls_estimate(path)
        payload = json.loads(out_json.read_text())
        assert payload == {**dataclasses.asdict(est), "n": 200}
        for key, value in dataclasses.asdict(est).items():  # bit-identical round trip
            assert payload[key].hex() == value.hex(), key
        # with no --out, the same bytes go to stdout
        code, out, err = run(["estimate", "--in", str(csv)], capsys)
        assert (code, err) == (0, "")
        assert out.encode() == out_json.read_bytes()

    def test_json_flag_is_a_usage_error(self, tmp_path, capsys):
        # estimate writes its one output to --out or stdout
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--in", "p.csv", "--json", str(tmp_path / "est.json")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "unrecognized arguments" in err and "--json" in err
        assert not (tmp_path / "est.json").exists()

    def test_constant_series_is_runtime_error(self, tmp_path, capsys):
        csv = tmp_path / "flat.csv"
        csv.write_text("t,y,e\n0,2.0,\n1,2.0,0.0\n2,2.0,0.0\n")
        code, _, err = run(["estimate", "--in", str(csv)], capsys)
        assert code == 1
        assert "constant" in err

    def test_malformed_header_rejected(self, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        csv.write_text("time,value\n0,1\n")
        code, _, err = run(["estimate", "--in", str(csv)], capsys)
        assert code == 2

    def test_missing_innovations_rejected(self, tmp_path, capsys):
        csv = tmp_path / "noe.csv"
        csv.write_text("t,y,e\n0,1.0,\n1,2.0,\n2,3.0,\n")
        code, _, err = run(["estimate", "--in", str(csv)], capsys)
        assert code == 2
        assert "innovation" in err

    def test_non_finite_values_rejected(self, tmp_path, capsys):
        csv = tmp_path / "nan.csv"
        csv.write_text("t,y,e\n0,1.0,\n1,2.0,0.5\n2,nan,0.1\n3,4.0,0.2\n")
        code, out, err = run(["estimate", "--in", str(csv)], capsys)
        assert code == 2
        assert "nan.csv" in err
        assert len(err.strip().splitlines()) == 1
        assert out == ""

    def test_overflowing_estimates_exit_1(self, tmp_path, capsys):
        # every sum of squares is finite, but Delta1 is not
        csv = tmp_path / "big.csv"
        csv.write_text("t,y,e\n0,0,\n1,1,1e308\n2,2,-1e308\n3,1e308,1e308\n")
        code, out, err = run(["estimate", "--in", str(csv)], capsys)
        assert code == 1
        assert "overflow" in err
        assert out == ""


class TestLimitSample:
    def test_csv_header_and_rows(self, tmp_path, capsys):
        out = tmp_path / "lim.csv"
        code, _, _ = run(["limit-sample", "--regime", "P6", "--c", "1", "--alpha", "0.5",
                          "--mu", "2", "--draws", "500", "--seed", "3", "--out", str(out)], capsys)
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "draw,comp1,comp2"
        assert len(lines) == 501
        first = lines[1].split(",")
        assert first[0] == "0"
        float(first[1]); float(first[2])

    @pytest.mark.parametrize("argv, regime, model, draws, y0", [
        (["--regime", "P6", "--c", "1", "--alpha", "0.5"], Regime("P6", c=1.0, alpha=0.5),
         InnovationModel("gaussian"), _CHUNK_ELEMENTS + 3, 0.0),
        # 471 draws to a chunk at rho = 1.5
        (["--regime", "P2", "--rho", "1.5", "--model", "pareto2", "--y0", "-2.5"],
         Regime("P2", rho=1.5), InnovationModel("pareto2"), 1000, -2.5),
    ], ids=["P6", "P2-pareto2-y0"])
    def test_csv_is_the_law_bit_for_bit(self, tmp_path, capsys, argv, regime, model, draws, y0):
        out = tmp_path / "lim.csv"
        code, _, _ = run(["limit-sample", *argv, "--mu", "2", "--draws", str(draws), "--seed", "3",
                          "--out", str(out)], capsys)
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        law = sample_limit(regime, 2.0, model, draws=draws, seed=3, y0=y0)
        assert [int(row[0]) for row in rows] == list(range(draws))
        for j in (0, 1):
            assert [float(row[j + 1]).hex() for row in rows] == [x.hex() for x in law[:, j].tolist()]

    def test_truncation_flag_is_a_usage_error(self, capsys):
        # the P2 series cutoff is derived from rho, never set
        with pytest.raises(SystemExit) as exc:
            main(["limit-sample", "--regime", "P2", "--rho", "1.2", "--mu", "1",
                  "--truncation", "50"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "--truncation" in err

    @pytest.mark.parametrize("regime", [
        ["--regime", "P1", "--rho", "0.5"],
        ["--regime", "P3"],
        ["--regime", "P6", "--c", "1", "--alpha", "0.5"],
    ], ids=["P1", "P3", "P6"])
    @pytest.mark.parametrize("y0", ["1e300", "0"])
    def test_y0_outside_p2_exits_2(self, capsys, regime, y0):
        # y0 enters only the P2 law; elsewhere it would be silently ignored
        code, out, err = run(["limit-sample", *regime, "--mu", "1", "--y0", y0,
                              "--draws", "3"], capsys)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "--y0" in err

    def test_p2_y0_defaults_to_zero(self, tmp_path, capsys):
        args = ["limit-sample", "--regime", "P2", "--rho", "1.2", "--mu", "1", "--draws", "200"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--y0", "0", "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_text() == b.read_text()

    @pytest.mark.parametrize("argv", [
        ["--regime", "P3", "--mu", "nan"],
        ["--regime", "P2", "--rho", "1.2", "--mu", "1", "--y0", "inf"],
        ["--regime", "P1", "--rho", "0.5", "--mu", "1", "--draws", "0"],
        ["--regime", "P5", "--c", "-1", "--alpha", "0.75", "--mu", "0"],
    ], ids=["nan-mu", "inf-y0", "zero-draws", "zero-mu-P5"])
    def test_bad_inputs_exit_2(self, capsys, argv):
        code, out, err = run(["limit-sample"] + argv, capsys)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.filterwarnings("error")  # a numpy warning would add stderr lines
    @pytest.mark.parametrize("argv", [
        ["--regime", "P2", "--rho", "1e300", "--mu", "1", "--y0", "1e10"],
        ["--regime", "P6", "--c", "1e200", "--alpha", "0.5", "--mu", "1"],
        ["--regime", "P4", "--c=-1e300", "--mu", "1"],
    ], ids=["P2-huge-rho", "P6-huge-c", "P4-huge-negative-c"])
    def test_overflowing_law_exits_1(self, capsys, argv):
        code, out, err = run(["limit-sample"] + argv, capsys)
        assert code == 1
        assert out == ""
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.filterwarnings("error")  # a numpy warning would add stderr lines
    def test_vanished_denominator_exits_1(self, capsys, monkeypatch):
        # One series term (M = 1) leaves U2 empty: at mu = 0 and y0 = 0 every
        # P2 denominator is 0.0.
        monkeypatch.setattr(limits, "_SERIES_TOL", 1.0)
        code, out, err = run(["limit-sample", "--regime", "P2", "--rho", "2", "--mu", "0",
                              "--draws", "50"], capsys)
        assert code == 1
        assert out == ""
        assert err == "error: explosive limit denominator vanished\n"

    def test_explosive_peak_memory_flat_in_root(self, tmp_path):
        # The P2 series have M ~ 27.6/log|rho| terms per draw.  Chunks of at
        # most 2^16 values keep the peak flat as rho nears 1, where a single
        # chunk of all 1000 draws would hold about 110 MB per array.
        peaks = []
        for rho in ("1.5", "1.01", "1.002"):
            done = subprocess.run(
                [sys.executable, "-c", PEAK_RSS, "limit-sample", "--regime", "P2", "--rho", rho,
                 "--mu", "1", "--draws", "1000", "--out", str(tmp_path / "lim.csv")],
                env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
                timeout=120, check=True)
            peaks.append(int(done.stdout) / 1024)
        assert max(peaks) - min(peaks) < 15.0, peaks

    @pytest.mark.parametrize("argv", [["--regime", "P2", "--rho", "1.5"],
                                      ["--regime", "P1", "--rho", "0.5"]],
                             ids=["P2-keyed-chunks", "normal-law"])
    def test_negative_seed_exits_2(self, capsys, argv):
        code, out, err = run(["limit-sample", *argv, "--mu", "1", "--seed", "-1"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: seed must be a nonnegative integer\n"

    def test_default_seed_documented_constant(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["limit-sample", "--regime", "P3", "--mu", "1", "--draws", "50"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--seed", str(DEFAULT_SEED), "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_text() == b.read_text()


class TestMc:
    def test_end_to_end_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.json")
        report = tmp_path / "report.json"
        csv = tmp_path / "reps.csv"
        code, out, _ = run(["mc", "--config", str(cfg), "--out", str(report),
                            "--csv", str(csv)], capsys)
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["config"]["seed"] == 9
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == "n,r,mu_hat,rho_hat,scaled_mu,scaled_rho,singular"
        assert len(lines) == 121
        assert out == ""  # the report went to --out

    def test_report_goes_to_stdout_without_out(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.json", n_list=[100, 200, 400])
        report = tmp_path / "report.json"
        code, out, _ = run(["mc", "--config", str(cfg), "--out", str(report)], capsys)
        assert (code, out) == (0, "")
        code, out, err = run(["mc", "--config", str(cfg)], capsys)
        assert (code, err) == (0, "")
        assert out == report.read_text()

    def test_missing_config_exits_2_with_filename(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        code, _, err = run(["mc", "--config", str(missing)], capsys)
        assert code == 2
        assert "missing.json" in err

    @pytest.mark.parametrize("overrides, named", [
        ({"typo_key": 1}, "typo_key"),
        ({"mu": None}, "mu"),
        ({"n_list": 100}, "n_list"),
        ({"n_list": [100.7]}, "n_list"),
        ({"seed": True}, "seed"),
        ({"regime": {"tag": "P1", "rho": "0.5"}}, "rho"),
        ({"mu": "1.0"}, "mu"),
        ({"model": {"id": "gaussian", "sigma": "2"}}, "sigma"),
        ({"model": {"id": "gaussian", "sigma": True}}, "sigma"),
        ({"model": {"id": "gaussian", "sigma": 1e-320}}, "sigma"),
        ({"truncation_M": -5000}, "truncation_M"),
        ({"regime": {"tag": "P3", "rho": None, "c": None}}, "null"),
    ], ids=["unknown-key", "null-mu", "scalar-n_list", "fractional-n_list", "bool-seed",
            "string-rho", "string-mu", "string-sigma", "bool-sigma", "tiny-sigma",
            "truncation_M", "null-regime-parameter"])
    def test_unknown_config_key_exits_2(self, tmp_path, capsys, overrides, named):
        cfg = write_config(tmp_path / "exp.json", **overrides)
        code, _, err = run(["mc", "--config", str(cfg)], capsys)
        assert code == 2
        assert named in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.filterwarnings("error")  # a numpy warning would add stderr lines
    def test_overflowing_squares_exit_1(self, tmp_path, capsys):
        # rho^n is about 1e158 here: below the path guard, but y^2 overflows
        cfg = write_config(tmp_path / "exp.json", regime={"tag": "P2", "rho": 1.2},
                           n_list=[2000])
        code, out, err = run(["mc", "--config", str(cfg)], capsys)
        assert code == 1
        assert "overflow" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("overrides", [
        {"regime": {"tag": "P3"}, "mu": 0.0},
        {"regime": {"tag": "P6", "c": 1.0, "alpha": 0.5}, "mu": 0.0},
        {"regime": {"tag": "P5", "c": -1.0, "alpha": 0.75}, "mu": 0.0},
    ], ids=["P3-zero-mu", "P6-zero-mu", "P5-zero-mu"])
    def test_undrawable_limit_refused_before_simulating(self, tmp_path, capsys,
                                                        monkeypatch, overrides):
        def no_replications(payload):
            raise AssertionError("a replication block ran")

        monkeypatch.setattr("ar1mc.montecarlo._replicate_block", no_replications)
        cfg = write_config(tmp_path / "exp.json", n_list=[5000, 10000], replications=1000,
                           **overrides)
        code, _, err = run(["mc", "--config", str(cfg)], capsys)
        assert code == 2
        assert len(err.strip().splitlines()) == 1

    def test_workers_below_one_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.json", n_list=[100, 200, 400])
        code, _, err = run(["mc", "--config", str(cfg), "--workers", "0"], capsys)
        assert code == 2
        assert "workers" in err

    @pytest.mark.parametrize("text", ["[]", "null", '"x"', "3"])
    def test_config_not_a_mapping_exits_2(self, tmp_path, capsys, text):
        cfg = tmp_path / "exp.json"
        cfg.write_text(text)
        code, out, err = run(["mc", "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: experiment config must be a mapping\n"

    def test_point_mass_limit_writes_null_correlation(self, tmp_path, capsys):
        # Under P5 with mu = 0 and alpha <= 1/2 the intercept's limit is 0, so
        # the limit's correlation is undefined: null, never NaN (not JSON).  A
        # KS distance to that point mass measures nothing, so ks_mu is null too.
        cfg = write_config(tmp_path / "exp.json", regime={"tag": "P5", "c": -1.0, "alpha": 0.25},
                           mu=0.0, n_list=[200, 400, 800], replications=200, seed=3)
        report = tmp_path / "report.json"
        code, _, _ = run(["mc", "--config", str(cfg), "--out", str(report)], capsys)
        assert code == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        written = json.loads(report.read_text(), parse_constant=refuse)
        limit = written["limit"]
        assert limit["comp1"]["variance"] == 0.0
        assert limit["component_correlation"] is None
        assert [block["ks_mu"] for block in written["per_n"]] == [None, None, None]
        assert all(0.0 < block["ks_rho"] < 1.0 for block in written["per_n"])

    def test_near_unit_root_far_on_the_explosive_side_runs(self, tmp_path, capsys):
        # c = 400: int G_c^2 overflows, but the limit law's factor does not
        cfg = write_config(tmp_path / "exp.json", regime={"tag": "P4", "c": 400.0},
                           model={"id": "gaussian"}, n_list=[200, 500, 1000],
                           replications=200, seed=3)
        code, _, err = run(["mc", "--config", str(cfg)], capsys)
        assert (code, err) == (0, "")
        lim = tmp_path / "lim.csv"
        code, _, err = run(["limit-sample", "--regime", "P4", "--c", "400", "--mu", "1",
                            "--out", str(lim)], capsys)
        assert (code, err) == (0, "")
        draws = [float(v) for line in lim.read_text().splitlines()[1:] for v in line.split(",")]
        assert all(math.isfinite(v) for v in draws)

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(["mc", "--config", str(bad)], capsys)
        assert code == 2

    def test_byte_identical_reports_any_worker_count(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.json", n_list=[100, 150], replications=300)
        outs = []
        for i, workers in enumerate((1, 4, 1)):
            report = tmp_path / f"r{i}.json"
            code, _, _ = run(["mc", "--config", str(cfg), "--out", str(report),
                              "--workers", str(workers)], capsys)
            assert code == 0
            outs.append(report.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_seed_flag_is_refused(self, tmp_path, capsys):
        # the report is a function of the config alone; its seed is the config's
        cfg = write_config(tmp_path / "exp.json")
        with pytest.raises(SystemExit) as exc:
            main(["mc", "--config", str(cfg), "--seed", "5"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "--seed" in err


class TestOutOfMemory:
    # Each run asks numpy for more than 2^48 bytes in one array, beyond any
    # address space, so it fails before anything is allocated.
    @pytest.mark.parametrize("argv", [
        ["limit-sample", "--regime", "P1", "--rho", "0.5", "--mu", "1", "--draws", str(10 ** 16)],
        ["simulate", "--regime", "P3", "--mu", "1", "--n", str(10 ** 16)],
        # the series cutoff at this root is about 1.2e17 terms
        ["limit-sample", "--regime", "P2", "--rho", "1.0000000000000002", "--mu", "1"],
        ["mc", "--config", "CONFIG"],
    ], ids=["limit-sample-draws", "simulate-n", "limit-sample-P2-cutoff", "mc-n_list"])
    def test_size_too_large_exits_1(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path / "exp.json", n_list=[10 ** 16])
        code, out, err = run([str(cfg) if a == "CONFIG" else a for a in argv], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    # A size past numpy's own limit on a dimension (2^63 - 1 elements) is a
    # ValueError in numpy, hence a usage error.  Under mc it also guards the
    # stream counter, whose words hold sizes below 2^64 only: the allocation
    # must refuse the size before any counter is set, which would raise an
    # OverflowError (exit 1).
    @pytest.mark.parametrize("argv", [
        ["limit-sample", "--regime", "P1", "--rho", "0.5", "--mu", "1", "--draws", str(2 ** 63)],
        ["simulate", "--regime", "P3", "--mu", "1", "--n", str(2 ** 64)],
        ["mc", "--config", "CONFIG"],
    ], ids=["limit-sample-draws", "simulate-n", "mc-n_list"])
    def test_size_past_numpy_limit_exits_2(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path / "exp.json", n_list=[2 ** 64])
        code, out, err = run([str(cfg) if a == "CONFIG" else a for a in argv], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1


class TestStreamedCsv:
    # The CSV writer formats and writes one row at a time, so the peak grows
    # with the arrays a run draws, not with its text (the whole text of
    # 200 000 rows would add about 37 MB).
    @pytest.mark.parametrize("argv", [
        ["limit-sample", "--regime", "P1", "--rho", "0.5", "--mu", "1", "--draws"],
        ["simulate", "--regime", "P1", "--rho", "0.5", "--mu", "1", "--n"],
    ], ids=["limit-sample", "simulate"])
    def test_peak_memory_flat_in_rows(self, tmp_path, argv):
        # the two runs are separate processes, so they may run side by side
        runs = [subprocess.Popen(
            [sys.executable, "-c", PEAK_RSS, *argv, rows, "--out", str(tmp_path / f"{rows}.csv")],
            env=dict(os.environ, PYTHONPATH=str(SRC)), stdout=subprocess.PIPE, text=True)
            for rows in ("20000", "200000")]
        outs = [run.communicate(timeout=120)[0] for run in runs]
        assert [run.returncode for run in runs] == [0, 0]
        peaks = [int(out) / 1024 for out in outs]
        assert peaks[1] - peaks[0] < 15.0, peaks

    def test_closed_stdout_pipe_exits_1(self):
        # 20 000 rows overrun any pipe buffer, so a write meets the closed end.
        proc = subprocess.Popen(
            [sys.executable, "-m", "ar1mc.cli", "limit-sample", "--regime", "P3", "--mu", "1",
             "--draws", "20000"],
            env=dict(os.environ, PYTHONPATH=str(SRC)), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1, err

    @pytest.mark.parametrize("argv", [
        ["limit-sample", "--regime", "P1", "--rho", "0.5", "--mu", "1", "--draws", "10"],
        ["mc", "--config", "CONFIG"],
        ["estimate", "--in", "PATH"],
    ], ids=["limit-sample", "mc", "estimate"])
    def test_closed_stdout_pipe_exits_1_when_buffered(self, tmp_path, argv):
        # With stdout block-buffered, 10 rows (or a one-size report, or an
        # estimate) stay in the buffer until main flushes it; the closed pipe
        # must fail there, not at interpreter exit.
        files = {"CONFIG": write_config(tmp_path / "exp.json"), "PATH": tmp_path / "path.csv"}
        assert main(["simulate", "--regime", "P3", "--n", "60", "--mu", "1",
                     "--out", str(files["PATH"])]) == 0
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.Popen(
            [sys.executable, "-m", "ar1mc.cli", *(str(files.get(a, a)) for a in argv)],
            env=dict(env, PYTHONPATH=str(SRC)), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1, err


class TestRates:
    # The RMSE log-log rate fit is part of every `mc` report.
    def test_rate_fit_artifact(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.json", n_list=[100, 200, 400, 800],
                           replications=400)
        out = tmp_path / "report.json"
        code, _, _ = run(["mc", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 0
        doc = json.loads(out.read_text())["rate_fit"]
        assert doc["n_list"] == [100, 200, 400, 800]
        assert -0.75 < doc["rho"]["slope"] < -0.25

    def test_two_sizes_give_null_rate_fit(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.json", n_list=[100, 200])
        out = tmp_path / "report.json"
        code, _, _ = run(["mc", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 0
        assert json.loads(out.read_text())["rate_fit"] is None

    def test_rates_subcommand_is_gone(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.json", n_list=[100, 200, 400])
        with pytest.raises(SystemExit) as exc:
            main(["rates", "--config", str(cfg)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "invalid choice" in err and "rates" in err


# --- fuzzed outside inputs ----------------------------------------------------
#
# Property: whatever the argv or the path CSV, ar1mc exits 0, 1 or 2 and
# writes at most one line to stderr.  Warnings are errors here, so a numpy
# warning (two stderr lines in a real run) fails the property as loudly as a
# traceback does.  Sizes (--n, --draws, replications) come from a small range
# and explosive roots keep |rho| >= 1.5, so that no example asks for a large
# allocation: see the unbounded-work entries in CHANGES.md.

_FLAG_VALUES = {
    "--regime": st.sampled_from(["P1", "P2", "P3", "P4", "P5", "P6", "P7", ""]),
    "--model": st.sampled_from(["gaussian", "uniform", "rademacher", "pareto2", "cauchy"]),
}
_SIZE_FLAGS = ("--n", "--draws", "--truncation", "--workers", "--seed")
_REAL_FLAGS = ("--rho", "--c", "--alpha", "--sigma", "--mu", "--y0")
# --truncation and --json are removed flags, kept as probes
_FILE_FLAGS = ("--out", "--in", "--json", "--config", "--csv")
# Each subcommand with the flags it requires (most examples carry them, so
# that most runs get past argument parsing) and whether it takes a regime.
_SUBCOMMANDS = {
    "simulate": (("--regime", "--mu", "--n"), True),
    "estimate": (("--in",), False),
    "limit-sample": (("--regime", "--mu"), True),
    "mc": (("--config",), False),
    # "rates" (its fit is in every mc report) and "fit" are unknown commands
    "rates": (("--config",), False),
    "fit": ((), False),
    "-h": ((), False),
}
_ALL_FLAGS = list(_FLAG_VALUES) + list(_SIZE_FLAGS) + list(_REAL_FLAGS) + list(_FILE_FLAGS)

_reals = st.one_of(
    st.sampled_from(["0", "1", "-1", "0.5", "-0.5", "1.5", "-2", "3", "0.25", "0.75"]),
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "1e200", "x", ""]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
_sizes = st.one_of(
    st.integers(-3, 400).map(str),
    st.sampled_from(["0", "1", "2", "1.5", "ten", "", str(2 ** 70), "-" + str(2 ** 70)]),
)


def _explosive_roots_only_far_from_one(argv):
    # P2's limit series have M ~ 27.6/log|rho| terms per draw, so the time
    # of a draw grows without bound as |rho| nears 1.
    for flag, value in zip(argv, argv[1:]):
        if flag == "--rho":
            try:
                rho = abs(float(value))
            except ValueError:
                continue
            if 1.0 < rho < 1.5:
                return False
    return True


@st.composite
def _argv(draw, files):
    command = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    required, takes_regime = _SUBCOMMANDS[command]
    flags = [f for f in required if draw(st.integers(0, 9))]
    if takes_regime:
        flags += [f for f in ("--rho", "--c", "--alpha") if draw(st.booleans())]
    flags += draw(st.lists(st.sampled_from(_ALL_FLAGS + ["--frobnicate"]), max_size=5))
    argv = [command]
    for flag in flags:
        argv.append(flag)
        if flag in _FLAG_VALUES:
            argv.append(draw(_FLAG_VALUES[flag]))
        elif flag in _SIZE_FLAGS:
            argv.append(draw(_sizes))
        elif flag in _REAL_FLAGS:
            argv.append(draw(_reals))
        elif flag in _FILE_FLAGS:
            argv.append(draw(st.sampled_from(files)))
    return argv


def _run_fuzzed(argv):
    err = io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(io.StringIO()), redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) <= 1, (argv, err)


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Inputs the fuzzed argv may name: configs, a path CSV, odd paths."""
    root = tmp_path_factory.mktemp("fuzz")
    small = write_config(root / "small.json", n_list=[50, 60, 70], replications=100,
                         limit_draws=1000)
    p3 = write_config(root / "p3.json", regime={"tag": "P3"}, n_list=[50],
                      replications=100, limit_draws=1000)
    bad = root / "bad.json"
    bad.write_text("{not json")
    path_csv = root / "path.csv"
    assert main(["simulate", "--regime", "P1", "--rho", "0.5", "--n", "60", "--mu", "1",
                 "--out", str(path_csv)]) == 0
    binary = root / "binary.csv"
    binary.write_bytes(b"t,y,e\n\xff\xfe\x00\n")
    out = root / "out.txt"
    return [str(p) for p in (small, p3, bad, path_csv, binary, out, root,
                             root / "missing" / "x.json")]


@st.composite
def _path_csv_text(draw):
    header = draw(st.sampled_from(["t,y,e", "t,y,e", "t,y", "", "t,y,e,extra"]))
    rows = []
    for t in range(draw(st.integers(0, 12))):
        t_field = str(t) if draw(st.booleans()) or t == 0 else draw(_reals)
        y = draw(_reals)
        e = "" if t == 0 else draw(st.one_of(_reals, st.just("")))
        rows.append(",".join([t_field, y, e]) if draw(st.integers(0, 9)) else draw(st.text(max_size=8)))
    return "\n".join([header] + rows) + "\n"


class TestFuzzedInputs:
    @settings(max_examples=300)
    @given(data=st.data())
    def test_fuzzed_argv_exits_cleanly(self, data, fuzz_files):
        argv = data.draw(_argv(fuzz_files).filter(_explosive_roots_only_far_from_one))
        _run_fuzzed(argv)

    @settings(max_examples=300)
    @given(text=_path_csv_text())
    def test_fuzzed_path_csv_exits_cleanly(self, text, tmp_path_factory):
        csv = tmp_path_factory.mktemp("csv") / "path.csv"
        csv.write_text(text)
        _run_fuzzed(["estimate", "--in", str(csv)])
