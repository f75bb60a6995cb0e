import json

import pytest

from ar1mc.cli import main
from ar1mc.estimator import ls_estimate
from ar1mc.innovations import gaussian
from ar1mc.process import Regime, simulate_path
from ar1mc.rng import DEFAULT_SEED


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

    def test_overflow_is_runtime_error(self, capsys):
        code, _, err = run(["simulate", "--regime", "P2", "--rho", "2.0",
                            "--n", "5000", "--mu", "1"], capsys)
        assert code == 1
        assert "rho^n" in err


class TestEstimateRoundTrip:
    def test_full_precision_round_trip(self, tmp_path, capsys):
        csv = tmp_path / "p.csv"
        code, _, _ = run(["simulate", "--regime", "P1", "--rho", "0.5", "--n", "200",
                          "--mu", "1", "--y0", "0.25", "--seed", "21", "--out", str(csv)], capsys)
        assert code == 0
        out_json = tmp_path / "est.json"
        code, out, _ = run(["estimate", "--in", str(csv), "--json", str(out_json)], capsys)
        assert code == 0
        # independent in-memory reference
        path = simulate_path(Regime("P1", rho=0.5), 1.0, 0.25, gaussian(1.0), 200, 21)
        est = ls_estimate(path)
        payload = json.loads(out_json.read_text())
        assert payload["mu_hat"] == est.mu_hat    # bit-identical round trip
        assert payload["rho_hat"] == est.rho_hat
        assert payload["delta3"] == est.delta3
        assert f"mu_hat  = {est.mu_hat!r}" in out

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

    def test_explosive_needs_valid_truncation(self, capsys):
        code, _, err = run(["limit-sample", "--regime", "P2", "--rho", "1.2",
                            "--mu", "1", "--draws", "100", "--truncation", "5"], capsys)
        assert code == 2

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
        assert "ks_rho" in out or "ks" in out  # summary table printed

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
    ], ids=["unknown-key", "null-mu", "scalar-n_list", "fractional-n_list", "bool-seed"])
    def test_unknown_config_key_exits_2(self, tmp_path, capsys, overrides, named):
        cfg = write_config(tmp_path / "exp.json", **overrides)
        code, _, err = run(["mc", "--config", str(cfg)], capsys)
        assert code == 2
        assert named in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["mc", "rates"])
    def test_workers_below_one_exits_2(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path / "exp.json", n_list=[100, 200, 400])
        code, _, err = run([command, "--config", str(cfg), "--workers", "0"], capsys)
        assert code == 2
        assert "workers" in err

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

    def test_seed_override_changes_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.json")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["mc", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["mc", "--config", str(cfg), "--seed", "123", "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() != b.read_bytes()
        assert json.loads(b.read_text())["config"]["seed"] == 123


class TestRates:
    def test_rate_fit_artifact(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.json", n_list=[100, 200, 400, 800],
                           replications=400)
        out = tmp_path / "rates.json"
        code, _, _ = run(["rates", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["n_list"] == [100, 200, 400, 800]
        assert -0.75 < doc["rho"]["slope"] < -0.25

    def test_too_few_sizes_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.json", n_list=[100, 200])
        code, _, err = run(["rates", "--config", str(cfg)], capsys)
        assert code == 2
