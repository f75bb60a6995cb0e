import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

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
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "--frobnicate" in err

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

    def test_explosive_needs_valid_truncation(self, capsys):
        code, _, err = run(["limit-sample", "--regime", "P2", "--rho", "1.2",
                            "--mu", "1", "--draws", "100", "--truncation", "5"], capsys)
        assert code == 2

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
        ({"regime": {"tag": "P1", "rho": "0.5"}}, "rho"),
        ({"mu": "1.0"}, "mu"),
        ({"model": {"id": "gaussian", "sigma": "2"}}, "sigma"),
        ({"model": {"id": "gaussian", "sigma": True}}, "sigma"),
        ({"model": {"id": "gaussian", "sigma": 1e-320}}, "sigma"),
    ], ids=["unknown-key", "null-mu", "scalar-n_list", "fractional-n_list", "bool-seed",
            "string-rho", "string-mu", "string-sigma", "bool-sigma", "tiny-sigma"])
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
        {"regime": {"tag": "P2", "rho": 1.2}, "truncation_M": 0},
    ], ids=["P3-zero-mu", "P6-zero-mu", "P5-zero-mu", "P2-zero-truncation"])
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
_FILE_FLAGS = ("--out", "--in", "--json", "--config", "--csv")
# Each subcommand with the flags it requires (most examples carry them, so
# that most runs get past argument parsing) and whether it takes a regime.
_SUBCOMMANDS = {
    "simulate": (("--regime", "--mu", "--n"), True),
    "estimate": (("--in",), False),
    "limit-sample": (("--regime", "--mu"), True),
    "mc": (("--config",), False),
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
    # P2's limit series have M ~ 27.6/log|rho| terms per draw, and a chunk
    # of 4096 draws holds 4096*M floats: |rho| near 1 means gigabytes.
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
