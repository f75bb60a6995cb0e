"""Command-line front end.

Subcommands:
    simulate      simulate one path, write CSV (t,y,e)
    estimate      least-squares fit of a path CSV
    limit-sample  draw from a regime's limit law, write CSV (draw,comp1,comp2)
    mc            run a replicated experiment from a JSON config
    rates         RMSE log-log rate fit over the config's n_list

Exit codes: 0 success, 1 runtime/I-O error, 2 usage or config error.
Numbers are written in shortest round-trip decimal form, so files parse
back to bit-identical floats.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import astuple

import numpy as np

from .estimator import SingularDesignError, ls_estimate
from .innovations import MODEL_IDS, model_from_config
from .limits import sample_limit
from .montecarlo import ConfigError, ExperimentConfig, run_experiment
from .process import Ar1Path, Regime, simulate_path
from .rng import DEFAULT_SEED

_USAGE_EXIT = 2
_RUNTIME_EXIT = 1


def _fmt(v) -> str:
    if v is None:
        return ""
    f = float(v)
    if math.isnan(f):
        return "nan"
    return repr(f)


def _regime_from_flags(args) -> Regime:
    kw = {}
    for name in ("rho", "c", "alpha"):
        v = getattr(args, name, None)
        if v is not None:
            kw[name] = v
    return Regime(args.regime, **kw)


def _model_from_flags(args):
    cfg = {"id": args.model}
    if args.sigma is not None:
        cfg["sigma"] = args.sigma
    return model_from_config(cfg)


def _write_text(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# --- subcommand implementations ---------------------------------------------


def _cmd_simulate(args) -> int:
    regime = _regime_from_flags(args)
    model = _model_from_flags(args)
    path = simulate_path(regime, args.mu, args.y0, model, args.n, args.seed)
    lines = ["t,y,e"]
    lines.append(f"0,{_fmt(path.y0)},")
    for t in range(path.n):
        lines.append(f"{t + 1},{_fmt(path.y[t])},{_fmt(path.e[t])}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _read_path_csv(filename: str) -> Ar1Path:
    with open(filename) as fh:
        header = fh.readline().strip()
        if header != "t,y,e":
            raise ConfigError(f"{filename}: expected header 't,y,e', got {header!r}")
        ts, ys, es = [], [], []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                t_str, y_str, e_str = line.split(",")
                t, y = int(t_str), float(y_str)
                e = float(e_str) if e_str else None
            except ValueError:
                raise ConfigError(f"{filename}: malformed row {line!r}") from None
            if not math.isfinite(y) or (e is not None and not math.isfinite(e)):
                raise ConfigError(f"{filename}: non-finite value in row {line!r}")
            ts.append(t)
            ys.append(y)
            es.append(e)
    if not ts or ts != list(range(len(ts))):
        raise ConfigError(f"{filename}: rows must cover t = 0..n in order")
    if len(ts) < 3:
        raise ConfigError(f"{filename}: need at least t = 0, 1, 2")
    if any(e is None for e in es[1:]):
        raise ConfigError(f"{filename}: innovation column is required for t >= 1")
    # mu/rho slots are unknown here; estimation only reads y0, y and e.
    return Ar1Path(
        mu=0.0, rho=0.0, y0=ys[0],
        y=np.array(ys[1:]), e=np.array(es[1:]),
    )


def _cmd_estimate(args) -> int:
    path = _read_path_csv(args.infile)
    try:
        est = ls_estimate(path)
    except SingularDesignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _RUNTIME_EXIT
    payload = {
        "mu_hat": est.mu_hat,
        "rho_hat": est.rho_hat,
        "delta1": est.delta1,
        "delta2": est.delta2,
        "delta3": est.delta3,
        "n": path.n,
    }
    if not all(math.isfinite(v) for v in astuple(est)):
        raise OverflowError("least-squares estimates overflow double precision")
    if args.json:
        _write_text(args.json, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"mu_hat  = {_fmt(est.mu_hat)}")
    print(f"rho_hat = {_fmt(est.rho_hat)}")
    return 0


def _cmd_limit_sample(args) -> int:
    regime = _regime_from_flags(args)
    model = _model_from_flags(args)
    draws = sample_limit(
        regime, args.mu, model,
        draws=args.draws, seed=args.seed,
        truncation=args.truncation, y0=args.y0,
    )
    lines = ["draw,comp1,comp2"]
    for i in range(draws.shape[0]):
        lines.append(f"{i},{_fmt(draws[i, 0])},{_fmt(draws[i, 1])}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _load_config(filename: str, seed_override: int | None) -> ExperimentConfig:
    try:
        with open(filename) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {filename}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{filename}: invalid JSON ({exc})")
    if seed_override is not None:
        if not isinstance(raw, dict):
            raise ConfigError(f"{filename}: config must be a JSON object")
        raw = dict(raw)
        raw["seed"] = seed_override
    return ExperimentConfig.from_dict(raw)


def _print_report_table(report) -> None:
    print(f"{'n':>8} {'valid':>6} {'sing':>5} {'ks_mu':>8} {'ks_rho':>8} "
          f"{'var_mu':>10} {'var_rho':>10} {'corr':>8}")
    for block in report.per_n:
        if block.valid:
            print(f"{block.n:>8} {block.valid:>6} {block.singular:>5} "
                  f"{block.ks_mu:>8.4f} {block.ks_rho:>8.4f} "
                  f"{block.scaled_mu_summary.variance:>10.4f} "
                  f"{block.scaled_rho_summary.variance:>10.4f} "
                  f"{block.component_correlation:>8.4f}")
        else:
            print(f"{block.n:>8} {block.valid:>6} {block.singular:>5} "
                  f"{'-':>8} {'-':>8} {'-':>10} {'-':>10} {'-':>8}")
    if report.rate_fit is not None:
        mu_fit = report.rate_fit["mu"]
        rho_fit = report.rate_fit["rho"]
        print(f"rate slope mu  = {mu_fit['slope']:.4f} (se {mu_fit['stderr']:.4f})")
        print(f"rate slope rho = {rho_fit['slope']:.4f} (se {rho_fit['stderr']:.4f})")


def _write_replications_csv(report, filename: str) -> None:
    lines = ["n,r,mu_hat,rho_hat,scaled_mu,scaled_rho,singular"]
    for n, r, mu_h, rho_h, s_mu, s_rho, sing in report.replication_rows():
        lines.append(f"{n},{r},{_fmt(mu_h)},{_fmt(rho_h)},{_fmt(s_mu)},{_fmt(s_rho)},{sing}")
    with open(filename, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _cmd_mc(args) -> int:
    config = _load_config(args.config, args.seed)
    report = run_experiment(config, workers=args.workers)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.to_json())
    if args.csv:
        _write_replications_csv(report, args.csv)
    _print_report_table(report)
    return 0


def _cmd_rates(args) -> int:
    config = _load_config(args.config, args.seed)
    if len(config.n_list) < 3:
        raise ConfigError("rates needs a config with at least 3 sample sizes")
    report = run_experiment(config, workers=args.workers)
    if report.rate_fit is None:
        print("error: too many singular replications for a rate fit", file=sys.stderr)
        return _RUNTIME_EXIT
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(json.dumps(report.rate_fit, indent=2, sort_keys=True) + "\n")
    _print_report_table(report)
    return 0


# --- argument parsing ---------------------------------------------------------


def _add_regime_flags(p: argparse.ArgumentParser):
    p.add_argument("--regime", required=True, choices=["P1", "P2", "P3", "P4", "P5", "P6"])
    p.add_argument("--rho", type=float, help="autoregressive root (P1/P2)")
    p.add_argument("--c", type=float, help="local-to-unity constant (P4/P5/P6)")
    p.add_argument("--alpha", type=float, help="moderate-deviation exponent (P5/P6)")


def _add_model_flags(p: argparse.ArgumentParser):
    p.add_argument("--model", default="gaussian", choices=list(MODEL_IDS))
    p.add_argument("--sigma", type=float, help="scale for gaussian/uniform models")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one line, as every other error is; the
    usage text stays available through --help."""

    def error(self, message):
        self.exit(_USAGE_EXIT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ar1mc",
        description="AR(1)-with-intercept simulation and limit-theory Monte Carlo",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate one path to CSV")
    _add_regime_flags(p)
    _add_model_flags(p)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--y0", type=float, default=0.0)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", help="output CSV (default: stdout)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="least-squares fit of a path CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--json", help="also write the estimate as JSON")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("limit-sample", help="draw from a regime's limit law")
    _add_regime_flags(p)
    _add_model_flags(p)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--y0", type=float, default=0.0)
    p.add_argument("--draws", type=int, default=10000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--truncation", type=int, help="series cutoff for the explosive law")
    p.add_argument("--out", help="output CSV (default: stdout)")
    p.set_defaults(func=_cmd_limit_sample)

    p = sub.add_parser("mc", help="run a replicated experiment")
    p.add_argument("--config", required=True, help="experiment JSON")
    p.add_argument("--out", help="report JSON path")
    p.add_argument("--csv", help="per-replication CSV path")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("rates", help="RMSE rate-slope fit over the n_list sweep")
    p.add_argument("--config", required=True, help="experiment JSON")
    p.add_argument("--out", help="rate-fit JSON path")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_rates)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except ArithmeticError as exc:  # overflow, or a degenerate law's division
        print(f"error: {exc}", file=sys.stderr)
        return _RUNTIME_EXIT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _RUNTIME_EXIT


if __name__ == "__main__":
    sys.exit(main())
