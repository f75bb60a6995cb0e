"""Command-line front end.

Subcommands:
    simulate      simulate one path, write CSV (t,y,e)
    estimate      least-squares fit of a path CSV
    limit-sample  draw from a regime's limit law, write CSV (draw,comp1,comp2)
    mc            run a replicated experiment from a JSON config

Exit codes: 0 success, 1 runtime, I/O or out-of-memory error, 2 usage or
config error.
Numbers are written in shortest round-trip decimal form, so files parse
back to bit-identical floats.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from .estimator import SingularDesignError, ls_estimate
from .innovations import MODEL_IDS, InnovationModel
from .limits import sample_limit
from .montecarlo import ConfigError, ExperimentConfig, run_experiment
from .process import _TAGS, Ar1Path, Regime, simulate_path
from .rng import DEFAULT_SEED

_USAGE_EXIT = 2
_RUNTIME_EXIT = 1


def _fmt(v) -> str:
    """One CSV field: None as empty, ints as they are, floats in shortest
    round-trip form."""
    if v is None:
        return ""
    if isinstance(v, int):
        return str(v)
    return repr(float(v))


def _regime_from_flags(args) -> Regime:
    return Regime(args.regime, rho=args.rho, c=args.c, alpha=args.alpha)


def _write_lines(path: str | None, lines) -> None:
    """Writes ``lines`` one by one, as they are made, to ``path`` or stdout."""
    with contextlib.nullcontext(sys.stdout) if path is None else open(path, "w") as fh:
        fh.writelines(lines)


def _write_csv(path: str | None, header: str, rows) -> None:
    _write_lines(path, itertools.chain([header + "\n"],
                                       (",".join(map(_fmt, row)) + "\n" for row in rows)))


# --- subcommand implementations ---------------------------------------------


def _cmd_simulate(args) -> int:
    regime = _regime_from_flags(args)
    model = InnovationModel(args.model, args.sigma)
    path = simulate_path(regime, args.mu, args.y0, model, args.n, args.seed)
    rows = zip(range(1, path.n + 1), path.y, path.e)
    _write_csv(args.out, "t,y,e", itertools.chain([(0, path.y0, None)], rows))
    return 0


def _read_path_csv(filename: str) -> Ar1Path:
    """The path in a CSV as ``simulate`` writes it.  A file holds no
    generating truth, so its ``mu`` and ``rho`` are NaN."""
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
    return Ar1Path(mu=math.nan, rho=math.nan, y0=ys[0], y=np.array(ys[1:]), e=np.array(es[1:]))


def _cmd_estimate(args) -> int:
    path = _read_path_csv(args.infile)
    payload = {**asdict(ls_estimate(path)), "n": path.n}
    if args.json:
        _write_lines(args.json, [json.dumps(payload, indent=2, sort_keys=True) + "\n"])
    print(f"mu_hat  = {_fmt(payload['mu_hat'])}")
    print(f"rho_hat = {_fmt(payload['rho_hat'])}")
    return 0


def _cmd_limit_sample(args) -> int:
    regime = _regime_from_flags(args)
    model = InnovationModel(args.model, args.sigma)
    if args.y0 is not None and regime.tag != "P2":
        raise ConfigError(f"--y0 enters only the P2 limit law, not the {regime.tag} law")
    draws = sample_limit(regime, args.mu, model, draws=args.draws, seed=args.seed,
                         y0=0.0 if args.y0 is None else args.y0)
    _write_csv(args.out, "draw,comp1,comp2", zip(range(len(draws)), draws[:, 0], draws[:, 1]))
    return 0


def _load_config(filename: str) -> ExperimentConfig:
    try:
        with open(filename) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {filename}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{filename}: invalid JSON ({exc})")
    return ExperimentConfig.from_dict(raw)


def _cell(value: float | None) -> str:
    """A table cell: None (a statistic left undefined) as a dash."""
    return "-" if value is None else format(value, ".4f")


def _print_report_table(report) -> None:
    print(f"{'n':>8} {'valid':>6} {'sing':>5} {'ks_mu':>8} {'ks_rho':>8} "
          f"{'var_mu':>10} {'var_rho':>10} {'corr':>8}")
    for block in report.per_n:
        mu_summary = block.scaled_mu_summary or {}
        rho_summary = block.scaled_rho_summary or {}
        print(f"{block.n:>8} {block.valid:>6} {block.singular:>5} "
              f"{_cell(block.ks_mu):>8} {_cell(block.ks_rho):>8} "
              f"{_cell(mu_summary.get('variance')):>10} "
              f"{_cell(rho_summary.get('variance')):>10} "
              f"{_cell(block.component_correlation):>8}")
    if report.rate_fit is not None:
        mu_fit = report.rate_fit["mu"]
        rho_fit = report.rate_fit["rho"]
        print(f"rate slope mu  = {mu_fit['slope']:.4f} (se {mu_fit['stderr']:.4f})")
        print(f"rate slope rho = {rho_fit['slope']:.4f} (se {rho_fit['stderr']:.4f})")


def _cmd_mc(args) -> int:
    config = _load_config(args.config)
    report = run_experiment(config, workers=args.workers)
    if args.out:
        _write_lines(args.out, [report.to_json()])
    if args.csv:
        _write_csv(args.csv, "n,r,mu_hat,rho_hat,scaled_mu,scaled_rho,singular",
                   report.replication_rows())
    _print_report_table(report)
    return 0


# --- argument parsing ---------------------------------------------------------


def _add_regime_flags(p: argparse.ArgumentParser):
    p.add_argument("--regime", required=True, choices=list(_TAGS))
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
    p.add_argument("--y0", type=float, help="initial value (P2 only)")
    p.add_argument("--draws", type=int, default=10000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", help="output CSV (default: stdout)")
    p.set_defaults(func=_cmd_limit_sample)

    p = sub.add_parser("mc", help="run a replicated experiment")
    p.add_argument("--config", required=True, help="experiment JSON")
    p.add_argument("--out", help="report JSON path")
    p.add_argument("--csv", help="per-replication CSV path")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_mc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except (SingularDesignError, ArithmeticError, MemoryError, OSError) as exc:
        # a constant lagged series (a ValueError, hence first), overflow or a
        # degenerate law's division, a size too large to allocate, or I/O
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, BrokenPipeError):
            # Python flushes stdout once more at exit; send what is left nowhere.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _RUNTIME_EXIT
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
