"""Command-line front end.

Subcommands:
    simulate      simulate one path, write CSV (t,y,e)
    estimate      least-squares fit of a path CSV, write its JSON
    limit-sample  draw from a regime's limit law, write CSV (draw,comp1,comp2)
    mc            run a replicated experiment from a JSON config, write its JSON report

Each command writes its one output to --out, or the same bytes to stdout.
Exit codes: 0 success, 1 runtime, I/O or out-of-memory error, 2 usage or
config error.
Each CSV row is one %-format of Python ints and floats, and floats are
written with repr: shortest round-trip decimal form, so files parse back
to bit-identical floats.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
from array import array
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


def _law_from_flags(args) -> tuple[Regime, InnovationModel]:
    return (Regime(args.regime, rho=args.rho, c=args.c, alpha=args.alpha),
            InnovationModel(args.model, args.sigma))


def _write_lines(path: str | None, lines) -> None:
    """Writes ``lines`` one by one, as they are made, to ``path`` or stdout."""
    with contextlib.nullcontext(sys.stdout) if path is None else open(path, "w") as fh:
        fh.writelines(lines)


def _write_csv(path: str | None, header: str, fmt: str, rows) -> None:
    """Writes ``header`` and then ``fmt % row`` for each row of Python ints and
    floats, whose %r is repr(float).  Rows are made one at a time: a list of a
    whole column would hold 32 bytes per number (130 MB for 2e6 rows of two)."""
    _write_lines(path, itertools.chain([header + "\n"], (fmt % row for row in rows)))


# --- subcommand implementations ---------------------------------------------


def _cmd_simulate(args) -> int:
    regime, model = _law_from_flags(args)
    path = simulate_path(regime, args.mu, args.y0, model, args.n, args.seed)
    # t = 0 has no innovation, so its row is written as part of the header
    _write_csv(args.out, "t,y,e\n0,%r," % path.y0, "%d,%r,%r\n",
               ((t, float(y), float(e)) for t, y, e in zip(itertools.count(1), path.y, path.e)))
    return 0


def _read_path_csv(filename: str) -> Ar1Path:
    """The path in a CSV as ``simulate`` writes it.  A file holds no
    generating truth, so its ``mu`` and ``rho`` are NaN, as is a missing e."""
    with open(filename) as fh:
        header = fh.readline().strip()
        if header != "t,y,e":
            raise ConfigError(f"{filename}: expected header 't,y,e', got {header!r}")
        ys, es, in_order = array("d"), array("d"), True
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                t_str, y_str, e_str = line.split(",")
                t, y = int(t_str), float(y_str)
                e = float(e_str) if e_str else math.nan
            except ValueError:
                raise ConfigError(f"{filename}: malformed row {line!r}") from None
            if not math.isfinite(y) or (e_str and not math.isfinite(e)):
                raise ConfigError(f"{filename}: non-finite value in row {line!r}")
            in_order = in_order and t == len(ys)
            ys.append(y)
            es.append(e)
    if not ys or not in_order:
        raise ConfigError(f"{filename}: rows must cover t = 0..n in order")
    if len(ys) < 3:
        raise ConfigError(f"{filename}: need at least t = 0, 1, 2")
    if np.isnan(np.frombuffer(es)[1:]).any():
        raise ConfigError(f"{filename}: innovation column is required for t >= 1")
    return Ar1Path(mu=math.nan, rho=math.nan, y0=ys[0], y=np.frombuffer(ys)[1:], e=np.frombuffer(es)[1:])


def _cmd_estimate(args) -> int:
    path = _read_path_csv(args.infile)
    payload = {**asdict(ls_estimate(path)), "n": path.n}
    _write_lines(args.out, [json.dumps(payload, indent=2, sort_keys=True) + "\n"])
    return 0


def _cmd_limit_sample(args) -> int:
    regime, model = _law_from_flags(args)
    if args.y0 is not None and regime.tag != "P2":
        raise ConfigError(f"--y0 enters only the P2 limit law, not the {regime.tag} law")
    draws = sample_limit(regime, args.mu, model, draws=args.draws, seed=args.seed,
                         y0=0.0 if args.y0 is None else args.y0)
    _write_csv(args.out, "draw,comp1,comp2", "%d,%r,%r\n",
               ((i, *row.tolist()) for i, row in enumerate(draws)))
    return 0


def _load_config(filename: str) -> ExperimentConfig:
    try:
        with open(filename) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{filename}: invalid JSON ({exc})")
    return ExperimentConfig.from_dict(raw)


def _cmd_mc(args) -> int:
    config = _load_config(args.config)
    report = run_experiment(config, workers=args.workers)
    _write_lines(args.out, [report.to_json()])
    if args.csv:
        _write_csv(args.csv, "n,r,mu_hat,rho_hat,scaled_mu,scaled_rho,singular",
                   "%d,%d,%r,%r,%r,%r,%d\n",
                   ((n, r, *row.tolist())
                    for n, block in zip(config.n_list, report.rows) for r, row in enumerate(block)))
    return 0


# --- argument parsing ---------------------------------------------------------


def _add_law_flags(p: argparse.ArgumentParser):
    """The flags ``simulate`` and ``limit-sample`` share: the law, mu, seed and output."""
    p.add_argument("--regime", required=True, choices=list(_TAGS))
    p.add_argument("--rho", type=float, help="autoregressive root (P1/P2)")
    p.add_argument("--c", type=float, help="local-to-unity constant (P4/P5/P6)")
    p.add_argument("--alpha", type=float, help="moderate-deviation exponent (P5/P6)")
    p.add_argument("--model", default="gaussian", choices=list(MODEL_IDS))
    p.add_argument("--sigma", type=float, help="scale for gaussian/uniform models")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", help="output CSV (default: stdout)")


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
    _add_law_flags(p)
    p.add_argument("--y0", type=float, default=0.0)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="least-squares fit of a path CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", help="estimate JSON (default: stdout)")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("limit-sample", help="draw from a regime's limit law")
    _add_law_flags(p)
    p.add_argument("--y0", type=float, help="initial value (P2 only)")
    p.add_argument("--draws", type=int, default=10000)
    p.set_defaults(func=_cmd_limit_sample)

    p = sub.add_parser("mc", help="run a replicated experiment")
    p.add_argument("--config", required=True, help="experiment JSON")
    p.add_argument("--out", help="report JSON (default: stdout)")
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
