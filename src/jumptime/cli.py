"""Command-line front end.

Subcommands select a model from the catalog, run a verification or demo, and
emit machine-readable reports: JSON documents (or one JSON object per line
for sample streams) and CSV tables for plotting.  Diagnostics go to stderr
only; stdout or the --out file carries nothing but data.

Exit status contract: 0 all checks passed, 1 a verification honestly failed,
2 usage error, 3 runtime error (including an infinite jump-time draw and
unwritable output paths).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

from .core import RngStream
from .cox import cox_sample
from .predictable import (
    GEOMETRIC,
    HARMONIC,
    build_y_process,
    extract_strict_subsequence,
    make_announcing_sequence,
    y_hitting_time,
)
from .processes import (
    C0_WITNESSES,
    DEFAULT_T_SCHEDULE,
    build_model,
    catalog_names,
    feller_check,
)
from .verify import (
    InfiniteSampleError,
    default_time_grid,
    exp_law_verify,
    martingale_residual,
)

__all__ = ["RunConfig", "entry_point", "main", "parse_args", "run"]

SEED_ENV_VAR = "JUMPTIME_SEED"

#: A mean residual this many standard errors from zero fails the check.
MARTINGALE_Z_LIMIT = 4.0

#: Knot identities are exact up to float roundoff; beyond this is a failure.
KNOT_TOLERANCE = 1e-12


@dataclass
class RunConfig:
    command: str
    model: Optional[str] = None
    params: dict = field(default_factory=dict)
    n: int = 100_000
    alpha: float = 0.01
    seed: int = 42
    out: Optional[str] = None
    format: str = "json"
    target: float = 1.0
    m: int = 8
    scheme: str = GEOMETRIC
    grid: Optional[tuple] = None


def _parse_params(parser: argparse.ArgumentParser, pairs) -> dict:
    params = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            parser.error(f"--param expects key=value, got {pair!r}")
        try:
            params[key] = float(value)
        except ValueError:
            parser.error(f"--param {key!r} expects a numeric value, got {value!r}")
    return params


def _parse_grid(parser: argparse.ArgumentParser, text: Optional[str]):
    if text is None:
        return None
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        parser.error(f"--grid expects comma-separated times, got {text!r}")


def parse_args(argv) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="jumptime",
        description="Simulate jump times and verify their compensator identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--format", choices=["json", "csv"], default="json")

    def add_model(p):
        p.add_argument("--model", required=True, help="catalog model name")
        p.add_argument(
            "--param",
            action="append",
            metavar="KEY=VALUE",
            help="model parameter, repeatable",
        )

    def add_sampling(p):
        p.add_argument("--n", type=int, default=100_000, help="number of replications")
        p.add_argument("--seed", type=int, default=None, help="base seed (default 42)")
        p.add_argument("--workers", type=int, default=1, help="accepted; has no effect")

    p = sub.add_parser("list-models", help="print the model catalog")
    add_io(p)

    p = sub.add_parser("verify-exp-law", help="test that A(tau) is unit exponential")
    add_model(p)
    add_sampling(p)
    p.add_argument("--alpha", type=float, default=0.01, help="DKW level")
    add_io(p)

    p = sub.add_parser("verify-martingale", help="test the zero-mean residual")
    add_model(p)
    add_sampling(p)
    p.add_argument("--grid", help="comma-separated residual times")
    add_io(p)

    p = sub.add_parser("feller-check", help="probe the semigroup axioms")
    add_model(p)
    add_io(p)

    p = sub.add_parser("cox-demo", help="print constructed jump times, one per line")
    add_model(p)
    add_sampling(p)
    add_io(p)

    p = sub.add_parser("predictable-demo", help="announcing sequence and Y process")
    p.add_argument("--target", type=float, default=1.0, help="the announced time")
    p.add_argument("--m", type=int, default=8, help="number of announcing times")
    p.add_argument("--scheme", choices=[GEOMETRIC, HARMONIC], default=GEOMETRIC)
    add_io(p)

    args = parser.parse_args(argv)

    config = RunConfig(command=args.command)
    config.out = getattr(args, "out", None)
    config.format = getattr(args, "format", "json")

    if hasattr(args, "model"):
        name = args.model
        if name not in catalog_names() and name != "negative-control":
            parser.error(
                f"--model: unknown model {name!r}; valid models: {', '.join(catalog_names())}"
            )
        config.model = name
        config.params = _parse_params(parser, getattr(args, "param", None))

    if hasattr(args, "n"):
        if args.n < 1:
            parser.error(f"--n must be a positive integer, got {args.n}")
        config.n = args.n
        if args.seed is not None:
            seed = args.seed
        else:
            env = os.environ.get(SEED_ENV_VAR)
            if env is not None:
                try:
                    seed = int(env)
                except ValueError:
                    parser.error(f"{SEED_ENV_VAR} must be an integer, got {env!r}")
            else:
                seed = 42
        if not (0 <= seed < 2**64):
            parser.error(f"--seed must lie in [0, 2**64), got {seed}")
        config.seed = seed
        if args.workers < 1:
            parser.error(f"--workers must be a positive integer, got {args.workers}")

    if hasattr(args, "alpha"):
        if not (0.0 < args.alpha < 1.0):
            parser.error(f"--alpha must lie in (0, 1), got {args.alpha}")
        config.alpha = args.alpha

    if hasattr(args, "grid"):
        config.grid = _parse_grid(parser, args.grid)

    if args.command == "predictable-demo":
        if not args.target > 0.0:
            parser.error(f"--target must be positive, got {args.target}")
        if args.m < 1:
            parser.error(f"--m must be a positive integer, got {args.m}")
        config.target = args.target
        config.m = args.m
        config.scheme = args.scheme

    return config


@contextmanager
def _open_out(path: Optional[str]):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _write_json(fh, payload) -> None:
    fh.write(json.dumps(payload, indent=2))
    fh.write("\n")


def _write_csv(fh, rows) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerows(rows)


def _run_list_models(config: RunConfig) -> int:
    names = list(catalog_names())
    with _open_out(config.out) as fh:
        if config.format == "csv":
            _write_csv(fh, [("name",)] + [(name,) for name in names])
        else:
            _write_json(fh, {"models": names})
    return 0


def _run_exp_law(config: RunConfig) -> int:
    model = build_model(config.model, config.params)
    report = exp_law_verify(model, config.n, config.alpha, config.seed)
    with _open_out(config.out) as fh:
        if config.format == "csv":
            _write_csv(fh, report.csv_rows())
            print(
                f"{report.model_name}: ks={report.ks_stat:.6f} "
                f"bound={report.dkw_bound:.6f} passed={report.passed}",
                file=sys.stderr,
            )
        else:
            _write_json(fh, report.to_json_dict())
    return 0 if report.passed else 1


def _run_martingale(config: RunConfig) -> int:
    model = build_model(config.model, config.params)
    grid = config.grid if config.grid is not None else default_time_grid()
    report = martingale_residual(model, config.n, grid, config.seed)
    passed = report.max_abs_z < MARTINGALE_Z_LIMIT
    with _open_out(config.out) as fh:
        if config.format == "csv":
            _write_csv(fh, report.csv_rows())
            print(
                f"{report.model_name}: max_abs_z={report.max_abs_z:.3f} passed={passed}",
                file=sys.stderr,
            )
        else:
            _write_json(fh, report.to_json_dict())
    return 0 if passed else 1


def _run_feller(config: RunConfig) -> int:
    model = build_model(config.model, config.params)
    law = model.law()
    reports = [feller_check(law, f) for f in C0_WITNESSES]
    passed = all(r.passed for r in reports)
    with _open_out(config.out) as fh:
        if config.format == "csv":
            rows: list[tuple] = [("function", "t", "e")]
            for r in reports:
                rows.extend(
                    (r.function_name, t, e) for t, e in zip(DEFAULT_T_SCHEDULE, r.e_sequence)
                )
            _write_csv(fh, rows)
            print(f"{model.name}: feller passed={passed}", file=sys.stderr)
        else:
            _write_json(
                fh,
                {
                    "model_name": model.name,
                    "law": law.description,
                    "passed": passed,
                    "reports": [r.to_json_dict() for r in reports],
                },
            )
    return 0 if passed else 1


def _run_cox_demo(config: RunConfig) -> int:
    model = build_model(config.model, config.params)
    with _open_out(config.out) as fh:
        if config.format == "csv":
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("z", "tau", "a_at_tau", "seed", "stream_id"))
            for k in range(config.n):
                sample = cox_sample(model.compensator, RngStream(config.seed, k))
                d = sample.to_json_dict()
                writer.writerow((d["z"], d["tau"], d["a_at_tau"], d["seed"], d["stream_id"]))
        else:
            for k in range(config.n):
                sample = cox_sample(model.compensator, RngStream(config.seed, k))
                fh.write(json.dumps(sample.to_json_dict()))
                fh.write("\n")
    return 0


def _run_predictable_demo(config: RunConfig) -> int:
    seq = extract_strict_subsequence(
        make_announcing_sequence(config.target, config.m, config.scheme)
    )
    y = build_y_process(seq)
    hit = y_hitting_time(y)
    max_knot_error = max(
        abs(value - level) for value, level in zip(y.path.values, y.knot_levels)
    )
    summary = {
        "target": config.target,
        "m": config.m,
        "scheme": config.scheme,
        "hitting_time": hit.value if hit.is_finite else "infinity",
        "max_knot_error": max_knot_error,
    }
    knots = list(zip(y.path.times, y.path.values))
    with _open_out(config.out) as fh:
        if config.format == "csv":
            _write_csv(fh, [("time", "value")] + knots)
            print(json.dumps(summary), file=sys.stderr)
        else:
            _write_json(fh, dict(summary, knots=[[t, v] for t, v in knots]))
    passed = hit.is_finite and hit.value == config.target and max_knot_error <= KNOT_TOLERANCE
    return 0 if passed else 1


def run(config: RunConfig) -> int:
    """Execute a parsed configuration; returns the process exit status."""
    dispatch = {
        "list-models": _run_list_models,
        "verify-exp-law": _run_exp_law,
        "verify-martingale": _run_martingale,
        "feller-check": _run_feller,
        "cox-demo": _run_cox_demo,
        "predictable-demo": _run_predictable_demo,
    }
    handler = dispatch.get(config.command)
    if handler is None:
        print(f"error: unknown command {config.command!r}", file=sys.stderr)
        return 2
    try:
        return handler(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfiniteSampleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    config = parse_args(argv)
    return run(config)


def entry_point() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry_point()
