"""Command-line front end.

Subcommands select a model from the catalog, run a verification or demo, and
emit machine-readable reports: JSON documents (or one JSON object per line
for sample streams) and CSV tables for plotting.  Diagnostics go to stderr
only; stdout or the --out file carries nothing but data.

``parse_args`` validates the command line and returns argparse's namespace,
with the parsed ``params`` and ``grid``, resolved ``seed``, and built once:
the catalog model as ``jump_model`` and the announcing sequence as
``sequence``.  The library's own ``ValueError`` is the usage error, so no
rule of a parameter, a target or ``--m`` is repeated here.  Each
subcommand but ``cox-demo`` is a builder that returns a ``_Report`` (JSON
document, CSV rows, verdict, optional stderr summary), and ``_write`` alone
chooses the format and maps the verdict to the exit status.  The verdicts are
the reports' own (``ExpLawReport.passed``, ``MartingaleReport.passed``, the
Feller reports' ``passed``).  ``predictable-demo``'s report carries Y's knots
apart from its document, and ``_write_knots_json`` writes them a block at a
time by template, with the bytes ``json.dumps`` would give.  ``cox-demo``
hands the model's ``sampler`` to ``cox.write_cox_rows``, which writes the
rows one draw block at a time.  numpy is bound lazily (see ``core``), so the
commands that draw nothing never load it.

Exit status contract: 0 all checks passed, 1 a verification honestly failed,
2 usage error (or a value refused only at run time, such as a negative
``--grid`` time, with no usage line), 3 runtime error (including an infinite
jump-time draw, a jump time that overflows a float, unwritable output paths,
and an ``--n`` too large to allocate).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager
from itertools import chain
from typing import Iterable, NamedTuple, Optional, Sequence

# cox_sample is not called here; it stays bound as the scalar reference at
# this lookup site, which bench/tracer.py wraps.
from .cox import cox_sample, write_cox_rows  # noqa: F401
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
    InfiniteSampleError,
    build_model,
    catalog_names,
    feller_check,
)
from .verify import (
    MARTINGALE_Z_LIMIT,
    default_time_grid,
    exp_law_verify,
    martingale_residual,
)

__all__ = ["KNOT_TOLERANCE", "MARTINGALE_Z_LIMIT", "entry_point", "main", "parse_args", "run"]

SEED_ENV_VAR = "JUMPTIME_SEED"

#: Knot identities are exact up to float roundoff; beyond this is a failure.
KNOT_TOLERANCE = 1e-12


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


def parse_args(argv) -> argparse.Namespace:
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
    # Range errors show the subcommand's own usage line.
    parser = sub.choices[args.command]

    if hasattr(args, "model"):
        args.params = _parse_params(parser, args.param)
        try:
            args.jump_model = build_model(args.model, args.params)
        except ValueError as exc:
            parser.error(f"--model {args.model}: {exc}")

    if hasattr(args, "n"):
        if args.n < 1:
            parser.error(f"--n must be a positive integer, got {args.n}")
        seed_source = "--seed" if args.seed is not None else SEED_ENV_VAR
        if args.seed is None:
            env = os.environ.get(SEED_ENV_VAR, "42")
            try:
                args.seed = int(env)
            except ValueError:
                parser.error(f"{SEED_ENV_VAR} must be an integer, got {env!r}")
        if not (0 <= args.seed < 2**64):
            parser.error(f"{seed_source} must lie in [0, 2**64), got {args.seed}")
        if args.workers < 1:
            parser.error(f"--workers must be a positive integer, got {args.workers}")

    if hasattr(args, "alpha") and not (0.0 < args.alpha < 1.0):
        parser.error(f"--alpha must lie in (0, 1), got {args.alpha}")

    if hasattr(args, "grid"):
        args.grid = _parse_grid(parser, args.grid)

    if args.command == "predictable-demo":
        # The library announces subnormal targets too; the CLI does not.
        if not args.target >= sys.float_info.min:
            parser.error(f"--target must be at least {sys.float_info.min}, got {args.target}")
        try:
            args.sequence = make_announcing_sequence(args.target, args.m, args.scheme)
        except ValueError as exc:
            parser.error(f"--target {args.target} --m {args.m} --scheme {args.scheme}: {exc}")

    return args


@contextmanager
def _open_out(path: Optional[str]):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


class _Report(NamedTuple):
    """What one subcommand writes: the JSON document or the CSV rows, and its verdict."""

    doc: dict
    rows: Iterable[tuple]
    passed: bool
    summary: Optional[str] = None  # stderr line in CSV mode
    # (times, values) of Y's knots: the JSON document's last key, "knots".
    knots: Optional[tuple[Sequence[float], Sequence[float]]] = None


#: A knot of the "knots" list as ``json.dumps(indent=2)`` lays it out; the
#: knots are finite floats, whose JSON text is their ``repr``.
_KNOT_JSON = "\n    [\n      %r,\n      %r\n    ]"
#: Knots per write: about 64 kB of text.
_KNOT_BLOCK = 1024


def _write_knots_json(fh, doc: dict, times: Sequence[float], values: Sequence[float]) -> None:
    """Write ``json.dumps(dict(doc, knots=[[t, v], ...]), indent=2)`` and a newline.

    The document before the knots comes from ``json.dumps`` itself; the knots
    follow one block per write, so neither the pairs nor the whole text is
    ever built.  There is at least one knot.
    """
    head = json.dumps(dict(doc, knots=[]), indent=2)
    fh.write(head[: -len("]\n}")])
    for start in range(0, len(times), _KNOT_BLOCK):
        stop = start + _KNOT_BLOCK
        block = ",".join(map(_KNOT_JSON.__mod__, zip(times[start:stop], values[start:stop])))
        fh.write(block if start == 0 else "," + block)
    fh.write("\n  ]\n}\n")


def _write(args: argparse.Namespace, report: _Report) -> int:
    with _open_out(args.out) as fh:
        if args.format == "csv":
            csv.writer(fh, lineterminator="\n").writerows(report.rows)
            if report.summary is not None:
                print(report.summary, file=sys.stderr)
        elif report.knots is not None:
            _write_knots_json(fh, report.doc, *report.knots)
        else:
            fh.write(json.dumps(report.doc, indent=2))
            fh.write("\n")
    return 0 if report.passed else 1


def _list_models(args: argparse.Namespace) -> _Report:
    names = list(catalog_names())
    return _Report({"models": names}, [("name",)] + [(name,) for name in names], True)


def _exp_law(args: argparse.Namespace) -> _Report:
    report = exp_law_verify(args.jump_model, args.n, args.alpha, args.seed)
    summary = (
        f"{report.model_name}: ks={report.ks_stat:.6f} "
        f"bound={report.dkw_bound:.6f} passed={report.passed}"
    )
    return _Report(report.to_json_dict(), report.csv_rows(), report.passed, summary)


def _martingale(args: argparse.Namespace) -> _Report:
    grid = args.grid if args.grid is not None else default_time_grid()
    report = martingale_residual(args.jump_model, args.n, grid, args.seed)
    summary = f"{report.model_name}: max_abs_z={report.max_abs_z:.3f} passed={report.passed}"
    return _Report(report.to_json_dict(), report.csv_rows(), report.passed, summary)


def _feller(args: argparse.Namespace) -> _Report:
    model = args.jump_model
    reports = [feller_check(model, f) for f in C0_WITNESSES]
    passed = all(r.passed for r in reports)
    rows: list[tuple] = [("function", "t", "e")]
    for r in reports:
        rows.extend((r.function_name, t, e) for t, e in zip(DEFAULT_T_SCHEDULE, r.e_sequence))
    doc = {
        "model_name": model.name,
        "passed": passed,
        "reports": [r.to_json_dict() for r in reports],
    }
    return _Report(doc, rows, passed, f"{model.name}: feller passed={passed}")


def _predictable_demo(args: argparse.Namespace) -> _Report:
    y = build_y_process(extract_strict_subsequence(args.sequence))
    hit = y_hitting_time(y)
    max_knot_error = max(abs(level - 1.0 / i) for i, level in enumerate(y.knot_levels, 1))
    summary = {
        "target": args.target,
        "m": args.m,
        "scheme": args.scheme,
        "hitting_time": hit.value,
        "max_knot_error": max_knot_error,
    }
    times, values = y.times, y.values
    passed = hit.value == args.target and max_knot_error <= KNOT_TOLERANCE
    rows = chain([("time", "value")], zip(times, values))
    return _Report(summary, rows, passed, json.dumps(summary), knots=(times, values))


def _cox_demo(args: argparse.Namespace) -> int:
    with _open_out(args.out) as fh:
        write_cox_rows(fh, args.jump_model.sampler, args.seed, args.n, args.format)
    return 0


_BUILDERS = {
    "list-models": _list_models,
    "verify-exp-law": _exp_law,
    "verify-martingale": _martingale,
    "feller-check": _feller,
    "predictable-demo": _predictable_demo,
}


def run(args: argparse.Namespace) -> int:
    """Execute parsed arguments; returns the process exit status."""
    try:
        if args.command == "cox-demo":
            return _cox_demo(args)
        return _write(args, _BUILDERS[args.command](args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InfiniteSampleError, OverflowError, OSError, MemoryError) as exc:
        # A bare MemoryError carries no message of its own.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    return run(parse_args(argv))


def entry_point() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry_point()
