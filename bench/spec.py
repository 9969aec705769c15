"""Workload definitions shared by ``run.py`` and its child processes.

Everything here is a pure function of the benchmark seed, so the same
``--seed`` always produces the same commands, model parameters, tables and
spot-check indices.  ``jumptime`` is imported lazily, inside the functions
that build models, so ``run.py`` can read the workload shapes without paying
for the package import.
"""

from __future__ import annotations

import random
from pathlib import Path

#: Replications per verification and rows per Cox stream (the CLI default).
N = 100_000
ALPHA = 0.01
#: Stream ids compared against the scalar reference, per report.
SPOT_CHECKS = 32

PUBLIC_MODELS = ("ctmc", "flat", "poisson", "power")
#: About two dozen exponents, log-spaced over four decades.
POWER_EXPONENTS = tuple(10.0 ** (-3.0 + 4.0 * i / 23.0) for i in range(24))
#: Knot counts of the two tabulated compensators loaded from CSV.
TABLE_KNOTS = (1_000, 10_000)
TABLE_SLOPE = 1.0

WORKLOADS = ("cli-verify", "model-sweep", "cox-stream")


def derived_seeds(seed: int, tag: str, count: int) -> list[int]:
    """``count`` 32-bit seeds drawn from the benchmark seed and a tag."""
    rng = random.Random(f"{tag}:{seed}")
    return [rng.randrange(2**32) for _ in range(count)]


def classify(expect_pass: bool, passed: bool):
    """Failure class of a verdict, or None when it is the right one."""
    if expect_pass and not passed:
        return "false_reject"
    if not expect_pass and passed:
        return "negative_control_passed"
    return None


def spot_indices(seed: int, n: int = N, count: int = SPOT_CHECKS) -> list[int]:
    """Sorted stream ids to compare against the scalar reference."""
    rng = random.Random(f"spot:{seed}")
    return sorted(rng.sample(range(n), count))


# --------------------------------------------------------------------------
# cli-verify


def cli_verify_commands(seed: int) -> list[dict]:
    """The documented user path, one fresh interpreter per command.

    ``kind`` is "verify" for commands that sample and test a law and "aux"
    for the start-up-bound ones.  The ``--workers 2`` run reuses the seed of
    the one-worker poisson run so the two reports can be compared byte for
    byte; every other sampling command has a seed of its own.
    """
    s = derived_seeds(seed, "cli-verify", 7)
    verify = [
        ("exp-law poisson", ["verify-exp-law", "--model", "poisson"], s[0], True),
        ("exp-law poisson workers=2",
         ["verify-exp-law", "--model", "poisson", "--workers", "2"], s[0], True),
        ("exp-law power", ["verify-exp-law", "--model", "power"], s[1], True),
        ("exp-law ctmc", ["verify-exp-law", "--model", "ctmc"], s[2], True),
        ("exp-law flat", ["verify-exp-law", "--model", "flat"], s[3], True),
        ("exp-law negative-control",
         ["verify-exp-law", "--model", "negative-control"], s[4], False),
        ("martingale power", ["verify-martingale", "--model", "power"], s[5], True),
        ("martingale flat", ["verify-martingale", "--model", "flat"], s[6], True),
    ]
    commands = [
        {"name": name, "kind": "verify", "args": args + ["--seed", str(sd)],
         "seed": sd, "expect_pass": expect}
        for name, args, sd, expect in verify
    ]
    aux = [("list-models", ["list-models"])]
    aux += [(f"feller-check {m}", ["feller-check", "--model", m]) for m in PUBLIC_MODELS]
    aux += [
        ("predictable-demo", ["predictable-demo"]),
        ("predictable-demo harmonic",
         ["predictable-demo", "--scheme", "harmonic", "--m", "100000"]),
    ]
    commands += [
        {"name": name, "kind": "aux", "args": args, "seed": None, "expect_pass": True}
        for name, args in aux
    ]
    return commands


# --------------------------------------------------------------------------
# cox-stream


def cox_stream_commands(seed: int) -> list[dict]:
    """Two full-size Cox streams: flat as JSON lines, power as CSV."""
    s = derived_seeds(seed, "cox-stream", 2)
    return [
        {"name": "cox-demo flat json", "model": "flat", "format": "json", "seed": s[0],
         "args": ["cox-demo", "--model", "flat", "--n", str(N), "--seed", str(s[0])]},
        {"name": "cox-demo power csv", "model": "power", "format": "csv", "seed": s[1],
         "args": ["cox-demo", "--model", "power", "--n", str(N), "--seed", str(s[1]),
                  "--format", "csv"]},
    ]


# --------------------------------------------------------------------------
# model-sweep


def sweep_seeds(seed: int) -> list[int]:
    """The two draw seeds of one model-sweep pass."""
    return derived_seeds(seed, "model-sweep", 2)


def table_paths(seed: int, work: Path) -> list[Path]:
    return [Path(work) / f"table-{knots}-seed{seed}.csv" for knots in TABLE_KNOTS]


def write_tables(seed: int, work: Path) -> list[Path]:
    """Write the tabulated compensators of a model-sweep run as CSV.

    Times grow by random gaps and values by random increments, about one in
    twenty of them zero, so each table has flat pieces.  The last knot sits
    near level 12, above nearly every Exp(1) draw at n = 100000; the rest go
    through the positive extrapolation slope.  Floats are written with
    ``repr`` so the loader reads back exactly these knots.
    """
    paths = table_paths(seed, work)
    for path, knots in zip(paths, TABLE_KNOTS):
        rng = random.Random(f"table:{knots}:{seed}")
        dt, dv = 10.0 / (knots - 1), 12.0 / (knots - 1)
        t = v = 0.0
        lines = ["time,value", "0.0,0.0"]
        for _ in range(knots - 1):
            t += dt * rng.uniform(0.5, 1.5)
            if rng.random() >= 0.05:
                v += dv * rng.expovariate(1.0)
            lines.append(f"{t!r},{v!r}")
        path.write_text("\n".join(lines) + "\n")
    return paths


def sweep_models(tables) -> list[dict]:
    """Every model of a model-sweep pass, in pass order.

    Each entry has a unique ``label``, the ``model``, whether a correct
    verifier must accept it (``expect_pass``) and whether it is compared
    against the scalar reference (``spot``).  The power sweep is left out of
    the spot checks: its verdicts already count its failures, and at the
    smallest exponents the scalar path overflows as well.  Functions are
    looked up on their modules at call time, so a traced run sees each call
    through its wrapper.
    """
    from jumptime import compensators, processes

    def entry(label, model, expect_pass=True, spot=True):
        return {"label": label, "model": model, "expect_pass": expect_pass, "spot": spot}

    models = [entry(m.name, m) for m in processes.catalog_models()]
    neg = processes.negative_control_model()
    models.append(entry(neg.name, neg, expect_pass=False))
    for e in POWER_EXPONENTS:
        m = processes.build_model("power", {"exponent": e})
        models.append(entry(f"sweep power(exponent={e!r})", m, spot=False))
    for path, knots in zip(tables, TABLE_KNOTS):
        A = compensators.load_tabulated_csv(path, extrapolation_slope=TABLE_SLOPE)
        name = f"tabulated(knots={knots})"
        models.append(entry(name, processes.inhomogeneous_model(A, name=name)))
    return models


def build_workload_models(workload: str, seed: int, work: Path) -> list:
    """Everything a workload builds before it samples: its set-up."""
    from jumptime import processes

    if workload == "cli-verify":
        names = ("poisson", "power", "ctmc", "flat", "negative-control")
        return [processes.build_model(name) for name in names]
    if workload == "cox-stream":
        return [processes.build_model(c["model"]) for c in cox_stream_commands(seed)]
    if workload == "model-sweep":
        return [e["model"] for e in sweep_models(table_paths(seed, work))]
    raise ValueError(f"unknown workload {workload!r}")
