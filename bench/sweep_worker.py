"""One model-sweep pass in a fresh interpreter, through the library.

Usage: python bench/sweep_worker.py SEED WORK_DIR RESULT_JSON [SPANS_JSON]

For each of the pass's two draw seeds, calls ``exp_law_verify`` on every
model and then ``martingale_residual`` on every model, as the acceptance
battery does, so every call after the first of a seed reuses that seed's
draws.  A fresh interpreter per pass guarantees that no draws from a warm-up
or an earlier pass are cached when the timed loop starts; the worker also
checks that the draw cache, while it exists, is empty at that point.

Each call is one operation.  Its outcome is classified against what a
correct verifier must report, and the SHA-256 of its report is recorded.
After the timed loop, with tracing paused, ``sample_a_tau`` is compared with
the scalar reference at a few dozen stream ids for every spot-checked model.
With SPANS_JSON, the tracer is installed before the models are built and its
totals are written there.
"""

import hashlib
import json
import sys
import traceback
import warnings
from pathlib import Path
from time import perf_counter

import spec

#: Relative tolerance of a spot check: vector and scalar arithmetic may
#: round differently in the last place, nothing more.
SPOT_RTOL = 1e-12


def run_op(kind, entry, seed, call, passed_of):
    """Time one verification call and classify its outcome."""
    start = perf_counter()
    try:
        report = call(entry["model"], seed)
    except Exception as exc:  # every failure is counted, never raised
        took = perf_counter() - start
        name = type(exc).__name__
        cls = "infinite_sample" if name == "InfiniteSampleError" else "crash"
        if cls == "crash":
            traceback.print_exc()
        digest = hashlib.sha256(f"error:{name}".encode()).hexdigest()
        return {"kind": kind, "label": entry["label"], "seed": seed, "seconds": took,
                "failure": cls, "digest": digest}
    took = perf_counter() - start
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    return {"kind": kind, "label": entry["label"], "seed": seed, "seconds": took,
            "failure": spec.classify(entry["expect_pass"], passed_of(report)), "digest": digest}


def spot_check(entry, seed, indices):
    """Compare sample_a_tau with the scalar Cox path at the given stream ids."""
    from jumptime.core import RngStream, draw_exponential
    from jumptime.verify import sample_a_tau

    model = entry["model"]
    op = {"kind": "spot", "label": entry["label"], "seed": seed, "seconds": 0.0,
          "failure": None, "digest": None}
    try:
        a = sample_a_tau(model, spec.N, seed)
        for k in indices:
            tau = model.tau_from_z(draw_exponential(RngStream(seed, k)))
            ref = model.compensator.evaluate(tau)
            if not abs(a[k] - ref) <= SPOT_RTOL * abs(ref):
                op["failure"] = "spot_check"
                op["detail"] = f"stream {k}: vector {a[k]!r} scalar {ref!r}"
                break
    except Exception as exc:
        op["failure"] = "spot_check"
        op["detail"] = f"{type(exc).__name__}: {exc}"
    return op


def main(argv) -> int:
    seed, work, result_path, *spans = argv
    seed = int(seed)
    start = perf_counter()
    import jumptime.cli
    from jumptime import verify

    import_s = perf_counter() - start
    tracer = None
    if spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    # The smallest power exponents overflow on purpose; their numpy warnings
    # would only bury real diagnostics.
    warnings.simplefilter("ignore", RuntimeWarning)
    entries = spec.sweep_models(spec.table_paths(seed, Path(work)))
    limit = jumptime.cli.MARTINGALE_Z_LIMIT
    grid = verify.default_time_grid()
    ops = []
    if getattr(verify, "_Z_CACHE", None):
        ops.append({"kind": "cache", "label": "draw cache empty at pass start", "seed": None,
                    "seconds": 0.0, "failure": "cache_leak", "digest": None})

    start = perf_counter()
    for s in spec.sweep_seeds(seed):
        for e in entries:
            ops.append(run_op(
                "exp_law", e, s,
                lambda m, s: verify.exp_law_verify(m, spec.N, spec.ALPHA, s),
                lambda r: r.passed))
        for e in entries:
            ops.append(run_op(
                "martingale", e, s,
                lambda m, s: verify.martingale_residual(m, spec.N, grid, s),
                lambda r: r.max_abs_z < limit))
    wall_s = perf_counter() - start

    if tracer is not None:
        tracer.enabled = False
    for s in spec.sweep_seeds(seed):
        indices = spec.spot_indices(s)
        ops.extend(spot_check(e, s, indices) for e in entries if e["spot"])

    if tracer is not None:
        tracer.dump(spans[0], import_s=import_s)
    Path(result_path).write_text(json.dumps({
        "wall_s": wall_s,
        "import_s": import_s,
        "ops": ops,
        "jumptime_file": jumptime.cli.__file__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
