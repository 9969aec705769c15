"""Benchmark of the jumptime package, timed from outside the program.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Workloads (see ``bench/README.md`` for why each was chosen):

* ``cli-verify``: the documented user path, every CLI command in a fresh
  interpreter: verifications plus the start-up-bound auxiliary commands.
* ``model-sweep``: the acceptance battery and calibration pattern through
  the library, 33 models on two shared draw seeds, one interpreter per pass.
* ``cox-stream``: two 100000-row ``cox-demo`` streams written to files.

Each workload is a closed loop with one client.  A run repeats a cycle:
set the workload up three times in fresh interpreters, then run one whole
timed pass, which on the CLI workloads sets up once more after every
command, outside the command's timing.  It starts another cycle while the
run would then end no later than half an average cycle after ``--seconds``,
so it runs at least one pass, and it sets up three more times at the end;
``setup_s`` is the median of all set-ups.  Every pass of a run uses the
same seeds, so each report must be byte-identical to the first pass's.

An operation is one command, library call or spot check of a pass, keyed by
its kind, label and seed, plus one operation for all set-ups of the run.
Every pass repeats the same operations, so ``attempted`` counts each once,
and ``failed`` counts those that failed in any repetition: both depend on
the seed alone, never on how many passes fitted in the run.

With ``--trace 1`` the run makes one untraced pass and then one traced pass,
and reports the per-layer metrics of the traced pass plus its overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A fuller record of the run goes to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import spec

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Set-up probes before each pass and after the last one.  The CLI
#: workloads also probe once after every command of a pass.  Interleaving
#: the probes with the timed work spreads them over the whole run, so a slow
#: spell of a shared machine weighs on set-up as much as on the passes.
SETUP_PROBES_PER_PASS = 3
CHILD_TIMEOUT_S = 150

#: Operation kinds whose latency is the workload's op_s_p50.
MAIN_KINDS = {
    "cli-verify": ("verify",),
    "model-sweep": ("exp_law", "martingale"),
    "cox-stream": ("cox",),
}

#: Failure classes that mean an output is wrong, so the run is not correct.
#: The others ("false_reject", "infinite_sample") are wrong verdicts of the
#: program; they are counted as failed operations but leave the outputs
#: themselves checkable.
OUTPUT_FAILURES = frozenset({
    "crash", "contract", "negative_control_passed", "spot_check",
    "nondeterministic", "cache_leak", "wrong_package",
})
#: Failure classes of operations that returned no report.  Their latency is
#: left out of op_s_p50, so a fix that turns a fast failure into a full
#: verification does not read as a slowdown.
NO_REPORT = frozenset({"crash", "infinite_sample"})
#: Label of the one operation that stands for all set-up probes of a run.
SETUP_LABEL = "set-up"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("JUMPTIME_SEED", None)
    return env


def spawn(argv, tag: str, capture: bool = False):
    """Run a child to completion in the checkout: (status, seconds, stdout)."""
    with open(WORK / f"{tag}.stderr", "wb") as err:
        start = perf_counter()
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
                stderr=err, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return None, perf_counter() - start, b""
        return proc.returncode, perf_counter() - start, proc.stdout or b""


def run_cli(args, tag: str, traced: bool):
    """One CLI command in a fresh interpreter: (status, seconds, spans path)."""
    if traced:
        spans = WORK / f"{tag}.spans.json"
        argv = [sys.executable, str(BENCH / "trace_cli.py"), str(spans), "--", *args]
    else:
        spans = None
        argv = [sys.executable, "-m", "jumptime.cli", *args]
    status, took, _ = spawn(argv, tag)
    return status, took, spans


def sha256_file(path: Path):
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def op_record(kind, label, seed, seconds, failure, digest, **extra) -> dict:
    return dict(kind=kind, label=label, seed=seed, seconds=seconds, failure=failure,
                digest=digest, **extra)


# --------------------------------------------------------------------------
# workloads: each pass returns {"wall_s", "ops", "items", "bytes_out", "spans"}
# and calls ``between()`` outside its timed work, after every CLI command.


def check_cli_report(cmd: dict, status, out: Path, tag: str):
    """Failure class of one CLI command, or None when it behaved correctly."""
    from jumptime.cli import KNOT_TOLERANCE, MARTINGALE_Z_LIMIT

    if status == 3:
        stderr = (WORK / f"{tag}.stderr").read_text(errors="replace")
        return "infinite_sample" if "infinite jump time" in stderr else "crash"
    if status not in (0, 1):
        return "crash"
    try:
        report = json.loads(out.read_text())
        command = cmd["args"][0]
        if command == "list-models":
            passed = report["models"] == list(spec.PUBLIC_MODELS)
        elif command == "verify-martingale":
            passed = report["max_abs_z"] < MARTINGALE_Z_LIMIT
        elif command == "predictable-demo":
            passed = (report["hitting_time"] == report["target"]
                      and report["max_knot_error"] <= KNOT_TOLERANCE)
        else:
            passed = report["passed"]
    except (OSError, ValueError, KeyError, TypeError):
        return "crash"
    if status != (0 if passed else 1):
        return "contract"
    return spec.classify(cmd["expect_pass"], passed)


def cli_verify_pass(seed: int, tag: str, traced: bool, between) -> dict:
    ops, spans, wall, bytes_out = [], [], 0.0, 0
    for i, cmd in enumerate(spec.cli_verify_commands(seed)):
        op_tag = f"{tag}-{i:02d}"
        out = WORK / f"{op_tag}.out"
        out.unlink(missing_ok=True)
        status, took, span_path = run_cli(cmd["args"] + ["--out", str(out)], op_tag, traced)
        wall += took
        spans.append(span_path)
        if out.exists():
            bytes_out += out.stat().st_size
        ops.append(op_record(cmd["kind"], cmd["name"], cmd["seed"], took,
                             check_cli_report(cmd, status, out, op_tag), sha256_file(out)))
        between()
    # Worker count must never change a report: compare the pair that shares a seed.
    one, two = ops[0], ops[1]
    if two["failure"] is None and one["digest"] != two["digest"]:
        two["failure"] = "nondeterministic"
    verdicts = sum(op["kind"] == "verify" for op in ops)
    return {"wall_s": wall, "ops": ops, "items": verdicts * spec.N,
            "bytes_out": bytes_out, "spans": spans}


def cox_rows_check(cmd: dict, out: Path):
    """Row count and spot checks of one Cox stream against cox_sample."""
    from jumptime.core import RngStream
    from jumptime.cox import cox_sample
    from jumptime.processes import build_model

    lines = out.read_text().splitlines()
    if cmd["format"] == "csv":
        header, lines = lines[0], lines[1:]
        if header != "z,tau,a_at_tau,seed,stream_id":
            return "contract", f"csv header {header!r}"
    if len(lines) != spec.N:
        return "contract", f"{len(lines)} rows, expected {spec.N}"
    A = build_model(cmd["model"]).compensator
    keys = ("z", "tau", "a_at_tau", "seed", "stream_id")
    for k in spec.spot_indices(cmd["seed"]):
        want = cox_sample(A, RngStream(cmd["seed"], k)).to_json_dict()
        if cmd["format"] == "csv":
            got = next(csv.reader([lines[k]]))
            same = got == [str(want[key]) for key in keys]
        else:
            same = json.loads(lines[k]) == want
        if not same:
            return "spot_check", f"stream {k}: row {lines[k]!r}, reference {want!r}"
    return None, None


def cox_stream_pass(seed: int, tag: str, traced: bool, between) -> dict:
    ops, spans, wall, bytes_out = [], [], 0.0, 0
    for i, cmd in enumerate(spec.cox_stream_commands(seed)):
        op_tag = f"{tag}-{i}"
        out = WORK / f"{op_tag}.{cmd['format']}"
        out.unlink(missing_ok=True)
        status, took, span_path = run_cli(cmd["args"] + ["--out", str(out)], op_tag, traced)
        wall += took
        spans.append(span_path)
        failure = None if status == 0 and out.exists() else "crash"
        ops.append(op_record("cox", cmd["name"], cmd["seed"], took, failure, sha256_file(out)))
        spot, detail = cox_rows_check(cmd, out) if failure is None else ("spot_check", "no output")
        ops.append(op_record("spot", cmd["name"], cmd["seed"], 0.0, spot, None, detail=detail))
        if out.exists():
            bytes_out += out.stat().st_size
            out.unlink()
        between()
    return {"wall_s": wall, "ops": ops, "items": 2 * spec.N,
            "bytes_out": bytes_out, "spans": spans}


def model_sweep_pass(seed: int, tag: str, traced: bool, between) -> dict:
    result = WORK / f"{tag}.result.json"
    result.unlink(missing_ok=True)
    spans = WORK / f"{tag}.spans.json"
    argv = [sys.executable, str(BENCH / "sweep_worker.py"), str(seed), str(WORK), str(result)]
    status, took, _ = spawn(argv + ([str(spans)] if traced else []), tag)
    try:
        data = json.loads(result.read_text())
    except (OSError, ValueError):
        data = None
    if status != 0 or data is None:
        op = op_record("pass", "sweep worker", seed, took, "crash", None)
        return {"wall_s": None, "ops": [op], "items": 0, "bytes_out": 0, "spans": []}
    ops = data["ops"]
    if Path(data["jumptime_file"]).resolve().parent.parent != SRC.resolve():
        ops.append(op_record("pass", "package path", seed, 0.0, "wrong_package", None))
    verdicts = sum(op["kind"] in MAIN_KINDS["model-sweep"] for op in ops)
    return {"wall_s": data["wall_s"], "ops": ops, "items": verdicts * spec.N,
            "bytes_out": 0, "spans": [spans] if traced else []}


PASSES = {
    "cli-verify": cli_verify_pass,
    "model-sweep": model_sweep_pass,
    "cox-stream": cox_stream_pass,
}


# --------------------------------------------------------------------------
# set-up


def setup_times(workload: str, seed: int, times: list, ops: list,
                count: int = SETUP_PROBES_PER_PASS) -> None:
    """Append the wall times of fresh interpreters that import and build."""
    argv = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed), str(WORK)]
    for _ in range(count):
        status, took, stdout = spawn(argv, f"setup-{len(times) + len(ops)}", capture=True)
        if status != 0:
            ops.append(op_record("setup", SETUP_LABEL, seed, took, "crash", None))
            continue
        times.append(took)
        path = Path(stdout.decode().strip())
        if path.resolve().parent.parent != SRC.resolve():
            ops.append(op_record("setup", SETUP_LABEL, seed, took, "wrong_package", None))


# --------------------------------------------------------------------------
# metrics


def percentile_line(values: list[float]) -> str:
    """Median plus the highest of p90/p99 with at least ten samples beyond it."""
    text = f"p50 {statistics.median(values):.6g} s"
    for p in (99, 90):
        if len(values) * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100)[p - 1]
            text += f", p{p} {q:.6g} s"
            break
    return f"{text} (n={len(values)})"


def check_determinism(passes: list[dict]) -> None:
    """Mark any report whose digest differs from the same report in pass 1."""
    first = {}
    for p in passes:
        for op in p["ops"]:
            if op["digest"] is None:
                continue
            key = (op["kind"], op["label"], op["seed"])
            if first.setdefault(key, op["digest"]) != op["digest"] and op["failure"] is None:
                op["failure"] = "nondeterministic"


def digests_by_seed(passes: list[dict]) -> dict:
    """SHA-256 over the report digests of each seed, from the first pass."""
    lines: dict[str, list[str]] = {}
    for op in passes[0]["ops"]:
        if op["digest"] is not None:
            key = str(op["seed"]) if op["seed"] is not None else "unseeded"
            lines.setdefault(key, []).append(f"{op['kind']}|{op['label']}|{op['digest']}")
    return {k: hashlib.sha256("\n".join(v).encode()).hexdigest() for k, v in lines.items()}


def distinct_operations(seed: int, setup_ops: list[dict], passes: list[dict]) -> dict:
    """Each operation of the run, keyed once, with its first failed repetition (or None)."""
    outcome = {("setup", SETUP_LABEL, seed): None}
    for op in setup_ops + [op for p in passes for op in p["ops"]]:
        key = (op["kind"], op["label"], op["seed"])
        if outcome.get(key) is None:
            outcome[key] = op if op["failure"] else None
    return outcome


def median_times(ops) -> dict:
    """Each operation's median time over the passes that ran it.

    One burst of a shared machine slows one operation of one pass; taking
    the median per operation first keeps such bursts out, where the median
    of a few whole passes would not.
    """
    times: dict[tuple, list[float]] = {}
    for op in ops:
        times.setdefault((op["kind"], op["label"], op["seed"]), []).append(op["seconds"])
    return {key: statistics.median(v) for key, v in times.items()}


def end_to_end(workload: str, passes: list[dict], setup: list[float]) -> tuple[dict, list]:
    ops = [op for p in passes for op in p["ops"]]
    main_ops = [op for op in ops if op["kind"] in MAIN_KINDS[workload]]
    reported = [op for op in main_ops if op["failure"] not in NO_REPORT]
    main_s = list(median_times(reported or main_ops).values())  # never an empty median
    no_report = len(median_times(main_ops)) - len(median_times(reported))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(median_times(ops).values()), "s"),
        "op_s_p50": (statistics.median(main_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0, "MB"),
    }
    rates = [p["items"] / p["wall_s"] for p in passes if p["wall_s"]]
    lines = [
        f"setup_s = {metrics['setup_s'][0]:.6g} s (median of {len(setup)} fresh interpreters)",
        f"wall_s = {metrics['wall_s'][0]:.6g} s (each operation's median over "
        f"{len(passes)} passes, summed)",
        f"op_s_p50 = {metrics['op_s_p50'][0]:.6g} s (median over {len(main_s)} operations "
        f"that returned a report, each at its median over passes; "
        f"{no_report} without a report left out)",
        f"peak_rss_mb = {metrics['peak_rss_mb'][0]:.6g} MB (largest child process)",
    ]
    if workload == "cox-stream":
        lines.append(f"lines_per_s = {statistics.median(rates):.6g} 1/s "
                     f"(Cox rows written per second, median over passes)")
    else:
        lines.append(f"verdict_s_p50 = {statistics.median(main_s):.6g} s: "
                     f"{percentile_line(main_s)}")
        lines.append(f"reps_per_s = {statistics.median(rates):.6g} 1/s "
                     f"(replications verified per second at n={spec.N}, median over passes)")
    if workload == "cli-verify":
        aux = list(median_times(op for op in ops if op["kind"] == "aux").values())
        lines.append(f"aux_cmd_s_p50 = {statistics.median(aux):.6g} s: {percentile_line(aux)}")
    return metrics, lines


def merged_spans(paths) -> dict:
    merged = {"stats": {}, "draw_requests": 0, "draw_reused": 0, "import_s": [],
              "wrapped": set(), "missing": set()}
    for path in paths:
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, ValueError):
            continue
        for name, (calls, total, self_s) in doc["stats"].items():
            s = merged["stats"].setdefault(name, [0, 0.0, 0.0])
            s[0] += calls
            s[1] += total
            s[2] += self_s
        merged["draw_requests"] += doc["draw_requests"]
        merged["draw_reused"] += doc["draw_reused"]
        merged["import_s"].append(doc["import_s"])
        merged["wrapped"].update(doc["wrapped"])
        merged["missing"].update(doc["missing"])
    return merged


def per_layer(traced: dict, untraced: dict) -> tuple[dict, dict]:
    spans = merged_spans(traced["spans"])
    stats = spans["stats"]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def per_call(name, scale, field=1):
        s = stats.get(name)
        return s[field] / s[0] * scale if s and s[0] else 0.0

    verdicts = calls("verify.exp_law_verify") + calls("verify.martingale_residual")

    def per_verdict_ms(name):
        return stats.get(name, [0, 0.0])[1] / verdicts * 1e3 if verdicts else 0.0

    requests = spans["draw_requests"]
    imports = spans["import_s"]
    return {
        "core.draw_ms": (per_call("verify.sample_a_tau", 1e3, field=2), "ms"),
        "core.scalar_draw_us": (per_call("core.draw_exponential", 1e6), "us"),
        "compensators.inverse_many_ms": (per_verdict_ms("compensators.inverse_many"), "ms"),
        "compensators.evaluate_many_ms": (per_verdict_ms("compensators.evaluate_many"), "ms"),
        "compensators.inverse_us": (per_call("compensators.inverse", 1e6), "us"),
        "compensators.evaluate_us": (per_call("compensators.evaluate", 1e6), "us"),
        "compensators.table_load_ms": (per_call("compensators.load_tabulated_csv", 1e3), "ms"),
        "processes.build_model_ms": (per_call("processes.build_model", 1e3), "ms"),
        "processes.feller_ms": (per_call("processes.feller_check", 1e3), "ms"),
        "cox.sample_us": (per_call("cox.cox_sample", 1e6, field=2), "us"),
        "predictable.y_build_ms": (per_call("predictable.build_y_process", 1e3), "ms"),
        "verify.exp_law_self_ms": (per_call("verify.exp_law_verify", 1e3, field=2), "ms"),
        "verify.ode_identity_ms": (per_call("verify.ode_identity_check", 1e3), "ms"),
        "verify.martingale_self_ms": (per_call("verify.martingale_residual", 1e3, field=2), "ms"),
        "verify.draw_reuse_ratio": (spans["draw_reused"] / requests if requests else 0.0, "ratio"),
        "cli.import_ms": (statistics.mean(imports) * 1e3 if imports else 0.0, "ms"),
        "cli.self_ms": (per_call("cli.run", 1e3, field=2), "ms"),
        "cli.bytes_out": (traced["bytes_out"], "count"),
        "trace.wall_s": (traced["wall_s"], "s"),
        "trace.overhead_s": (traced["wall_s"] - untraced["wall_s"], "s"),
    }, spans


# --------------------------------------------------------------------------


def machine() -> dict:
    import numpy

    import jumptime

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "jumptime": jumptime.__version__,
    }


def derived_seeds(workload: str, seed: int) -> dict:
    if workload == "cli-verify":
        return {c["name"]: c["seed"] for c in spec.cli_verify_commands(seed) if c["seed"]}
    if workload == "cox-stream":
        return {c["name"]: c["seed"] for c in spec.cox_stream_commands(seed)}
    return {"draw seeds": spec.sweep_seeds(seed)}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "jumptime" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'jumptime'}; run from a jumptime checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    workload, seed = args.workload, args.seed
    if workload == "model-sweep":
        spec.write_tables(seed, WORK)
    run_pass = PASSES[workload]

    setup: list[float] = []
    setup_ops: list[dict] = []
    if args.trace:
        untraced = run_pass(seed, "pass-0", False, lambda: None)
        traced = run_pass(seed, "pass-traced", True, lambda: None)
        passes = [untraced, traced]
    else:
        passes, start = [], perf_counter()
        while True:
            setup_times(workload, seed, setup, setup_ops)
            passes.append(run_pass(seed, f"pass-{len(passes)}", False,
                                   lambda: setup_times(workload, seed, setup, setup_ops, 1)))
            elapsed = perf_counter() - start
            if elapsed + elapsed / len(passes) / 2 > args.seconds:
                break
        setup_times(workload, seed, setup, setup_ops)

    check_determinism(passes)
    outcome = distinct_operations(seed, setup_ops, passes)
    failed_ops = [op for op in outcome.values() if op]
    failures: dict[str, int] = {}
    for op in failed_ops:
        failures[op["failure"]] = failures.get(op["failure"], 0) + 1
    attempted, failed = len(outcome), len(failed_ops)
    timed = bool(setup or args.trace) and all(p["wall_s"] is not None for p in passes)
    correct = timed and not set(failures) & OUTPUT_FAILURES

    print(f"workload {workload}, seed {seed}, trace {args.trace}, {len(passes)} passes")
    record = {"workload": workload, "seed": seed, "trace": args.trace,
              "machine": machine(), "derived_seeds": derived_seeds(workload, seed),
              "digests": digests_by_seed(passes),
              "report_digests": {f"{op['kind']}|{op['label']}|{op['seed']}": op["digest"]
                                 for op in passes[0]["ops"] if op["digest"]},
              "failures": failures,
              "failed_ops": failed_ops}
    if timed and args.trace:
        metrics, spans = per_layer(passes[1], passes[0])
        record["wrapped"] = sorted(spans["wrapped"])
        record["not_found"] = sorted(spans["missing"])
        print(f"wrapped {len(spans['wrapped'])} lookup sites; not found: "
              f"{', '.join(sorted(spans['missing'])) or 'none'}")
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
    elif timed:
        metrics, lines = end_to_end(workload, passes, setup)
        for line in lines:
            print(line)
    else:
        metrics = {}
    print(f"error_rate = {failed / attempted:.6g} ratio ({failed} of {attempted} operations; "
          f"classes: {json.dumps(failures, sort_keys=True)})")
    for op in record["failed_ops"]:
        print(f"  failed: {op['kind']} {op['label']} seed={op['seed']}: {op['failure']}"
              + (f" ({op['detail']})" if op.get("detail") else ""))
    print(f"digests: {json.dumps(record['digests'], sort_keys=True)}")
    print(f"machine: {json.dumps(record['machine'], sort_keys=True)}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record["result"] = result
    (WORK / f"{workload}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
