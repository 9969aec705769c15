"""In-memory span recorder for the traced benchmark runs.

The tracer wraps public functions of ``jumptime`` where their callers look
them up (``jumptime.cli.build_model``, not only ``jumptime.processes``), plus
the public array and scalar methods of every compensator class.  Private
helpers are never wrapped, so a span name keeps its meaning when the code
behind it is rewritten.

Each wrapped call is a span.  Spans are folded into per-name totals while the
process runs: calls, inclusive seconds, and self seconds (inclusive minus the
time covered by child spans).  A call nested inside a span of the same name
is not a new span, so recursion and delegation are not counted twice.  The
totals and the draw-request counts are written out as JSON once, when the
traced process ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from time import perf_counter

#: (module, attribute, span name): each public function at each lookup site.
WRAPPED_FUNCTIONS = (
    ("jumptime.cli", "run", "cli.run"),
    ("jumptime.cli", "build_model", "processes.build_model"),
    ("jumptime.cli", "feller_check", "processes.feller_check"),
    ("jumptime.cli", "exp_law_verify", "verify.exp_law_verify"),
    ("jumptime.cli", "martingale_residual", "verify.martingale_residual"),
    ("jumptime.cli", "cox_sample", "cox.cox_sample"),
    ("jumptime.cli", "build_y_process", "predictable.build_y_process"),
    ("jumptime.processes", "build_model", "processes.build_model"),
    ("jumptime.compensators", "load_tabulated_csv", "compensators.load_tabulated_csv"),
    ("jumptime.verify", "exp_law_verify", "verify.exp_law_verify"),
    ("jumptime.verify", "martingale_residual", "verify.martingale_residual"),
    ("jumptime.verify", "sample_a_tau", "verify.sample_a_tau"),
    ("jumptime.verify", "ode_identity_check", "verify.ode_identity_check"),
    ("jumptime.cox", "draw_exponential", "core.draw_exponential"),
)

#: Compensator methods wrapped on every class that defines them.
WRAPPED_METHODS = ("evaluate", "inverse", "evaluate_many", "inverse_many")

#: Span names whose calls request the (seed, n) block of Exp(1) draws.
DRAW_REQUESTS = ("verify.sample_a_tau", "verify.martingale_residual")


class Tracer:
    def __init__(self):
        self.enabled = True
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.draw_keys: set[tuple] = set()
        self.draw_requests = 0
        self.draw_reused = 0
        self.wrapped: list[str] = []
        self.missing: list[str] = []
        self._stack: list[list] = []  # [name, seconds covered by children]
        self._open: set[str] = set()

    def _note_draw_request(self, fn, args, kwargs) -> None:
        bound = inspect.signature(fn).bind(*args, **kwargs)
        key = (int(bound.arguments["seed"]), int(bound.arguments["n"]))
        self.draw_requests += 1
        if key in self.draw_keys:
            self.draw_reused += 1
        self.draw_keys.add(key)

    def wrap(self, fn, name: str):
        stack, opened, stats = self._stack, self._open, self.stats
        counts_draws = name in DRAW_REQUESTS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled or name in opened:
                return fn(*args, **kwargs)
            if counts_draws:
                self._note_draw_request(fn, args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            opened.add(name)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                stack.pop()
                opened.discard(name)
                if stack:
                    stack[-1][1] += took
                s = stats.get(name)
                if s is None:
                    s = stats[name] = [0, 0.0, 0.0]
                s[0] += 1
                s[1] += took
                s[2] += took - frame[1]

        return traced

    def install(self) -> None:
        """Wrap every listed function and compensator method that exists."""
        for module_name, attr, name in WRAPPED_FUNCTIONS:
            module = importlib.import_module(module_name)
            site = f"{module_name}.{attr}"
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(site)
                continue
            setattr(module, attr, self.wrap(fn, name))
            self.wrapped.append(site)
        compensators = importlib.import_module("jumptime.compensators")
        classes, todo = [], [compensators.Compensator]
        while todo:
            cls = todo.pop()
            classes.append(cls)
            todo.extend(cls.__subclasses__())
        for cls in sorted(set(classes), key=lambda c: c.__name__):
            for method in WRAPPED_METHODS:
                fn = cls.__dict__.get(method)
                if fn is None or getattr(fn, "__isabstractmethod__", False):
                    continue
                setattr(cls, method, self.wrap(fn, f"compensators.{method}"))
                self.wrapped.append(f"jumptime.compensators.{cls.__name__}.{method}")

    def to_json_dict(self) -> dict:
        return {
            "stats": self.stats,
            "draw_requests": self.draw_requests,
            "draw_reused": self.draw_reused,
            "wrapped": self.wrapped,
            "missing": self.missing,
        }

    def dump(self, path, **extra) -> None:
        with open(path, "w") as fh:
            json.dump(dict(self.to_json_dict(), **extra), fh)
