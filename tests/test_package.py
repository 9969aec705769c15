"""The package's public surface: its one export list, the README examples, and
the one float-range rule at every entry that takes a number."""

import re
from pathlib import Path

import pytest

import jumptime
from jumptime import compensators, core, cox, predictable, processes, verify
from jumptime.compensators import LinearCompensator, TabulatedCompensator
from jumptime.core import TimePoint, as_timepoint
from jumptime.cox import cox_time
from jumptime.predictable import (
    HARMONIC,
    AnnouncingSequence,
    YProcess,
    make_announcing_sequence,
)
from jumptime.processes import poisson_model
from jumptime.verify import martingale_residual, ode_identity_check

MODULES = (compensators, core, cox, predictable, processes, verify)
README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)


def test_package_exports_each_module_name_once():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))
    assert jumptime.__all__ == sorted(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(jumptime, name) is getattr(module, name)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(source):
    exec(compile(source, f"{README.name} python block", "exec"), {})


#: A number past the float range: float() of it raises OverflowError.
HUGE = 10**400

#: Each entry that takes a number, called with x, and the message it refuses
#: x with (a pair where that depends on the sign: for x, then for -x).  Where
#: infinity is refused, x is taken as the infinity of its sign and that
#: refusal fires; where infinity is a legal value, x is refused as past the
#: float range, so it never reads as a spurious infinite time.
FLOAT_RANGE_ENTRIES = {
    "tabulated-time": (
        lambda x: TabulatedCompensator((0, x), (0, 1)),
        "knot 1: entries must be finite",
    ),
    "tabulated-value": (
        lambda x: TabulatedCompensator((0, 1), (0, x)),
        "knot 1: entries must be finite",
    ),
    "tabulated-slope": (
        lambda x: TabulatedCompensator((0, 1), (0, 1), x),
        "extrapolation slope must be finite and nonnegative",
    ),
    "announcing-target": (
        lambda x: AnnouncingSequence((1.0,), x),
        "an infinite target has no finite announcing sequence",
    ),
    "announcing-time": (
        lambda x: AnnouncingSequence((x,), 1.0),
        "announcing time 0 must be a finite nonnegative real",
    ),
    "y-time": (
        lambda x: YProcess((0, x), (1, 0)),
        (
            "knot times and values must be finite",
            "knot times must be strictly increasing at index 1",
        ),
    ),
    "y-value": (
        lambda x: YProcess((0, 1, 2), (1, x, 0)),
        "knot times and values must be finite",
    ),
    "timepoint": (TimePoint, "time is past the float range"),
    "as_timepoint": (as_timepoint, "time is past the float range"),
    "evaluate": (LinearCompensator(1.0).evaluate, "time is past the float range"),
    "make_announcing_sequence": (
        lambda x: make_announcing_sequence(x, 3, HARMONIC),
        "time is past the float range",
    ),
    "inverse": (LinearCompensator(1.0).inverse, "level is past the float range"),
    "cox_time": (
        lambda x: cox_time(LinearCompensator(1.0), x),
        "the exponential level is past the float range",
    ),
    "ode_identity_check": (
        lambda x: ode_identity_check([1.0], [0.5, x]),
        "grid times must be finite and nonnegative",
    ),
    "martingale_residual": (
        lambda x: martingale_residual(poisson_model(1.0), 10, [0.5, x], 1),
        "grid times must be finite and nonnegative",
    ),
}


@pytest.mark.parametrize("x", [HUGE, -HUGE], ids=["huge", "minus-huge"])
@pytest.mark.parametrize("entry", list(FLOAT_RANGE_ENTRIES))
def test_a_number_past_the_float_range_is_refused_with_a_value_error(entry, x):
    call, message = FLOAT_RANGE_ENTRIES[entry]
    if not isinstance(message, str):
        message = message[x < 0]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as refused:
        call(x)
    assert "0" * 20 not in str(refused.value)
