"""Report bytes of a fixed CLI command set, pinned by SHA-256 and exit status.

A change that moves any of these bytes fails here, and so does a host whose
numpy kernels give other bits: the set is run a second time in a child
interpreter with numpy's AVX-512 dispatch switched off.  The set leaves out
``verify-exp-law``, whose ``ecdf_grid`` column goes through numpy's SIMD
``expm1`` and so depends on the host.  Where a change moves bytes on
purpose, rewrite ``cli_digests.json`` by running this file as a script::

    PYTHONPATH=src python tests/test_cli_digests.py
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr
from io import StringIO
from pathlib import Path

import pytest

import jumptime
from jumptime.cli import main
from jumptime.processes import catalog_names

DIGESTS = Path(__file__).resolve().parent / "cli_digests.json"

COMMANDS = (
    [["list-models"]]
    + [["feller-check", "--model", name] for name in catalog_names()]
    + [
        ["predictable-demo", *options, "--format", fmt]
        for options in (
            [],
            ["--target", "1e300", "--m", "40"],
            # More knots than one write block of the JSON template.
            ["--scheme", "harmonic", "--m", "2500"],
        )
        for fmt in ("json", "csv")
    ]
    + [
        ["cox-demo", "--model", name, "--n", "16389", "--seed", "5", "--format", fmt]
        for name in (*catalog_names(), "negative-control")
        for fmt in ("json", "csv")
    ]
    # Exit 3 at the first level whose jump time overflows, after the rows before it.
    + [["cox-demo", "--model", "power", "--param", "exponent=0.001", "--n", "50", "--seed", "2"]]
    + [["verify-martingale", "--model", name] for name in ("flat", "poisson", "power")]
)


def digest(argv, directory: Path) -> dict:
    """SHA-256 of what ``argv`` writes to its --out file, with its exit status."""
    out = directory / "out"
    with redirect_stderr(StringIO()):
        status = main(argv + ["--out", str(out)])
    return {"sha256": hashlib.sha256(out.read_bytes()).hexdigest(), "status": status}


def all_digests() -> dict:
    """``digest`` of every command in ``COMMANDS``, keyed by its joined argv."""
    with tempfile.TemporaryDirectory() as tmp:
        return {" ".join(argv): digest(argv, Path(tmp)) for argv in COMMANDS}


#: numpy's CPU features above X86_V2 that hold its AVX-512 kernels.
NO_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4,AVX512_ICL,AVX512_SPR"}

_CHILD = """
import json, sys
from numpy.lib.introspect import opt_func_info
sys.path.insert(0, sys.argv[1])
from test_cli_digests import all_digests
target = opt_func_info(func_name="^expm1$", signature="float64")["expm1"]["dd"]["current"]
print(json.dumps({"expm1": target, "digests": all_digests()}))
"""


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_report_bytes_are_pinned(argv, tmp_path):
    assert digest(argv, tmp_path) == json.loads(DIGESTS.read_text())[" ".join(argv)]


def test_every_pinned_command_runs():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(map(" ".join, COMMANDS))


def test_pinned_bytes_do_not_depend_on_avx512():
    src = str(Path(jumptime.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, **NO_AVX512, "PYTHONPATH": path}
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, str(Path(__file__).resolve().parent)],
        capture_output=True, text=True, env=env,
    )
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout)
    pinned = json.loads(DIGESTS.read_text())
    assert sorted(result["digests"]) == sorted(pinned)
    moved = sorted(argv for argv, got in result["digests"].items() if got != pinned[argv])
    assert not moved, f"expm1 dispatched to {result['expm1']}; bytes moved for {moved}"


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(all_digests(), indent=2) + "\n")
