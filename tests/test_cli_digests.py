"""Report bytes of a fixed CLI command set, pinned by SHA-256 and exit status.

A change that moves any of these bytes fails here.  The set leaves out
``verify-exp-law``, whose ``ecdf_grid`` column goes through numpy's SIMD
``expm1`` and so depends on the host.  Where a change moves bytes on
purpose, rewrite ``cli_digests.json`` by running this file as a script::

    PYTHONPATH=src python tests/test_cli_digests.py
"""

import hashlib
import json
import tempfile
from contextlib import redirect_stderr
from io import StringIO
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_report_bytes_are_pinned(argv, tmp_path):
    assert digest(argv, tmp_path) == json.loads(DIGESTS.read_text())[" ".join(argv)]


def test_every_pinned_command_runs():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(map(" ".join, COMMANDS))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        pinned = {" ".join(argv): digest(argv, Path(tmp)) for argv in COMMANDS}
    DIGESTS.write_text(json.dumps(pinned, indent=2) + "\n")
