"""Smoke tests of the crossover scripts behind ``qsim.PLAN_MAX_QUBITS`` and ``qsim.CDF_MIN_QUBITS``."""

import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.mark.parametrize(
    "script, args",
    [
        ("plan_crossover.py", ["--sizes", "4-5", "--rounds", "2"]),
        ("sample_crossover.py", ["--sizes", "4-5", "--rounds", "2", "--draws", "2", "--shots", "50"]),
    ],
)
def test_crossover_script_prints_one_row_per_size_and_family(script, args):
    done = subprocess.run([sys.executable, str(TOOLS / script), *args], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    header, columns, *rows = done.stdout.splitlines()
    assert "numpy" in header and columns.split()[:2] == ["n", "family"]
    families = ["qaoa2", "maqaoa", "linear", "agent"] if script == "plan_crossover.py" else ["qaoa2", "agent"]
    assert [row.split()[:2] for row in rows] == [[n, f] for n in ("4", "5") for f in families]
    # n = 4 is timed for every family; a 3-regular graph needs an even n, the chain and the agent do not
    width = 7 if script == "plan_crossover.py" else 5  # n, family and the timed columns
    assert all(len(row.split()) == width and "-" not in row.split()[2:] for row in rows[: len(families)])
    odd = {row.split()[1]: row.split()[2:] for row in rows[len(families):]}
    assert all(odd[f] == ["-"] * (width - 2) for f in families if f in ("qaoa2", "maqaoa"))
    assert all("-" not in odd[f] for f in families if f in ("linear", "agent"))
