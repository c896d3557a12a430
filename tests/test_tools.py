"""Smoke tests of the crossover scripts behind ``qsim.PLAN_MAX_QUBITS`` and ``qsim.CDF_MIN_QUBITS``, and
of the file comparison in ``tools/same_outputs.py``."""

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
    width = 8 if script == "plan_crossover.py" else 5  # n, family, the timed columns and plan_crossover's table MiB
    assert all(len(row.split()) == width and "-" not in row.split()[2:] for row in rows[: len(families)])
    odd = {row.split()[1]: row.split()[2:] for row in rows[len(families):]}
    assert all(odd[f] == ["-"] * (width - 2) for f in families if f in ("qaoa2", "maqaoa"))
    assert all("-" not in odd[f] for f in families if f in ("linear", "agent"))


@pytest.fixture
def differing_files(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    from same_outputs import differing_files

    return differing_files


def _tree(root: Path, files: dict) -> Path:
    for name, data in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(data)
    return root


OUTPUTS = {"train/steps.csv": b"epoch,worker\r\n0,0\r\n", "train/report.json": b"{}", "matrix.csv": b"n\r\n6\r\n"}


def test_same_outputs_finds_no_difference_in_identical_trees(tmp_path, differing_files):
    assert differing_files(_tree(tmp_path / "a", OUTPUTS), _tree(tmp_path / "b", OUTPUTS)) == []


def test_same_outputs_names_a_file_that_differs_in_one_byte(tmp_path, differing_files):
    changed = {**OUTPUTS, "train/steps.csv": b"epoch,worker\r\n0,1\r\n"}
    assert differing_files(_tree(tmp_path / "a", OUTPUTS), _tree(tmp_path / "b", changed)) == ["train/steps.csv"]


def test_same_outputs_names_a_file_on_one_side_only(tmp_path, differing_files):
    extra = {**OUTPUTS, "eval/eval_report.json": b"{}"}
    assert differing_files(_tree(tmp_path / "a", OUTPUTS), _tree(tmp_path / "b", extra)) == ["eval/eval_report.json"]


def test_same_outputs_ignores_run_info(tmp_path, differing_files):
    a = _tree(tmp_path / "a", {**OUTPUTS, "train/run_info.json": b'{"git_rev": "abc"}'})
    b = _tree(tmp_path / "b", {**OUTPUTS, "train/run_info.json": b'{"git_rev": "def"}', "eval/run_info.json": b"{}"})
    assert differing_files(a, b) == []
