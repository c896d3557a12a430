"""Self-test of the benchmark at toy sizes: python3 -m pytest -q perfbench

Checks that every workload runs in both modes and prints every metric of
BENCHMARK.json with its unit, that the fingerprint check and the tracer's
coverage guard trip on injected faults, and that the command fails without
printing a result when the package source is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
sys.path[:0] = [str(REPO / "src"), str(BENCH_DIR)]

import run  # noqa: E402
from hostclock import REF_PROBE_S, HostClock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())

END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_ms_p50": ("ms", "lower"),
    "approx_ratio": ("ratio", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
}
PER_LAYER = {
    "qsim.calls": ("count", "lower"),
    "qsim.gates_applied": ("count", "lower"),
    "qsim.bytes_computed": ("B", "lower"),
    "qsim.us_per_gate": ("us", "lower"),
    "qsim.sample_us_p50": ("us", "lower"),
    "qsim.share": ("frac", "lower"),
    "optimize.calls": ("count", "lower"),
    "optimize.evals": ("count", "lower"),
    "optimize.evals_per_call": ("count", "lower"),
    "optimize.self_us_per_eval": ("us", "lower"),
    "optimize.converged_frac": ("frac", "higher"),
    "optimize.share": ("frac", "lower"),
    "agent.share": ("frac", "lower"),
    "circuits.share": ("frac", "lower"),
    "problems.make_instance_ms": ("ms", "lower"),
    "problems.share": ("frac", "lower"),
    "metrics.self_share": ("frac", "lower"),
    "cli.self_share": ("frac", "lower"),
    "trace.unattributed_share": ("frac", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}
SHARES = ("qsim.share", "optimize.share", "agent.share", "circuits.share", "problems.share",
          "metrics.self_share", "cli.self_share", "trace.unattributed_share")


def bench(capsys, out: Path, workload: str, trace: int, seed: int = 3) -> tuple[int, dict, str]:
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
            "--toy", "--out", str(out)]
    code = run.main(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out.strip().splitlines()[-1]), captured.err


def test_spec_names_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_toy_run_prints_every_metric(capsys, tmp_path, workload, trace):
    code, result, _ = bench(capsys, tmp_path, workload, trace)
    assert code == 0 and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {k: u for k, (u, _) in expected.items()}
    if trace:
        assert sum(result["metrics"][k]["value"] for k in SHARES) == pytest.approx(1.0, abs=1e-9)
        assert result["metrics"]["qsim.gates_applied"]["value"] > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_host_clock_removes_probes_and_scales_by_probe_speed():
    clock = HostClock()
    # probes at t = 0, 10 and 20; the last one runs at half speed
    clock.starts = [0.0, 10.0, 20.0]
    clock.ends = [REF_PROBE_S, 10.0 + REF_PROBE_S, 20.0 + 2 * REF_PROBE_S]
    clock._build()
    # before the first probe and between probes at the reference speed, reference time is wall time
    assert clock.span(-1.0, 0.0) == pytest.approx(1.0)
    assert clock.span(1.0, 2.0) == pytest.approx(1.0)
    # next to the half-speed probe, the two probes' speeds average to 3/4
    assert clock.span(12.0, 13.0) == pytest.approx(0.75)
    # a probe's own time is not counted; after the last probe its speed applies
    assert clock.span(19.0, 21.0) == pytest.approx(0.75 + 0.5 * (1.0 - 2 * REF_PROBE_S))
    assert clock.span(21.0, 22.0) == pytest.approx(0.5)


def test_host_clock_probes_while_running():
    with HostClock() as clock:
        start = run.time.perf_counter()
        while run.time.perf_counter() - start < 0.35:
            pass
        end = run.time.perf_counter()
    assert len(clock.starts) >= 4  # one at each end and one every 0.1 s
    assert 0 < clock.span(start, end) < 10 * (end - start)


def test_fingerprint_check_trips_on_changed_output(capsys, tmp_path):
    workload = "baseline_qaoa2_n14"
    assert bench(capsys, tmp_path, workload, 0)[0] == 0
    store = tmp_path / "fingerprints.json"
    doc = json.loads(store.read_text())
    (key,) = doc
    doc[key] = "0" * 16  # as if an earlier run of the same code computed something else
    store.write_text(json.dumps(doc))
    code, result, err = bench(capsys, tmp_path, workload, 0)
    assert code == 1 and not result["correct"] and result["failed"] >= 1
    assert "fingerprint" in err


def test_coverage_guard_trips_when_an_import_moves(capsys, tmp_path, monkeypatch):
    import rlansatz.agent.env as env
    import rlansatz.qsim as qsim

    # The env now reaches the simulator through another name, so the
    # binding the tracer wraps in agent.env records nothing.
    monkeypatch.setattr(env, "sample_shots", lambda *a, **k: qsim.sample_shots(*a, **k))
    code, result, err = bench(capsys, tmp_path, "train_cycle6", 1)
    assert code == 1 and not result["correct"]
    assert "coverage guard" in err and "rlansatz.agent.env.sample_shots" in err


def test_fails_without_printing_when_package_is_missing(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "train_cycle6", "--seed", "0",
           "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert "{" not in done.stdout
