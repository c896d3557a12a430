"""The benchmark's workloads, driven only through rlansatz's public calls.

Each workload has a set-up (import the package, build the instance and the
circuit or config the package receives) and a repetition ("rep") that runs
one seeded unit of the paper's work and checks its outputs:

* ``train_cycle6``: one ``agent.train`` epoch of 128 steps on maxcut over a
  6-cycle (graph seed 0), ``workers=1``, 1000 shots, default COBYLA budget.
  An op is one env step.
* ``baseline_qaoa2_n14``: the 10-run ``evaluate_circuit`` protocol for
  ``build_baseline("qaoa2")`` on maxcut, 3-regular, n=14, graph seed 1.
  An op is one protocol run (random restart, COBYLA, fresh estimate).
* ``matrix_n8``: ``rlansatz matrix`` through ``cli.main`` on
  {maxcut, minvertexcover} x grid2d x n=8 x {qaoa1, maqaoa}, 5 runs a cell,
  into a temporary directory. An op is one protocol run of a cell. The
  constrained kind and maqaoa (18 and 26 parameters) are kept; 5 runs a cell
  keep a rep near 7 s so several fit in a run.

The rep seed is the only input that changes between reps; the package gets
only the generated instance, circuit, config and seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

SHOTS = 1000
BETA = 0.015  # the env's default depth weight, restated to check rewards
EVAL_RUNS = 10


@dataclass
class Rep:
    """Outcome of one repetition."""

    ops: int
    marks: list[float]  # perf_counter stamps: the rep's start, op boundaries, its end
    ratios: list[float]  # approximation ratios, the quality guard
    fingerprint: str
    failures: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)
    # latency samples are the gaps between consecutive marks up to ``sample_end``
    # (None: all of them), each covering ``ops_per_sample`` ops
    sample_end: int | None = None
    ops_per_sample: int = 1

    @property
    def failed_ops(self) -> int:
        return self.ops if self.failures else 0

    @property
    def wall_s(self) -> float:
        return self.marks[-1] - self.marks[0]

    def op_samples(self, span: Callable[[float, float], float]) -> list[float]:
        """Per-op latency samples, timed by ``span(a, b)``."""
        marks = self.marks[: self.sample_end]
        return [span(a, b) / self.ops_per_sample for a, b in zip(marks, marks[1:])]


@dataclass(frozen=True)
class Workload:
    name: str
    op: str
    setup: Callable[[bool, Path], dict]
    rep: Callable[[dict, int, Callable], Rep]
    # Bindings the traced run must see called; a moved import zeroes one.
    expected_bindings: tuple[str, ...]


def fingerprint(values) -> str:
    """Hash of JSON-encoded outputs; floats are written with all their digits."""
    return hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()[:16]


def _ratio_failures(ratios, what: str) -> list[str]:
    return [f"{what} ratio {r!r} not finite in [0, 1]" for r in ratios if not (math.isfinite(r) and 0.0 <= r <= 1.0)]


# -- train_cycle6 --------------------------------------------------------------


def _train_setup(toy: bool, workdir: Path) -> dict:
    from rlansatz import action_space, make_instance

    n = 4 if toy else 6
    inst = make_instance("cycle", n, 0, "maxcut")
    return {"inst": inst, "steps": 8 if toy else 128, "n_actions": action_space(n).size}


def _train_rep(inputs: dict, seed: int, measure) -> Rep:
    from rlansatz.agent import TrainConfig, train
    from rlansatz.metrics import approximation_ratio
    from rlansatz.qsim import exact_expectation

    inst = inputs["inst"]
    cfg = TrainConfig(epochs=1, steps_per_epoch=inputs["steps"], workers=1, shots=SHOTS)
    rows: list[dict] = []
    stamps: list[float] = []

    def log_step(row):
        stamps.append(time.perf_counter())
        rows.append(row)

    with measure():
        start = time.perf_counter()
        result = train(inst, cfg, seed, log_step=log_step)
        end = time.perf_counter()

    failures = []
    max_step = 2 * inst.n
    for row in rows:
        if row["reward"] != -row["expectation"] - BETA * row["depth"]:
            failures.append(f"step {row['episode']}/{row['step']}: reward != -expectation - {BETA}*depth")
        if not (1 <= row["step"] <= max_step and 0 <= row["action_id"] < inputs["n_actions"] and row["evaluations"] >= 1):
            failures.append(f"step {row['episode']}/{row['step']}: step, action or evaluations out of range")
    if len(rows) != inputs["steps"]:
        failures.append(f"{len(rows)} steps logged, expected {inputs['steps']}")
    ratios = [approximation_ratio(row["expectation"], inst.spectrum) for row in rows]
    failures += _ratio_failures(ratios, "step")
    best_exact = approximation_ratio(exact_expectation(result.best_circuit, inst.ham), inst.spectrum, clamp=True)
    return Rep(
        ops=len(rows),
        marks=[start, *stamps, end],  # the last gap is the epoch's ppo_update: not a step
        sample_end=-1,
        ratios=ratios,
        fingerprint=fingerprint(rows),
        failures=failures,
        info={"best_exact_ratio": best_exact, "evaluations": sum(r["evaluations"] for r in rows)},
    )


# -- baseline_qaoa2_n14 ----------------------------------------------------------


def _baseline_setup(toy: bool, workdir: Path) -> dict:
    from rlansatz import build_baseline, make_instance

    inst = make_instance("three_regular", 6 if toy else 14, 1, "maxcut")
    return {"inst": inst, "circuit": build_baseline("qaoa2", inst), "runs": 2 if toy else EVAL_RUNS}


def _estimate_failures(estimates, spectrum) -> list[str]:
    lo, hi = spectrum.e_min, spectrum.e_max
    tol = 1e-9 * max(1.0, abs(lo), abs(hi))
    return [f"estimate {e!r} outside [{lo}, {hi}]" for e in estimates if not (lo - tol <= e <= hi + tol)]


def _baseline_rep(inputs: dict, seed: int, measure) -> Rep:
    from rlansatz import evaluate_circuit

    inst, runs = inputs["inst"], inputs["runs"]
    with measure():
        start = time.perf_counter()
        report = evaluate_circuit(inputs["circuit"], inst, n_runs=runs, n_shots=SHOTS, seed=seed)
        end = time.perf_counter()
    failures = _ratio_failures(report.per_run_ratios, "run")
    failures += _estimate_failures(report.per_run_estimates, inst.spectrum)
    if len(report.per_run_ratios) != runs:
        failures.append(f"{len(report.per_run_ratios)} runs reported, expected {runs}")
    return Rep(
        ops=runs,
        marks=[start, end],
        ops_per_sample=runs,
        ratios=list(report.per_run_ratios),
        fingerprint=fingerprint(report.per_run_estimates),
        failures=failures,
    )


# -- matrix_n8 -----------------------------------------------------------------

MATRIX_PROBLEMS = ("maxcut", "minvertexcover")
MATRIX_ALGORITHMS = ("qaoa1", "maqaoa")
MATRIX_RUNS = 5


def _matrix_setup(toy: bool, workdir: Path) -> dict:
    import rlansatz.cli  # noqa: F401 - the import is part of the set-up cost

    runs = 2 if toy else MATRIX_RUNS
    ini = workdir / "grid.ini"
    ini.write_text(
        "[problem]\ntopology = grid2d\nseed = 0\n\n"
        f"[run]\nshots = {SHOTS}\neval_runs = {runs}\n\n"
        f"[matrix]\nproblems = {', '.join(MATRIX_PROBLEMS)}\ntopologies = grid2d\n"
        f"sizes = {4 if toy else 8}\nalgorithms = {', '.join(MATRIX_ALGORITHMS)}\n"
    )
    return {"ini": ini, "workdir": workdir, "runs": runs, "cells": len(MATRIX_PROBLEMS) * len(MATRIX_ALGORITHMS)}


def _matrix_rep(inputs: dict, seed: int, measure) -> Rep:
    from rlansatz.cli import main

    out = Path(tempfile.mkdtemp(prefix="matrix-", dir=inputs["workdir"]))
    try:
        argv = ["matrix", "--config", str(inputs["ini"]), "--out", str(out), "--seed", str(seed)]
        with measure(), contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = main(argv)
            end = time.perf_counter()
        return _check_matrix(out, code, [start, end], inputs)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _check_matrix(out: Path, code: int, marks: list[float], inputs: dict) -> Rep:
    runs, cells = inputs["runs"], inputs["cells"]
    ops = cells * runs
    if code != 0:
        return Rep(ops, marks, [], "", [f"rlansatz matrix exited with {code}"], ops_per_sample=ops)
    lines = (out / "matrix.csv").read_text().splitlines()
    failures = [] if len(lines) == 1 + cells else [f"matrix.csv has {len(lines) - 1} rows, expected {cells}"]
    ratios, estimates = [], []
    for line in lines[1:]:
        kind, topology, n, algorithm = line.split(",")[:4]
        doc = json.loads((out / f"{kind}_{topology}_{n}_{algorithm}" / "report.json").read_text())
        if len(doc["per_run_ratios"]) != runs:
            failures.append(f"{kind}/{algorithm}: {len(doc['per_run_ratios'])} runs, expected {runs}")
        ratios += doc["per_run_ratios"]
        estimates.append(doc["per_run_estimates"])
    failures += _ratio_failures(ratios, "run")
    return Rep(ops, marks, ratios, fingerprint(estimates), failures, ops_per_sample=ops)


_QSIM_VIA_OPTIMIZE = (
    "rlansatz.optimize.sample_shots",
    "rlansatz.optimize.estimate_expectation",
    "rlansatz.qsim.exact_probabilities",
    "rlansatz.qsim.sample_from_probabilities",
)
_PROTOCOL = (
    "rlansatz.metrics.optimize_circuit",
    "rlansatz.metrics.sample_shots",
    "rlansatz.metrics.estimate_expectation",
    "rlansatz.metrics.approximation_ratio",
    "rlansatz.metrics.transpiled_counts",
) + _QSIM_VIA_OPTIMIZE

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train_cycle6",
            "env step",
            _train_setup,
            _train_rep,
            (
                "rlansatz.make_instance",
                "rlansatz.agent.train",
                "rlansatz.agent.training.sample_action",
                "rlansatz.agent.training.ppo_update",
                "rlansatz.agent.env.CircuitBuildEnv.reset",
                "rlansatz.agent.env.CircuitBuildEnv.step",
                "rlansatz.agent.env.optimize_circuit",
                "rlansatz.agent.env.sample_shots",
                "rlansatz.agent.env.estimate_expectation",
                "rlansatz.agent.env.circuit_depth_basis",
                "rlansatz.agent.env.h_layer",
                "rlansatz.circuits.ActionSpace.apply",
            )
            + _QSIM_VIA_OPTIMIZE,
        ),
        Workload(
            "baseline_qaoa2_n14",
            "protocol run",
            _baseline_setup,
            _baseline_rep,
            ("rlansatz.make_instance", "rlansatz.evaluate_circuit") + _PROTOCOL,
        ),
        Workload(
            "matrix_n8",
            "protocol run",
            _matrix_setup,
            _matrix_rep,
            ("rlansatz.cli.main", "rlansatz.cli.make_instance", "rlansatz.cli.evaluate_circuit") + _PROTOCOL,
        ),
    )
}
