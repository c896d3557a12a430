"""Span recorder for the traced run, built from the benchmark's own files.

Each layer of the package is one module. The recorder wraps the public
functions of each layer at every module binding that refers to them
(``from .qsim import sample_shots`` copies the function into ``optimize``,
``agent.env``, ``metrics`` and ``cli``, so wrapping ``rlansatz.qsim`` alone
would miss those calls). Nothing under ``src/`` is edited: the wrappers are
installed by attribute assignment in this process only.

A span is (name, layer, parent span, op id, start, end). Spans are kept in
memory and written out at the end, with their stamps mapped to reference
seconds (see ``hostclock.py``). A span's self time is its duration minus
the durations of its direct children; a layer's time is the sum of the self
times of its spans, so the layer shares and ``trace.unattributed_share`` add
up to 1.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# layer -> (defining module, attribute) of each wrapped public function.
LAYER_FUNCTIONS: dict[str, tuple[tuple[str, str], ...]] = {
    "qsim": (
        ("rlansatz.qsim", "sample_shots"),
        ("rlansatz.qsim", "sample_from_probabilities"),
        ("rlansatz.qsim", "estimate_expectation"),
        ("rlansatz.qsim", "exact_probabilities"),
        ("rlansatz.qsim", "exact_expectation"),
    ),
    "optimize": (("rlansatz.optimize", "optimize_circuit"),),
    "agent": (
        ("rlansatz.agent.training", "train"),
        ("rlansatz.agent.ppo", "sample_action"),
        ("rlansatz.agent.ppo", "ppo_update"),
        ("rlansatz.agent.env", "CircuitBuildEnv.step"),
        ("rlansatz.agent.env", "CircuitBuildEnv.reset"),
    ),
    "circuits": (
        ("rlansatz.circuits", "circuit_depth_basis"),
        ("rlansatz.circuits", "transpiled_counts"),
        ("rlansatz.circuits", "h_layer"),
        ("rlansatz.circuits", "ActionSpace.apply"),
    ),
    "problems": (("rlansatz.problems", "make_instance"),),
    "metrics": (
        ("rlansatz.metrics", "evaluate_circuit"),
        ("rlansatz.metrics", "approximation_ratio"),
    ),
    "cli": (("rlansatz.cli", "main"),),
}
LAYERS = tuple(LAYER_FUNCTIONS)

# Modules searched for bindings of the wrapped functions.
PACKAGE_MODULES = (
    "rlansatz",
    "rlansatz.qsim",
    "rlansatz.optimize",
    "rlansatz.circuits",
    "rlansatz.ansatz",
    "rlansatz.problems",
    "rlansatz.metrics",
    "rlansatz.config",
    "rlansatz.cli",
    "rlansatz.agent",
    "rlansatz.agent.env",
    "rlansatz.agent.ppo",
    "rlansatz.agent.training",
)

# qsim functions that simulate the circuit passed as their first argument.
_SIMULATING = frozenset({"sample_shots", "exact_probabilities", "exact_expectation"})
# A new op starts at these spans unless one is already open:
# an env step in training, a protocol run's optimization elsewhere.
_OP_STARTS = frozenset({"CircuitBuildEnv.step", "optimize_circuit"})

_NAME, _LAYER, _PARENT, _OP, _START, _END, _EXTRA = range(7)


class Tracer:
    """Wraps the layer functions and records spans while recording is on."""

    def __init__(self):
        self.spans: list[list] = []
        self.binding_calls: dict[str, int] = {}
        self.on = False
        self._stack: list[int] = []
        self._op = -1
        self._op_depth = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in PACKAGE_MODULES]
        for layer, targets in LAYER_FUNCTIONS.items():
            for module_name, attr in targets:
                owner_name, _, fn_name = attr.rpartition(".")
                if owner_name:  # a method: its one binding is the class
                    cls = getattr(sys.modules[module_name], owner_name)
                    self._bind(cls, f"{module_name}.{attr}", fn_name, cls.__dict__[fn_name], layer, attr)
                    continue
                fn = getattr(sys.modules[module_name], fn_name)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is fn:
                            self._bind(module, f"{module.__name__}.{name}", name, fn, layer, fn_name)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _bind(self, owner, binding: str, name: str, fn, layer: str, span_name: str) -> None:
        self.binding_calls[binding] = 0
        self._restore.append((owner, name, fn))
        setattr(owner, name, self._wrap(fn, layer, span_name, binding))

    def _wrap(self, fn, layer: str, span_name: str, binding: str):
        rec = self
        starts_op = span_name in _OP_STARTS
        simulating = span_name in _SIMULATING

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.on:
                return fn(*args, **kwargs)
            rec.binding_calls[binding] += 1
            if starts_op:
                if rec._op_depth == 0:
                    rec._op += 1
                rec._op_depth += 1
            parent = rec._stack[-1] if rec._stack else -1
            span = [span_name, layer, parent, rec._op, 0.0, 0.0, None]
            if simulating:
                circuit = args[0] if args else kwargs["circuit"]
                span[_EXTRA] = (len(circuit.gates), circuit.n_qubits)
            rec._stack.append(len(rec.spans))
            rec.spans.append(span)
            span[_START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = time.perf_counter()
                rec._stack.pop()
                if starts_op:
                    rec._op_depth -= 1
            if span_name == "optimize_circuit":
                span[_EXTRA] = (result.evaluations, bool(result.converged))
            elif span_name == "ppo_update":
                span[_EXTRA] = int(result["pi_steps"])
            return result

        return wrapper

    @contextmanager
    def recording(self):
        self.on = True
        try:
            yield
        finally:
            self.on = False

    # -- analysis -----------------------------------------------------------

    def zero_bindings(self, expected: tuple[str, ...]) -> list[str]:
        """Expected bindings that recorded no call (or no longer exist)."""
        return [b for b in expected if self.binding_calls.get(b, 0) == 0]

    def layer_metrics(self, wall_s: float, untraced_s: float, traced_s: float) -> tuple[dict, dict]:
        """Per-layer metrics plus a detail table of workload-specific figures.

        ``wall_s`` is the whole traced window; ``traced_s``/``untraced_s``
        time the same work with and without recording, for the overhead.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[_PARENT] >= 0:
                child[s[_PARENT]] += s[_END] - s[_START]
        self_s = [s[_END] - s[_START] - c for s, c in zip(spans, child)]
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for s, t in zip(spans, self_s):
            layer_self[s[_LAYER]] += t
        roots = sum(s[_END] - s[_START] for s in spans if s[_PARENT] < 0)

        def durations(name, scale):
            return [(s[_END] - s[_START]) * scale for s in spans if s[_NAME] == name]

        def p50(values):
            return statistics.median(values) if values else 0.0

        entering_qsim = [
            s for s in spans if s[_LAYER] == "qsim" and (s[_PARENT] < 0 or spans[s[_PARENT]][_LAYER] != "qsim")
        ]
        gates = sum(s[_EXTRA][0] for s in entering_qsim if s[_NAME] in _SIMULATING)
        amp_bytes = sum(s[_EXTRA][0] * (1 << s[_EXTRA][1]) * 32 for s in entering_qsim if s[_NAME] in _SIMULATING)
        simulate_s = sum(
            t
            for s, t in zip(spans, self_s)
            if s[_LAYER] == "qsim" and s[_NAME] not in ("sample_from_probabilities", "estimate_expectation")
        )
        opt = [s for s in spans if s[_NAME] == "optimize_circuit"]
        evals = sum(s[_EXTRA][0] for s in opt)
        steps = [(s[_END] - s[_START] - c) * 1e3 for s, c in zip(spans, child) if s[_NAME] == "CircuitBuildEnv.step"]

        def share(layer):
            return layer_self[layer] / wall_s

        metrics = {
            "qsim.calls": (len(entering_qsim), "count"),
            "qsim.gates_applied": (gates, "count"),
            "qsim.bytes_computed": (amp_bytes, "B"),
            "qsim.us_per_gate": (simulate_s * 1e6 / gates if gates else 0.0, "us"),
            "qsim.sample_us_p50": (p50(durations("sample_from_probabilities", 1e6)), "us"),
            "qsim.share": (share("qsim"), "frac"),
            "optimize.calls": (len(opt), "count"),
            "optimize.evals": (evals, "count"),
            "optimize.evals_per_call": (evals / len(opt) if opt else 0.0, "count"),
            "optimize.self_us_per_eval": (layer_self["optimize"] * 1e6 / evals if evals else 0.0, "us"),
            "optimize.converged_frac": (sum(s[_EXTRA][1] for s in opt) / len(opt) if opt else 0.0, "frac"),
            "optimize.share": (share("optimize"), "frac"),
            "agent.share": (share("agent"), "frac"),
            "circuits.share": (share("circuits"), "frac"),
            "problems.make_instance_ms": (p50(durations("make_instance", 1e3)), "ms"),
            "problems.share": (share("problems"), "frac"),
            "metrics.self_share": (share("metrics"), "frac"),
            "cli.self_share": (share("cli"), "frac"),
            "trace.unattributed_share": ((wall_s - roots) / wall_s, "frac"),
            "trace.overhead_frac": (traced_s / untraced_s - 1.0, "frac"),
        }
        # Figures that exist on only some workloads: reported, not gated.
        detail = {
            "agent.step_self_ms_p50": p50(steps),
            "agent.sample_action_us_p50": p50(durations("sample_action", 1e6)),
            "agent.ppo_update_ms_p50": p50(durations("ppo_update", 1e3)),
            "agent.ppo_update_share": sum(durations("ppo_update", 1.0)) / wall_s,
            "agent.pi_steps": sum(s[_EXTRA] for s in spans if s[_NAME] == "ppo_update"),
            "circuits.depth_us_p50": p50(durations("circuit_depth_basis", 1e6)),
            "circuits.transpile_us_p50": p50(durations("transpiled_counts", 1e6)),
            "layer_self_s": layer_self,
            "wall_s": wall_s,
            "spans": len(spans),
            "ops": self._op + 1,
            "binding_calls": {k: v for k, v in sorted(self.binding_calls.items()) if v},
        }
        return metrics, detail

    def rescale(self, to_ref) -> None:
        """Map every span's wall stamps through ``to_ref`` (see ``hostclock.py``)."""
        for s in self.spans:
            s[_START], s[_END] = to_ref(s[_START]), to_ref(s[_END])

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": s[_NAME], "layer": s[_LAYER], "parent": s[_PARENT], "op": s[_OP],
                         "start": s[_START], "end": s[_END]}
                    )
                    + "\n"
                )
