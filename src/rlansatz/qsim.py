"""Dense statevector simulation, shot sampling and expectation estimation.

States, shot samples and Hamiltonians are plain NumPy arrays. A state is
a length-2^n complex128 amplitude vector in little-endian basis order
(qubit i lives at bit i of the index), a shot sample the int64 vector of
per-outcome counts, and a diagonal Hamiltonian its float64 energy vector.
Each gate is applied in place by a kernel specialised to its family, working on a reshaped view of the vector in which the gate's qubits
own axes of length 2:
``(2^(n-q-1), 2, 2^q)`` for one qubit, ``(..., 2, ..., 2, ...)`` for two. No
gate operator is ever built. A Pauli rotation ``exp(-i theta/2 P)`` equals
``cos(theta/2) psi - i sin(theta/2) (P psi)``. ``_ROTATIONS`` describes
each P once (see ``_rotation``), and the kernels apply it through views:

* Rz and Rzz are diagonal: scale the vector by ``e^{-i theta/2}``, then
  the negated (odd-parity) half or quarters by ``e^{i theta}``.
* Every other rotation reads ``-i sin(theta/2) phase psi`` through the
  reversing index, negates the negated blocks, and adds that to
  ``cos(theta/2) psi`` in one operation.
* H replaces the two halves by their scaled sum and difference; Cx swaps
  the target halves within the control-1 half.

A circuit that opens with one H on each of qubits 0 .. n-1
(``circuits.opens_with_h_layer``) starts from the uniform state instead of
applying those gates.

An optimization runs one gate list dozens of times with new angles, so up
to ``PLAN_MAX_QUBITS`` qubits ``run_circuit`` compiles the list into a plan
(``_Plan``) once and reruns it; only the last plan is kept. Above that size
the gathers cost more than the kernels, which then run every time and
leave the kept plan as it is. Each fact of that choice is read in one
place: ``_plan_for`` alone compares with ``PLAN_MAX_QUBITS``, the plan's
``half`` alone decides half mode (below), and ``draws_flip_classes`` adds
only its own size rule to ``half``.

The plan tabulates each rotation's record over the 2^n basis states and
runs the kernels' arithmetic, in the same order, as gathers over the whole
vector, which gives the kernels' bits. At every n it also fuses each run
of Rz and Rzz gates on all n qubits (a QAOA cost layer) into one phase
table and each run of Rx gates on all n qubits (a mixer layer) into a few
real block products, and from ``2^CDF_MIN_QUBITS`` outcomes on every run
of two or more Rz and Rzz gates (see ``_Plan``). A fused step's amplitudes
agree with the kernels' to float rounding (within 1e-12 in the tests).
Below that size the multinomial draw turns a last-bit change into other
shots, so runs that miss a qubit, as the agent's do, keep the kernels'
bits; the four n = 8 benchmark matrix cells still draw the kernels' shots,
as a test checks draw for draw. The inverse-CDF draw moves only when a
shot lands within that rounding of a running-sum boundary.

From ``2^CDF_MIN_QUBITS`` outcomes on, too, a circuit that opens with the H
layer and has only rotations with an even count of y and z factors after
it (Rx, Rxx, Ryy, Rzz, Ryz and Rzy: MaxCut's QAOA family and the paper's
Ryz chain) commutes with the global bit flip X^n, so its state keeps
``psi(b) = psi(~b)``. The plan runs such a circuit in half mode, on the
first 2^(n-1) amplitudes only, those with qubit n-1 at 0; its per-gate
steps still give the kernels' bits. ``run_circuit`` appends the half's
mirror image, and ``exact_probabilities`` squares the half and mirrors the
real probabilities. Asked for ``folded`` probabilities, it doubles them
instead into those of the 2^(n-1) bit-flip classes {b, ~b}, over which
``optimize_circuit`` draws its shots from ``2^CDF_MIN_QUBITS`` classes on
when the energy is flip-symmetric too.

Shots are drawn from the exact probabilities: by numpy's multinomial below
``2^CDF_MIN_QUBITS`` outcomes, and from there on by inverse CDF (sorted
uniforms located in the running sum), which costs far less than a
multinomial that walks all 2^n outcomes; see ``sample_from_probabilities``.

Randomness enters only through an explicit seed per draw: an integer, or
a Generator from ``seeding.seed_stream``, already in the state its
evaluation's seed gives.
"""

from __future__ import annotations

import math
import operator
from itertools import groupby, product

import numpy as np

from .circuits import MAX_QUBITS, PARAMETRIC_KINDS, Circuit, GateApplication, GateKind, rotation_axes
from .circuits import check_qubits, opens_with_h_layer
from .errors import ConfigurationError

_SQRT_HALF = 1.0 / math.sqrt(2.0)
_ALL = slice(None)

# How sigma_a acts on one qubit: (sigma_a psi)[b] = phase * sign^b * psi[b ^ flip].
_PAULI_ACTION = {"x": (1.0, 1, True), "y": (-1.0j, -1, True), "z": (1.0, -1, False)}


def _block(bits: tuple) -> tuple:
    """Index of a gate view whose axes 1 (and 3) take ``bits[0]`` (and ``bits[1]``)."""
    return (_ALL, bits[0]) if len(bits) == 1 else (_ALL, bits[0], _ALL, bits[1])


def _rotation(axes: str) -> tuple[complex, bool, tuple, list[tuple], bool]:
    """The generator P of a rotation, described once for the kernels and the plan.

    P's phase, whether P is diagonal (pure z), the gate-view index ``flips``
    that reverses the axes of P's x and y qubits, and the blocks that P's y
    and z factors negate: P psi = phase * psi[flips], negated blocks negated.
    Last, whether P has an even count of y and z factors, so that it
    commutes with the global bit flip X^n and keeps psi(b) = psi(~b).
    """
    actions = [_PAULI_ACTION[a] for a in axes]
    phase = math.prod(phase for phase, _, _ in actions)
    diagonal = not any(flip for _, _, flip in actions)
    flips = _block(tuple(slice(None, None, -1) if flip else _ALL for _, _, flip in actions))
    negated = [
        _block(bits)
        for bits in product((0, 1), repeat=len(axes))
        if math.prod(sign**b for b, (_, sign, _) in zip(bits, actions)) < 0
    ]
    flip_even = sum(sign < 0 for _, sign, _ in actions) % 2 == 0
    return phase, diagonal, flips, negated, flip_even


_ROTATIONS = {kind: _rotation(rotation_axes(kind)) for kind in PARAMETRIC_KINDS}


def _gate_view(psi: np.ndarray, n: int, qubits: tuple[int, ...]) -> np.ndarray:
    """View of ``psi`` whose axes 1 (and 3) index the bits of qubits[0] (and qubits[1])."""
    if len(qubits) == 1:
        q = qubits[0]
        return psi.reshape(1 << (n - q - 1), 2, 1 << q)
    u, v = qubits
    lo, hi = (u, v) if u < v else (v, u)
    view = psi.reshape(1 << (n - hi - 1), 2, 1 << (hi - lo - 1), 2, 1 << lo)
    return view if u > v else view.swapaxes(1, 3)


def _block_op(ufunc, a, b, out: np.ndarray) -> None:
    """``ufunc(a, b, out=out)`` on gate views or their halves or quarters.

    When the lowest gate qubit is qubit 1, a view is made of runs of two
    contiguous amplitudes, and NumPy's default loop order would run one
    inner loop per pair. Looping over the view's longest axis innermost
    is several times faster there.
    """
    if out.shape[-1] != 2:
        ufunc(a, b, out=out)
        return
    axis = max(range(out.ndim), key=out.shape.__getitem__)
    a, out = a.swapaxes(axis, -1), out.swapaxes(axis, -1)
    if isinstance(b, np.ndarray):
        b = b.swapaxes(axis, -1)
    ufunc(a, b, out=out, order="C")


def _apply(psi: np.ndarray, n: int, kind: GateKind, qubits: tuple[int, ...], angle: float | None) -> None:
    """Apply one gate to the contiguous state vector ``psi`` in place."""
    view = _gate_view(psi, n, qubits)
    if kind is GateKind.H:
        scaled = _gate_view(psi * _SQRT_HALF, n, qubits)
        _block_op(np.add, scaled[:, 0], scaled[:, 1], view[:, 0])
        _block_op(np.subtract, scaled[:, 0], scaled[:, 1], view[:, 1])
        return
    if kind is GateKind.CX:
        on = view[:, 1]  # control reads 1: swap the target halves
        target_zero = on[:, :, 0].copy()
        on[:, :, 0] = on[:, :, 1]
        on[:, :, 1] = target_zero
        return
    half = 0.5 * angle
    phase, diagonal, flips, negated, _ = _ROTATIONS[kind]
    if diagonal:
        psi *= complex(math.cos(half), -math.sin(half))
        odd = complex(math.cos(angle), math.sin(angle))
        for block in negated:
            _block_op(np.multiply, view[block], odd, view[block])
        return
    partner = _gate_view(psi * (-1.0j * math.sin(half) * phase), n, qubits)[flips]
    psi *= math.cos(half)
    for block in negated:
        np.negative(partner[block], out=partner[block])
    _block_op(np.add, view, partner, view)


def apply_gate(amplitudes: np.ndarray, gate: GateApplication, params: np.ndarray | None = None) -> None:
    """Apply one gate to the state ``amplitudes`` in place.

    ``amplitudes`` must be one C-contiguous complex128 vector of length 2^n
    (n >= 1): the kernels write through reshaped views, and reshaping any
    other array would write to a copy without error. Parametric gates
    resolve their angle from ``params`` unless they carry a fixed angle.
    Qubit indices must be distinct and below n.
    """
    n = amplitudes.size.bit_length() - 1
    if not (
        n >= 1
        and amplitudes.shape == (1 << n,)
        and amplitudes.dtype == np.complex128
        and amplitudes.flags.c_contiguous
    ):
        raise ConfigurationError(
            "apply_gate needs one C-contiguous complex128 vector of length 2^n, "
            f"got {amplitudes.dtype} of shape {amplitudes.shape}"
        )
    check_qubits((gate,), n)
    _apply(amplitudes, n, gate.kind, gate.qubits, gate.resolved_angle(params))


def _start_state(n: int, uniform: bool) -> np.ndarray:
    """|0...0>, or the uniform state that an opening H layer makes of it."""
    if uniform:
        return np.full(1 << n, 1.0 / math.sqrt(1 << n), dtype=complex)
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    return psi


def _run_kernels(n: int, gates: list[GateApplication], theta: np.ndarray) -> np.ndarray:
    """The final state from |0...0>, one view kernel per gate."""
    uniform = opens_with_h_layer(gates, n)
    body = gates[n:] if uniform else gates
    check_qubits(body, n)
    psi = _start_state(n, uniform)
    for gate in body:
        _apply(psi, n, gate.kind, gate.qubits, gate.resolved_angle(theta))
    return psi


class _Plan:
    """A gate list compiled for runs that change only the angles.

    Per rotation after the opening H layer it tabulates the rotation's
    ``_ROTATIONS`` record through gate views of 2^n-entry arrays: a sign
    vector, -1 in the negated blocks, and a partner index, ``arange(2^n)``
    read through ``flips``. A run does ``_apply``'s arithmetic, in the same
    order, on the whole vector: a diagonal gate scales ``psi[odd]``, the
    indices where the sign is -1; any other adds ``sign * partner[index]``
    (no sign when no block is negated). H and Cx after the opening layer,
    and a lone diagonal gate on all n qubits (see ``_gate_step``), keep
    their kernels. That gives the kernels' bits.

    Runs of gates fuse by what they touch. Each maximal run of consecutive
    Rx gates that touches all n qubits is one ``_RxLayer``, and each maximal
    run of two or more consecutive Rz and Rzz gates that touches all n
    qubits one ``_DiagonalRun``, at every n; from ``2^CDF_MIN_QUBITS``
    outcomes on, where shots are drawn by inverse CDF, so is every run of
    two or more Rz and Rzz gates. A fused step agrees with the kernels only
    to float rounding, so below that size, where the multinomial turns
    last-bit changes into other draws, the runs that miss a qubit (what the
    agent builds) keep the kernels' bits. A lone Rz or Rzz keeps its own
    table, which costs less to build and as much to run, and so does each
    gate of a run that does not fold. An ``_RxLayer`` acts on phi = D psi
    (``_frame``), and every diagonal step commutes with D, so the vector
    stays in that frame from an Rx layer up to the next step that reads psi,
    a non-diagonal gate's table or kernel, and to the end of ``state``;
    there a step multiplies it by the conjugate of D, and before the next Rx
    layer by D again. When no non-diagonal step comes before the first Rx
    layer, the start vector holds D instead (``_enter_frame``).

    ``half`` is the package's one half-mode decision: true from
    ``2^CDF_MIN_QUBITS`` outcomes on when the plan starts from the uniform
    state (the gates open with the H layer) and every gate after it is a
    rotation whose ``_ROTATIONS`` record is flip-even (an even count of y
    and z factors). From the uniform state such gates keep ``psi(b) =
    psi(~b)``, so every step acts on ``psi[:2^(n-1)]`` alone and reads
    amplitude b >= 2^(n-1) as ``psi[2^n - 1 - b]``. The tables cover the
    first half, with each partner index past it mapped to its complement; a
    ``_DiagonalRun`` keeps the first half of its index; an ``_RxLayer``
    applies its blocks to qubits 0 .. n-2 and qubit n-1's Rx through the
    reversed vector, and D acts on qubits 0 .. n-2 only. ``state`` returns
    that half, and ``run`` it followed by ``psi[::-1]``;
    ``exact_probabilities`` squares the half before it mirrors or doubles
    it. Half mode does each per-gate step's arithmetic on the same
    amplitudes as the full plan, so it keeps their bits, and needs no kernel
    step: H and Cx rule it out, and no diagonal gate acts on all n qubits.

    A step is ``(gate, table, sign, phase)`` for a tabulated rotation, or
    ``(apply, None, None, None)`` for a kernel, a fused run or a change of
    frame, which the run calls as ``psi = apply(psi, theta)``: a kernel, a
    diagonal run or a change of frame returns the vector it changed in
    place, an Rx layer a new one.
    """

    def __init__(self, n: int, gates: list[GateApplication]):
        self.n = n
        self.gates = tuple(gates)
        uniform = opens_with_h_layer(gates, n)
        body = gates[n:] if uniform else gates
        check_qubits(body, n)
        cdf = n >= CDF_MIN_QUBITS
        self.half = half = cdf and uniform and all(g.kind in _FLIP_EVEN_KINDS for g in body)
        self.start = _start_state(n, uniform)
        if half:
            self.start = self.start[: 1 << (n - 1)].copy()
        tables: dict[tuple, tuple] = {}  # repeated gates and runs share them
        self.steps = []
        for step, group in groupby(body, key=lambda g: _FOLDS_OF_KINDS.get(g.kind)):
            group = list(group)
            # one diagonal gate has nothing to fold, and its table is cheaper; an
            # Rx run that misses a qubit is no tensor product over all n; and
            # below 2^CDF_MIN_QUBITS outcomes, where last-bit changes move the
            # multinomial's draws, a diagonal run folds only on every qubit
            if (
                step is not None
                and (step is _RxLayer or len(group) > 1)
                and ((cdf and step is _DiagonalRun) or len({q for g in group for q in g.qubits}) == n)
            ):
                self.steps.append((step(n, group, tables, half), None, None, None))
                continue
            for gate in group:
                self.steps.append(_gate_step(n, gate, tables, half))
        if any(isinstance(op, _RxLayer) for op, *_ in self.steps):
            self._enter_frame()

    def _enter_frame(self) -> None:
        """Run the Rx layers on phi = D psi (see ``_RxLayer``), changing frames only where needed.

        D is a unit-phase diagonal, so it commutes with every diagonal step
        and multiplying by it is exact. The frame is entered before an Rx
        layer, in the start vector when no non-diagonal step comes first, and
        left before a non-diagonal step other than an Rx layer and at the end.
        """
        into = _frame(self.start.size)
        out_of = into.conj()
        steps, framed, at_start = [], False, True
        for step in self.steps:
            op, table, _, phase = step
            if isinstance(op, _RxLayer):
                if not framed and at_start:
                    self.start *= into
                elif not framed:
                    steps.append(_scaling(into))
                framed = True
            elif not (isinstance(op, _DiagonalRun) or (table is not None and phase is None)):
                if framed:
                    steps.append(_scaling(out_of))
                framed = at_start = False
            steps.append(step)
        if framed:
            steps.append(_scaling(out_of))
        self.steps = steps

    def matches(self, n: int, gates: list[GateApplication]) -> bool:
        """True for the same gate objects; gates are frozen, so they have the same structure."""
        return n == self.n and len(gates) == len(self.gates) and all(map(operator.is_, gates, self.gates))

    def run(self, theta: np.ndarray) -> np.ndarray:
        """The final state from |0...0> with the parameter vector ``theta``."""
        psi = self.state(theta)
        return np.concatenate((psi, psi[::-1])) if self.half else psi

    def state(self, theta: np.ndarray) -> np.ndarray:
        """``run``'s state, in half mode only its first 2^(n-1) amplitudes."""
        psi = self.start.copy()
        values = theta.tolist()
        for gate, table, sign, phase in self.steps:
            if table is None:  # here ``gate`` is a kernel's or a fused run's callable
                psi = gate(psi, theta)
                continue
            angle = gate.angle
            if angle is None:
                angle = gate.coeff * values[gate.param_index]
            half = 0.5 * angle
            if phase is None:
                psi *= complex(math.cos(half), -math.sin(half))
                psi[table] *= complex(math.cos(angle), math.sin(angle))
                continue
            partner = psi * (-1.0j * math.sin(half) * phase)
            psi *= math.cos(half)
            partner = partner[table]
            if sign is not None:
                partner *= sign
            psi += partner
        return psi


def _frame(size: int) -> np.ndarray:
    """D = diag(1, -i) on every qubit of a vector of ``size`` amplitudes: D[b] = (-i)^popcount(b)."""
    return np.array([1.0, -1.0j, -1.0, 1.0j])[np.bitwise_count(np.arange(size)) & 3]


def _scaling(table: np.ndarray) -> tuple:
    """The plan step that multiplies the vector by ``table``."""

    def scale(psi: np.ndarray, theta: np.ndarray) -> np.ndarray:
        psi *= table
        return psi

    return scale, None, None, None


_DIAGONAL_KINDS = frozenset(kind for kind, (_, diagonal, *_) in _ROTATIONS.items() if diagonal)
_FLIP_EVEN_KINDS = frozenset(kind for kind, (*_, flip_even) in _ROTATIONS.items() if flip_even)


def _sign_vector(n: int, qubits: tuple[int, ...], negated: list[tuple]) -> np.ndarray:
    """+1 per basis state, -1 in the negated blocks of the gate view on ``qubits``."""
    sign = np.ones(1 << n)
    for block in negated:
        _gate_view(sign, n, qubits)[block] = -1.0
    return sign


def _gate_step(n: int, gate: GateApplication, tables: dict, half: bool) -> tuple:
    """The plan step of one gate: its kernel, or its rotation's tables (see ``_Plan``).

    With ``half``, the tables cover the first 2^(n-1) amplitudes, and a
    partner b >= 2^(n-1) reads amplitude 2^n - 1 - b instead.
    """
    phase, diagonal, flips, negated, _ = _ROTATIONS.get(gate.kind, (None, False, None, None, False))
    # H and Cx keep their kernels, and so does a diagonal gate on all n
    # qubits, for the same bits: its kernel multiplies blocks of one
    # amplitude, which numpy does without the fused multiply-add it
    # uses on longer arrays.
    if flips is None or (diagonal and len(gate.qubits) == n):
        kind, qubits = gate.kind, gate.qubits

        def kernel(psi: np.ndarray, theta: np.ndarray) -> np.ndarray:
            _apply(psi, n, kind, qubits, gate.resolved_angle(theta))
            return psi

        return kernel, None, None, None
    key = (gate.kind, gate.qubits)
    if key not in tables:
        sign = _sign_vector(n, gate.qubits, negated)
        if half:
            sign = sign[: 1 << (n - 1)].copy()
        if diagonal:
            tables[key] = (np.flatnonzero(sign < 0), None)
        else:
            index = np.arange(1 << n)
            view = _gate_view(index, n, gate.qubits)
            view[...] = view[flips]  # numpy reads an overlapping source from a copy
            if half:
                index = index[: sign.size]
                index = np.where(index < sign.size, index, (1 << n) - 1 - index)
            tables[key] = (index, sign if negated else None)
    return (gate, *tables[key], None if diagonal else phase)


def _parameter_slots(gates: list[GateApplication]) -> tuple[dict[int, int], np.ndarray]:
    """A fused run's parameters numbered in order of first use: the slot of each index, and the indices by slot."""
    slot: dict[int, int] = {}
    for g in gates:
        if g.angle is None:
            slot.setdefault(g.param_index, len(slot))
    return slot, np.array(list(slot), dtype=np.intp)


class _DiagonalRun:
    """A run of consecutive diagonal rotations compiled into one phase table.

    The run multiplies amplitude b by ``exp(-i phase[b])``, where
    ``phase[b]`` sums ``0.5 * angle * sign[b]`` over its gates. Per
    parameter the sum is ``theta[p]`` times a weight vector, the sum of the
    gates' ``0.5 * coeff * sign``; the fixed angles add one constant vector.
    A state's column depends only on its bits on the m qubits the run
    touches, so the columns are tabulated over those 2^m bit patterns, and
    many patterns share a column (on one shared parameter, a cost layer
    takes only as many columns as the cost has levels). The step keeps the
    distinct columns and, per basis state, the index of its column. A short
    run on a few qubits thus costs a few passes over 2^n integers to build,
    not a sort of 2^n columns. A call computes the distinct phases from
    ``theta`` and scales the whole vector by their ``exp`` gathered through
    the index. Runs with the same gates up to the parameter numbering share
    tables.
    """

    __slots__ = ("params", "weights", "fixed", "index")

    def __init__(self, n: int, gates: list[GateApplication], tables: dict, half: bool):
        slot, self.params = _parameter_slots(gates)
        key = tuple(
            (g.kind, g.qubits, None, g.angle) if g.angle is not None
            else (g.kind, g.qubits, slot[g.param_index], g.coeff)
            for g in gates
        )
        if key not in tables:
            touched = sorted({q for g in gates for q in g.qubits})
            local = {q: j for j, q in enumerate(touched)}
            m = len(touched)
            rows = np.zeros((len(slot) + 1, 1 << m))  # the last row takes the fixed angles
            for kind, qubits, row, value in key:
                signs = _sign_vector(m, tuple(local[q] for q in qubits), _ROTATIONS[kind][3])
                rows[-1 if row is None else row] += 0.5 * value * signs
            columns = np.ascontiguousarray(rows.T)
            # one void scalar per column: np.unique sorts those far faster than rows with axis=0
            keys = columns.view(np.dtype((np.void, columns.itemsize * columns.shape[1]))).ravel()
            _, first, index = np.unique(keys, return_index=True, return_inverse=True)
            if m < n:
                states = np.arange(1 << (n - 1 if half else n))
                code = np.zeros_like(states)
                for j, q in enumerate(touched):
                    code |= ((states >> q) & 1) << j
                index = index[code]
            elif half:
                index = index[: 1 << (n - 1)].copy()
            distinct = rows[:, first]
            tables[key] = (np.ascontiguousarray(distinct[:-1]), distinct[-1].copy(), index)
        self.weights, self.fixed, self.index = tables[key]

    def __call__(self, psi: np.ndarray, theta: np.ndarray) -> np.ndarray:
        phases = theta[self.params] @ self.weights
        phases += self.fixed
        psi *= np.exp(-1j * phases)[self.index]
        return psi


# The largest block of qubits an _RxLayer applies as one matrix (the lowest
# block also carries the re/im bit). One Rx layer of the qaoa2 circuit of a
# 3-regular graph took, with blocks of at most 2 / 3 / 4 / 5 / 6 qubits (2
# vCPU, numpy 2.4.6, one BLAS thread, median us over 40 interleaved rounds),
# in half mode on maxcut 46 / 28 / 40 / 76 / 91 at n = 10, 53 / 43 / 55 / 58 /
# 288 at n = 12 and 134 / 105 / 111 / 155 / 161 at n = 14, and on the full
# vector (minimum vertex cover) 32 / 28 / 32 / 72 / 78, 64 / 47 / 60 / 62 / 350
# and 173 / 127 / 132 / 216 / 224. The whole maxcut plan took 72 / 84 us with
# 3 / 4 at n = 10, 110 / 135 at n = 12 and 264 / 282 at n = 14. A second run
# ranked 3 first in every row.
RX_BLOCK_QUBITS = 3


def _rx_blocks(n: int) -> list[int]:
    """Sizes of the fewest blocks of at most RX_BLOCK_QUBITS contiguous qubits that cover n, as even as can be."""
    count = -(-n // RX_BLOCK_QUBITS)
    return [n // count + (i < n % count) for i in range(count)]


class _RxLayer:
    """A run of Rx gates that touches all n qubits, compiled into a few real matrix products.

    Rx gates commute, so the run is the tensor product over the qubits q of
    Rx(a_q), where a_q sums the run's angles on q. Per parameter the half
    angles are ``theta[p]`` times a weight vector over the qubits, the sum
    of the gates' ``0.5 * coeff``; the fixed angles add one constant vector.
    The layer acts on the frame phi = D psi, where D (``_frame``) is S^dagger
    = diag(1, -i) on each qubit its blocks cover: there Rx(a) is the real
    rotation [[cos a/2, sin a/2], [-sin a/2, cos a/2]], so each block is a
    real matrix applied to the float64 view of the amplitudes, whose lowest
    bit tells the real part from the imaginary one. The qubits split into
    blocks of at most ``RX_BLOCK_QUBITS`` contiguous qubits (``_rx_blocks``).
    A block's 2^k x 2^k matrix has at (a, b) the product over its qubits of
    cos(a_q/2) where bits a and b agree, sin(a_q/2) where a has 0 and b 1, and
    -sin(a_q/2) where a has 1 and b 0; the lowest block also takes the
    re/im bit, as its Kronecker product with the 2 x 2 identity. A call
    builds all blocks' entries in one gather and applies each block in
    place of its qubits: the lowest as ``x.reshape(-1, s) @ M.T``, each
    other as ``M @ x.reshape(-1, s, low)``, with ``low`` the size of the
    bits below it. In the plan's half mode the blocks cover qubits
    0 .. n-2, and qubit n-1's Rx, whose partner of amplitude b is amplitude
    2^(n-1) - 1 - b, takes ``phi * cos - i^n sin (-1)^popcount(b)
    phi[::-1]``: the partner's frame phase differs by that factor. The call
    returns the new vector.
    """

    __slots__ = ("params", "weights", "fixed", "index", "blocks", "flip")

    def __init__(self, n: int, gates: list[GateApplication], tables: dict, half: bool):
        slot, self.params = _parameter_slots(gates)
        self.weights = np.zeros((len(slot), n))
        self.fixed = np.zeros(n)
        for g in gates:
            (q,) = g.qubits
            if g.angle is None:
                self.weights[slot[g.param_index], q] += 0.5 * g.coeff
            else:
                self.fixed[q] += 0.5 * g.angle
        key = ("rx layer", n)
        if key not in tables:
            # factor j of entry (a, b) of a block from qubit ``start`` reads the
            # factor vector (cos, sin, -sin, 1, 0) at the block's qubit start + j:
            # cos where bit j of a and b agree, sin where a has 0, -sin where a
            # has 1; past the block's qubits it reads 1, and the lowest block's
            # re/im bit reads 1 where a and b agree and 0 where they differ
            columns, blocks, start, offset = [], [], 0, 0
            for k in _rx_blocks(n - 1 if half else n):
                re_im = int(not blocks)
                a, b = np.divmod(np.arange(1 << 2 * (k + re_im)), 1 << (k + re_im))
                factor = np.full((RX_BLOCK_QUBITS + 1, a.size), 3 * n)
                if re_im:
                    factor[-1] += (a ^ b) & 1
                for j in range(k):
                    bit_a, bit_b = (a >> (j + re_im)) & 1, (b >> (j + re_im)) & 1
                    factor[j] = start + j + n * (bit_a ^ bit_b) * (1 + bit_a)
                columns.append(factor)
                blocks.append((offset, 1 << (k + re_im)))
                start, offset = start + k, offset + a.size
            flip = None
            if half:  # -i^n (-1)^popcount(b)
                flip = -(1j**n) * _frame(1 << (n - 1)) ** 2
            tables[key] = (np.concatenate(columns, axis=1), tuple(blocks), flip)
        self.index, self.blocks, self.flip = tables[key]

    def __call__(self, phi: np.ndarray, theta: np.ndarray) -> np.ndarray:
        half_angles = theta[self.params] @ self.weights
        half_angles += self.fixed
        cos, sin = np.cos(half_angles), np.sin(half_angles)
        entries = np.multiply.reduce(np.concatenate((cos, sin, -sin, (1.0, 0.0)))[self.index], axis=0)
        (offset, size), *rest = self.blocks
        x = phi.view(np.float64).reshape(-1, size) @ entries[offset : offset + size * size].reshape(size, size).T
        low = size
        for offset, size in rest:
            x = np.matmul(entries[offset : offset + size * size].reshape(size, size), x.reshape(-1, size, low))
            low *= size
        phi = x.reshape(-1).view(np.complex128)
        if self.flip is not None:  # qubit n-1, whose 1 half is the 0 half reversed
            flipped = phi[::-1] * self.flip
            flipped *= sin[-1]
            phi *= cos[-1]
            phi += flipped
        return phi


# The fused step a run of gates of a kind may form (see _Plan). A dict lookup
# is the cheapest key: the plan is rebuilt at every env step and groups its
# gates by it.
_FOLDS_OF_KINDS = {**dict.fromkeys(_DIAGONAL_KINDS, _DiagonalRun), GateKind.RX: _RxLayer}

# The crossover, from tools/plan_crossover.py --sizes 10-16 (2 vCPU, numpy
# 2.4.6, median of three runs): for one optimization, a build and 42 runs,
# kernel time over plan time was, on qaoa2 / maqaoa / linear (the Ryz chain)
# / agent circuits, 5.36 / 2.97 / 2.55 / 2.22 at n = 10, 6.52 / 2.15 / 2.48 /
# 1.68 at n = 12, 6.36 / 1.58 / 2.16 / 1.16 at n = 14, - / - / 1.92 / 1.04 at
# n = 15 and 7.64 / 1.70 / 1.91 / 0.95 at n = 16. Past n = 14 the QAOA
# circuits and the chain, whose plans fold layers or run on half the
# amplitudes, would still gain, but agent circuits, mostly rotations that
# fold into nothing and break the bit-flip symmetry, gain nothing over their
# kernels.
PLAN_MAX_QUBITS = 14

# From this many qubits on, shots are drawn by inverse CDF instead of numpy's
# multinomial, which walks all 2^n outcomes (see sample_from_probabilities).
# The crossover, from three runs of tools/sample_crossover.py --sizes 6-14 (2
# vCPU, numpy 2.4.6, 1000 shots, generators set up outside the timed loop):
# multinomial time over inverse-CDF time was 0.44-0.47 at n = 6, 0.55-0.63 at
# n = 7, 0.73-0.84 at n = 8, 1.02-1.12 at n = 9, 1.33-1.55 at n = 10 and
# 3.70-4.57 at n = 14. So the crossover lies between 8 and 9 qubits; the
# constant stays 10, since a lower one would change every draw, and so every
# training trajectory, at n = 9.
CDF_MIN_QUBITS = 10

_last_plan: _Plan | None = None


def _plan_for(n: int, gates: list[GateApplication]) -> _Plan | None:
    """The plan of the gate list, reusing the last one built; only that one is kept.

    The one reader of ``PLAN_MAX_QUBITS``: above it the kernels run, and
    this returns ``None`` and leaves the kept plan as it is.
    """
    global _last_plan
    if n > PLAN_MAX_QUBITS:
        return None
    plan = _last_plan  # read once: another thread may replace it at any point
    if plan is None or not plan.matches(n, gates):
        _last_plan = plan = None  # drop the old tables before building new ones
        plan = _last_plan = _Plan(n, gates)
    return plan


def run_circuit(circuit: Circuit, params: np.ndarray | None = None, mirror: bool = True) -> np.ndarray:
    """Amplitudes of the circuit's final state from |0...0>; ``params`` overrides circuit.params.

    Without ``mirror``, a circuit that the plan runs in half mode (see
    ``_Plan``) gives only its first 2^(n-1) amplitudes, those with qubit
    n-1 at 0; amplitude ~b equals amplitude b.
    Raises ``ConfigurationError`` when ``params`` is not of shape ``(circuit.n_params,)``.
    """
    if params is None:
        theta = circuit.params
    else:
        theta = np.asarray(params, dtype=float)
        if theta.shape != circuit.params.shape:
            raise ConfigurationError(f"params of shape {theta.shape} for a circuit of {circuit.n_params} parameters")
    n = circuit.n_qubits
    if not (1 <= n <= MAX_QUBITS):
        raise ConfigurationError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n}")
    plan = _plan_for(n, circuit.gates)
    if plan is None:
        return _run_kernels(n, circuit.gates, theta)
    return plan.run(theta) if mirror else plan.state(theta)


def draws_flip_classes(circuit: Circuit) -> bool:
    """True when the plan runs the circuit in half mode on at least ``2^CDF_MIN_QUBITS`` bit-flip classes.

    Its ``folded`` probabilities are then the doubled squares of the plan's
    2^(n-1) amplitudes (see ``_Plan``), and their draw is an inverse-CDF draw.
    From that size on it builds the plan, or finds it kept, so the first run
    of the circuit reuses it.
    """
    n = circuit.n_qubits
    if n - 1 < CDF_MIN_QUBITS:  # its 2^(n-1) classes would take the multinomial draw
        return False
    plan = _plan_for(n, circuit.gates)
    return plan is not None and plan.half


def exact_probabilities(circuit: Circuit, params: np.ndarray | None = None, folded: bool = False) -> np.ndarray:
    """|amplitude|^2 per basis index; sums to 1 up to float error.

    From ``2^CDF_MIN_QUBITS`` outcomes on the vector is contiguous; below
    that it may be the strided real part of the squared amplitudes.

    With ``folded``, the probability of each bit-flip class {b, ~b} instead,
    for b < 2^(n-1): ``p[:h] + p[h:][::-1]`` with h = 2^(n-1). In half mode
    p(b) = p(~b), so that is twice the squared half vector, bit for bit.
    """
    psi = run_circuit(circuit, params, mirror=False)
    p = (psi * psi.conj()).real
    if p.size < 1 << circuit.n_qubits:  # half mode: mirror the real probabilities, not the amplitudes
        return p + p if folded else np.concatenate((p, p[::-1]))
    if folded:
        h = p.size // 2
        return p[:h] + p[h:][::-1]
    # the draw's np.minimum.reduce runs faster on a contiguous copy, copy
    # included, from 2^CDF_MIN_QUBITS outcomes on (11.5 against 17.3 us at
    # 2^14) and slower below (2.6 against 2.1 us at 2^6; timeit, 2 vCPU)
    return p.copy() if p.size >= 1 << CDF_MIN_QUBITS else p


def exact_expectation(circuit: Circuit, energy: np.ndarray, params: np.ndarray | None = None) -> float:
    """Exact <H> of the final state for the diagonal H with this energy vector (test oracle)."""
    if energy.shape != (1 << circuit.n_qubits,):
        raise ConfigurationError(f"{energy.size} energies vs circuit on {circuit.n_qubits} qubits")
    return float(exact_probabilities(circuit, params) @ energy)


def sample_from_probabilities(probs: np.ndarray, n_shots: int, rng_seed: int | np.random.Generator) -> np.ndarray:
    """Counts of ``n_shots`` measurements: ``counts[b]`` is how often outcome b occurred.

    Negative entries (float drift) count as 0. The draw uses the generator
    ``np.random.default_rng(rng_seed)`` returns: numpy's own for an integer
    seed, and a Generator (such as one from ``seeding.seed_stream``)
    unaltered, in the state it is in. It takes one of two forms with the
    same distribution and different bits:

    * Below ``2^CDF_MIN_QUBITS`` outcomes, the generator's ``multinomial``
      of the probabilities divided by their sum.
    * From ``2^CDF_MIN_QUBITS`` outcomes on, an inverse-CDF draw: the
      generator's ``random(n_shots)``, scaled by the last entry of the
      probabilities' ``np.cumsum`` and sorted; each shot is the first
      outcome whose running sum exceeds its value, and the count is a
      ``bincount`` over the 2^n outcomes.

    Raises ``ConfigurationError`` when an entry is not finite or the sum is
    0 or overflows.
    """
    if n_shots < 1:
        raise ConfigurationError(f"n_shots must be >= 1, got {n_shots}")
    # the ufuncs' reductions are what .min() and .sum() run, without their Python wrappers
    lowest = np.minimum.reduce(probs)
    # guard tiny float drift; np.maximum also turns -0.0 into 0.0, so it runs
    # whenever an entry is not positive, for the multinomial's bits
    p = probs if lowest > 0.0 else np.maximum(probs, 0.0)
    if p.size < 1 << CDF_MIN_QUBITS:
        total = np.add.reduce(p)
        _check_sampleable(lowest, total)
        return np.random.default_rng(rng_seed).multinomial(n_shots, p / total)
    cdf = np.cumsum(p)
    _check_sampleable(lowest, cdf[-1])
    return _inverse_cdf_counts(p, cdf, np.random.default_rng(rng_seed).random(n_shots))


def _check_sampleable(lowest: float, total: float) -> None:
    """Raise unless the smallest entry is finite and the clipped entries' sum is positive and finite."""
    if not (lowest > -math.inf and 0.0 < total < math.inf):  # a NaN fails both
        raise ConfigurationError(
            f"cannot sample: probabilities must be finite with a positive, finite sum (sum {total}, min {lowest})"
        )


def _inverse_cdf_counts(p: np.ndarray, cdf: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Counts of the outcomes the uniforms in [0, 1) select from the non-negative ``p`` and its ``np.cumsum``.

    Scales and sorts ``uniforms`` in place.
    """
    uniforms *= cdf[-1]
    uniforms.sort()  # each search then starts where the last one ended
    index = np.searchsorted(cdf, uniforms, side="right")
    if index[-1] == p.size:  # a value at the total; a uniform below 1 keeps it below
        index[index == p.size] = np.flatnonzero(p)[-1]
    return np.bincount(index, minlength=p.size)


def sample_shots(
    circuit: Circuit,
    n_shots: int,
    rng_seed: int | np.random.Generator,
    params: np.ndarray | None = None,
    folded: bool = False,
) -> np.ndarray:
    """Counts of ``n_shots`` measurements of the circuit; deterministic for a fixed seed.

    With ``folded``, counts per bit-flip class (see ``exact_probabilities``).
    """
    return sample_from_probabilities(exact_probabilities(circuit, params, folded), n_shots, rng_seed)


def estimate_expectation(counts: np.ndarray, energy: np.ndarray) -> float:
    """Average energy of the sampled outcomes: sum count(b) * energy(b) / shots.

    Equals the shot estimate of <H> because H is diagonal, so each measured
    basis state contributes exactly its energy.
    """
    if counts.shape != energy.shape:
        raise ConfigurationError(f"{counts.size} outcome counts vs {energy.size} energies")
    return float(counts @ energy / counts.sum())
