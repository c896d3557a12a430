"""Derivative-free parameter optimization of circuits on shot estimates.

The optimizer is COBYLA run without constraints: a linear model through the
n+1 vertices of a simplex, a step to the edge of a trust region along the
model's descent direction, and a resolution ``rho`` that shrinks from
``rho_begin`` to ``rho_end``. The loop is a NumPy port of the unconstrained
case of Zhang's PRIMA reference implementation of Powell's 1994 method
(doi:10.5281/zenodo.8052654), whose Python translation SciPy >= 1.16 runs;
with no constraints the trust-region LP becomes a step of length ``delta``
along -g, and the merit function is the objective. ``cobyla_minimize``
wraps the loop: it enforces the evaluation budget, tracks the best
evaluation ever seen and rejects non-finite objective values.
``OptimizerConfig`` holds its settings.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .circuits import Circuit
from .errors import ConfigurationError, OptimizationError
from .qsim import draws_flip_classes, estimate_expectation, sample_shots
from .seeding import OPT_STREAM, seed_stream


@dataclass
class OptimizerConfig:
    max_iterations: int = 1000  # objective-evaluation budget per optimization
    rho_begin: float = 1.0
    rho_end: float = 1e-4

    def validate(self) -> None:
        if not 1 <= self.max_iterations <= 1 << 32:  # one seed_stream Generator state per evaluation
            raise ConfigurationError(f"max_iterations must be in [1, 2^32], got {self.max_iterations}")
        if not (self.rho_begin > self.rho_end > 0):
            raise ConfigurationError(f"need rho_begin > rho_end > 0, got {self.rho_begin}, {self.rho_end}")


@dataclass(frozen=True)
class OptimizationResult:
    best_params: np.ndarray
    best_value: float
    evaluations: int
    converged: bool


class _BudgetExhausted(Exception):
    pass


class _Recorder:
    """Counts evaluations, tracks the running best, enforces the budget."""

    def __init__(self, objective: Callable[[np.ndarray], float], budget: int):
        self.objective = objective
        self.budget = budget
        self.evaluations = 0
        self.best_params: np.ndarray | None = None
        self.best_value = np.inf

    def __call__(self, x: np.ndarray) -> float:
        if self.evaluations >= self.budget:
            raise _BudgetExhausted
        value = float(self.objective(x))
        if not math.isfinite(value):
            raise OptimizationError(f"non-finite objective value {value!r} at params {x!r}")
        self.evaluations += 1
        if value < self.best_value:
            self.best_value = value
            self.best_params = x.copy()
        return value


def cobyla_minimize(
    objective: Callable[[np.ndarray], float],
    x0: np.ndarray,
    config: OptimizerConfig | None = None,
) -> OptimizationResult:
    """Minimize with COBYLA under a hard objective-evaluation budget.

    Terminates when the resolution ``rho`` has reached ``rho_end`` (then
    ``converged`` is true) or the budget is exhausted; ``best_value`` is the
    minimum over all evaluations, not the last iterate. Deterministic for a
    deterministic objective.
    """
    config = config or OptimizerConfig()
    config.validate()
    x0 = np.array(x0, dtype=float)
    recorder = _Recorder(objective, config.max_iterations)
    if x0.size == 0:
        value = recorder(x0)
        return OptimizationResult(x0, value, 1, True)
    try:
        converged = _cobyla(recorder, x0, config.max_iterations, config.rho_begin, config.rho_end)
    except _BudgetExhausted:
        converged = False
    return OptimizationResult(recorder.best_params, recorder.best_value, recorder.evaluations, converged)


# PRIMA's trust-region settings: ratio thresholds for shrinking and growing
# delta (PRIMA derives eta2 from eta1; it is 0.7000000000000001, and
# reduction ratios of exactly that value occur on shot estimates), the
# shrink and growth factors, and the factor below which delta is reset to
# rho (max(1, min(0.75 * gamma2, 1.5))).
_ETA1 = 0.1
_ETA2 = (_ETA1 + 2) / 3
_GAMMA1, _GAMMA2, _GAMMA3 = 0.5, 2.0, 1.5
_EPS = float(np.finfo(float).eps)
# Without constraints PRIMA's penalty parameter stays at eps, so a step
# counts only if it predicts a decrease above 1e-6 * eps * rho.
_MIN_PREDICTED = 1e-6 * _EPS


def _cobyla(fun: Callable[[np.ndarray], float], x0: np.ndarray, budget: int, rho_begin: float, rho_end: float) -> bool:
    """PRIMA's COBYLA iteration without constraints; true when ``rho`` reached ``rho_end``.

    ``sim[:, n]`` is the best vertex so far (the pole), ``sim[:, j]`` the
    step from it to vertex j, ``fval`` the values in that order and ``simi``
    the inverse of ``sim[:, :n]``. ``delta`` is the trust-region radius and
    ``rho`` the resolution, its lower bound. The arithmetic follows PRIMA's
    Python translation operation by operation, so a deterministic objective
    is evaluated at the same points. ``fun`` raises when ``budget`` runs
    out; PRIMA itself needs at least n + 2 evaluations.

    What the constraints needed is gone: the penalty parameter stays at eps
    and multiplies zero violations, so the merit function is f, and the
    pole is already the best vertex wherever PRIMA re-picks it after
    updating the penalty. The filter and the history only chose the
    returned point, which ``fun`` tracks.

    Products of C-contiguous operands call ``ndarray.dot``, which runs the
    BLAS routine that ``@`` runs (ddot, dgemv) without the matmul ufunc's
    dispatch; products with a strided operand keep ``@``.
    """
    n = x0.size
    maxfun = max(budget, n + 2)
    # initxfc: x0, then a step of rho_begin along each axis from the best point so far
    sim = np.eye(n, n + 1) * rho_begin
    sim[:, n] = x0
    fval = np.empty(n + 1)
    fval[n] = fun(x0)
    for j in range(n):
        x = sim[:, n].copy()
        x[j] += rho_begin
        fval[j] = f = fun(x)
        if f < fval[n]:
            fval[j], fval[n] = fval[n], f
            sim[:, n] = x
            sim[j, : j + 1] = -rho_begin
    simi = np.linalg.inv(sim[:, :n])
    # views that follow the in-place updates of sim and fval
    pole, fsteps = sim[:, n], fval[:n]
    nf = n + 1
    near = 1e-4 * rho_end

    def value_at(d: np.ndarray) -> float:
        """f at the pole plus d, or the value of a vertex within 1e-4 * rho_end of that point.

        Steps are at least 0.1 * rho long, so the pole itself is never that close.
        """
        nonlocal nf
        j = _near_vertex(sim, d, near)
        if j is not None:
            return fval[j]
        nf += 1
        return fun(pole + d)

    rho = delta = rho_begin
    converged = False
    col_sq = None  # _col_sq(sim), kept through updates that keep the pole; None once it moves
    for _ in range(10 * maxfun):
        g = (fsteps - fval[n]).dot(simi)
        d = _trstlp(g, delta)
        dnorm = min(delta, math.sqrt(d.dot(d)))
        shortd = dnorm <= 0.1 * rho
        prerem = -float(d.dot(g))
        trfail = not prerem > _MIN_PREDICTED * rho
        # PRIMA tests the geometry of the simplex as the iteration finds it;
        # the test matters only after a bad step, so it is made only then.
        # A step is bad when it is short or fails, or when ratio <= 0, which
        # also covers setdrop_tr finding no vertex to drop.
        geo_delta, jdrop_tr = delta, None
        if shortd or trfail:
            delta *= 0.1
            if delta <= _GAMMA3 * rho:
                delta = rho
            bad_trstep = True
        else:
            f = value_at(d)
            actrem = float(fval[n]) - f
            ratio = actrem / prerem
            bad_trstep = ratio <= 0
            if bad_trstep and col_sq is None:
                col_sq = _col_sq(sim)
            delta = _trrad(delta, dnorm, ratio)
            if delta <= _GAMMA3 * rho:
                delta = rho
            simid = simi.dot(d)
            jdrop_tr = _setdrop_tr(actrem > 0, d, delta, rho, sim, simid, col_sq)
            if jdrop_tr is not None:
                simi = _updatexfc(jdrop_tr, d, f, sim, simi, fval, simid)
                if simi is None:  # rounding ruined the simplex
                    break
            if nf >= maxfun:
                break
        if not bad_trstep:
            col_sq = None  # f < fval[n], so the new point became the pole
            continue
        if col_sq is None:
            col_sq = _col_sq(sim)
        adequate_geo = max(col_sq) <= 4 * (geo_delta * geo_delta)
        if jdrop_tr is not None:  # vertex jdrop_tr moved to the pole plus d; as f >= fval[n], the pole stayed
            col_sq[jdrop_tr] = _sq_norm(d)
        if not adequate_geo:
            far = max(col_sq)
            if not far <= 4 * (delta * delta):
                # geostep: move the farthest vertex to delta/2 from the pole,
                # normal to the opposite face, on the model's downhill side
                jdrop_geo = col_sq.index(far)
                d = simi[jdrop_geo]
                d = (delta / 2) * (d / math.sqrt(d.dot(d)))
                g = (fsteps - fval[n]).dot(simi)
                dg = d.dot(g)
                if -dg < dg:
                    d = -d
                f, fopt = value_at(d), fval[n]
                simi = _updatexfc(jdrop_geo, d, f, sim, simi, fval, simi.dot(d))
                if simi is None or nf >= maxfun:
                    break
                if f < fopt:  # the pole moved
                    col_sq = None
                else:
                    col_sq[jdrop_geo] = _sq_norm(d)
        elif max(delta, dnorm) <= rho:
            if rho <= rho_end:
                converged = True
                break
            delta = max(0.5 * rho, _redrho(rho, rho_end))
            rho = _redrho(rho, rho_end)
    # PRIMA tries the last step once more when a short one ended the run.
    # Here a step is either zero or delta >= rho long, so a short step is
    # zero and PRIMA skips it.
    return converged


def _near_vertex(sim: np.ndarray, d: np.ndarray, near: float) -> int | None:
    """The first of the vertices closest to x = pole + d, if its squared distance is at most near^2.

    Such a vertex has a gap of at most near (1 + (n + 1) eps) in every
    coordinate, unless the gap's square underflows. So the gaps in the
    coordinate where |d| is largest, taken on Python floats that round as
    the full check's do, rule out every vertex when none is below
    max(2 near, 1e-150); the full check then runs only rarely.
    """
    n = d.size
    mags = list(map(abs, d.tolist()))
    i = mags.index(max(mags))
    row = sim[i].tolist()
    pole_i = row[n]
    x_i = pole_i + d.item(i)
    if min([abs(x_i - (pole_i + s)) for s in row[:n]]) > max(2 * near, 1e-150):
        return None
    x = sim[:, n] + d
    gaps = x[:, None] - (sim[:, n, None] + sim[:, :n])
    distsq = np.add.reduce(gaps * gaps, 0)
    j = int(distsq.argmin())
    return j if distsq[j] <= near * near else None


def _col_sq(sim: np.ndarray) -> list[float]:
    """Squared distance of each vertex from the pole."""
    steps = sim[:, :-1]
    return np.add.reduce(steps * steps, 0).tolist()


def _sq_norm(d: np.ndarray) -> float:
    """``_col_sq``'s entry for a vertex at the pole plus d: numpy sums a column top down."""
    return functools.reduce(operator.add, [v * v for v in d.tolist()])


def _trstlp(g: np.ndarray, delta: float) -> np.ndarray:
    """PRIMA ``trstlp`` without constraints: the step of length ``delta`` along -g.

    PRIMA reaches it through a QR update of the identity by Givens rotations
    (``qradd_Rdiag``); this replays that arithmetic. Rotation k turns
    (g[k], h[k + 1]) into (h[k], 0), where ``h`` holds the running norms
    from the last coordinate up; ``z``, the first column of Q, is built in
    the same order. PRIMA's rescaled rotation for entries beyond 1e+-154 is
    left out.
    """
    cq = g.tolist()
    big = max(map(abs, cq))
    if big > 1e12:
        cq = (g * max(2 * np.finfo(float).tiny, 1 / big)).tolist()
    n = len(cq)
    if n == 1:  # no rotation: z = [1]
        h0 = cq[0]
        if not abs(h0) > _EPS * _EPS:
            return np.zeros(1)
        sdirn = np.array([-1 / h0])
    else:
        sdirn = _rotated_direction(cq, n)
        if sdirn is None:
            return np.zeros(n)
    ss = sdirn.dot(sdirn)
    if ss <= _EPS * delta * delta:
        return np.zeros(n)
    sdirn *= math.sqrt(ss * (delta * delta)) / ss
    return sdirn


def _rotated_direction(cq: list, n: int) -> np.ndarray | None:
    """``trstlp``'s -z / h[0] for n >= 2 coordinates ``cq``, or None when h[0] is about 0."""
    h = cq[:]
    _norm_chain(cq, h, n - 1, math.hypot)
    # pairs[k] is rotation k's input (cq[k], h[k + 1])
    flat = [0.0] * (2 * n - 2)
    flat[::2], flat[1::2] = cq[:-1], h[1:]
    pairs = np.array(flat).reshape(n - 1, 2)
    # math.hypot can differ from NumPy's hypot in the last bit: check the
    # chain in one call, and redo it with np.hypot from the first miss on
    exact = np.hypot(pairs[:, 0], pairs[:, 1]).tolist()
    if exact != h[:-1]:
        miss = next((k for k in range(n - 2, -1, -1) if h[k + 1] != 0 and h[k] != exact[k]), None)
        if miss is not None:
            h[miss] = exact[miss]
            _norm_chain(cq, h, miss, lambda a, b: float(np.hypot(a, b)))
            pairs[:, 1] = h[1:]
    h0 = h[0]
    if not abs(h0) > _EPS * _EPS:
        return None
    # PRIMA's np.linalg.norm of each pair is the square root of the pair's
    # dot product, as here; math.sqrt and np.sqrt both round correctly
    stacked = pairs.reshape(n - 1, 1, 2)
    r = list(map(math.sqrt, (stacked @ stacked.transpose(0, 2, 1)).ravel().tolist()))
    # The norms h fall from h[0] to |cq[-1]|. When every |cq[k]| exceeds
    # 2 eps h[0] and 1e-150, no rotation is degenerate (|h[k + 1]| <= eps |cq[k]|
    # or the reverse) or empty (h[k + 1] == 0), and no r[k] underflows to 0,
    # so each rotation is c = cq[k] / r[k], s = h[k + 1] / r[k], and
    # z[m] = s_0 (s_1 (... (s_{m-1} c_m))) with c_{n-1} = 1 is a product down a
    # column of the factors that _rotation_index(n) lays out.
    if min(map(abs, cq)) > max(2 * _EPS * h0, 1e-150):
        factors = []
        for x0, x1, rk in zip(cq, h[1:], r):
            factors += (x0 / rk, x1 / rk)
        factors += (1.0, -1 / h0)
        return np.multiply.reduce(np.array(factors)[_rotation_index(n)], 0)
    z = [1.0]
    for k in range(n - 2, -1, -1):
        x0, x1 = cq[k], h[k + 1]
        if x1 == 0:  # nothing to rotate
            z = [1.0] + [0.0] * len(z)
            continue
        if abs(x1) <= _EPS * abs(x0):
            c, s = math.copysign(1.0, x0), 0.0
        elif abs(x0) <= _EPS * abs(x1):
            c, s = 0.0, math.copysign(1.0, x1)
        else:
            c, s = x0 / r[k], x1 / r[k]
        z = [c] + [s * zi for zi in z]
    return (-1 / h0) * np.array(z)


@functools.lru_cache(maxsize=None)
def _rotation_index(n: int) -> np.ndarray:
    """Where _trstlp's n-coordinate factors [c_0, s_0, ..., c_{n-2}, s_{n-2}, 1, -1/h0] go.

    Column m reads, top down, c_m (1 for m = n - 1), s_{m-1}, ..., s_0,
    ones, and last -1/h0, so a product down the column, in row order,
    repeats the rotation loop's multiplications for z[m] and then its
    scaling by -1/h0.
    """
    one, scale = 2 * n - 2, 2 * n - 1
    index = np.full((n + 1, n), one)
    index[0] = np.arange(0, 2 * n, 2)
    for t in range(1, n):
        index[t, t:] = 2 * np.arange(n - t) + 1
    index[n] = scale
    index.flags.writeable = False
    return index


def _norm_chain(cq: list, h: list, top: int, hypot) -> None:
    """Set h[k] = hypot(cq[k], h[k + 1]) for k from top - 1 down.

    Where h[k + 1] is zero there is nothing to rotate, and h[k] is cq[k].
    """
    for k in range(top - 1, -1, -1):
        h[k] = hypot(cq[k], h[k + 1]) if h[k + 1] != 0 else cq[k]


def _trrad(delta: float, dnorm: float, ratio: float) -> float:
    """PRIMA ``trrad``: the next trust-region radius after a step of length ``dnorm``."""
    if ratio <= _ETA1:
        return _GAMMA1 * dnorm
    if ratio <= _ETA2:
        return max(_GAMMA1 * delta, dnorm)
    return max(_GAMMA1 * delta, _GAMMA2 * dnorm)


def _redrho(rho: float, rho_end: float) -> float:
    """PRIMA ``redrho``: the next resolution below ``rho``."""
    ratio = rho / rho_end
    if ratio > 250:
        return 0.1 * rho
    if ratio <= 16:
        return rho_end
    return math.sqrt(ratio) * rho_end


def _setdrop_tr(ximproved: bool, d, delta: float, rho: float, sim, simid, col_sq) -> int | None:
    """PRIMA ``setdrop_tr``: the vertex that the trust-region point replaces, or None.

    ``simid`` is ``simi @ d`` and ``col_sq`` holds the squared distances of
    the vertices from the pole. The scores are computed one by one on
    Python floats, which round as NumPy's do.
    """
    n = d.size
    weights = simid.tolist()
    if ximproved:
        gaps = sim[:, :n] - d[:, None]
        distsq = np.add.reduce(gaps * gaps, 0).tolist()
        distsq.append(float(np.add.reduce(d * d)))
        weights.append(1 - float(np.add.reduce(simid)))
    else:
        # PRIMA scores the pole -1 here, below every other vertex, so it is left out
        distsq = col_sq
    scale = max(rho, delta / 10)
    scale_sq = scale * scale
    # PRIMA's score is |w| max(1, q / scale^2), whose quotient exceeds 1 only
    # where q > scale^2. PRIMA sets a NaN score to -1: 0 * inf, or q / 0 for
    # q = 0 when scale^2 underflows. It is 0 here; neither is ever dropped,
    # and max() sees no NaN.
    if scale_sq > 0:
        score = [abs(w) * (q / scale_sq if q > scale_sq else 1.0) if w else 0.0 for w, q in zip(weights, distsq)]
    else:
        score = [abs(w) * math.inf if w and q > 0 else 0.0 for w, q in zip(weights, distsq)]
    best = max(score)
    if best > 0:
        return score.index(best)
    return distsq.index(max(distsq)) if ximproved else None


def _updatexfc(j: int, d, f: float, sim, simi, fval, simid):
    """PRIMA ``updatexfc``: vertex j becomes the pole plus d, with value f.

    ``sim`` and ``fval`` change in place; ``simid`` is ``simi @ d``.
    Returns the updated inverse, or None when rounding has ruined it.
    """
    n = fval.size - 1
    if j < n:
        sim[:, j] = d
        row = simi[j]
        row = row / row.dot(d)
        simi -= simid[:, None] * row
        simi[j] = row
    else:
        sim[:, n] += d
        sim[:, :n] -= d[:, None]
        simi += simid[:, None] * (np.add.reduce(simi, 0) / (1 - sum(simid)))
    simi = _checked_inverse(sim, simi)
    if simi is None:
        return None
    fval[j] = f
    return _updatepole(sim, simi, fval)


def _updatepole(sim, simi, fval):
    """PRIMA ``updatepole``: make the best vertex the pole (a tie keeps the pole).

    When the pole stays, PRIMA re-checks ``simi``; every caller has just
    checked it, so that is skipped.
    """
    n = fval.size - 1
    jopt = int(fval.argmin())
    if jopt == n or not fval[jopt] < fval[n]:
        return simi
    sim[:, n] += sim[:, jopt]
    step = sim[:, jopt].copy()
    sim[:, jopt] = 0
    sim[:, :n] -= step[:, None]
    simi[jopt] = -np.add.reduce(simi, 0)
    simi = _checked_inverse(sim, simi)
    if simi is not None:
        fval[jopt], fval[n] = fval[n], fval[jopt]
    return simi


@functools.lru_cache(maxsize=None)
def _eye(n: int) -> np.ndarray:
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _checked_inverse(sim, simi):
    """``simi``, re-inverted when ``simi @ sim[:, :n]`` strays from I by more than 0.1; None beyond 1.

    The stray is max |simi @ sim[:, :n] - I|, NaN when an entry is NaN
    (argmax and argmin find NaN first).
    """
    steps = sim[:, :-1]
    eye = _eye(len(steps))
    err = simi @ steps
    err -= eye
    erri = max(err.item(err.argmax()), -err.item(err.argmin()))
    if not erri <= 0.1:
        try:
            test = np.linalg.inv(steps)
        except np.linalg.LinAlgError:
            test = None
        if test is not None:
            err = test @ steps
            err -= eye
            erri_test = max(err.item(err.argmax()), -err.item(err.argmin()))
            if erri_test < erri or (np.isnan(erri) and not np.isnan(erri_test)):
                simi, erri = test, erri_test
    return simi if erri <= 1 else None


def optimize_circuit(
    circuit: Circuit,
    energy: np.ndarray,
    n_shots: int,
    seed: int,
    optimizer: OptimizerConfig | None = None,
) -> OptimizationResult:
    """Tune the circuit's parameters against the shot-estimated expectation.

    The expectation is of the diagonal H with the energy vector ``energy``
    (``ProblemInstance.ham``). The objective re-samples every evaluation
    with a fresh seed, ``derive_seed(seed, OPT_STREAM, k)`` for evaluation k,
    mirroring repeated executions on a sampling backend. Warm start:
    optimization begins at the circuit's current parameters (new gates
    enter at 0). On return the circuit carries the best parameters found.

    When the circuit's state and the energy are both flip-symmetric, the
    shots are drawn over the bit-flip classes {b, ~b} (see
    ``qsim.draws_flip_classes``) and scored with ``energy[:2^(n-1)]``. As
    p(b) = p(~b) and E(b) = E(~b), the estimate has the full draw's
    distribution; only the draws differ.
    """
    if energy.shape != (1 << circuit.n_qubits,):
        raise ConfigurationError(f"{energy.size} energies vs circuit on {circuit.n_qubits} qubits")
    stream = seed_stream(seed, OPT_STREAM)
    folded = draws_flip_classes(circuit) and np.array_equal(energy, energy[::-1])
    if folded:
        energy = energy[: energy.size // 2]

    def objective(theta: np.ndarray) -> float:
        counts = sample_shots(circuit, n_shots, next(stream), params=theta, folded=folded)
        return estimate_expectation(counts, energy)

    result = cobyla_minimize(objective, circuit.params, optimizer)
    if circuit.n_params:
        circuit.params[:] = result.best_params
    return result
