"""Problem instances: graphs, QUBO matrices, energy vectors, spectra.

A problem instance bundles a graph, one of three QUBO formulations
(maximum cut, maximum clique, minimum vertex cover), the diagonal
Hamiltonian as its float64 energy vector, and its brute-force spectrum.
Bitstrings are little-endian throughout: basis index ``b`` assigns
vertex/qubit ``i`` the bit ``(b >> i) & 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .circuits import MAX_QUBITS
from .errors import ConfigurationError
from .seeding import rng_for

DEFAULT_PENALTY = 2.0


class Topology(str, Enum):
    THREE_REGULAR = "three_regular"
    GRID_2D = "grid2d"
    STAR = "star"
    CYCLE = "cycle"
    ERDOS_RENYI = "erdos_renyi"


class ProblemKind(str, Enum):
    MAX_CUT = "maxcut"
    MAX_CLIQUE = "maxclique"
    MIN_VERTEX_COVER = "minvertexcover"


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with the parameters needed to regenerate it."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...]  # sorted pairs (i, j), i < j
    topology: Topology
    seed: int = 0
    er_p: float | None = None
    rows: int | None = None
    cols: int | None = None

    def __post_init__(self):
        seen = set()
        for i, j in self.edges:
            if not (0 <= i < j < self.n_vertices):
                raise ConfigurationError(f"bad edge ({i}, {j}) for n={self.n_vertices}")
            if (i, j) in seen:
                raise ConfigurationError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))

    def non_edges(self) -> list[tuple[int, int]]:
        present = set(self.edges)
        n = self.n_vertices
        return [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in present]

    def is_connected(self) -> bool:
        if self.n_vertices == 0:
            return True
        adj: dict[int, list[int]] = {v: [] for v in range(self.n_vertices)}
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n_vertices


def _normalized_edges(pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((min(i, j), max(i, j)) for i, j in pairs))


def grid_shape(n: int, rows: int | None = None) -> tuple[int, int]:
    """Default rows x cols factorization: the most-square split with rows <= cols."""
    if rows is not None:
        if rows < 1:
            raise ConfigurationError(f"rows must be >= 1, got rows={rows}")
        if n % rows != 0:
            raise ConfigurationError(f"rows={rows} does not divide n={n}")
        return rows, n // rows
    best = 1
    r = 1
    while r * r <= n:
        if n % r == 0:
            best = r
        r += 1
    if best == 1 and n > 3:
        raise ConfigurationError(f"no 2D grid factorization for prime n={n}")
    return best, n // best


def _three_regular_edges(n: int, rng: np.random.Generator) -> tuple[tuple[int, int], ...]:
    # Configuration model: pair up 3 stubs per vertex, reject self-loops
    # and multi-edges, retry with fresh shuffles.
    for _ in range(1000):
        stubs = np.repeat(np.arange(n), 3)
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for k in range(0, len(stubs), 2):
            i, j = int(stubs[k]), int(stubs[k + 1])
            if i == j:
                ok = False
                break
            e = (min(i, j), max(i, j))
            if e in edges:
                ok = False
                break
            edges.add(e)
        if ok:
            return _normalized_edges(edges)
    raise ConfigurationError(f"could not generate a 3-regular graph with n={n}")


def generate_graph(
    topology: Topology | str,
    n: int,
    seed: int = 0,
    *,
    er_p: float | None = None,
    rows: int | None = None,
) -> Graph:
    """Generate a graph of the given topology, deterministic for a fixed seed."""
    topology = Topology(topology)
    if topology is Topology.THREE_REGULAR:
        if n < 4 or (3 * n) % 2 != 0:
            raise ConfigurationError(f"3-regular graph needs n >= 4 and 3n even, got n={n}")
        edges = _three_regular_edges(n, rng_for(seed, 0))
        return Graph(n, edges, topology, seed=seed)
    if topology is Topology.GRID_2D:
        r, c = grid_shape(n, rows)
        pairs = []
        for a in range(r):
            for b in range(c):
                v = a * c + b
                if b + 1 < c:
                    pairs.append((v, v + 1))
                if a + 1 < r:
                    pairs.append((v, v + c))
        return Graph(n, _normalized_edges(pairs), topology, seed=seed, rows=r, cols=c)
    if topology is Topology.STAR:
        if n < 3:
            raise ConfigurationError(f"star graph needs n >= 3, got n={n}")
        return Graph(n, tuple((0, k) for k in range(1, n)), topology, seed=seed)
    if topology is Topology.CYCLE:
        if n < 3:
            raise ConfigurationError(f"cycle graph needs n >= 3, got n={n}")
        pairs = [(i, (i + 1) % n) for i in range(n)]
        return Graph(n, _normalized_edges(pairs), topology, seed=seed)
    if topology is Topology.ERDOS_RENYI:
        if er_p is None or not (0.0 <= er_p <= 1.0):
            raise ConfigurationError(f"Erdos-Renyi needs an edge probability in [0, 1], got {er_p}")
        rng = rng_for(seed, 0)
        pairs = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < er_p
        ]
        return Graph(n, _normalized_edges(pairs), topology, seed=seed, er_p=er_p)
    raise ConfigurationError(f"unknown topology {topology!r}")


@dataclass(frozen=True)
class QuboMatrix:
    """Upper-triangular QUBO with an additive constant.

    The objective is ``value(x) = x^T Q x + offset`` over binary vectors.
    The offset is nonzero only for formulations whose penalty expansion
    produces a constant term (minimum vertex cover).
    """

    n: int
    q: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.shape != (self.n, self.n):
            raise ConfigurationError(f"Q must be {self.n}x{self.n}, got {q.shape}")
        if np.any(np.tril(q, -1) != 0.0):
            raise ConfigurationError("Q must be upper triangular")
        object.__setattr__(self, "q", q)


def build_qubo(graph: Graph, kind: ProblemKind | str, penalty: float = DEFAULT_PENALTY) -> QuboMatrix:
    """QUBO formulation of the given problem on the graph.

    maxcut:         min sum_{(i,j) in E} (2 x_i x_j - x_i - x_j)
    minvertexcover: min sum_i x_i + P sum_{(i,j) in E} (1 - x_i)(1 - x_j)
    maxclique:      min -sum_i x_i + P sum_{(i,j) not in E, i<j} x_i x_j

    Each penalty summand is 1 exactly when its constraint is violated.
    """
    kind = ProblemKind(kind)
    n = graph.n_vertices
    q = np.zeros((n, n))
    offset = 0.0
    if kind is ProblemKind.MAX_CUT:
        for i, j in graph.edges:
            q[i, j] += 2.0
            q[i, i] -= 1.0
            q[j, j] -= 1.0
    elif kind is ProblemKind.MIN_VERTEX_COVER:
        if penalty <= 1:
            raise ConfigurationError(f"vertex-cover penalty must exceed 1, got {penalty}")
        q[np.diag_indices(n)] += 1.0
        for i, j in graph.edges:
            q[i, i] -= penalty
            q[j, j] -= penalty
            q[i, j] += penalty
            offset += penalty
    elif kind is ProblemKind.MAX_CLIQUE:
        if penalty <= 1:
            raise ConfigurationError(f"clique penalty must exceed 1, got {penalty}")
        q[np.diag_indices(n)] -= 1.0
        for i, j in graph.non_edges():
            q[i, j] += penalty
    return QuboMatrix(n, q, offset)


def _bits_view(table: np.ndarray, n: int, i: int, j: int, bit: int) -> np.ndarray:
    """View of the entries of a 2^n ``table`` whose bits i and j (i <= j) both read ``bit``.

    The axes are laid out as ``qsim._gate_view`` lays them out.
    """
    if i == j:
        return table.reshape(1 << (n - i - 1), 2, 1 << i)[:, bit]
    return table.reshape(1 << (n - j - 1), 2, 1 << (j - i - 1), 2, 1 << i)[:, bit, :, bit]


def qubo_to_hamiltonian(qubo: QuboMatrix) -> np.ndarray:
    """The Hamiltonian's diagonal: ``energy[b]`` is the QUBO value of b's bits, for all 2^n b.

    Each entry is the sum of the nonzero ``Q[i, j]`` whose bits i and j are
    both 1, added in the row-major order ``np.nonzero`` lists them, then the
    offset: the order of ``einsum("bi,ij,bj->b", bits, Q, bits) + offset``,
    so the two agree bit for bit.
    """
    n = qubo.n
    if n > MAX_QUBITS:
        raise ConfigurationError(f"refusing to enumerate 2^{n} assignments (max n={MAX_QUBITS})")
    energy = np.zeros(1 << n)
    for i, j in zip(*np.nonzero(qubo.q)):
        view = _bits_view(energy, n, i, j, 1)
        view += qubo.q[i, j]
    energy += qubo.offset
    return energy


def qubo_to_ising(qubo: QuboMatrix) -> tuple[dict[tuple[int, int], float], np.ndarray, float]:
    """Spin form of the QUBO under x_i = (1 - z_i) / 2, z in {-1, +1}.

    Returns couplings {(i, j): J_ij} (i < j, zero entries omitted), fields
    h (length n) and the scalar constant, such that
    ``value(x) = sum J_ij z_i z_j + sum h_i z_i + const``.
    """
    n = qubo.n
    couplings: dict[tuple[int, int], float] = {}
    h = np.zeros(n)
    const = qubo.offset
    for i in range(n):
        const += qubo.q[i, i] / 2.0
        h[i] -= qubo.q[i, i] / 2.0
        for j in range(i + 1, n):
            qij = qubo.q[i, j]
            if qij == 0.0:
                continue
            couplings[(i, j)] = qij / 4.0
            h[i] -= qij / 4.0
            h[j] -= qij / 4.0
            const += qij / 4.0
    return couplings, h, const


def feasible_mask(graph: Graph, kind: ProblemKind | str) -> np.ndarray:
    """Boolean mask over all 2^n bitstrings marking constraint-satisfying ones.

    Maximum cut has no constraints (all feasible). A clique must be pairwise
    adjacent (the empty set counts). A vertex cover must touch every edge
    (the full set counts).
    """
    kind = ProblemKind(kind)
    n = graph.n_vertices
    mask = np.ones(1 << n, dtype=bool)
    if kind is ProblemKind.MAX_CLIQUE:
        for i, j in graph.non_edges():
            _bits_view(mask, n, i, j, 1)[...] = False
    elif kind is ProblemKind.MIN_VERTEX_COVER:
        for i, j in graph.edges:
            _bits_view(mask, n, i, j, 0)[...] = False
    return mask


_GROUND_STATE_CAP = 16


@dataclass(frozen=True)
class Spectrum:
    """Exact extrema of an energy vector plus the feasibility threshold.

    ``feasibility_threshold_ar`` is the approximation ratio of the worst
    feasible bitstring: (e_feasible_worst - e_max) / (e_min - e_max). It is
    0 for maximum cut and None when the spectrum is degenerate or nothing
    is feasible.
    """

    e_min: float
    e_max: float
    feasibility_threshold_ar: float | None
    degenerate: bool
    e_feasible_worst: float | None
    ground_states: tuple[int, ...]
    n_ground: int


def brute_force_spectrum(energy: np.ndarray, kind: ProblemKind | str, graph: Graph) -> Spectrum:
    """Exact spectrum by full enumeration of the graph's energy vector (n <= 20)."""
    kind = ProblemKind(kind)
    n = graph.n_vertices
    if n > MAX_QUBITS:
        raise ConfigurationError(f"brute force supports n <= {MAX_QUBITS}")
    if energy.shape != (1 << n,):
        raise ConfigurationError(f"energy vector of shape {energy.shape} for a graph on {n} vertices")
    e_min = float(energy.min())
    e_max = float(energy.max())
    degenerate = e_min == e_max
    ground = np.flatnonzero(energy == e_min)
    if kind is ProblemKind.MAX_CUT:  # every bitstring is feasible
        e_feas_worst = e_max
    else:
        mask = feasible_mask(graph, kind)
        e_feas_worst = float(energy.max(where=mask, initial=-np.inf)) if mask.any() else None
    if degenerate or e_feas_worst is None:
        threshold = None
    elif kind is ProblemKind.MAX_CUT:
        threshold = 0.0
    else:
        threshold = (e_feas_worst - e_max) / (e_min - e_max) + 0.0  # kill -0.0
    return Spectrum(
        e_min=e_min,
        e_max=e_max,
        feasibility_threshold_ar=threshold,
        degenerate=degenerate,
        e_feasible_worst=e_feas_worst,
        ground_states=tuple(int(b) for b in ground[:_GROUND_STATE_CAP]),
        n_ground=int(ground.size),
    )


@dataclass(frozen=True)
class ProblemInstance:
    graph: Graph
    kind: ProblemKind
    penalty: float
    qubo: QuboMatrix
    ham: np.ndarray  # the energy vector, see qubo_to_hamiltonian
    spectrum: Spectrum

    @property
    def n(self) -> int:
        return self.graph.n_vertices


def build_instance(graph: Graph, kind: ProblemKind | str, penalty: float = DEFAULT_PENALTY) -> ProblemInstance:
    kind = ProblemKind(kind)
    qubo = build_qubo(graph, kind, penalty)
    ham = qubo_to_hamiltonian(qubo)
    spectrum = brute_force_spectrum(ham, kind, graph)
    return ProblemInstance(graph, kind, penalty, qubo, ham, spectrum)


def make_instance(
    topology: Topology | str,
    n: int,
    seed: int,
    kind: ProblemKind | str,
    penalty: float = DEFAULT_PENALTY,
    *,
    er_p: float | None = None,
    rows: int | None = None,
) -> ProblemInstance:
    """Generate the graph and build the full instance in one call."""
    return build_instance(generate_graph(topology, n, seed, er_p=er_p, rows=rows), kind, penalty)


def instance_to_json_dict(inst: ProblemInstance) -> dict:
    g = inst.graph
    doc = {
        "n": g.n_vertices,
        "topology": g.topology.value,
        "seed": g.seed,
        "edges": [list(e) for e in g.edges],
        "kind": inst.kind.value,
        "penalty": inst.penalty,
        "connected": g.is_connected(),
    }
    if g.er_p is not None:
        doc["er_p"] = g.er_p
    if g.rows is not None:
        doc["rows"] = g.rows
        doc["cols"] = g.cols
    return doc

