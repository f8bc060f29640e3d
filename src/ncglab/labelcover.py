"""Label cover instances on regular graphs with per-edge projection pairs,
plus synthetic generators and structural checkers (smoothness, preimage
bounds, weak expansion).

Instances here are synthetic: `generate_planted` hides a fully satisfying
assignment (for completeness experiments), `generate_random` does not (for
decoder stress). The structural parameters gamma and t are declared on the
instance and checked post hoc, never guaranteed a priori; zeta is recorded
only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import config
from .linalg import _components, _int64

# Largest vertex count for which check_weak_expansion enumerates every subset.
EXHAUSTIVE_LIMIT = 12


@dataclass(eq=False)
class LabelCoverInstance:
    """Regular connected graph + per-edge projections [n] -> [k].

    Vertices and labels are 0-based internally; the JSON format is 1-based.
    An instance holds its E edges only as two integer arrays: ``ends`` (E, 2)
    of (u, v) and ``pis`` (E, 2, n) of (pi_u, pi_v).
    """

    num_vertices: int
    n: int
    k: int
    t: int
    gamma: float
    zeta: float
    ends: np.ndarray
    pis: np.ndarray

    def __post_init__(self):
        if self.num_vertices < 1 or self.n < 1 or self.k < 1 or self.t < 1:
            raise ValueError("num_vertices, n, k, t must all be positive")
        self.ends, self.pis = _int64(self.ends, "ends"), _int64(self.pis, "pis")
        if self.ends.ndim != 2 or self.ends.shape[1] != 2:
            raise ValueError("edge ends must be an (E, 2) array")
        if self.pis.shape != (len(self.ends), 2, self.n):
            raise ValueError("projection must be a length-n array")
        if np.any((self.ends < 0) | (self.ends >= self.num_vertices)):
            raise ValueError("edge endpoint out of range")
        if np.any(self.ends[:, 0] == self.ends[:, 1]):
            raise ValueError("self-loops are not allowed")
        if np.any((self.pis < 0) | (self.pis >= self.k)):
            raise ValueError("projection value out of range")

    @property
    def num_edges(self) -> int:
        return len(self.ends)

    def degrees(self) -> np.ndarray:
        return np.bincount(self.ends.ravel(), minlength=self.num_vertices)

    def is_regular(self) -> bool:
        deg = self.degrees()
        return bool(np.all(deg == deg[0]))

    def is_connected(self) -> bool:
        """Whether every vertex lies in vertex 0's connected component."""
        return not np.any(_components(self.num_vertices, *self.ends.T))

    def max_preimage_size(self) -> int:
        # one bincount slot per (edge, side, small label)
        sides = self.pis.reshape(-1, self.n)
        slots = np.arange(sides.shape[0])[:, None] * self.k + sides
        return int(np.bincount(slots.ravel()).max(initial=0))


def check_assignment(inst: LabelCoverInstance, labels) -> np.ndarray:
    labels = _int64(labels, "labels").reshape(-1)
    if labels.shape != (inst.num_vertices,):
        raise ValueError("assignment must give one label per vertex")
    if labels.min() < 0 or labels.max() >= inst.n:
        raise ValueError("assignment label out of range")
    return labels


def satisfied_fraction(inst: LabelCoverInstance, labels) -> float:
    """Fraction of edges with pi_u(A(u)) == pi_v(A(v))."""
    labels = check_assignment(inst, labels)
    if inst.num_edges == 0:
        return 1.0
    small = np.take_along_axis(inst.pis, labels[inst.ends][:, :, None], axis=2)[:, :, 0]
    return int(np.count_nonzero(small[:, 0] == small[:, 1])) / inst.num_edges


def _circulant_edges(num_vertices: int, degree: int) -> np.ndarray:
    """(E, 2) ends of a connected degree-regular circulant graph."""
    if degree < 1 or degree >= num_vertices:
        raise ValueError("degree must satisfy 1 <= degree < num_vertices")
    if degree % 2 == 1 and num_vertices % 2 == 1:
        raise ValueError("odd degree requires an even vertex count")
    offsets = list(range(1, degree // 2 + 1))
    if degree % 2 == 1:
        offsets.append(num_vertices // 2)
    blocks = []
    for off in offsets:
        # an antipodal offset contributes one edge per vertex pair
        v = np.arange(num_vertices // 2 if 2 * off == num_vertices else num_vertices)
        blocks.append(np.stack([v, (v + off) % num_vertices], axis=1))
    return np.concatenate(blocks)


def _generate(num_vertices: int, degree: int, n: int, k: int, t: int, *, seed: int,
              zeta: float, plant: bool):
    """Body of both generators; planted is None unless plant (see generate_planted)."""
    if k * t < n:
        raise ValueError("need k*t >= n so projections with preimage bound t exist")
    rng = np.random.default_rng(seed)
    planted = rng.integers(0, n, size=num_vertices) if plant else None
    ends = _circulant_edges(num_vertices, degree)
    pis = np.empty((len(ends), 2, n), dtype=np.int64)
    # a shuffled pool's first n entries: a random map [n] -> [k], preimages of size <= t
    pool = np.repeat(np.arange(k), t)
    for (u, v), (pi_u, pi_v) in zip(ends.tolist(), pis):
        pi_u[:] = rng.permutation(pool)[:n]
        pi_v[:] = rng.permutation(pool)[:n]
        if plant and pi_v[planted[v]] != pi_u[planted[u]]:
            target = pi_u[planted[u]]
            hits = np.flatnonzero(pi_v == target)
            if hits.size:
                swap = hits[rng.integers(0, hits.size)]
                pi_v[swap], pi_v[planted[v]] = pi_v[planted[v]], pi_v[swap]
            else:
                pi_v[planted[v]] = target
    inst = LabelCoverInstance(num_vertices=num_vertices, n=n, k=k, t=t,
                              gamma=1.0, zeta=zeta, ends=ends, pis=pis)
    if not inst.is_connected():
        raise ValueError("parameters produce a disconnected graph")
    inst.gamma = check_smoothness(inst)
    return inst, planted


def generate_planted(num_vertices: int, degree: int, n: int, k: int, t: int, *,
                     seed: int, zeta: float = 0.1):
    """Planted instance: projections are random subject to the preimage bound,
    then one side of each edge is patched so the hidden assignment satisfies
    every edge. Returns (instance, planted_labels); gamma is set to the
    measured smoothness so declared parameters always hold.
    """
    return _generate(num_vertices, degree, n, k, t, seed=seed, zeta=zeta, plant=True)


def generate_random(num_vertices: int, degree: int, n: int, k: int, t: int, *,
                    seed: int, zeta: float = 0.1) -> LabelCoverInstance:
    """Like generate_planted but with no hidden assignment patched in."""
    return _generate(num_vertices, degree, n, k, t, seed=seed, zeta=zeta, plant=False)[0]


def check_smoothness(inst: LabelCoverInstance) -> float:
    """max over vertices v and label pairs i != j of
    Pr_{e ~ v}[ pi_ev(i) == pi_ev(j) ], computed by exact enumeration.

    Edge sides are grouped by the vertex that owns them and compared label
    pair by label pair, in blocks of whole vertices holding at most about
    config.CHUNK_ENTRIES comparisons.
    """
    n = inst.n
    sides = inst.pis.reshape(-1, n)[np.argsort(inst.ends.ravel(), kind="stable")]
    deg = inst.degrees()
    deg = deg[deg > 0]
    starts = np.cumsum(deg) - deg
    per_block = max(1, config.CHUNK_ENTRIES // (int(deg.max(initial=1)) * n * n))
    label = np.arange(n)
    worst = 0.0
    for lo in range(0, deg.size, per_block):
        group_deg = deg[lo:lo + per_block]
        group_starts = starts[lo:lo + per_block]
        block = sides[group_starts[0]:group_starts[-1] + group_deg[-1]]
        counts = np.add.reduceat(block[:, :, None] == block[:, None, :],
                                 group_starts - group_starts[0], axis=0, dtype=np.int64)
        counts[:, label, label] = 0
        worst = max(worst, (counts.reshape(len(group_deg), -1).max(axis=1) / group_deg).max())
    return float(worst)


@dataclass
class ExpansionRow:
    delta: float
    subset_size: int
    subsets_checked: int
    exhaustive: bool
    min_edges: int
    required: float
    passed: bool


def check_weak_expansion(inst: LabelCoverInstance, delta_grid, *,
                         subset_samples: int = 200, seed: int = 0) -> list[ExpansionRow]:
    """For each delta, verify that vertex subsets of size delta*|V| induce at
    least (delta^2/2)*|E| edges. Exhaustive over all subsets when |V| is at
    most EXHAUSTIVE_LIMIT, sampled otherwise (sampling certifies only the
    subsets it saw). An empty grid, a delta whose subset size (nan or inf
    too) falls outside [1, |V|], or subset_samples < 1 raises a ValueError.
    """
    if len(delta_grid) == 0:
        raise ValueError("weak-expansion delta grid is empty")
    if subset_samples < 1:
        raise ValueError(f"weak-expansion subset_samples must be positive, not {subset_samples}")
    rng = np.random.default_rng(seed)
    us, vs = inst.ends.T
    rows = []
    for delta in delta_grid:
        size = delta * inst.num_vertices
        size = int(round(size)) if np.isfinite(size) else size
        if not 1 <= size <= inst.num_vertices:
            raise ValueError(f"weak-expansion delta {delta} gives subset size {size} "
                             f"outside [1, {inst.num_vertices}]")
        required = (delta**2 / 2.0) * inst.num_edges
        if inst.num_vertices <= EXHAUSTIVE_LIMIT:
            subsets = itertools.combinations(range(inst.num_vertices), size)
            exhaustive = True
        else:
            subsets = (rng.choice(inst.num_vertices, size=size, replace=False)
                       for _ in range(subset_samples))
            exhaustive = False
        min_edges = None
        checked = 0
        for subset in subsets:
            mask = np.zeros(inst.num_vertices, dtype=bool)
            mask[list(subset)] = True
            induced = int(np.count_nonzero(mask[us] & mask[vs]))
            min_edges = induced if min_edges is None else min(min_edges, induced)
            checked += 1
        rows.append(ExpansionRow(delta=float(delta), subset_size=size,
                                 subsets_checked=checked, exhaustive=exhaustive,
                                 min_edges=int(min_edges), required=required,
                                 passed=min_edges >= required))
    return rows
