"""From a label cover instance to a norm-maximization problem over a
constraint subspace.

A vector field assigns b_v in C^n to every vertex v. The constraint
subspace H consists of fields whose projection-block sums agree across
every edge: for each edge e = (u, v) and small label j,

    sum_{i in pi_eu^-1(j)} b_u(i)  =  sum_{i in pi_ev^-1(j)} b_v(i).

One-hot fields of fully satisfying assignments lie in H and witness
E_v ||f(b_v)|| >= eta (the completeness certificate). Conversely, fields in
H whose averaged embedding norm exceeds tau + 4*eps can be decoded back to
an assignment by sampling labels at coordinates of large magnitude.

The L2(V) geometry is the vertex-averaged one: ||b||^2 = E_v ||b_v||^2, so
one-hot fields always have norm exactly 1.

The constraint matrix A is held as its (row, column, value) triplets, and
every one-shot product with it is a numpy gather and bincount. scipy is
imported only where A is factored and applied over and over, in
subspace_basis and SubspaceBasis.project, so `import ncglab` loads numpy
alone and a completeness certificate never loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import clifford, commutative, solvers
from .config import (CERTIFICATE_SLACK, DEFAULT_ITERS, DEFAULT_RESTARTS, DENSE_DIM_CAP,
                     SUBSPACE_RESIDUAL_TOL)
from .labelcover import LabelCoverInstance, check_assignment, satisfied_fraction
from .linalg import _complex_bincount, _pairs
from .solvers import _sphere_ascent


class DecodeInvariantError(RuntimeError):
    """A vertex in V0 produced an empty candidate label set, which the large-
    coordinate bound rules out; indicates inconsistent decoder parameters."""


# ---------------------------------------------------------------------------
# Constraint subspace


@dataclass(eq=False)
class ConstraintSystem:
    """Sparse homogeneous system A b = 0 over fields, one row per (edge, small
    label), held as A's COO triplets: entry e puts values[e] at (rows[e],
    cols[e]), and entries at one position add up.

    Row (e=(u,v), j) holds +1 on columns (u, i) for i in pi_eu^-1(j) and -1 on
    (v, i) for i in pi_ev^-1(j); the column of (v, i) is v*n + i.
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    shape: tuple[int, int]

    @property
    def matrix(self) -> scipy.sparse.csr_matrix:
        """A as a CSR matrix, built on each call."""
        import scipy.sparse
        return scipy.sparse.csr_matrix((self.values, (self.rows, self.cols)), shape=self.shape)


def build_constraints(inst: LabelCoverInstance) -> ConstraintSystem:
    num_edges, n, k = inst.num_edges, inst.n, inst.k
    # axes (edge, side, label): label i on side s of edge e is an entry in row
    # e*k + pi_s(i) and column (endpoint s)*n + i, +1 for side u and -1 for v
    row_idx = np.arange(num_edges).reshape(-1, 1, 1) * k + inst.pis
    col_idx = inst.ends[:, :, None] * n + np.arange(n)
    data = np.broadcast_to(np.array([1.0, -1.0]).reshape(1, 2, 1), row_idx.shape)
    return ConstraintSystem(rows=row_idx.ravel(), cols=col_idx.ravel(), values=data.ravel(),
                            shape=(num_edges * k, inst.num_vertices * n))


# Shift of the factored A A^T + mu I, relative to the Gershgorin bound g:
# above the rounding of the factorization, and small enough that dependent
# pivots, which grow with mu times the row count, stay far below the rank gap.
_SHIFT = 1e-14
# Sweeps of x <- x - A^T M^-1 A x per projection.
_SWEEPS = 2


@dataclass(eq=False)
class SubspaceBasis:
    """Orthogonal projector onto the constraint nullspace H = null(A), with
    its dimension. H is orthogonal to the row space of A under the Euclidean
    and the vertex-averaged inner product alike, since the two differ by the
    constant |V|.

    ``project`` runs x <- x - A^T M^-1 A x twice, with M = A A^T + mu I
    factored once. ``matrix`` is A with its rows in the reverse Cuthill-McKee
    order of M, which keeps M inside a narrow band, and ``chol`` holds the
    lower band of M's Cholesky factor L in that order, in LAPACK's
    (bandwidth + 1, rows) storage (None when A is zero). The row order leaves
    the nullspace alone. A^T is a CSC view of A's arrays, made once: making it
    costs more than a product at small V. Every update lies in the row space
    of A, and one sweep leaves the row-space component along a singular value
    s scaled by mu / (s^2 + mu), so the sweeps converge to the orthogonal
    projection. A is real, so a complex field goes through as the two columns
    of its (len, 2) float64 view.
    """

    matrix: scipy.sparse.csr_matrix
    chol: np.ndarray | None
    dim: int
    transpose: scipy.sparse.csc_matrix = field(init=False, repr=False)

    def __post_init__(self):
        self.transpose = self.matrix.T

    @property
    def bandwidth(self) -> int:
        """Sub-diagonals of the banded factor; 0 when A is zero."""
        return 0 if self.chol is None else self.chol.shape[0] - 1

    def project(self, fld) -> np.ndarray:
        """The projection of a field (V, n), or of its flattening, in fld's shape."""
        out = np.array(fld, dtype=np.complex128, order="C")
        if self.chol is not None:
            from scipy.linalg.lapack import dpbtrs
            pairs = _pairs(out).reshape(-1, 2)
            for _ in range(_SWEEPS):
                pairs -= self.transpose @ dpbtrs(self.chol, self.matrix @ pairs, lower=1)[0]
        return out


def subspace_basis(cs: ConstraintSystem) -> SubspaceBasis:
    """Projector onto the constraint nullspace and its dimension, from one
    banded Cholesky factorization M = L L^T of M = A A^T + mu I, mu = 1e-14 g,
    with g a Gershgorin bound on the largest eigenvalue of A A^T.

    The rows of A A^T are taken in the reverse Cuthill-McKee order of its
    graph, which keeps it inside a narrow band whatever V is (37 to 64 on the
    degree-4 circulants measured, V = 40 to 3000), and LAPACK's dpbtrf
    factors that band. The
    pivots L_ii^2 are those of the LDL^T of M, so pivot i is mu plus the
    squared distance of row i from the span of the rows before it, up to
    O(mu). A dependent row has a pivot of mu (1 + |c|^2), c its coefficients
    over the earlier rows; |c|^2 stayed below the row count on every instance
    measured, and the null floor allows 16 times that. Pivots at or above
    the rank gap sqrt(eps) g count toward the rank, so dim = |V| n - rank.
    A non-positive pivot stops the factorization, a pivot between the floor
    and the gap leaves the rank ambiguous, and a projected fixed probe must
    meet SUBSPACE_RESIDUAL_TOL; each failure raises a ValueError naming it.
    """
    from scipy.linalg.lapack import dpbtrf
    from scipy.sparse.csgraph import reverse_cuthill_mckee
    matrix = cs.matrix
    rows, total = matrix.shape
    gram = matrix @ matrix.T
    g = float(np.asarray(abs(gram).sum(axis=1)).max(initial=0.0))
    if g == 0.0:
        return SubspaceBasis(matrix=matrix, chol=None, dim=total)
    mu, gap = _SHIFT * g, math.sqrt(np.finfo(np.float64).eps) * g
    floor = min(16.0 * (1 + rows) * mu, gap / 16.0)
    order = reverse_cuthill_mckee(gram, symmetric_mode=True)
    position = np.empty(rows, dtype=np.intp)
    position[order] = np.arange(rows)
    entries = gram.tocoo()
    row, col = position[entries.row], position[entries.col]
    lower = row >= col
    row, col = row[lower], col[lower]
    band = np.zeros((int((row - col).max()) + 1, rows), order="F")
    band[row - col, col] = entries.data[lower]
    band[0] += mu
    chol, info = dpbtrf(band, lower=1, overwrite_ab=1)
    if info > 0:
        raise ValueError(f"banded Cholesky of the constraint Gram matrix met a "
                         f"non-positive pivot at column {info - 1} of its reverse "
                         f"Cuthill-McKee order; its pivots do not give the rank")
    pivots = chol[0] ** 2
    ambiguous = pivots[(pivots > floor) & (pivots < gap)]
    if ambiguous.size:
        raise ValueError(f"banded Cholesky of the constraint Gram matrix has pivot "
                         f"{ambiguous.min():.3e} between the null floor {floor:.3e} and "
                         f"the rank gap {gap:.3e}; the numerical rank is ambiguous")
    rank = int(np.count_nonzero(pivots >= gap))
    basis = SubspaceBasis(matrix=matrix[order], chol=chol, dim=total - rank)
    # a complex probe fills both columns of the solve
    probe = np.random.default_rng(0).standard_normal(2 * total).view(np.complex128)
    residual = constraint_residual(cs, basis.project(probe))
    if residual > SUBSPACE_RESIDUAL_TOL:
        raise ValueError(f"constraint subspace projector leaves residual {residual:.3e} "
                         f"on a fixed probe, above {SUBSPACE_RESIDUAL_TOL:g}")
    return basis


def field_l2_norm(fld) -> float:
    """Vertex-averaged norm sqrt(E_v ||b_v||_2^2)."""
    fld = np.asarray(fld, dtype=np.complex128)
    return float(np.sqrt(np.mean(np.sum(np.abs(fld) ** 2, axis=1))))


def constraint_residual(cs: ConstraintSystem, fld) -> float:
    """max |A b| over the constraint rows; 0 without rows."""
    flat = np.asarray(fld, dtype=np.complex128).reshape(-1)
    sums = _complex_bincount(cs.rows, flat[cs.cols] * cs.values, cs.shape[0])
    return float(np.abs(sums).max(initial=0.0))


def assignment_to_field(inst: LabelCoverInstance, labels) -> np.ndarray:
    """One-hot field b_v = e_{A(v)}; unit L2(V) norm, and inside the
    constraint subspace exactly when the assignment satisfies every edge."""
    labels = check_assignment(inst, labels)
    fld = np.zeros((inst.num_vertices, inst.n), dtype=np.complex128)
    fld[np.arange(inst.num_vertices), labels] = 1.0
    return fld


# ---------------------------------------------------------------------------
# Embedding backends


@dataclass(eq=False)
class EmbeddingBackend:
    """A concrete embedding f, built from its kernel alone: the matrix
    embedding's PhaseFamily or a scalar SignEnsemble. The kernel fixes n, the
    name, is_real and the dictatorship-test constants: basis vectors have norm
    eta, and unit vectors without a large coordinate tend to at most tau.

    norm(a) evaluates ||f(a)|| for a vector (n,), or the (V,) row norms of a field
    (V, n) in one call; norm_and_gradient maps either to norms and complex-packed
    subgradients. little_op() holds f as the entries of its images: f(a) =
    little_op().apply(a).
    """

    kernel: clifford.PhaseFamily | commutative.SignEnsemble
    name: str = field(init=False)
    n: int = field(init=False)
    eta: float = field(init=False)
    tau: float = field(init=False)
    is_real: bool = field(init=False)

    def __post_init__(self):
        self.n = self.kernel.n
        if self._is_matrix:
            self.name, self.eta, self.tau, self.is_real = ("clifford", clifford.ETA,
                                                           clifford.TAU, False)
        else:
            self.name, self.eta = f"comm_{self.kernel.field}", 1.0
            self.is_real = self.kernel.field == "real"
            self.tau = commutative.REAL_LIMIT if self.is_real else commutative.COMPLEX_LIMIT

    @property
    def _is_matrix(self) -> bool:
        return isinstance(self.kernel, clifford.PhaseFamily)

    def norm(self, a):
        if self._is_matrix:
            return clifford.dictator_embedding_norm(a, self.kernel)
        return commutative.embedding_l1_norm(a, self.kernel).value

    def norm_and_gradient(self, a):
        if self._is_matrix:
            return clifford.embedding_norm_and_gradient(a, self.kernel)
        return commutative.embedding_l1_gradient(a, self.kernel)

    def little_op(self) -> solvers.LittleOperator:
        """f as the entries of its row-major images f(e_i) = kron(diag(c_i
        over rows c), G_i), G_i the i-th Clifford generator or [[1]] for a scalar
        embedding, whose rows are its exhaustive members. The matrix embedding has
        a row per parity class, in any mode: class c, of parity O_c, gives the block
        C(a o w_c), w_c = i^O_c. ||C(a o w)|| depends on w only through its parity
        class (see PhaseFamily), and the P classes weigh 1/P each, as P equal-side
        blocks average their normalized trace norms, so ||f(a)|| =
        dictator_embedding_norm(a): the operator norm and the lifted optimum are
        the family's. Every image entry is in {0, +-1, +-i}. A scalar kernel that
        is not exhaustive, and a side d = rows x block side above DENSE_DIM_CAP, are
        refused first."""
        if not self._is_matrix and self.kernel.mode != "exhaustive":
            raise ValueError(f"images need an exhaustive kernel, not {self.kernel.mode!r}")
        rows = self.kernel.parity.shape[0] if self._is_matrix else self.kernel.size
        d = rows * (2 ** ((self.n + 1) // 2) if self._is_matrix else 1)
        if d > DENSE_DIM_CAP:
            raise ValueError(f"{self.name} image side d = {d} at n={self.n} exceeds cap "
                             f"{DENSE_DIM_CAP}")
        if self._is_matrix:
            diags = np.where(self.kernel.parity, 1j, 1)
            gens = clifford.make_generators(self.n)
        else:  # the 1 x 1 case G_i = [[1]]: mask 0 and a real phase 1
            diags = commutative.exhaustive_members(self.kernel)
            gens = clifford.CliffordGenerators(self.n, 0, masks=np.zeros(self.n, int),
                                               phases=np.ones((self.n, 1)))
        data = diags.T[:, :, None] * gens.phases[:self.n, None, :]
        # row r of the block diagonal has G_i's entry at column r ^ mask, as mask < block side
        cols = np.arange(d) * d + (np.arange(d) ^ gens.masks[:self.n, None])
        return solvers.LittleOperator(self.n, d, rows=np.repeat(np.arange(self.n), d),
                                      cols=cols.ravel(), values=data.ravel())


def clifford_backend(n: int, mode: str = "exhaustive", *, seed: int | None = None,
                     sample_count: int | None = None) -> EmbeddingBackend:
    """The matrix embedding over an exact phase family. It takes the builders'
    common signature; seed is unused, and a sample_count is refused."""
    if sample_count is not None:
        raise ValueError(f"clifford phase families are exact and draw no samples, "
                         f"got sample_count={sample_count}")
    return EmbeddingBackend(clifford.build_phase_family(n, mode))


def comm_real_backend(n: int, mode: str = "exhaustive", *, seed: int | None = None,
                      sample_count: int | None = None) -> EmbeddingBackend:
    return EmbeddingBackend(commutative.SignEnsemble("real", n, mode, seed, sample_count))


def comm_complex_backend(n: int, mode: str = "exhaustive", *, seed: int | None = None,
                         sample_count: int | None = None) -> EmbeddingBackend:
    return EmbeddingBackend(commutative.SignEnsemble("complex", n, mode, seed, sample_count))


BACKEND_BUILDERS = {
    "clifford": clifford_backend,
    "comm_real": comm_real_backend,
    "comm_complex": comm_complex_backend,
}


# ---------------------------------------------------------------------------
# Completeness certificate


@dataclass
class CertificateResult:
    in_subspace: bool
    residual: float
    value: float
    passed: bool


def completeness_certificate(inst: LabelCoverInstance, labels,
                             backend: EmbeddingBackend,
                             cs: ConstraintSystem | None = None) -> CertificateResult:
    """Check that the one-hot field of the assignment lies in the constraint
    subspace and that its averaged embedding norm reaches eta."""
    if cs is None:
        cs = build_constraints(inst)
    fld = assignment_to_field(inst, labels)
    residual = constraint_residual(cs, fld)
    in_subspace = residual <= SUBSPACE_RESIDUAL_TOL
    value = float(np.mean(backend.norm(fld)))
    passed = in_subspace and value >= backend.eta - CERTIFICATE_SLACK
    return CertificateResult(in_subspace=in_subspace, residual=residual,
                             value=value, passed=passed)


# ---------------------------------------------------------------------------
# Soundness decoder


@dataclass
class DecoderParams:
    """eps is the norm-excess slack, delta the spread threshold; the magnitude
    scale is beta = delta^2 * eps^3 and candidate labels need |b_v(i)| of at
    least beta/4 (beta/(4t) for the wider auxiliary set)."""

    eps: float
    delta: float
    t: int
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise ValueError("eps must lie in (0, 1)")
        if not (0.0 < self.delta <= 1.0):
            raise ValueError("delta must lie in (0, 1]")
        if self.t < 1:
            raise ValueError("t must be >= 1")

    @property
    def beta(self) -> float:
        return self.delta**2 * self.eps**3


@dataclass
class DecodeStats:
    v0_size: int
    v0_fraction: float
    beta: float
    a1_sizes: list[int]
    a2_sizes: list[int]
    a1_bound: float
    a2_bound: float
    satisfied_fraction: float


def decode(fld, params: DecoderParams, inst: LabelCoverInstance):
    """Decode a field into an assignment.

    V0 collects vertices with ||b_v||_4 > delta*eps and ||b_v||_2 <= 1/eps;
    each such vertex samples a label uniformly from
    A1_v = {i : |b_v(i)| >= beta/4}, which is nonempty because every vertex
    in V0 has ||b_v||_inf >= beta. Vertices outside V0 get the fixed label 0.
    Returns (labels, DecodeStats).
    """
    fld = np.asarray(fld, dtype=np.complex128)
    if fld.shape != (inst.num_vertices, inst.n):
        raise ValueError(f"field shape {fld.shape} does not match instance")
    rng = np.random.default_rng(params.seed)
    mags = np.abs(fld)
    l2 = np.sqrt((mags**2).sum(axis=1))
    l4 = ((mags**4).sum(axis=1)) ** 0.25
    v0 = np.flatnonzero((l4 > params.delta * params.eps) & (l2 <= 1.0 / params.eps))

    beta = params.beta
    labels = np.zeros(inst.num_vertices, dtype=int)
    a1 = mags[v0] >= beta / 4.0
    a1_sizes = a1.sum(axis=1)
    if not a1_sizes.all():
        raise DecodeInvariantError(f"vertex {v0[np.argmin(a1_sizes)]} is in V0 but has no "
                                   f"coordinate above beta/4 = {beta / 4.0}")
    # one draw per V0 vertex in vertex order; label = the pick-th index of A1_v
    picks = rng.integers(0, a1_sizes)
    labels[v0] = np.argmax(np.cumsum(a1, axis=1) > picks[:, None], axis=1)
    a2_sizes = (mags[v0] >= beta / (4.0 * params.t)).sum(axis=1)

    stats = DecodeStats(
        v0_size=v0.size,
        v0_fraction=v0.size / inst.num_vertices,
        beta=beta,
        a1_sizes=a1_sizes.tolist(),
        a2_sizes=a2_sizes.tolist(),
        a1_bound=16.0 / (params.eps**2 * beta**2),
        a2_bound=16.0 * params.t**2 / (params.eps**2 * beta**2),
        satisfied_fraction=satisfied_fraction(inst, labels),
    )
    return labels, stats


# ---------------------------------------------------------------------------
# Norm maximization over the subspace


@dataclass
class AscentResult:
    """max_residual is the worst constraint residual max|A b| over every field
    the ascent evaluated, its accepted iterates among them."""

    value: float
    field: np.ndarray
    degenerate: bool = False
    max_residual: float = 0.0


def operator_norm_lower_bound(inst: LabelCoverInstance, backend: EmbeddingBackend, *,
                              restarts: int = DEFAULT_RESTARTS, iters: int = DEFAULT_ITERS,
                              seed: int = 0, cs: ConstraintSystem | None = None,
                              basis: SubspaceBasis | None = None) -> AscentResult:
    """Best value of E_v ||f(b_v)|| over unit-norm fields b in the constraint
    subspace H, via the fixed-point sphere ascent b <- P_H grad / ||P_H grad||
    with random restarts. A certified lower bound on the operator norm.

    The ascent runs on x = b / sqrt(|V|), whose Euclidean norm is the L2(V)
    norm of b. Starts are projected Gaussian fields and steps the normalized
    projected gradients, so every iterate stays in H without re-projection.
    """
    if cs is None:
        cs = build_constraints(inst)
    if basis is None:
        basis = subspace_basis(cs)
    shape = (inst.num_vertices, inst.n)
    if basis.dim == 0:
        return AscentResult(value=0.0, field=np.zeros(shape, dtype=np.complex128),
                            degenerate=True)
    scale = math.sqrt(inst.num_vertices)
    worst = 0.0

    def objective_and_gradient(x):
        nonlocal worst
        fld = scale * x.reshape(shape)
        worst = max(worst, constraint_residual(cs, fld))
        values, grads = backend.norm_and_gradient(fld)
        return float(np.mean(values)), basis.project(grads).reshape(-1)

    value, x = _sphere_ascent(objective_and_gradient, inst.num_vertices * inst.n,
                              complex_start=not backend.is_real, restarts=restarts,
                              iters=iters, seed=seed, project=basis.project)
    return AscentResult(value=value, field=scale * x.reshape(shape), degenerate=False,
                        max_residual=worst)
