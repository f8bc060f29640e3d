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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.linalg.lapack
import scipy.sparse

from . import clifford, commutative
from .config import (CERTIFICATE_SLACK, DEFAULT_ITERS, DEFAULT_RESTARTS,
                     SUBSPACE_RESIDUAL_TOL)
from .labelcover import LabelCoverInstance, check_assignment, satisfied_fraction
from .solvers import _sphere_ascent


class DecodeInvariantError(RuntimeError):
    """A vertex in V0 produced an empty candidate label set, which the large-
    coordinate bound rules out; indicates inconsistent decoder parameters."""


# ---------------------------------------------------------------------------
# Constraint subspace


@dataclass(eq=False)
class ConstraintSystem:
    """Sparse homogeneous system over fields, one row per (edge, small label).

    Row (e=(u,v), j) holds +1 on columns (u, i) for i in pi_eu^-1(j) and -1 on
    (v, i) for i in pi_ev^-1(j); the column of (v, i) is v*n + i.
    """

    matrix: scipy.sparse.csr_matrix
    rows: list[tuple[int, int]]
    num_vertices: int
    n: int
    k: int


def build_constraints(inst: LabelCoverInstance) -> ConstraintSystem:
    num_edges, n, k = inst.num_edges, inst.n, inst.k
    # axes (edge, side, label): label i on side s of edge e is an entry in row
    # e*k + pi_s(i) and column (endpoint s)*n + i, +1 for side u and -1 for v
    row_idx = np.arange(num_edges).reshape(-1, 1, 1) * k + inst.pis
    col_idx = inst.ends[:, :, None] * n + np.arange(n)
    data = np.broadcast_to(np.array([1.0, -1.0]).reshape(1, 2, 1), row_idx.shape)
    shape = (num_edges * k, inst.num_vertices * n)
    matrix = scipy.sparse.csr_matrix((data.ravel(), (row_idx.ravel(), col_idx.ravel())),
                                     shape=shape)
    rows = list(itertools.product(range(num_edges), range(k)))
    return ConstraintSystem(matrix=matrix, rows=rows,
                            num_vertices=inst.num_vertices, n=n, k=k)


@dataclass(eq=False)
class SubspaceBasis:
    """Orthonormal basis of the constraint nullspace under the vertex-averaged
    inner product <u, w> = E_v <u_v, w_v>.

    Columns are real (the constraints are real); complex coordinates span the
    complex subspace. ||basis @ z||_{L2(V)} = ||z||_2 for any complex z.
    """

    basis: np.ndarray  # (num_vertices * n, dim), real
    num_vertices: int
    n: int

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def to_field(self, coords) -> np.ndarray:
        return _real_times_complex(self.basis, coords).reshape(self.num_vertices, self.n)

    def coords_of(self, fld) -> np.ndarray:
        return _real_times_complex(self.basis.T, fld) / self.num_vertices

    def project(self, fld) -> np.ndarray:
        return self.to_field(self.coords_of(fld))


def _real_times_complex(matrix: np.ndarray, vec) -> np.ndarray:
    """matrix @ vec for a real matrix and a complex vector (flattened), as one
    real product with the (len, 2) float64 view of vec, so that the matrix is
    not copied to complex."""
    pairs = np.ascontiguousarray(vec, dtype=np.complex128).reshape(-1).view(np.float64)
    return (matrix @ pairs.reshape(-1, 2)).view(np.complex128).reshape(-1)


def subspace_basis(cs: ConstraintSystem) -> SubspaceBasis:
    """Orthonormal basis of the constraint nullspace, from a pivoted Cholesky
    factorization of the Gram matrix G = A^T A.

    Let g = max_i sum_j |G_ij| (a Gershgorin bound on the largest eigenvalue).
    The factorization stops at the first pivot below the rounding floor
    dim*eps*g, and the number of accepted pivots is the rank. Because G
    squares the singular values of A, a last accepted pivot below the rank
    gap sqrt(eps)*g leaves the numerical rank ambiguous, and the basis must
    meet SUBSPACE_RESIDUAL_TOL in constraint residual and orthonormality. A
    basis that fails either test is recomputed from the full eigensolve of G,
    and only its failure raises a ValueError naming the check. The basis is a
    function of the subspace alone (see the rotation below), so ascents
    started from it do not depend on how it was computed.
    """
    for cholesky in (True, False):
        basis, problem = _null_space_basis(cs, cholesky=cholesky)
        if problem is None:
            return SubspaceBasis(basis=basis, num_vertices=cs.num_vertices, n=cs.n)
    raise ValueError(problem)


def _cholesky_null_vectors(gram: np.ndarray, floor: float, gap: float):
    """Orthonormal null vectors of the PSD matrix gram from its pivoted
    Cholesky factor, or (None, message) if the last accepted pivot lies
    between floor and gap. gram is overwritten."""
    # P^T G P = L L^T, stopped after `rank` pivots; a Fortran-ordered gram is
    # factored in place
    factor, piv, rank, _ = scipy.linalg.lapack.dpstrf(gram, tol=floor, lower=1,
                                                      overwrite_a=1)
    last = factor[rank - 1, rank - 1] ** 2
    if last <= gap:
        return None, (f"pivoted Cholesky of the constraint Gram matrix accepted pivot "
                      f"{last:.3e} between the null floor {floor:.3e} and the rank gap "
                      f"{gap:.3e}; the numerical rank is ambiguous")
    # in pivot order the null vectors are [-X; I] with L11^T X = L21^T
    x = scipy.linalg.solve_triangular(factor[:rank, :rank], factor[rank:, :rank].T,
                                      lower=True, trans="T", check_finite=False)
    kernel = np.empty((gram.shape[0], gram.shape[0] - rank))
    kernel[piv[:rank] - 1] = -x
    kernel[piv[rank:] - 1] = np.eye(kernel.shape[1])
    # K^T K = I + X^T X has eigenvalues >= 1: K R^-1 is orthonormal
    upper = scipy.linalg.cholesky(np.eye(kernel.shape[1]) + x.T @ x, check_finite=False)
    return scipy.linalg.solve_triangular(upper, kernel.T, trans="T",
                                         check_finite=False).T, None


def _eigh_null_vectors(gram: np.ndarray, floor: float, gap: float):
    """Eigenvectors of gram for its eigenvalues up to gap, or (None, message)
    if one lies between floor and gap. gram is overwritten."""
    values, vectors = scipy.linalg.eigh(gram, overwrite_a=True, check_finite=False)
    values, vectors = values[values <= gap], vectors[:, values <= gap]
    if values.size and values[-1] > floor:
        return None, (f"constraint Gram matrix has eigenvalue {values[-1]:.3e} between "
                      f"the null floor {floor:.3e} and the rank gap {gap:.3e}; "
                      "the numerical rank is ambiguous")
    return vectors, None


def _null_space_basis(cs: ConstraintSystem, *, cholesky: bool):
    """(basis, None) from the pivoted Cholesky factorization or the full
    eigensolve of the Gram matrix, or (None, message) naming the check the
    basis failed."""
    dim_total = cs.num_vertices * cs.n
    gram = cs.matrix.T @ cs.matrix
    g = float(abs(gram).sum(axis=1).max())
    if g == 0.0:
        euclidean = np.eye(dim_total)
    else:
        eps = np.finfo(np.float64).eps
        floor, gap = dim_total * eps * g, math.sqrt(eps) * g
        null_vectors = _cholesky_null_vectors if cholesky else _eigh_null_vectors
        euclidean, problem = null_vectors(gram.toarray(order="F"), floor, gap)
        if problem is not None:
            return None, problem
        # Any orthonormal basis of the null space is arbitrary and moves with
        # rounding, e.g. with the BLAS thread count or the solver. Rotate it
        # to the polar factor of the projected fixed probe P @ probe, which
        # depends on the subspace alone.
        probe = np.random.default_rng(0).standard_normal((dim_total, euclidean.shape[1]))
        left, _, right = np.linalg.svd(euclidean.T @ probe)
        euclidean = euclidean @ (left @ right)
    # Euclidean-orthonormal columns scaled by sqrt(|V|) are orthonormal under
    # the vertex-averaged inner product.
    basis = euclidean * math.sqrt(cs.num_vertices)
    residual = float(np.abs(cs.matrix @ basis).max(initial=0.0))
    gram_error = float(np.abs(euclidean.T @ euclidean - np.eye(euclidean.shape[1]))
                       .max(initial=0.0))
    if max(residual, gram_error) > SUBSPACE_RESIDUAL_TOL:
        return None, (f"constraint subspace basis has residual {residual:.3e} and "
                      f"orthonormality error {gram_error:.3e}, above "
                      f"{SUBSPACE_RESIDUAL_TOL:g}")
    return basis, None


def field_l2_norm(fld) -> float:
    """Vertex-averaged norm sqrt(E_v ||b_v||_2^2)."""
    fld = np.asarray(fld, dtype=np.complex128)
    return float(np.sqrt(np.mean(np.sum(np.abs(fld) ** 2, axis=1))))


def constraint_residual(cs: ConstraintSystem, fld) -> float:
    flat = np.asarray(fld, dtype=np.complex128).reshape(-1)
    if cs.matrix.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(cs.matrix @ flat)))


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
    """A concrete embedding f with its dictatorship-test constants.

    kernel is the matrix embedding's PhaseFamily or a scalar SignEnsemble.
    norm(a) evaluates ||f(a)|| for a vector (n,), or the (V,) row norms of
    a field (V, n) in one call; norm_and_gradient maps either to norms and
    complex-packed subgradients.
    bound(a) is the analytic upper bound on norm(a); delta(eps), for the
    matrix embedding, is the spread threshold paired with (eta, tau).
    """

    name: str
    n: int
    eta: float
    tau: float
    is_real: bool
    kernel: clifford.PhaseFamily | commutative.SignEnsemble

    @property
    def _is_matrix(self) -> bool:
        return isinstance(self.kernel, clifford.PhaseFamily)

    def norm(self, a):
        if self._is_matrix:
            return clifford.dictator_embedding_norm(a, self.kernel).value
        return commutative.embedding_l1_norm(a, self.kernel).value

    def norm_and_gradient(self, a):
        if self._is_matrix:
            return clifford.embedding_norm_and_gradient(a, self.kernel)
        return commutative.embedding_l1_gradient(a, self.kernel)

    def bound(self, a) -> float:
        if self._is_matrix:
            return clifford.embedding_norm_bound(a)
        return float(np.linalg.norm(np.asarray(a).reshape(-1)))

    def delta(self, eps: float) -> float:
        if not self._is_matrix:
            raise ValueError(f"backend {self.name!r} has no derived spread threshold; "
                             "pass delta explicitly")
        return clifford.EmbeddingSpec(n=self.n).delta(eps)


def clifford_backend(n: int, mode: str = "exhaustive", *, seed: int | None = None,
                     sample_count: int | None = None) -> EmbeddingBackend:
    family = clifford.build_phase_family(n, mode, seed=seed, sample_count=sample_count)
    spec = clifford.EmbeddingSpec(n=n)
    return EmbeddingBackend(name="clifford", n=n, eta=spec.eta, tau=spec.tau,
                            is_real=False, kernel=family)


def _comm_backend(n: int, fld: str, tau: float, mode: str, seed, sample_count) -> EmbeddingBackend:
    ens = commutative.SignEnsemble(field=fld, n=n, mode=mode, seed=seed,
                                   sample_count=sample_count)
    return EmbeddingBackend(name=f"comm_{fld}", n=n, eta=1.0, tau=tau,
                            is_real=(fld == "real"), kernel=ens)


def comm_real_backend(n: int, mode: str = "exhaustive", *, seed: int | None = None,
                      sample_count: int | None = None) -> EmbeddingBackend:
    return _comm_backend(n, "real", commutative.REAL_LIMIT, mode, seed, sample_count)


def comm_complex_backend(n: int, mode: str = "exhaustive", *, seed: int | None = None,
                         sample_count: int | None = None) -> EmbeddingBackend:
    return _comm_backend(n, "complex", commutative.COMPLEX_LIMIT, mode, seed, sample_count)


BACKEND_BUILDERS = {
    "clifford": clifford_backend,
    "comm_real": comm_real_backend,
    "comm_complex": comm_complex_backend,
}


def apply_norm_F(fld, backend: EmbeddingBackend) -> float:
    """||F(b)||_{L1} = E_v ||f(b_v)||."""
    fld = np.asarray(fld, dtype=np.complex128)
    if fld.ndim != 2 or fld.shape[1] != backend.n:
        raise ValueError(f"field shape {fld.shape} does not match backend n={backend.n}")
    return float(np.mean(backend.norm(fld)))


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
    value = apply_norm_F(fld, backend)
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
        if self.beta > self.delta:
            raise ValueError("beta = delta^2 eps^3 exceeds delta; parameters inconsistent")

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
    in_v0 = (l4 > params.delta * params.eps) & (l2 <= 1.0 / params.eps)

    beta = params.beta
    labels = np.zeros(inst.num_vertices, dtype=int)
    a1_sizes, a2_sizes = [], []
    for v in np.flatnonzero(in_v0):
        a1 = np.flatnonzero(mags[v] >= beta / 4.0)
        if a1.size == 0:
            raise DecodeInvariantError(
                f"vertex {v} is in V0 but has no coordinate above beta/4 = {beta / 4.0}")
        a2 = np.flatnonzero(mags[v] >= beta / (4.0 * params.t))
        a1_sizes.append(int(a1.size))
        a2_sizes.append(int(a2.size))
        labels[v] = int(a1[rng.integers(0, a1.size)])

    v0_size = int(in_v0.sum())
    stats = DecodeStats(
        v0_size=v0_size,
        v0_fraction=v0_size / inst.num_vertices,
        beta=beta,
        a1_sizes=a1_sizes,
        a2_sizes=a2_sizes,
        a1_bound=16.0 / (params.eps**2 * beta**2),
        a2_bound=16.0 * params.t**2 / (params.eps**2 * beta**2),
        satisfied_fraction=satisfied_fraction(inst, labels),
    )
    return labels, stats


# ---------------------------------------------------------------------------
# Norm maximization over the subspace


@dataclass
class AscentResult:
    value: float
    field: np.ndarray
    degenerate: bool = False
    restarts_run: int = 0


def _objective_and_gradient(coords, basis: SubspaceBasis, backend: EmbeddingBackend):
    """h(z) = E_v ||f((basis @ z)_v)|| and its complex-packed gradient in z."""
    values, grads = backend.norm_and_gradient(basis.to_field(coords))
    # chain rule onto coordinates; basis is real so a plain transpose suffices
    grad_coords = _real_times_complex(basis.basis.T, grads / basis.num_vertices)
    if backend.is_real:
        grad_coords = grad_coords.real.astype(np.complex128)
    return float(np.mean(values)), grad_coords


def operator_norm_lower_bound(inst: LabelCoverInstance, backend: EmbeddingBackend, *,
                              restarts: int = DEFAULT_RESTARTS, iters: int = DEFAULT_ITERS,
                              seed: int = 0, cs: ConstraintSystem | None = None,
                              basis: SubspaceBasis | None = None) -> AscentResult:
    """Best value of E_v ||f(b_v)|| over unit-norm fields b in the constraint
    subspace, via projected subgradient ascent with backtracking line search
    and random restarts. A certified lower bound on the operator norm.
    """
    if cs is None:
        cs = build_constraints(inst)
    if basis is None:
        basis = subspace_basis(cs)
    if basis.dim == 0:
        return AscentResult(value=0.0,
                            field=np.zeros((inst.num_vertices, inst.n), dtype=np.complex128),
                            degenerate=True)
    value, coords = _sphere_ascent(
        lambda z: _objective_and_gradient(z, basis, backend), basis.dim,
        complex_start=not backend.is_real, restarts=restarts, iters=iters, seed=seed)
    return AscentResult(value=value, field=basis.to_field(coords),
                        degenerate=False, restarts_run=restarts)
