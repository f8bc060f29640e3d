"""Lifting operator-norm problems into four-index bilinear forms over pairs
of unitaries, and a heuristic alternating maximizer for the latter.

A little operator F: C^n -> (d x d matrices, normalized trace norm) is given
by its images f(e_1)..f(e_n). With the inner product <X, Y> = d^-1 Tr(X* Y)
its adjoint sends a matrix A to the vector u with u_m = d^-1 Tr(f(e_m)* A),
and the lifted tensor

    T_{ijkl} = d^-2 sum_m conj(f(e_m)_{ij}) f(e_m)_{kl}

represents T(A, B) = <F*(A), F*(B)> as the contraction
sum T_{ijkl} A_{ij} conj(B_{kl}), held as one sparse (d^2 x d^2) matrix with
rows i*d+j and columns k*d+l. Its optimum over pairs of unitaries equals
||F||^2, so alternating closed-form polar steps on T give certified lower
bounds for the squared operator norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .config import DEFAULT_ITERS, DEFAULT_RESTARTS, DEFAULT_TOL, DENSE_DIM_CAP
from .linalg import as_matrix, polar_unitary

# Largest sum_m nnz(f(e_m))^2, the bound on the lifted tensor's nonzeros.
LIFT_CAP = 1 << 22


@dataclass(eq=False)
class LittleOperator:
    """Linear map into d x d matrices, stored as the images of basis vectors."""

    images: np.ndarray  # (n, d, d) complex

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.complex128)
        if self.images.ndim != 3 or self.images.shape[1] != self.images.shape[2]:
            raise ValueError("images must be a stack of square matrices")

    @property
    def n(self) -> int:
        return self.images.shape[0]

    @property
    def d(self) -> int:
        return self.images.shape[1]

    def apply(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=np.complex128).reshape(-1)
        if a.size != self.n:
            raise ValueError("vector length does not match operator")
        return np.tensordot(a, self.images, axes=(0, 0))


def adjoint_apply(op: LittleOperator, a_mat) -> np.ndarray:
    """F*(A): the vector u with <u, a> = <A, F(a)> for every a, both inner
    products taken with the d^-1 Tr normalization on matrices."""
    a_mat = as_matrix(a_mat)
    if a_mat.shape != (op.d, op.d):
        raise ValueError(f"matrix shape {a_mat.shape} does not match operator d={op.d}")
    return np.einsum("mij,ij->m", op.images.conj(), a_mat) / op.d


@dataclass(eq=False)
class NcgTensor:
    """Sparse four-index coefficient array of a bilinear form over pairs of
    d x d matrices, evaluated as sum T_{ijkl} A_{ij} conj(B_{kl}).

    ``matrix`` holds the same entries as a (d^2 x d^2) CSR matrix with rows
    i*d+j and columns k*d+l, so T(A, B) = vec(A)^T T conj(vec(B))."""

    d: int
    indices: np.ndarray  # (nnz, 4) int
    coeffs: np.ndarray  # (nnz,) complex
    matrix: scipy.sparse.csr_matrix = field(init=False, repr=False)

    def __post_init__(self):
        if not 1 <= self.d <= DENSE_DIM_CAP:
            raise ValueError(f"tensor dimension d = {self.d} outside [1, {DENSE_DIM_CAP}]")
        self.indices = np.asarray(self.indices, dtype=np.int64).reshape(-1, 4)
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128).reshape(-1)
        if self.indices.shape[0] != self.coeffs.shape[0]:
            raise ValueError("index and coefficient counts differ")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= self.d):
            raise ValueError("tensor index out of range")
        i, j, k, l = self.indices.T
        # building the CSR matrix sums duplicates, so a repeated quadruple
        # shows as fewer stored entries
        self.matrix = scipy.sparse.csr_matrix(
            (self.coeffs, (i * self.d + j, k * self.d + l)), shape=(self.d**2, self.d**2))
        if self.matrix.nnz != self.nnz:
            raise ValueError("duplicate index quadruples")

    @property
    def nnz(self) -> int:
        return self.coeffs.shape[0]


def tensor_from_matrix(m) -> NcgTensor:
    """Commutative special case: T_{iijj} = M_{ij}, zeros elsewhere, so the
    bilinear form only sees the diagonals of its unitary arguments."""
    m = as_matrix(m)
    i, j = np.nonzero(m)
    return NcgTensor(d=m.shape[0], indices=np.stack([i, i, j, j], axis=1), coeffs=m[i, j])


def lift_little_to_big(op: LittleOperator) -> NcgTensor:
    """Tensor of the bilinear form (A, B) -> <F*(A), F*(B)>, computed as the
    sparse product F^H F / d^2 of the (n, d^2) stack F of vectorized images.
    Entries come in (i, j, k, l) lexicographic order without exact zeros."""
    f = scipy.sparse.csr_matrix(op.images.reshape(op.n, op.d**2))
    size = int(np.sum(np.diff(f.indptr) ** 2))
    if size > LIFT_CAP:
        raise ValueError(f"lift size sum_m nnz(f_m)^2 = {size} exceeds cap {LIFT_CAP}")
    t = (f.conj().T @ f).tocsr()
    t.sort_indices()
    coeffs = t.data / op.d**2
    keep = coeffs != 0
    rows = np.repeat(np.arange(op.d**2), np.diff(t.indptr))[keep]
    cols = t.indices[keep]
    indices = np.stack([rows // op.d, rows % op.d, cols // op.d, cols % op.d], axis=1)
    return NcgTensor(d=op.d, indices=indices, coeffs=coeffs[keep])


@dataclass
class NcgResult:
    value: float
    a: np.ndarray
    b: np.ndarray
    histories: list[list[float]] = field(default_factory=list)
    unitarity_residual_a: float = 0.0
    unitarity_residual_b: float = 0.0


def _haar_unitary(d: int, rng) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _unitarity_residual(u: np.ndarray) -> float:
    return float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())


def ncg_opt_lower_bound(tensor: NcgTensor, *, restarts: int = DEFAULT_RESTARTS,
                        iters: int = DEFAULT_ITERS, tol: float = DEFAULT_TOL,
                        seed: int = 0) -> NcgResult:
    """Alternating maximization of |sum T_{ijkl} A_{ij} conj(B_{kl})| over
    pairs of unitaries.

    With B fixed the objective is |<A-entries, M_B>| and the exact argmax is
    the polar unitary of conj(M_B), achieving the un-normalized singular
    value sum of M_B; symmetrically for B with P = T^T vec(A). Each half-step
    is therefore an exact maximization over a compact set and the objective
    value never decreases along a run. The result is a certified lower bound
    (the problem is nonconvex; no optimality claim), with per-restart
    half-step value histories for monotonicity audits; each history value
    reuses its half-step's contraction, |sum A o M_B| or |sum P o conj(B)|.
    """
    d, t_mat, t_transposed = tensor.d, tensor.matrix, tensor.matrix.T
    rng = np.random.default_rng(seed)
    best = None
    histories = []
    for _ in range(restarts):
        b_mat = _haar_unitary(d, rng)
        a_mat = np.eye(d, dtype=np.complex128)
        history = []
        prev = -np.inf
        for _ in range(iters):
            m_b = (t_mat @ b_mat.conj().reshape(-1)).reshape(d, d)
            if np.any(m_b):
                a_mat = polar_unitary(np.conj(m_b))
            history.append(float(np.abs(np.sum(a_mat * m_b))))
            p = (t_transposed @ a_mat.reshape(-1)).reshape(d, d)
            if np.any(p):
                b_mat = polar_unitary(p)
            value = float(np.abs(np.sum(p * np.conj(b_mat))))
            history.append(value)
            if abs(value - prev) <= tol * max(1.0, abs(value)):
                prev = value
                break
            prev = value
        histories.append(history)
        if best is None or prev > best[0]:
            best = (prev, a_mat, b_mat)
    value, a_mat, b_mat = best
    return NcgResult(value=float(value), a=a_mat, b=b_mat, histories=histories,
                     unitarity_residual_a=_unitarity_residual(a_mat),
                     unitarity_residual_b=_unitarity_residual(b_mat))


def _sphere_ascent(norm_and_grad, dim: int, *, complex_start: bool, restarts: int,
                   iters: int, seed: int, project=None):
    """Best (value, point) over restarts of the fixed-point ascent z <- g / ||g||
    on the unit sphere of C^dim, given z -> (value f(z), complex-packed
    gradient g). Starts draw normal(dim), then + 1j * normal(dim) when
    complex_start, and pass through project when given; the ascent then stays
    in project's range as long as the gradients do.

    For a convex 1-homogeneous f, with g its gradient projected into the
    range, Euler's identity f(z) = Re<g, z> and the subgradient inequality
    f(z') >= Re<g, z'> give, for unit z in the range and z' = g / ||g||,
    f(z) = Re<g, z> <= ||g|| = Re<g, z'> <= f(z'): a step never lowers the
    value, and g != 0 wherever f(z) > 0. A restart stops at the first step
    that does not raise the value, so each iteration makes one evaluation.
    """
    rng = np.random.default_rng(seed)
    best_value, best_z = -np.inf, None
    for _ in range(restarts):
        z = rng.normal(size=dim)
        if complex_start:
            z = z + 1j * rng.normal(size=dim)
        if project is not None:
            z = project(z)
        z = z / np.linalg.norm(z)
        value, grad = norm_and_grad(z)
        for _ in range(iters):
            cand = grad / np.linalg.norm(grad)
            cand_value, grad = norm_and_grad(cand)
            if cand_value <= value:
                break
            z, value = cand, cand_value
        if value > best_value:
            best_value, best_z = value, z
    return float(best_value), best_z


def little_norm_lower_bound(op: LittleOperator, *, restarts: int = DEFAULT_RESTARTS,
                            iters: int = DEFAULT_ITERS, seed: int = 0):
    """Heuristic lower bound on sup_{||a||=1} ||F(a)||_S1 by the fixed-point
    sphere ascent a <- F*(U) / ||F*(U)||, with U the polar factor of F(a)
    (F*(U) is the trace-norm subgradient at a).

    Returns (value, maximizing vector).
    """
    def norm_and_grad(a):
        m = op.apply(a)
        u, s, vh = np.linalg.svd(m)
        value = float(s.sum()) / op.d
        # complex-packed subgradient: F* of the polar factor
        return value, adjoint_apply(op, u @ vh)

    return _sphere_ascent(norm_and_grad, op.n, complex_start=True, restarts=restarts,
                          iters=iters, seed=seed)
