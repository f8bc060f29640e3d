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

The form reads A and B only inside the diagonal blocks that T's support
spans: the connected components of the index graph with edges (i, j) and
(k, l) for every entry. Every image kron(diag(c_i over c), G_i) is
block-diagonal, so lifts have many small blocks. The solver restricts T to
the block coordinates and takes its polar steps blockwise, advancing the
restarts of a chunk together.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .config import (CHUNK_ENTRIES, DEFAULT_ITERS, DEFAULT_RESTARTS, DEFAULT_TOL,
                     DENSE_DIM_CAP)
from .linalg import _components, _int64, as_matrix, polar_unitary

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
        self.indices = _int64(self.indices, "indices").reshape(-1, 4)
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128).reshape(-1)
        bad = ~np.isfinite(self.coeffs)
        if np.any(bad):
            raise ValueError(f"coeffs must be finite, not {self.coeffs[bad][0]}")
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


class _Blocks:
    """Diagonal blocks of d x d matrices found from a support: the connected
    components of the graph on range(d) with an edge (i, j) for each support
    position i*d + j. Every position of the support lies in one block.

    ``groups`` holds one (count, b) array of block indices per side b, sides
    ascending, blocks by least index, indices ascending. A block stack is a
    vector over the block coordinates, group by group and block by block in
    row-major order; ``coords`` are their flat positions i*d + j."""

    def __init__(self, d: int, groups: list[np.ndarray]):
        self.d, self.groups = d, groups
        self.coords = np.concatenate([(g[:, :, None] * d + g[:, None, :]).reshape(-1)
                                      for g in groups])

    @property
    def size(self) -> int:
        return self.coords.size

    def dense(self, stack: np.ndarray) -> np.ndarray:
        """The d x d matrix with the blocks of ``stack`` and zeros elsewhere."""
        out = np.zeros(self.d * self.d, dtype=np.complex128)
        out[self.coords] = stack
        return out.reshape(self.d, self.d)

    def spans(self):
        """(slice of a block stack, block count, side) of each side's group."""
        start = 0
        for g in self.groups:
            count, b = g.shape
            yield slice(start, start + count * b * b), count, b
            start += count * b * b

    def polar(self, m: np.ndarray) -> np.ndarray:
        """Polar factors of the blocks of each row of m, (rows, size), with one
        batched polar_unitary call per side. A side that is zero in every row
        takes identity blocks without a call."""
        out = np.empty_like(m)
        for span, count, b in self.spans():
            x = m[:, span].reshape(len(m), count, b, b)
            out[:, span] = (polar_unitary(x).reshape(len(m), -1) if np.any(x)
                            else np.tile(np.eye(b).reshape(-1), count))
        return out

    def haar(self, normals: np.ndarray) -> np.ndarray:
        """Independent Haar unitary blocks from (rows, 2, size) standard
        normals: each block of normals[:, 0] + 1j * normals[:, 1] goes to the Q
        of its QR factorization with each column scaled by the phase of R's
        diagonal entry, one batched QR per side. The blocks overwrite their
        complex normals in the returned stack."""
        out = np.empty((len(normals), self.size), dtype=np.complex128)
        out.real, out.imag = normals[:, 0], normals[:, 1]
        for span, count, b in self.spans():
            q, r = np.linalg.qr(out[:, span].reshape(len(out), count, b, b))
            diag = np.diagonal(r, axis1=-2, axis2=-1)
            q *= (diag / np.abs(diag))[..., None, :]
            out[:, span] = q.reshape(len(out), -1)
        return out


def _blocks(d: int, support) -> _Blocks:
    """Blocks of the flat positions ``support``, each named by its least index."""
    support = np.asarray(support, dtype=np.int64)
    root = _components(d, support // d, support % d)
    side = np.bincount(root, minlength=d)[root]
    order = np.lexsort((np.arange(d), root, side))
    sides = side[order]
    return _Blocks(d, [order[sides == b].reshape(-1, b) for b in np.unique(sides)])


def _tensor_blocks(tensor: NcgTensor) -> _Blocks:
    """Blocks of a tensor's support, its rows (i, j) and columns (k, l)."""
    mat = tensor.matrix
    return _blocks(tensor.d, np.union1d(np.flatnonzero(np.diff(mat.indptr)), mat.indices))


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

    T reads A and B only in the diagonal blocks its support spans, and M_B
    and P are block-diagonal too, so the solve holds A and B as block stacks
    and takes each polar step blockwise; A and B are returned as d x d
    block-diagonal unitaries. Restart r starts from B with an independent
    Haar unitary in every block, drawn from the r-th slice of 2 * size
    normals of default_rng(seed) (see _Blocks.haar), so its start depends
    neither on the chunk size nor on the number of restarts. Restarts
    advance together in chunks, and a restart stops at its first B half-step
    that moves the value by at most tol * max(1, value).
    """
    if restarts < 1 or iters < 1:
        raise ValueError("restarts and iters must be positive")
    blocks = _tensor_blocks(tensor)
    t_mat = tensor.matrix[blocks.coords][:, blocks.coords]
    t_transposed = t_mat.T
    # a chunk holds at most ten (chunk, size) complex stacks at once: A, B, a
    # product and its input, a polar step's input, u, vh and output while it
    # runs; while it draws its starts, the last chunk's A, B and two
    # products, the normals, B, and a QR's copy of its input, Q and R. Each
    # entry is two float64 entries of the CHUNK_ENTRIES budget
    chunk = max(1, CHUNK_ENTRIES // (20 * blocks.size))
    rng = np.random.default_rng(seed)
    best = None
    histories = []
    for first in range(0, restarts, chunk):
        count = min(chunk, restarts - first)
        b_stack = blocks.haar(rng.normal(size=(count, 2, blocks.size)))
        a_stack = np.empty_like(b_stack)
        runs = [[] for _ in range(count)]
        prev = np.full(count, -np.inf)
        active = np.arange(count)
        for _ in range(iters):
            # m is M_B, then P; each history value sums a contiguous row as
            # the dense form sums its d x d matrix
            m = np.ascontiguousarray((t_mat @ b_stack[active].conj().T).T)
            a_mat = blocks.polar(m.conj())
            a_values = np.abs(np.sum(a_mat * m, axis=1))
            m = np.ascontiguousarray((t_transposed @ a_mat.T).T)
            a_stack[active] = a_mat
            del a_mat
            b_mat = blocks.polar(m)
            values = np.abs(np.sum(m * b_mat.conj(), axis=1))
            b_stack[active] = b_mat
            for r, x, y in zip(active.tolist(), a_values.tolist(), values.tolist()):
                runs[r].extend((x, y))
            done = np.abs(values - prev[active]) <= tol * np.maximum(1.0, values)
            prev[active] = values
            active = active[~done]
            if not active.size:
                break
        histories += runs
        for r in range(count):
            if best is None or prev[r] > best[0]:
                best = (float(prev[r]), a_stack[r].copy(), b_stack[r].copy())
    value, a_blocks, b_blocks = best
    a_mat, b_mat = blocks.dense(a_blocks), blocks.dense(b_blocks)
    return NcgResult(value=value, a=a_mat, b=b_mat, histories=histories,
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
    value, and g = 0 only where f(z) = Re<g, z> = 0, a value z attains. A
    restart stops at such a z, and at the first step that does not raise the
    value, so each iteration makes one evaluation.
    """
    if restarts < 1 or iters < 1:
        raise ValueError("restarts and iters must be positive")
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
            if not np.any(grad):
                break
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
    (F*(U) is the trace-norm subgradient at a). F(a) is evaluated as the stack
    of the diagonal blocks that the images' union support spans, and U is
    taken blockwise.

    Returns (value, maximizing vector).
    """
    images = op.images.reshape(op.n, -1)
    blocks = _blocks(op.d, np.flatnonzero(np.any(images, axis=0)))
    images = images[:, blocks.coords]

    def norm_and_grad(a):
        m = (a @ images)[None]
        u = blocks.polar(m)
        value = float(np.sum(u.conj() * m).real) / op.d
        # complex-packed subgradient: F* of the polar factor
        return value, images.conj() @ u[0] / op.d

    return _sphere_ascent(norm_and_grad, op.n, complex_start=True, restarts=restarts,
                          iters=iters, seed=seed)
