"""Dense complex linear algebra: normalized Schatten norms and the
norm-preserving rewrites complex -> Hermitian -> real symmetric.

All trace norms here are NORMALIZED: ||A||_S1 = d^-1 * sum of singular values.
The un-normalized variant is deliberately not exposed.
"""

from __future__ import annotations

import warnings

import numpy as np

from .config import HERMITIAN_TOL


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite 2-d complex array."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def _int64(values, name: str) -> np.ndarray:
    """values as int64; a value the conversion would change is refused by name."""
    raw = np.asarray(values)
    with np.errstate(invalid="ignore"):  # NaN and infinities are refused below
        out = raw.astype(np.int64)
    if np.any(out != raw):
        raise ValueError(f"{name} must hold integers, not {raw[out != raw][0]}")
    return out


def _pairs(values) -> np.ndarray:
    """values as float64 [re, im] pairs along a new trailing axis: a view of
    a C-contiguous complex128 array, so writing to it writes to values."""
    z = np.asarray(values, dtype=np.complex128, order="C")
    return z.reshape(-1).view(np.float64).reshape(*z.shape, 2)


def _from_pairs(pairs) -> np.ndarray:
    """Inverse of _pairs; keeps signed zeros, which re + 1j*im would not."""
    return np.asarray(pairs, dtype=np.float64, order="C").view(np.complex128)[..., 0]


def _complex_bincount(index, weights, length: int) -> np.ndarray:
    """np.bincount for complex weights: out[i] sums weights[index == i] in
    order from zero, for i < length."""
    out = np.empty(length, dtype=np.complex128)
    out.real = np.bincount(index, weights.real, minlength=length)
    out.imag = np.bincount(index, weights.imag, minlength=length)
    return out


def _components(count: int, u, v) -> np.ndarray:
    """The least index of each vertex's connected component in the graph on
    range(count) with an edge (u[e], v[e]) per e. Each vertex starts as its
    own root, every edge hooks the larger of its two roots under the
    smaller, and full path compression follows, until no edge joins two
    roots."""
    root = np.arange(count)
    while True:
        ru, rv = root[u], root[v]
        split = ru != rv
        if not np.any(split):
            return root
        np.minimum.at(root, np.maximum(ru, rv)[split], np.minimum(ru, rv)[split])
        while not np.array_equal(up := root[root], root):
            root = up


def _require_square(m: np.ndarray) -> np.ndarray:
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def schatten1_norm(m) -> float:
    """Normalized trace norm: the average of the singular values (square input)."""
    m = _require_square(as_matrix(m))
    s = np.linalg.svd(m, compute_uv=False)
    return float(s.sum()) / m.shape[0]


def schatten_inf_norm(m) -> float:
    """Largest singular value (any shape)."""
    m = as_matrix(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def embed_complex_as_hermitian(a) -> np.ndarray:
    """Map a square d x d matrix to the 2d x 2d Hermitian [[0, A], [A*, 0]].

    The result has eigenvalues +/- sigma_i(A).
    """
    a = _require_square(as_matrix(a))
    d = a.shape[0]
    out = np.zeros((2 * d, 2 * d), dtype=np.complex128)
    out[:d, d:] = a
    out[d:, :d] = a.conj().T
    return out


def embed_hermitian_as_real_symmetric(b) -> np.ndarray:
    """Map a Hermitian d x d matrix to the real symmetric 2d x 2d matrix
    [[Re B, Im B], [-Im B, Re B]], which has the same eigenvalues with
    doubled multiplicities.
    """
    b = _require_square(as_matrix(b))
    dev = float(np.abs(b - b.conj().T).max()) if b.size else 0.0
    if dev > HERMITIAN_TOL:
        raise ValueError(f"input is not Hermitian (max deviation {dev:.3e})")
    re, im = b.real, b.imag
    top = np.hstack([re, im])
    bottom = np.hstack([-im, re])
    return np.vstack([top, bottom])


def rho(a) -> np.ndarray:
    """Real-linear map d x d complex -> 4d x 4d real symmetric that preserves
    the normalized trace norm; singular values are quadrupled in multiplicity.
    """
    return embed_hermitian_as_real_symmetric(embed_complex_as_hermitian(a))


def polar_unitary(m) -> np.ndarray:
    """Unitary polar factors U = u @ vh of the SVD of a square matrix or of
    each block of a (..., b, b) stack, maximizing Re Tr(U* M) blockwise.

    A 1 x 1 block's factor is m / |m| in closed form. A zero block is
    degenerate (any unitary is optimal) and gets the identity block; an input
    with no nonzero entry at all also emits a RuntimeWarning.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    identity = np.eye(m.shape[-1], dtype=np.complex128)
    zero = ~np.any(m, axis=(-2, -1))
    if np.all(zero):
        warnings.warn("polar_unitary of an all-zero matrix is degenerate; returning identity",
                      RuntimeWarning, stacklevel=2)
        return np.broadcast_to(identity, m.shape).copy()
    if m.shape[-1] == 1:
        return np.divide(m, np.abs(m), out=np.ones_like(m), where=m != 0)
    u, _, vh = np.linalg.svd(m, full_matrices=False)
    out = u @ vh
    out[zero] = identity
    return out
