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
    """Unitary factor U = u @ vh of the SVD, maximizing Re Tr(U* M).

    A nonsingular diagonal M (every off-diagonal entry exactly 0, no zero on
    the diagonal) has a unique polar factor, diag(m_ii / |m_ii|), returned in
    closed form; it equals u @ vh up to rounding. Every other input takes the
    SVD. The all-zero matrix is degenerate (any unitary is optimal); the
    identity is returned and a RuntimeWarning is emitted.
    """
    m = _require_square(as_matrix(m))
    if not np.any(m):
        warnings.warn("polar_unitary of an all-zero matrix is degenerate; returning identity",
                      RuntimeWarning, stacklevel=2)
        return np.eye(m.shape[0], dtype=np.complex128)
    diag = np.diag(m)
    if np.all(diag) and np.count_nonzero(m) == diag.size:
        return np.diag(diag / np.abs(diag))
    u, _, vh = np.linalg.svd(m, full_matrices=False)
    return u @ vh
