"""Anticommuting Pauli-string generators and the phase-averaged matrix
embedding built on them.

The pieces, in dependency order:

* generators ``C_1 .. C_{2m}`` (``m = ceil(n/2)``): Hermitian, unitary,
  trace-zero matrices of size ``2^m`` that pairwise anticommute, assembled
  as ``Z x ... x Z x {X or Y} x I x ... x I``;
* the linear map ``C(a) = a_1 C_1 + ... + a_n C_n``;
* the parallelogram area ``L(a)`` spanned by ``Re a`` and ``Im a``, which
  controls the two-level singular value split of ``C(a)``;
* the exact trace-norm formula
  ``||C(a)||_S1 = (sqrt(s + 2 L) + sqrt(s - 2 L)) / 2`` with ``s = ||a||_2^2``;
* phase families over ``{1, i, -1, -i}^n`` (exhaustive, pairwise independent,
  or sampled), held as their weighted parity classes, and the phase-averaged
  embedding norm ``E_w ||C(a o w)||_S1``, which equals the trace norm of the
  direct sum ``(+)_w C(a o w)`` because equal-size blocks average;
* the dictatorship-test constants ETA, TAU and spread_threshold(eps).

Only ``lift`` builds a direct sum, one block per parity class, through
``reduction.EmbeddingBackend.little_op`` (side 2^n * 2^m for the exhaustive
family, within DENSE_DIM_CAP for n <= 6); everything else uses the formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import config
from .config import DENSE_DIM_CAP, ENUMERATION_CAP

PAULI_I = np.eye(2, dtype=np.complex128)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)

PHASE_VALUES = np.array([1, 1j, -1, -1j], dtype=np.complex128)

# Temporaries the batch kernel holds at once, counted in (rows, P) arrays:
# the traced peaks are 12.5 of them at P = 64 (exhaustive n=6) and 12.0 at
# P = 62409 (Monte Carlo n=16, standard errors included).
_GRADIENT_LIVE = 13


@dataclass
class CliffordGenerators:
    """The 2*ceil(n/2) anticommuting generator matrices for n coordinates."""

    n: int
    m: int
    matrices: list[np.ndarray]

    @property
    def dim(self) -> int:
        return 2**self.m


def _kron_chain(factors) -> np.ndarray:
    out = np.eye(1, dtype=np.complex128)
    for f in factors:
        out = np.kron(out, f)
    return out


def make_generators(n: int) -> CliffordGenerators:
    """Build the 2*ceil(n/2) Pauli-string generators for n coordinates.

    Pair j contributes Z^(j-1) x X x I^(m-j) and Z^(j-1) x Y x I^(m-j).
    Entries are exactly in {0, +-1, +-i}. A side 2^m above DENSE_DIM_CAP is
    refused before the first matrix is built (n <= 18 passes).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m = (n + 1) // 2
    if m >= DENSE_DIM_CAP.bit_length():  # 2^m > DENSE_DIM_CAP, without the power
        raise ValueError(f"generator side 2^{m} exceeds cap {DENSE_DIM_CAP}")
    matrices = []
    for j in range(1, m + 1):
        prefix = [PAULI_Z] * (j - 1)
        suffix = [PAULI_I] * (m - j)
        matrices.append(_kron_chain(prefix + [PAULI_X] + suffix))
        matrices.append(_kron_chain(prefix + [PAULI_Y] + suffix))
    return CliffordGenerators(n=n, m=m, matrices=matrices)


def clifford_map(a, gens: CliffordGenerators) -> np.ndarray:
    """C(a) = sum_j a_j C_j. Linear in a; Hermitian with C(x)^2 = ||x||^2 I
    for real x."""
    a = np.asarray(a, dtype=np.complex128).reshape(-1)
    if a.size != gens.n:
        raise ValueError(f"vector length {a.size} does not match generator count n={gens.n}")
    out = np.zeros((gens.dim, gens.dim), dtype=np.complex128)
    for coeff, c in zip(a, gens.matrices):
        out += coeff * c
    return out


def parallelogram(a) -> float:
    """Area of the parallelogram spanned by Re(a) and Im(a)."""
    a = np.asarray(a, dtype=np.complex128).reshape(-1)
    x, y = a.real, a.imag
    # >= 0 by Cauchy-Schwarz; a negative value is rounding
    return math.sqrt(max(float((x @ x) * (y @ y) - (x @ y) ** 2), 0.0))


def trace_norm_formula(a) -> float:
    """Closed form for ||C(a)||_S1: (sqrt(s + 2L) + sqrt(s - 2L)) / 2 with
    s = ||a||_2^2 and L the parallelogram area. Restricted to real vectors
    this is just ||a||_2 (L = 0), i.e. the map is a real isometry."""
    a = np.asarray(a, dtype=np.complex128).reshape(-1)
    s = float(np.sum(np.abs(a) ** 2))
    lam = parallelogram(a)  # s >= 2 ||x|| ||y|| >= 2L, so s - 2L < 0 is rounding
    return 0.5 * math.sqrt(s + 2 * lam) + 0.5 * math.sqrt(max(s - 2 * lam, 0.0))


@dataclass
class PhaseFamily:
    """A uniformly weighted family of ``size`` phase vectors w in
    {1, i, -1, -i}^n, held as its parity classes.

    exhaustive: all 4^n members.
    pairwise_independent: affine Z4 evaluations; every coordinate pair is
        exactly uniform over the 16 phase pairs, with only O(n^2) members.
    monte_carlo: seeded i.i.d. samples.

    Every average below depends on a member only through its parity
    pattern O_j = [w_j imaginary]: (Re, Im) of a_j w_j is +-(x_j, y_j) for
    w_j = +-1 and +-(-y_j, x_j) for w_j = +-i, and the sign cancels in the
    sums p, q, r (see _pqr). parity keeps the P distinct patterns and
    class_weights the share of members in each; P = 64 for the 4096-member
    exhaustive family at n=6.
    """

    mode: str
    n: int
    size: int  # members
    parity: np.ndarray = field(repr=False)  # (P, n), 1.0 where w_j is imaginary
    class_weights: np.ndarray = field(repr=False)  # (P,) summing to 1
    even: np.ndarray = field(init=False, repr=False)  # (P, n), 1 - parity
    sign: np.ndarray = field(init=False, repr=False)  # (P, n), even - parity

    def __post_init__(self):
        # the kernels' other two (P, n) factors, kept so that no call rebuilds them
        self.even = 1.0 - self.parity
        self.sign = self.even - self.parity


def build_phase_family(n: int, mode: str = "exhaustive", *, seed: int | None = None,
                       sample_count: int | None = None) -> PhaseFamily:
    """The family's parity classes, grouped from 0/1 parity rows of weight
    1/rows each: one row per sampled member (monte_carlo), or one per parity
    x in {0,1}^k of the members' k free Z4 digits (exact modes), which
    stands for 2^k of the 4^k members.

    exhaustive: k = n and the row is x.
    pairwise_independent: coordinate j has tag c_j, its binary digits in
        {0,1}^r, and member (u, b) in Z4^r x Z4 assigns exponent
        (c_j . u + b) mod 4, so any two distinct coordinates, differing in a
        +-1 entry of their tags, are exactly uniform over Z4 x Z4. Its
        parity (c_j . u' + b') mod 2 needs only the parities x = (u', b'),
        so k = r + 1.

    An exact family is refused when its 2^k x n rows exceed ENUMERATION_CAP,
    before any row exists.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if mode == "monte_carlo":
        if sample_count is None or sample_count < 1:
            raise ValueError("monte_carlo mode requires a positive sample_count")
        size = sample_count
        odd = np.random.default_rng(seed).integers(0, 4, size=(size, n)) % 2 == 1
    elif mode in ("exhaustive", "pairwise_independent"):
        k = n if mode == "exhaustive" else max(1, (n - 1).bit_length()) + 1
        if k >= ENUMERATION_CAP.bit_length() or 2**k * n > ENUMERATION_CAP:
            raise ValueError(f"{mode} family rows 2^{k} x n={n} exceed cap {ENUMERATION_CAP}")
        size = 4**k
        # row x, over every x in {0,1}^k
        odd = ((np.arange(2**k)[:, None] >> np.arange(k - 1, -1, -1)) & 1).astype(bool)
        if mode == "pairwise_independent":
            tags = (np.arange(n) >> np.arange(k - 1)[:, None]) & 1  # (r, n)
            odd = (odd[:, :-1] @ tags + odd[:, -1:]) % 2 == 1
    else:
        raise ValueError(f"unknown phase family mode {mode!r}")
    # one opaque byte string per row's packed pattern, so unique is a 1-d sort
    packed = np.packbits(odd, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).reshape(-1)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    rows = odd.shape[0]
    return PhaseFamily(mode=mode, n=n, size=size, parity=odd[first].astype(np.float64),
                       class_weights=np.bincount(inverse, weights=np.full(rows, 1.0 / rows)))


@dataclass
class NormEstimate:
    """A norm value with a standard error (0 for exact enumerations); both
    are (V,) arrays for a batch of rows."""

    value: float | np.ndarray
    stderr: float | np.ndarray = 0.0


def _rows(a, n: int) -> np.ndarray:
    """a as (V, n) complex rows; anything but a (V, n) batch is one row."""
    a = np.asarray(a, dtype=np.complex128)
    rows = a if a.ndim == 2 else a.reshape(1, -1)
    if rows.shape[1] != n:
        raise ValueError(f"vector length {rows.shape[1]} does not match n={n}")
    return rows


def _pqr(rows: np.ndarray, family: PhaseFamily):
    """Sums p, q, r of Re(b)^2, Im(b)^2 and Re(b) Im(b) over b = a o w, per
    row a = x + iy of ``rows`` (V, n) and per parity class O; each (V, P).
    With E = 1 - O they are exactly p = E.x^2 + O.y^2, q = E.y^2 + O.x^2
    and r = (E - O).xy for every member of the class (see PhaseFamily), so
    the sums over members collapse to matmuls over the P classes.
    """
    x, y = rows.real, rows.imag
    odd, even = family.parity, family.even
    xx, yy = x * x, y * y
    return xx @ even.T + yy @ odd.T, yy @ even.T + xx @ odd.T, (x * y) @ family.sign.T


def _by_row_chunks(kernel, live: int, rows: np.ndarray, family: PhaseFamily):
    """kernel(rows, family) over blocks of rows, its outputs joined along the
    rows; an empty batch is one empty block. The kernel holds at most ``live``
    (block rows, P) or (block rows, n) float64 temporaries at once, so blocks
    of config.CHUNK_ENTRIES / (live (P + n)) rows keep their sum within it."""
    step = max(1, config.CHUNK_ENTRIES // (live * (family.parity.shape[0] + family.n)))
    outs = [kernel(rows[lo:lo + step], family)
            for lo in range(0, max(rows.shape[0], 1), step)]
    return [np.concatenate(parts) for parts in zip(*outs)]


def dictator_embedding_norm(a, family: PhaseFamily) -> NormEstimate:
    """E_w[ ||C(a o w)||_S1 ] under the family, i.e. the trace norm of the
    block-diagonal embedding (+)_w C(a o w).

    ``a`` is one vector (n,), giving float value and stderr, or rows (V, n),
    giving (V,) arrays. Standard basis vectors give exactly 1 (a o w is
    purely real or purely imaginary, so L vanishes). Monte-Carlo mode
    reports a standard error.
    """
    value, _, stderr = _by_row_chunks(_norm_and_gradient_rows, _GRADIENT_LIVE,
                                      _rows(a, family.n), family)
    if np.ndim(a) != 2:
        return NormEstimate(value=float(value[0]), stderr=float(stderr[0]))
    return NormEstimate(value=value, stderr=stderr)


def embedding_norm_bound(a) -> float:
    """Analytic upper bound sqrt((||a||_2^2 + ||a||_4^2) / 2) on the
    phase-averaged embedding norm."""
    a = np.asarray(a, dtype=np.complex128).reshape(-1)
    l2sq = float(np.sum(np.abs(a) ** 2))
    l4sq = math.sqrt(float(np.sum(np.abs(a) ** 4)))
    return math.sqrt((l2sq + l4sq) / 2.0)


def randphase_second_moment(a, family: PhaseFamily) -> float:
    """4 E_w[ L(a o w)^2 ]; equals ||a||_2^4 - ||a||_4^4 exactly under any
    family whose coordinate pairs are uniform (pairwise terms are all the
    proof of that identity uses)."""
    p, q, r = _pqr(_rows(np.reshape(a, -1), family.n), family)
    return 4.0 * float((p * q - r * r)[0] @ family.class_weights)


def embedding_norm_and_gradient(a, family: PhaseFamily):
    """Value and subgradient of a -> E_w[ ||C(a o w)||_S1 ].

    ``a`` is one vector (n,), giving (float, (n,) gradient), or a batch of
    rows (V, n), giving ((V,) values, (V, n) gradients) in one pass. The
    gradient is packed as a complex vector g with d/dx_j = Re g_j and
    d/dy_j = Im g_j for a = x + iy, so an ascent step is simply a + t*g.
    Kinks (s = 2L) are handled by clamping the inner inverse square root;
    callers should track best iterates rather than rely on smoothness.
    """
    value, grad, _ = _by_row_chunks(_norm_and_gradient_rows, _GRADIENT_LIVE,
                                    _rows(a, family.n), family)
    if np.ndim(a) != 2:
        return float(value[0]), grad[0]
    return value, grad


def _norm_and_gradient_rows(rows: np.ndarray, family: PhaseFamily):
    """(V,) values, (V, n) gradients and (V,) Monte-Carlo standard errors
    (0 for an exact family) of a batch of rows."""
    x, y = rows.real, rows.imag
    s = np.sum(np.abs(rows) ** 2, axis=1)
    nonzero = s > 0.0
    # A zero row has value, gradient and stderr 0. Setting s = 1 there only
    # keeps the inverse square roots finite; its x = y = 0 zero the gradient.
    s = np.where(nonzero, s, 1.0)[:, None]
    p, q, r = _pqr(rows, family)
    lam = np.sqrt(np.maximum(p * q - r * r, 0.0))
    sqrt_plus = np.sqrt(s + 2 * lam)
    sqrt_minus = np.sqrt(np.maximum(s - 2 * lam, 0.0))
    w = family.class_weights
    value = 0.5 * (sqrt_plus + sqrt_minus) @ w
    stderr = np.zeros_like(value)
    if family.mode == "monte_carlo" and family.size > 1:
        # member sample variance; class_weights are class sizes over size
        spread = (0.5 * (sqrt_plus + sqrt_minus) - value[:, None]) ** 2 @ w
        stderr = np.where(nonzero, np.sqrt(spread / (family.size - 1)), 0.0)
    value = np.where(nonzero, value, 0.0)

    inv_plus = 1.0 / sqrt_plus
    inv_minus = 1.0 / np.sqrt(np.maximum(s - 2 * lam, 1e-12 * s))
    dgds = 0.25 * (inv_plus + inv_minus)
    # d/d(L^2) has the finite limit -1/(2 s^(3/2)) as L -> 0.
    dgdu = np.where(lam < 1e-9 * s, -0.25 / s**1.5,
                    (inv_plus - inv_minus) / (4.0 * np.maximum(lam, 1e-300)))
    # d(L^2)/dx_j = 2 x_j (q E_j + p O_j) - 2 r (E_j - O_j) y_j, and
    # d(L^2)/dy_j = 2 y_j (q O_j + p E_j) - 2 r (E_j - O_j) x_j.
    odd, even = family.parity, family.even
    c = dgdu * w
    gs = (dgds @ w)[:, None]
    cross = (c * r) @ family.sign
    gx = 2 * x * (gs + (c * q) @ even + (c * p) @ odd) - 2 * y * cross
    gy = 2 * y * (gs + (c * q) @ odd + (c * p) @ even) - 2 * x * cross
    return value, gx + 1j * gy, stderr


# Dictatorship-test constants of the phase-averaged matrix embedding: basis
# vectors reach norm ETA, spread unit vectors stay near TAU, and norms above
# TAU + eps force an l4/l2 ratio above spread_threshold(eps).
ETA = 1.0
TAU = 2**-0.5


def spread_threshold(eps: float) -> float:
    """delta(eps) = sqrt(2) eps."""
    return math.sqrt(2.0) * eps
