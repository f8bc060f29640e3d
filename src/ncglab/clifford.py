"""Anticommuting Pauli-string generators and the phase-averaged matrix
embedding built on them.

The pieces, in dependency order:

* generators ``C_1 .. C_{2m}`` (``m = ceil(n/2)``): Hermitian, unitary,
  trace-zero, pairwise anticommuting ``Z x ... x Z x {X or Y} x I x ... x I``
  of side ``2^m``, each held as a signed permutation (one phase per row);
* the linear map ``C(a) = a_1 C_1 + ... + a_n C_n``;
* the parallelogram area ``L(a)`` spanned by ``Re a`` and ``Im a``, which
  controls the two-level singular value split of ``C(a)``;
* the exact trace-norm formula
  ``||C(a)||_S1 = (sqrt(s + 2 L) + sqrt(s - 2 L)) / 2`` with ``s = ||a||_2^2``;
* phase families over ``{1, i, -1, -i}^n`` (exhaustive or pairwise
  independent), held as one equally weighted parity class per global-phase
  pair, and the phase-averaged embedding norm ``E_w ||C(a o w)||_S1``, which
  equals the trace norm of the direct sum ``(+)_w C(a o w)`` because
  equal-size blocks average;
* the dictatorship-test constants ETA, TAU and spread_threshold(eps).

Only ``lift`` builds a direct sum, one block per parity class, through
``reduction.EmbeddingBackend.little_op`` (side 2^(n-1) * 2^m for the exhaustive
family, within DENSE_DIM_CAP for n <= 6); everything else uses the formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import config, linalg
from .config import DENSE_DIM_CAP, ENUMERATION_CAP

PAULI_I = np.eye(2, dtype=np.complex128)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)

PHASE_VALUES = np.array([1, 1j, -1, -1j], dtype=np.complex128)

# Temporaries the batch kernel holds at once, counted in (rows, P + n) arrays:
# the traced peaks are 11.0 of them at P = 32 (exhaustive n=6, 300 rows) and
# 12.0 at P = 32768 (exhaustive n=16, 4 rows).
_GRADIENT_LIVE = 13


@dataclass
class CliffordGenerators:
    """The 2*ceil(n/2) anticommuting generators for n coordinates: C_j is the
    signed permutation with entry phases[j, r] in {+-1, +-i} at (r, r ^ masks[j])."""

    n: int
    m: int
    masks: np.ndarray  # (2m,) ints
    phases: np.ndarray  # (2m, 2^m) complex

    @property
    def dim(self) -> int:
        return 2**self.m


def make_generators(n: int) -> CliffordGenerators:
    """Build the 2*ceil(n/2) Pauli-string generators for n coordinates.

    Pair j contributes Z^(j-1) x X x I^(m-j) and Z^(j-1) x Y x I^(m-j). Row
    r's phase is the product of the factors' entries taken in kron order, so
    it has the bits of the dense kron chain's entry. A side 2^m above
    DENSE_DIM_CAP is refused before any phase is built (n <= 18 passes).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m = (n + 1) // 2
    if m >= DENSE_DIM_CAP.bit_length():  # 2^m > DENSE_DIM_CAP, without the power
        raise ValueError(f"generator side 2^{m} exceeds cap {DENSE_DIM_CAP}")
    phases = np.ones((2 * m, 2**m), dtype=np.complex128)
    for q in range(m):  # factor q acts on bit m - 1 - q of the row
        bit = np.arange(2**m) >> (m - 1 - q) & 1
        for j in range(2 * m):
            pauli = PAULI_Z if q < j // 2 else PAULI_I if q > j // 2 else (PAULI_X, PAULI_Y)[j % 2]
            phases[j] *= pauli[bit, bit ^ (q == j // 2)]
    return CliffordGenerators(n=n, m=m, masks=2**m >> 1 + np.arange(2 * m) // 2, phases=phases)


def clifford_map(a, gens: CliffordGenerators) -> np.ndarray:
    """C(a) = sum_j a_j C_j. Linear in a; Hermitian with C(x)^2 = ||x||^2 I
    for real x."""
    a = np.asarray(a, dtype=np.complex128).reshape(-1)
    if a.size != gens.n:
        raise ValueError(f"vector length {a.size} does not match generator count n={gens.n}")
    out, rows = np.zeros((gens.dim, gens.dim), dtype=np.complex128), np.arange(gens.dim)
    for coeff, mask, phase in zip(a, gens.masks, gens.phases):
        out[rows, rows ^ mask] += coeff * phase
    return out


def _scaled(a: np.ndarray):
    """a (..., n) times 2^k, and k per vector: 0, keeping every bit, unless max_j |a_j|
    lies outside 2^+-200; then k takes it into [1/2, 1), where L^2 and s^1.5 stay normal."""
    top = np.abs(a).max(axis=-1, initial=0.0)  # inf past the largest float
    if 2.0**-200 <= top.min(initial=1.0) and top.max(initial=1.0) < 2.0**200:
        return a, 0
    k = -np.frexp(np.minimum(top, np.finfo(np.float64).max))[1]
    k = np.where(np.abs(k) > 200, k, 0)  # applied to the float64 pairs: signed zeros keep
    return linalg._from_pairs(np.ldexp(linalg._pairs(a), k[..., None, None])), k


def parallelogram(a) -> float:
    """Area of the parallelogram spanned by Re(a) and Im(a)."""
    a, k = _scaled(np.asarray(a, dtype=np.complex128).reshape(-1))
    x, y = a.real, a.imag
    # >= 0 by Cauchy-Schwarz; a negative value is rounding
    return math.ldexp(math.sqrt(max(float((x @ x) * (y @ y) - (x @ y) ** 2), 0.0)), -2 * int(k))


def trace_norm_formula(a) -> float:
    """Closed form for ||C(a)||_S1: (sqrt(s + 2L) + sqrt(s - 2L)) / 2 with
    s = ||a||_2^2 and L the parallelogram area. Restricted to real vectors
    this is just ||a||_2 (L = 0), i.e. the map is a real isometry."""
    a, k = _scaled(np.asarray(a, dtype=np.complex128).reshape(-1))
    s = float(np.sum(np.abs(a) ** 2))
    lam = parallelogram(a)  # s >= 2 ||x|| ||y|| >= 2L, so s - 2L < 0 is rounding
    return math.ldexp(0.5 * (math.sqrt(s + 2 * lam) + math.sqrt(max(s - 2 * lam, 0.0))), -int(k))


@dataclass
class PhaseFamily:
    """A uniformly weighted family of ``size`` phase vectors w in
    {1, i, -1, -i}^n, held as one parity class per global-phase pair.

    exhaustive: all 4^n members.
    pairwise_independent: affine Z4 evaluations; every coordinate pair is
        exactly uniform over the 16 phase pairs, with only O(n^2) members.

    Every average below depends on a member only through its parity
    pattern O_j = [w_j imaginary]: (Re, Im) of a_j w_j is +-(x_j, y_j) for
    w_j = +-1 and +-(-y_j, x_j) for w_j = +-i, and the sign cancels in the
    sums p, q, r (see _pqr). The global phase i takes O to 1 - O, which swaps
    p and q and negates r, so it keeps L and every gradient term. Each family
    splits its members evenly over the pairs (O, 1 - O), and parity keeps the
    one O of each pair with coordinate 0 real: P classes of equal weight 1/P,
    P = 32 for the 4096-member exhaustive family at n=6.
    """

    mode: str
    n: int
    size: int  # members
    parity: np.ndarray = field(repr=False)  # (P, n), 1.0 where w_j is imaginary
    even: np.ndarray = field(init=False, repr=False)  # (P, n), 1 - parity
    sign: np.ndarray = field(init=False, repr=False)  # (P, n), even - parity

    def __post_init__(self):
        # the kernels' other two (P, n) factors, kept so that no call rebuilds them
        self.even = 1.0 - self.parity
        self.sign = self.even - self.parity


def build_phase_family(n: int, mode: str = "exhaustive") -> PhaseFamily:
    """The family's parity classes: row x T mod 2 for every x in {0,1}^k,
    x the parities of the members' k free Z4 digits besides the global one.

    exhaustive: k = n - 1 and T = [0 | I], so the rows are a 0 followed by
        every x.
    pairwise_independent: coordinate j has tag c_j, its k = ceil(log2 n)
        binary digits, and member (u, b) in Z4^k x Z4 assigns exponent
        (c_j . u + b) mod 4, so any two distinct coordinates, differing in a
        +-1 entry of their tags, are exactly uniform over Z4 x Z4. Its parity
        (c_j . u' + b') mod 2 needs only u' = u mod 2 and b' = b mod 2, and b'
        is the global phase; T holds the tags as columns, c_0 = 0 first.

    Either way T has every unit column, so the 2^k rows are distinct, and
    coordinate 0 is real in each, so no row's complement is present. A family
    is refused when its 2^k x n rows exceed ENUMERATION_CAP, before any row
    exists.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if mode not in ("exhaustive", "pairwise_independent"):
        raise ValueError(f"unknown phase family mode {mode!r}")
    k = n - 1 if mode == "exhaustive" else (n - 1).bit_length()
    if k >= ENUMERATION_CAP.bit_length() or 2**k * n > ENUMERATION_CAP:
        raise ValueError(f"{mode} family rows 2^{k} x n={n} exceed cap {ENUMERATION_CAP}")
    x = (np.arange(2**k)[:, None] >> np.arange(k - 1, -1, -1)) & 1  # most significant first
    tags = (np.eye(k, n, 1, dtype=np.int64) if mode == "exhaustive"  # T, (k, n)
            else np.arange(n) >> np.arange(k)[:, None] & 1)
    return PhaseFamily(mode=mode, n=n, size=4 ** (n if mode == "exhaustive" else k + 1),
                       parity=(x @ tags & 1).astype(np.float64))


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


def _norm_and_gradient(a, family: PhaseFamily):
    """_norm_and_gradient_rows over blocks of a's rows, joined along the rows (the
    first row's, for one vector); an empty batch is one empty block. The kernel holds
    at most _GRADIENT_LIVE (block rows, P) or (block rows, n) float64 temporaries at
    once, so blocks of CHUNK_ENTRIES / (_GRADIENT_LIVE (P + n)) rows stay within it."""
    rows = _rows(a, family.n)
    step = max(1, config.CHUNK_ENTRIES // (_GRADIENT_LIVE * (family.parity.shape[0] + family.n)))
    outs = [_norm_and_gradient_rows(rows[lo:lo + step], family)
            for lo in range(0, max(rows.shape[0], 1), step)]
    value, grad = (np.concatenate(parts) for parts in zip(*outs))
    return (value, grad) if np.ndim(a) == 2 else (float(value[0]), grad[0])


def dictator_embedding_norm(a, family: PhaseFamily):
    """E_w[ ||C(a o w)||_S1 ] under the family, i.e. the trace norm of the
    block-diagonal embedding (+)_w C(a o w).

    ``a`` is one vector (n,), giving a float, or rows (V, n), giving a (V,)
    array. Standard basis vectors give exactly 1 (a o w is purely real or
    purely imaginary, so L vanishes).
    """
    return _norm_and_gradient(a, family)[0]


def embedding_norm_bound(a) -> float:
    """Analytic upper bound sqrt((||a||_2^2 + ||a||_4^2) / 2) on the
    phase-averaged embedding norm."""
    a, k = _scaled(np.asarray(a, dtype=np.complex128).reshape(-1))
    l2sq = float(np.sum(np.abs(a) ** 2))
    l4sq = math.sqrt(float(np.sum(np.abs(a) ** 4)))
    return math.ldexp(math.sqrt((l2sq + l4sq) / 2.0), -int(k))


def randphase_second_moment(a, family: PhaseFamily) -> float:
    """4 E_w[ L(a o w)^2 ]; equals ||a||_2^4 - ||a||_4^4 exactly under any
    family whose coordinate pairs are uniform (pairwise terms are all the
    proof of that identity uses)."""
    p, q, r = _pqr(_rows(np.reshape(a, -1), family.n), family)
    return 4.0 * float((p * q - r * r)[0].mean())


def embedding_norm_and_gradient(a, family: PhaseFamily):
    """Value and subgradient of a -> E_w[ ||C(a o w)||_S1 ].

    ``a`` is one vector (n,), giving (float, (n,) gradient), or a batch of
    rows (V, n), giving ((V,) values, (V, n) gradients) in one pass. The
    gradient is packed as a complex vector g with d/dx_j = Re g_j and
    d/dy_j = Im g_j for a = x + iy, so an ascent step is simply a + t*g.
    Kinks (s = 2L) are handled by clamping the inner inverse square root;
    callers should track best iterates rather than rely on smoothness.
    """
    return _norm_and_gradient(a, family)


def _norm_and_gradient_rows(rows: np.ndarray, family: PhaseFamily):
    """(V,) values and (V, n) gradients of a batch of rows, taken on the rows
    times 2^k (see _scaled): the value scales back and the gradient is scale-free."""
    rows, k = _scaled(rows)
    x, y = rows.real, rows.imag
    s = np.sum(np.abs(rows) ** 2, axis=1)
    nonzero = s > 0.0
    # A zero row has value and gradient 0. Setting s = 1 there only
    # keeps the inverse square roots finite; its x = y = 0 zero the gradient.
    s = np.where(nonzero, s, 1.0)[:, None]
    p, q, r = _pqr(rows, family)
    lam = np.sqrt(np.maximum(p * q - r * r, 0.0))
    sqrt_plus = np.sqrt(s + 2 * lam)
    sqrt_minus = np.sqrt(np.maximum(s - 2 * lam, 0.0))
    value = np.ldexp(np.where(nonzero, 0.5 * (sqrt_plus + sqrt_minus).mean(axis=1), 0.0), -k)

    inv_plus = 1.0 / sqrt_plus
    inv_minus = 1.0 / np.sqrt(np.maximum(s - 2 * lam, 1e-12 * s))
    dgds = 0.25 * (inv_plus + inv_minus)
    # d/d(L^2) has the finite limit -1/(2 s^(3/2)) as L -> 0.
    dgdu = np.where(lam < 1e-9 * s, -0.25 / s**1.5,
                    (inv_plus - inv_minus) / (4.0 * np.maximum(lam, 1e-300)))
    # d(L^2)/dx_j = 2 x_j (q E_j + p O_j) - 2 r (E_j - O_j) y_j, and
    # d(L^2)/dy_j = 2 y_j (q O_j + p E_j) - 2 r (E_j - O_j) x_j.
    odd, even = family.parity, family.even
    c = dgdu / len(odd)  # each class weighs 1/P
    gs = dgds.mean(axis=1, keepdims=True)
    cross = (c * r) @ family.sign
    gx = 2 * x * (gs + (c * q) @ even + (c * p) @ odd) - 2 * y * cross
    gy = 2 * y * (gs + (c * q) @ odd + (c * p) @ even) - 2 * x * cross
    return value, gx + 1j * gy


# Dictatorship-test constants of the phase-averaged matrix embedding: basis
# vectors reach norm ETA, spread unit vectors stay near TAU, and norms above
# TAU + eps force an l4/l2 ratio above spread_threshold(eps).
ETA = 1.0
TAU = 2**-0.5


def spread_threshold(eps: float) -> float:
    """delta(eps) = sqrt(2) eps."""
    return math.sqrt(2.0) * eps
