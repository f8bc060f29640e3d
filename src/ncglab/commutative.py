"""Scalar embeddings into L1 via independent random signs (real) or fourth
roots of unity (complex): f(a)(Z_1..Z_n) = sum_i a_i Z_i.

Basis vectors have L1 norm exactly 1, every vector is dominated by its l2
norm, and for spread vectors the norm approaches sqrt(2/pi) (real) or
sqrt(pi/4) (complex) at a Berry-Esseen rate. The limiting constants are
checked empirically through gap profiles; no concrete Berry-Esseen constant
is ever asserted.

Both modes stream one byte code per member (exhaustive member k is the bytes
of k, a Monte-Carlo sample those of its seeded words), so no member matrix is
built: the uniform-vector norm at real n=20 takes 40-90 ms and 29 MiB traced,
against 270-340 ms and 488 MiB through the full matrix (2-core VM).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import config
from .clifford import PHASE_VALUES, _rows

REAL_LIMIT = math.sqrt(2.0 / math.pi)
COMPLEX_LIMIT = math.sqrt(math.pi / 4.0)

# The coordinates that byte b draws, low bits first: bit j is the sign
# 1 - 2*bit of coordinate j (real), bits 2j, 2j+1 the phase i^digit (complex).
_DECODE = {"real": 1.0 - 2.0 * ((np.arange(256)[:, None] >> np.arange(8)) & 1),
           "complex": PHASE_VALUES[(np.arange(256)[:, None] >> 2 * np.arange(4)) & 3]}

# Most float64 entries (a complex entry is two) the byte tables hold at once: the
# chunk budget at import, so shrinking config.CHUNK_ENTRIES later shrinks only the
# member chunks. A row over it alone is refused: complex n > 32768, real n > 131072.
TABLE_CAP = config.CHUNK_ENTRIES


@dataclass
class NormEstimate:
    """A norm value with a standard error (0 for exhaustive enumerations);
    both are (V,) arrays for a batch of rows."""

    value: float | np.ndarray
    stderr: float | np.ndarray = 0.0


@dataclass
class SignEnsemble:
    """Distribution over Z in {+-1}^n (real) or {1,i,-1,-i}^n (complex).

    exhaustive mode enumerates all 2^n / 4^n members; monte_carlo draws
    sample_count i.i.d. members from a seeded generator.
    """

    field: str
    n: int
    mode: str = "exhaustive"
    seed: int | None = None
    sample_count: int | None = None

    def __post_init__(self):
        if self.field not in ("real", "complex"):
            raise ValueError(f"field must be 'real' or 'complex', got {self.field!r}")
        if self.mode not in ("exhaustive", "monte_carlo"):
            raise ValueError(f"mode must be 'exhaustive' or 'monte_carlo', got {self.mode!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        bits = self.n * (1 if self.field == "real" else 2)
        if self.mode == "exhaustive" and bits >= config.ENUMERATION_CAP.bit_length():
            raise ValueError(f"exhaustive ensemble size 2^{bits} exceeds cap "
                             f"{config.ENUMERATION_CAP}")
        if self.mode == "monte_carlo" and (self.sample_count is None or self.sample_count < 1):
            raise ValueError("monte_carlo mode requires a positive sample_count")

    @property
    def size(self) -> int:
        """Members streamed: the sample_count draws, or all 2^n / 4^n."""
        base = 2 if self.field == "real" else 4
        return self.sample_count if self.mode == "monte_carlo" else base**self.n


def _member_codes(ens: SignEnsemble, live: int):
    """Yield the members' (size, groups) uint8 codes chunk by chunk, byte g
    drawing the g-th group of coordinates (see _DECODE): exhaustive member k
    is the little-endian bytes of k; Monte-Carlo sample s reads its own
    ceil(groups/8) seeded 64-bit words (the tail unused), so no code depends on
    the chunk size. Per member a chunk holds its code words and ``live``
    float64 entries of the caller's, config.CHUNK_ENTRIES in all."""
    groups = -(-ens.n // _DECODE[ens.field].shape[1])
    words = -(-groups // 8)
    bitgen = None if ens.mode == "exhaustive" else np.random.default_rng(ens.seed).bit_generator
    chunk = max(1, config.CHUNK_ENTRIES // (words + live))
    for lo in range(0, ens.size, chunk):
        size = min(chunk, ens.size - lo)
        raw = (np.arange(lo, lo + size, dtype=np.uint64) if bitgen is None
               else bitgen.random_raw(size * words))
        yield raw.astype("<u8", copy=False).view(np.uint8).reshape(size, 8 * words)[:, :groups]


def _decode(codes: np.ndarray, ens: SignEnsemble) -> np.ndarray:
    """The (size, n) members that (size, groups) codes draw."""
    return _DECODE[ens.field][codes].reshape(codes.shape[0], -1)[:, :ens.n]


def exhaustive_members(ens: SignEnsemble) -> np.ndarray:
    """All ensemble members as a (members, n) array: member k has the base-2
    (real) or base-4 (complex) digits of k, coordinate 0 least significant,
    as sign exponents (-1)^digit or phase exponents i^digit."""
    if ens.mode != "exhaustive":
        raise ValueError("members are only enumerable in exhaustive mode")
    members = np.empty((ens.size, ens.n), _DECODE[ens.field].dtype)
    lo = 0
    # per member: its decoded bytes, at most n + 7 (complex: two float64 each)
    for codes in _member_codes(ens, 2 * ens.n + 14):
        members[lo:lo + codes.shape[0]] = _decode(codes, ens)
        lo += codes.shape[0]
    return members


def _check_rows(a, ens: SignEnsemble) -> np.ndarray:
    """a as (V, n) rows: complex128, or float64 for a real ensemble, which
    rejects a nonzero imaginary part."""
    rows = _rows(a, ens.n)
    if ens.field == "complex":
        return rows
    if np.any(rows.imag != 0.0):
        raise ValueError("real ensemble requires a real-valued vector")
    return np.ascontiguousarray(rows.real)


def _byte_tables(rows: np.ndarray, field: str) -> np.ndarray:
    """Partial sums of <a, Z> over each group of coordinates that one byte
    draws (zero-padded at the end), for all 256 values of the byte:
    (V, groups * 256), group-major; see _DECODE."""
    decode = _DECODE[field]
    padded = np.pad(rows, ((0, 0), (0, -rows.shape[1] % decode.shape[1])))
    groups = padded.reshape(rows.shape[0], -1, decode.shape[1])
    return (groups @ decode.T).reshape(rows.shape[0], -1)


def _table_products(tables: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """<a, Z> for each row's tables and each sample's bytes: (V, size), one
    gather per group and a sum over the groups."""
    groups = draws.shape[1]
    return np.take(tables, draws + 256 * np.arange(groups), axis=1) @ np.ones(groups)


def embedding_l1_norm(a, ens: SignEnsemble) -> NormEstimate:
    """E[ |sum_i a_i Z_i| ] under the ensemble.

    ``a`` is one vector (n,), giving float value and stderr, or rows (V, n),
    giving (V,) arrays. Every row reads the same member codes, each byte
    looked up in the row's per-group partial-sum tables. Exhaustive mode is
    exact (stderr 0); monte_carlo reports the sample standard error. The
    tables are built for as many rows at a time as fit TABLE_CAP.
    """
    decode = _DECODE[ens.field]
    width, groups = decode.itemsize // 8, -(-ens.n // decode.shape[1])
    block = TABLE_CAP // (width * groups * 256)
    if block < 1:
        raise ValueError(f"{ens.field} n={ens.n}: one row's byte tables hold "
                         f"{width * groups * 256} float64, over TABLE_CAP {TABLE_CAP}")
    rows = _check_rows(a, ens)
    acc, acc_sq = np.zeros((2, rows.shape[0]))
    for lo in range(0, rows.shape[0], block):
        tables = _byte_tables(rows[lo:lo + block], ens.field)
        # per member: the gather index, V gathered entries per group, V sums (a
        # complex entry is two float64) and the V magnitudes of the chunk before
        live = groups + tables.shape[0] * (width * (groups + 1) + 1)
        for codes in _member_codes(ens, live):
            mags = np.abs(_table_products(tables, codes))
            acc[lo:lo + block] += mags.sum(axis=1)
            acc_sq[lo:lo + block] += (mags * mags).sum(axis=1)
    value = acc / ens.size
    stderr = np.zeros_like(value)
    if ens.mode == "monte_carlo":
        stderr = np.sqrt(np.maximum(acc_sq / ens.size - value * value, 0.0) / ens.size)
    if np.ndim(a) != 2:
        return NormEstimate(value=float(value[0]), stderr=float(stderr[0]))
    return NormEstimate(value=value, stderr=stderr)


def embedding_l1_gradient(a, ens: SignEnsemble):
    """Value and subgradient of a -> E|<a, Z>| (complex-packed like the
    matrix-embedding gradient: d/dx_j = Re g_j, d/dy_j = Im g_j), in either
    mode, over the members decoded chunk by chunk.

    ``a`` is one vector (n,), giving (float, (n,) gradient), or rows (V, n),
    giving ((V,) values, (V, n) gradients).
    """
    # The products come from decoded members, not from embedding_l1_norm's byte
    # tables: the unit @ conj(members) step needs the members anyway, and a
    # prototype through the tables took 50.7 ms against 10.9 ms for 300 real
    # Monte-Carlo rows at n=30 (2-core VM). The two sums round differently, so a
    # value here can differ from embedding_l1_norm's by about 1e-15.
    rows = _check_rows(a, ens)
    values, grads = np.zeros(rows.shape[0]), np.zeros_like(rows)
    # per member: its decoded bytes and their conjugate (n + 8 entries each at most), and
    # V products, unit phases, magnitudes and masks (a complex entry is two float64)
    width = rows.itemsize // 8
    for codes in _member_codes(ens, 2 * (width * (ens.n + 8 + rows.shape[0]) + rows.shape[0])):
        members = _decode(codes, ens)
        prods = rows @ members.T
        mags = np.abs(prods)
        values += mags.sum(axis=1)
        unit = np.divide(prods, mags, out=np.zeros_like(prods), where=mags > 0.0)
        grads += unit @ members.conj()
    values, grads = values / ens.size, (grads / ens.size).astype(np.complex128, copy=False)
    if np.ndim(a) != 2:
        return float(values[0]), grads[0]
    return values, grads


@dataclass
class ProfileRow:
    n: int
    spread: float
    value: float
    stderr: float
    gap: float


def berry_esseen_profile(n_values, field: str, *, sample_count: int | None = None,
                         seed: int | None = None) -> list[ProfileRow]:
    """L1 norms of the uniform vector (1,..,1)/sqrt(n) for each n, with the
    gap to the limiting constant. The gap shrinks toward 0 as n grows.

    A row is enumerated exactly while its ensemble fits under the cap; past
    it, the row draws sample_count Monte-Carlo samples (seed + row index), and
    without sample_count it is refused.
    """
    if not n_values:
        raise ValueError("n_values must be nonempty")
    limit = REAL_LIMIT if field == "real" else COMPLEX_LIMIT
    bits = 1 if field == "real" else 2
    rows = []
    for idx, n in enumerate(n_values):
        exact = n * bits < config.ENUMERATION_CAP.bit_length()
        if not exact and sample_count is None:
            raise ValueError("Monte-Carlo profile rows require sample_count")
        ens = SignEnsemble(field=field, n=n, mode="exhaustive" if exact else "monte_carlo",
                           seed=None if seed is None else seed + idx, sample_count=sample_count)
        # a view of the row, so embedding_l1_norm checks TABLE_CAP before any copy
        est = embedding_l1_norm(np.broadcast_to(n**-0.5, n), ens)
        rows.append(ProfileRow(n=n, spread=n**-0.5, value=est.value,
                               stderr=est.stderr, gap=abs(est.value - limit)))
    return rows
