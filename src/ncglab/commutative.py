"""Scalar embeddings into L1 via independent random signs (real) or fourth
roots of unity (complex): f(a)(Z_1..Z_n) = sum_i a_i Z_i.

Basis vectors have L1 norm exactly 1, every vector is dominated by its l2
norm, and for spread vectors the norm approaches sqrt(2/pi) (real) or
sqrt(pi/4) (complex) at a Berry-Esseen rate. The limiting constants are
checked empirically through gap profiles; no concrete Berry-Esseen constant
is ever asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clifford import PHASE_VALUES, NormEstimate, _rows
from .config import ENUMERATION_CAP

REAL_LIMIT = math.sqrt(2.0 / math.pi)
COMPLEX_LIMIT = math.sqrt(math.pi / 4.0)

# Per-chunk entry budget for streamed Monte-Carlo estimation and batched
# exhaustive norms and gradients.
_CHUNK_ENTRIES = 2**22

# Coordinates drawn by one random byte: 8 signs (one bit each) or 4 phases
# (two bits each).
_PER_BYTE = {"real": 8, "complex": 4}


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
        if self.mode == "exhaustive":
            base = 2 if self.field == "real" else 4
            if base**self.n > ENUMERATION_CAP:
                raise ValueError(
                    f"exhaustive ensemble size {base}^{self.n} exceeds cap {ENUMERATION_CAP}")
        else:
            if self.sample_count is None or self.sample_count < 1:
                raise ValueError("monte_carlo mode requires a positive sample_count")


def exhaustive_members(ens: SignEnsemble) -> np.ndarray:
    """All ensemble members as a (members, n) array: member k has the base-2
    (real) or base-4 (complex) digits of k, coordinate 0 least significant,
    as sign exponents (-1)^digit or phase exponents i^digit."""
    if ens.mode != "exhaustive":
        raise ValueError("members are only enumerable in exhaustive mode")
    bits = 1 if ens.field == "real" else 2  # per digit
    k = np.arange(2 ** (bits * ens.n))
    digits = (k[:, None] >> bits * np.arange(ens.n)) & (2**bits - 1)
    return 1.0 - 2.0 * digits if ens.field == "real" else PHASE_VALUES[digits]


def _check_rows(a, ens: SignEnsemble) -> np.ndarray:
    """a as (V, n) rows: complex128, or float64 for a real ensemble, which
    rejects a nonzero imaginary part."""
    rows = _rows(a, ens.n)
    if ens.field == "complex":
        return rows
    if np.any(rows.imag != 0.0):
        raise ValueError("real ensemble requires a real-valued vector")
    return np.ascontiguousarray(rows.real)


def _member_products(rows: np.ndarray, members: np.ndarray):
    """Yield (row slice, rows[slice] @ members.T) in chunks of about
    _CHUNK_ENTRIES products."""
    chunk = max(1, _CHUNK_ENTRIES // members.shape[0])
    for lo in range(0, rows.shape[0], chunk):
        sl = slice(lo, lo + chunk)
        yield sl, rows[sl] @ members.T


def _byte_tables(rows: np.ndarray, field: str) -> np.ndarray:
    """Partial sums of <a, Z> over each group of _PER_BYTE[field]
    coordinates (zero-padded at the end), for all 256 values of the byte
    that draws the group: (V, groups * 256), group-major.

    Bit j of the byte is the sign 1 - 2*bit_j of coordinate j (real); bits
    2j, 2j+1 give the phase i^((b >> 2j) & 3) (complex). Those are exactly
    the exhaustive members at n = 8 (real) or n = 4 (complex), in byte
    order, so that enumeration decodes the bytes.
    """
    per = _PER_BYTE[field]
    groups = -(-rows.shape[1] // per)
    padded = np.zeros((rows.shape[0], groups * per), dtype=rows.dtype)
    padded[:, :rows.shape[1]] = rows
    decode = exhaustive_members(SignEnsemble(field=field, n=per))
    return (padded.reshape(rows.shape[0], groups, per) @ decode.T).reshape(rows.shape[0], -1)


def _byte_draws(ens: SignEnsemble, groups: int, chunk: int):
    """Yield the (size, groups) uint8 draws chunk by chunk. Sample s reads
    its own ceil(groups/8) 64-bit words of the seeded stream (little-endian
    bytes, the tail unused), so the draws do not depend on the chunk size."""
    bitgen = np.random.default_rng(ens.seed).bit_generator
    words = -(-groups // 8)
    for lo in range(0, ens.sample_count, chunk):
        size = min(chunk, ens.sample_count - lo)
        raw = bitgen.random_raw(size * words).astype("<u8", copy=False)
        yield raw.view(np.uint8).reshape(size, 8 * words)[:, :groups]


def _table_products(tables: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """<a, Z> for each row's tables and each sample's bytes: (V, size), one
    gather per group and a sum over the groups."""
    groups = draws.shape[1]
    return np.take(tables, draws + 256 * np.arange(groups), axis=1) @ np.ones(groups)


def embedding_l1_norm(a, ens: SignEnsemble) -> NormEstimate:
    """E[ |sum_i a_i Z_i| ] under the ensemble.

    ``a`` is one vector (n,), giving float value and stderr, or rows (V, n),
    giving (V,) arrays. Exhaustive mode is exact (stderr 0); monte_carlo
    streams seeded uniform bytes, each drawing 8 signs or 4 phases looked
    up in per-group partial-sum tables, uses the same draws for every row,
    and reports the sample standard error.
    """
    rows = _check_rows(a, ens)
    if ens.mode == "exhaustive":
        members = exhaustive_members(ens)
        value = np.empty(rows.shape[0])
        for sl, w in _member_products(rows, members):
            value[sl] = np.abs(w).mean(axis=1)
        stderr = np.zeros_like(value)
    else:
        tables = _byte_tables(rows, ens.field)
        groups = tables.shape[1] // 256
        # per sample: the bytes, the int64 gather index and V gathered values per group
        chunk = max(1, _CHUNK_ENTRIES // (groups * (2 + rows.shape[0])))
        total = ens.sample_count
        acc = np.zeros(rows.shape[0])
        acc_sq = np.zeros(rows.shape[0])
        for draws in _byte_draws(ens, groups, chunk):
            mags = np.abs(_table_products(tables, draws))
            acc += mags.sum(axis=1)
            acc_sq += (mags * mags).sum(axis=1)
        value = acc / total
        var = np.maximum(acc_sq / total - value * value, 0.0)
        stderr = np.sqrt(var / total)
    if np.ndim(a) != 2:
        return NormEstimate(value=float(value[0]), stderr=float(stderr[0]))
    return NormEstimate(value=value, stderr=stderr)


def embedding_l1_gradient(a, ens: SignEnsemble):
    """Value and subgradient of a -> E|<a, Z>| (complex-packed like the
    matrix-embedding gradient: d/dx_j = Re g_j, d/dy_j = Im g_j).

    ``a`` is one vector (n,), giving (float, (n,) gradient), or rows (V, n),
    giving ((V,) values, (V, n) gradients) in chunks of ~_CHUNK_ENTRIES.
    """
    rows = _check_rows(a, ens)
    members = exhaustive_members(ens)
    values = np.empty(rows.shape[0])
    grads = np.empty(rows.shape, dtype=np.complex128)
    for sl, w in _member_products(rows, members):
        mags = np.abs(w)
        values[sl] = mags.mean(axis=1)
        unit = np.divide(w, mags, out=np.zeros_like(w), where=mags > 0.0)
        grads[sl] = (unit @ members.conj()) / members.shape[0]
    if np.ndim(a) != 2:
        return float(values[0]), grads[0]
    return values, grads


def spread_ratio(a) -> float:
    """l_inf / l_2 ratio; small values mean no dominant coordinate."""
    a = np.asarray(a, dtype=np.complex128).reshape(-1)
    l2 = float(np.linalg.norm(a))
    if l2 == 0.0:
        raise ValueError("spread_ratio of the zero vector is undefined")
    return float(np.max(np.abs(a))) / l2


@dataclass
class ProfileRow:
    n: int
    spread: float
    value: float
    stderr: float
    gap: float


def berry_esseen_profile(n_values, field: str, *, mode: str = "auto",
                         sample_count: int | None = None,
                         seed: int | None = None) -> list[ProfileRow]:
    """L1 norms of the uniform vector (1,..,1)/sqrt(n) for each n, with the
    gap to the limiting constant. The gap shrinks toward 0 as n grows.

    mode='auto' enumerates exactly while the ensemble fits under the cap and
    falls back to Monte-Carlo beyond it.
    """
    if not n_values:
        raise ValueError("n_values must be nonempty")
    limit = REAL_LIMIT if field == "real" else COMPLEX_LIMIT
    rows = []
    for idx, n in enumerate(n_values):
        base = 2 if field == "real" else 4
        if mode == "exhaustive" or (mode == "auto" and base**n <= ENUMERATION_CAP):
            ens = SignEnsemble(field=field, n=n, mode="exhaustive")
        else:
            if sample_count is None:
                raise ValueError("Monte-Carlo profile rows require sample_count")
            row_seed = None if seed is None else seed + idx
            ens = SignEnsemble(field=field, n=n, mode="monte_carlo",
                               seed=row_seed, sample_count=sample_count)
        a = np.full(n, n**-0.5)
        est = embedding_l1_norm(a, ens)
        rows.append(ProfileRow(n=n, spread=n**-0.5, value=est.value,
                               stderr=est.stderr, gap=abs(est.value - limit)))
    return rows
