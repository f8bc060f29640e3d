import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncglab import commutative as comm
from ncglab import config
from ncglab.clifford import PHASE_VALUES

INV_SQRT2 = 2**-0.5
# E|w1 + w2|/sqrt(2) over fourth roots of unity: (2 + sqrt(2) + sqrt(2) + 0)/4/sqrt(2)
COMPLEX_TWO_VALUE = (1 + np.sqrt(2)) / (2 * np.sqrt(2))


def decoded_draws(fld, n, seed, count):
    """The code words a seeded Monte-Carlo ensemble reads, redrawn from the
    seed, and the rows Z they encode. Sample s takes ceil(groups/8) 64-bit
    words; byte g (byte g % 8 of word g // 8, low byte first) holds coordinates
    g*per .. g*per+per-1, one bit each (real signs 1 - 2*bit) or two bits each
    (complex phases i^digit), low bits first."""
    per = 8 if fld == "real" else 4
    groups = -(-n // per)
    words = -(-groups // 8)
    raw = np.random.default_rng(seed).bit_generator.random_raw(count * words)
    draws = raw.astype("<u8").view(np.uint8).reshape(count, 8 * words)[:, :groups]
    coord = np.arange(n)
    digits = draws[:, coord // per] >> ((8 // per) * (coord % per))
    if fld == "real":
        return raw.reshape(count, words), 1.0 - 2.0 * (digits & 1)
    return raw.reshape(count, words), np.array([1, 1j, -1, -1j])[digits & 3]


def gathered_products(tables, words):
    """<a, Z> by the former kernel, the reference for the streamed one: every
    sample's bytes index one (V, size, groups) gather of the (V, groups, 256)
    tables, summed over the groups by a matmul."""
    groups = tables.shape[1]
    draws = words.astype("<u8").view(np.uint8)[:, :groups]
    flat = tables.reshape(tables.shape[0], -1)
    return np.take(flat, draws + 256 * np.arange(groups), axis=1) @ np.ones(groups)


def digit_members(fld, n, lo, hi):
    """Members lo .. hi-1 by digit enumeration: member k has the base-2
    (real) or base-4 (complex) digits of k, coordinate 0 least significant,
    as sign exponents (-1)^digit or phase exponents i^digit."""
    bits = 1 if fld == "real" else 2  # per digit
    k = np.arange(lo, hi)
    digits = (k[:, None] >> bits * np.arange(n)) & (2**bits - 1)
    return 1.0 - 2.0 * digits if fld == "real" else PHASE_VALUES[digits]


def counted_chunks(monkeypatch):
    """The member count of each chunk the member stream yields from now on."""
    sizes = []
    stream = comm._member_codes
    monkeypatch.setattr(comm, "_member_codes", lambda ens, live: (
        sizes.append(codes.shape[0]) or codes for codes in stream(ens, live)))
    return sizes


def unit_vector(rng, fld, n):
    a = rng.normal(size=n)
    if fld == "complex":
        a = a + 1j * rng.normal(size=n)
    return a / np.linalg.norm(a)


class TestEnsemble:
    def test_exhaustive_members_real(self):
        ens = comm.SignEnsemble(field="real", n=2)
        members = comm.exhaustive_members(ens)
        assert members.shape == (4, 2)
        assert set(map(tuple, members.tolist())) == {(1, 1), (-1, 1), (1, -1), (-1, -1)}

    def test_exhaustive_members_complex_count(self):
        ens = comm.SignEnsemble(field="complex", n=2)
        assert comm.exhaustive_members(ens).shape == (16, 2)

    @pytest.mark.parametrize("fld, n", [("real", n) for n in range(1, 21)]
                             + [("complex", n) for n in range(1, 11)])
    def test_exhaustive_members_are_the_digit_enumeration(self, fld, n):
        # member k is the bytes of k; compared bit for bit, dtype included,
        # in blocks so the reference stays small
        members = comm.exhaustive_members(comm.SignEnsemble(field=fld, n=n))
        size = (2 if fld == "real" else 4) ** n
        assert members.shape == (size, n) and members.flags.c_contiguous
        for lo in range(0, size, 2**16):
            ref = digit_members(fld, n, lo, min(lo + 2**16, size))
            block = members[lo:lo + 2**16]
            assert block.dtype == ref.dtype and block.tobytes() == ref.tobytes()

    def test_exhaustive_members_refuse_monte_carlo(self):
        with pytest.raises(ValueError):
            comm.exhaustive_members(comm.SignEnsemble(field="real", n=3, mode="monte_carlo",
                                                      seed=1, sample_count=10))

    def test_caps_and_validation(self):
        with pytest.raises(ValueError):
            comm.SignEnsemble(field="real", n=30)
        with pytest.raises(ValueError):
            comm.SignEnsemble(field="real", n=2, mode="monte_carlo")
        with pytest.raises(ValueError):
            comm.SignEnsemble(field="rational", n=2)

    @pytest.mark.parametrize("fld, largest, refused", [("real", 20, "2^21"),
                                                       ("complex", 10, "2^22")])
    def test_cap_boundary(self, fld, largest, refused):
        assert comm.SignEnsemble(field=fld, n=largest).size == config.ENUMERATION_CAP
        with pytest.raises(ValueError, match=re.escape(f"size {refused} exceeds cap")):
            comm.SignEnsemble(field=fld, n=largest + 1)

    @pytest.mark.parametrize("refuse", [
        lambda: comm.SignEnsemble(field="complex", n=10**8),
        lambda: comm.SignEnsemble(field="real", n=10**8),
        lambda: comm.berry_esseen_profile([10**8], "complex"),
        lambda: comm.berry_esseen_profile([10**8], "real"),
    ], ids=["complex", "real", "profile-complex", "profile-real"])
    def test_huge_n_refused_on_its_exponent(self, refuse):
        # 4^(10^8) alone is a 23 MiB integer; the caps compare n first
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                refuse()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestEmbeddingL1Norm:
    def test_basis_vectors(self):
        for fld in ("real", "complex"):
            ens = comm.SignEnsemble(field=fld, n=3)
            for i in range(3):
                e = np.zeros(3)
                e[i] = 1.0
                assert comm.embedding_l1_norm(e, ens).value == pytest.approx(1.0, abs=1e-14)

    def test_real_uniform_pair(self):
        ens = comm.SignEnsemble(field="real", n=2)
        a = np.array([1.0, 1.0]) / np.sqrt(2)
        assert comm.embedding_l1_norm(a, ens).value == pytest.approx(INV_SQRT2, abs=1e-14)

    def test_complex_uniform_pair(self):
        ens = comm.SignEnsemble(field="complex", n=2)
        a = np.array([1.0, 1.0]) / np.sqrt(2)
        assert comm.embedding_l1_norm(a, ens).value == pytest.approx(COMPLEX_TWO_VALUE, abs=1e-14)

    def test_real_field_rejects_complex_vector(self):
        ens = comm.SignEnsemble(field="real", n=2)
        with pytest.raises(ValueError):
            comm.embedding_l1_norm(np.array([1.0, 1j]), ens)

    def test_l2_domination_exact(self):
        rng = np.random.default_rng(0)
        ens = comm.SignEnsemble(field="complex", n=4)
        for _ in range(50):
            a = rng.normal(size=4) + 1j * rng.normal(size=4)
            assert comm.embedding_l1_norm(a, ens).value <= np.linalg.norm(a) + 1e-12

    def test_homogeneity_exact(self):
        rng = np.random.default_rng(1)
        ens = comm.SignEnsemble(field="real", n=4)
        a = rng.normal(size=4)
        c = -2.5
        assert comm.embedding_l1_norm(c * a, ens).value == pytest.approx(
            abs(c) * comm.embedding_l1_norm(a, ens).value, rel=1e-14)

    def test_monte_carlo_reproducible_and_consistent(self):
        a = np.full(6, 6**-0.5)
        mc = comm.SignEnsemble(field="real", n=6, mode="monte_carlo", seed=3,
                               sample_count=200_000)
        est1 = comm.embedding_l1_norm(a, mc)
        est2 = comm.embedding_l1_norm(a, mc)
        assert est1.value == est2.value
        assert est1.value <= np.linalg.norm(a) + 3 * est1.stderr
        exact = comm.embedding_l1_norm(a, comm.SignEnsemble(field="real", n=6)).value
        assert abs(est1.value - exact) <= 5 * est1.stderr

    @pytest.mark.parametrize("fld, n", [("real", 9), ("complex", 5)])
    def test_monte_carlo_consistent_across_partial_bytes(self, fld, n):
        # n is no multiple of the coordinates per byte (8 real, 4 complex),
        # so a bit-order or padding slip moves the estimate off the exact value
        a = unit_vector(np.random.default_rng(n), fld, n)
        mc = comm.SignEnsemble(field=fld, n=n, mode="monte_carlo", seed=3,
                               sample_count=200_000)
        est = comm.embedding_l1_norm(a, mc)
        assert est.value <= np.linalg.norm(a) + 3 * est.stderr
        exact = comm.embedding_l1_norm(a, comm.SignEnsemble(field=fld, n=n)).value
        assert abs(est.value - exact) <= 5 * est.stderr


class TestByteTableSampler:
    @pytest.mark.parametrize("fld", ["real", "complex"])
    @pytest.mark.parametrize("n", list(range(1, 18)) + [1000])
    def test_matches_direct_products_on_same_bytes(self, fld, n, monkeypatch):
        a = unit_vector(np.random.default_rng(n), fld, n)
        count, seed = 500, 100 + n
        draws, z = decoded_draws(fld, n, seed, count)
        direct = z @ a
        tables = comm._byte_tables(a.reshape(1, -1), fld)
        assert np.max(np.abs(comm._table_products(tables, draws)[0] - direct)) <= 1e-12
        # chunks of a few samples, so the estimate spans many chunk boundaries
        monkeypatch.setattr(config, "CHUNK_ENTRIES", 7 * 3 * draws.shape[1])
        est = comm.embedding_l1_norm(a, comm.SignEnsemble(
            field=fld, n=n, mode="monte_carlo", seed=seed, sample_count=count))
        mags = np.abs(direct)
        assert abs(est.value - mags.mean()) <= 1e-12
        assert abs(est.stderr - mags.std() / np.sqrt(count)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(fld=st.sampled_from(["real", "complex"]),
           parts=st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
                          min_size=1, max_size=40),
           seed=st.integers(0, 2**32 - 1))
    def test_table_products_property(self, fld, parts, seed):
        a = np.array([x + 1j * y if fld == "complex" else x for x, y in parts])
        draws, z = decoded_draws(fld, a.size, seed, 64)
        tables = comm._byte_tables(a.reshape(1, -1), fld)
        assert np.max(np.abs(comm._table_products(tables, draws)[0] - z @ a)) <= 1e-12

    @pytest.mark.parametrize("fld", ["real", "complex"])
    @pytest.mark.parametrize("mode", ["exhaustive", "monte_carlo"])
    def test_batched_rows_match_single_rows(self, fld, mode, monkeypatch):
        n = 5
        ens = comm.SignEnsemble(field=fld, n=n, mode=mode, seed=9, sample_count=1000)
        rng = np.random.default_rng(12)
        rows = np.array([unit_vector(rng, fld, n) for _ in range(7)])
        # small member chunks whose size depends on the row count, so one
        # row and seven rows split the stream at different members
        monkeypatch.setattr(config, "CHUNK_ENTRIES", ens.size)
        chunks = counted_chunks(monkeypatch)
        batch = comm.embedding_l1_norm(rows, ens)
        assert len(chunks) >= 3 and sum(chunks) == ens.size
        assert batch.value.shape == batch.stderr.shape == (7,)
        for v, row in enumerate(rows):
            chunks.clear()
            est = comm.embedding_l1_norm(row, ens)
            assert len(chunks) >= 3 and sum(chunks) == ens.size
            assert abs(batch.value[v] - est.value) <= 1e-12
            assert abs(batch.stderr[v] - est.stderr) <= 1e-12

    @pytest.mark.parametrize("fld", ["real", "complex"])
    @pytest.mark.parametrize("mode", ["exhaustive", "monte_carlo"])
    def test_row_blocks_match_single_rows(self, fld, mode, monkeypatch):
        n = 5
        ens = comm.SignEnsemble(field=fld, n=n, mode=mode, seed=4, sample_count=500)
        rng = np.random.default_rng(21)
        rows = np.array([unit_vector(rng, fld, n) for _ in range(7)])
        singles = [comm.embedding_l1_norm(row, ens) for row in rows]
        # room for the tables of two rows: blocks of 2, 2, 2 and 1 rows
        monkeypatch.setattr(comm, "TABLE_CAP", 2 * comm._byte_tables(rows[:1], fld).nbytes // 8)
        blocks, build = [], comm._byte_tables
        monkeypatch.setattr(comm, "_byte_tables", lambda r, f: blocks.append(len(r)) or build(r, f))
        batch = comm.embedding_l1_norm(rows, ens)
        assert blocks == [2, 2, 2, 1]
        for v, est in enumerate(singles):
            assert abs(batch.value[v] - est.value) <= 1e-12
            assert abs(batch.stderr[v] - est.stderr) <= 1e-12

    # one row's tables hold 256 entries per byte group: 1 KiB per complex
    # coordinate (64 MiB at n = 65536), 256 B per real one
    @pytest.mark.parametrize("fld, n, entries", [
        ("complex", 32769, 2**22 + 512), ("real", 131073, 2**22 + 256),
        ("complex", 65536, 2**23)])
    def test_row_over_table_cap_refused_before_tables(self, fld, n, entries):
        ens = comm.SignEnsemble(field=fld, n=n, mode="monte_carlo", seed=1, sample_count=10)
        a = np.full(n, n**-0.5)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=re.escape(
                    f"{fld} n={n}: one row's byte tables hold {entries} float64, "
                    f"over TABLE_CAP {2**22}")):
                comm.embedding_l1_norm(a, ens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("fld, largest", [("complex", 32768), ("real", 131072)])
    def test_largest_row_under_table_cap_runs(self, fld, largest):
        ens = comm.SignEnsemble(field=fld, n=largest, mode="monte_carlo", seed=1,
                                sample_count=4)
        est = comm.embedding_l1_norm(np.full(largest, largest**-0.5), ens)
        assert 0.0 < est.value <= 1.0 + 1e-12


class TestStreamedKernel:
    """The per-group kernel against the former gather-and-matmul product on the
    same code words, and the memory it holds."""

    # every exhaustive ensemble under the enumeration cap (complex stops at n = 10)
    @pytest.mark.parametrize("fld, n, mode", [
        (fld, n, mode) for fld in ("real", "complex") for n in list(range(1, 18)) + [1000]
        for mode in ("exhaustive", "monte_carlo")
        if mode == "monte_carlo" or n * (1 if fld == "real" else 2) <= 20])
    @pytest.mark.parametrize("count", [1, 7])
    def test_matches_gathered_products(self, fld, n, mode, count, monkeypatch):
        ens = comm.SignEnsemble(field=fld, n=n, mode=mode, seed=200 + n, sample_count=500)
        rng = np.random.default_rng(n)
        rows = np.array([unit_vector(rng, fld, n) for _ in range(count)])
        # at least seven entries per member: every stream crosses chunk boundaries
        monkeypatch.setattr(config, "CHUNK_ENTRIES", ens.size)
        chunks = counted_chunks(monkeypatch)
        sums, kernel = np.zeros((2, count)), comm._table_products

        def checked(tables, words):
            prods, ref = kernel(tables, words), gathered_products(tables, words)
            assert prods.shape == ref.shape == (count, words.shape[0])
            assert np.max(np.abs(prods - ref)) <= 1e-12
            sums[0] += np.abs(ref).sum(axis=1)
            sums[1] += (np.abs(ref) ** 2).sum(axis=1)
            return prods

        monkeypatch.setattr(comm, "_table_products", checked)
        est = comm.embedding_l1_norm(rows, ens)
        assert len(chunks) >= 2 and sum(chunks) == ens.size
        value = sums[0] / ens.size
        assert np.max(np.abs(est.value - value)) <= 1e-12
        if mode == "monte_carlo":
            stderr = np.sqrt(np.maximum(sums[1] / ens.size - value**2, 0.0) / ens.size)
            assert np.max(np.abs(est.stderr - stderr)) <= 1e-12

    @pytest.mark.parametrize("fld", ["real", "complex"])
    def test_peak_at_bench_shape(self, fld):
        # n = 1000 with 5e4 samples, one row: the gathered kernel traced 32 MiB here
        ens = comm.SignEnsemble(field=fld, n=1000, mode="monte_carlo", seed=1,
                                sample_count=50_000)
        tracemalloc.start()
        try:
            comm.embedding_l1_norm(np.full(1000, 1000**-0.5), ens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    @pytest.mark.parametrize("fld", ["real", "complex"])
    @pytest.mark.parametrize("count", [1, 7])
    def test_peak_within_shrunk_budget(self, fld, count, monkeypatch):
        # the chunks' count of live entries is a bound: beside the budget only the
        # tables and the rows' own copies (complex, real and padded) remain
        n = 1000
        ens = comm.SignEnsemble(field=fld, n=n, mode="monte_carlo", seed=1,
                                sample_count=20_000)
        rows = np.array([unit_vector(np.random.default_rng(v), fld, n)
                         for v in range(count)], dtype=np.complex128)
        tables = comm._byte_tables(comm._check_rows(rows, ens), fld).nbytes
        monkeypatch.setattr(config, "CHUNK_ENTRIES", 2**16)
        chunks = counted_chunks(monkeypatch)
        tracemalloc.start()
        try:
            comm.embedding_l1_norm(rows, ens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(chunks) >= 10
        assert peak <= 8 * 2**16 + tables + 3 * rows.nbytes


class TestGradient:
    @pytest.mark.parametrize("fld", ["real", "complex"])
    def test_finite_differences(self, fld):
        rng = np.random.default_rng(4)
        ens = comm.SignEnsemble(field=fld, n=3)
        a = rng.normal(size=3)
        if fld == "complex":
            a = a + 1j * rng.normal(size=3)
        value, grad = comm.embedding_l1_gradient(a, ens)
        assert value == pytest.approx(comm.embedding_l1_norm(a, ens).value)
        h = 1e-7
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            dx = (comm.embedding_l1_norm(a + e, ens).value
                  - comm.embedding_l1_norm(a - e, ens).value) / (2 * h)
            assert dx == pytest.approx(grad[j].real, abs=1e-5)
            if fld == "complex":
                dy = (comm.embedding_l1_norm(a + 1j * e, ens).value
                      - comm.embedding_l1_norm(a - 1j * e, ens).value) / (2 * h)
                assert dy == pytest.approx(grad[j].imag, abs=1e-5)


    @pytest.mark.parametrize("a, fld", [([5e-324 + 5e-324j, 0], "complex"),
                                        ([5e-324j, -5e-324], "complex"),
                                        ([5e-324, -5e-324], "real")])
    def test_subnormal_products_give_finite_gradient(self, a, fld):
        # a complex division by a subnormal |<a, Z>| took 1 / |<a, Z>| = inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, grad = comm.embedding_l1_gradient(a, comm.SignEnsemble(fld, 2))
        assert value > 0.0 and np.all(np.isfinite(grad)) and np.any(grad)

    @pytest.mark.parametrize("fld", ["real", "complex"])
    def test_batched_rows_across_chunks(self, fld, monkeypatch):
        n = 5
        ens = comm.SignEnsemble(field=fld, n=n)
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(7, n))
        if fld == "complex":
            rows = rows + 1j * rng.normal(size=(7, n))
        whole = comm.embedding_l1_gradient(rows, ens)
        # a few members per chunk, fewer for seven rows than for one
        monkeypatch.setattr(config, "CHUNK_ENTRIES", 8 * ens.size)
        chunks = counted_chunks(monkeypatch)
        chunked = comm.embedding_l1_gradient(rows, ens)
        assert len(chunks) >= 3 and sum(chunks) == ens.size
        for v, row in enumerate(rows):
            chunks.clear()
            value, grad = comm.embedding_l1_gradient(row, ens)
            assert len(chunks) >= 3 and sum(chunks) == ens.size
            for values, grads in (whole, chunked):
                assert abs(values[v] - value) <= 1e-12
                assert np.max(np.abs(grads[v] - grad)) <= 1e-12

    @pytest.mark.parametrize("fld, n", [("real", 3), ("real", 21), ("complex", 5),
                                        ("complex", 9)])
    def test_monte_carlo_matches_decoded_draws(self, fld, n, monkeypatch):
        count, seed = 300, 60 + n
        rng = np.random.default_rng(n)
        rows = np.array([unit_vector(rng, fld, n) for _ in range(4)])
        rows[2] = 0.0
        _, z = decoded_draws(fld, n, seed, count)
        w = rows @ z.T
        mags = np.abs(w)
        unit = np.divide(w, mags, out=np.zeros_like(w), where=mags > 0.0)
        monkeypatch.setattr(config, "CHUNK_ENTRIES", 4000)  # several chunks
        values, grads = comm.embedding_l1_gradient(rows, comm.SignEnsemble(
            field=fld, n=n, mode="monte_carlo", seed=seed, sample_count=count))
        assert grads.dtype == np.complex128
        assert np.max(np.abs(values - mags.mean(axis=1))) <= 1e-12
        assert np.max(np.abs(grads - unit @ z.conj() / count)) <= 1e-12
        assert not np.any(grads[2])

    @settings(max_examples=150, deadline=None)
    @given(fld=st.sampled_from(["real", "complex"]),
           parts=st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
                          min_size=1, max_size=40),
           exhaustive=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_values_match_norm_property(self, fld, parts, exhaustive, seed):
        # the two kernels add the same products in different orders: on unit rows
        # (exhaustive real n = 20, complex n = 10, Monte Carlo to n = 300) the values
        # differed by at most 8.8e-16 ||a||_2
        a = np.array([x + 1j * y if fld == "complex" else x for x, y in parts])
        exhaustive = exhaustive and a.size * (1 if fld == "real" else 2) <= 12
        ens = comm.SignEnsemble(field=fld, n=a.size, seed=seed, sample_count=256,
                                mode="exhaustive" if exhaustive else "monte_carlo")
        value, _ = comm.embedding_l1_gradient(a, ens)
        assert abs(value - comm.embedding_l1_norm(a, ens).value) <= 1e-15 * np.linalg.norm(a)

    @pytest.mark.parametrize("fld, n", [("real", 20), ("complex", 10)])
    def test_peak_memory_is_bounded(self, fld, n):
        # 2^20 members at V=40: a full member matrix alone is 160 MiB (real)
        # or 80 MiB (complex) before any product
        ens = comm.SignEnsemble(field=fld, n=n)
        rows = np.array([unit_vector(np.random.default_rng(v), fld, n) for v in range(40)])
        peaks, results = [], []
        for fn in (comm.embedding_l1_norm, comm.embedding_l1_gradient):
            tracemalloc.start()
            try:
                results.append(fn(rows, ens))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 64 * 2**20
        assert np.max(np.abs(results[0].value - results[1][0])) <= 1e-12


class TestRealFieldArithmetic:
    """A real ensemble computes in float64; the values, stderr and gradients
    equal the same formulas in complex arithmetic."""

    def test_real_rows_are_float64(self):
        ens = comm.SignEnsemble(field="real", n=3)
        rows = comm._check_rows(np.array([[1.0, -2.0, 0.5]], dtype=np.complex128), ens)
        assert rows.dtype == np.float64 and rows.flags.c_contiguous
        assert comm._byte_tables(rows, "real").dtype == np.float64

    @pytest.mark.parametrize("n", [1, 5, 9])
    def test_exhaustive_matches_complex_reference(self, n):
        ens = comm.SignEnsemble(field="real", n=n)
        rows = np.random.default_rng(n).normal(size=(7, n)).astype(np.complex128)
        rows[3] = 0.0
        members = comm.exhaustive_members(ens).astype(np.complex128)
        w = rows @ members.T
        mags = np.abs(w)
        unit = np.divide(w, mags, out=np.zeros_like(w), where=mags > 0.0)
        grads_ref = ((unit @ members.conj()) / members.shape[0]).real.astype(np.complex128)
        est = comm.embedding_l1_norm(rows, ens)
        values, grads = comm.embedding_l1_gradient(rows, ens)
        assert grads.dtype == np.complex128 and not np.any(grads.imag)
        assert np.max(np.abs(est.value - mags.mean(axis=1))) <= 1e-12
        assert np.max(np.abs(values - mags.mean(axis=1))) <= 1e-12
        assert not np.any(est.stderr)
        assert np.max(np.abs(grads - grads_ref)) <= 1e-12

    @pytest.mark.parametrize("n", [3, 8, 21])
    def test_monte_carlo_matches_complex_reference(self, n):
        count, seed = 300, 40 + n
        rows = np.random.default_rng(n).normal(size=(5, n)).astype(np.complex128)
        _, z = decoded_draws("real", n, seed, count)
        mags = np.abs(rows @ z.astype(np.complex128).T)
        est = comm.embedding_l1_norm(rows, comm.SignEnsemble(
            field="real", n=n, mode="monte_carlo", seed=seed, sample_count=count))
        assert np.max(np.abs(est.value - mags.mean(axis=1))) <= 1e-12
        assert np.max(np.abs(est.stderr - mags.std(axis=1) / np.sqrt(count))) <= 1e-12


class TestProfile:
    def test_real_small_rows(self):
        rows = comm.berry_esseen_profile([1, 2], "real")
        assert rows[0].value == pytest.approx(1.0)
        assert rows[0].gap == pytest.approx(1.0 - comm.REAL_LIMIT)
        assert rows[1].value == pytest.approx(INV_SQRT2)

    def test_exact_gaps_strictly_decreasing(self):
        real_rows = comm.berry_esseen_profile([2, 4, 8, 16], "real")
        assert all(real_rows[i + 1].gap < real_rows[i].gap for i in range(3))
        cplx_rows = comm.berry_esseen_profile([1, 2, 4, 8], "complex")
        assert all(cplx_rows[i + 1].gap < cplx_rows[i].gap for i in range(3))

    @pytest.mark.parametrize("fld", ["real", "complex"])
    def test_gap_shrinks_through_monte_carlo(self, fld):
        rows = comm.berry_esseen_profile([4, 16, 64, 256], fld, sample_count=600_000, seed=42)
        for prev, cur in zip(rows, rows[1:]):
            slack = 3.0 * (prev.stderr + cur.stderr) + 1e-12
            assert cur.gap <= prev.gap + slack

    @pytest.mark.parametrize("fld, n_values", [("real", [2, 4, 8, 16]),
                                               ("complex", [1, 2, 4, 8])])
    def test_exact_rows_ignore_sample_count(self, fld, n_values):
        # rows under the enumeration cap are enumerated whatever sample_count says
        exact = comm.berry_esseen_profile(n_values, fld)
        given = comm.berry_esseen_profile(n_values, fld, sample_count=100, seed=0)
        assert exact == given
        assert all(row.stderr == 0.0 for row in given)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            comm.berry_esseen_profile([], "real")
