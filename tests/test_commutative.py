import numpy as np
import pytest

from ncglab import commutative as comm

INV_SQRT2 = 2**-0.5
# E|w1 + w2|/sqrt(2) over fourth roots of unity: (2 + sqrt(2) + sqrt(2) + 0)/4/sqrt(2)
COMPLEX_TWO_VALUE = (1 + np.sqrt(2)) / (2 * np.sqrt(2))


class TestEnsemble:
    def test_exhaustive_members_real(self):
        ens = comm.SignEnsemble(field="real", n=2)
        members = comm.exhaustive_members(ens)
        assert members.shape == (4, 2)
        assert set(map(tuple, members.tolist())) == {(1, 1), (-1, 1), (1, -1), (-1, -1)}

    def test_exhaustive_members_complex_count(self):
        ens = comm.SignEnsemble(field="complex", n=2)
        assert comm.exhaustive_members(ens).shape == (16, 2)

    def test_caps_and_validation(self):
        with pytest.raises(ValueError):
            comm.SignEnsemble(field="real", n=30)
        with pytest.raises(ValueError):
            comm.SignEnsemble(field="real", n=2, mode="monte_carlo")
        with pytest.raises(ValueError):
            comm.SignEnsemble(field="rational", n=2)


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


    @pytest.mark.parametrize("fld", ["real", "complex"])
    def test_batched_rows_across_chunks(self, fld, monkeypatch):
        ens = comm.SignEnsemble(field=fld, n=3)
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(7, 3))
        if fld == "complex":
            rows = rows + 1j * rng.normal(size=(7, 3))
        whole = comm.embedding_l1_gradient(rows, ens)
        # three rows per chunk, so 7 rows take two full chunks and a partial one
        monkeypatch.setattr(comm, "_CHUNK_ENTRIES", 3 * comm.exhaustive_members(ens).shape[0])
        chunked = comm.embedding_l1_gradient(rows, ens)
        for v, row in enumerate(rows):
            value, grad = comm.embedding_l1_gradient(row, ens)
            for values, grads in (whole, chunked):
                assert abs(values[v] - value) <= 1e-12
                assert np.max(np.abs(grads[v] - grad)) <= 1e-12


class TestSpreadRatio:
    def test_examples(self):
        assert comm.spread_ratio([0, 1, 0]) == pytest.approx(1.0)
        assert comm.spread_ratio(np.full(4, 0.5)) == pytest.approx(0.5)
        assert comm.spread_ratio(np.array([2.0, 1.0]) / np.sqrt(5)) == pytest.approx(2 / np.sqrt(5))

    def test_zero_vector(self):
        with pytest.raises(ValueError):
            comm.spread_ratio(np.zeros(3))


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
        rows = comm.berry_esseen_profile([4, 16, 64, 256], fld, mode="auto",
                                         sample_count=600_000, seed=42)
        for prev, cur in zip(rows, rows[1:]):
            slack = 3.0 * (prev.stderr + cur.stderr) + 1e-12
            assert cur.gap <= prev.gap + slack

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            comm.berry_esseen_profile([], "real")
