import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ncglab import linalg
from ncglab.clifford import PAULI_X, PAULI_Y, PAULI_Z


def random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_unitary(rng, d):
    q, r = np.linalg.qr(random_complex(rng, d, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def block_diag(blocks):
    """Reference direct sum of square blocks; the normalized trace norm of
    equal-size blocks' direct sum is the mean of their norms."""
    if not blocks:
        raise ValueError("block_diag requires at least one block")
    return scipy.linalg.block_diag(*blocks).astype(np.complex128)


def svd_polar(m):
    """Reference polar factor u @ vh from the SVD alone, for any input."""
    u, _, vh = np.linalg.svd(np.asarray(m, dtype=np.complex128), full_matrices=False)
    return u @ vh


def spread_diagonal(field, d, decades, seed):
    """Nonzero diagonal entries with magnitudes 10^[-decades, decades] and
    random signs (real) or phases (complex)."""
    rng = np.random.default_rng(seed)
    mags = 10.0 ** rng.uniform(-decades, decades, size=d)
    if field == "real":
        return mags * rng.choice([-1.0, 1.0], size=d)
    return mags * np.exp(2j * np.pi * rng.random(d))


# Past a magnitude ratio of about 1e300 the SVD rounds the smallest diagonal
# entries to zero singular values and returns 1 there, so the reference only
# holds within that ratio.
DIAGONALS = dict(field=st.sampled_from(["real", "complex"]), d=st.integers(1, 128),
                 decades=st.floats(0, 100), seed=st.integers(0, 2**32 - 1))


class TestSchattenNorms:
    def test_identity_norm_one(self):
        for d in (1, 2, 5):
            assert linalg.schatten1_norm(np.eye(d)) == pytest.approx(1.0)

    def test_pauli_x_norm_one(self):
        assert linalg.schatten1_norm(PAULI_X) == pytest.approx(1.0)

    def test_diag_3_1(self):
        # singular values {3, 1}, normalized average 2
        assert linalg.schatten1_norm(np.diag([3.0, 1.0])) == pytest.approx(2.0)

    def test_inf_norm_examples(self):
        assert linalg.schatten_inf_norm(np.eye(4)) == pytest.approx(1.0)
        assert linalg.schatten_inf_norm(np.zeros((3, 3))) == 0.0
        assert linalg.schatten_inf_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            linalg.schatten1_norm(np.ones((2, 3)))

    def test_nan_rejected(self):
        m = np.eye(2, dtype=complex)
        m[0, 0] = np.nan
        with pytest.raises(ValueError):
            linalg.schatten1_norm(m)

    def test_s1_dominated_by_sinf_and_unitary_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            d = int(rng.integers(1, 17))
            m = random_complex(rng, d, d)
            s1 = linalg.schatten1_norm(m)
            assert s1 <= linalg.schatten_inf_norm(m) + 1e-9
            u, v = random_unitary(rng, d), random_unitary(rng, d)
            assert abs(linalg.schatten1_norm(u @ m @ v) - s1) <= 1e-9


class TestBlockDiag:
    def test_identity_blocks(self):
        out = block_diag([np.eye(2), np.eye(2)])
        np.testing.assert_array_equal(out, np.eye(4))
        assert linalg.schatten1_norm(out) == pytest.approx(1.0)

    def test_pauli_and_zero_block(self):
        out = block_diag([PAULI_X, np.zeros((2, 2))])
        assert linalg.schatten1_norm(out) == pytest.approx(0.5)

    def test_single_block_unchanged(self):
        rng = np.random.default_rng(1)
        m = random_complex(rng, 3, 3)
        np.testing.assert_array_equal(block_diag([m]), m)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            block_diag([])

    def test_equal_size_norm_identity(self):
        # normalized norm of the direct sum is the mean over equal-size blocks
        rng = np.random.default_rng(2)
        for _ in range(20):
            blocks = [random_complex(rng, 3, 3) for _ in range(int(rng.integers(1, 5)))]
            combined = linalg.schatten1_norm(block_diag(blocks))
            mean = np.mean([linalg.schatten1_norm(b) for b in blocks])
            assert abs(combined - mean) <= 1e-12


class TestHermitianEmbeddings:
    def test_scalar_one(self):
        out = linalg.embed_complex_as_hermitian(np.array([[1.0]]))
        np.testing.assert_array_equal(out, np.array([[0, 1], [1, 0]]))
        np.testing.assert_allclose(np.linalg.eigvalsh(out), [-1.0, 1.0])

    def test_zero(self):
        np.testing.assert_array_equal(
            linalg.embed_complex_as_hermitian(np.zeros((2, 2))), np.zeros((4, 4)))

    def test_diag_2_1_eigenvalues(self):
        out = linalg.embed_complex_as_hermitian(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(np.linalg.eigvalsh(out), [-2, -1, 1, 2], atol=1e-12)

    def test_eigenvalues_are_plus_minus_singular_values(self):
        rng = np.random.default_rng(3)
        m = random_complex(rng, 4, 4)
        eig = np.sort(np.linalg.eigvalsh(linalg.embed_complex_as_hermitian(m)))
        s = np.linalg.svd(m, compute_uv=False)
        np.testing.assert_allclose(eig, np.sort(np.concatenate([s, -s])), atol=1e-10)

    def test_real_symmetric_from_pauli_y(self):
        out = linalg.embed_hermitian_as_real_symmetric(PAULI_Y)
        assert out.dtype.kind == "f"
        np.testing.assert_array_equal(out, out.T)
        np.testing.assert_allclose(np.linalg.eigvalsh(out), [-1, -1, 1, 1], atol=1e-12)

    def test_real_symmetric_identity_and_z(self):
        np.testing.assert_array_equal(
            linalg.embed_hermitian_as_real_symmetric(np.eye(2)), np.eye(4))
        out = linalg.embed_hermitian_as_real_symmetric(PAULI_Z)
        np.testing.assert_allclose(np.linalg.eigvalsh(out), [-1, -1, 1, 1], atol=1e-12)

    def test_doubled_multiplicities(self):
        rng = np.random.default_rng(4)
        h = random_complex(rng, 3, 3)
        h = (h + h.conj().T) / 2
        eig = np.sort(np.linalg.eigvalsh(linalg.embed_hermitian_as_real_symmetric(h)))
        expected = np.sort(np.repeat(np.linalg.eigvalsh(h), 2))
        np.testing.assert_allclose(eig, expected, atol=1e-10)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            linalg.embed_hermitian_as_real_symmetric(np.array([[0, 1], [0, 0]], dtype=complex))


class TestRho:
    def test_identity_preserved(self):
        assert linalg.schatten1_norm(linalg.rho(np.eye(2))) == pytest.approx(1.0)

    def test_norm_preserved_random(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = random_complex(rng, 3, 3)
            assert abs(linalg.schatten1_norm(linalg.rho(m))
                       - linalg.schatten1_norm(m)) <= 1e-9

    def test_real_linearity(self):
        rng = np.random.default_rng(6)
        a, b = random_complex(rng, 3, 3), random_complex(rng, 3, 3)
        alpha = float(rng.normal())
        np.testing.assert_allclose(linalg.rho(alpha * a + b),
                                   alpha * linalg.rho(a) + linalg.rho(b), atol=1e-12)

    def test_quadrupled_singular_values(self):
        rng = np.random.default_rng(7)
        m = random_complex(rng, 4, 4)
        s_rho = np.sort(np.linalg.svd(linalg.rho(m), compute_uv=False))
        s = np.sort(np.repeat(np.linalg.svd(m, compute_uv=False), 4))
        np.testing.assert_allclose(s_rho, s, atol=1e-8)


class TestPolarUnitary:
    def test_unitary_fixed_point(self):
        rng = np.random.default_rng(8)
        u = random_unitary(rng, 4)
        np.testing.assert_allclose(linalg.polar_unitary(u), u, atol=1e-12)

    def test_positive_diagonal(self):
        np.testing.assert_allclose(linalg.polar_unitary(np.diag([2.0, 3.0])),
                                   np.eye(2), atol=1e-12)

    def test_sign_matrix(self):
        np.testing.assert_allclose(linalg.polar_unitary(np.diag([-1.0, 1.0])),
                                   np.diag([-1.0, 1.0]), atol=1e-12)

    def test_zero_degenerate(self):
        with pytest.warns(RuntimeWarning):
            out = linalg.polar_unitary(np.zeros((3, 3)))
        np.testing.assert_array_equal(out, np.eye(3))

    def test_achieves_singular_value_sum(self):
        rng = np.random.default_rng(9)
        m = random_complex(rng, 5, 5)
        u = linalg.polar_unitary(m)
        achieved = float(np.trace(u.conj().T @ m).real)
        assert achieved == pytest.approx(np.linalg.svd(m, compute_uv=False).sum())
        for _ in range(100):
            w = random_unitary(rng, 5)
            assert float(np.trace(w.conj().T @ m).real) <= achieved + 1e-9


class TestPolarClosedForm:
    @settings(max_examples=60, deadline=None)
    @given(**DIAGONALS)
    def test_nonsingular_diagonal_matches_svd(self, field, d, decades, seed):
        m = np.diag(spread_diagonal(field, d, decades, seed))
        out = linalg.polar_unitary(m)
        assert np.abs(out - svd_polar(m)).max() <= 1e-15
        assert np.count_nonzero(out - np.diag(np.diag(out))) == 0
        assert np.abs(out.conj().T @ out - np.eye(d)).max() <= 1e-15

    @settings(max_examples=40, deadline=None)
    @given(**{**DIAGONALS, "d": st.integers(2, 128)})
    def test_other_inputs_take_the_svd_bit_for_bit(self, field, d, decades, seed):
        # every 1 x 1 matrix is diagonal, so these need d >= 2
        rng = np.random.default_rng(seed + 1)
        diag = spread_diagonal(field, d, decades, seed)
        singular = diag.copy()
        singular[rng.permutation(d)[:rng.integers(1, d)]] = 0.0
        off_diagonal = np.diag(diag).astype(np.complex128)
        i, j = rng.choice(d, size=2, replace=False)
        off_diagonal[i, j] = 1e-300
        swapped = np.diag(diag)  # as many nonzeros as a diagonal, two of them off it
        swapped[[i, j]] = swapped[[j, i]]
        for m in (np.diag(singular), off_diagonal, swapped, random_complex(rng, d, d)):
            assert linalg.polar_unitary(m).tobytes() == svd_polar(m).tobytes()
