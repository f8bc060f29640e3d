import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
        # the entries of a diagonal as a (d, 1, 1) stack take m / |m|; as the
        # blocks of the diagonal matrix they are its SVD polar factor
        diag = spread_diagonal(field, d, decades, seed)
        m = np.diag(diag)
        out = linalg.polar_unitary(diag.reshape(d, 1, 1))
        assert out.shape == (d, 1, 1)
        closed = np.diag(out.reshape(d))
        np.testing.assert_array_equal(out.reshape(d), diag.astype(np.complex128) / np.abs(diag))
        assert np.abs(closed - svd_polar(m)).max() <= 1e-15
        assert np.abs(np.abs(out) - 1).max() <= 1e-15
        assert np.abs(closed.conj().T @ closed - np.eye(d)).max() <= 1e-15
        # the 2-D diagonal has no branch of its own: past d = 1 it takes the
        # SVD, whose unitarity residual can pass 1e-15 (1.1e-15 at d = 75)
        dense = linalg.polar_unitary(m)
        assert dense.tobytes() == (closed if d == 1 else svd_polar(m)).tobytes()
        assert np.count_nonzero(dense - np.diag(np.diag(dense))) == 0

    @settings(max_examples=40, deadline=None)
    @given(**{**DIAGONALS, "d": st.integers(2, 128)})
    def test_other_inputs_take_the_svd_bit_for_bit(self, field, d, decades, seed):
        # 1 x 1 blocks take the closed form, so these need d >= 2
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


class TestPolarStacks:
    @pytest.mark.parametrize("b", [1, 2, 3, 5])
    def test_stack_matches_each_block(self, b):
        rng = np.random.default_rng(50 + b)
        stack = random_complex(rng, 4, 3, b, b)
        out = linalg.polar_unitary(stack)
        assert out.shape == stack.shape
        for idx in np.ndindex(4, 3):
            assert np.abs(out[idx] - svd_polar(stack[idx])).max() <= 1e-14
            if b > 1:
                assert out[idx].tobytes() == svd_polar(stack[idx]).tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("b", [1, 3])
    def test_zero_blocks_give_identity_blocks(self, b):
        rng = np.random.default_rng(60 + b)
        stack = random_complex(rng, 5, b, b)
        stack[[1, 3]] = 0
        out = linalg.polar_unitary(stack)
        for k in (1, 3):
            np.testing.assert_array_equal(out[k], np.eye(b))
        for k in (0, 2, 4):
            assert np.abs(out[k] - svd_polar(stack[k])).max() <= 1e-14

    @pytest.mark.parametrize("b", [1, 2])
    def test_all_zero_stack_warns(self, b):
        with pytest.warns(RuntimeWarning):
            out = linalg.polar_unitary(np.zeros((3, b, b)))
        np.testing.assert_array_equal(out, np.broadcast_to(np.eye(b), (3, b, b)))

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2, 3)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(ValueError):
            linalg.polar_unitary(np.ones(shape))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            linalg.polar_unitary(np.full((2, 1, 1), np.nan))


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.5, -0.1]
PAIR_FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False))


class TestPairs:
    """_pairs and _from_pairs, the one [re, im] view pair that the projector,
    the residual and the file readers and writers share."""

    @settings(max_examples=200, deadline=None)
    @given(parts=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                                         max_side=4).map(lambda s: (*s, 2)),
                            elements=PAIR_FLOATS),
           strided=st.booleans())
    def test_round_trip_keeps_every_byte(self, parts, strided):
        z = np.empty(parts.shape[:-1], dtype=np.complex128)
        z.real, z.imag = parts[..., 0], parts[..., 1]  # keeps signed zeros
        if strided and z.ndim:  # non-contiguous input
            z = z[..., ::2]
        pairs = linalg._pairs(z)
        assert pairs.dtype == np.float64 and pairs.shape == (*z.shape, 2)
        assert pairs[..., 0].tobytes() == z.real.tobytes()
        assert pairs[..., 1].tobytes() == z.imag.tobytes()
        back = linalg._from_pairs(pairs)
        assert back.dtype == np.complex128 and back.shape == z.shape
        assert back.tobytes() == z.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(x=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                                     max_side=4), elements=PAIR_FLOATS))
    def test_real_input(self, x):
        back = linalg._from_pairs(linalg._pairs(x))
        assert back.tobytes() == x.astype(np.complex128).tobytes()

    def test_contiguous_complex_is_a_view(self):
        z = random_complex(np.random.default_rng(70), 3, 4)
        pairs = linalg._pairs(z)
        assert np.shares_memory(pairs, z)
        pairs[1, 2] = [-0.0, 2.5]
        assert z[1, 2].tobytes() == np.complex128(complex(-0.0, 2.5)).tobytes()
        assert not np.shares_memory(linalg._pairs(z.T), z)
