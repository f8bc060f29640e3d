import functools
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncglab import labelcover as lc
from ncglab import reduction as red
from ncglab import solvers
from ncglab.clifford import PAULI_X
from ncglab.config import DEFAULT_ITERS, DEFAULT_RESTARTS, DEFAULT_TOL
from ncglab.linalg import polar_unitary
from ncglab.reduction import BACKEND_BUILDERS


def random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_unitary(rng, d):
    q, r = np.linalg.qr(random_complex(rng, d, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def svd_polar(m):
    """Reference polar factor u @ vh from the SVD alone, for any input."""
    u, _, vh = np.linalg.svd(m, full_matrices=False)
    return u @ vh


def evaluate_bilinear(tensor, a_mat, b_mat):
    """Reference sparse contraction sum T_{ijkl} A_{ij} conj(B_{kl})."""
    a_mat = np.asarray(a_mat, dtype=np.complex128)
    b_mat = np.asarray(b_mat, dtype=np.complex128)
    return complex(a_mat.reshape(-1) @ (tensor.matrix @ b_mat.conj().reshape(-1)))


def duality_gap(op, a, a_mat):
    """| <F*(A), a> - <A, F(a)> | with both inner products linear in the
    first argument and the d^-1 Tr normalization on matrices."""
    u = solvers.adjoint_apply(op, a_mat)
    lhs = np.sum(u * np.conj(a))
    rhs = np.trace(op.apply(a).conj().T @ a_mat) / op.d
    return abs(lhs - rhs)


class TestLittleOperator:
    def test_validation(self):
        with pytest.raises(ValueError):
            solvers.LittleOperator(images=np.zeros((2, 2, 3)))

    def test_apply_is_linear_combination(self):
        rng = np.random.default_rng(0)
        op = solvers.LittleOperator(images=random_complex(rng, 3, 4, 4))
        a = random_complex(rng, 3)
        expected = sum(a[i] * op.images[i] for i in range(3))
        np.testing.assert_allclose(op.apply(a), expected, atol=1e-12)

    # Clifford images have one block per parity class of the family: d is
    # the class count times the generator side 2^ceil(n/2)
    @pytest.mark.parametrize("backend,n,kwargs,d", [
        pytest.param("clifford", 2, {}, 8, id="clifford"),
        pytest.param("comm_complex", 2, {}, 16, id="comm_complex"),
        pytest.param("comm_real", 2, {}, 4, id="comm_real"),
    ] + [
        pytest.param("clifford", n, {"mode": mode, **kwargs}, d, id=f"clifford-{mode}-n{n}")
        for mode, kwargs, sides in [
            ("exhaustive", {}, (4, 8, 32, 64, 256, 512)),
            ("pairwise_independent", {}, (4, 8, 32, 32, 128, 128)),
            ("monte_carlo", {"seed": 3, "sample_count": 700}, (4, 8, 32, 64, 256))]
        for n, d in enumerate(sides, start=1) if (mode, n) != ("exhaustive", 2)])
    def test_materialization_matches_backend_norm(self, backend, n, kwargs, d):
        emb = BACKEND_BUILDERS[backend](n, **kwargs)
        op = emb.little_op()
        assert op.d == d
        a = random_complex(np.random.default_rng(1), n)
        a = a.real if emb.is_real else a
        s = np.linalg.svd(op.apply(a), compute_uv=False).sum() / op.d
        assert s == pytest.approx(emb.norm(a), abs=1e-12)

    def test_clifford_materialization_cap(self):
        with pytest.raises(ValueError, match="d = 2048 at n=7 exceeds cap"):
            BACKEND_BUILDERS["clifford"](7).little_op()


class TestAdjoint:
    def test_zero_matrix(self):
        rng = np.random.default_rng(3)
        op = solvers.LittleOperator(images=random_complex(rng, 3, 4, 4))
        np.testing.assert_array_equal(solvers.adjoint_apply(op, np.zeros((4, 4))),
                                      np.zeros(3))

    def test_orthogonal_images_pick_out_coordinates(self):
        images = np.stack([np.diag([1, 0, 0, 0]).astype(complex),
                           np.diag([0, 1, 0, 0]).astype(complex)])
        op = solvers.LittleOperator(images=images)
        u = solvers.adjoint_apply(op, images[0])
        assert u[0] != 0 and u[1] == 0

    def test_duality_identity_random(self):
        rng = np.random.default_rng(4)
        op = solvers.LittleOperator(images=random_complex(rng, 3, 4, 4))
        for _ in range(50):
            assert duality_gap(op, random_complex(rng, 3),
                               random_complex(rng, 4, 4)) <= 1e-10

    def test_shape_mismatch(self):
        rng = np.random.default_rng(5)
        op = solvers.LittleOperator(images=random_complex(rng, 3, 4, 4))
        with pytest.raises(ValueError):
            solvers.adjoint_apply(op, np.zeros((3, 3)))


class TestLift:
    def test_rank_one_from_pauli_x(self):
        op = solvers.LittleOperator(images=PAULI_X[None])
        tensor = solvers.lift_little_to_big(op)
        rng = np.random.default_rng(6)
        for _ in range(10):
            a_mat, b_mat = random_complex(rng, 2, 2), random_complex(rng, 2, 2)
            direct = evaluate_bilinear(tensor, a_mat, b_mat)
            ua = solvers.adjoint_apply(op, a_mat)
            ub = solvers.adjoint_apply(op, b_mat)
            assert abs(direct - np.sum(ua * np.conj(ub))) <= 1e-12

    def test_zero_operator(self):
        op = solvers.LittleOperator(images=np.zeros((2, 3, 3), dtype=complex))
        assert solvers.lift_little_to_big(op).nnz == 0

    def test_diagonal_images_give_commutative_support(self):
        op = BACKEND_BUILDERS["comm_real"](2).little_op()
        tensor = solvers.lift_little_to_big(op)
        # all support on (i, i, k, k), matching a scalar-coefficient matrix
        assert np.all(tensor.indices[:, 0] == tensor.indices[:, 1])
        assert np.all(tensor.indices[:, 2] == tensor.indices[:, 3])
        m = np.einsum("mi,mk->ik", op.images[:, range(op.d), range(op.d)].conj(),
                      op.images[:, range(op.d), range(op.d)]) / op.d**2
        dense = np.zeros((op.d, op.d), dtype=complex)
        dense[tensor.indices[:, 0], tensor.indices[:, 2]] = tensor.coeffs
        np.testing.assert_allclose(dense, m, atol=1e-14)

    def test_lift_consistency_random_operator(self):
        rng = np.random.default_rng(7)
        op = solvers.LittleOperator(images=random_complex(rng, 2, 3, 3))
        tensor = solvers.lift_little_to_big(op)
        for _ in range(20):
            a_mat, b_mat = random_complex(rng, 3, 3), random_complex(rng, 3, 3)
            ua = solvers.adjoint_apply(op, a_mat)
            ub = solvers.adjoint_apply(op, b_mat)
            assert abs(evaluate_bilinear(tensor, a_mat, b_mat)
                       - np.sum(ua * np.conj(ub))) <= 1e-10

    def test_cap(self, monkeypatch):
        rng = np.random.default_rng(8)
        op = solvers.LittleOperator(images=random_complex(rng, 2, 3, 3))
        monkeypatch.setattr(solvers, "LIFT_CAP", 4)
        with pytest.raises(ValueError):
            solvers.lift_little_to_big(op)

    def test_cap_bounds_sum_of_squared_image_nnz(self, monkeypatch):
        # two images with 2 and 1 nonzeros: the lift has at most 2^2 + 1^2 entries
        images = np.zeros((2, 3, 3), dtype=complex)
        images[0, 0, 0] = images[0, 1, 2] = images[1, 2, 1] = 1.0
        op = solvers.LittleOperator(images=images)
        monkeypatch.setattr(solvers, "LIFT_CAP", 5)
        assert solvers.lift_little_to_big(op).nnz == 5
        monkeypatch.setattr(solvers, "LIFT_CAP", 4)
        with pytest.raises(ValueError, match="cap"):
            solvers.lift_little_to_big(op)

    @pytest.mark.parametrize("make", [
        lambda: solvers.LittleOperator(
            images=random_complex(np.random.default_rng(14), 2, 3, 3)),
        lambda: BACKEND_BUILDERS["comm_real"](1).little_op(),
        lambda: BACKEND_BUILDERS["comm_real"](2).little_op(),
        lambda: BACKEND_BUILDERS["comm_complex"](1).little_op(),
        lambda: BACKEND_BUILDERS["comm_complex"](2).little_op(),
        lambda: BACKEND_BUILDERS["clifford"](1).little_op(),
        lambda: BACKEND_BUILDERS["clifford"](2).little_op(),
    ], ids=["random n=2 d=3", "comm_real n=1", "comm_real n=2", "comm_complex n=1",
            "comm_complex n=2", "clifford n=1", "clifford n=2"])
    def test_sparse_lift_matches_dense_formula(self, make):
        op = make()
        dense = np.einsum("mij,mkl->ijkl", op.images.conj(), op.images) / op.d**2
        nz = np.argwhere(dense != 0)
        tensor = solvers.lift_little_to_big(op)
        np.testing.assert_array_equal(tensor.indices, nz)
        np.testing.assert_array_equal(tensor.coeffs, dense[tuple(nz.T)])

    def test_clifford_n3_lift(self):
        op = BACKEND_BUILDERS["clifford"](3).little_op()
        tensor = solvers.lift_little_to_big(op)
        assert tensor.d == 32 and tensor.nnz == 1792
        rng = np.random.default_rng(15)
        for _ in range(3):
            a_mat, b_mat = random_complex(rng, 32, 32), random_complex(rng, 32, 32)
            ua = solvers.adjoint_apply(op, a_mat)
            ub = solvers.adjoint_apply(op, b_mat)
            assert abs(evaluate_bilinear(tensor, a_mat, b_mat)
                       - np.sum(ua * np.conj(ub))) <= 1e-10


class TestEvaluateBilinear:
    def test_zero_tensor(self):
        tensor = solvers.NcgTensor(d=2, indices=np.zeros((0, 4)), coeffs=np.zeros(0))
        assert evaluate_bilinear(tensor, np.eye(2), np.eye(2)) == 0

    def test_single_entry_identity(self):
        tensor = solvers.NcgTensor(d=2, indices=np.array([[0, 0, 0, 0]]),
                                   coeffs=np.array([1.0 + 0j]))
        assert evaluate_bilinear(tensor, np.eye(2), np.eye(2)) == pytest.approx(1.0)

    def test_matches_dense_contraction(self):
        rng = np.random.default_rng(9)
        d = 3
        dense = np.zeros((d, d, d, d), dtype=complex)
        picks = rng.integers(0, d, size=(12, 4))
        picks = np.unique(picks, axis=0)
        coeffs = random_complex(rng, len(picks))
        dense[tuple(picks.T)] = coeffs
        tensor = solvers.NcgTensor(d=d, indices=picks, coeffs=coeffs)
        a_mat, b_mat = random_complex(rng, d, d), random_complex(rng, d, d)
        brute = sum(dense[i, j, k, l] * a_mat[i, j] * np.conj(b_mat[k, l])
                    for i in range(d) for j in range(d)
                    for k in range(d) for l in range(d))
        assert abs(evaluate_bilinear(tensor, a_mat, b_mat) - brute) <= 1e-12

    def test_sesquilinearity(self):
        rng = np.random.default_rng(10)
        d = 3
        idx = np.unique(rng.integers(0, d, size=(10, 4)), axis=0)
        tensor = solvers.NcgTensor(d=d, indices=idx, coeffs=random_complex(rng, len(idx)))
        a1, a2, b1, b2 = (random_complex(rng, d, d) for _ in range(4))
        z = complex(rng.normal(), rng.normal())
        lhs = evaluate_bilinear(tensor, z * a1 + a2, b1)
        rhs = z * evaluate_bilinear(tensor, a1, b1) \
            + evaluate_bilinear(tensor, a2, b1)
        assert abs(lhs - rhs) <= 1e-12
        lhs = evaluate_bilinear(tensor, a1, z * b1 + b2)
        rhs = np.conj(z) * evaluate_bilinear(tensor, a1, b1) \
            + evaluate_bilinear(tensor, a1, b2)
        assert abs(lhs - rhs) <= 1e-12

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            solvers.NcgTensor(d=2, indices=np.array([[0, 0, 0, 0], [0, 0, 0, 0]]),
                              coeffs=np.array([1.0, 2.0], dtype=complex))

    @pytest.mark.parametrize("indices, match", [
        ([[0.9, 1.7, 0, 0]], "indices must hold integers, not 0.9"),
        ([[0, 0, np.nan, 0]], "indices must hold integers, not nan"),
    ])
    def test_non_integer_indices_rejected(self, indices, match):
        with pytest.raises(ValueError, match=match):
            solvers.NcgTensor(d=2, indices=indices, coeffs=[1])

    @pytest.mark.parametrize("bad", [np.nan, complex(0, np.inf), -np.inf])
    def test_non_finite_coeffs_rejected(self, bad):
        with pytest.raises(ValueError, match="coeffs must be finite"):
            solvers.NcgTensor(d=2, indices=[[0, 0, 0, 0], [1, 1, 1, 1]], coeffs=[1, bad])

    def test_matrix_holds_entries_at_flattened_positions(self):
        rng = np.random.default_rng(16)
        d = 3
        idx = np.unique(rng.integers(0, d, size=(10, 4)), axis=0)
        coeffs = random_complex(rng, len(idx))
        tensor = solvers.NcgTensor(d=d, indices=idx, coeffs=coeffs)
        dense = np.zeros((d, d, d, d), dtype=complex)
        dense[tuple(idx.T)] = coeffs
        np.testing.assert_array_equal(tensor.matrix.toarray(), dense.reshape(d * d, d * d))

    def test_tensor_from_matrix_support(self):
        m = np.array([[1.0, 0.0], [2.0, -3.0]])
        tensor = solvers.tensor_from_matrix(m)
        np.testing.assert_array_equal(tensor.indices,
                                      [[0, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 1]])
        np.testing.assert_array_equal(tensor.coeffs, [1.0, 2.0, -3.0])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            solvers.NcgTensor(d=2, indices=np.array([[0, 0, 0, 2]]),
                              coeffs=np.array([1.0 + 0j]))


class TestNcgSolver:
    def test_single_entry_d1(self):
        tensor = solvers.NcgTensor(d=1, indices=np.array([[0, 0, 0, 0]]),
                                   coeffs=np.array([-2.0 + 1.0j]))
        result = solvers.ncg_opt_lower_bound(tensor, restarts=4, iters=50, seed=0)
        assert result.value == pytest.approx(abs(-2.0 + 1.0j), abs=1e-12)
        assert abs(abs(result.a[0, 0]) - 1.0) <= 1e-12

    def test_commutative_identity_matches_grid(self):
        tensor = solvers.tensor_from_matrix(np.eye(2))
        result = solvers.ncg_opt_lower_bound(tensor, restarts=8, iters=100, seed=1)
        # exact optimum 2: diagonal unitaries align both coefficients
        angles = np.linspace(0.0, 2 * np.pi, 2000, endpoint=False)
        grid = np.abs(np.exp(1j * angles)[:, None] + np.exp(1j * angles)[None, :]).max()
        assert abs(result.value - grid) <= 1e-3
        assert result.value == pytest.approx(2.0, abs=1e-9)

    def test_lifted_tensor_consistent_with_little_norm(self):
        for op in (BACKEND_BUILDERS["comm_real"](2).little_op(),
                   BACKEND_BUILDERS["comm_complex"](1).little_op()):
            tensor = solvers.lift_little_to_big(op)
            ncg = solvers.ncg_opt_lower_bound(tensor, restarts=8, iters=150, seed=2)
            little, _ = solvers.little_norm_lower_bound(op, restarts=8, iters=150, seed=3)
            assert ncg.value >= little**2 - 1e-4
            assert ncg.value <= 1.0 + 1e-6  # these embeddings are l2-dominated

    def test_monotone_histories_and_unitary_certificates(self):
        rng = np.random.default_rng(11)
        d = 3
        idx = np.unique(rng.integers(0, d, size=(15, 4)), axis=0)
        tensor = solvers.NcgTensor(d=d, indices=idx, coeffs=random_complex(rng, len(idx)))
        result = solvers.ncg_opt_lower_bound(tensor, restarts=6, iters=80, seed=4)
        assert result.histories
        for history in result.histories:
            assert all(history[i + 1] >= history[i] - 1e-9 for i in range(len(history) - 1))
        assert result.unitarity_residual_a <= 1e-9
        assert result.unitarity_residual_b <= 1e-9
        achieved = abs(evaluate_bilinear(tensor, result.a, result.b))
        assert achieved == pytest.approx(result.value, abs=1e-9)

    def test_histories_match_dense_replay(self):
        # replay the alternating steps with dense (d,d,d,d) contractions and
        # the full bilinear form after every half-step
        rng = np.random.default_rng(17)
        d = 3
        idx = np.unique(rng.integers(0, d, size=(20, 4)), axis=0)
        coeffs = random_complex(rng, len(idx))
        tensor = solvers.NcgTensor(d=d, indices=idx, coeffs=coeffs)
        dense = np.zeros((d, d, d, d), dtype=complex)
        dense[tuple(idx.T)] = coeffs
        result = solvers.ncg_opt_lower_bound(tensor, restarts=3, iters=30, seed=6)
        blocks = solvers._tensor_blocks(tensor)
        starts = blocks.haar(np.random.default_rng(6).normal(size=(3, 2, blocks.size)))

        def form(a_mat, b_mat):
            return abs(np.einsum("ijkl,ij,kl->", dense, a_mat, b_mat.conj()))

        for history, start in zip(result.histories, starts, strict=True):
            b_mat = blocks.dense(start)
            expected = []
            for _ in range(len(history) // 2):
                m_b = np.einsum("ijkl,kl->ij", dense, b_mat.conj())
                a_mat = polar_unitary(m_b.conj())
                expected.append(form(a_mat, b_mat))
                b_mat = polar_unitary(np.einsum("ijkl,ij->kl", dense, a_mat))
                expected.append(form(a_mat, b_mat))
            np.testing.assert_allclose(history, expected, rtol=0, atol=1e-12)

    def test_value_not_below_random_unitary_pairs(self):
        rng = np.random.default_rng(12)
        d = 3
        idx = np.unique(rng.integers(0, d, size=(10, 4)), axis=0)
        tensor = solvers.NcgTensor(d=d, indices=idx, coeffs=random_complex(rng, len(idx)))
        result = solvers.ncg_opt_lower_bound(tensor, restarts=8, iters=100, seed=5)
        for _ in range(50):
            sample = abs(evaluate_bilinear(tensor, random_unitary(rng, d),
                                                   random_unitary(rng, d)))
            assert sample <= result.value + 1e-9


def dense_reference(tensor, *, restarts=DEFAULT_RESTARTS, iters=DEFAULT_ITERS,
                    tol=DEFAULT_TOL, seed=0):
    """The alternating maximization one restart after another on dense d x d
    unitaries, every polar step an SVD of the whole d x d matrix: the loop the
    block solver replaced, kept as its reference. Each restart draws its own
    slice of normals and starts from their block-Haar unitaries made dense."""
    d, t_mat, t_transposed = tensor.d, tensor.matrix, tensor.matrix.T
    blocks = solvers._tensor_blocks(tensor)
    rng = np.random.default_rng(seed)
    best = None
    histories = []
    for _ in range(restarts):
        b_mat = blocks.dense(blocks.haar(rng.normal(size=(1, 2, blocks.size)))[0])
        a_mat = np.eye(d, dtype=np.complex128)
        history = []
        prev = -np.inf
        for _ in range(iters):
            m_b = (t_mat @ b_mat.conj().reshape(-1)).reshape(d, d)
            if np.any(m_b):
                a_mat = svd_polar(np.conj(m_b))
            history.append(float(np.abs(np.sum(a_mat * m_b))))
            p = (t_transposed @ a_mat.reshape(-1)).reshape(d, d)
            if np.any(p):
                b_mat = svd_polar(p)
            value = float(np.abs(np.sum(p * np.conj(b_mat))))
            history.append(value)
            if abs(value - prev) <= tol * max(1.0, abs(value)):
                prev = value
                break
            prev = value
        histories.append(history)
        if best is None or prev > best[0]:
            best = (prev, a_mat, b_mat)
    value, a_mat, b_mat = best
    return solvers.NcgResult(value=float(value), a=a_mat, b=b_mat, histories=histories)


def unitarity_residual(u):
    return float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())


def tensor_blocks(tensor):
    """The blocks the solver finds for a tensor, as sorted index lists."""
    return [row.tolist() for group in solvers._tensor_blocks(tensor).groups for row in group]


def assert_matches_dense(tensor, **kwargs):
    """The block solve against the dense reference: equal history lengths,
    every history value and the value within 1e-12, and unitary matrices
    that attain the value. Values only: restarts can tie in value and pick
    different unitaries. Returns both results."""
    got = solvers.ncg_opt_lower_bound(tensor, **kwargs)
    want = dense_reference(tensor, **kwargs)
    assert [len(h) for h in got.histories] == [len(h) for h in want.histories]
    for block_history, dense_history in zip(got.histories, want.histories):
        np.testing.assert_allclose(block_history, dense_history, rtol=0, atol=1e-12)
    assert abs(got.value - want.value) <= 1e-12
    for mat, reported in ((got.a, got.unitarity_residual_a), (got.b, got.unitarity_residual_b)):
        assert reported == unitarity_residual(mat) <= 1e-9
    assert abs(evaluate_bilinear(tensor, got.a, got.b)) == pytest.approx(got.value, abs=1e-9)
    return got, want


def planted_block_tensor(rng, sides, density):
    """Random tensor whose blocks are a random partition of range(sum(sides))
    into blocks of the given sides: every (i, j, k, l) with i, j in one block
    and k, l in another for a random share ``density`` of the block pairs,
    and always for a block with itself. Returns the tensor and its blocks."""
    d = sum(sides)
    blocks = np.split(rng.permutation(d), np.cumsum(sides)[:-1])
    quads = [q for beta in blocks for gamma in blocks
             if beta is gamma or rng.random() < density
             for q in itertools.product(beta, beta, gamma, gamma)]
    tensor = solvers.NcgTensor(d=d, indices=np.array(quads),
                               coeffs=random_complex(rng, len(quads)))
    return tensor, sorted(sorted(block.tolist()) for block in blocks)


class TestBlockSolveMatchesDense:
    """The block solve equals the dense reference. Scalar-backend lifts and
    tensor_from_matrix tensors are checked in TestClosedFormPolarSteps."""

    @pytest.mark.parametrize("n,restarts,seed,side", [(2, 8, 3, 2), (2, 4, 1, 2),
                                                      (3, 2, 3, 4)],
                             ids=["n=2", "n=2 solve-ncg pin", "n=3"])
    def test_clifford_lift(self, n, restarts, seed, side):
        tensor = solvers.lift_little_to_big(cached_little_op("clifford", n))
        assert {len(block) for block in tensor_blocks(tensor)} == {side}
        assert_matches_dense(tensor, restarts=restarts, seed=seed)

    @pytest.mark.parametrize("sides,seed", [((1, 2, 3), 30), ((3, 1, 1, 2, 3, 2), 31),
                                            ((2, 2, 1, 3, 1, 3, 1), 32)])
    def test_planted_blocks_of_mixed_sides(self, sides, seed):
        rng = np.random.default_rng(seed)
        tensor, blocks = planted_block_tensor(rng, sides, density=0.4)
        assert tensor_blocks(tensor) == sorted(blocks, key=lambda b: (len(b), b))
        assert_matches_dense(tensor, restarts=6, iters=100, seed=seed)

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_one_block(self, d):
        # random quadruples, chained so that the index graph is connected
        rng = np.random.default_rng(40 + d)
        chain = [(i, i + 1, i + 1, i) for i in range(d - 1)]
        quads = np.unique(np.vstack([rng.integers(0, d, size=(3 * d, 4)), chain]), axis=0)
        tensor = solvers.NcgTensor(d=d, indices=quads, coeffs=random_complex(rng, len(quads)))
        assert tensor_blocks(tensor) == [list(range(d))]
        assert_matches_dense(tensor, restarts=6, iters=100, seed=d)

    def test_restarts_across_chunks(self, monkeypatch):
        # chunks of 3 restarts: the seeded starts and the histories are unchanged
        tensor, _ = planted_block_tensor(np.random.default_rng(33), (1, 2, 3), density=0.5)
        whole = solvers.ncg_opt_lower_bound(tensor, restarts=8, iters=60, seed=5)
        monkeypatch.setattr(solvers, "CHUNK_ENTRIES", 3 * 20 * (1 + 4 + 9))
        chunked, _ = assert_matches_dense(tensor, restarts=8, iters=60, seed=5)
        assert chunked.histories == whole.histories
        assert chunked.value == whole.value

    @pytest.mark.parametrize("chunk", [1, 2])
    def test_histories_do_not_depend_on_the_chunk(self, monkeypatch, chunk):
        # Clifford n=2 has 16 blocks of side 2, 64 block coordinates
        tensor = solvers.lift_little_to_big(cached_little_op("clifford", 2))
        whole = solvers.ncg_opt_lower_bound(tensor, restarts=5, seed=9)
        monkeypatch.setattr(solvers, "CHUNK_ENTRIES", chunk * 20 * 64)
        chunked = solvers.ncg_opt_lower_bound(tensor, restarts=5, seed=9)
        assert chunked.histories == whole.histories
        assert chunked.value == whole.value
        np.testing.assert_array_equal(chunked.a, whole.a)
        np.testing.assert_array_equal(chunked.b, whole.b)

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_fewer_restarts_run_a_prefix(self, k):
        tensor, _ = planted_block_tensor(np.random.default_rng(34), (1, 2, 3), density=0.5)
        fewer = solvers.ncg_opt_lower_bound(tensor, restarts=k, iters=60, seed=8)
        more = solvers.ncg_opt_lower_bound(tensor, restarts=k + 1, iters=60, seed=8)
        assert fewer.histories == more.histories[:k]


class TestBlockHaarStarts:
    @pytest.mark.parametrize("sides,seed", [((1, 2, 3), 50), ((4, 1, 1, 2, 5), 51)])
    def test_start_blocks_are_unitary_and_zero_off_the_blocks(self, monkeypatch, sides,
                                                             seed):
        # record the start stacks the solver draws
        starts = []
        haar = solvers._Blocks.haar

        def spy(self, normals):
            starts.append(haar(self, normals))
            return starts[-1].copy()

        monkeypatch.setattr(solvers._Blocks, "haar", spy)
        tensor, blocks = planted_block_tensor(np.random.default_rng(seed), sides,
                                              density=0.3)
        solvers.ncg_opt_lower_bound(tensor, restarts=7, iters=3, seed=seed)
        starts = np.concatenate(starts)
        assert len(starts) == 7
        on_blocks = np.zeros((tensor.d, tensor.d), dtype=bool)
        for block in blocks:
            on_blocks[np.ix_(block, block)] = True
        finder = solvers._tensor_blocks(tensor)
        for start in starts:
            b_mat = finder.dense(start)
            assert not np.any(b_mat[~on_blocks])
            for block in blocks:
                assert unitarity_residual(b_mat[np.ix_(block, block)]) <= 1e-12
        # independent draws: no two restarts share a start
        assert len({start.tobytes() for start in starts}) == len(starts)

    def test_blocks_are_the_positive_diagonal_qr_of_their_normals(self):
        # Q with R = Q* G upper triangular and diag(R) > 0 is Haar distributed
        # for a complex Gaussian G (Mezzadri's construction)
        tensor, _ = planted_block_tensor(np.random.default_rng(53), (1, 2, 3, 4), density=0.3)
        blocks = solvers._tensor_blocks(tensor)
        normals = np.random.default_rng(0).normal(size=(5, 2, blocks.size))
        starts = blocks.haar(normals)
        gauss = normals[:, 0] + 1j * normals[:, 1]
        for span, _, b in blocks.spans():
            q = starts[:, span].reshape(-1, b, b)
            r = q.conj().swapaxes(-1, -2) @ gauss[:, span].reshape(-1, b, b)
            assert np.abs(np.tril(r, -1)).max(initial=0.0) <= 1e-12
            diag = np.diagonal(r, axis1=-2, axis2=-1)
            assert np.all(diag.real > 0) and np.abs(diag.imag).max() <= 1e-12


class TestClosedFormPolarSteps:
    """Scalar-backend lifts and tensor_from_matrix tensors have only T_{iijj}
    entries, so their blocks have side 1 and every polar step takes the
    closed form m / |m|; a run must match the dense reference, whose every
    step takes the SVD."""

    @staticmethod
    def assert_matches_svd_steps(tensor):
        assert {len(block) for block in tensor_blocks(tensor)} == {1}
        fast, reference = assert_matches_dense(tensor, restarts=8, seed=3)
        for history in fast.histories + reference.histories:
            assert all(history[i + 1] >= history[i] - 1e-9 for i in range(len(history) - 1))

    @pytest.mark.parametrize("backend,n", [*(("comm_real", n) for n in range(1, 5)),
                                           *(("comm_complex", n) for n in range(1, 4))])
    def test_scalar_lift(self, backend, n):
        self.assert_matches_svd_steps(solvers.lift_little_to_big(cached_little_op(backend, n)))

    @pytest.mark.parametrize("field,d,seed", [("real", 7, 21), ("complex", 5, 22),
                                              ("complex", 16, 23)])
    def test_tensor_from_matrix(self, field, d, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(d, d)) if field == "real" else random_complex(rng, d, d)
        self.assert_matches_svd_steps(solvers.tensor_from_matrix(m))


def union_find_blocks(d, quads):
    """Oracle: the components of the index graph by a union-find loop."""
    parent = list(range(d))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, j, k, l in quads:
        for x, y in ((i, j), (k, l)):
            parent[find(x)] = find(y)
    components = {}
    for x in range(d):
        components.setdefault(find(x), []).append(x)
    return sorted(components.values())


class TestBlockFinder:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_blocks_are_the_connected_components(self, data):
        d = data.draw(st.integers(1, 12))
        index = st.integers(0, d - 1)
        quads = data.draw(st.lists(st.tuples(index, index, index, index), max_size=40))
        support = [i * d + j for i, j, _, _ in quads] + [k * d + l for _, _, k, l in quads]
        found = solvers._blocks(d, support)
        blocks = [row.tolist() for group in found.groups for row in group]
        # a partition of range(d)
        assert sorted(x for block in blocks for x in block) == list(range(d))
        owner = {x: n for n, block in enumerate(blocks) for x in block}
        # each entry's (i, j) and (k, l) inside one block
        for i, j, k, l in quads:
            assert owner[i] == owner[j] and owner[k] == owner[l]
        # every block connected by the edges inside it
        for block in blocks:
            reached, frontier = {block[0]}, [block[0]]
            while frontier:
                x = frontier.pop()
                for i, j, k, l in quads:
                    for u, v in ((i, j), (j, i), (k, l), (l, k)):
                        if u == x and v not in reached:
                            reached.add(v)
                            frontier.append(v)
            assert reached == set(block)
        assert sorted(blocks) == union_find_blocks(d, quads)
        # grouped by side, then by least index, indices ascending
        assert [len(b) for b in blocks] == sorted(len(b) for b in blocks)
        assert all(block == sorted(block) for block in blocks)
        for group in found.groups:
            assert list(group[:, 0]) == sorted(group[:, 0])
        assert found.coords.tolist() == [i * d + j for block in blocks
                                         for i in block for j in block]


class TestLittleNormLowerBound:
    def test_reaches_basis_optimum_for_comm(self):
        op = BACKEND_BUILDERS["comm_real"](2).little_op()
        value, vec = solvers.little_norm_lower_bound(op, restarts=8, iters=150, seed=6)
        assert value == pytest.approx(1.0, abs=1e-6)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)

    def test_never_exceeds_domination_bound(self):
        op = BACKEND_BUILDERS["comm_complex"](2).little_op()
        value, _ = solvers.little_norm_lower_bound(op, restarts=4, iters=100, seed=7)
        assert value <= 1.0 + 1e-9


@functools.lru_cache(maxsize=None)
def cached_little_op(backend, n):
    return BACKEND_BUILDERS[backend](n).little_op()


def log_ascent_values(monkeypatch):
    """Patch the sphere ascent of solvers and reduction so that it logs every
    objective value it evaluates, rejected candidates included, as one list
    per restart. A restart begins where its start is projected (an identity
    projection when the caller passes none)."""
    runs = []
    ascent = solvers._sphere_ascent

    def logged_ascent(norm_and_grad, dim, *, project=None, **kwargs):
        def start(z):
            runs.append([])
            return z if project is None else project(z)

        def logged(z):
            value, grad = norm_and_grad(z)
            runs[-1].append(value)
            return value, grad

        return ascent(logged, dim, project=start, **kwargs)

    monkeypatch.setattr(solvers, "_sphere_ascent", logged_ascent)
    monkeypatch.setattr(red, "_sphere_ascent", logged_ascent)
    return runs


def assert_monotone_runs(runs, *, restarts, iters, best):
    """Each restart's logged values are non-decreasing to rounding and number
    at most iters + 1, and the returned value is the best one evaluated."""
    assert len(runs) == restarts
    for values in runs:
        assert 2 <= len(values) <= iters + 1
        for prev, value in zip(values, values[1:]):
            assert value >= prev - 1e-12 * max(1.0, abs(prev))
    assert best == max(max(values) for values in runs)


class TestSphereAscent:
    @pytest.mark.parametrize("backend", ["clifford", "comm_real", "comm_complex"])
    def test_operator_norm_ascent_is_monotone(self, monkeypatch, backend):
        runs = log_ascent_values(monkeypatch)
        inst, _ = lc.generate_planted(8, 3, 4, 2, 2, seed=18)
        result = red.operator_norm_lower_bound(inst, BACKEND_BUILDERS[backend](4), restarts=4,
                                               iters=30, seed=2)
        assert_monotone_runs(runs, restarts=4, iters=30, best=result.value)

    @pytest.mark.parametrize("backend, n", [("clifford", 2), ("comm_real", 4),
                                            ("comm_complex", 3)])
    def test_little_norm_ascent_is_monotone(self, monkeypatch, backend, n):
        runs = log_ascent_values(monkeypatch)
        value, _ = solvers.little_norm_lower_bound(cached_little_op(backend, n), restarts=4,
                                                   iters=30, seed=1)
        assert_monotone_runs(runs, restarts=4, iters=30, best=value)

    def test_one_evaluation_per_iteration(self, monkeypatch):
        # each objective evaluation makes one batched polar_unitary call: the
        # Clifford images have blocks of one side
        runs = log_ascent_values(monkeypatch)
        calls = []

        def counted(m):
            calls.append(1)
            return polar_unitary(m)

        monkeypatch.setattr(solvers, "polar_unitary", counted)
        value, _ = solvers.little_norm_lower_bound(cached_little_op("clifford", 3), restarts=4,
                                                   iters=50, seed=1)
        assert_monotone_runs(runs, restarts=4, iters=50, best=value)
        assert len(calls) == sum(len(values) for values in runs) <= 4 * (50 + 1)

    @pytest.mark.parametrize("restarts, iters", [(0, 5), (-1, 5), (2, 0)])
    def test_empty_runs_refused(self, restarts, iters):
        # with no restart there is no best point to return
        inst, _ = lc.generate_planted(8, 3, 4, 2, 2, seed=18)
        with pytest.raises(ValueError, match="^restarts and iters must be positive$"):
            red.operator_norm_lower_bound(inst, BACKEND_BUILDERS["clifford"](4),
                                          restarts=restarts, iters=iters)
        with pytest.raises(ValueError, match="^restarts and iters must be positive$"):
            solvers.little_norm_lower_bound(cached_little_op("comm_real", 4),
                                            restarts=restarts, iters=iters)

    @pytest.mark.filterwarnings("error")
    def test_zero_operator_stops_at_the_start(self):
        # every gradient is exactly 0, so each restart keeps its unit start
        value, a = solvers.little_norm_lower_bound(
            solvers.LittleOperator(images=np.zeros((2, 2, 2))), restarts=3)
        assert value == 0.0
        assert np.all(np.isfinite(a)) and np.linalg.norm(a) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("backend, n", [("clifford", 2), ("comm_real", 4),
                                            ("comm_complex", 3)])
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3))
    def test_little_gradient_euler_identity(self, backend, n, seed, scale):
        # Re<F*(U), a> = ||F(a)||_S1 for U the polar factor of F(a): the
        # premise of the fixed-point step
        objectives = []
        with mock.patch.object(solvers, "_sphere_ascent",
                               lambda f, *args, **kwargs: objectives.append(f)):
            solvers.little_norm_lower_bound(cached_little_op(backend, n))
        rng = np.random.default_rng(seed)
        a = scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
        value, grad = objectives[0](a)
        assert abs(np.vdot(grad, a).real - value) <= 1e-12 * value
