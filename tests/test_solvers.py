import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncglab import labelcover as lc
from ncglab import reduction as red
from ncglab import solvers
from ncglab.clifford import PAULI_X
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

    @pytest.mark.parametrize("backend,d", [("clifford", 32), ("comm_complex", 16),
                                           ("comm_real", 4)],
                             ids=["clifford", "comm_complex", "comm_real"])
    def test_materialization_matches_backend_norm(self, backend, d):
        emb = BACKEND_BUILDERS[backend](2)
        op = emb.little_op()
        assert op.d == d
        a = random_complex(np.random.default_rng(1), 2)
        a = a.real if emb.is_real else a
        s = np.linalg.svd(op.apply(a), compute_uv=False).sum() / op.d
        assert s == pytest.approx(emb.norm(a), abs=1e-12)

    def test_clifford_materialization_cap(self):
        with pytest.raises(ValueError, match="n <= 3"):
            BACKEND_BUILDERS["clifford"](4).little_op()

    @pytest.mark.parametrize("mode,kwargs", [("pairwise_independent", {}),
                                             ("monte_carlo", {"seed": 0, "sample_count": 64})])
    def test_clifford_non_exhaustive_family_refused(self, mode, kwargs):
        with pytest.raises(ValueError, match="exhaustive"):
            BACKEND_BUILDERS["clifford"](2, mode, **kwargs).little_op()


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
        assert tensor.d == 256 and tensor.nnz == 114688
        rng = np.random.default_rng(15)
        for _ in range(3):
            a_mat, b_mat = random_complex(rng, 256, 256), random_complex(rng, 256, 256)
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
        replay = np.random.default_rng(6)

        def form(a_mat, b_mat):
            return abs(np.einsum("ijkl,ij,kl->", dense, a_mat, b_mat.conj()))

        for history in result.histories:
            b_mat = solvers._haar_unitary(d, replay)
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


class TestClosedFormPolarSteps:
    """Scalar-backend lifts and tensor_from_matrix tensors have only T_{iijj}
    entries, so their polar steps take the closed form for diagonal matrices;
    a run must match one whose every step takes the SVD."""

    @staticmethod
    def assert_matches_svd_steps(monkeypatch, tensor):
        fast = solvers.ncg_opt_lower_bound(tensor, restarts=8, seed=3)
        monkeypatch.setattr(solvers, "polar_unitary", svd_polar)
        reference = solvers.ncg_opt_lower_bound(tensor, restarts=8, seed=3)
        # values only: restarts can tie in value and pick different unitaries
        assert [len(h) for h in fast.histories] == [len(h) for h in reference.histories]
        for got, want in zip(fast.histories, reference.histories):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert abs(fast.value - reference.value) <= 1e-12
        for history in fast.histories + reference.histories:
            assert all(history[i + 1] >= history[i] - 1e-9 for i in range(len(history) - 1))

    @pytest.mark.parametrize("backend,n", [*(("comm_real", n) for n in range(1, 5)),
                                           *(("comm_complex", n) for n in range(1, 4))])
    def test_scalar_lift(self, monkeypatch, backend, n):
        op = BACKEND_BUILDERS[backend](n).little_op()
        self.assert_matches_svd_steps(monkeypatch, solvers.lift_little_to_big(op))

    @pytest.mark.parametrize("field,d,seed", [("real", 7, 21), ("complex", 5, 22),
                                              ("complex", 16, 23)])
    def test_tensor_from_matrix(self, monkeypatch, field, d, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(d, d)) if field == "real" else random_complex(rng, d, d)
        self.assert_matches_svd_steps(monkeypatch, solvers.tensor_from_matrix(m))


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
        # each objective evaluation makes one adjoint_apply call
        runs = log_ascent_values(monkeypatch)
        calls = []
        adjoint_apply = solvers.adjoint_apply

        def counted(op, a_mat):
            calls.append(1)
            return adjoint_apply(op, a_mat)

        monkeypatch.setattr(solvers, "adjoint_apply", counted)
        value, _ = solvers.little_norm_lower_bound(cached_little_op("clifford", 3), restarts=4,
                                                   iters=50, seed=1)
        assert_monotone_runs(runs, restarts=4, iters=50, best=value)
        assert len(calls) == sum(len(values) for values in runs) <= 4 * (50 + 1)

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
