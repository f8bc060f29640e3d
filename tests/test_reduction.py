import re

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
import scipy.sparse
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ncglab import labelcover as lc
from ncglab import reduction as red
from ncglab.config import SUBSPACE_RESIDUAL_TOL


def single_edge_constant_projection():
    """One edge, n=2, k=1: both projections send everything to label 0."""
    const = np.zeros(2, dtype=int)
    edge = lc.Edge(u=0, v=1, pi_u=const.copy(), pi_v=const.copy())
    return lc.LabelCoverInstance(num_vertices=2, n=2, k=1, t=2, gamma=1.0,
                                 zeta=0.1, edges=[edge])


def identity_projection_instance(num_vertices=4, degree=2, n=3):
    ident = np.arange(n)
    edges = []
    for v in range(num_vertices):
        edges.append(lc.Edge(u=v, v=(v + 1) % num_vertices,
                             pi_u=ident.copy(), pi_v=ident.copy()))
    return lc.LabelCoverInstance(num_vertices=num_vertices, n=n, k=n, t=1,
                                 gamma=0.0, zeta=0.1, edges=edges)


class TestConstraints:
    def test_single_edge_row(self):
        inst = single_edge_constant_projection()
        cs = red.build_constraints(inst)
        assert cs.matrix.shape == (1, 4)
        np.testing.assert_array_equal(cs.matrix.toarray(), [[1, 1, -1, -1]])
        assert cs.rows == [(0, 0)]

    def test_row_and_column_counts(self):
        inst, _ = lc.generate_planted(8, 3, 6, 3, 2, seed=0)
        cs = red.build_constraints(inst)
        assert cs.matrix.shape == (inst.num_edges * inst.k, inst.num_vertices * inst.n)

    def test_identity_projections_force_equality(self):
        inst = identity_projection_instance()
        cs = red.build_constraints(inst)
        rng = np.random.default_rng(0)
        shared = rng.normal(size=inst.n) + 1j * rng.normal(size=inst.n)
        fld = np.tile(shared, (inst.num_vertices, 1))
        assert red.constraint_residual(cs, fld) <= 1e-12
        fld[0, 0] += 1.0
        assert red.constraint_residual(cs, fld) > 0.1


class TestSubspaceBasis:
    def test_single_edge_dimension_three(self):
        cs = red.build_constraints(single_edge_constant_projection())
        basis = red.subspace_basis(cs)
        assert basis.dim == 3

    def test_zero_row_system_full_space(self):
        inst = single_edge_constant_projection()
        cs = red.build_constraints(inst)
        cs.matrix = cs.matrix[:0]
        basis = red.subspace_basis(cs)
        assert basis.dim == 4

    def test_identity_projection_dimension_n(self):
        inst = identity_projection_instance(num_vertices=5, n=3)
        cs = red.build_constraints(inst)
        assert red.subspace_basis(cs).dim == 3

    def test_rank_nullity_and_orthonormality(self):
        inst, _ = lc.generate_planted(8, 3, 4, 2, 2, seed=1)
        cs = red.build_constraints(inst)
        basis = red.subspace_basis(cs)
        dense = cs.matrix.toarray()
        assert basis.dim == dense.shape[1] - np.linalg.matrix_rank(dense)
        gram = basis.basis.T @ basis.basis / inst.num_vertices
        np.testing.assert_allclose(gram, np.eye(basis.dim), atol=1e-10)
        for c in range(basis.dim):
            fld = basis.to_field(np.eye(basis.dim)[c])
            assert red.constraint_residual(cs, fld) <= 1e-10

    def test_projection_is_idempotent(self):
        inst, _ = lc.generate_planted(6, 3, 4, 2, 2, seed=2)
        basis = red.subspace_basis(red.build_constraints(inst))
        rng = np.random.default_rng(3)
        fld = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        once = basis.project(fld)
        np.testing.assert_allclose(basis.project(once), once, atol=1e-12)

    @pytest.mark.parametrize("maker", [red.clifford_backend, red.comm_real_backend])
    def test_real_products_match_complex(self, maker):
        inst = make_instance(*REFERENCE_INSTANCES[0])
        basis = red.subspace_basis(red.build_constraints(inst))
        rng = np.random.default_rng(6)
        z = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        fld = rng.normal(size=(inst.num_vertices, inst.n)) + 1j * rng.normal(
            size=(inst.num_vertices, inst.n))
        np.testing.assert_allclose(basis.to_field(z),
                                   (basis.basis @ z).reshape(fld.shape), rtol=0, atol=1e-12)
        np.testing.assert_allclose(basis.coords_of(fld),
                                   basis.basis.T @ fld.reshape(-1) / inst.num_vertices,
                                   rtol=0, atol=1e-12)
        # a Fortran-ordered field flattens in C order like any other
        np.testing.assert_allclose(basis.coords_of(np.asfortranarray(fld)),
                                   basis.coords_of(fld), rtol=0, atol=0)
        backend = maker(inst.n)
        if backend.is_real:
            z = z.real.astype(np.complex128)
        value, grad = red._objective_and_gradient(z, basis, backend)
        values, grads = backend.norm_and_gradient((basis.basis @ z).reshape(fld.shape))
        expected = basis.basis.T @ (grads.reshape(-1) / inst.num_vertices)
        if backend.is_real:
            expected = expected.real.astype(np.complex128)
        assert abs(value - np.mean(values)) <= 1e-12
        np.testing.assert_allclose(grad, expected, rtol=0, atol=1e-12)


def loop_constraints(inst):
    """Reference: one row per (edge, small label), filled entry by entry."""
    data, row_idx, col_idx, rows = [], [], [], []
    r = 0
    for e_idx, e in enumerate(inst.edges):
        for j in range(inst.k):
            for i in np.flatnonzero(e.pi_u == j):
                data.append(1.0)
                row_idx.append(r)
                col_idx.append(e.u * inst.n + int(i))
            for i in np.flatnonzero(e.pi_v == j):
                data.append(-1.0)
                row_idx.append(r)
                col_idx.append(e.v * inst.n + int(i))
            rows.append((e_idx, j))
            r += 1
    shape = (r, inst.num_vertices * inst.n)
    return scipy.sparse.csr_matrix((data, (row_idx, col_idx)), shape=shape), rows


# planted and random instances, (vertices, degree, n, k, t, seed)
REFERENCE_INSTANCES = [
    ("planted", 40, 4, 6, 3, 2, 0),
    ("planted", 40, 4, 6, 3, 2, 1),
    ("planted", 40, 4, 6, 3, 2, 7),
    ("planted", 12, 3, 5, 3, 2, 2),
    ("random", 40, 4, 6, 3, 2, 0),
    ("random", 40, 4, 6, 3, 2, 3),
    ("random", 20, 4, 8, 4, 2, 5),
    ("random", 9, 2, 4, 2, 2, 6),
]


def make_instance(kind, vertices, degree, n, k, t, seed):
    if kind == "planted":
        return lc.generate_planted(vertices, degree, n, k, t, seed=seed)[0]
    return lc.generate_random(vertices, degree, n, k, t, seed=seed)


def assert_matches_svd_null_space(cs):
    """The eigensolve basis spans the same subspace as a dense SVD null space,
    is orthonormal under the vertex-averaged inner product, and satisfies
    every constraint."""
    basis = red.subspace_basis(cs)
    reference = scipy.linalg.null_space(cs.matrix.toarray())
    assert basis.dim == reference.shape[1]
    num_vertices = cs.num_vertices
    np.testing.assert_allclose(basis.basis @ basis.basis.T / num_vertices,
                               reference @ reference.T, rtol=0, atol=1e-10)
    np.testing.assert_allclose(basis.basis.T @ basis.basis / num_vertices,
                               np.eye(basis.dim), rtol=0, atol=1e-10)
    for c in range(basis.dim):
        fld = basis.to_field(np.eye(basis.dim)[c])
        assert red.constraint_residual(cs, fld) <= SUBSPACE_RESIDUAL_TOL


class TestConstraintsMatchLoop:
    @pytest.mark.parametrize("params", REFERENCE_INSTANCES)
    def test_vectorized_matches_loop(self, params):
        inst = make_instance(*params)
        cs = red.build_constraints(inst)
        ref, rows = loop_constraints(inst)
        assert cs.matrix.shape == ref.shape
        assert cs.matrix.nnz == ref.nnz
        assert (cs.matrix != ref).nnz == 0
        assert cs.rows == rows

    def test_no_edges(self):
        inst = lc.LabelCoverInstance(num_vertices=3, n=2, k=1, t=2, gamma=1.0,
                                     zeta=0.1, edges=[])
        cs = red.build_constraints(inst)
        assert cs.matrix.shape == (0, 6) and cs.rows == []


class TestSubspaceBasisMatchesSvd:
    @pytest.mark.parametrize("params", REFERENCE_INSTANCES)
    def test_matches_dense_null_space(self, params):
        assert_matches_svd_null_space(red.build_constraints(make_instance(*params)))

    @settings(max_examples=60, deadline=None)
    @given(planted=st.booleans(), vertices=st.integers(3, 12),
           degree=st.sampled_from([2, 4]), n=st.integers(1, 5), k=st.integers(1, 5),
           seed=st.integers(0, 2**16))
    def test_matches_dense_null_space_property(self, planted, vertices, degree, n, k, seed):
        assume(degree < vertices and k <= n)
        t = -(-n // k)
        inst = make_instance("planted" if planted else "random", vertices, degree, n, k, t,
                             seed)
        cs = red.build_constraints(inst)
        ref, _ = loop_constraints(inst)
        assert (cs.matrix != ref).nnz == 0
        assert_matches_svd_null_space(cs)


def assert_fast_path_matches_eigensolve(cs):
    """The pivoted-Cholesky basis passes its checks and equals the basis
    from the full eigensolve."""
    fast, problem = red._null_space_basis(cs, cholesky=True)
    assert problem is None
    full, problem = red._null_space_basis(cs, cholesky=False)
    assert problem is None
    assert fast.shape == full.shape
    np.testing.assert_allclose(fast, full, rtol=0, atol=1e-10)


def count_null_space_solves(monkeypatch, perturb_factor=0.0):
    """Record every pivoted-Cholesky and full-eigensolve call of
    subspace_basis; the Cholesky factor can be perturbed by perturb_factor."""
    dpstrf, eigh = scipy.linalg.lapack.dpstrf, scipy.linalg.eigh
    calls = []

    def counted_dpstrf(a, **kwargs):
        calls.append("dpstrf")
        factor, piv, rank, info = dpstrf(a, **kwargs)
        factor = factor + perturb_factor * np.random.default_rng(0).standard_normal(
            factor.shape)
        return factor, piv, rank, info

    def counted_eigh(a, **kwargs):
        calls.append("eigh")
        return eigh(a, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dpstrf", counted_dpstrf)
    monkeypatch.setattr(scipy.linalg, "eigh", counted_eigh)
    return calls


class TestCholeskyFastPath:
    @pytest.mark.parametrize("params", REFERENCE_INSTANCES)
    def test_matches_full_eigensolve(self, params):
        assert_fast_path_matches_eigensolve(
            red.build_constraints(make_instance(*params)))

    @settings(max_examples=60, deadline=None)
    @given(planted=st.booleans(), vertices=st.integers(3, 12),
           degree=st.sampled_from([2, 4]), n=st.integers(1, 5), k=st.integers(1, 5),
           seed=st.integers(0, 2**16))
    def test_matches_full_eigensolve_property(self, planted, vertices, degree, n, k, seed):
        assume(degree < vertices and k <= n)
        t = -(-n // k)
        inst = make_instance("planted" if planted else "random", vertices, degree, n, k, t,
                             seed)
        assert_fast_path_matches_eigensolve(red.build_constraints(inst))

    # Instances on which an earlier partial eigensolve returned null vectors
    # with residual 1.9e-7 and 3.0e-9 though the rank is well separated; the
    # pivoted Cholesky factorization needs no fallback on them
    @pytest.mark.parametrize("params", [("planted", 4, 2, 4, 4, 1, 29266),
                                        ("planted", 10, 2, 5, 5, 1, 5226)])
    def test_pinned_instances(self, params, monkeypatch):
        calls = count_null_space_solves(monkeypatch)
        cs = red.build_constraints(make_instance(*params))
        assert_matches_svd_null_space(cs)
        assert calls == ["dpstrf"]

    def test_inaccurate_factor_falls_back(self, monkeypatch):
        calls = count_null_space_solves(monkeypatch, perturb_factor=1e-7)
        cs = red.build_constraints(make_instance(*REFERENCE_INSTANCES[3]))
        assert_matches_svd_null_space(cs)
        assert calls == ["dpstrf", "eigh"]

    # the pivot of singular value ~3e-5 lies inside the rank gap; that of ~1e-9
    # is dropped, and the basis then violates a constraint by ~1e-9
    @pytest.mark.parametrize("s, problem", [(6e-5, r"pivot \d\.\d+e-(09|10) between"),
                                            (2e-9, "residual")])
    def test_near_rank_deficient_reaches_fallback(self, s, problem, monkeypatch):
        cs = near_rank_deficient_system(s)
        assert re.search(problem, red._null_space_basis(cs, cholesky=True)[1])
        calls = count_null_space_solves(monkeypatch)
        with pytest.raises(ValueError):
            red.subspace_basis(cs)
        assert calls == ["dpstrf", "eigh"]


class TestSubspaceBasisIsCanonical:
    @pytest.mark.parametrize("params", REFERENCE_INSTANCES[:2] + REFERENCE_INSTANCES[4:5])
    def test_basis_depends_only_on_subspace(self, params):
        # rescaled rows leave the null space unchanged but change the Gram
        # matrix, so the eigensolver returns another basis of the zero
        # eigenspace; the returned basis must not move
        cs = red.build_constraints(make_instance(*params))
        scale = np.random.default_rng(8).uniform(0.5, 2.0, size=cs.matrix.shape[0])
        scaled = red.ConstraintSystem(matrix=scipy.sparse.diags(scale) @ cs.matrix,
                                      rows=cs.rows, num_vertices=cs.num_vertices,
                                      n=cs.n, k=cs.k)
        np.testing.assert_allclose(red.subspace_basis(scaled).basis,
                                   red.subspace_basis(cs).basis, rtol=0, atol=1e-10)


def near_rank_deficient_system(s):
    """Two constraints on 2 vertices x 2 labels that differ by s in one entry,
    so the second singular value is about s/2."""
    matrix = scipy.sparse.csr_matrix(np.array([[1.0, 1.0, -1.0, -1.0],
                                               [1.0, 1.0, -1.0, -1.0 + s]]))
    return red.ConstraintSystem(matrix=matrix, rows=[(0, 0), (1, 0)],
                                num_vertices=2, n=2, k=1)


class TestRankGapGuard:
    def test_separated_rank_accepted(self):
        cs = near_rank_deficient_system(1.0)
        assert red.subspace_basis(cs).dim == 2
        assert_matches_svd_null_space(cs)

    def test_eigenvalue_inside_gap_raises(self):
        # singular value ~3e-5: its Gram eigenvalue (~1e-9) is above the
        # rounding floor but below sqrt(eps) * g
        cs = near_rank_deficient_system(6e-5)
        with pytest.raises(ValueError, match=r"eigenvalue \d\.\d+e-(09|10)"):
            red.subspace_basis(cs)

    def test_tiny_singular_value_raises(self):
        # singular value ~1e-9: squared, it drops below the floor and would be
        # counted as null; the basis then violates a constraint by ~1e-9
        cs = near_rank_deficient_system(2e-9)
        with pytest.raises(ValueError, match="residual"):
            red.subspace_basis(cs)


class TestAssignmentField:
    def test_unit_norm_exact(self):
        inst, planted = lc.generate_planted(8, 3, 6, 3, 2, seed=4)
        fld = red.assignment_to_field(inst, planted)
        assert red.field_l2_norm(fld) == 1.0

    def test_planted_in_subspace(self):
        inst, planted = lc.generate_planted(8, 3, 6, 3, 2, seed=5)
        cs = red.build_constraints(inst)
        fld = red.assignment_to_field(inst, planted)
        assert red.constraint_residual(cs, fld) <= 1e-12

    def test_broken_assignment_leaves_subspace(self):
        inst = identity_projection_instance()
        cs = red.build_constraints(inst)
        labels = np.zeros(inst.num_vertices, dtype=int)
        labels[0] = 1  # breaks both edges at vertex 0
        fld = red.assignment_to_field(inst, labels)
        assert red.constraint_residual(cs, fld) > 0.5


class TestBackends:
    @pytest.mark.parametrize("maker", [red.clifford_backend, red.comm_real_backend,
                                       red.comm_complex_backend])
    def test_basis_norm_eta_and_domination(self, maker):
        backend = maker(4)
        rng = np.random.default_rng(6)
        for i in range(4):
            e = np.zeros(4)
            e[i] = 1.0
            assert backend.norm(e) == pytest.approx(backend.eta, abs=1e-12)
        for _ in range(20):
            a = rng.normal(size=4)
            if not backend.is_real:
                a = a + 1j * rng.normal(size=4)
            assert backend.norm(a) <= np.linalg.norm(a) + 1e-10
            assert backend.norm(a) <= backend.bound(a) + 1e-10

    def test_delta_only_for_matrix_backend(self):
        assert red.clifford_backend(2).delta(0.3) == pytest.approx(np.sqrt(2) * 0.3)
        with pytest.raises(ValueError):
            red.comm_real_backend(2).delta(0.3)

    @pytest.mark.parametrize("maker, n, kwargs", [
        (red.clifford_backend, 3, {}),
        (red.clifford_backend, 6, {}),
        (red.clifford_backend, 8, {"mode": "pairwise_independent"}),
        (red.clifford_backend, 5, {"mode": "monte_carlo", "seed": 3, "sample_count": 700}),
        (red.comm_real_backend, 5, {}),
        (red.comm_complex_backend, 4, {}),
    ])
    def test_batched_field_matches_rows(self, maker, n, kwargs):
        backend = maker(n, **kwargs)
        rng = np.random.default_rng(22)
        fld = rng.normal(size=(7, n))
        if not backend.is_real:
            fld = fld + 1j * rng.normal(size=(7, n))
        fld[2] = 0.0
        values, grads = backend.norm_and_gradient(fld)
        assert values.shape == (7,) and grads.shape == (7, n)
        for v, row in enumerate(fld):
            value, grad = backend.norm_and_gradient(row)
            assert abs(values[v] - value) <= 1e-12
            assert np.max(np.abs(grads[v] - grad)) <= 1e-12

    def test_gradient_matches_norm(self):
        backend = red.clifford_backend(3)
        rng = np.random.default_rng(7)
        a = rng.normal(size=3) + 1j * rng.normal(size=3)
        value, grad = backend.norm_and_gradient(a)
        assert value == pytest.approx(backend.norm(a))
        assert grad.shape == (3,)


class TestApplyNormF:
    def test_planted_field_reaches_one(self):
        inst, planted = lc.generate_planted(8, 3, 5, 3, 2, seed=8)
        fld = red.assignment_to_field(inst, planted)
        for maker in (red.clifford_backend, red.comm_real_backend, red.comm_complex_backend):
            assert red.apply_norm_F(fld, maker(5)) == pytest.approx(1.0, abs=1e-8)

    def test_zero_field(self):
        backend = red.comm_real_backend(3)
        assert red.apply_norm_F(np.zeros((4, 3)), backend) == 0.0

    def test_uniform_rows_below_bound(self):
        n = 4
        backend = red.clifford_backend(n)
        fld = np.tile(np.full(n, n**-0.5), (5, 1))
        bound = np.sqrt((1 + 1 / np.sqrt(n)) / 2)
        assert red.apply_norm_F(fld, backend) <= bound + 1e-10

    @pytest.mark.parametrize("maker, n, kwargs", [
        (red.clifford_backend, 5, {}),
        (red.clifford_backend, 8, {"mode": "pairwise_independent"}),
        (red.clifford_backend, 5, {"mode": "monte_carlo", "seed": 3, "sample_count": 700}),
        (red.comm_real_backend, 9, {}),
        (red.comm_real_backend, 9, {"mode": "monte_carlo", "seed": 4, "sample_count": 3000}),
        (red.comm_complex_backend, 5, {}),
        (red.comm_complex_backend, 5, {"mode": "monte_carlo", "seed": 5, "sample_count": 3000}),
    ])
    def test_batched_matches_row_loop(self, maker, n, kwargs):
        backend = maker(n, **kwargs)
        rng = np.random.default_rng(23)
        fld = rng.normal(size=(30, n))
        if not backend.is_real:
            fld = fld + 1j * rng.normal(size=(30, n))
        fld[4] = 0.0
        values = backend.norm(fld)
        rows = [backend.norm(row) for row in fld]
        assert values.shape == (30,)
        assert np.max(np.abs(values - rows)) <= 1e-12
        assert abs(red.apply_norm_F(fld, backend) - np.mean(rows)) <= 1e-12


class TestCertificate:
    @pytest.mark.parametrize("maker", [red.clifford_backend, red.comm_real_backend,
                                       red.comm_complex_backend])
    def test_planted_passes(self, maker):
        inst, planted = lc.generate_planted(8, 3, 6, 3, 2, seed=9)
        cert = red.completeness_certificate(inst, planted, maker(6))
        assert cert.in_subspace and cert.passed
        assert cert.value >= 1.0 - 1e-6

    def test_broken_assignment_fails_membership(self):
        inst, planted = lc.generate_planted(8, 3, 6, 3, 2, seed=10)
        broken = planted.copy()
        broken[0] = (broken[0] + 1) % inst.n
        cert = red.completeness_certificate(inst, broken, red.comm_real_backend(6))
        assert not cert.in_subspace
        assert not cert.passed


class TestDecoder:
    def test_planted_hand_case(self):
        inst, planted = lc.generate_planted(8, 3, 6, 3, 2, seed=11)
        fld = red.assignment_to_field(inst, planted)
        params = red.DecoderParams(eps=0.5, delta=0.5, t=inst.t, seed=0)
        assert params.beta == pytest.approx(0.03125)
        labels, stats = red.decode(fld, params, inst)
        np.testing.assert_array_equal(labels, planted)
        assert stats.v0_fraction == 1.0
        assert stats.a1_sizes == [1] * inst.num_vertices
        assert stats.satisfied_fraction == 1.0

    def test_zero_field_trivial(self):
        inst, _ = lc.generate_planted(8, 3, 6, 3, 2, seed=12)
        params = red.DecoderParams(eps=0.5, delta=0.5, t=inst.t, seed=0)
        labels, stats = red.decode(np.zeros((8, 6), dtype=complex), params, inst)
        assert stats.v0_size == 0
        np.testing.assert_array_equal(labels, np.zeros(8, dtype=int))

    def test_zero_field_stats(self):
        inst, _ = lc.generate_planted(8, 3, 6, 3, 2, seed=12)
        params = red.DecoderParams(eps=0.5, delta=0.5, t=inst.t, seed=0)
        labels, stats = red.decode(np.zeros((8, 6), dtype=complex), params, inst)
        np.testing.assert_array_equal(labels, np.zeros(8, dtype=int))
        beta = 0.5**2 * 0.5**3
        assert vars(stats) == {
            "v0_size": 0, "v0_fraction": 0.0, "beta": beta, "a1_sizes": [],
            "a2_sizes": [], "a1_bound": 16.0 / (0.5**2 * beta**2),
            "a2_bound": 16.0 * inst.t**2 / (0.5**2 * beta**2),
            "satisfied_fraction": lc.satisfied_fraction(inst, labels)}

    def test_single_vertex_spike(self):
        inst, _ = lc.generate_planted(8, 3, 6, 3, 2, seed=13)
        fld = np.zeros((8, 6), dtype=complex)
        fld[3, 2] = 1.0
        params = red.DecoderParams(eps=0.5, delta=0.5, t=inst.t, seed=0)
        labels, stats = red.decode(fld, params, inst)
        assert stats.v0_size == 1
        assert labels[3] == 2

    def test_size_bounds_and_max_coordinate(self):
        inst, _ = lc.generate_planted(8, 3, 6, 3, 2, seed=14)
        basis = red.subspace_basis(red.build_constraints(inst))
        rng = np.random.default_rng(15)
        coords = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        fld = basis.to_field(coords / np.linalg.norm(coords))
        params = red.DecoderParams(eps=0.4, delta=0.5, t=inst.t, seed=0)
        labels, stats = red.decode(fld, params, inst)
        assert all(s <= stats.a1_bound for s in stats.a1_sizes)
        assert all(s <= stats.a2_bound for s in stats.a2_sizes)
        mags = np.abs(fld)
        l2 = np.sqrt((mags**2).sum(axis=1))
        l4 = ((mags**4).sum(axis=1))**0.25
        for v in range(8):
            if l4[v] > params.delta * params.eps and l2[v] <= 1 / params.eps:
                assert mags[v].max() >= params.beta

    def test_deterministic_given_seed(self):
        inst, _ = lc.generate_planted(8, 3, 6, 3, 2, seed=16)
        basis = red.subspace_basis(red.build_constraints(inst))
        rng = np.random.default_rng(17)
        coords = rng.normal(size=basis.dim)
        fld = basis.to_field(coords / np.linalg.norm(coords))
        params = red.DecoderParams(eps=0.4, delta=0.6, t=inst.t, seed=21)
        labels1, _ = red.decode(fld, params, inst)
        labels2, _ = red.decode(fld, params, inst)
        np.testing.assert_array_equal(labels1, labels2)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            red.DecoderParams(eps=1.5, delta=0.5, t=2)
        with pytest.raises(ValueError):
            red.DecoderParams(eps=0.5, delta=1.5, t=2)
        with pytest.raises(ValueError):
            red.DecoderParams(eps=0.5, delta=0.5, t=0)


class TestOperatorNormLowerBound:
    def test_identity_instance_reaches_one(self):
        inst = identity_projection_instance(num_vertices=4, n=3)
        backend = red.clifford_backend(3)
        result = red.operator_norm_lower_bound(inst, backend, restarts=8, iters=200, seed=0)
        assert abs(result.value - 1.0) <= 1e-4
        assert result.value <= 1.0 + 1e-6
        assert red.field_l2_norm(result.field) == pytest.approx(1.0, abs=1e-9)

    def test_trivial_subspace_degenerate(self):
        inst = identity_projection_instance(num_vertices=4, n=2)
        cs = red.build_constraints(inst)
        empty = red.SubspaceBasis(basis=np.zeros((8, 0)), num_vertices=4, n=2)
        result = red.operator_norm_lower_bound(inst, red.clifford_backend(2),
                                               cs=cs, basis=empty, seed=0)
        assert result.degenerate
        assert result.value == 0.0

    def test_real_backend_stays_real(self):
        inst = identity_projection_instance(num_vertices=4, n=2)
        backend = red.comm_real_backend(2)
        result = red.operator_norm_lower_bound(inst, backend, restarts=4, iters=100, seed=1)
        assert np.abs(result.field.imag).max() == 0.0
        assert result.value <= 1.0 + 1e-6

    def test_single_edge_beats_dense_search(self):
        # 3-dimensional nullspace; the ascent must dominate a dense random
        # sweep of the unit sphere in subspace coordinates
        inst = single_edge_constant_projection()
        backend = red.clifford_backend(2)
        cs = red.build_constraints(inst)
        basis = red.subspace_basis(cs)
        assert basis.dim == 3
        result = red.operator_norm_lower_bound(inst, backend, restarts=8,
                                               iters=150, seed=3, cs=cs, basis=basis)
        rng = np.random.default_rng(4)
        sweep = 0.0
        for _ in range(20000):
            z = rng.normal(size=3) + 1j * rng.normal(size=3)
            z /= np.linalg.norm(z)
            sweep = max(sweep, red.apply_norm_F(basis.to_field(z), backend))
        assert result.value >= sweep - 1e-6
        assert result.value <= 1.0 + 1e-6

    def test_high_value_field_has_large_v0(self):
        # spread-vs-norm contract, checked empirically: a field with averaged
        # norm above tau + 4*eps must put weight on many vertices
        inst, _ = lc.generate_planted(8, 3, 4, 2, 2, seed=18)
        backend = red.clifford_backend(4)
        result = red.operator_norm_lower_bound(inst, backend, restarts=6, iters=150, seed=2)
        eps = 0.05
        assert result.value > backend.tau + 4 * eps
        fld = result.field
        mags = np.abs(fld)
        l2 = np.sqrt((mags**2).sum(axis=1))
        l4 = ((mags**4).sum(axis=1))**0.25
        delta = backend.delta(eps)
        v0 = np.count_nonzero((l4 > delta * eps) & (l2 <= 1 / eps))
        assert v0 >= eps**2 * inst.num_vertices
