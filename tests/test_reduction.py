import dataclasses
import functools
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ncglab import clifford, commutative
from ncglab import labelcover as lc
from ncglab import reduction as red
from ncglab.config import DENSE_DIM_CAP, SUBSPACE_RESIDUAL_TOL


def single_edge_constant_projection():
    """One edge, n=2, k=1: both projections send everything to label 0."""
    return lc.LabelCoverInstance(num_vertices=2, n=2, k=1, t=2, gamma=1.0,
                                 zeta=0.1, ends=[[0, 1]], pis=np.zeros((1, 2, 2)))


def identity_projection_instance(num_vertices=4, degree=2, n=3):
    vertices = np.arange(num_vertices)
    return lc.LabelCoverInstance(num_vertices=num_vertices, n=n, k=n, t=1,
                                 gamma=0.0, zeta=0.1,
                                 ends=np.stack([vertices, (vertices + 1) % num_vertices], axis=1),
                                 pis=np.tile(np.arange(n), (num_vertices, 2, 1)))


class TestConstraints:
    def test_single_edge_row(self):
        inst = single_edge_constant_projection()
        cs = red.build_constraints(inst)
        assert cs.matrix.shape == (1, 4)
        np.testing.assert_array_equal(cs.matrix.toarray(), [[1, 1, -1, -1]])

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
        proj = projector_matrix(basis)
        # an orthogonal projection of rank dim whose range satisfies every constraint
        np.testing.assert_allclose(proj @ proj, proj, rtol=0, atol=1e-10)
        np.testing.assert_allclose(proj, proj.T, rtol=0, atol=1e-10)
        assert np.trace(proj) == pytest.approx(basis.dim, abs=1e-9)
        assert np.max(np.abs(dense @ proj)) <= SUBSPACE_RESIDUAL_TOL

    def test_projection_is_idempotent(self):
        inst, _ = lc.generate_planted(6, 3, 4, 2, 2, seed=2)
        basis = red.subspace_basis(red.build_constraints(inst))
        rng = np.random.default_rng(3)
        fld = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        once = basis.project(fld)
        np.testing.assert_allclose(basis.project(once), once, atol=1e-12)

    @pytest.mark.parametrize("vertices, n, k", [(40, 6, 3), (300, 8, 4)])
    def test_transpose_view_matches_a_csr_copy_bit_for_bit(self, vertices, n, k):
        inst, _ = lc.generate_planted(vertices, 4, n, k, 2, seed=1)
        basis = red.subspace_basis(red.build_constraints(inst))
        assert np.shares_memory(basis.transpose.data, basis.matrix.data)
        y = np.random.default_rng(0).normal(size=(basis.matrix.shape[0], 2))
        np.testing.assert_array_equal(basis.transpose @ y, basis.matrix.T.tocsr() @ y)

    @pytest.mark.parametrize("maker", [red.clifford_backend, red.comm_real_backend])
    def test_real_products_match_complex(self, maker):
        # project works on the (len, 2) real view of a complex field; it must
        # equal the complex product with the dense projector, in the input's
        # shape, for C- and Fortran-ordered fields and for gradients alike
        inst = make_instance(*REFERENCE_INSTANCES[0])
        cs = red.build_constraints(inst)
        basis = red.subspace_basis(cs)
        reference = scipy.linalg.null_space(cs.matrix.toarray())
        dense = reference @ reference.T
        rng = np.random.default_rng(6)
        fld = rng.normal(size=(inst.num_vertices, inst.n)) + 1j * rng.normal(
            size=(inst.num_vertices, inst.n))
        before = fld.copy()
        expected = (dense @ fld.reshape(-1)).reshape(fld.shape)
        np.testing.assert_allclose(basis.project(fld), expected, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(fld, before)  # the input is not modified
        np.testing.assert_allclose(basis.project(fld.reshape(-1)), expected.reshape(-1),
                                   rtol=0, atol=1e-12)
        np.testing.assert_array_equal(basis.project(np.asfortranarray(fld)),
                                      basis.project(fld))
        backend = maker(inst.n)
        point = basis.project(fld.real if backend.is_real else fld)
        _, grads = backend.norm_and_gradient(point)
        if backend.is_real:
            grads = grads.real
        projected = basis.project(grads)
        np.testing.assert_allclose(projected, (dense @ grads.reshape(-1)).reshape(fld.shape),
                                   rtol=0, atol=1e-12)
        if backend.is_real:
            assert not np.any(projected.imag)


def loop_constraints(inst):
    """Reference: one row per (edge, small label), filled entry by entry."""
    data, row_idx, col_idx = [], [], []
    r = 0
    for (u, v), (pi_u, pi_v) in zip(inst.ends, inst.pis):
        for j in range(inst.k):
            for i in np.flatnonzero(pi_u == j):
                data.append(1.0)
                row_idx.append(r)
                col_idx.append(u * inst.n + int(i))
            for i in np.flatnonzero(pi_v == j):
                data.append(-1.0)
                row_idx.append(r)
                col_idx.append(v * inst.n + int(i))
            r += 1
    shape = (r, inst.num_vertices * inst.n)
    return scipy.sparse.csr_matrix((data, (row_idx, col_idx)), shape=shape)


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


def projector_matrix(basis):
    """basis.project as a dense real matrix, one projected unit vector per column."""
    columns = [basis.project(e) for e in np.eye(basis.matrix.shape[1])]
    proj = np.stack(columns, axis=1)
    assert not np.any(proj.imag)
    return proj.real


def assert_matches_projector(cs, reference):
    """The sparse-LU projector equals the orthogonal projector onto the span
    of the orthonormal columns ``reference``: on unit vectors and on a
    complex field, with rank, idempotence and self-adjointness to 1e-10, and
    every projected vector satisfies every constraint."""
    basis = red.subspace_basis(cs)
    assert basis.dim == reference.shape[1]
    proj = projector_matrix(basis)
    np.testing.assert_allclose(proj, reference @ reference.T, rtol=0, atol=1e-10)
    np.testing.assert_allclose(proj @ proj, proj, rtol=0, atol=1e-10)
    np.testing.assert_allclose(proj, proj.T, rtol=0, atol=1e-10)
    assert np.linalg.matrix_rank(proj, tol=0.5) == basis.dim
    rng = np.random.default_rng(9)
    total = cs.matrix.shape[1]
    fld = rng.normal(size=total) + 1j * rng.normal(size=total)
    np.testing.assert_allclose(basis.project(fld), reference @ (reference.T @ fld),
                               rtol=0, atol=1e-10)
    assert red.constraint_residual(cs, basis.project(fld)) <= SUBSPACE_RESIDUAL_TOL
    for column in proj.T:
        assert red.constraint_residual(cs, column) <= SUBSPACE_RESIDUAL_TOL


def assert_matches_svd_null_space(cs):
    assert_matches_projector(cs, scipy.linalg.null_space(cs.matrix.toarray()))


class TestConstraintsMatchLoop:
    @pytest.mark.parametrize("params", REFERENCE_INSTANCES)
    def test_vectorized_matches_loop(self, params):
        inst = make_instance(*params)
        cs = red.build_constraints(inst)
        ref = loop_constraints(inst)
        assert cs.matrix.shape == ref.shape
        assert cs.matrix.nnz == ref.nnz
        assert (cs.matrix != ref).nnz == 0

    def test_no_edges(self):
        inst = lc.LabelCoverInstance(num_vertices=3, n=2, k=1, t=2, gamma=1.0,
                                     zeta=0.1, ends=np.empty((0, 2)), pis=np.empty((0, 2, 2)))
        cs = red.build_constraints(inst)
        assert cs.matrix.shape == (0, 6)


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
        ref = loop_constraints(inst)
        assert (cs.matrix != ref).nnz == 0
        assert_matches_svd_null_space(cs)


def assert_sparse_lu_matches_eigensolve(cs):
    """The sparse-LU projector equals the projector onto the eigenvectors of
    the dense Gram matrix A^T A whose eigenvalues lie below its rank gap."""
    gram = (cs.matrix.T @ cs.matrix).toarray()
    values, vectors = scipy.linalg.eigh(gram)
    gap = np.sqrt(np.finfo(np.float64).eps) * max(values.max(initial=0.0), 1.0)
    assert_matches_projector(cs, vectors[:, values <= gap])


class TestSparseLuProjector:
    """The projector from the sparse LU factorization of A A^T + mu I,
    against the full eigensolve of A^T A."""

    @pytest.mark.parametrize("params", REFERENCE_INSTANCES)
    def test_matches_full_eigensolve(self, params):
        assert_sparse_lu_matches_eigensolve(
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
        assert_sparse_lu_matches_eigensolve(red.build_constraints(inst))

    # Instances on which an earlier partial eigensolve returned null vectors
    # with residual 1.9e-7 and 3.0e-9 though the rank is well separated
    @pytest.mark.parametrize("params", [("planted", 4, 2, 4, 4, 1, 29266),
                                        ("planted", 10, 2, 5, 5, 1, 5226)])
    def test_pinned_instances(self, params):
        assert_matches_svd_null_space(red.build_constraints(make_instance(*params)))

    def test_inaccurate_solve_raises(self, monkeypatch):
        # solves off by 1e-7 leave a row-space component that the sweeps do
        # not remove, so the fixed probe stays outside the subspace
        splu = scipy.sparse.linalg.splu
        noise = np.random.default_rng(0)

        def perturbed(*args, **kwargs):
            lu = splu(*args, **kwargs)
            return SimpleNamespace(
                perm_r=lu.perm_r, perm_c=lu.perm_c, U=lu.U,
                solve=lambda rhs: lu.solve(rhs) + 1e-7 * noise.standard_normal(rhs.shape))

        monkeypatch.setattr(scipy.sparse.linalg, "splu", perturbed)
        cs = red.build_constraints(make_instance(*REFERENCE_INSTANCES[3]))
        with pytest.raises(ValueError, match=r"residual \d\.\d+e-\d+ on a fixed probe"):
            red.subspace_basis(cs)

    def test_off_diagonal_pivot_raises(self, monkeypatch):
        splu = scipy.sparse.linalg.splu

        def swapped_rows(*args, **kwargs):
            lu = splu(*args, **kwargs)
            return SimpleNamespace(perm_r=lu.perm_r[::-1], perm_c=lu.perm_c, U=lu.U,
                                   solve=lu.solve)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", swapped_rows)
        cs = red.build_constraints(make_instance(*REFERENCE_INSTANCES[3]))
        with pytest.raises(ValueError, match="off the diagonal"):
            red.subspace_basis(cs)

    @pytest.mark.parametrize("params", REFERENCE_INSTANCES[:1] + REFERENCE_INSTANCES[4:5])
    def test_dependent_pivots_sit_below_the_floor(self, params):
        # the rank comes from the pivots: every one is either within the
        # measured multiple of the shift or far above the rank gap
        cs = red.build_constraints(make_instance(*params))
        gram = (cs.matrix @ cs.matrix.T).tocsc()
        g = float(np.asarray(abs(gram).sum(axis=1)).max())
        lu = scipy.sparse.linalg.splu(
            gram + red._SHIFT * g * scipy.sparse.identity(gram.shape[0], format="csc"),
            permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True))
        pivots = lu.U.diagonal() / (red._SHIFT * g)
        dependent = pivots[pivots < 1e6]
        assert dependent.size == red.subspace_basis(cs).dim - (
            cs.matrix.shape[1] - cs.matrix.shape[0])
        assert dependent.min() >= 1.0 and dependent.max() <= 1 + gram.shape[0]
        assert np.min(pivots[pivots >= 1e6]) * red._SHIFT >= 1e-3

    # the pivot of singular value ~3.7e-5 lies inside the rank gap; that of
    # ~1.2e-9 is counted as null, and the projection then violates a
    # constraint by ~1e-9. Either way the one LU factorization is the whole
    # path: its guard raises, and no dense eigensolve is tried as a fallback
    @pytest.mark.parametrize("s, problem", [(6e-5, r"pivot \d\.\d+e-(09|10) between"),
                                            (2e-9, "residual")])
    def test_near_rank_deficient_raises_without_fallback(self, s, problem, monkeypatch):
        splu, eigh = scipy.sparse.linalg.splu, scipy.linalg.eigh
        calls = []

        def counted_splu(*args, **kwargs):
            calls.append("splu")
            return splu(*args, **kwargs)

        def counted_eigh(*args, **kwargs):
            calls.append("eigh")
            return eigh(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", counted_splu)
        monkeypatch.setattr(scipy.linalg, "eigh", counted_eigh)
        with pytest.raises(ValueError, match=problem):
            red.subspace_basis(near_rank_deficient_system(s))
        assert calls == ["splu"]


class TestSubspaceBasisIsCanonical:
    @pytest.mark.parametrize("params", REFERENCE_INSTANCES[:2] + REFERENCE_INSTANCES[4:5])
    def test_basis_depends_only_on_subspace(self, params):
        # rescaled rows leave the null space unchanged but change A A^T and
        # its factorization; the projection must not move
        inst = make_instance(*params)
        cs = red.build_constraints(inst)
        scale = np.random.default_rng(8).uniform(0.5, 2.0, size=cs.matrix.shape[0])
        scaled = red.ConstraintSystem(matrix=scipy.sparse.diags(scale) @ cs.matrix)
        rng = np.random.default_rng(10)
        shape = (inst.num_vertices, inst.n)
        fld = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert red.subspace_basis(scaled).dim == red.subspace_basis(cs).dim
        np.testing.assert_allclose(red.subspace_basis(scaled).project(fld),
                                   red.subspace_basis(cs).project(fld), rtol=0, atol=1e-10)


def near_rank_deficient_system(s):
    """Two constraints on 2 vertices x 2 labels that differ by s in one entry,
    so the second singular value is about s/2."""
    matrix = scipy.sparse.csr_matrix(np.array([[1.0, 1.0, -1.0, -1.0],
                                               [1.0, 1.0, -1.0, -1.0 + s]]))
    return red.ConstraintSystem(matrix=matrix)


class TestRankGapGuard:
    def test_separated_rank_accepted(self):
        cs = near_rank_deficient_system(1.0)
        assert red.subspace_basis(cs).dim == 2
        assert_matches_svd_null_space(cs)

    def test_eigenvalue_inside_gap_raises(self):
        # singular value ~3.7e-5: its Gram eigenvalue (~1.3e-9), and the pivot
        # of the second row (~2.7e-9), are above the null floor but below
        # sqrt(eps) * g
        cs = near_rank_deficient_system(6e-5)
        with pytest.raises(ValueError, match=r"pivot \d\.\d+e-(09|10) between"):
            red.subspace_basis(cs)

    def test_tiny_singular_value_raises(self):
        # singular value ~1.2e-9: squared, it drops below the shift and is
        # counted as null; the projection then keeps that direction and
        # violates a constraint by ~1e-9
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


@functools.lru_cache(maxsize=None)
def cached_backend(name, n, mode):
    kwargs = {"seed": 3, "sample_count": 700} if mode == "monte_carlo" else {}
    return red.BACKEND_BUILDERS[name](n, mode, **kwargs)


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

    @pytest.mark.parametrize("name, n, mode", [
        ("clifford", 5, "exhaustive"), ("clifford", 8, "pairwise_independent"),
        ("clifford", 5, "monte_carlo"), ("comm_real", 5, "exhaustive"),
        ("comm_real", 5, "monte_carlo"), ("comm_complex", 4, "exhaustive"),
        ("comm_complex", 4, "monte_carlo"),
    ])
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3))
    def test_euler_identity(self, name, n, mode, seed, scale):
        # Re<grad f(a), a> = f(a) row by row, for f convex and 1-homogeneous:
        # the premise of the fixed-point sphere ascent
        backend = cached_backend(name, n, mode)
        rng = np.random.default_rng(seed)
        fld = rng.normal(size=(5, n))
        if not backend.is_real:
            fld = fld + 1j * rng.normal(size=(5, n))
        fld *= scale
        values, grads = backend.norm_and_gradient(fld)
        euler = np.sum(np.conj(grads) * fld, axis=1).real
        assert np.all(np.abs(euler - values) <= 1e-12 * values)

    def test_gradient_matches_norm(self):
        backend = red.clifford_backend(3)
        rng = np.random.default_rng(7)
        a = rng.normal(size=3) + 1j * rng.normal(size=3)
        value, grad = backend.norm_and_gradient(a)
        assert value == pytest.approx(backend.norm(a))
        assert grad.shape == (3,)


# (name, eta, tau, is_real) of each builder's backend, as literals
BACKEND_FIELDS = {
    "clifford": ("clifford", 1.0, 0.7071067811865476, False),
    "comm_real": ("comm_real", 1.0, 0.7978845608028654, True),
    "comm_complex": ("comm_complex", 1.0, 0.8862269254527579, False),
}


class TestBackendFromKernel:
    @pytest.mark.parametrize("name, n, kwargs", [
        (name, n, kwargs) for name in BACKEND_FIELDS for n in (1, 4, 6)
        for kwargs in ({}, {"mode": "monte_carlo", "seed": 3, "sample_count": 700})
    ] + [("clifford", n, {"mode": "pairwise_independent"}) for n in (1, 4, 8)])
    def test_derived_fields_match_the_builders_table(self, name, n, kwargs):
        backend = red.BACKEND_BUILDERS[name](n, **kwargs)
        derived = (backend.name, backend.n, backend.eta, backend.tau, backend.is_real)
        expected = (BACKEND_FIELDS[name][0], n, *BACKEND_FIELDS[name][1:])
        assert derived == expected
        assert [type(x) for x in derived] == [str, int, float, float, bool]

    @pytest.mark.parametrize("maker", [red.comm_real_backend, red.comm_complex_backend])
    def test_scalar_monte_carlo_little_op_refused_before_members(self, maker, monkeypatch):
        def never(ens):
            raise AssertionError("exhaustive_members called")

        monkeypatch.setattr(commutative, "exhaustive_members", never)
        backend = maker(2, "monte_carlo", seed=0, sample_count=64)
        with pytest.raises(ValueError, match="exhaustive"):
            backend.little_op()

    @pytest.mark.parametrize("maker, largest, d", [
        (red.clifford_backend, 3, 256), (red.comm_real_backend, 9, 512),
        (red.comm_complex_backend, 4, 256)])
    def test_little_op_side_cap(self, maker, largest, d, monkeypatch):
        """The largest n builds; one more gives side 1024 and is refused
        before any member exists."""
        assert maker(largest).little_op().d == d <= DENSE_DIM_CAP

        def never(ens):
            raise AssertionError("exhaustive_members called")

        monkeypatch.setattr(commutative, "exhaustive_members", never)
        with pytest.raises(ValueError, match=f"d = 1024 at n={largest + 1} exceeds cap "
                                             f"{DENSE_DIM_CAP}$"):
            maker(largest + 1).little_op()

    def test_kernel_is_the_only_init_field(self):
        assert [f.name for f in dataclasses.fields(red.EmbeddingBackend) if f.init] == ["kernel"]
        kernel = commutative.SignEnsemble(field="real", n=3)
        assert red.EmbeddingBackend(kernel).kernel is kernel
        with pytest.raises(TypeError):
            red.EmbeddingBackend(kernel=kernel, name="comm_real")
        with pytest.raises(TypeError):
            red.EmbeddingBackend(kernel, 3)


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
        fld = basis.project(rng.normal(size=(8, 6)) + 1j * rng.normal(size=(8, 6)))
        fld /= red.field_l2_norm(fld)
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
        fld = basis.project(rng.normal(size=(8, 6)))
        fld /= red.field_l2_norm(fld)
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

    @settings(max_examples=200, deadline=None)
    @given(eps=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           delta=st.floats(0.0, 1.0, exclude_min=True), t=st.integers(1, 10**9))
    def test_every_parameter_in_range_constructs(self, eps, delta, t):
        # beta = delta^2 eps^3 < delta on the whole range, so no further check is needed
        assert red.DecoderParams(eps=eps, delta=delta, t=t).beta <= delta


def loop_decode(fld, params, inst):
    """Reference: the decoder's draws one V0 vertex at a time, in vertex order."""
    fld = np.asarray(fld, dtype=np.complex128)
    rng = np.random.default_rng(params.seed)
    mags = np.abs(fld)
    l2 = np.sqrt((mags**2).sum(axis=1))
    l4 = ((mags**4).sum(axis=1)) ** 0.25
    in_v0 = (l4 > params.delta * params.eps) & (l2 <= 1.0 / params.eps)
    beta = params.beta
    labels = np.zeros(inst.num_vertices, dtype=int)
    a1_sizes, a2_sizes = [], []
    for v in np.flatnonzero(in_v0):
        a1 = np.flatnonzero(mags[v] >= beta / 4.0)
        assert a1.size > 0
        a2 = np.flatnonzero(mags[v] >= beta / (4.0 * params.t))
        a1_sizes.append(int(a1.size))
        a2_sizes.append(int(a2.size))
        labels[v] = int(a1[rng.integers(0, a1.size)])
    v0_size = int(in_v0.sum())
    stats = red.DecodeStats(
        v0_size=v0_size, v0_fraction=v0_size / inst.num_vertices, beta=beta,
        a1_sizes=a1_sizes, a2_sizes=a2_sizes,
        a1_bound=16.0 / (params.eps**2 * beta**2),
        a2_bound=16.0 * params.t**2 / (params.eps**2 * beta**2),
        satisfied_fraction=lc.satisfied_fraction(inst, labels))
    return labels, stats


def assert_decode_matches_loop(fld, params, inst):
    labels, stats = red.decode(fld, params, inst)
    ref_labels, ref_stats = loop_decode(fld, params, inst)
    np.testing.assert_array_equal(labels, ref_labels)
    assert vars(stats) == vars(ref_stats)
    assert all(type(s) is int for s in stats.a1_sizes + stats.a2_sizes)
    assert type(stats.v0_size) is int
    return labels, stats


class TestDecoderMatchesLoop:
    @pytest.mark.parametrize("noise, eps, delta", [(0.05, 0.9, 0.9), (0.3, 0.9, 0.9),
                                                   (0.3, 0.5, 0.5), (1.0, 0.5, 0.5)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_noisy_planted_fields(self, noise, eps, delta, seed):
        inst, planted = lc.generate_planted(60, 4, 8, 4, 2, seed=seed)
        basis = red.subspace_basis(red.build_constraints(inst))
        rng = np.random.default_rng(seed + 100)
        shape = (inst.num_vertices, inst.n)
        fld = basis.project(red.assignment_to_field(inst, planted) + noise / np.sqrt(2) * (
            rng.normal(size=shape) + 1j * rng.normal(size=shape)))
        params = red.DecoderParams(eps=eps, delta=delta, t=inst.t, seed=seed)
        _, stats = assert_decode_matches_loop(fld, params, inst)
        assert stats.v0_size > 0

    @pytest.mark.parametrize("seed", range(30))
    def test_random_fields_with_many_candidates(self, seed):
        # magnitudes mostly above beta/4 = 0.0078: most V0 vertices draw
        # among several labels, so equal labels mean equal draws in equal order
        rng = np.random.default_rng(seed)
        inst = lc.generate_random(40, 4, 8, 4, 2, seed=seed)
        fld = rng.normal(size=(40, 8)) + 1j * rng.normal(size=(40, 8))
        fld *= rng.uniform(0.05, 0.6, size=(40, 1)) * (rng.random((40, 8)) < 0.8)
        params = red.DecoderParams(eps=0.5, delta=0.5, t=inst.t, seed=seed)
        labels, stats = assert_decode_matches_loop(fld, params, inst)
        assert stats.v0_size >= 20 and max(stats.a1_sizes) >= 4
        firsts = np.argmax(np.abs(fld) >= params.beta / 4.0, axis=1)
        assert np.any(labels != firsts)

    def test_empty_v0(self):
        inst, _ = lc.generate_planted(8, 3, 6, 3, 2, seed=12)
        fld = np.full((8, 6), 10.0 + 0j)  # every ||b_v||_2 exceeds 1/eps
        params = red.DecoderParams(eps=0.5, delta=0.5, t=inst.t, seed=3)
        labels, stats = assert_decode_matches_loop(fld, params, inst)
        assert stats.v0_size == 0 and stats.a1_sizes == [] and not np.any(labels)

    def test_invariant_error_names_first_v0_vertex(self, monkeypatch):
        inst, planted = lc.generate_planted(8, 3, 6, 3, 2, seed=11)
        fld = red.assignment_to_field(inst, planted)
        fld[:2] = 0.0  # vertices 0 and 1 leave V0, so vertex 2 is its first
        params = red.DecoderParams(eps=0.5, delta=0.5, t=inst.t, seed=0)
        # a beta that no (eps, delta) in range gives: beta/4 = 2 exceeds every |b_v(i)| <= 1
        monkeypatch.setattr(red.DecoderParams, "beta", property(lambda self: 8.0))
        with pytest.raises(red.DecodeInvariantError, match=r"^vertex 2 is in V0 .* = 2\.0$"):
            red.decode(fld, params, inst)


class TestOperatorNormLowerBound:
    def test_identity_instance_reaches_one(self):
        inst = identity_projection_instance(num_vertices=4, n=3)
        backend = red.clifford_backend(3)
        result = red.operator_norm_lower_bound(inst, backend, restarts=8, iters=200, seed=0)
        assert abs(result.value - 1.0) <= 1e-4
        assert result.value <= 1.0 + 1e-6
        assert red.field_l2_norm(result.field) == pytest.approx(1.0, abs=1e-9)

    def test_trivial_subspace_degenerate(self):
        # a full-column-rank system: only the zero field satisfies it
        inst = identity_projection_instance(num_vertices=4, n=2)
        cs = red.ConstraintSystem(matrix=scipy.sparse.csr_matrix(np.eye(8) + np.eye(8, k=1)))
        basis = red.subspace_basis(cs)
        assert basis.dim == 0
        np.testing.assert_allclose(basis.project(np.ones((4, 2))), 0.0, rtol=0, atol=1e-14)
        result = red.operator_norm_lower_bound(inst, red.clifford_backend(2),
                                               cs=cs, basis=basis, seed=0)
        assert result.degenerate
        assert result.value == 0.0
        assert not np.any(result.field)

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
        flds = (rng.normal(size=(20000, 4)) + 1j * rng.normal(size=(20000, 4))) @ (
            projector_matrix(basis).T)
        flds /= np.linalg.norm(flds, axis=1, keepdims=True) / np.sqrt(2)  # unit L2(V)
        sweep = backend.norm(flds.reshape(-1, 2)).reshape(-1, 2).mean(axis=1).max()
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
        delta = clifford.spread_threshold(eps)
        v0 = np.count_nonzero((l4 > delta * eps) & (l2 <= 1 / eps))
        assert v0 >= eps**2 * inst.num_vertices


def dense_basis_ascent(inst, cs, backend, *, restarts, iters, seed):
    """The coordinate ascent over an orthonormal SVD basis E of the subspace
    that the field-space ascent replaced. Its starts are E^T of the same
    Gaussian draws, so both ascents start from the same fields. Returns the
    value and the field."""
    basis = scipy.linalg.null_space(cs.matrix.toarray())
    shape = (inst.num_vertices, inst.n)
    scale = np.sqrt(inst.num_vertices)

    def objective_and_gradient(z):
        values, grads = backend.norm_and_gradient(scale * (basis @ z).reshape(shape))
        grad = basis.T @ grads.reshape(-1) / scale
        return float(np.mean(values)), grad.real if backend.is_real else grad

    value, z = red._sphere_ascent(objective_and_gradient, inst.num_vertices * inst.n,
                                  complex_start=not backend.is_real, restarts=restarts,
                                  iters=iters, seed=seed, project=lambda g: basis.T @ g)
    return value, scale * (basis @ z).reshape(shape)


class TestFieldSpaceAscent:
    @pytest.mark.parametrize("params, maker", [
        (REFERENCE_INSTANCES[0], red.clifford_backend),
        (REFERENCE_INSTANCES[4], red.clifford_backend),
        (REFERENCE_INSTANCES[3], red.comm_real_backend),
        (REFERENCE_INSTANCES[7], red.comm_complex_backend),
    ])
    def test_matches_dense_basis_ascent(self, params, maker):
        inst = make_instance(*params)
        cs = red.build_constraints(inst)
        backend = maker(inst.n)
        result = red.operator_norm_lower_bound(inst, backend, restarts=2, iters=20, seed=5,
                                               cs=cs)
        value, fld = dense_basis_ascent(inst, cs, backend, restarts=2, iters=20, seed=5)
        assert abs(result.value - value) <= 1e-10
        np.testing.assert_allclose(result.field, fld, rtol=0, atol=1e-8)
        assert red.field_l2_norm(result.field) == pytest.approx(1.0, abs=1e-12)
        assert result.max_residual <= SUBSPACE_RESIDUAL_TOL
        assert red.constraint_residual(cs, result.field) <= result.max_residual

    def test_large_instance_in_bounded_memory(self):
        # V=1000, n=8: the dense Gram matrix A^T A alone would take 512 MB and
        # a dense basis 65 MB; the projector, certificate and a 1x5 ascent
        # take about 0.2 s and 9 MiB of traced allocations
        inst, planted = lc.generate_planted(1000, 4, 8, 4, 2, seed=1)
        backend = red.clifford_backend(8, "pairwise_independent")
        tracemalloc.start()
        try:
            start = time.perf_counter()
            cs = red.build_constraints(inst)
            basis = red.subspace_basis(cs)
            cert = red.completeness_certificate(inst, planted, backend, cs=cs)
            result = red.operator_norm_lower_bound(inst, backend, restarts=1, iters=5,
                                                   seed=0, cs=cs, basis=basis)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20
        assert elapsed <= 20.0
        assert basis.dim == 1010
        assert cert.passed
        assert not result.degenerate and 0.8 <= result.value <= 1.0 + 1e-9
        assert result.max_residual <= SUBSPACE_RESIDUAL_TOL
