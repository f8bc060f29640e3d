import dataclasses
import functools
import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ncglab import clifford, commutative, linalg, solvers
from ncglab import labelcover as lc
from ncglab import reduction as red
from ncglab.config import DENSE_DIM_CAP, SUBSPACE_RESIDUAL_TOL


def single_edge_constant_projection():
    """One edge, n=2, k=1: both projections send everything to label 0."""
    return lc.LabelCoverInstance(num_vertices=2, n=2, k=1, t=2, gamma=1.0,
                                 ends=[[0, 1]], pis=np.zeros((1, 2, 2)))


def constraint_system(matrix):
    """The constraint system of a dense or sparse matrix A, from its COO triplets."""
    coo = scipy.sparse.coo_matrix(matrix)
    return red.ConstraintSystem(rows=coo.row, cols=coo.col, values=coo.data, shape=coo.shape)


def image_stack(op):
    """A little operator's (n, d, d) dense image stack."""
    images = np.zeros((op.n, op.d * op.d), dtype=np.complex128)
    np.add.at(images, (op.rows, op.cols), op.values)
    return images.reshape(op.n, op.d, op.d)


def identity_projection_instance(num_vertices=4, degree=2, n=3):
    vertices = np.arange(num_vertices)
    return lc.LabelCoverInstance(num_vertices=num_vertices, n=n, k=n, t=1,
                                 gamma=0.0,
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


class TestConstraintResidual:
    """constraint_residual's gather and bincounts against a CSR product."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 6), cols=st.integers(1, 8),
           seed=st.integers(0, 2**16), is_complex=st.booleans())
    def test_matches_csr_product_property(self, data, rows, cols, seed, is_complex):
        entry = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1),
                          st.floats(-2.0, 2.0, allow_nan=False))
        entries = data.draw(st.lists(entry, min_size=1, max_size=30))
        # repeated (row, col) positions, whose values add up
        entries += data.draw(st.lists(st.sampled_from(entries), max_size=10))
        r, c, v = (np.array(x) for x in zip(*entries))
        cs = red.ConstraintSystem(rows=r, cols=c, values=v, shape=(rows, cols))
        rng = np.random.default_rng(seed)
        fld = rng.normal(size=cols) + (1j * rng.normal(size=cols) if is_complex else 0.0)
        matrix = scipy.sparse.csr_matrix((v, (r, c)), shape=(rows, cols))
        expected = np.max(np.abs(matrix @ fld))
        assert abs(red.constraint_residual(cs, fld) - expected) <= 1e-12

    def test_field_shape_and_order_do_not_matter(self):
        inst, _ = lc.generate_planted(8, 3, 6, 3, 2, seed=0)
        cs = red.build_constraints(inst)
        rng = np.random.default_rng(1)
        fld = rng.normal(size=(8, 6)) + 1j * rng.normal(size=(8, 6))
        expected = np.max(np.abs(cs.matrix @ fld.reshape(-1)))
        for form in (fld, fld.reshape(-1), np.asfortranarray(fld)):
            assert abs(red.constraint_residual(cs, form) - expected) <= 1e-12


class TestSubspaceBasis:
    def test_single_edge_dimension_three(self):
        cs = red.build_constraints(single_edge_constant_projection())
        basis = red.subspace_basis(cs)
        assert basis.dim == 3

    def test_zero_row_system_full_space(self):
        inst = single_edge_constant_projection()
        cs = constraint_system(red.build_constraints(inst).matrix[:0])
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
    """The banded Cholesky projector equals the orthogonal projector onto the
    span of the orthonormal columns ``reference``: on unit vectors and on a
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
                                     ends=np.empty((0, 2)), pis=np.empty((0, 2, 2)))
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


def assert_band_projector_matches_eigensolve(cs):
    """The banded Cholesky projector equals the projector onto the
    eigenvectors of the dense Gram matrix A^T A whose eigenvalues lie below
    its rank gap.

    The eigenpairs are the right singular vectors of A and the squared
    singular values: a dense eigh of A^T A resolves the null vectors only to
    about eps lambda_max / lambda_min, which reached 4e-11 on the projector
    (planted V=12, degree 4, n=5, k=3, seed 255: lambda_min 1.7e-6), while
    the SVD of A resolves them to eps sigma_max / sigma_min."""
    dense = cs.matrix.toarray()
    _, singular, vh = scipy.linalg.svd(dense)
    values = np.zeros(dense.shape[1])
    values[:singular.size] = singular**2
    gap = np.sqrt(np.finfo(np.float64).eps) * max(values.max(initial=0.0), 1.0)
    assert_matches_projector(cs, vh.T[:, values <= gap])


class TestSparseLuProjector:
    """The projector from the sparse (banded Cholesky) factorization of
    A A^T + mu I, against the full eigensolve of A^T A."""

    @pytest.mark.parametrize("params", REFERENCE_INSTANCES)
    def test_matches_full_eigensolve(self, params):
        assert_band_projector_matches_eigensolve(
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
        assert_band_projector_matches_eigensolve(red.build_constraints(inst))

    # Instances on which an earlier partial eigensolve returned null vectors
    # with residual 1.9e-7 and 3.0e-9 though the rank is well separated
    @pytest.mark.parametrize("params", [("planted", 4, 2, 4, 4, 1, 29266),
                                        ("planted", 10, 2, 5, 5, 1, 5226)])
    def test_pinned_instances(self, params):
        assert_matches_svd_null_space(red.build_constraints(make_instance(*params)))

    def test_inaccurate_solve_raises(self, monkeypatch):
        # solves off by 1e-7 leave a row-space component that the sweeps do
        # not remove, so the fixed probe stays outside the subspace
        dpbtrs = scipy.linalg.lapack.dpbtrs
        noise = np.random.default_rng(0)

        def perturbed(ab, b, **kwargs):
            x, info = dpbtrs(ab, b, **kwargs)
            return x + 1e-7 * noise.standard_normal(x.shape), info

        monkeypatch.setattr(scipy.linalg.lapack, "dpbtrs", perturbed)
        cs = red.build_constraints(make_instance(*REFERENCE_INSTANCES[3]))
        with pytest.raises(ValueError, match=r"residual \d\.\d+e-\d+ on a fixed probe"):
            red.subspace_basis(cs)

    def test_non_positive_pivot_raises(self, monkeypatch):
        # a negative diagonal entry in column 5 of the band makes LAPACK stop
        # there with info = 6; the guard names the column instead of reading
        # a rank from a partial factor
        dpbtrf = scipy.linalg.lapack.dpbtrf

        def indefinite(ab, **kwargs):
            ab = np.array(ab, order="F")
            ab[0, 5] = -1.0
            return dpbtrf(ab, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, "dpbtrf", indefinite)
        cs = red.build_constraints(make_instance(*REFERENCE_INSTANCES[3]))
        with pytest.raises(ValueError, match="non-positive pivot at column 5 ") as raised:
            red.subspace_basis(cs)
        assert not isinstance(raised.value, np.linalg.LinAlgError)

    @pytest.mark.parametrize("params", REFERENCE_INSTANCES[:1] + REFERENCE_INSTANCES[4:5])
    def test_dependent_pivots_sit_below_the_floor(self, params):
        # the rank comes from the pivots: every one is either within the
        # measured multiple of the shift or far above the rank gap
        cs = red.build_constraints(make_instance(*params))
        gram = cs.matrix @ cs.matrix.T
        g = float(np.asarray(abs(gram).sum(axis=1)).max())
        basis = red.subspace_basis(cs)
        pivots = basis.chol[0] ** 2 / (red._SHIFT * g)
        assert pivots.shape == (gram.shape[0],)
        dependent = pivots[pivots < 1e6]
        assert dependent.size == basis.dim - (cs.matrix.shape[1] - cs.matrix.shape[0])
        assert dependent.min() >= 1.0 and dependent.max() <= 1 + gram.shape[0]
        assert np.min(pivots[pivots >= 1e6]) * red._SHIFT >= 1e-3

    # the pivot of singular value ~3.7e-5 lies inside the rank gap; that of
    # ~1.2e-9 is counted as null, and the projection then violates a
    # constraint by ~1e-9. Either way the one band factorization is the whole
    # path: its guard raises, and no dense eigensolve is tried as a fallback
    @pytest.mark.parametrize("s, problem", [(6e-5, r"pivot \d\.\d+e-(09|10) between"),
                                            (2e-9, "residual")])
    def test_near_rank_deficient_raises_without_fallback(self, s, problem, monkeypatch):
        dpbtrf, eigh = scipy.linalg.lapack.dpbtrf, scipy.linalg.eigh
        calls = []

        def counted_dpbtrf(*args, **kwargs):
            calls.append("dpbtrf")
            return dpbtrf(*args, **kwargs)

        def counted_eigh(*args, **kwargs):
            calls.append("eigh")
            return eigh(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, "dpbtrf", counted_dpbtrf)
        monkeypatch.setattr(scipy.linalg, "eigh", counted_eigh)
        with pytest.raises(ValueError, match=problem):
            red.subspace_basis(near_rank_deficient_system(s))
        assert calls == ["dpbtrf"]


def superlu_reference(cs):
    """(dim, project) from the general sparse LU that the band replaced:
    SuperLU's LDL^T of the same shifted Gram matrix in a symmetric MMD order,
    with the same rank gap and the same two sweeps."""
    matrix = scipy.sparse.csr_matrix(cs.matrix)
    rows, total = matrix.shape
    gram = (matrix @ matrix.T).tocsc()
    g = float(np.asarray(abs(gram).sum(axis=1)).max())
    lu = scipy.sparse.linalg.splu(
        gram + red._SHIFT * g * scipy.sparse.identity(rows, format="csc"),
        permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True))
    assert np.array_equal(lu.perm_r, lu.perm_c)
    rank = int(np.count_nonzero(lu.U.diagonal() >= np.sqrt(np.finfo(float).eps) * g))

    def project(fld):
        pairs = np.array(fld, dtype=np.complex128).reshape(-1, 1).view(np.float64)
        for _ in range(red._SWEEPS):
            pairs -= matrix.T @ lu.solve(matrix @ pairs)
        return pairs.view(np.complex128).reshape(np.shape(fld))

    return total - rank, project


def matching_union_instance(num_vertices, matchings, n, k, t, seed):
    """A regular graph that is no circulant: the union of seeded random
    perfect matchings, with random projections of preimage size <= t."""
    rng = np.random.default_rng(seed)
    ends = np.concatenate([rng.permutation(num_vertices).reshape(-1, 2)
                           for _ in range(matchings)])
    pool = np.repeat(np.arange(k), t)
    pis = [[rng.permutation(pool)[:n] for _ in range(2)] for _ in ends]
    return lc.LabelCoverInstance(num_vertices=num_vertices, n=n, k=k, t=t, gamma=1.0,
                                 ends=ends, pis=pis)


class TestBandMatchesSuperLu:
    """The banded Cholesky projector against the SuperLU one it replaced."""

    @pytest.mark.parametrize("inst", [make_instance(*params) for params in REFERENCE_INSTANCES]
                             + [lc.generate_planted(40, 8, 6, 3, 2, seed=4)[0],
                                lc.generate_random(30, 8, 6, 3, 2, seed=5),
                                matching_union_instance(40, 4, 6, 3, 2, seed=6),
                                matching_union_instance(60, 3, 8, 4, 2, seed=7)])
    def test_same_dim_and_projection(self, inst):
        cs = red.build_constraints(inst)
        dim, project = superlu_reference(cs)
        basis = red.subspace_basis(cs)
        assert basis.dim == dim
        rng = np.random.default_rng(11)
        shape = (inst.num_vertices, inst.n)
        fld = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        np.testing.assert_allclose(basis.project(fld), project(fld), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("vertices", [40, 300, 1000])
    def test_circulant_band_does_not_grow_with_v(self, vertices):
        inst, _ = lc.generate_planted(vertices, 4, 8, 4, 2, seed=1)
        basis = red.subspace_basis(red.build_constraints(inst))
        assert 0 < basis.bandwidth <= 64


class TestSubspaceBasisIsCanonical:
    @pytest.mark.parametrize("params", REFERENCE_INSTANCES[:2] + REFERENCE_INSTANCES[4:5])
    def test_basis_depends_only_on_subspace(self, params):
        # rescaled rows leave the null space unchanged but change A A^T and
        # its factorization; the projection must not move
        inst = make_instance(*params)
        cs = red.build_constraints(inst)
        scale = np.random.default_rng(8).uniform(0.5, 2.0, size=cs.matrix.shape[0])
        scaled = constraint_system(scipy.sparse.diags(scale) @ cs.matrix)
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
    return constraint_system(matrix)


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
            if backend.name == "clifford":
                assert backend.norm(a) <= clifford.embedding_norm_bound(a) + 1e-10

    @pytest.mark.parametrize("maker, n, kwargs", [
        (red.clifford_backend, 3, {}),
        (red.clifford_backend, 6, {}),
        (red.clifford_backend, 8, {"mode": "pairwise_independent"}),
        (red.clifford_backend, 5, {"mode": "pairwise_independent"}),
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
        ("clifford", 5, "pairwise_independent"), ("comm_real", 5, "exhaustive"),
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
        for kwargs in ({}, {"mode": "pairwise_independent"} if name == "clifford"
                       else {"mode": "monte_carlo", "seed": 3, "sample_count": 700})
    ] + [("clifford", n, {"mode": "pairwise_independent"}) for n in (2, 5, 8)])
    def test_derived_fields_match_the_builders_table(self, name, n, kwargs):
        backend = red.BACKEND_BUILDERS[name](n, **kwargs)
        derived = (backend.name, backend.n, backend.eta, backend.tau, backend.is_real)
        expected = (BACKEND_FIELDS[name][0], n, *BACKEND_FIELDS[name][1:])
        assert derived == expected
        assert [type(x) for x in derived] == [str, int, float, float, bool]

    @pytest.mark.parametrize("kwargs, match", [
        ({"mode": "monte_carlo"}, "^unknown phase family mode 'monte_carlo'$"),
        ({"seed": 3, "sample_count": 5}, "draw no samples, got sample_count=5$"),
    ], ids=["mode", "sample_count"])
    def test_clifford_sampled_family_refused(self, kwargs, match):
        # the builders share a signature, but the Clifford families are exact
        with pytest.raises(ValueError, match=match):
            red.clifford_backend(4, **kwargs)

    @pytest.mark.parametrize("maker", [red.comm_real_backend, red.comm_complex_backend])
    def test_scalar_monte_carlo_little_op_refused_before_members(self, maker, monkeypatch):
        def never(ens):
            raise AssertionError("exhaustive_members called")

        monkeypatch.setattr(commutative, "exhaustive_members", never)
        backend = maker(2, "monte_carlo", seed=0, sample_count=64)
        with pytest.raises(ValueError, match="exhaustive"):
            backend.little_op()

    @pytest.mark.parametrize("maker, largest, d", [
        (red.clifford_backend, 6, 256), (red.comm_real_backend, 9, 512),
        (red.comm_complex_backend, 4, 256)])
    def test_little_op_side_cap(self, maker, largest, d, monkeypatch):
        """The largest n builds; one more gives side 1024 (Clifford: twice the
        classes and the generator side, from 256) and is refused before any
        member, generator or image exists."""
        assert maker(largest).little_op().d == d <= DENSE_DIM_CAP
        refused = 1024

        def never(*args):
            raise AssertionError("members or generators built")

        monkeypatch.setattr(commutative, "exhaustive_members", never)
        monkeypatch.setattr(clifford, "make_generators", never)
        with pytest.raises(ValueError, match=f"d = {refused} at n={largest + 1} exceeds cap "
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


def member_images(n, dense_generators):
    """Reference Clifford images over all 4^n phase members w of the
    exhaustive family, f(e_i) = kron(diag(w_i over w), G_i): one block per
    member, in the digit order of exhaustive_members."""
    members = commutative.exhaustive_members(commutative.SignEnsemble("complex", n))
    gens = dense_generators(clifford.make_generators(n))
    return members, np.stack([np.kron(np.diag(members[:, i]), gens[i]) for i in range(n)])


class TestClassImages:
    """Clifford little_op images take one block per parity class of the
    family, C(a o w_c) with w_c = i^O_c, instead of one per member."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_norms_match_member_images(self, n, dense_generators):
        backend = red.clifford_backend(n)
        classes = backend.little_op()
        _, reference = member_images(n, dense_generators)
        # 2^(n-1) classes stand for the 4^n members
        assert reference.shape[1] == 4**n * classes.d // 2 ** (n - 1)
        rng = np.random.default_rng(40 + n)
        for a in [*np.eye(n), *(rng.normal(size=(6, n)) + 1j * rng.normal(size=(6, n)))]:
            by_class = linalg.schatten1_norm(classes.apply(a))
            by_member = linalg.schatten1_norm(np.tensordot(a, reference, axes=(0, 0)))
            assert abs(by_class - by_member) <= 1e-12
            assert abs(by_class - clifford.dictator_embedding_norm(a, backend.kernel)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_class_blocks_are_member_blocks(self, n, dense_generators):
        """Class c's block is exactly the block of the member w = i^O_c, the
        one whose base-4 digits are its parity row."""
        family = clifford.build_phase_family(n)
        members, reference = member_images(n, dense_generators)
        side = 2 ** ((n + 1) // 2)
        picked = (family.parity.astype(int) * 4 ** np.arange(n)).sum(axis=1)
        np.testing.assert_array_equal(members[picked], np.where(family.parity, 1j, 1))
        blocks = reference.reshape(n, 4**n, side, 4**n, side)[:, picked][:, :, :, picked]
        op = red.clifford_backend(n).little_op()
        np.testing.assert_array_equal(image_stack(op), blocks.reshape(n, len(picked) * side, -1))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_exhaustive_entries_are_exact_units(self, n):
        op = red.clifford_backend(n).little_op()
        images = image_stack(op)
        nonzero = images[images != 0]
        # every generator has one nonzero per row
        assert nonzero.size == n * images.shape[1]
        assert set(nonzero.tolist()) <= {1, -1, 1j, -1j}

    def test_lifted_optimum_matches_member_lift(self, dense_generators):
        _, reference = member_images(2, dense_generators)
        flat = reference.reshape(len(reference), -1)
        rows, cols = np.nonzero(flat)
        values = [solvers.ncg_opt_lower_bound(solvers.lift_little_to_big(op), restarts=4,
                                              seed=0).value
                  for op in (red.clifford_backend(2).little_op(),
                             solvers.LittleOperator(len(flat), reference.shape[1], rows, cols,
                                                    flat[rows, cols]))]
        assert values == pytest.approx([1.0, 1.0], abs=1e-9)


def kron_factor(backend, dense_generators):
    """Reference (n, d^2) images of a backend's little_op, from the dense image
    stack kron(diag(c_i over rows c), G_i) that little_op once built."""
    n = backend.n
    if backend.name == "clifford":
        family = backend.kernel
        diags = np.where(family.parity, 1j, 1)
        blocks = dense_generators(clifford.make_generators(n))
    else:
        diags, blocks = commutative.exhaustive_members(backend.kernel), [np.ones((1, 1))] * n
    images = np.stack([np.kron(np.diag(diags[:, i]), blocks[i]) for i in range(n)])
    return images.reshape(n, -1).astype(np.complex128)


class TestLittleOpFactor:
    """little_op writes F's entries from the generators' one nonzero per
    row: the nonzeros of the dense kron construction, in its row-major order
    and to the bit."""

    @pytest.mark.parametrize("name, n, kwargs", [
        *[(name, n, {}) for name in sorted(red.BACKEND_BUILDERS) for n in (1, 2, 3)],
        ("clifford", 5, {"mode": "pairwise_independent"}),
        ("clifford", 6, {"mode": "pairwise_independent"}),
    ])
    def test_f_matches_the_kron_construction(self, name, n, kwargs, dense_generators):
        backend = red.BACKEND_BUILDERS[name](n, **kwargs)
        op, reference = backend.little_op(), kron_factor(backend, dense_generators)
        rows, cols = np.nonzero(reference)
        np.testing.assert_array_equal(op.rows, rows)
        np.testing.assert_array_equal(op.cols, cols)
        assert op.values.dtype == reference.dtype == np.complex128
        assert op.values.tobytes() == reference[rows, cols].tobytes()


class TestBackendNorm:
    def test_planted_field_reaches_one(self):
        inst, planted = lc.generate_planted(8, 3, 5, 3, 2, seed=8)
        fld = red.assignment_to_field(inst, planted)
        for maker in (red.clifford_backend, red.comm_real_backend, red.comm_complex_backend):
            assert np.mean(maker(5).norm(fld)) == pytest.approx(1.0, abs=1e-8)

    def test_zero_field(self):
        backend = red.comm_real_backend(3)
        assert np.all(backend.norm(np.zeros((4, 3))) == 0.0)

    def test_uniform_rows_below_bound(self):
        n = 4
        backend = red.clifford_backend(n)
        fld = np.tile(np.full(n, n**-0.5), (5, 1))
        bound = np.sqrt((1 + 1 / np.sqrt(n)) / 2)
        assert np.all(backend.norm(fld) <= bound + 1e-10)

    @pytest.mark.parametrize("maker, n, kwargs", [
        (red.clifford_backend, 5, {}),
        (red.clifford_backend, 8, {"mode": "pairwise_independent"}),
        (red.clifford_backend, 6, {"mode": "pairwise_independent"}),
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
        cs = constraint_system(np.eye(8) + np.eye(8, k=1))
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


def constant_field_value(backend, n):
    """||f(1/sqrt(n))|| computed without the backend's kernel: the mean of dense
    SVDs over the Clifford parity classes, or of |<1/sqrt(n), z>| over every
    enumerated sign or phase vector z."""
    one = np.ones(n) / np.sqrt(n)
    if backend.name == "clifford":
        gens = clifford.make_generators(n)
        return np.mean([linalg.schatten1_norm(clifford.clifford_map(one * w, gens))
                        for w in np.where(backend.kernel.parity, 1j, 1)])
    base = 2 if backend.is_real else 4
    digits = np.arange(base**n)[:, None] // base ** np.arange(n) % base
    members = 1 - 2.0 * digits if backend.is_real else clifford.PHASE_VALUES[digits]
    return np.abs(members @ one).mean()


class TestDimOneSubspace:
    """On a random t = 1 instance H is the constant field alone, so every ascent
    must return ||f(1/sqrt(n))|| exactly: a value above it would be a lower bound
    above the quantity it bounds."""

    @pytest.mark.parametrize("maker, mode, num_vertices, n", [
        (red.clifford_backend, "exhaustive", 300, 8),
        (red.clifford_backend, "pairwise_independent", 300, 8),
        (red.comm_real_backend, "exhaustive", 300, 8),
        (red.comm_complex_backend, "exhaustive", 40, 4),  # 2 s at V=300, n=8
    ])
    def test_ascent_is_the_constant_field_value(self, maker, mode, num_vertices, n):
        inst = lc.generate_random(num_vertices, 4, n, n, 1, seed=1)
        cs = red.build_constraints(inst)
        basis = red.subspace_basis(cs)
        assert basis.dim == 1
        backend = maker(n, mode)
        result = red.operator_norm_lower_bound(inst, backend, restarts=2, iters=10, seed=0,
                                               cs=cs, basis=basis)
        assert abs(result.value - constant_field_value(backend, n)) <= 1e-12


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
