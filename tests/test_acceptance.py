"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import time

import numpy as np
import pytest

from ncglab import clifford, commutative, linalg, solvers
from ncglab import labelcover as lc
from ncglab import reduction as red

INV_SQRT2 = 2**-0.5


def ok(num: int, message: str) -> None:
    print(f"ACCEPTANCE {num}: PASS - {message}")


def random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_criterion_1_generator_suite_exact():
    start = time.monotonic()
    for n in range(1, 13):
        gens = clifford.make_generators(n)
        assert len(gens.matrices) == 2 * ((n + 1) // 2)
        eye = np.eye(gens.dim)
        for idx, c in enumerate(gens.matrices):
            allowed = np.array([0, 1, -1, 1j, -1j], dtype=np.complex128)
            assert np.all(np.isin(c.reshape(-1), allowed))
            assert np.array_equal(c, c.conj().T)
            assert np.array_equal(c @ c, eye)
            assert c.trace() == 0
            for other in gens.matrices[idx + 1:]:
                anti = c @ other + other @ c
                assert not np.any(anti)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    ok(1, f"generators n=1..12 Hermitian/unitary/traceless/anticommuting, exact "
          f"({elapsed:.2f}s)")


def test_criterion_2_trace_norm_formula_vs_svd():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for n in range(2, 11):
        gens = clifford.make_generators(n)
        batch = random_complex(rng, 1000, n)
        stack = np.tensordot(batch, np.stack(gens.matrices[:n]), axes=(1, 0))
        sums = np.linalg.svd(stack, compute_uv=False).sum(axis=1) / gens.dim
        for a, direct in zip(batch, sums):
            worst = max(worst, abs(clifford.trace_norm_formula(a) - direct))
    assert worst <= 1e-8
    hand = clifford.trace_norm_formula(np.array([1.0, 1.0j]) / np.sqrt(2))
    assert abs(hand - INV_SQRT2) <= 1e-10
    ok(2, f"formula vs SVD on 1000 vectors per n=2..10, worst gap {worst:.2e}; "
          f"hand value 1/sqrt(2) exact to 1e-10")


def test_criterion_3_embedding_contract():
    rng = np.random.default_rng(3)
    for n in range(1, 6):
        family = clifford.build_phase_family(n, "exhaustive")
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            assert abs(clifford.dictator_embedding_norm(e, family) - 1.0) <= 1e-10
    worst = -np.inf
    for n in (2, 3, 4, 5):
        family = clifford.build_phase_family(n, "exhaustive")
        for _ in range(250):
            a = random_complex(rng, n)
            excess = (clifford.dictator_embedding_norm(a, family)
                      - clifford.embedding_norm_bound(a))
            worst = max(worst, excess)
            assert excess <= 1e-8
    # the uniform unit vector at n=16, over all 4^16 members
    n = 16
    value = clifford.dictator_embedding_norm(np.full(n, 0.25), clifford.build_phase_family(n))
    bound = np.sqrt((1 + 0.25) / 2)
    assert value - bound <= 1e-8
    ok(3, f"basis norms 1 +- 1e-10 (n<=5); bound slack on 1000 vectors <= {worst:.2e}; "
          f"n=16 exhaustive {value:.5f} <= {bound:.5f}")


def test_criterion_4_second_moment_identity():
    rng = np.random.default_rng(4)
    worst = 0.0
    for n in range(1, 6):
        family = clifford.build_phase_family(n, "exhaustive")
        for _ in range(10):
            a = random_complex(rng, n)
            a /= np.linalg.norm(a)
            lhs = clifford.randphase_second_moment(a, family)
            rhs = float(np.sum(np.abs(a)**2)**2 - np.sum(np.abs(a)**4))
            worst = max(worst, abs(lhs - rhs))
    for n in range(1, 13):
        family = clifford.build_phase_family(n, "pairwise_independent")
        for _ in range(10):
            a = random_complex(rng, n)
            a /= np.linalg.norm(a)
            lhs = clifford.randphase_second_moment(a, family)
            rhs = float(np.sum(np.abs(a)**2)**2 - np.sum(np.abs(a)**4))
            worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-10
    ok(4, f"second-moment identity exact under exhaustive (n<=5) and pairwise "
          f"(n<=12) families, worst gap {worst:.2e}")


def test_criterion_5_commutative_values():
    start = time.monotonic()
    real2 = commutative.embedding_l1_norm(
        np.array([1.0, 1.0]) / np.sqrt(2), commutative.SignEnsemble(field="real", n=2))
    assert abs(real2.value - INV_SQRT2) <= 1e-12
    cplx2 = commutative.embedding_l1_norm(
        np.array([1.0, 1.0]) / np.sqrt(2), commutative.SignEnsemble(field="complex", n=2))
    assert abs(cplx2.value - (1 + np.sqrt(2)) / (2 * np.sqrt(2))) <= 1e-12

    n = 1000
    a = np.full(n, n**-0.5)
    real_mc = commutative.embedding_l1_norm(
        a, commutative.SignEnsemble(field="real", n=n, mode="monte_carlo",
                                    seed=500, sample_count=10**6))
    assert abs(real_mc.value - commutative.REAL_LIMIT) <= 0.02
    cplx_mc = commutative.embedding_l1_norm(
        a, commutative.SignEnsemble(field="complex", n=n, mode="monte_carlo",
                                    seed=501, sample_count=10**6))
    assert abs(cplx_mc.value - commutative.COMPLEX_LIMIT) <= 0.02
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    ok(5, f"exact n=2 values 0.70711/0.85355 to 1e-12; n=1000 MC gaps "
          f"{abs(real_mc.value - commutative.REAL_LIMIT):.4f} (real), "
          f"{abs(cplx_mc.value - commutative.COMPLEX_LIMIT):.4f} (complex) "
          f"within 0.02 ({elapsed:.1f}s)")


def test_criterion_6_rho_transform():
    rng = np.random.default_rng(6)
    worst_norm, worst_multiset = 0.0, 0.0
    for _ in range(200):
        d = int(rng.integers(1, 9))
        a = random_complex(rng, d, d)
        r = linalg.rho(a)
        worst_norm = max(worst_norm, abs(linalg.schatten1_norm(r)
                                         - linalg.schatten1_norm(a)))
        s_rho = np.sort(np.linalg.svd(r, compute_uv=False))
        s_quad = np.sort(np.repeat(np.linalg.svd(a, compute_uv=False), 4))
        worst_multiset = max(worst_multiset, float(np.abs(s_rho - s_quad).max()))
    assert worst_norm <= 1e-9
    assert worst_multiset <= 1e-8
    ok(6, f"rho preserves the trace norm (<= {worst_norm:.2e}) with quadrupled "
          f"singular values (<= {worst_multiset:.2e}) on 200 matrices up to 8x8")


def _planted_suite():
    shapes = [(8, 3, 6, 3, 2), (10, 4, 5, 3, 2), (12, 3, 4, 2, 2), (16, 3, 6, 2, 3)]
    cases = []
    for seed in range(5):
        for shape in shapes:
            cases.append((shape, seed))
    return cases  # 20 instances, |V| <= 16, n <= 6


def test_criterion_7_reduction_completeness():
    backends = {}
    checked = 0
    for (v, deg, n, k, t), seed in _planted_suite():
        inst, planted = lc.generate_planted(v, deg, n, k, t, seed=seed)
        cs = red.build_constraints(inst)
        for maker in (red.clifford_backend, red.comm_real_backend,
                      red.comm_complex_backend):
            key = (maker, n)
            if key not in backends:
                backends[key] = maker(n)
            cert = red.completeness_certificate(inst, planted, backends[key], cs=cs)
            assert cert.in_subspace, f"membership failed for {(v, deg, n, k, t, seed)}"
            assert cert.value >= 1.0 - 1e-6
            assert cert.passed
        checked += 1
    assert checked == 20
    ok(7, "completeness certificate passes on 20 planted instances under the "
          "matrix backend and both scalar backends (value >= 1 - 1e-6)")


def test_criterion_8_decoder():
    # exact planted fields at the default slack
    for seed in range(5):
        inst, planted = lc.generate_planted(12, 3, 6, 3, 2, seed=seed)
        fld = red.assignment_to_field(inst, planted)
        params = red.DecoderParams(eps=0.3, delta=np.sqrt(2) * 0.3, t=inst.t, seed=seed)
        labels, stats = red.decode(fld, params, inst)
        assert stats.satisfied_fraction == 1.0
        np.testing.assert_array_equal(labels, planted)

    # perturbed fields: noise sigma = 0.05 projected into the subspace; the
    # candidate threshold beta/4 must clear the noise floor, so the decoder
    # runs at (eps, delta) = (0.9, 0.9) where beta/4 ~ 0.148
    inst, planted = lc.generate_planted(40, 4, 6, 3, 2, seed=77)
    basis = red.subspace_basis(red.build_constraints(inst))
    clean = red.assignment_to_field(inst, planted)
    sigma = 0.05
    fractions = []
    for seed in range(10):
        rng = np.random.default_rng(9000 + seed)
        noise = (rng.normal(size=clean.shape) + 1j * rng.normal(size=clean.shape))
        noisy = basis.project(clean + sigma / np.sqrt(2) * noise)
        params = red.DecoderParams(eps=0.9, delta=0.9, t=inst.t, seed=seed)
        _, stats = red.decode(noisy, params, inst)
        fractions.append(stats.satisfied_fraction)
        assert stats.satisfied_fraction >= 0.9
    ok(8, f"planted fields decode to satisfied fraction 1.0 at eps=0.3; noisy "
          f"fields (sigma={sigma}) reach fractions {min(fractions):.3f}..1.0 "
          f">= 0.9 across 10 seeds")


def _acceptance_little_ops():
    return [
        ("comm_real n=1", red.BACKEND_BUILDERS["comm_real"](1).little_op()),
        ("comm_real n=2", red.BACKEND_BUILDERS["comm_real"](2).little_op()),
        ("comm_complex n=1", red.BACKEND_BUILDERS["comm_complex"](1).little_op()),
    ]


def test_criterion_9_little_to_big():
    rng = np.random.default_rng(9)
    for name, op in _acceptance_little_ops():
        assert op.n <= 3 and op.d <= 4
        for _ in range(50):
            a = random_complex(rng, op.n)
            a_mat = random_complex(rng, op.d, op.d)
            u = solvers.adjoint_apply(op, a_mat)
            lhs = np.sum(u * np.conj(a))
            rhs = np.trace(op.apply(a).conj().T @ a_mat) / op.d
            assert abs(lhs - rhs) <= 1e-10
        tensor = solvers.lift_little_to_big(op)
        ncg = solvers.ncg_opt_lower_bound(tensor, restarts=16, iters=150, seed=9)
        little, _ = solvers.little_norm_lower_bound(op, restarts=16, iters=150, seed=10)
        assert ncg.value >= little**2 - 1e-4, name
        assert ncg.value <= 1.0 + 1e-6, name  # l2 domination squared

    tensor_eye = solvers.tensor_from_matrix(np.eye(2))
    result = solvers.ncg_opt_lower_bound(tensor_eye, restarts=8, iters=100, seed=11)
    angles = np.linspace(0.0, 2 * np.pi, 2000, endpoint=False)
    grid = float(np.abs(np.exp(1j * angles)[:, None]
                        + np.exp(1j * angles)[None, :]).max())
    assert abs(result.value - grid) <= 1e-3
    ok(9, "adjoint duality residual <= 1e-10 on 50 pairs per operator; lifted "
          "solver value >= (operator-norm bound)^2 - 1e-4 and <= 1 + 1e-6; "
          "identity-matrix special case matches the phase grid within 1e-3")


def test_criterion_10_solver_sanity():
    rng = np.random.default_rng(10)
    runs = []
    for name, op in _acceptance_little_ops():
        runs.append(solvers.ncg_opt_lower_bound(solvers.lift_little_to_big(op),
                                                restarts=8, iters=100, seed=12))
    d = 4
    idx = np.unique(rng.integers(0, d, size=(24, 4)), axis=0)
    random_tensor = solvers.NcgTensor(d=d, indices=idx,
                                      coeffs=random_complex(rng, len(idx)))
    runs.append(solvers.ncg_opt_lower_bound(random_tensor, restarts=8, iters=100, seed=13))
    half_steps = 0
    for result in runs:
        for history in result.histories:
            assert all(history[i + 1] >= history[i] - 1e-9
                       for i in range(len(history) - 1))
            half_steps += len(history)
        assert result.unitarity_residual_a <= 1e-9
        assert result.unitarity_residual_b <= 1e-9
    ok(10, f"alternating objective non-decreasing over {half_steps} logged "
           f"half-steps; all returned certificates unitary to 1e-9")
