import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ncglab import clifford, config, linalg
from ncglab.clifford import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, PHASE_VALUES
from ncglab.reduction import clifford_backend

INV_SQRT2 = 2**-0.5


def random_complex_vec(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


@functools.lru_cache(maxsize=None)
def cached_family(n, mode):
    return clifford.build_phase_family(n, mode)


def base4_digits(n):
    """All of Z4^n, member k holding the base-4 digits of k, coordinate 0
    least significant."""
    k = np.arange(4**n)
    return (k[:, None] // 4 ** np.arange(n)) % 4


def member_exponents(n, mode):
    """The family's members as exponents k, w_j = i^k, one row per member,
    enumerated member by member. Pairwise: coordinate j has tag c_j, the
    r = ceil(log2 n) binary digits of j (none at n = 1), and member (u, b) in
    Z4^r x Z4 has exponents (c_j . u + b) mod 4."""
    if mode == "exhaustive":
        return base4_digits(n)
    assert mode == "pairwise_independent"
    r = math.ceil(math.log2(n))
    tags = np.array([[(j >> bit) & 1 for bit in range(r)] for j in range(n)])
    cu = base4_digits(r) @ tags.T  # (4^r, n)
    return ((cu[:, None, :] + np.arange(4)[None, :, None]) % 4).reshape(-1, n)


def members(n, mode):
    """The family's phase vectors, one row per member."""
    return PHASE_VALUES[member_exponents(n, mode)]


def grouped_classes(exps):
    """Reference parity classes of members given as exponents: the distinct
    rows of exps % 2 in lexicographic order, each with its member count."""
    patterns, counts = np.unique(exps % 2, axis=0, return_counts=True)
    return patterns.astype(np.float64), counts


def member_reference(a, fam, phases):
    """Value, complex-packed gradient and second moment 4 E_w L(a o w)^2 of
    E_w ||C(a o w)||_S1 evaluated member by member over the family's phase
    vectors, each of weight 1/fam.size, without parity classes."""
    assert phases.shape == (fam.size, fam.n)
    weight = 1.0 / fam.size
    b = a * phases
    x, y = b.real, b.imag
    p, q, r = (x * x).sum(axis=1), (y * y).sum(axis=1), (x * y).sum(axis=1)
    s = float(np.sum(np.abs(a) ** 2))
    lam = np.sqrt(np.maximum(p * q - r * r, 0.0))
    plus, minus = np.sqrt(s + 2 * lam), np.sqrt(np.maximum(s - 2 * lam, 0.0))
    dgds = 0.25 * (1 / plus + 1 / minus)
    # where L = 0, Re b and Im b are parallel, so q x = r y and p y = r x and
    # the L terms vanish whatever dgdu is
    dgdu = np.where(lam > 0, (1 / plus - 1 / minus) / (4 * np.maximum(lam, 1e-300)), 0.0)
    # gradient in b, then rotated back onto a by conj(w)
    grad_b = (2 * dgds[:, None] * b
              + 2 * dgdu[:, None] * (q[:, None] * x - r[:, None] * y
                                     + 1j * (p[:, None] * y - r[:, None] * x)))
    grad = weight * (np.conj(phases) * grad_b).sum(axis=0)
    moment = 4.0 * weight * float(np.sum(p * q - r * r))
    return float(weight * np.sum(0.5 * (plus + minus))), grad, moment



def kron_chain(factors) -> np.ndarray:
    """The dense Kronecker product of the factors, left to right."""
    out = np.eye(1, dtype=np.complex128)
    for f in factors:
        out = np.kron(out, f)
    return out


class TestGenerators:
    def test_n1_is_x_y(self, dense_generators):
        gens = clifford.make_generators(1)
        matrices = dense_generators(gens)
        assert gens.m == 1 and len(matrices) == 2
        np.testing.assert_array_equal(matrices[0], PAULI_X)
        np.testing.assert_array_equal(matrices[1], PAULI_Y)

    def test_n3_explicit_pauli_strings(self, dense_generators):
        matrices = dense_generators(clifford.make_generators(3))
        expected = [np.kron(PAULI_X, PAULI_I), np.kron(PAULI_Y, PAULI_I),
                    np.kron(PAULI_Z, PAULI_X), np.kron(PAULI_Z, PAULI_Y)]
        assert len(matrices) == 4
        for got, want in zip(matrices, expected):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n", range(1, 19))
    def test_phases_match_kron_chain_bit_for_bit(self, n):
        """Each (mask, phase) row is the kron chain's one nonzero in that row,
        to the bit (signed zeros included), and the chain is zero elsewhere."""
        gens = clifford.make_generators(n)
        m, rows = gens.m, np.arange(gens.dim)
        assert gens.masks.shape == (2 * m,) and gens.phases.shape == (2 * m, gens.dim)
        for j, (mask, phase) in enumerate(zip(gens.masks, gens.phases)):
            pair = j // 2
            dense = kron_chain([PAULI_Z] * pair + [(PAULI_X, PAULI_Y)[j % 2]]
                               + [PAULI_I] * (m - 1 - pair))
            assert dense[rows, rows ^ mask].tobytes() == phase.tobytes()
            dense[rows, rows ^ mask] = 0
            assert not np.any(dense)

    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_suite_exact(self, n, dense_generators):
        gens = clifford.make_generators(n)
        matrices = dense_generators(gens)
        eye = np.eye(gens.dim)
        for i, c in enumerate(matrices):
            assert np.array_equal(c, c.conj().T)
            assert np.array_equal(c @ c, eye)
            assert c.trace() == 0
            for other in matrices[i + 1:]:
                assert not np.any(c @ other + other @ c)

    def test_dimension_cap(self):
        # 2^50 rows exceed DENSE_DIM_CAP
        with pytest.raises(ValueError, match="cap"):
            clifford.make_generators(100)

    def test_entry_cap_refuses_n19_before_building(self):
        # n = 19 and 20 need side 2^10, above DENSE_DIM_CAP: their 20 phase rows
        # would take 320 KiB. n = 18 has side 2^9 and takes 18 rows of 512 phases,
        # 144 KiB, where its dense generators took 73 MiB
        peaks = []
        for n in (19, 18):
            tracemalloc.start()
            try:
                if n == 19:
                    with pytest.raises(ValueError, match="cap"):
                        clifford.make_generators(n)
                else:
                    gens = clifford.make_generators(n)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert gens.phases.shape == (18, 512)
        assert peaks[0] < 64 * 2**10
        assert peaks[1] < 2**20


class TestCliffordMap:
    def test_basis_vector_gives_generator(self):
        gens = clifford.make_generators(1)
        out = clifford.clifford_map([1.0], gens)
        np.testing.assert_array_equal(out, PAULI_X)
        assert linalg.schatten1_norm(out) == pytest.approx(1.0)

    def test_real_vector_squares_to_identity(self):
        gens = clifford.make_generators(2)
        a = np.array([3.0, 4.0]) / 5.0
        c = clifford.clifford_map(a, gens)
        np.testing.assert_allclose(c @ c, np.eye(2), atol=1e-12)

    def test_zero_vector(self):
        gens = clifford.make_generators(2)
        np.testing.assert_array_equal(clifford.clifford_map([0, 0], gens), np.zeros((2, 2)))

    def test_length_mismatch(self):
        gens = clifford.make_generators(2)
        with pytest.raises(ValueError):
            clifford.clifford_map([1.0], gens)

    def test_linearity(self):
        rng = np.random.default_rng(0)
        gens = clifford.make_generators(3)
        a, b = random_complex_vec(rng, 3), random_complex_vec(rng, 3)
        z = complex(rng.normal(), rng.normal())
        np.testing.assert_allclose(
            clifford.clifford_map(z * a + b, gens),
            z * clifford.clifford_map(a, gens) + clifford.clifford_map(b, gens),
            atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 19))
    def test_matches_dense_sum_bit_for_bit(self, n, dense_generators):
        # the dense sum of all n generators, which C(a) built from each
        # generator's one nonzero per row replaced; signed zeros count
        gens = clifford.make_generators(n)
        matrices = dense_generators(gens)
        rng = np.random.default_rng(n)
        for a in (random_complex_vec(rng, n), rng.normal(size=n) + 0j,
                  np.where(rng.random(n) < 0.5, -0.0, random_complex_vec(rng, n)),
                  -1e-300 * random_complex_vec(rng, n)):
            dense = np.zeros((gens.dim, gens.dim), dtype=np.complex128)
            for coeff, c in zip(a, matrices):
                dense += coeff * c
            assert clifford.clifford_map(a, gens).tobytes() == dense.tobytes()


class TestParallelogram:
    def test_real_vector_zero(self):
        assert clifford.parallelogram([1.0, -2.0, 0.5]) == 0.0

    def test_quarter_turn_pair(self):
        assert clifford.parallelogram(np.array([1, 1j]) / np.sqrt(2)) == pytest.approx(0.5)

    def test_aligned_parts_zero(self):
        assert clifford.parallelogram([1 + 1j, 0]) == pytest.approx(0.0, abs=1e-15)


class TestTraceNormFormula:
    def test_basis_vector(self):
        assert clifford.trace_norm_formula([1.0]) == pytest.approx(1.0)

    def test_hand_value(self):
        a = np.array([1, 1j]) / np.sqrt(2)
        assert abs(clifford.trace_norm_formula(a) - INV_SQRT2) <= 1e-10

    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_matches_svd(self, n):
        rng = np.random.default_rng(n)
        gens = clifford.make_generators(n)
        for _ in range(50):
            a = random_complex_vec(rng, n)
            direct = linalg.schatten1_norm(clifford.clifford_map(a, gens))
            assert abs(clifford.trace_norm_formula(a) - direct) <= 1e-8

    def test_real_isometry(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.normal(size=6)
            assert abs(clifford.trace_norm_formula(x) - np.linalg.norm(x)) <= 1e-10


class TestExtremeScales:
    """A row outside 2^+-200 enters the kernels scaled by an exact power of
    two, so p q, r^2 and s^1.5 neither underflow nor overflow: the value
    scales by 2^k and the gradient keeps every bit."""

    ROW = np.array([0.3 + 0.1j, -0.5, 0.2j])  # largest |a_j| 1/2: the scaled rows' form

    @pytest.mark.parametrize("mode", ["exhaustive", "pairwise_independent"])
    @pytest.mark.parametrize("k", [-360, 300])
    def test_family_kernel_scales_exactly(self, mode, k):
        fam = cached_family(3, mode)
        value, grad = clifford.embedding_norm_and_gradient(self.ROW, fam)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = clifford.embedding_norm_and_gradient(self.ROW * 2.0**k, fam)
            batch = clifford.embedding_norm_and_gradient(
                np.stack([self.ROW, self.ROW * 2.0**k]), fam)
            norm = clifford.dictator_embedding_norm(self.ROW * 2.0**k, fam)
        assert scaled[0] == norm == math.ldexp(value, k)
        assert scaled[1].tobytes() == grad.tobytes()
        # a batch takes other BLAS paths than one row: compare it with the unscaled pair
        twice = clifford.embedding_norm_and_gradient(np.stack([self.ROW, self.ROW]), fam)
        assert batch[0].tolist() == [twice[0][0], math.ldexp(twice[0][1], k)]
        assert batch[1].tobytes() == twice[1].tobytes()

    @pytest.mark.parametrize("k", [-360, 300])
    def test_closed_forms_scale_exactly(self, k):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            formula = clifford.trace_norm_formula(self.ROW * 2.0**k)
            area = clifford.parallelogram(self.ROW * 2.0**k)
            bound = clifford.embedding_norm_bound(self.ROW * 2.0**k)
        assert formula == math.ldexp(clifford.trace_norm_formula(self.ROW), k)
        assert area == math.ldexp(clifford.parallelogram(self.ROW), 2 * k)
        # at 2^-360 the fourth powers underflowed and the bound read below the norm
        assert bound == math.ldexp(clifford.embedding_norm_bound(self.ROW), k)
        # the kernels see the row itself: largest |a_j| back in [1/2, 1)
        row, shift = clifford._scaled(self.ROW * 2.0**k)
        assert shift == -k and row.tobytes() == self.ROW.tobytes()

    @pytest.mark.parametrize("scale", [1e-110, 1e-300, 5e-324, 1e200, 1e300])
    def test_real_row_gradient_is_finite(self, scale):
        # a real row takes the L -> 0 limit -1/(2 s^(3/2)), which at |a| ~ 1e-110
        # divided by an underflowed s^1.5
        fam = cached_family(3, "exhaustive")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, grad = clifford.embedding_norm_and_gradient(scale * np.array([1.0, 0, 0.5]), fam)
        assert np.all(np.isfinite(grad)) and value > 0.0

    @settings(max_examples=60, deadline=None)
    @given(parts=st.lists(st.floats(-1, 1).filter(lambda t: t == 0 or abs(t) > 2**-100),
                          min_size=8, max_size=8),
           k=st.integers(201, 700), sign=st.sampled_from([-1, 1]),
           mode=st.sampled_from(["exhaustive", "pairwise_independent"]))
    def test_scaling_identity_property(self, parts, k, sign, mode):
        row = np.array(parts[:4]) + 1j * np.array(parts[4:])
        top = np.abs(row).max()
        assume(top > 0)
        row = row * 2.0**-np.frexp(top)[1]  # largest |a_j| in [1/2, 1): the scaled rows' form
        fam = cached_family(4, mode)
        value, grad = clifford.embedding_norm_and_gradient(row, fam)
        scaled_value, scaled_grad = clifford.embedding_norm_and_gradient(row * 2.0**(sign * k), fam)
        assert scaled_value == math.ldexp(value, sign * k)
        assert scaled_grad.tobytes() == grad.tobytes()


class TestClosedFormRounding:
    """Both radicands are >= 0 in exact arithmetic (Cauchy-Schwarz, and
    s >= 2 ||Re a|| ||Im a|| >= 2L); a rounded negative value reads as 0."""

    @pytest.mark.parametrize("n", [6, 12, 18])
    def test_rotated_real_vectors(self, n):
        # e^{i theta} x is an isometric input: L = 0 and the value is ||x||_2
        rng = np.random.default_rng(n)
        rounded_below_zero = 0
        for _ in range(2000):
            x = rng.normal(size=n)
            a = np.exp(1j * rng.uniform(0, 2 * np.pi)) * x
            re, im = a.real, a.imag
            rounded_below_zero += (re @ re) * (im @ im) - (re @ im) ** 2 < 0
            norm = np.linalg.norm(x)
            assert abs(clifford.trace_norm_formula(a) - norm) <= 1e-12 * norm
        assert rounded_below_zero > 0

    def test_nearly_aligned_large_vectors(self):
        rng = np.random.default_rng(1)
        for _ in range(2000):
            x = rng.normal(size=6)
            a = 1e4 * (x + 1j * (x + 1e-9 * rng.normal(size=6)))
            norm = np.linalg.norm(a)
            assert abs(clifford.trace_norm_formula(a) - norm) <= 1e-12 * norm

    @pytest.mark.parametrize("scale", 10.0 ** np.arange(-8, 9))
    def test_homogeneous(self, scale):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = random_complex_vec(rng, 6)
            if rng.random() < 0.5:  # an aligned input, whose radicands round near 0
                a = a.real * np.exp(1j * rng.uniform(0, 2 * np.pi))
            c = scale * np.exp(1j * rng.uniform(0, 2 * np.pi))
            want = scale * clifford.trace_norm_formula(a)
            assert abs(clifford.trace_norm_formula(c * a) - want) <= 1e-12 * want


class TestPhaseFamily:
    def test_exhaustive_n1(self):
        fam = clifford.build_phase_family(1, "exhaustive")
        assert fam.size == 4
        np.testing.assert_array_equal(np.sort_complex(members(1, "exhaustive")[:, 0]),
                                      np.sort_complex(np.array([1, 1j, -1, -1j])))
        assert 1 / fam.size == 0.25
        # {1, -1} and {i, -i}, two members each, are one global-phase pair
        np.testing.assert_array_equal(fam.parity, [[0.0]])

    def test_exhaustive_n2_sixteen(self):
        assert clifford.build_phase_family(2, "exhaustive").size == 16

    def test_exhaustive_cap(self):
        with pytest.raises(ValueError):
            clifford.build_phase_family(20, "exhaustive")

    @pytest.mark.parametrize("mode", ["monte_carlo", "pairwise"])
    def test_unknown_mode_refused(self, mode):
        # the families are exact; no mode draws its members
        with pytest.raises(ValueError, match=f"^unknown phase family mode '{mode}'$"):
            clifford.build_phase_family(4, mode)

    # n = 17, 18 are past the exhaustive family's cap; there the pairwise
    # family is the exact one
    @pytest.mark.parametrize("n", [2, 4, 5, 17, 18])
    def test_pairwise_exactly_uniform_pairs(self, n):
        fam = clifford.build_phase_family(n, "pairwise_independent")
        phases = members(n, "pairwise_independent")
        assert phases.shape[0] == fam.size
        exps = np.rint(np.angle(phases) / (np.pi / 2)).astype(int) % 4
        for j in range(n):
            for k in range(j + 1, n):
                counts = np.zeros((4, 4), dtype=int)
                np.add.at(counts, (exps[:, j], exps[:, k]), 1)
                assert np.all(counts == fam.size // 16)

    @pytest.mark.parametrize("n, mode", [
        *[(n, "exhaustive") for n in range(1, 9)],
        (5, "pairwise_independent"),
        (12, "pairwise_independent"),
        (16, "pairwise_independent"),
        (17, "pairwise_independent"),
        (33, "pairwise_independent"),
        (64, "pairwise_independent"),
    ])
    def test_classes_match_grouped_members(self, n, mode):
        # grouping the members gives the family's classes and their
        # complements; the classes are the grouped patterns with coordinate 0
        # real, in the same order, bit for bit, and every pattern holds the
        # same share of the members, so the classes weigh 1/P each
        exps = member_exponents(n, mode)
        fam = clifford.build_phase_family(n, mode)
        parity, counts = grouped_classes(exps)
        assert fam.size == exps.shape[0]
        np.testing.assert_array_equal(fam.parity, parity[parity[:, 0] == 0])
        assert len(parity) == 2 * len(fam.parity)
        assert np.all(counts == fam.size // len(parity))

    def test_exhaustive_build_holds_only_its_classes(self):
        # the 4^10 members as complex phases took a 289 MiB traced peak
        tracemalloc.start()
        try:
            fam = clifford.build_phase_family(10, "exhaustive")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fam.parity.shape == (2**9, 10)
        assert peak <= 4 * 2**20

    def test_pairwise_n512_memory(self):
        # the family stands for 4^10 members, whose int64 exponents would take
        # 4 GiB; its 2^9 parity rows of 512 entries take 2 MiB per table
        tracemalloc.start()
        try:
            fam = clifford.build_phase_family(512, "pairwise_independent")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fam.size == 4**10 and fam.parity.shape == (2**9, 512)
        assert peak <= 32 * 2**20

    @pytest.mark.parametrize("n, mode", [(17, "exhaustive"), (1025, "pairwise_independent")])
    def test_exact_cap_refuses_before_any_row(self, n, mode):
        # 2^k rows x n entries: 2^16 x 17 and 2^11 x 1025 exceed ENUMERATION_CAP;
        # either table would take megabytes
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cap"):
                clifford.build_phase_family(n, mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**10

    @pytest.mark.parametrize("refuse", [
        lambda: clifford.build_phase_family(10**8, "exhaustive"),
        lambda: clifford.make_generators(10**8),
    ], ids=["family", "generators"])
    def test_huge_n_refused_on_its_exponent(self, refuse):
        # 2^(10^8) alone is a 12 MiB integer; the caps compare the exponent first
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cap"):
                refuse()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_exhaustive_n16_builds(self):
        fam = clifford.build_phase_family(16, "exhaustive")
        assert fam.size == 4**16 and fam.parity.shape == (2**15, 16)
        assert not fam.parity[:, 0].any()

    def test_pairwise_n1024_builds(self):
        # the largest pairwise family: 2^10 rows x 1024 entries is ENUMERATION_CAP
        fam = clifford.build_phase_family(1024, "pairwise_independent")
        assert fam.size == 4**11 and fam.parity.shape == (2**10, 1024)


class TestGlobalPhaseQuotient:
    """A family holds one parity class of each pair (O, 1 - O): the global
    phase i maps the members of one onto the other and keeps every trace norm."""

    @pytest.mark.parametrize("n, mode", [(1, "exhaustive"), (2, "exhaustive"),
                                         (3, "exhaustive"), (3, "pairwise_independent"),
                                         (5, "pairwise_independent")])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_global_phase_keeps_the_trace_norm(self, n, mode, data):
        parts = data.draw(st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
                                   min_size=n, max_size=n))
        a = np.array([complex(x, y) for x, y in parts])
        for w in members(n, mode):
            assert abs(clifford.trace_norm_formula(a * (1j * w))
                       - clifford.trace_norm_formula(a * w)) <= 1e-12

    @pytest.mark.parametrize("n, mode", [
        *[(n, "exhaustive") for n in range(1, 6)],
        *[(n, "pairwise_independent") for n in (2, 3, 5, 8, 17)],
    ])
    def test_classes_match_member_average(self, n, mode):
        """Value, gradient and second moment over the classes equal the plain
        average over every member of the family, on unit rows."""
        fam = cached_family(n, mode)
        phases = members(n, mode)
        rng = np.random.default_rng(60 + n)
        rows = rng.normal(size=(8, n)) + 1j * rng.normal(size=(8, n))
        rows[0], rows[1] = np.eye(n)[0], 1j * np.eye(n)[n - 1]
        rows[2] = rng.normal(size=n)  # real
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        values, grads = clifford.embedding_norm_and_gradient(rows, fam)
        for row, value, grad in zip(rows, values, grads):
            ref_value, ref_grad, ref_moment = member_reference(row, fam, phases)
            assert abs(value - ref_value) <= 1e-12
            assert np.max(np.abs(grad - ref_grad)) <= 1e-12
            assert abs(clifford.randphase_second_moment(row, fam) - ref_moment) <= 1e-12

    @pytest.mark.parametrize("n, mode", [
        *[(n, "exhaustive") for n in (1, 2, 3, 6, 10)],
        *[(n, "pairwise_independent") for n in (1, 2, 3, 5, 8, 17, 100)],
    ])
    def test_one_row_per_global_phase_pair(self, n, mode):
        fam = cached_family(n, mode)
        assert len(fam.parity) == 2 ** (n - 1 if mode == "exhaustive" else math.ceil(math.log2(n)))
        rows = {tuple(row) for row in fam.parity.astype(int).tolist()}
        assert len(rows) == len(fam.parity)
        assert not fam.parity[:, 0].any()
        assert not any(tuple(1 - np.array(row)) in rows for row in rows)
        assert set(np.unique(fam.parity)) <= {0.0, 1.0}


class TestDictatorEmbeddingNorm:
    def test_basis_vectors_exactly_one(self):
        for mode in ("exhaustive", "pairwise_independent"):
            fam = clifford.build_phase_family(3, mode)
            for i in range(3):
                e = np.zeros(3)
                e[i] = 1.0
                assert clifford.dictator_embedding_norm(e, fam) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_two_vector(self):
        fam = clifford.build_phase_family(2, "exhaustive")
        a = np.array([1.0, 1.0]) / np.sqrt(2)
        value = clifford.dictator_embedding_norm(a, fam)
        # enumerating the 16 phase patterns by hand: half give 1, half 1/sqrt(2)
        assert value == pytest.approx((1 + INV_SQRT2) / 2, abs=1e-12)
        assert value <= clifford.embedding_norm_bound(a) + 1e-12
        assert clifford.embedding_norm_bound(a) == pytest.approx(np.sqrt((1 + INV_SQRT2) / 2))

    def test_matches_materialized_block_matrix(self):
        rng = np.random.default_rng(12)
        fam = clifford.build_phase_family(2, "exhaustive")
        a = random_complex_vec(rng, 2)
        gens = clifford.make_generators(2)
        block = scipy.linalg.block_diag(
            *[clifford.clifford_map(a * w, gens) for w in members(2, "exhaustive")])
        direct = linalg.schatten1_norm(block)
        # little_op holds one block per parity class, not per member
        by_class = linalg.schatten1_norm(clifford_backend(2).little_op().apply(a))
        assert abs(by_class - direct) <= 1e-12
        assert abs(clifford.dictator_embedding_norm(a, fam) - direct) <= 1e-10


class TestSecondMoment:
    def test_single_coordinate_zero(self):
        fam = clifford.build_phase_family(1, "exhaustive")
        assert clifford.randphase_second_moment([0.3 + 0.4j], fam) == pytest.approx(0.0, abs=1e-15)

    def test_uniform_two_vector(self):
        fam = clifford.build_phase_family(2, "exhaustive")
        a = np.array([1.0, 1.0]) / np.sqrt(2)
        assert clifford.randphase_second_moment(a, fam) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("mode", ["exhaustive", "pairwise_independent"])
    def test_identity_random_vectors(self, mode):
        rng = np.random.default_rng(13)
        fam = clifford.build_phase_family(5, mode)
        for _ in range(20):
            a = random_complex_vec(rng, 5)
            a = a / np.linalg.norm(a)
            lhs = clifford.randphase_second_moment(a, fam)
            rhs = float(np.sum(np.abs(a)**2)**2 - np.sum(np.abs(a)**4))
            assert abs(lhs - rhs) <= 1e-10

    @pytest.mark.parametrize("mode", ["exhaustive", "pairwise_independent"])
    @settings(max_examples=60, deadline=None)
    @given(parts=st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
                          min_size=1, max_size=6))
    def test_identity_property(self, mode, parts):
        a = np.array([complex(x, y) for x, y in parts])
        norm = np.linalg.norm(a)
        assume(norm > 1e-3)
        a = a / norm
        lhs = clifford.randphase_second_moment(a, cached_family(a.size, mode))
        rhs = float(np.sum(np.abs(a)**2)**2 - np.sum(np.abs(a)**4))
        assert abs(lhs - rhs) <= 1e-10


class TestNormGradient:
    def test_value_matches_norm(self):
        rng = np.random.default_rng(14)
        fam = clifford.build_phase_family(3, "exhaustive")
        a = random_complex_vec(rng, 3)
        value, _ = clifford.embedding_norm_and_gradient(a, fam)
        assert value == pytest.approx(clifford.dictator_embedding_norm(a, fam))

    def test_finite_differences(self):
        rng = np.random.default_rng(15)
        fam = clifford.build_phase_family(3, "exhaustive")
        a = random_complex_vec(rng, 3)
        _, grad = clifford.embedding_norm_and_gradient(a, fam)
        h = 1e-7
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            dx = (clifford.dictator_embedding_norm(a + e, fam)
                  - clifford.dictator_embedding_norm(a - e, fam)) / (2 * h)
            dy = (clifford.dictator_embedding_norm(a + 1j * e, fam)
                  - clifford.dictator_embedding_norm(a - 1j * e, fam)) / (2 * h)
            assert dx == pytest.approx(grad[j].real, abs=1e-5)
            assert dy == pytest.approx(grad[j].imag, abs=1e-5)


    @pytest.mark.parametrize("n, mode", [
        (3, "exhaustive"),
        (6, "exhaustive"),
        (8, "pairwise_independent"),
        (5, "pairwise_independent"),
    ])
    def test_batched_matches_rows_and_members(self, n, mode):
        rng = np.random.default_rng(17)
        fam = clifford.build_phase_family(n, mode)
        phases = members(n, mode)
        fld = rng.normal(size=(6, n)) + 1j * rng.normal(size=(6, n))
        fld /= np.linalg.norm(fld, axis=1, keepdims=True)
        fld[3] = 0.0
        fld[4] = np.eye(n)[1]
        values, grads = clifford.embedding_norm_and_gradient(fld, fam)
        assert values.shape == (6,) and grads.shape == (6, n)
        for v, row in enumerate(fld):
            value, grad = clifford.embedding_norm_and_gradient(row, fam)
            assert isinstance(value, float) and grad.shape == (n,)
            assert abs(values[v] - value) <= 1e-12
            assert np.max(np.abs(grads[v] - grad)) <= 1e-12
            if v not in (3, 4):
                ref_value, ref_grad, _ = member_reference(row, fam, phases)
                assert abs(value - ref_value) <= 1e-12
                assert np.max(np.abs(grad - ref_grad)) <= 1e-12
        assert values[3] == 0.0 and not np.any(grads[3])
        assert values[4] == pytest.approx(1.0, abs=1e-12)


def norm_rows_reference(rows, family):
    """The value-only row kernel that the norm used before it shared the
    gradient's: (V,) values, the plain mean over the P equally weighted
    classes."""
    p, q, r = clifford._pqr(rows, family)
    lam = np.sqrt(np.maximum(p * q - r * r, 0.0))
    s = np.sum(np.abs(rows) ** 2, axis=1)[:, None]
    vals = 0.5 * (np.sqrt(s + 2 * lam) + np.sqrt(np.maximum(s - 2 * lam, 0.0)))
    return vals.sum(axis=1) / len(family.parity)


class TestOneKernel:
    """The norm and the ascent read one row kernel, so a certificate and an
    ascent iterate give the same number for the same vector, and the norm
    keeps the bits of the value-only formula it replaced."""

    @pytest.mark.parametrize("n, mode", [
        (3, "exhaustive"),
        (6, "exhaustive"),
        (8, "pairwise_independent"),
        (5, "pairwise_independent"),
    ])
    def test_norm_keeps_the_value_formula_bits(self, n, mode):
        rng = np.random.default_rng(20)
        fam = clifford.build_phase_family(n, mode)
        fld = rng.normal(size=(40, n)) + 1j * rng.normal(size=(40, n))
        fld[3] = 0.0
        fld[4], fld[5] = np.eye(n)[0], 1j * np.eye(n)[n - 1]
        fld[6] = rng.normal(size=n)  # real
        value = norm_rows_reference(fld, fam)
        assert clifford.dictator_embedding_norm(fld, fam).tobytes() == value.tobytes()
        assert clifford.embedding_norm_and_gradient(fld, fam)[0].tobytes() == value.tobytes()
        for row in fld[:8]:
            one = clifford.dictator_embedding_norm(row, fam)
            assert isinstance(one, float) and one == norm_rows_reference(row[None], fam)[0]
            assert clifford.embedding_norm_and_gradient(row, fam)[0] == one


class TestRowChunks:
    """The batch kernels work through blocks of rows; forcing several small
    blocks must give what one block gives."""

    @pytest.mark.parametrize("n, mode", [
        (6, "exhaustive"),
        (8, "pairwise_independent"),
        (5, "pairwise_independent"),
    ])
    def test_chunked_matches_one_block(self, monkeypatch, n, mode):
        rng = np.random.default_rng(18)
        fam = clifford.build_phase_family(n, mode)
        fld = rng.normal(size=(7, n)) + 1j * rng.normal(size=(7, n))
        fld[2] = 0.0
        fld[5] = np.eye(n)[0]
        whole = clifford.dictator_embedding_norm(fld, fam)
        whole_value, whole_grad = clifford.embedding_norm_and_gradient(fld, fam)

        blocks = []
        for name in ("_norm_and_gradient_rows",):
            kernel = getattr(clifford, name)
            monkeypatch.setattr(clifford, name, lambda rows, family, kernel=kernel: (
                blocks.append(rows.shape[0]) or kernel(rows, family)))
        # two rows per block: seven rows take four blocks
        width = fam.parity.shape[0] + n
        monkeypatch.setattr(config, "CHUNK_ENTRIES", 2 * clifford._GRADIENT_LIVE * width)
        chunked = clifford.dictator_embedding_norm(fld, fam)
        monkeypatch.setattr(config, "CHUNK_ENTRIES", 2 * clifford._GRADIENT_LIVE * width)
        value, grad = clifford.embedding_norm_and_gradient(fld, fam)
        assert blocks == [2, 2, 2, 1] * 2

        assert np.max(np.abs(chunked - whole)) <= 1e-12
        assert np.max(np.abs(value - whole_value)) <= 1e-12
        assert np.max(np.abs(grad - whole_grad)) <= 1e-12

    def test_peak_memory_is_bounded(self, monkeypatch):
        # the exhaustive n=13 family has P = 4096 parity classes. One block of
        # 300 rows would hold about 12 (300, P) temporaries at once, 112 MiB;
        # the blocks keep all of them within CHUNK_ENTRIES (32 MiB)
        fam = clifford.build_phase_family(13, "exhaustive")
        assert fam.parity.shape[0] == 4096
        rng = np.random.default_rng(19)
        fld = rng.normal(size=(300, 13)) + 1j * rng.normal(size=(300, 13))
        peaks, results = [], []
        for fn in (clifford.dictator_embedding_norm, clifford.embedding_norm_and_gradient):
            tracemalloc.start()
            try:
                results.append(fn(fld, fam))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 40 * 2**20
        monkeypatch.setattr(config, "CHUNK_ENTRIES", 2**40)  # one block
        whole = clifford.dictator_embedding_norm(fld, fam)
        whole_value, whole_grad = clifford.embedding_norm_and_gradient(fld, fam)
        assert np.max(np.abs(results[0] - whole)) <= 1e-12
        assert np.max(np.abs(results[1][0] - whole_value)) <= 1e-12
        assert np.max(np.abs(results[1][1] - whole_grad)) <= 1e-12

    # the benchmark's shapes: exhaustive n=6 at 40 vertices, pairwise n=8 at 300
    @pytest.mark.parametrize("n, mode, rows", [(6, "exhaustive", 40),
                                               (8, "pairwise_independent", 300)])
    def test_bench_shapes_are_one_block(self, monkeypatch, n, mode, rows):
        fam = cached_family(n, mode)
        blocks = []
        kernel = clifford._norm_and_gradient_rows
        monkeypatch.setattr(clifford, "_norm_and_gradient_rows", lambda r, family: (
            blocks.append(r.shape[0]) or kernel(r, family)))
        clifford.embedding_norm_and_gradient(np.ones((rows, n)), fam)
        assert blocks == [rows]

    def test_empty_batch(self):
        fam = cached_family(3, "exhaustive")
        norms = clifford.dictator_embedding_norm(np.zeros((0, 3)), fam)
        value, grad = clifford.embedding_norm_and_gradient(np.zeros((0, 3)), fam)
        assert norms.shape == value.shape == (0,)
        assert grad.shape == (0, 3)


class TestEmbeddingSpec:
    def test_constants(self):
        assert clifford.TAU < clifford.ETA == 1.0
        assert clifford.TAU == pytest.approx(INV_SQRT2)
        assert clifford.spread_threshold(0.2) < clifford.spread_threshold(0.3)
        assert clifford.spread_threshold(1.0) == pytest.approx(np.sqrt(2.0))
