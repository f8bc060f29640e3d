import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ncglab import config, fileio
from ncglab import labelcover as lc


def tiny_instance():
    """Single edge, n=k=2, identity projections."""
    ident = [0, 1]
    return lc.LabelCoverInstance(num_vertices=2, n=2, k=2, t=1, gamma=0.0,
                                 zeta=0.1, ends=[[0, 1]], pis=[[ident, ident]])


class TestInstanceModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            lc.LabelCoverInstance(num_vertices=0, n=1, k=1, t=1, gamma=0, zeta=0,
                                  ends=np.empty((0, 2)), pis=np.empty((0, 2, 1)))
        with pytest.raises(ValueError):  # out-of-range projection value
            lc.LabelCoverInstance(num_vertices=2, n=2, k=2, t=1, gamma=0, zeta=0,
                                  ends=[[0, 1]], pis=[[[0, 5], [0, 1]]])
        with pytest.raises(ValueError):  # self loop
            lc.LabelCoverInstance(num_vertices=2, n=1, k=1, t=1, gamma=0, zeta=0,
                                  ends=[[0, 0]], pis=[[[0], [0]]])

    @pytest.mark.parametrize("ends, pis, match", [
        ([[0.9, 1.7]], [[[0, 1.5], [1, 0]]], "ends must hold integers, not 0.9"),
        ([[0, 1]], [[[0, np.nan], [1, 0]]], "pis must hold integers, not nan"),
    ], ids=["fractional", "nan"])
    def test_non_integer_arrays_refused(self, ends, pis, match):
        with pytest.raises(ValueError, match=match):
            lc.LabelCoverInstance(num_vertices=2, n=2, k=2, t=1, gamma=0, zeta=0,
                                  ends=ends, pis=pis)

    @pytest.mark.parametrize("labels, match", [([0.7, 1.0], "labels must hold integers, not 0.7"),
                                               ([np.nan, 1], "labels must hold integers, not nan")],
                             ids=["fractional", "nan"])
    def test_non_integer_labels_refused(self, labels, match):
        with pytest.raises(ValueError, match=match):
            lc.check_assignment(tiny_instance(), labels)

    def test_whole_valued_floats_accepted(self):
        inst = lc.LabelCoverInstance(num_vertices=2, n=2, k=2, t=1, gamma=0, zeta=0,
                                     ends=[[0.0, 1.0]], pis=[[[1.0, 0.0], [0.0, 1.0]]])
        assert inst.ends.dtype == inst.pis.dtype == np.int64
        assert inst.ends.tolist() == [[0, 1]] and inst.pis.tolist() == [[[1, 0], [0, 1]]]

    def test_degree_and_connectivity(self):
        inst = tiny_instance()
        assert inst.is_regular() and inst.is_connected()
        assert inst.max_preimage_size() == 1


class TestSatisfiedFraction:
    def test_identity_projection_mismatch(self):
        inst = tiny_instance()
        assert lc.satisfied_fraction(inst, [0, 1]) == 0.0
        assert lc.satisfied_fraction(inst, [1, 1]) == 1.0

    def test_matches_bruteforce_count(self):
        inst = lc.generate_random(10, 4, 5, 3, 2, seed=3)
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 5, inst.num_vertices)
        brute = sum(
            1 for (u, v), (pi_u, pi_v) in zip(inst.ends, inst.pis)
            if pi_u[labels[u]] == pi_v[labels[v]]
        ) / inst.num_edges
        assert lc.satisfied_fraction(inst, labels) == pytest.approx(brute)

    def test_relabeling_invariance(self):
        inst, planted = lc.generate_planted(8, 3, 4, 2, 2, seed=5)
        rng = np.random.default_rng(6)
        perm = rng.permutation(inst.num_vertices)
        shuffled = lc.LabelCoverInstance(num_vertices=inst.num_vertices, n=inst.n,
                                         k=inst.k, t=inst.t, gamma=inst.gamma,
                                         zeta=inst.zeta, ends=perm[inst.ends],
                                         pis=inst.pis.copy())
        relabeled = np.empty_like(planted)
        relabeled[perm] = planted
        assert lc.satisfied_fraction(shuffled, relabeled) == \
            lc.satisfied_fraction(inst, planted)

    def test_out_of_range_label(self):
        with pytest.raises(ValueError):
            lc.satisfied_fraction(tiny_instance(), [0, 7])


class TestGenerators:
    def test_two_vertex_single_edge(self):
        inst, planted = lc.generate_planted(2, 1, 2, 2, 1, seed=0)
        assert inst.num_edges == 1
        assert lc.satisfied_fraction(inst, planted) == 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_planted_contract(self, seed):
        inst, planted = lc.generate_planted(8, 3, 6, 3, 2, seed=seed)
        assert lc.satisfied_fraction(inst, planted) == 1.0
        assert inst.is_regular() and inst.is_connected()
        assert inst.max_preimage_size() <= inst.t
        assert lc.check_smoothness(inst) <= inst.gamma

    def test_infeasible_parameters(self):
        with pytest.raises(ValueError):  # k*t < n
            lc.generate_planted(8, 3, 6, 2, 2, seed=0)
        with pytest.raises(ValueError):  # degree >= vertices
            lc.generate_planted(4, 4, 2, 2, 1, seed=0)
        with pytest.raises(ValueError):  # odd degree, odd vertex count
            lc.generate_planted(5, 3, 2, 2, 1, seed=0)
        with pytest.raises(ValueError):  # degree-1 matching is disconnected
            lc.generate_planted(6, 1, 2, 2, 1, seed=0)

    def test_random_generator_structure(self):
        inst = lc.generate_random(8, 4, 5, 3, 2, seed=9)
        assert inst.is_regular() and inst.is_connected()
        assert inst.max_preimage_size() <= inst.t


class TestSmoothness:
    def test_injective_projections_zero(self):
        inst, _ = lc.generate_planted(6, 2, 3, 3, 1, seed=1)
        assert inst.max_preimage_size() == 1
        assert lc.check_smoothness(inst) == 0.0

    def test_forced_collision_one(self):
        # the only incident edge maps labels 0 and 1 together at u
        pi_u = np.array([0, 0])
        pi_v = np.array([0, 1])
        inst = lc.LabelCoverInstance(num_vertices=2, n=2, k=2, t=2, gamma=1.0,
                                     zeta=0.1, ends=[[0, 1]], pis=[[pi_u, pi_v]])
        assert lc.check_smoothness(inst) == 1.0

    def test_at_most_one(self):
        inst = lc.generate_random(8, 3, 6, 3, 2, seed=11)
        assert 0.0 <= lc.check_smoothness(inst) <= 1.0


class TestWeakExpansion:
    def test_complete_graph_half(self):
        inst, _ = lc.generate_planted(4, 3, 2, 2, 1, seed=2)  # K4
        assert inst.num_edges == 6
        rows = lc.check_weak_expansion(inst, [0.5])
        assert rows[0].exhaustive
        assert rows[0].min_edges == 1
        assert rows[0].required == pytest.approx(0.75)
        assert rows[0].passed

    def test_full_subset_trivial(self):
        inst, _ = lc.generate_planted(6, 3, 2, 2, 1, seed=3)
        rows = lc.check_weak_expansion(inst, [1.0])
        assert rows[0].min_edges == inst.num_edges
        assert rows[0].passed

    def test_sampled_path_dense_graph(self):
        inst = lc.generate_random(20, 8, 4, 2, 2, seed=4)
        rows = lc.check_weak_expansion(inst, [0.5, 0.75], subset_samples=50, seed=0)
        assert all(not r.exhaustive for r in rows)
        assert all(r.subsets_checked == 50 for r in rows)
        for r in rows:
            assert r.passed

    def test_reports_counterexample_on_sparse_graph(self):
        # a degree-4 circulant admits independent 5-subsets, and the checker
        # must report the violation rather than hide it
        inst = lc.generate_random(20, 4, 4, 2, 2, seed=4)
        rows = lc.check_weak_expansion(inst, [0.25], subset_samples=50, seed=0)
        assert rows[0].min_edges == 0
        assert not rows[0].passed

    @pytest.mark.parametrize("grid,message", [([0.001], "delta 0.001 gives subset size 0"),
                                              ([0.5, 5.0], "delta 5.0 gives subset size 200"),
                                              ([], "empty")])
    def test_grid_without_a_checkable_subset_size_raises(self, grid, message):
        # at |V| = 40 the subset sizes round(delta |V|) are 0 and 200
        inst = lc.generate_planted(40, 4, 6, 3, 2, seed=1)[0]
        with pytest.raises(ValueError, match=message):
            lc.check_weak_expansion(inst, grid)

    @pytest.mark.parametrize("vertices", [8, 40])
    @pytest.mark.parametrize("delta, size", [(np.inf, "inf"), (-np.inf, "-inf"),
                                             (np.nan, "nan"), (1e308, "inf")])
    def test_non_finite_subset_size_raises(self, vertices, delta, size):
        # exhaustive (8 vertices) and sampled (40) alike; 1e308 * |V| overflows
        inst = lc.generate_planted(vertices, 4, 6, 3, 2, seed=1)[0]
        message = f"delta {delta} gives subset size {size} outside [1, {vertices}]"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            lc.check_weak_expansion(inst, [0.5, delta])

    @pytest.mark.parametrize("samples", [0, -3])
    def test_no_subset_samples_raises(self, samples):
        inst = lc.generate_planted(40, 4, 6, 3, 2, seed=1)[0]
        assert inst.num_vertices > lc.EXHAUSTIVE_LIMIT
        with pytest.raises(ValueError, match=f"subset_samples must be positive, not {samples}$"):
            lc.check_weak_expansion(inst, [0.5], subset_samples=samples)


# ---------------------------------------------------------------------------
# The array-form checkers against per-edge loop references


def loop_degrees(inst):
    deg = np.zeros(inst.num_vertices, dtype=int)
    for u, v in inst.ends:
        deg[u] += 1
        deg[v] += 1
    return deg


def loop_is_connected(inst):
    if inst.num_vertices == 1:
        return True
    adj = [[] for _ in range(inst.num_vertices)]
    for u, v in inst.ends:
        adj[u].append(v)
        adj[v].append(u)
    seen = np.zeros(inst.num_vertices, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    return bool(seen.all())


def loop_max_preimage_size(inst):
    worst = 0
    for pair in inst.pis:
        for pi in pair:
            worst = max(worst, int(np.bincount(pi, minlength=inst.k).max()))
    return worst


def loop_satisfied_fraction(inst, labels):
    if inst.num_edges == 0:
        return 1.0
    good = sum(1 for (u, v), (pi_u, pi_v) in zip(inst.ends, inst.pis)
               if pi_u[labels[u]] == pi_v[labels[v]])
    return good / inst.num_edges


def loop_smoothness(inst):
    worst = 0.0
    for vertex in range(inst.num_vertices):
        incident = [pi for ends, pair in zip(inst.ends, inst.pis)
                    for end, pi in zip(ends, pair) if end == vertex]
        if not incident:
            continue
        counts = np.zeros((inst.n, inst.n), dtype=int)
        for pi in incident:
            counts += pi[:, None] == pi[None, :]
        np.fill_diagonal(counts, 0)
        worst = max(worst, counts.max() / len(incident))
    return float(worst)


def assert_checkers_match_loops(inst, seed=0):
    # the reports serialize these values with json, which takes no numpy scalars
    assert type(inst.is_connected()) is bool and type(inst.is_regular()) is bool
    assert type(inst.max_preimage_size()) is int
    assert type(lc.check_smoothness(inst)) is float
    assert type(lc.satisfied_fraction(inst, np.zeros(inst.num_vertices, dtype=int))) is float
    np.testing.assert_array_equal(inst.degrees(), loop_degrees(inst))
    assert inst.is_connected() == loop_is_connected(inst)
    assert inst.max_preimage_size() == loop_max_preimage_size(inst)
    assert lc.check_smoothness(inst) == loop_smoothness(inst)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        labels = rng.integers(0, inst.n, inst.num_vertices)
        assert lc.satisfied_fraction(inst, labels) == loop_satisfied_fraction(inst, labels)


def random_edge_instance(num_vertices, num_edges, n, k, seed):
    """Arbitrary multigraph (irregular, possibly disconnected) with random
    projections; no preimage bound is imposed."""
    rng = np.random.default_rng(seed)
    ends = np.empty((num_edges, 2), dtype=np.int64)
    pis = np.empty((num_edges, 2, n), dtype=np.int64)
    for end, pair in zip(ends, pis):
        end[:] = rng.choice(num_vertices, size=2, replace=False)
        pair[0], pair[1] = rng.integers(0, k, n), rng.integers(0, k, n)
    return lc.LabelCoverInstance(num_vertices=num_vertices, n=n, k=k, t=n, gamma=1.0,
                                 zeta=0.1, ends=ends, pis=pis)


def assert_file_round_trip(inst):
    """save_instance then load_instance gives the same instance, and saving
    what was loaded writes the same bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.json"), Path(tmp, "second.json")
        fileio.save_instance(inst, first)
        loaded = fileio.load_instance(first)
        for name in ("num_vertices", "n", "k", "t", "gamma", "zeta"):
            assert getattr(loaded, name) == getattr(inst, name)
        for name in ("ends", "pis"):
            got, want = getattr(loaded, name), getattr(inst, name)
            assert got.dtype == np.int64 and got.shape == want.shape
            np.testing.assert_array_equal(got, want)
        fileio.save_instance(loaded, second)
        assert second.read_bytes() == first.read_bytes()


class TestCheckersMatchLoops:
    @settings(max_examples=60, deadline=None)
    @given(planted=st.booleans(), vertices=st.integers(2, 16),
           degree=st.integers(1, 6), n=st.integers(1, 6), k=st.integers(1, 5),
           seed=st.integers(0, 2**16))
    def test_generated_instances(self, planted, vertices, degree, n, k, seed):
        assume(degree < vertices and (degree % 2 == 0 or vertices % 2 == 0))
        t = -(-n // k)
        try:
            if planted:
                inst = lc.generate_planted(vertices, degree, n, k, t, seed=seed)[0]
            else:
                inst = lc.generate_random(vertices, degree, n, k, t, seed=seed)
        except ValueError:  # a disconnected circulant graph
            assume(False)
        assert_checkers_match_loops(inst, seed)

    @settings(max_examples=60, deadline=None)
    @given(vertices=st.integers(2, 10), num_edges=st.integers(0, 20),
           n=st.integers(1, 6), k=st.integers(1, 4), seed=st.integers(0, 2**16))
    def test_arbitrary_multigraphs(self, vertices, num_edges, n, k, seed):
        inst = random_edge_instance(vertices, num_edges, n, k, seed)
        assert_checkers_match_loops(inst, seed)
        assert_file_round_trip(inst)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_connectivity_matches_search(self, data):
        # sparse edge lists, so disconnected graphs and isolated vertices
        # occur; half of them start with a random spanning tree less up to two
        # edges, so that connected graphs, and disconnected ones without an
        # isolated vertex, occur too
        vertices = data.draw(st.integers(1, 30))
        vertex = st.integers(0, vertices - 1)
        edges = []
        if data.draw(st.booleans()):
            order = data.draw(st.permutations(range(vertices)))
            cuts = data.draw(st.sets(st.integers(1, max(vertices - 1, 1)), max_size=2))
            edges = [(order[i], order[data.draw(st.integers(0, i - 1))])
                     for i in range(1, vertices) if i not in cuts]
        edges += data.draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]),
                                    max_size=60 - len(edges) if vertices > 1 else 0))
        inst = lc.LabelCoverInstance(num_vertices=vertices, n=1, k=1, t=1, gamma=1.0,
                                     zeta=0.1, ends=np.array(edges, dtype=int).reshape(-1, 2),
                                     pis=np.zeros((len(edges), 2, 1), dtype=int))
        assert type(inst.is_connected()) is bool
        assert inst.is_connected() == loop_is_connected(inst)

    def test_disconnected(self):
        ident = [0, 1, 2]
        inst = lc.LabelCoverInstance(num_vertices=4, n=3, k=3, t=2, gamma=1.0,
                                     zeta=0.1, ends=[[0, 1], [2, 3]],
                                     pis=[[ident, ident], [[0, 0, 1], ident]])
        assert not inst.is_connected() and inst.is_regular()
        assert lc.check_smoothness(inst) == 1.0
        assert_checkers_match_loops(inst)

    def test_isolated_vertex(self):
        inst = lc.LabelCoverInstance(num_vertices=4, n=2, k=2, t=2, gamma=1.0,
                                     zeta=0.1, ends=[[0, 1], [1, 2]],
                                     pis=[[[0, 1], [1, 1]], [[0, 1], [0, 1]]])
        np.testing.assert_array_equal(inst.degrees(), [1, 2, 1, 0])
        assert not inst.is_connected() and not inst.is_regular()
        assert lc.check_smoothness(inst) == 0.5  # vertex 1: one collision in two sides
        assert_checkers_match_loops(inst)

    @pytest.mark.parametrize("num_vertices", [1, 3])
    def test_no_edges(self, num_vertices):
        inst = lc.LabelCoverInstance(num_vertices=num_vertices, n=2, k=1, t=2, gamma=1.0,
                                     zeta=0.1, ends=np.empty((0, 2)), pis=np.empty((0, 2, 2)))
        assert inst.ends.shape == (0, 2) and inst.pis.shape == (0, 2, 2)
        assert inst.max_preimage_size() == 0 and lc.check_smoothness(inst) == 0.0
        assert inst.is_connected() == (num_vertices == 1)
        assert lc.satisfied_fraction(inst, np.zeros(num_vertices, dtype=int)) == 1.0
        assert_checkers_match_loops(inst)

    @pytest.mark.parametrize("budget", [1, 40, 200])
    def test_smoothness_in_blocks(self, monkeypatch, budget):
        # a budget below one vertex's comparisons gives one vertex per block
        instances = [lc.generate_random(20, 4, 5, 3, 2, seed=1),
                     random_edge_instance(9, 25, 4, 2, seed=2)]
        monkeypatch.setattr(config, "CHUNK_ENTRIES", budget)
        for inst in instances:
            assert lc.check_smoothness(inst) == loop_smoothness(inst)


class TestEdgeArrays:
    def test_arrays_hold_the_edges(self):
        inst = lc.generate_random(10, 4, 5, 3, 2, seed=3)
        assert inst.ends.dtype == np.int64 and inst.pis.dtype == np.int64
        assert inst.ends.shape == (inst.num_edges, 2)
        assert inst.pis.shape == (inst.num_edges, 2, inst.n)

    @pytest.mark.parametrize("ends,pis,message", [
        pytest.param([[0, 1]], [[[0, 1, 0], [0, 1, 0]]], "length-n", id="wrong-length"),
        pytest.param([[0, 1]], [[[0, 1]]], "length-n", id="wrong-shape"),
        pytest.param([[0, 1]], [[[0, 1], [0, 1]]] * 2, "length-n", id="wrong-edge-count"),
        pytest.param([0, 1], [[[0, 1], [0, 1]]], r"\(E, 2\)", id="flat-ends"),
        pytest.param([[0, 2]], [[[0, 1], [0, 1]]], "endpoint out of range",
                     id="endpoint-out-of-range"),
        pytest.param([[-1, 1]], [[[0, 1], [0, 1]]], "endpoint out of range",
                     id="negative-endpoint"),
        pytest.param([[0, 1]], [[[0, -1], [0, 1]]], "projection value out of range",
                     id="negative-label"),
    ])
    def test_validation(self, ends, pis, message):
        with pytest.raises(ValueError, match=message):
            lc.LabelCoverInstance(num_vertices=2, n=2, k=2, t=1, gamma=0, zeta=0,
                                  ends=ends, pis=pis)
