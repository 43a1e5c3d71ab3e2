import hashlib
import json
import random
from itertools import combinations
from math import comb

import networkx
import pytest

from permrank import (
    COL,
    ROW,
    CanonicalSubspace,
    PrimeField,
    build_theta,
    build_theta_hat,
    canonical_basis,
    components,
    graph_json,
    interpolating_supports,
    pair_weight,
    to_dot,
    verify_component_structure,
    verify_theta,
)
from permrank.errors import InvalidRange, TooLarge


def _index(graph, orientation, support):
    target = CanonicalSubspace(orientation, tuple(sorted(support)))
    return graph.vertices.index(target)


class TestBuild:
    def test_vertex_count(self):
        for n in range(2, 7):
            for k in range(1, n):
                g = build_theta(n, k)
                assert len(g.vertices) == 2 * comb(n, k)

    def test_vertex_order_rows_then_cols_lexicographic(self):
        g = build_theta(3, 2)
        labels = [v.label for v in g.vertices]
        assert labels == ["R{1,2}", "R{1,3}", "R{2,3}", "C{1,2}", "C{1,3}", "C{2,3}"]

    def test_complement_rows_have_weight_zero(self):
        g = build_theta(4, 2)
        u = _index(g, ROW, (1, 2))
        v = _index(g, ROW, (3, 4))
        assert g.weight(u, v) == 0

    def test_all_cross_weights_are_k_squared(self):
        g = build_theta(4, 2)
        for u, v, w in g.edges():
            if g.vertices[u].orientation != g.vertices[v].orientation:
                assert w == 4

    def test_weight_is_symmetric_and_loopless(self):
        g = build_theta(3, 1)
        assert g.weight(0, 5) == g.weight(5, 0)
        with pytest.raises(InvalidRange):
            g.weight(2, 2)

    def test_parameter_guards(self):
        with pytest.raises(InvalidRange):
            build_theta(3, 0)
        with pytest.raises(InvalidRange):
            build_theta(3, 3)
        with pytest.raises(TooLarge):
            build_theta(13, 2)

    def test_closed_form_matches_subspace_intersections(self, F3):
        # independent echelon-based route, all pairs for n <= 4
        for n in (3, 4):
            for k in range(1, n):
                g = build_theta(n, k)
                bases = [
                    canonical_basis(CanonicalSubspace(v.orientation, v.support), n, F3)
                    for v in g.vertices
                ]
                for u, v, w in g.edges():
                    assert bases[u].intersect(bases[v]).dim == w

    def test_closed_form_matches_intersections_at_n7(self, F3):
        # largest size the weight equivalence is pinned at (n = 5, 6 run in
        # the acceptance suite)
        n = 7
        for k in range(1, n):
            g = build_theta(n, k)
            bases = [
                canonical_basis(CanonicalSubspace(v.orientation, v.support), n, F3)
                for v in g.vertices
            ]
            for u, v, w in g.edges():
                assert bases[u].intersect(bases[v]).dim == w


class TestHatAndComponents:
    def test_threshold_value(self):
        hat = build_theta_hat(build_theta(5, 2))
        assert hat.threshold == 5

    def test_n3_k1_edges_are_exactly_same_side_pairs(self):
        # derived from the weight formulas: same side 3*0 = 0 = threshold,
        # cross side 1 != 0
        g = build_theta(3, 1)
        hat = build_theta_hat(g)
        expected = set()
        for u, v in combinations(range(len(g.vertices)), 2):
            if g.vertices[u].orientation == g.vertices[v].orientation:
                expected.add((u, v))
        assert set(hat.edges) == expected

    def test_no_cross_edges_at_5_2(self):
        hat = build_theta_hat(build_theta(5, 2))
        for u, v in hat.edges:
            assert hat.vertices[u].orientation == hat.vertices[v].orientation

    def test_two_components_generic(self):
        for n, k in ((3, 1), (5, 2), (6, 3)):
            hat = build_theta_hat(build_theta(n, k))
            comps = components(hat)
            assert len(comps) == 2
            sides = [{hat.vertices[i].orientation for i in comp} for comp in comps]
            assert sides == [{ROW}, {COL}]

    def test_exceptional_pair_is_connected(self):
        hat = build_theta_hat(build_theta(4, 2))
        assert len(components(hat)) == 1

    def test_exceptional_pair_keeps_every_cross_edge(self):
        # k^2 = 4 = n*(k-1), so all 36 cross pairs reach the threshold
        hat = build_theta_hat(build_theta(4, 2))
        cross = {
            (u, v)
            for u, v in hat.edges
            if hat.vertices[u].orientation != hat.vertices[v].orientation
        }
        assert len(cross) == 36


class TestVerifyStructure:
    @pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (6, 3), (5, 2), (6, 5)])
    def test_passes(self, n, k):
        report = verify_component_structure(n, k)
        if (k, n) == (2, 4):
            assert report["zero_weight_edges"] == 6
            assert report["components"] == 1
        else:
            assert report["components"] == 2

    def test_all_small_parameters(self):
        for n in range(2, 7):
            for k in range(1, n):
                verify_component_structure(n, k)


class TestSupportPath:
    def test_path_steps_share_k_minus_1(self):
        rng = random.Random(4)
        for _ in range(50):
            n = rng.randint(3, 8)
            k = rng.randint(1, n - 1)
            s = tuple(sorted(rng.sample(range(1, n + 1), k)))
            t = tuple(sorted(rng.sample(range(1, n + 1), k)))
            path = interpolating_supports(s, t)
            assert path[0] == s and path[-1] == t
            for a, b in zip(path, path[1:]):
                assert len(a) == len(b) == k
                assert len(set(a) & set(b)) == k - 1
                # consecutive vertices are adjacent in the threshold subgraph
                u, v = CanonicalSubspace(ROW, a), CanonicalSubspace(ROW, b)
                assert pair_weight(n, u, v) == n * (k - 1)

    def test_trivial_path(self):
        assert interpolating_supports((1, 2), (1, 2)) == [(1, 2)]


class TestOutput:
    def test_dot_contains_labels_and_weights(self):
        text = to_dot(build_theta(3, 1))
        assert text.startswith("graph theta_3_1 {")
        assert '"R{1}"' in text and '"C{3}"' in text
        assert '[label="0"]' in text and '[label="1"]' in text

    def test_dot_deterministic(self):
        assert to_dot(build_theta(4, 2)) == to_dot(build_theta(4, 2))

    def test_json_shape_for_hat(self):
        doc = graph_json(build_theta_hat(build_theta(4, 2)))
        assert doc["n"] == 4 and doc["k"] == 2 and doc["hat"] is True
        assert len(doc["vertices"]) == 12
        assert len(doc["components"]) == 1
        assert doc["threshold"] == 4

    def test_json_full_graph_weights(self):
        doc = graph_json(build_theta(3, 1))
        assert doc["hat"] is False
        weights = {(e["u"], e["v"]): e["weight"] for e in doc["edges"]}
        assert weights[("R{1}", "R{2}")] == 0
        assert weights[("R{1}", "C{1}")] == 1


@pytest.mark.parametrize("n", range(2, 8))
def test_components_match_networkx(n):
    for k in range(1, n):
        hat = build_theta_hat(build_theta(n, k))
        got = components(hat)
        graph = networkx.Graph()
        graph.add_nodes_from(range(len(hat.vertices)))
        graph.add_edges_from(hat.edges)
        # sorted tuples, ordered by least vertex (disjoint, so lexicographic order)
        expected = sorted(tuple(sorted(c)) for c in networkx.connected_components(graph))
        assert got == expected, (n, k)


#: SHA-256 prefixes of ``graph_json`` and ``to_dot`` of the graph and of its
#: threshold subgraph, then the ``verify_component_structure`` report,
#: recorded when ``build_theta`` still carried an optional echelon self-check.
GRAPH_PINNED = {
    "n2-k1": "e81a44f9c26b00bc",
    "n3-k1": "14f40153eac78873",
    "n3-k2": "909560f8838f5f52",
    "n4-k1": "b2b1ecb3127d02c3",
    "n4-k2": "c3d261061fdd8345",
    "n4-k3": "bdbc2b06de5648ae",
    "n5-k1": "d0c7d67d382523a7",
    "n5-k2": "af415b008451b746",
    "n5-k3": "555bf625628e90be",
    "n5-k4": "555afa5e86550aed",
    "n6-k1": "c23c3914c0daaf66",
    "n6-k2": "2084df1a6dbb67fc",
    "n6-k3": "4e316304696bd6c8",
    "n6-k4": "247d7ddd5e314c02",
    "n6-k5": "43e7f39304f4e819",
    "n7-k1": "8453d2f63f49558e",
    "n7-k2": "551af7e0650ada96",
    "n7-k3": "d2a8755353ae8626",
    "n7-k4": "1bd681267c9364b1",
    "n7-k5": "66d9687678e6ae40",
    "n7-k6": "17c038647974cd70",
}

#: The same for ``verify_theta(n, k).to_json_dict()``.
REPORT_PINNED = {
    "n3-k1": "f374934fcd3fc4a6",
    "n4-k2": "eaa35dca05a89a23",
    "n5-k2": "da4625ac5ff00fea",
    "n5-k3": "eb07505b33d91044",
    "n6-k2": "f6934f2f795a15c5",
}


def _digest(rec):
    return hashlib.sha256(json.dumps(rec, sort_keys=True).encode()).hexdigest()[:16]


@pytest.mark.parametrize("key", GRAPH_PINNED)
def test_graph_outputs_pinned(key):
    n, k = (int(part[1:]) for part in key.split("-"))
    graph = build_theta(n, k)
    hat = build_theta_hat(graph)
    rec = [graph_json(graph), to_dot(graph), graph_json(hat), to_dot(hat), verify_component_structure(n, k)]
    assert _digest(rec) == GRAPH_PINNED[key]


@pytest.mark.parametrize("key", REPORT_PINNED)
def test_verify_theta_report_pinned(key):
    n, k = (int(part[1:]) for part in key.split("-"))
    assert _digest(verify_theta(n, k).to_json_dict()) == REPORT_PINNED[key]
