"""The maximal subspace graph and its threshold subgraph.

Vertices are the bounded-rank subspaces of maximal dimension (row- and
column-supported, one per k-element support set; that these are all of them
needs n >= 3, see :mod:`permrank.subspace`); the complete graph carries the
dimension of the pairwise intersection as edge weight.  Weights follow the
closed form

    row/col cross pair:      k^2
    same orientation:        n * |S /\\ S'|

and can be cross-validated against the subspace module.  Keeping only edges
of the maximal same-orientation weight ``n*(k-1)`` yields the threshold
subgraph, whose connected components split into the row side and the column
side for every (n, k) except (4, 2), where the cross edges also hit the
threshold and the graph becomes connected.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import InvalidRange, TooLarge, VerificationError
from .fields import PrimeField
from .subspace import COL, ROW, CanonicalSubspace, canonical_basis

#: Complete-graph storage gets impractical beyond this ambient size.
MAX_N = 12


@dataclass(frozen=True)
class ThetaVertex:
    orientation: str
    support: tuple

    @property
    def label(self) -> str:
        prefix = "R" if self.orientation == ROW else "C"
        return prefix + "{" + ",".join(str(i) for i in self.support) + "}"


@dataclass(frozen=True)
class ThetaGraph:
    """Complete weighted graph on the maximal subspaces."""

    n: int
    k: int
    vertices: tuple
    weights: dict

    def weight(self, u: int, v: int) -> int:
        if u == v:
            raise InvalidRange("no loops: weight(u, u) is undefined")
        return self.weights[(u, v) if u < v else (v, u)]

    def edges(self):
        """All edges as ``(u, v, weight)`` with ``u < v``, in index order."""
        for (u, v), w in sorted(self.weights.items()):
            yield u, v, w


@dataclass(frozen=True)
class ThetaHat:
    """Unweighted threshold subgraph: same vertices, edges of weight n*(k-1)."""

    n: int
    k: int
    vertices: tuple
    edges: tuple
    threshold: int


def _vertices(n: int, k: int) -> tuple:
    supports = list(combinations(range(1, n + 1), k))
    return tuple(
        [ThetaVertex(ROW, s) for s in supports] + [ThetaVertex(COL, s) for s in supports]
    )


def pair_weight(n: int, u: ThetaVertex, v: ThetaVertex) -> int:
    """Closed-form intersection dimension of two maximal subspaces."""
    if u.orientation != v.orientation:
        return len(u.support) * len(v.support)
    return n * len(set(u.support) & set(v.support))


def build_theta(n: int, k: int, *, cross_validate: bool | None = None) -> ThetaGraph:
    """Build the complete weighted graph for parameters ``1 <= k <= n-1``.

    The vertices are the row- and column-supported subspaces.  For n >= 3
    they are exactly the subspaces of maximal dimension inside {prk <= k}.
    At n = 2 the graph is built the same way but misses other planes: over
    F_p, {prk <= 1} holds 2(p+1) of them and only 4 are supported.

    Vertices are ordered: row supports in lexicographic order, then column
    supports.  For small ``n`` (by default n <= 4) every weight is
    cross-validated against an independently computed intersection dimension.
    """
    if not (1 <= k <= n - 1):
        raise InvalidRange(f"need 1 <= k <= n-1, got k={k}, n={n}")
    if n > MAX_N:
        raise TooLarge(f"n={n} exceeds the dense-graph guard {MAX_N}")
    vertices = _vertices(n, k)
    weights = {}
    for u, v in combinations(range(len(vertices)), 2):
        weights[(u, v)] = pair_weight(n, vertices[u], vertices[v])
    graph = ThetaGraph(n=n, k=k, vertices=vertices, weights=weights)
    if cross_validate is None:
        cross_validate = n <= 4
    if cross_validate:
        for u, v, w, got in _weight_mismatches(graph):
            raise VerificationError(
                f"weight mismatch at ({vertices[u].label}, "
                f"{vertices[v].label}): closed form {w}, echelon {got}"
            )
    return graph


def _weight_mismatches(graph: ThetaGraph):
    """Yield ``(u, v, weight, echelon)`` for every edge whose stored weight
    differs from an echelon-based intersection dimension, in edge order."""
    field = PrimeField(3)
    bases = [
        canonical_basis(CanonicalSubspace(v.orientation, v.support), graph.n, field)
        for v in graph.vertices
    ]
    for u, v, w in graph.edges():
        got = bases[u].intersect(bases[v]).dim
        if got != w:
            yield u, v, w, got


def build_theta_hat(graph: ThetaGraph) -> ThetaHat:
    threshold = graph.n * (graph.k - 1)
    edges = tuple((u, v) for u, v, w in graph.edges() if w == threshold)
    return ThetaHat(
        n=graph.n, k=graph.k, vertices=graph.vertices, edges=edges, threshold=threshold
    )


def components(hat: ThetaHat) -> list:
    """Connected components as sorted index tuples, ordered by least vertex."""
    adjacency = {i: [] for i in range(len(hat.vertices))}
    for u, v in hat.edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen = set()
    out = []
    for start in range(len(hat.vertices)):
        if start in seen:
            continue
        stack = [start]
        comp = []
        seen.add(start)
        while stack:
            cur = stack.pop()
            comp.append(cur)
            for nxt in adjacency[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        out.append(tuple(sorted(comp)))
    return out


def interpolating_supports(s: tuple, s_prime: tuple) -> list:
    """Stepwise exchange path between two equal-size supports.

    Each step removes one element of ``s \\ s'`` and inserts one element of
    ``s' \\ s``, so consecutive supports share exactly ``k-1`` elements and
    the corresponding row (or column) vertices are adjacent in the threshold
    subgraph.
    """
    s, s_prime = tuple(sorted(s)), tuple(sorted(s_prime))
    if len(s) != len(s_prime):
        raise InvalidRange("supports must have equal size")
    leaving = sorted(set(s) - set(s_prime))
    entering = sorted(set(s_prime) - set(s))
    path = [s]
    current = set(s)
    for out_el, in_el in zip(leaving, entering):
        current.remove(out_el)
        current.add(in_el)
        path.append(tuple(sorted(current)))
    return path


def verify_component_structure(n: int, k: int) -> dict:
    """Check the component split of the threshold subgraph.

    For ``(k, n) != (2, 4)``: no cross edge reaches the threshold and the
    components are exactly the row side and the column side.  For
    ``(k, n) == (2, 4)``: the full graph has exactly six zero-weight edges
    (complementary same-orientation pairs), every other weight is 4, and the
    threshold subgraph is connected.  Raises VerificationError on any
    mismatch; a failure would indicate an implementation bug.
    """
    return _check_component_structure(build_theta(n, k))


def _check_component_structure(graph: ThetaGraph) -> dict:
    """The checks of :func:`verify_component_structure` on a built graph."""
    n, k = graph.n, graph.k
    hat = build_theta_hat(graph)
    comps = components(hat)
    half = len(graph.vertices) // 2
    report = {
        "n": n,
        "k": k,
        "vertices": len(graph.vertices),
        "threshold": hat.threshold,
        "components": len(comps),
        "special_case": (k, n) == (2, 4),
    }
    if (k, n) == (2, 4):
        zero_edges = [(u, v) for u, v, w in graph.edges() if w == 0]
        other = {w for _, _, w in graph.edges() if w != 0}
        if len(zero_edges) != 6:
            raise VerificationError(f"expected 6 zero-weight edges, got {len(zero_edges)}")
        if other != {4}:
            raise VerificationError(f"expected all other weights 4, got {sorted(other)}")
        if len(comps) != 1:
            raise VerificationError(f"expected a connected threshold graph, got {len(comps)} components")
        report["zero_weight_edges"] = len(zero_edges)
        return report
    cross_at_threshold = [
        (u, v)
        for u, v, w in graph.edges()
        if w == hat.threshold
        and graph.vertices[u].orientation != graph.vertices[v].orientation
    ]
    if cross_at_threshold:
        raise VerificationError(f"cross edges reach the threshold: {cross_at_threshold}")
    expected = [tuple(range(half)), tuple(range(half, 2 * half))]
    if sorted(comps) != sorted(expected):
        raise VerificationError(f"components are not the row/col sides: {comps}")
    return report


# -- output formats ---------------------------------------------------------


def to_dot(obj) -> str:
    """Graphviz text; vertex labels like R{1,3}, edge weights annotated."""
    lines = [f"graph theta_{obj.n}_{obj.k} {{"]
    for v in obj.vertices:
        lines.append(f'  "{v.label}";')
    if isinstance(obj, ThetaHat):
        for u, v in obj.edges:
            lines.append(
                f'  "{obj.vertices[u].label}" -- "{obj.vertices[v].label}"'
                f' [label="{obj.threshold}"];'
            )
    else:
        for u, v, w in obj.edges():
            lines.append(
                f'  "{obj.vertices[u].label}" -- "{obj.vertices[v].label}" [label="{w}"];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_json(obj) -> dict:
    doc = {
        "n": obj.n,
        "k": obj.k,
        "hat": isinstance(obj, ThetaHat),
        "vertices": [v.label for v in obj.vertices],
    }
    if isinstance(obj, ThetaHat):
        doc["threshold"] = obj.threshold
        doc["edges"] = [
            {"u": obj.vertices[u].label, "v": obj.vertices[v].label}
            for u, v in obj.edges
        ]
        doc["components"] = [
            [obj.vertices[i].label for i in comp] for comp in components(obj)
        ]
    else:
        doc["edges"] = [
            {"u": obj.vertices[u].label, "v": obj.vertices[v].label, "weight": w}
            for u, v, w in obj.edges()
        ]
        doc["components"] = [[v.label for v in obj.vertices]]
    return doc
