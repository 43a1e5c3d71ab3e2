#!/usr/bin/env python3
"""The maximal subspace graph and its threshold subgraph.

Maximal bounded-rank subspaces form a complete weighted graph (weights are
intersection dimensions).  Keeping only the heaviest same-orientation weight
n*(k-1) splits the graph into a row side and a column side for every (n, k)
except (4, 2), where the cross weights k^2 = 4 happen to hit the threshold
and everything becomes one component.
"""

import permrank as pr

for n, k in [(3, 1), (5, 2), (6, 3)]:
    graph = pr.build_theta(n, k)
    hat = pr.build_theta_hat(graph)
    comps = pr.components(hat)
    print(f"n={n} k={k}: {len(graph.vertices)} vertices, threshold {hat.threshold}, "
          f"{len(comps)} components")
    for comp in comps:
        labels = [hat.vertices[i].label for i in comp[:4]]
        print("   ", " ".join(labels), "..." if len(comp) > 4 else "")

# The exceptional pair: every cross edge also carries weight 4 = n*(k-1),
# and the only light edges are the six complementary same-side pairs.
print("\nthe (4, 2) exception:")
graph = pr.build_theta(4, 2)
zero_edges = [(graph.vertices[u].label, graph.vertices[v].label)
              for u, v, w in graph.edges() if w == 0]
print("zero-weight edges:", zero_edges)
hat = pr.build_theta_hat(graph)
print("components of the threshold graph:", len(pr.components(hat)))

# The library re-derives the component structure.  pr.verify_theta(n, k)
# (`permrank verify --suite theta`) also checks every closed-form weight
# against echelon-based intersection dimensions.
print("\nverification report:", pr.verify_component_structure(6, 3))

# Same-side connectivity comes from stepwise support exchanges; consecutive
# supports share k-1 indices, so each step is an edge.
path = pr.interpolating_supports((1, 2, 3), (4, 5, 6))
print("\nsupport path {1,2,3} -> {4,5,6}:", path)

# Graphviz output for small cases.
print()
print(pr.to_dot(pr.build_theta_hat(pr.build_theta(3, 1))))
