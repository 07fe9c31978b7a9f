"""Walk through the interaction graph, one tiny example end to end.

Three candidates and two jobs. Candidate 0 matched job 0, candidate 1
applied to job 1 without an answer, and job 1 reached out to candidate 2.
Every user gets two nodes: an active one for the choices they make and a
passive one for how others perceive them. A match connects both ends in
both directions; a one-way event connects only the mover's active node to
the receiver's passive node.
"""

import numpy as np

from jobfit.corpus import InteractionSplit
from jobfit.graph import build_graph, edge_table
from jobfit.model import (
    apply_mean_powers,
    build_variant_graph,
    init_params,
    propagate,
    score_pair,
    variant_config,
)

split = InteractionSplit(
    matches=frozenset({(0, 0)}),
    applies=frozenset({(1, 1)}),
    reachouts=frozenset({(2, 1)}),
)
n, m = 3, 2

graph = build_graph(split, n, m, self_edges="as_match", dual=True)
layout = graph.layout
print(f"dual layout: {graph.node_count} nodes for {n}+{m} users")
print(f"  candidate i: active=i, passive={n}+i")
print(f"  job k:       active={2 * n}+k, passive={2 * n + m}+k")

print("\nedges (src, dst, class, coefficient):")
for src, dst, kind, coeff in edge_table(graph):
    print(f"  {src:2d} -> {dst:2d}  {kind:5s}  {coeff:.4f}")

# The coefficient is 1/sqrt(deg(src) * deg(dst)) with degrees counted over
# every class, so a busy node spreads its influence thinner.
print("\ndegrees:", graph.degrees.astype(int).tolist())

variant = variant_config("full", layers=2, omega=0.5)
rng = np.random.default_rng(0)
params = init_params(layout, d_e=4, d_t=3, cand_docs=rng.standard_normal((n, 5)),
                     job_docs=rng.standard_normal((m, 5)), seed=1)
state = propagate(params, graph, variant)
print(f"\npropagated table: {state.z.shape}, averaged over {variant.layers + 1} layers")

r, s, y = score_pair(state.z, layout, cand=0, job=0)
print(f"matched pair (0, 0): r={r:+.4f} s={s:+.4f} y={y:+.4f}")
r, s, y = score_pair(state.z, layout, cand=2, job=0)
print(f"unseen pair (2, 0):  r={r:+.4f} s={s:+.4f} y={y:+.4f}")

# Lowering omega discounts one-way evidence; at zero only matches and
# self-association edges carry messages.
for omega in (1.0, 0.5, 0.0):
    zeroed = variant_config("full", layers=2, omega=omega)
    z = propagate(params, build_variant_graph(split, n, m, zeroed), zeroed).z
    _, _, y = score_pair(z, layout, cand=1, job=1)
    print(f"omega={omega:3.1f}: applied-but-unmatched pair scores y={y:+.4f}")

# The single-node ablation folds each user onto one node. Both directed
# scores collapse onto the same inner product.
single = variant_config("no-dpg", layers=2)
single_graph = build_variant_graph(split, n, m, single)
sp = init_params(single_graph.layout, d_e=4, d_t=3,
                 cand_docs=rng.standard_normal((n, 5)),
                 job_docs=rng.standard_normal((m, 5)), seed=1)
sz = propagate(sp, single_graph, single).z
r, s, y = score_pair(sz, single_graph.layout, cand=0, job=0)
print(f"\nsingle layout ({single_graph.node_count} nodes): r == s == y is {r == s == y}")

# apply_mean_powers is the same averaged operator exposed as a linear map;
# the forward pass is exactly that map applied to the layer-zero features.
x = rng.standard_normal((graph.node_count, 3))
lhs = np.sum(apply_mean_powers(graph, variant, x) * x)
print(f"operator quadratic form on random features: {lhs:+.4f}")
