"""Tour of the sectorized hexagonal lattice.

Builds a small network, looks at who interferes with whom, and confirms the
structural facts the rest of the toolkit relies on: every interior sector has
exactly four interference partners, the relation is symmetric, and no two
sectors of one cell ever couple.
"""

from collections import Counter

from hexmg import build_network, cell_distance, interference_graph, tx_neighbors

net = build_network(radius=6)
print(f"radius-6 ball: {len(net.cells)} cells, {len(net.sectors)} sectors")

# degree profile: interior sectors see 4 partners, boundary ones fewer
degrees = Counter(len(net.tx_neighbors[s]) for s in net.sectors)
print("interference degree histogram:", dict(sorted(degrees.items())))

center = (0, 0, 0)
print(f"\nsector {center} is interfered by:")
for nb in sorted(tx_neighbors(net, center)):
    print(f"  {nb}  (cell distance {cell_distance(center[:2], nb[:2])})")

edges = interference_graph(net)
print(f"\n{len(edges)} undirected interference edges")
assert all(s in net.tx_neighbors[t] for s, t in edges), "symmetry"
assert all((s[0], s[1]) != (t[0], t[1]) for s, t in edges), "no intra-cell edges"
print("symmetry and intra-cell exclusion hold on every edge")

# translation invariance: interior neighbourhoods are all shifted copies
base = {(n[0], n[1], n[2]) for n in net.tx_neighbors[(0, 0, 1)]}
probe = (2, -1, 1)
shifted = {(n[0] - 2, n[1] + 1, n[2]) for n in net.tx_neighbors[probe]}
assert shifted == base
print("interior neighbourhoods are translates of each other")
