"""Per-node rigidity extents and the communication load they imply.

Each robot certifies rigidity inside its own hop-ball instead of the whole
network.  The smallest radius that works is that robot's rigidity extent;
the load metric then counts how hard the network relays to keep every ball
informed, between the 2m floor (all extents 1) and the eccentricity
ceiling (every ball is the whole graph).
"""

from collections import Counter

import numpy as np

from rigidnet import (
    ScenarioConfig,
    communication_load,
    extent_assignment,
    generate_scenario,
    geodesics,
    inclusion_group,
)


def main():
    fw = generate_scenario(ScenarioConfig(seed=17, n=100, comm_range=17.5))
    g = fw.graph
    table = geodesics(g)
    h = extent_assignment(fw)
    m = len(g.edges)

    print(f"100-robot disk network, m = {m}, diameter = {int(table.dist.max())}")
    hist = Counter(int(v) for v in h)
    for radius in sorted(hist):
        print(f"  extent {radius}: {hist[radius]:3d} robots "
              + "#" * (hist[radius] // 2))
    print(f"  worst-case extent eta = {h.max()}")

    center = int(h.argmax())
    ball = np.flatnonzero(table.dist[center] <= h[center])
    group = inclusion_group(g, h, center)
    print(f"\nrobot {center} needs {h[center]} hops ({len(ball)} members); "
          f"{len(group)} centers count it as a member")

    floor = communication_load(g, np.ones(g.n, dtype=int)).sum()
    load = communication_load(g, h).sum()
    ceiling = communication_load(g, table.dist.max(axis=1).astype(int)).sum()
    print("\nstandardized communication load (vs the 2m floor):")
    print(f"  all extents 1:   {floor / (2 * m):.2f}")
    print(f"  rigidity extents: {load / (2 * m):.2f}")
    print(f"  whole-graph balls: {ceiling / (2 * m):.2f}")


if __name__ == "__main__":
    main()
