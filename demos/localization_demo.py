"""Range-only localization on a static rigid network.

Each robot runs a small filter over its neighbor distances.  With two
anchored robots the whole network snaps to ground truth; without anchors
the estimated shape still converges (pairwise distances match) while the
absolute placement keeps a leftover offset the measurements cannot see.
"""

import numpy as np

from rigidnet import (
    ScenarioConfig,
    congruence_error,
    generate_scenario,
    make_filters,
    run_static_filter,
)


def main():
    fw = generate_scenario(ScenarioConfig(seed=21, n=20, comm_range=50.0))
    x = fw.positions
    rng = np.random.default_rng(21)
    init = x + rng.uniform(-3.5, 3.5, size=x.shape)
    spread = (0.1 * 50.0) ** 2

    filters = make_filters(init, spread, 1e-6, anchors=(0, 1))
    hist = run_static_filter(fw, filters, 400, anchor_positions=x, record=True)
    print("anchored (robots 0 and 1 know where they are):")
    for r in (0, 25, 50, 100, 200, 400):
        err = np.linalg.norm(hist[r] - x, axis=1).max()
        print(f"  round {r:3d}: max error {err:9.4f} m")

    free = run_static_filter(fw, make_filters(init, spread, 1e-6), 400)
    print("\nanchor-free:")
    print(f"  shape error    {congruence_error(init, x):9.4f} -> "
          f"{congruence_error(free, x):.2e}")
    print(f"  absolute error {np.linalg.norm(init - x, axis=1).max():9.4f} -> "
          f"{np.linalg.norm(free - x, axis=1).max():9.4f} m")


if __name__ == "__main__":
    main()
