"""The message exchange that feeds every controller, counted in rounds.

Positions flood outward from each ball, centers compute their gradient
contributions, and payloads ride the reverse paths back.  Every
contribution lands within 2 * eta synchronous rounds, where eta is the
worst-case rigidity extent.
"""

from rigidnet import (
    ControlParams,
    ScenarioConfig,
    extent_assignment,
    generate_scenario,
    run_message_engine,
)


def main():
    fw = generate_scenario(ScenarioConfig(seed=4, n=40, width=140.0,
                                          height=140.0, comm_range=32.0))
    h = extent_assignment(fw)
    eta = int(h.max())
    params = ControlParams(comm_range=32.0)

    contributions, log = run_message_engine(fw, h, params)
    print(f"40-robot network, worst-case extent eta = {eta}")
    print(f"exchange finished in {log.completion_round} rounds "
          f"(bound 2 * eta = {2 * eta})")
    print(f"{len(contributions)} (center, member) contributions delivered")
    print("\nmessages in flight per round:")
    for r, size in enumerate(log.outbox_sizes, start=1):
        print(f"  round {r}: {size:4d} " + "#" * (size // 20))


if __name__ == "__main__":
    main()
