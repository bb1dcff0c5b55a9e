#!/usr/bin/env python3
"""Replica groups end to end: r=3 placement, routed reads, a pool kill,
degraded follower reads, deterministic promotion -- and a clean audit.

The walkthrough builds a 4-pool cluster where every key's shard lives on
three pools (one LDS primary + two follower stores fed with an explicit
replication lag), drives a Zipf workload through the round-robin read
routing policy, then kills ``pool-0`` outright at t=300:

* groups whose *primary* lived there freeze primary-bound traffic, keep
  serving follower reads (the degraded-reads window), promote a caught-up
  follower after the detection delay, and flush the frozen operations
  into the promoted epoch;
* groups that only kept a *follower* there re-provision it on the next
  live ring pool.

The run must exit audit-clean -- per-epoch atomicity at every primary plus
all four session guarantees over the merged global-clock history -- and
the stale-follower injection drill proves the auditor would catch the
replica layer's characteristic failure mode if the session guard ever let
one through.  Exits non-zero otherwise, so the CI smoke job doubles as
the replica subsystem's correctness gate.

Run with:  PYTHONPATH=src python examples/replica_failover.py
"""

from repro import ClusterSimulation, LDSConfig, ReplicationConfig
from repro.consistency.injection import (
    inject_stale_follower_read,
    is_follower_read,
)
from repro.consistency.sessions import check_sessions
from repro.sim import replica_failover_under_load

SEED = 11
KEYS = [f"obj-{i}" for i in range(16)]
POOLS = [f"pool-{i}" for i in range(4)]
KILL_AT = 300.0


def main() -> int:
    config = LDSConfig(n1=3, n2=4, f1=1, f2=1)
    simulation = ClusterSimulation(
        config, POOLS, seed=SEED,
        replication=ReplicationConfig(r=3, replication_lag=25.0,
                                      failover_detection_delay=12.0,
                                      catch_up_per_record=1.0),
        read_policy="round-robin",
    )
    simulation.ensure_shards(KEYS)
    print(f"cluster: {simulation.describe()}")
    group = simulation.replicas.groups[KEYS[0]]
    print(f"example replica set for {KEYS[0]!r}: {group.pools()} "
          f"(primary first)\n")

    scenario = replica_failover_under_load(KEYS, "pool-0", seed=SEED,
                                           kill_at=KILL_AT)
    print(f"scenario: {scenario.name} -- {scenario.description}\n")
    simulation.apply(scenario)

    print("== replica-layer timeline around the kill ==")
    shown = 0
    for time, kind, detail in simulation.timeline():
        if kind in ("kill-pool", "primary-down", "promote", "follower-lost",
                    "follower-provisioned"):
            print(f"  t={time:8.1f}  {kind:<20} {detail}")
            shown += 1
    if not shown:
        print("  (nothing -- the kill never happened?)")

    distribution = simulation.read_distribution()
    stats = simulation.replicas.stats
    print("\n== read routing ==")
    print(f"  {distribution.describe()}")
    for pool in sorted(distribution.counts):
        print(f"  {pool}: {distribution.counts[pool]} reads served")
    print(f"  replication: {stats.records_logged} records logged, "
          f"{stats.records_applied} applied, "
          f"{stats.catch_up_records} caught up at promotion, "
          f"{stats.followers_provisioned} follower(s) re-provisioned")

    failures = []
    if stats.promotions < 1:
        failures.append("expected at least one promotion")
    if distribution.follower_fraction < 0.30:
        failures.append(
            f"followers served only {distribution.follower_fraction:.0%} "
            "of reads (expected >= 30%)"
        )

    report = simulation.audit()
    print(f"\n== audit ==\n  {report.describe()}")
    if not report.ok:
        failures.append("the audit reported violations")

    history = simulation.history()
    if any(is_follower_read(op) for op in history):
        injection = inject_stale_follower_read(history)
        injected = check_sessions(injection.history)
        status = "DETECTED" if not injected.ok else "MISSED"
        print(f"  stale-follower injection [{injection.guarantee}]: {status} "
              f"({injection.description})")
        if injected.ok:
            failures.append("the stale-follower injection went undetected")
    else:
        failures.append("no follower-served reads to inject against")

    if failures:
        print("\nFAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nOK: failover promoted deterministically, followers carried "
          f"{distribution.follower_fraction:.0%} of reads, audit clean, "
          "injection detected.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
