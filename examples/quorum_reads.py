#!/usr/bin/env python3
"""Quorum reads end to end: r'-of-r merges, read repair under heavy lag,
nearest-ingress write forwarding -- and a clean audit.

The walkthrough builds a 4-pool, r=3 cluster whose followers lag the
primaries by 400 time units -- longer than the whole read burst -- and
drives the ``quorum-reads-under-lag`` scenario through the ``quorum``
routing policy with ``read_quorum=2``:

* every read queries two stores of its group (a rotating window over
  primary + followers), merges the ``(epoch, tag)`` versions and returns
  the max-version value;
* merges that observe a stale store trigger **read repair**: the store is
  caught up from the replication log at the merge instant instead of
  waiting out the lag -- the run prints how many session-guard fallbacks
  repair saved versus an identical lag-only run;
* writes enter through ``write_ingress="nearest"``, so writes arriving at
  a follower pool are **forwarded** to the primary with the hop charged
  on the global clock.

The run must exit audit-clean (per-epoch atomicity plus all four session
guarantees) and the quorum-drop injection drill must prove the auditor
would catch a merge that lost its freshest response.  Exits non-zero
otherwise, so the CI smoke job doubles as the quorum read path's
correctness gate.

Run with:  PYTHONPATH=src python examples/quorum_reads.py
"""

from repro import ClusterSimulation, LDSConfig, ReplicationConfig
from repro.consistency.injection import (
    inject_quorum_version_drop,
    is_quorum_read,
)
from repro.consistency.sessions import check_sessions
from repro.sim import quorum_reads_under_lag

SEED = 7
KEYS = [f"obj-{i}" for i in range(16)]
POOLS = [f"pool-{i}" for i in range(4)]
REPLICATION_LAG = 400.0


def build(read_repair: bool) -> ClusterSimulation:
    config = LDSConfig(n1=3, n2=4, f1=1, f2=1)
    simulation = ClusterSimulation(
        config, POOLS, seed=SEED,
        writers_per_shard=2, readers_per_shard=2,
        replication=ReplicationConfig(r=3, replication_lag=REPLICATION_LAG,
                                      read_quorum=2, read_repair=read_repair,
                                      write_ingress="nearest"),
        read_policy="quorum",
    )
    simulation.ensure_shards(KEYS)
    simulation.apply(quorum_reads_under_lag(KEYS, seed=SEED))
    return simulation


def main() -> int:
    simulation = build(read_repair=True)
    print(f"cluster: {simulation.describe()}")
    scenario = quorum_reads_under_lag(KEYS, seed=SEED)
    print(f"scenario: {scenario.name} -- {scenario.description}\n")

    distribution = simulation.read_distribution()
    print("== quorum read routing ==")
    print(f"  {distribution.describe()}")
    depths = distribution.quorum_depths
    for depth in sorted(depths):
        print(f"  merges with {depth} response(s): {depths[depth]}")
    print(f"  read repairs: {distribution.read_repairs} store(s) caught up "
          f"({simulation.replicas.stats.read_repair_records} record(s)) "
          f"~{REPLICATION_LAG:g} time units early")
    print(f"  forwarded writes: {distribution.forwarded_writes}")

    lag_only = build(read_repair=False).read_distribution()
    print("\n== read repair vs lag-only catch-up (same seed) ==")
    print(f"  session fallbacks with repair:   {distribution.session_fallbacks}")
    print(f"  session fallbacks lag-only:      {lag_only.session_fallbacks}")

    failures = []
    if distribution.quorum_reads < 50:
        failures.append("expected a substantial quorum read volume")
    if distribution.read_repairs < 1:
        failures.append("expected read repair to fire under this lag")
    if distribution.forwarded_writes < 1:
        failures.append("expected nearest-ingress writes to forward")
    if distribution.session_fallbacks >= lag_only.session_fallbacks:
        failures.append(
            "read repair should reduce session fallbacks vs lag-only"
        )

    report = simulation.audit()
    print(f"\n== audit ==\n  {report.describe()}")
    if not report.ok:
        failures.append("the audit reported violations")

    history = simulation.history()
    if any(is_quorum_read(op) for op in history):
        injection = inject_quorum_version_drop(history)
        injected = check_sessions(injection.history)
        status = "DETECTED" if not injected.ok else "MISSED"
        print(f"  quorum-drop injection [{injection.guarantee}]: {status} "
              f"({injection.description})")
        if injected.ok:
            failures.append("the quorum-drop injection went undetected")
    else:
        failures.append("no quorum-merged reads to inject against")

    if failures:
        print("\nFAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    saved = lag_only.session_fallbacks - distribution.session_fallbacks
    print(f"\nOK: {distribution.quorum_reads} quorum merges, "
          f"{distribution.read_repairs} read repairs saving {saved} "
          f"session fallbacks, {distribution.forwarded_writes} forwarded "
          "writes, audit clean, injection detected.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
