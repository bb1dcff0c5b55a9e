#!/usr/bin/env python3
"""The cluster as its own correctness oracle: session audits over every
shipped scenario, plus proof the auditor can actually catch violations.

Runs all four shipped scenarios (repair-under-load, migration-under-load,
correlated-pool-failure, flash-crowd) on the global-clock kernel under a
fixed seed and audits each merged history for per-epoch atomicity *and*
the four per-client session guarantees across keys, shards and migration
epochs: monotonic reads, monotonic writes, read-your-writes and
writes-follow-reads.  Every scenario must audit clean.  Then the
injection harness perturbs one real history into a violation of each
guarantee class and shows the auditor detecting all of them -- an auditor
that has never fired is not evidence of anything.

Exits non-zero on any unexpected violation or missed detection, so the CI
smoke job doubles as a cluster-wide consistency gate.

Run with:  PYTHONPATH=src python examples/session_audit.py
"""

from repro import ClusterSimulation, LDSConfig
from repro.consistency.injection import inject_session_violation
from repro.consistency.sessions import SESSION_GUARANTEES, check_sessions
from repro.sim import (
    correlated_pool_failure,
    flash_crowd,
    migration_under_load,
    repair_under_load,
)

SEED = 11
KEYS = [f"obj-{i}" for i in range(16)]
POOLS = ["pool-0", "pool-1"]


def build_scenarios():
    return [
        (repair_under_load(KEYS, "pool-0/l2-0", seed=SEED, operations=160,
                           duration=600.0, fail_at=120.0), {}),
        (migration_under_load(KEYS, "pool-9", seed=SEED, operations=160,
                              duration=600.0, join_at=150.0), {}),
        (correlated_pool_failure(KEYS, "pool-0", seed=SEED, operations=160,
                                 duration=600.0, fail_at=120.0, stagger=5.0),
         {}),
        (flash_crowd(KEYS, seed=SEED, operations=120, crowd_operations=160,
                     shift_at=250.0, duration=400.0, latency_scale=1.5),
         {"writers_per_shard": 2, "readers_per_shard": 2}),
    ]


def main() -> None:
    config = LDSConfig(n1=3, n2=4, f1=1, f2=1)
    failed = False
    audited_history = None

    print("session audits over the shipped scenarios "
          f"(seed={SEED}, pools={POOLS}):\n")
    for scenario, sim_kwargs in build_scenarios():
        simulation = ClusterSimulation(config, POOLS, seed=SEED,
                                       repair_min_interval=10.0, **sim_kwargs)
        simulation.apply(scenario)
        report = simulation.audit()
        sessions = report.sessions
        verdict = "OK" if report.ok else "FAILED"
        print(f"  {scenario.name:25s} {verdict:6s} "
              f"sessions={sessions.sessions_checked} "
              f"ops={sessions.operations_checked} "
              f"pairs={sessions.pairs_checked} "
              f"migrations={simulation.router.stats.migrations} "
              f"repairs={simulation.repair.stats.repairs_completed}")
        if not report.ok:
            failed = True
            if report.atomicity is not None:
                print(f"    atomicity: {report.atomicity}")
            for violation in sessions.violations[:5]:
                print(f"    {violation}")
        if scenario.name == "repair-under-load":
            audited_history = simulation.history()

    print("\ninjection drill (repair-under-load history): every guarantee "
          "class must be detectable:")
    for guarantee in SESSION_GUARANTEES:
        injection = inject_session_violation(audited_history, guarantee)
        flagged = check_sessions(injection.history).for_guarantee(guarantee)
        blamed = any(set(injection.mutated) & set(v.operations)
                     for v in flagged)
        status = "detected" if flagged and blamed else "MISSED"
        print(f"  {guarantee:20s} {status}  ({injection.description})")
        if not (flagged and blamed):
            failed = True

    if failed:
        raise SystemExit("session audit FAILED")
    print("\nsession audit OK: all scenarios clean, all injections detected")


if __name__ == "__main__":
    main()
