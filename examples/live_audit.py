#!/usr/bin/env python3
"""Live correctness observability: the auditor runs *inside* the run.

Three demonstrations, each a CI gate:

1. **Non-perturbation.**  The same quorum-read scenario runs twice under
   a fixed seed, once bare and once with the live audit pillars (the
   streaming session auditor and the sampling availability monitor)
   attached.  The kernel fingerprints must be byte-identical -- probes
   observe, they never perturb -- and the live verdict must equal the
   batch auditor's on the merged history, field by field.

2. **Online session detection.**  A fabricated stale completion (the
   feed-level analog of the history injections: what a buggy replica
   read path would have reported) is pushed into the live feed mid-run.
   The probe must flag it *at sim time* -- counter, JSONL row, trace-
   ready instant -- before anyone asks for a report.

3. **Online availability detection.**  Mid-run, an under-replication
   drill silently crashes one L2 slot per shard (no membership event, no
   repair task: decay the control plane never saw).  The armed sampling
   epochs must raise the silent-hole alarm while the run is still going.

Exits non-zero on any divergence or missed detection.

Run with:  PYTHONPATH=src python examples/live_audit.py
"""

from repro import ClusterSimulation, LDSConfig
from repro.cluster.replicas import ReplicationConfig
from repro.consistency.history import Operation, READ, WRITE
from repro.consistency.injection import inject_under_replication
from repro.consistency.sessions import check_sessions
from repro.sim import quorum_reads_under_lag

SEED = 7
KEYS = [f"obj-{i}" for i in range(16)]
POOLS = [f"pool-{i}" for i in range(4)]
CONFIG = LDSConfig(n1=3, n2=4, f1=1, f2=1)


def run_quorum(live_audit: bool, sanitize: bool = False) -> ClusterSimulation:
    simulation = ClusterSimulation(
        CONFIG, POOLS, seed=SEED,
        writers_per_shard=2, readers_per_shard=2,
        replication=ReplicationConfig(r=3, replication_lag=400.0,
                                      read_quorum=2),
        read_policy="quorum",
        live_audit=live_audit,
        sanitize=sanitize,
    )
    simulation.ensure_shards(KEYS)
    simulation.apply(quorum_reads_under_lag(KEYS, seed=SEED))
    return simulation


def check_non_perturbation() -> bool:
    print("1. non-perturbation (quorum-reads-under-lag, seed "
          f"{SEED}, audit off vs on vs on+sanitized):")
    bare = run_quorum(live_audit=False)
    live = run_quorum(live_audit=True)
    identical = bare.kernel.fingerprint == live.kernel.fingerprint
    print(f"   kernel fingerprint {bare.kernel.fingerprint:#018x} "
          f"{'==' if identical else '!='} {live.kernel.fingerprint:#018x}")

    # Third leg: the runtime sanitizer checks every event, every probe
    # and the replica layer's pending maps -- and must neither perturb
    # the fingerprint nor find anything.
    sanitized = run_quorum(live_audit=True, sanitize=True)
    sanitizer = sanitized.kernel.sanitizer
    sanitized_identical = \
        sanitized.kernel.fingerprint == bare.kernel.fingerprint
    identical = identical and sanitized_identical and sanitizer.ok
    print(f"   sanitized fingerprint "
          f"{'==' if sanitized_identical else '!='} bare; "
          f"{sanitizer.events_checked} events and "
          f"{sanitizer.probes_checked} probes checked, "
          f"{len(sanitizer.violations)} violation(s)")

    batch = check_sessions(live.history())
    streamed = live.audit().sessions
    equivalent = (
        streamed.describe() == batch.describe()
        and sorted(map(str, streamed.violations))
        == sorted(map(str, batch.violations))
    )
    print(f"   live verdict:  {streamed.describe()}")
    print(f"   batch verdict: {batch.describe()}")
    probe = live.telemetry.auditor
    print(f"   retention: peak tracked entries "
          f"{probe.auditor.peak_tracked_entries} over "
          f"{streamed.operations_checked} checked operations")
    ok = identical and equivalent and not streamed.violations
    print(f"   {'OK' if ok else 'FAILED'}\n")
    return ok


def check_online_session_detection() -> bool:
    print("2. online session detection (stale completion in the feed):")
    simulation = ClusterSimulation(CONFIG, POOLS[:2], seed=3, live_audit=True)
    simulation.invoke_write("k", b"v1", session="s")
    simulation.run_until_idle()
    simulation.invoke_write("k", b"v2", session="s")
    simulation.run_until_idle()
    first = min((op for op in simulation.history()
                 if op.kind == WRITE and op.is_complete),
                key=lambda op: op.invoked_at)
    now = simulation.now
    stale = Operation(
        op_id="k/replica:drill/read-0",
        client_id="replica:drill/reader-0",
        kind=READ, object_id=first.object_id, value=first.value,
        invoked_at=now + 1.0, responded_at=now + 2.0, tag=first.tag,
        session="s",
    )
    simulation.router.notify_replica_completion(stale)
    simulation.invoke_write("other", b"x", at=now + 80.0)
    simulation.run_until_idle()

    probe = simulation.telemetry.auditor
    detected = bool(probe.rows)
    for row in probe.rows:
        print(f"   t={row['t']:.1f} {row['guarantee']} "
              f"session={row['session']} key={row['key']} "
              f"operations={row['operations']}")
    print(f"   {len(probe.rows)} violation row(s) surfaced at sim time, "
          f"registry: audit_violations="
          f"{sum(probe._c_violations.as_dict().values())}")
    print(f"   {'OK' if detected else 'FAILED'}\n")
    return detected


def check_online_availability_detection() -> bool:
    print("3. online availability detection (silent under-replication "
          "mid-run):")
    simulation = ClusterSimulation(CONFIG, POOLS, seed=SEED, live_audit=True)
    simulation.ensure_shards(KEYS)
    for index, key in enumerate(KEYS):
        simulation.invoke_write(key, b"v", at=float(index))
    simulation.run_until_idle()

    drill = inject_under_replication(simulation, count=len(KEYS))
    start = simulation.now
    for index, key in enumerate(KEYS):
        simulation.invoke_write(key, b"w", at=start + 20.0 * (index + 1))
    simulation.run_until_idle()

    monitor = simulation.telemetry.availability
    assessment = monitor.assessment()
    detected = not assessment.ok
    print(f"   drilled {len(drill.holes)} silent hole(s); sampled "
          f"{assessment.samples_taken} fragments over {assessment.epochs} "
          f"epochs")
    print(f"   {assessment.describe()}")
    report = simulation.audit()
    print(f"   cluster audit: {report.describe()}")
    print(f"   {'OK' if detected and not report.ok else 'FAILED'}\n")
    return detected and not report.ok


def main() -> None:
    print("live audit gate: streaming session auditor + availability "
          "monitor as kernel probes\n")
    ok = check_non_perturbation()
    ok = check_online_session_detection() and ok
    ok = check_online_availability_detection() and ok
    if not ok:
        raise SystemExit("live audit gate FAILED")
    print("live audit gate OK: fingerprints identical, verdicts "
          "equivalent, both drills detected online")


if __name__ == "__main__":
    main()
