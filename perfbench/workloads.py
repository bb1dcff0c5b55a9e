"""The three benchmark workloads, each built from one seed.

Every workload runs the full ``ClusterSimulation`` stack on the global
kernel with ``LDSConfig(n1=5, n2=6, f1=1, f2=1)``: k=3 and d=4, so the
MBR back-end code stores B=9 symbols per stripe with alpha=4 and beta=1.
Each workload is chosen to load a different layer:

* ``coded-read`` -- every key is written once with a 128-byte value (15
  stripes); spaced reads follow after the value was offloaded to L2, with
  no concurrent writes (the paper's delta=0 regime).  Every read makes all
  n1 L1 servers regenerate their symbol from n2-f2 L2 helpers and the
  reader decode it, so ``gf`` and ``codes`` do nearly all of the work.
* ``edge-mixed`` -- the event-pump traffic shape: 12 pools, 96 keys, Zipf
  s=1.2, 40% writes of 8-byte values.  About a hundred messages per op
  load the kernel, the network and the protocol state machines, and
  writes on hot keys mix encodes, L1-served reads and L2-regenerated reads.
* ``replica-failover`` -- r=3 replica groups with nearest-pool write
  ingress and quorum reads, telemetry on (latency tracking and the live
  audit), and one pool killed 3/8 of the way in.  Reads merge follower
  stores and never regenerate, so coding only encodes writes, while the
  replica, forwarding and promotion code and the obs pillars run only here.

The benchmark builds the inputs; the program only receives them.  The
seed drives the simulation (network latency draws, replica distances,
repair timing, audit sampling) and the bytes written.  The Zipf traffic
schedules -- which keys, when, read or write -- come from a fixed seed
instead, because the schedule decides how often a read finds its value
at L1 or must regenerate it from L2: across schedule seeds the read cost
of ``edge-mixed`` moved by 9% and its wall time per op by 25%, which
would hide any change smaller than that.  Each tail percentile reported
has at least ten samples beyond it; on ``coded-read`` that is the
median, traded for more, shorter repeats per run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional

from repro import ClusterSimulation, LDSConfig, ReplicationConfig, WorkloadGenerator
from repro.sim.scenario import KILL_POOL, Scenario, ScenarioAction
from repro.workloads.generator import ScheduledOperation, Workload

CONFIG = LDSConfig(n1=5, n2=6, f1=1, f2=1)

#: Seed of the Zipf traffic schedules (see the module docstring).
SCHEDULE_SEED = 11


@dataclass
class Plan:
    """A workload's generated inputs plus how to build its simulation."""

    name: str
    seed: int
    workload: Workload
    build: Callable[[], ClusterSimulation]
    scenario: Optional[Scenario] = None
    #: For ``coded-read``: the value written to each key, so every read
    #: can be checked against it byte for byte.
    expected_values: Optional[Dict[str, bytes]] = None


def _pools(count: int):
    return [f"pool-{i}" for i in range(count)]


def _zipf_schedule(seed: int, keys: int, operations: int, write_fraction: float,
                   duration: float, s: float) -> Workload:
    """The fixed Zipf schedule, writing 8-byte values drawn from ``seed``."""
    generator = WorkloadGenerator(seed=SCHEDULE_SEED, client_spacing=60.0)
    schedule = generator.zipf_keyed([f"obj-{i}" for i in range(keys)],
                                    operations, write_fraction=write_fraction,
                                    duration=duration, s=s)
    rng = random.Random(seed)
    return Workload(
        operations=[op if op.value is None
                    else replace(op, value=bytes(rng.randrange(256)
                                                 for _ in range(len(op.value))))
                    for op in schedule.operations],
        description=schedule.description)


def coded_read(seed: int) -> Plan:
    keys, reads_per_key, value_size = 30, 2, 128
    rng = random.Random(seed)
    workload = Workload(description="write once, then spaced L2-regenerated reads")
    expected: Dict[str, bytes] = {}
    for index in range(keys):
        key = f"obj-{index}"
        start = rng.uniform(0.0, 100.0)
        value = bytes(rng.randrange(256) for _ in range(value_size))
        expected[key] = value
        workload.add(ScheduledOperation(kind="write", at=start, value=value,
                                        key=key))
        # The first read starts well after the write and its L2 offload
        # finished; reads of one key are spaced so none overlap.
        for read in range(reads_per_key):
            workload.add(ScheduledOperation(kind="read",
                                            at=start + 200.0 + 100.0 * read,
                                            key=key))
    return Plan(
        name="coded-read", seed=seed, workload=workload,
        build=lambda: ClusterSimulation(CONFIG, _pools(4), seed=seed),
        expected_values=expected,
    )


def edge_mixed(seed: int) -> Plan:
    workload = _zipf_schedule(seed, keys=96, operations=576,
                              write_fraction=0.4, duration=400.0, s=1.2)
    return Plan(
        name="edge-mixed", seed=seed, workload=workload,
        build=lambda: ClusterSimulation(CONFIG, _pools(12), seed=seed),
    )


def replica_failover(seed: int) -> Plan:
    duration, kill_at = 3200.0, 1200.0
    workload = _zipf_schedule(seed, keys=48, operations=1920,
                              write_fraction=0.3, duration=duration, s=1.1)
    scenario = Scenario(
        name="kill-one-pool",
        description=f"pool-2 dies at t={kill_at:g}",
        actions=[ScenarioAction(at=kill_at, kind=KILL_POOL, target="pool-2",
                                label="kill pool-2")],
    )
    return Plan(
        name="replica-failover", seed=seed, workload=workload,
        build=lambda: ClusterSimulation(
            CONFIG, _pools(6), seed=seed,
            replication=ReplicationConfig(r=3, write_ingress="nearest"),
            read_policy="quorum", latency=True, live_audit=True),
        scenario=scenario,
    )


WORKLOADS = {
    "coded-read": coded_read,
    "edge-mixed": edge_mixed,
    "replica-failover": replica_failover,
}
