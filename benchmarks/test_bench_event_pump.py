"""Event-pump benchmark: the global kernel's cost per event vs source count.

Drives the same seeded Zipf keyed workload through the global simulation
kernel at growing pool counts and reports wall-clock time, simulated
events per second, and the kernel's cross-shard interleaving rate.  Head
selection is an invalidation-tolerant heap over source head times (O(log
S) per event; it used to be an O(S) scan per event), so the kernel's
per-event overhead stays flat as pools -- and with them registered event
sources -- multiply.  The pool sweep at a fixed per-shard load is the
regression signal for that: wall time per kernel event must not grow with
the source count.

There is no paper analogue; this characterises the simulation engine itself.
"""

from __future__ import annotations

import time

from bench_utils import emit_json, emit_table

from repro import (
    ClusterSimulation,
    KeyedWorkloadRunner,
    LDSConfig,
    WorkloadGenerator,
)

DURATION = 400.0
SEED = 23
POOL_COUNTS = (3, 8, 12)


def _pools(count: int):
    return [f"pool-{i}" for i in range(count)]


def _workload(num_keys: int, num_operations: int):
    generator = WorkloadGenerator(seed=SEED, client_spacing=60.0)
    return generator.zipf_keyed(
        [f"obj-{i}" for i in range(num_keys)],
        num_operations, write_fraction=0.4, duration=DURATION, s=1.2,
    )


def _run_kernel(pools: int, num_keys: int, num_operations: int):
    config = LDSConfig(n1=3, n2=4, f1=1, f2=1)
    simulation = ClusterSimulation(config, _pools(pools), seed=SEED)
    started = time.perf_counter()  # simlint: disable=ND02 -- wall-clock benchmark timing only
    report = KeyedWorkloadRunner(simulation).run(
        _workload(num_keys, num_operations))
    wall = time.perf_counter() - started  # simlint: disable=ND02 -- wall-clock benchmark timing only
    assert report.is_atomic
    return {"wall": wall, "events": simulation.kernel.events_processed,
            "switch_rate": simulation.interleaving.switch_rate,
            "sources": len(simulation.kernel.sources())}


def test_bench_event_pump():
    # Shards (event sources) scale with the cluster: 8 keys per pool, one
    # fixed per-shard load.
    rows = []
    runs = {}
    for pools in POOL_COUNTS:
        num_keys = 8 * pools
        num_operations = 6 * num_keys
        run = _run_kernel(pools, num_keys, num_operations)
        run["us_per_event"] = run["wall"] * 1e6 / run["events"]
        runs[pools] = run
        rows.append((
            pools,
            num_keys,
            num_operations,
            run["sources"],
            f"{run['wall'] * 1e3:.1f}",
            run["events"],
            f"{run['events'] / run['wall']:,.0f}",
            f"{run['us_per_event']:.1f}",
            f"{run['switch_rate']:.2f}",
        ))

    emit_table(
        "event_pump",
        "global kernel cost per event vs pool count (O(log S) heap head "
        "selection)",
        ["pools", "keys", "ops", "sources", "wall ms", "sim events",
         "events/s", "us/event", "switch rate"],
        rows,
    )
    emit_json("BENCH_event_pump.json", {
        "name": "event_pump",
        "seed": SEED,
        "config": {"duration": DURATION, "pool_counts": list(POOL_COUNTS),
                   "keys_per_pool": 8, "ops_per_key": 6},
        "metrics": {
            f"pools_{pools}": {
                "kernel_wall_s": run["wall"],
                "events": run["events"],
                "events_per_s": run["events"] / run["wall"],
                "us_per_event": run["us_per_event"],
                "switch_rate": run["switch_rate"],
            }
            for pools, run in runs.items()
        },
    })

    # Loose sanity bound only: single-sample wall-clock ratios are noisy
    # on shared CI runners, so the table above is the real regression
    # signal; this assertion only catches a gross (2x-class) blow-up of
    # the per-event cost as the source count quadruples -- the signature
    # of head selection regressing from O(log S) towards O(S).
    assert runs[12]["us_per_event"] <= 2.0 * runs[3]["us_per_event"]
