#!/usr/bin/env python3
"""Cluster scale-out walkthrough: placement, skewed load, failure, repair.

Builds a 4-pool sharded cluster serving 64 objects, drives it with a
Zipf-skewed keyed workload, then fails one back-end node of the busiest
pool.  The background :class:`RepairScheduler` rebuilds the lost coded
element of every shard on that pool -- rate-limited, interleaved with
foreground traffic -- until full redundancy is restored, and the
per-object atomicity check passes over the whole execution.

Run with:  PYTHONPATH=src python examples/cluster_scaleout.py
"""

from repro import (
    KeyedWorkloadRunner,
    LDSConfig,
    ShardedCluster,
    WorkloadGenerator,
)


def main() -> None:
    config = LDSConfig(n1=5, n2=6, f1=1, f2=1)
    pools = [f"pool-{i}" for i in range(4)]
    cluster = ShardedCluster(
        config, pools,
        repair_min_interval=8.0, repair_max_concurrent=2,
        repair_detection_delay=2.0,
    )
    keys = [f"obj-{i}" for i in range(64)]
    print(cluster.describe())

    # -- phase 1: Zipf-skewed keyed workload over the healthy cluster --------
    generator = WorkloadGenerator(seed=7, client_spacing=60.0)
    workload = generator.zipf_keyed(
        keys, num_operations=256, write_fraction=0.4, duration=500.0, s=1.2,
    )
    report = KeyedWorkloadRunner(cluster.router).run(workload)
    counts = cluster.shard_counts()
    print(f"\nphase 1: {len(workload)} operations over {len(cluster.router.shards)} "
          f"shards ({workload.description})")
    print(f"  shard counts by pool: {counts}")
    balance = cluster.router.shard_balance()
    print(f"  placement balance: cv={balance.coefficient_of_variation:.3f}, "
          f"max/mean={balance.max_over_mean:.2f}")
    print(f"  write latency p50/p95: {report.write_latency.p50:.1f}/"
          f"{report.write_latency.p95:.1f}")
    print(f"  read  latency p50/p95: {report.read_latency.p50:.1f}/"
          f"{report.read_latency.p95:.1f}")

    # Make sure every key has a shard so the failure drill touches them all.
    cluster.router.ensure_shards(keys)
    cluster.run_until_idle()

    # -- phase 2: fail one back-end node of the busiest pool -------------------
    busiest = max(counts, key=counts.get)
    victim = f"{busiest}/l2-0"
    affected = cluster.router.shards_on_pool(busiest)
    print(f"\nphase 2: failing node {victim} "
          f"({len(affected)} shards lose one coded element)")
    cluster.fail_node(victim, time=0.0)
    degraded = sum(1 for s in affected if s.system.alive_l2_count() < config.n2)
    print(f"  degraded shards immediately after the crash: {degraded}")

    # Foreground traffic continues while repairs run in the background.
    followup = generator.keyed_random(
        keys, num_operations=64, write_fraction=0.5, duration=200.0,
    )
    KeyedWorkloadRunner(cluster.router).run(followup)
    cluster.run_until_idle()

    # -- phase 3: verify the repair restored full redundancy ------------------
    stats = cluster.repair.stats
    still_degraded = [s.key for s in cluster.router.shards_on_pool(busiest)
                      if s.system.alive_l2_count() < config.n2]
    times = cluster.repair.scheduled_times()
    print(f"\nphase 3: background repair")
    print(f"  repairs completed: {stats.repairs_completed} "
          f"(skipped {stats.repairs_skipped}, retries {stats.retries})")
    print(f"  repair downloads (normalised): {stats.total_download_fraction:.2f}")
    if times:
        print(f"  rate limiting: first at t={times[0]:.1f}, last at t={times[-1]:.1f}, "
              f"{len(times)} repairs spread over {times[-1] - times[0]:.1f} time units")
    print(f"  node {victim} status: {cluster.node(victim).status}")
    print(f"  shards still degraded: {still_degraded or 'none'}")

    violation = cluster.check_atomicity()
    print(f"\natomicity over the whole execution: "
          f"{'OK' if violation is None else violation}")
    if violation is not None or still_degraded:
        raise SystemExit("cluster scale-out walkthrough FAILED")
    print("cluster scale-out walkthrough OK")


if __name__ == "__main__":
    main()
