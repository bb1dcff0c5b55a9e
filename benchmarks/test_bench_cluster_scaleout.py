"""Cluster scale-out benchmark: throughput and storage balance vs pool count.

Drives the same Zipf-skewed keyed workload through sharded clusters of
increasing pool counts and reports:

* virtual-time makespan (the global clock when the workload drains) and
  throughput in operations per unit virtual time -- more pools spread the
  per-key load so the makespan should not degrade as the cluster grows;
* placement balance (coefficient of variation of shards per pool) and
  storage balance (CV of the normalised L1+L2 storage cost per pool) --
  consistent hashing should keep both CVs moderate at every size.

There is no paper analogue (the paper stops at the single-deployment
analysis); this benchmark characterises the new cluster layer itself.
"""

from __future__ import annotations

import time

from bench_utils import emit_table

from repro import (
    KeyedWorkloadRunner,
    LDSConfig,
    ShardedCluster,
    WorkloadGenerator,
)
from repro.cluster.ring import RingBalance

NUM_KEYS = 48
NUM_OPERATIONS = 192
DURATION = 400.0


def _run_cluster(num_pools: int):
    config = LDSConfig(n1=3, n2=4, f1=1, f2=1)
    cluster = ShardedCluster(config, [f"pool-{i}" for i in range(num_pools)])
    keys = [f"obj-{i}" for i in range(NUM_KEYS)]
    generator = WorkloadGenerator(seed=23, client_spacing=60.0)
    workload = generator.zipf_keyed(
        keys, num_operations=NUM_OPERATIONS, write_fraction=0.4,
        duration=DURATION, s=1.2,
    )
    started = time.perf_counter()  # simlint: disable=ND02 -- wall-clock benchmark timing only
    report = KeyedWorkloadRunner(cluster.router).run(workload)
    wall = time.perf_counter() - started  # simlint: disable=ND02 -- wall-clock benchmark timing only

    makespan = cluster.kernel.now
    throughput = len(workload) / makespan if makespan else 0.0
    shard_cv = cluster.router.shard_balance().coefficient_of_variation
    storage_cv = RingBalance.from_counts(
        cluster.storage_by_pool()
    ).coefficient_of_variation
    return {
        "report": report,
        "wall": wall,
        "makespan": makespan,
        "throughput": throughput,
        "shard_cv": shard_cv,
        "storage_cv": storage_cv,
        "shards": len(cluster.router.shards),
    }


def test_bench_cluster_scaleout():
    rows = []
    results = {}
    for num_pools in (2, 4, 8):
        outcome = _run_cluster(num_pools)
        results[num_pools] = outcome
        assert outcome["report"].is_atomic
        assert outcome["report"].incomplete_operations == 0
        rows.append((
            num_pools,
            outcome["shards"],
            f"{outcome['makespan']:.0f}",
            f"{outcome['throughput']:.3f}",
            f"{outcome['shard_cv']:.3f}",
            f"{outcome['storage_cv']:.3f}",
            f"{outcome['wall'] * 1000:.0f}",
        ))
    emit_table(
        "cluster_scaleout",
        f"Zipf keyed workload ({NUM_OPERATIONS} ops, {NUM_KEYS} keys) vs pool count",
        ("pools", "shards", "makespan", "ops/time", "shard CV",
         "storage CV", "wall ms"),
        rows,
    )
    # Growing the cluster must not degrade virtual-time throughput: the
    # workload is fixed, so the makespan is dominated by the hottest key,
    # not by the pool count.
    assert results[8]["throughput"] >= 0.5 * results[2]["throughput"]
    # Consistent hashing keeps storage spread sane at every size (the CV
    # bound is loose: with only 48 keys the placement is naturally lumpy).
    for outcome in results.values():
        assert outcome["storage_cv"] < 1.0


def test_bench_cluster_scaleout_balance_large_keyspace():
    """With a production-sized keyspace the placement balance tightens."""
    config = LDSConfig(n1=3, n2=4, f1=1, f2=1)
    cluster = ShardedCluster(config, [f"pool-{i}" for i in range(8)])
    keys = [f"obj-{i}" for i in range(20_000)]
    balance = cluster.membership.ring.balance(keys)
    emit_table(
        "cluster_placement_balance",
        "consistent-hash balance, 8 pools, 20k keys",
        ("pool", "keys"),
        sorted(balance.counts.items()),
    )
    assert balance.coefficient_of_variation < 0.15
