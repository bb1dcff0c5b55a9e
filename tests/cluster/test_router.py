"""ObjectRouter fan-out correctness, batching and migration."""

from __future__ import annotations

import pytest

from repro.cluster.membership import Membership
from repro.cluster.router import ObjectRouter
from repro.core.config import LDSConfig
from repro.net.latency import FixedLatencyModel
from repro.sim.kernel import GlobalScheduler

POOLS = ["pool-0", "pool-1", "pool-2"]


@pytest.fixture
def config() -> LDSConfig:
    return LDSConfig(n1=3, n2=4, f1=1, f2=1)


@pytest.fixture
def router(config) -> ObjectRouter:
    membership = Membership.for_pools(POOLS, n1=config.n1, n2=config.n2)
    return ObjectRouter(
        config, membership, GlobalScheduler(),
        latency_factory=lambda pool, key: FixedLatencyModel(tau0=1, tau1=1, tau2=10),
    )


class TestFanOut:
    def test_values_round_trip_per_key(self, router):
        for i in range(12):
            router.write(f"obj-{i}", f"value-{i}".encode())
        for i in range(12):
            assert router.read(f"obj-{i}").value == f"value-{i}".encode()

    def test_shards_land_on_the_ring_prescribed_pool(self, router):
        for i in range(20):
            router.write(f"obj-{i}", b"x")
        for key, shard in router.shards.items():
            assert shard.pool == router.membership.pool_for(key)

    def test_keys_are_isolated(self, router):
        router.write("obj-a", b"alpha")
        router.write("obj-b", b"beta")
        assert router.read("obj-a").value == b"alpha"
        assert router.read("obj-b").value == b"beta"

    def test_shard_counts_cover_all_pools(self, router):
        for i in range(30):
            router.write(f"obj-{i}", b"x")
        counts = router.shard_counts()
        assert set(counts) == set(POOLS)
        assert sum(counts.values()) == 30

    def test_merged_history_is_well_formed_and_atomic(self, router):
        for i in range(8):
            router.write(f"obj-{i}", bytes([i + 1]) * 4)
            router.read(f"obj-{i}")
        history = router.history()
        assert len(history) == 16
        assert history.is_well_formed()
        assert router.check_atomicity() is None

    def test_operation_cost_and_communication_cost(self, router):
        handle_w = router.invoke_write("obj-0", b"payload")
        router.run_until_idle()
        assert router.operation_cost(handle_w) > 0
        assert router.communication_cost >= router.operation_cost(handle_w)
        assert router.result(handle_w) is not None


class TestBatching:
    def test_queued_operations_flush_as_one_batch_per_shard(self, router):
        for index in range(6):
            router.invoke_write("obj-0", bytes([index + 1]), at=60.0 * index)
        assert router.stats.batches_flushed == 0
        flushed = router.flush()
        assert flushed == 6
        assert router.stats.batches_flushed == 1
        assert router.stats.largest_batch == 6
        router.run_until_idle()
        assert router.check_atomicity() is None

    def test_scheduling_behind_the_shard_clock_shifts_the_batch(self, router):
        router.invoke_write("obj-0", b"first", at=0.0)
        router.run_until_idle()
        # The shard clock is now far ahead of t=0; a new nominal window
        # starting at 0 must be shifted, preserving client well-formedness.
        router.invoke_write("obj-0", b"second", at=0.0)
        router.invoke_read("obj-0", at=60.0)
        router.run_until_idle()
        assert router.check_atomicity() is None
        assert router.incomplete_operations() == 0
        assert router.read("obj-0").value == b"second"


class TestFailureHandling:
    def test_node_failure_crashes_the_slot_on_every_pool_shard(self, router, config):
        for i in range(20):
            router.write(f"obj-{i}", b"x")
        pool = "pool-1"
        affected = router.shards_on_pool(pool)
        assert affected, "placement should put some of 20 keys on pool-1"
        router.membership.fail(f"{pool}/l2-2", time=0.0)
        for shard in affected:
            assert shard.system.alive_l2_count() == config.n2 - 1
        for shard in router.shards.values():
            if shard.pool != pool:
                assert shard.system.alive_l2_count() == config.n2

    def test_shard_created_on_degraded_pool_starts_degraded(self, router, config):
        router.membership.fail("pool-0/l2-0", time=0.0)
        key = next(k for k in (f"k-{i}" for i in range(100))
                   if router.membership.pool_for(k) == "pool-0")
        shard = router.shard(key)
        assert shard.system.alive_l2_count() == config.n2 - 1

    def test_reads_survive_one_l2_failure(self, router):
        router.write("obj-0", b"durable")
        pool = router.shards["obj-0"].pool
        router.membership.fail(f"{pool}/l2-0", time=0.0)
        assert router.read("obj-0").value == b"durable"


class TestMigration:
    def test_rebalance_moves_values_and_keeps_atomicity(self, router, config):
        for i in range(15):
            router.write(f"obj-{i}", f"v{i}".encode())
        router.membership.join_pool("pool-3", n1=config.n1, n2=config.n2)
        plan = router.rebalance(reason="join pool-3")
        assert plan.moves, "a new pool should attract some shards"
        assert router.stats.migrations == len(plan)
        for move in plan.moves:
            assert router.shards[move.key].pool == move.target
            assert router.shards[move.key].epoch == 1
        for i in range(15):
            assert router.read(f"obj-{i}").value == f"v{i}".encode()
        assert router.check_atomicity() is None

    def test_archived_epoch_results_remain_queryable(self, router, config):
        handle = router.invoke_write("obj-0", b"before-move")
        router.run_until_idle()
        cost_before = router.operation_cost(handle)
        router.membership.join_pool("pool-3", n1=config.n1, n2=config.n2)
        # Force a move of obj-0 regardless of where the ring would put it.
        from repro.cluster.placement import ShardMove
        source = router.shards["obj-0"].pool
        target = next(p for p in router.membership.pools if p != source)
        router.migrate(ShardMove(key="obj-0", source=source, target=target))
        assert router.result(handle) is not None
        assert router.operation_cost(handle) == cost_before
        assert router.read("obj-0").value == b"before-move"

    def test_migration_copy_read_is_excluded_from_merged_history(self, router, config):
        from repro.cluster.placement import ShardMove
        router.write("obj-0", b"payload")
        before_reads = len(router.history().reads())
        source = router.shards["obj-0"].pool
        target = next(p for p in router.membership.pools if p != source)
        router.migrate(ShardMove(key="obj-0", source=source, target=target))
        # The internal copy read is real traffic but not a workload read.
        assert len(router.history().reads()) == before_reads
        assert router.check_atomicity() is None


class TestGlobalClockOffsets:
    def test_missing_offset_raises_instead_of_misplacing_the_epoch(
            self, router):
        router.write("obj-0", b"x")
        del router._kernel_offsets["obj-0"]
        with pytest.raises(RuntimeError, match="offset"):
            router.history()


class TestSessionThreading:
    def test_sessions_attach_to_merged_history(self, router):
        router.invoke_write("obj-0", b"a", session="alice")
        router.invoke_read("obj-1", session="alice")
        router.invoke_write("obj-2", b"b")
        router.run_until_idle()
        sessions = {op.object_id: op.session for op in router.history()}
        assert sessions["obj-0"] == "alice"
        assert sessions["obj-1"] == "alice"
        assert sessions["obj-2"] is None

    def test_sessions_survive_migration_archival(self, router):
        from repro.cluster.placement import ShardMove

        router.invoke_write("obj-0", b"x", session="s")
        router.run_until_idle()
        source = router.shards["obj-0"].pool
        target = next(p for p in router.membership.pools if p != source)
        router.migrate(ShardMove(key="obj-0", source=source, target=target))
        [write_op] = router.history().writes()
        assert write_op.session == "s"

    def test_keys_colliding_with_epoch_suffix_are_rejected(self, router):
        """A user key ending in '@e<n>' would make merged object ids (and
        the session auditor's key/epoch parse) ambiguous."""
        with pytest.raises(ValueError, match="reserved epoch suffix"):
            router.write("sensor@e2", b"x")
        router.write("sensor@exp", b"x")  # non-numeric suffix is a plain key
        assert router.read("sensor@exp").value == b"x"
