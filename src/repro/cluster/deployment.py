"""The sharded-cluster facade: membership + router + repair, pre-wired.

:class:`ShardedCluster` is the one-stop entry point for scale-out
experiments: it builds a :class:`~repro.cluster.membership.Membership`
with one full node set per named pool, an
:class:`~repro.cluster.router.ObjectRouter` over it on a
:class:`~repro.sim.kernel.GlobalScheduler`, and a
:class:`~repro.cluster.repair.RepairScheduler` subscribed to failures --
then exposes the small driving surface the examples and benchmarks use
(keyed reads/writes, node failure injection, pool join/leave with
automatic rebalancing, and cluster-wide inspection helpers).
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import Callable, Dict, List, Optional, Union

from repro.cluster.membership import ClusterNode, Membership, MembershipEvent
from repro.cluster.placement import RebalancePlan
from repro.cluster.repair import RepairScheduler
from repro.cluster.replicas import (
    ReadRoutingPolicy,
    ReplicaCoordinator,
    ReplicationConfig,
)
from repro.cluster.ring import derive_seed
from repro.cluster.router import ObjectRouter, RouterStats
from repro.consistency.linearizability import AtomicityViolation
from repro.core.config import LDSConfig
from repro.core.results import OperationResult
from repro.net.latency import BoundedLatencyModel, LatencyModel, ScaledLatencyModel


def seeded_latency_factory(seed, regime=None) -> Callable[[str, str], LatencyModel]:
    """The canonical seeded per-shard latency factory.

    Every (pool, key) pair gets a :class:`BoundedLatencyModel` whose seed
    derives from the root seed, so one root seed fixes every latency draw
    in the cluster.  With a :class:`~repro.net.latency.LatencyRegime`, each
    model is wrapped so scenario scripts can shift the whole cluster's
    latency at once.  Shared by :class:`ShardedCluster` and
    :class:`~repro.sim.harness.ClusterSimulation` so the derivation scheme
    cannot drift between entry points.
    """
    def factory(pool: str, key: str) -> LatencyModel:
        base = BoundedLatencyModel(seed=derive_seed(seed, "latency", pool, key))
        if regime is None:
            return base
        return ScaledLatencyModel(base, regime)

    return factory


class ShardedCluster:
    """A multi-pool, multi-object LDS deployment with background repair."""

    def __init__(self, config: LDSConfig, pool_names: List[str], *,
                 vnodes: int = 128,
                 writers_per_shard: int = 1, readers_per_shard: int = 1,
                 latency_factory: Optional[Callable[[str, str], LatencyModel]] = None,
                 repair_min_interval: float = 5.0,
                 repair_max_concurrent: int = 1,
                 repair_detection_delay: float = 1.0,
                 repair_slot_jitter: float = 0.0,
                 seed: Optional[int] = None,
                 replication: Optional[ReplicationConfig] = None,
                 read_policy: Union[str, ReadRoutingPolicy] = "primary",
                 telemetry=None, kernel=None) -> None:
        if not pool_names:
            raise ValueError("a cluster needs at least one pool")
        # Imported here: repro.sim's package init imports this module.
        from repro.sim.kernel import GlobalScheduler
        self.config = config
        #: Root RNG seed.  Every stochastic component (per-shard latency
        #: models, repair jitter) derives its own seed from it, so one seed
        #: fixes the entire global event order.
        self.seed = seed
        self.membership = Membership.for_pools(pool_names, n1=config.n1,
                                               n2=config.n2, vnodes=vnodes)
        if latency_factory is None and seed is not None:
            latency_factory = seeded_latency_factory(seed)
        if replication is not None and seed is not None \
                and replication.seed is None:
            # Thread the root seed into replica distances / lag jitter
            # unless the caller pinned one explicitly.
            replication = dc_replace(replication,
                                     seed=derive_seed(seed, "replicas"))
        self.router = ObjectRouter(
            config, self.membership, kernel or GlobalScheduler(),
            writers_per_shard=writers_per_shard,
            readers_per_shard=readers_per_shard,
            latency_factory=latency_factory,
            replication=replication,
            read_policy=read_policy,
            telemetry=telemetry,
        )
        self.repair = RepairScheduler(
            self.router,
            min_interval=repair_min_interval,
            max_concurrent=repair_max_concurrent,
            detection_delay=repair_detection_delay,
            slot_jitter=repair_slot_jitter,
            seed=None if seed is None else derive_seed(seed, "repair"),
        )

    # -- global kernel -----------------------------------------------------------

    @property
    def kernel(self):
        """The :class:`~repro.sim.kernel.GlobalScheduler` driving the cluster."""
        return self.router.kernel

    # -- driving ------------------------------------------------------------------

    def write(self, key: str, value: bytes,
              writer: Union[int, str] = 0) -> OperationResult:
        return self.router.write(key, value, writer=writer)

    def read(self, key: str, reader: Union[int, str] = 0) -> OperationResult:
        return self.router.read(key, reader=reader)

    def invoke_write(self, key: str, value: bytes, writer: Union[int, str] = 0,
                     at: Optional[float] = None,
                     session: Optional[str] = None,
                     via: Optional[str] = None) -> str:
        return self.router.invoke_write(key, value, writer=writer, at=at,
                                        session=session, via=via)

    def invoke_read(self, key: str, reader: Union[int, str] = 0,
                    at: Optional[float] = None,
                    session: Optional[str] = None) -> str:
        return self.router.invoke_read(key, reader=reader, at=at,
                                       session=session)

    def flush_key(self, key: str) -> int:
        return self.router.flush_key(key)

    def check_workload_clients(self, workload) -> None:
        self.router.check_workload_clients(workload)

    def add_workload(self, workload, start: float = 0.0, on_handle=None) -> int:
        """Schedule the workload's operations as kernel arrival events."""
        return self.router.add_workload(workload, start=start,
                                        on_handle=on_handle)

    def run_until_idle(self, max_events: int = 10_000_000) -> None:
        self.router.run_until_idle(max_events=max_events)

    # -- membership operations ---------------------------------------------------------

    @property
    def replicas(self) -> Optional[ReplicaCoordinator]:
        """The replica-group coordinator (None when replication is off)."""
        return self.router.replicas

    def fail_node(self, node_id: str, time: float = 0.0) -> MembershipEvent:
        """Crash one pool node; the repair scheduler takes it from there."""
        return self.membership.fail(node_id, time=time)

    def fail_pool(self, pool: str, time: float = 0.0) -> List[MembershipEvent]:
        """Crash every alive node of a pool (correlated pool loss).

        The kill is atomic at the membership level (every listener sees
        the pool already down); with replica groups that is the signal
        driving primary failover and follower re-provisioning (see
        :mod:`repro.cluster.replicas`).  Without replicas the pool's
        shards simply stall until an administrator migrates them away.
        """
        return self.membership.fail_pool(pool, time=time)

    def add_pool(self, pool: str, time: float = 0.0,
                 weight: float = 1.0) -> RebalancePlan:
        """Join a new pool (full node set) and rebalance onto it."""
        self.membership.join_pool(pool, n1=self.config.n1, n2=self.config.n2,
                                  weight=weight, time=time)
        return self.router.rebalance(reason=f"join {pool}", time=time)

    def remove_pool(self, pool: str, time: float = 0.0) -> RebalancePlan:
        """Drain a pool out of the ring and migrate its shards away."""
        self.membership.leave_pool(pool, time=time)
        return self.router.rebalance(reason=f"leave {pool}", time=time)

    def node(self, node_id: str) -> ClusterNode:
        return self.membership.node(node_id)

    # -- inspection ---------------------------------------------------------------------

    def check_atomicity(self) -> Optional[AtomicityViolation]:
        """Per-object (per-epoch) atomicity over everything recorded so far."""
        return self.router.check_atomicity()

    def history(self):
        """The merged global-clock history across all shards and epochs."""
        return self.router.history()

    def operation_cost(self, handle: str) -> float:
        return self.router.operation_cost(handle)

    def shard_counts(self) -> Dict[str, int]:
        return self.router.shard_counts()

    def storage_by_pool(self) -> Dict[str, float]:
        return self.router.storage_by_pool()

    @property
    def communication_cost(self) -> float:
        return self.router.communication_cost

    @property
    def router_stats(self) -> RouterStats:
        return self.router.stats

    def describe(self) -> str:
        """One-line cluster summary."""
        return (
            f"ShardedCluster(pools={len(self.membership.pools)}, "
            f"shards={len(self.router.shards)}, {self.config.describe()})"
        )


__all__ = ["ShardedCluster"]
