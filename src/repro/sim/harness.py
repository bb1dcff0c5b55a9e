"""The global-clock cluster harness.

:class:`ClusterSimulation` is the one-stop entry point for cross-shard
timing experiments: it builds a :class:`~repro.cluster.deployment.ShardedCluster`
whose every stochastic component derives from one root seed, drives it
with its own :class:`~repro.sim.kernel.GlobalScheduler`, wraps every
per-shard latency model in a shared
:class:`~repro.net.latency.LatencyRegime` (so scenarios can shift the
whole cluster between latency regimes), and exposes:

* the keyed driving API (``invoke_write`` / ``invoke_read`` /
  ``run_until_idle`` / ``history`` / ``check_atomicity`` / ...), so
  :class:`~repro.workloads.runner.KeyedWorkloadRunner` drives it exactly
  like a router -- except arrivals, repairs and migrations now interleave
  on one global clock;
* :meth:`add_workload` -- schedule a keyed workload's operations as timed
  *arrival events* on the kernel (each operation is injected into its
  shard at its nominal global time, creating the shard then if needed);
* :meth:`apply` -- run a declarative :class:`~repro.sim.scenario.Scenario`;
* :meth:`timeline` -- the merged global timeline of foreground operations,
  background repairs, migrations and scenario actions, which is what the
  examples print and the interleaving tests assert on.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from typing import Union

from repro.cluster.deployment import ShardedCluster, seeded_latency_factory
from repro.cluster.repair import GAVE_UP
from repro.cluster.replicas import ReadRoutingPolicy, ReplicationConfig
from repro.consistency.history import History
from repro.consistency.linearizability import AtomicityViolation
from repro.consistency.sessions import ClusterAuditReport, check_sessions
from repro.core.config import LDSConfig
from repro.net.latency import LatencyRegime
from repro.sim.kernel import GlobalScheduler, KernelStats
from repro.sim.scenario import Scenario, ScenarioEngine
from repro.workloads.generator import Workload


class ClusterSimulation:
    """A sharded cluster driven end to end by one global simulation kernel."""

    def __init__(self, config: LDSConfig, pool_names: List[str], *,
                 seed: int = 0, record_trace: bool = False,
                 vnodes: int = 128,
                 writers_per_shard: int = 1, readers_per_shard: int = 1,
                 repair_min_interval: float = 5.0,
                 repair_max_concurrent: int = 1,
                 repair_detection_delay: float = 1.0,
                 repair_slot_jitter: float = 0.0,
                 replication: Optional[ReplicationConfig] = None,
                 read_policy: Union[str, ReadRoutingPolicy] = "primary",
                 telemetry=None, live_audit: bool = False,
                 latency: bool = False,
                 sanitize: bool = False) -> None:
        self.seed = seed
        self.kernel = GlobalScheduler(record_trace=record_trace)
        self.latency_regime = LatencyRegime()
        if latency:
            # Tail-latency observability: per-op-class quantile sketches,
            # phase decomposition and critical-path attribution over the
            # span stream (see repro.obs.latency).  Enabled here, before
            # the cluster is built, because the router captures its span
            # sink at construction.
            from repro.obs.telemetry import Telemetry
            if telemetry is None:
                telemetry = Telemetry(latency=True)
            else:
                telemetry.enable_latency()
        if live_audit:
            # Online correctness observability: run the streaming session
            # auditor and the sampling availability monitor during the
            # simulation (probe-driven, so fingerprints stay identical;
            # see repro.obs.live_audit / repro.obs.availability).
            from repro.obs.availability import DEFAULT_AVAILABILITY_INTERVAL
            from repro.obs.telemetry import Telemetry
            if telemetry is None:
                telemetry = Telemetry(
                    live_audit=True,
                    availability_interval=DEFAULT_AVAILABILITY_INTERVAL)
            else:
                telemetry.live_audit = True
                if telemetry.availability_interval is None:
                    telemetry.availability_interval = \
                        DEFAULT_AVAILABILITY_INTERVAL
        #: Optional :class:`repro.obs.Telemetry` bundle.  Purely
        #: observational: a run with telemetry attached produces the same
        #: kernel fingerprint and histories as the same seed without it.
        self.telemetry = telemetry
        self.cluster = ShardedCluster(
            config, pool_names,
            vnodes=vnodes,
            writers_per_shard=writers_per_shard,
            readers_per_shard=readers_per_shard,
            latency_factory=seeded_latency_factory(seed,
                                                   regime=self.latency_regime),
            repair_min_interval=repair_min_interval,
            repair_max_concurrent=repair_max_concurrent,
            repair_detection_delay=repair_detection_delay,
            repair_slot_jitter=repair_slot_jitter,
            seed=seed,
            replication=replication,
            read_policy=read_policy,
            telemetry=telemetry,
            kernel=self.kernel,
        )
        if self.cluster.replicas is not None:
            # Follower-read latency scales with the shared regime, so a
            # latency-shift action slows replica serves like protocol
            # traffic.
            self.cluster.replicas.latency_regime = self.latency_regime
        if telemetry is not None:
            telemetry.attach(self)
        if sanitize:
            # Runtime invariant checking on the pump (clock monotonicity,
            # local-past scheduling, probe purity, pending-map leaks).
            # Purely observational: a sanitized run produces the same
            # kernel fingerprint as the same seed without it.
            sanitizer = self.kernel.enable_sanitizer()
            if self.cluster.replicas is not None:
                for name, mapping in self.cluster.replicas.sanitizer_watches():
                    sanitizer.watch_map(name, mapping)
        self.engine = ScenarioEngine(self)

    # -- conveniences over the wired parts ---------------------------------------

    @property
    def config(self) -> LDSConfig:
        return self.cluster.config

    @property
    def router(self):
        return self.cluster.router

    @property
    def membership(self):
        return self.cluster.membership

    @property
    def repair(self):
        return self.cluster.repair

    @property
    def replicas(self):
        """The replica-group coordinator (None when replication is off)."""
        return self.cluster.replicas

    def read_distribution(self):
        """Per-replica read counts / routing hit rates of the run so far."""
        from repro.workloads.metrics import ReadDistribution
        return ReadDistribution.from_router_stats(self.cluster.router.stats)

    @property
    def now(self) -> float:
        return self.kernel.now

    @property
    def interleaving(self) -> KernelStats:
        return self.kernel.stats

    def set_latency_scale(self, scale: float) -> None:
        """Shift the whole cluster's latency regime (takes effect on the
        next message of every shard)."""
        self.latency_regime.set(scale)

    def ensure_shards(self, keys) -> None:
        """Pre-warm shards at the current global time.

        Shards are otherwise created lazily at their first arrival, so a
        failure scripted early in a scenario would only touch the few
        shards that happen to exist by then.
        """
        self.cluster.router.ensure_shards(keys)

    # -- workload arrivals ----------------------------------------------------------

    @property
    def arrivals(self) -> int:
        """Count of operations injected through kernel arrival events."""
        return self.cluster.router.stats.arrivals

    def add_workload(self, workload: Workload, start: float = 0.0,
                     on_handle=None) -> int:
        """Schedule a keyed workload's operations as kernel arrival events
        (see :meth:`ObjectRouter.add_workload`, the single implementation)."""
        return self.cluster.router.add_workload(workload, start=start,
                                                on_handle=on_handle)

    def check_workload_clients(self, workload: Workload) -> None:
        """Reject a workload addressing more per-shard clients than exist
        (e.g. the flash-crowd scenario's second client population on a
        default one-client simulation) -- see the router's check."""
        self.cluster.router.check_workload_clients(workload)

    # -- the keyed driving API (KeyedDrivableSystem) ----------------------------------

    def invoke_write(self, key: str, value: bytes, writer=0,
                     at: Optional[float] = None,
                     session: Optional[str] = None,
                     via: Optional[str] = None) -> str:
        return self.cluster.invoke_write(key, value, writer=writer, at=at,
                                         session=session, via=via)

    def invoke_read(self, key: str, reader=0,
                    at: Optional[float] = None,
                    session: Optional[str] = None) -> str:
        return self.cluster.invoke_read(key, reader=reader, at=at,
                                        session=session)

    def flush_key(self, key: str) -> int:
        return self.cluster.flush_key(key)

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        self.cluster.router.flush()
        self.kernel.run(until=until, max_events=max_events)

    def run_until_idle(self, max_events: int = 10_000_000) -> None:
        self.cluster.run_until_idle(max_events=max_events)

    def run_report(self) -> str:
        """The telemetry run report (requires a telemetry bundle)."""
        if self.telemetry is None:
            raise ValueError("this simulation was built without telemetry")
        return self.telemetry.report(self)

    def history(self) -> History:
        return self.cluster.history()

    def check_atomicity(self) -> Optional[AtomicityViolation]:
        return self.cluster.check_atomicity()

    def audit(self) -> ClusterAuditReport:
        """The post-run correctness verdict of the whole simulation.

        Combines the per-epoch atomicity check (the paper's per-object
        guarantee) with the cross-shard session audit over the merged
        global-clock history (monotonic reads / monotonic writes /
        read-your-writes / writes-follow-reads per logical client session).
        Every shipped scenario is expected to audit clean; see
        :mod:`repro.consistency.injection` for proving the auditor's
        detection power.

        When the simulation ran with ``live_audit=True`` the session
        verdict is the streaming auditor's final state (finalized here,
        no batch re-check of the whole history -- the two are
        verdict-equivalent by construction and by
        ``tests/consistency/test_streaming.py``), and the report also
        carries the availability monitor's sampling assessment.
        """
        telemetry = self.telemetry
        auditor = getattr(telemetry, "auditor", None)
        availability = getattr(telemetry, "availability", None)
        if auditor is not None:
            sessions = auditor.report()
        else:
            sessions = check_sessions(self.history())
        return ClusterAuditReport(
            atomicity=self.check_atomicity(),
            sessions=sessions,
            availability=(availability.assessment()
                          if availability is not None else None),
        )

    def operation_cost(self, handle: str) -> float:
        return self.cluster.operation_cost(handle)

    @property
    def communication_cost(self) -> float:
        return self.cluster.communication_cost

    # -- scenarios -----------------------------------------------------------------------

    def apply(self, scenario: Scenario, run: bool = True) -> ScenarioEngine:
        """Schedule a scenario's actions; optionally pump to quiescence."""
        self.engine.schedule(scenario)
        if run:
            self.run_until_idle()
        return self.engine

    # -- the merged global timeline --------------------------------------------------------

    def timeline(self) -> List[Tuple[float, str, str]]:
        """Every simulated happening as ``(global_time, category, detail)``.

        Categories: ``invoke`` / ``respond`` (foreground operations, with
        the shard key in the detail), ``repair-start`` / ``repair-done``,
        ``migrate``, the replica-layer events (``primary-down`` /
        ``promote`` / ``follower-lost`` / ``follower-provisioned`` /
        ``read-repair``) and the scenario action kinds.  Sorted by time;
        this is
        the artefact proving repairs and migrations interleave with
        foreground operations across shards on one clock.
        """
        entries: List[Tuple[float, str, str]] = []
        for op in self.history():
            label = f"{op.kind} {op.op_id}"
            entries.append((op.invoked_at, "invoke", label))
            if op.responded_at is not None:
                entries.append((op.responded_at, "respond", label))
        for task in self.repair.tasks:
            # A task that gave up without ever executing (e.g. its shard
            # migrated away before the slot came due) never started; its
            # assigned slot time would be a phantom on the timeline.
            never_ran = task.status == GAVE_UP and task.attempts == 0
            if task.scheduled_at is not None and not never_ran:
                entries.append((task.scheduled_at, "repair-start",
                                f"{task.key} l2-{task.l2_index}"))
            if task.completed_at is not None:
                entries.append((task.completed_at, "repair-done",
                                f"{task.key} l2-{task.l2_index}"))
        for time, key, source, target in self.cluster.router.migration_log:
            entries.append((time, "migrate", f"{key}: {source} -> {target}"))
        if self.cluster.replicas is not None:
            # primary-down / promote / follower-lost / follower-provisioned
            # / read-repair.
            entries.extend(self.cluster.replicas.failover_log)
        for time, kind, detail in self.engine.log:
            entries.append((time, kind, detail))
        entries.sort(key=lambda entry: entry[0])
        return entries

    def describe(self) -> str:
        stats = self.kernel.stats
        return (
            f"ClusterSimulation(seed={self.seed}, now={self.kernel.now:.1f}, "
            f"sources={len(self.kernel.sources())}, "
            f"events={stats.events_total}, "
            f"switch_rate={stats.switch_rate:.2f}, "
            f"{self.cluster.describe()})"
        )


__all__ = ["ClusterSimulation"]
