"""The telemetry facade: one object configuring all four pillars.

Construct a :class:`Telemetry`, hand it to
:class:`~repro.sim.harness.ClusterSimulation` (``telemetry=``), and the
harness threads it through the cluster:

* the router's :class:`RouterStats` registers its counters on
  :attr:`registry` instead of a private one;
* ``trace=True`` attaches a :class:`TraceRecorder` that the router and
  replica layers emit per-operation spans into;
* ``sample_interval=<units>`` starts a :class:`ClusterSampler` on the
  kernel's telemetry probe source;
* ``profile=True`` enables the kernel's pump profiling hooks;
* ``live_audit=True`` runs the streaming session auditor online
  (:class:`~repro.obs.live_audit.LiveAuditProbe`) -- usually requested
  through ``ClusterSimulation(live_audit=True)``;
* ``availability_interval=<units>`` starts the sampling
  :class:`~repro.obs.availability.AvailabilityMonitor`;
* ``latency=True`` attaches a :class:`~repro.obs.latency.LatencyTracker`
  to the same span stream the tracer consumes (per-op-class quantile
  sketches, phase decomposition, critical-path attribution) -- usually
  requested through ``ClusterSimulation(latency=True)``;
* ``slo_interval=<units>`` (or ``slos=(...)``) runs a
  :class:`~repro.obs.slo.SLOTracker` probe accounting error budgets and
  burn rates against per-op-class targets (implies ``latency``).

Every pillar defaults to off except the registry (which costs a few
dict entries); :meth:`Telemetry.full` turns the four passive pillars on
(the audit pillars stay opt-in: they change the *audit path*, not the
execution, and ``full()`` keeps its historical meaning).  None of the
pillars perturbs the simulation -- see the module docs of
:mod:`repro.obs.sampler` and :mod:`repro.sim.kernel` for why runs stay
byte-identical with telemetry on or off.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.availability import (
    DEFAULT_AVAILABILITY_INTERVAL,
    DEFAULT_SAMPLES_PER_EPOCH,
    AvailabilityMonitor,
)
from repro.obs.latency import LatencyTracker, SpanSinkFanout
from repro.obs.live_audit import DEFAULT_AUDIT_INTERVAL, LiveAuditProbe
from repro.obs.registry import MetricsRegistry
from repro.obs.report import render_run_report
from repro.obs.sampler import DEFAULT_INTERVAL, ClusterSampler
from repro.obs.slo import DEFAULT_SLO_INTERVAL, SLOTracker
from repro.obs.trace import TraceRecorder


class Telemetry:
    """Configuration + sinks for one simulation's observability."""

    def __init__(self, *, registry: Optional[MetricsRegistry] = None,
                 trace: bool = False,
                 sample_interval: Optional[float] = None,
                 profile: bool = False,
                 live_audit: bool = False,
                 audit_interval: float = DEFAULT_AUDIT_INTERVAL,
                 availability_interval: Optional[float] = None,
                 availability_samples: int = DEFAULT_SAMPLES_PER_EPOCH,
                 availability_seed: Optional[int] = None,
                 latency: bool = False,
                 slos=None,
                 slo_interval: Optional[float] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.trace: Optional[TraceRecorder] = \
            TraceRecorder() if trace else None
        self.sample_interval = sample_interval
        self.profile = bool(profile)
        self.live_audit = bool(live_audit)
        self.audit_interval = audit_interval
        self.availability_interval = availability_interval
        self.availability_samples = availability_samples
        #: Seed for the availability monitor's probe-only RNG; derived
        #: from the simulation's seed at attach time when left ``None``.
        self.availability_seed = availability_seed
        #: SLO tracking implies the latency tracker it accounts against.
        self.slos = slos
        self.slo_interval = slo_interval
        if slos is not None and slo_interval is None:
            self.slo_interval = DEFAULT_SLO_INTERVAL
        self.latency: Optional[LatencyTracker] = None
        if latency or self.slo_interval is not None:
            self.latency = LatencyTracker(registry=self.registry)
        #: Filled by :meth:`attach`.
        self.sampler: Optional[ClusterSampler] = None
        self.pump_profile = None
        self.auditor: Optional[LiveAuditProbe] = None
        self.availability: Optional[AvailabilityMonitor] = None
        self.slo: Optional[SLOTracker] = None

    @classmethod
    def full(cls, sample_interval: float = DEFAULT_INTERVAL) -> "Telemetry":
        """Everything on: registry + sampler + tracer + pump profile +
        latency decomposition."""
        return cls(trace=True, sample_interval=sample_interval, profile=True,
                   latency=True)

    @classmethod
    def audited(cls, sample_interval: float = DEFAULT_INTERVAL,
                availability_interval: float = DEFAULT_AVAILABILITY_INTERVAL,
                ) -> "Telemetry":
        """``full()`` plus the online audit pillars: live session auditing
        and sampled availability monitoring."""
        return cls(trace=True, sample_interval=sample_interval, profile=True,
                   live_audit=True,
                   availability_interval=availability_interval)

    def enable_latency(self) -> None:
        """Turn the latency pillar on (idempotent).

        Must happen before the cluster is built -- the router captures
        its span sink at construction (the harness's ``latency=True``
        path calls this at the right moment)."""
        if self.latency is None:
            self.latency = LatencyTracker(registry=self.registry)

    def op_sink(self):
        """The span sink the router/replica layers should emit into:
        the trace recorder, the latency tracker, or a fanout over both
        (None when neither pillar is on)."""
        if self.trace is not None and self.latency is not None:
            return SpanSinkFanout(self.trace, self.latency)
        if self.latency is not None:
            return self.latency
        return self.trace

    def attach(self, simulation) -> None:
        """Wire the configured pillars to a built simulation.

        Called once by ``ClusterSimulation.__init__`` after the kernel
        and cluster exist (but before any shard is built, so the audit
        feed's completion observers reach every shard); idempotent
        pillars (the registry, the trace) were already threaded through
        construction.
        """
        if self.live_audit and self.auditor is None:
            self.auditor = LiveAuditProbe(
                simulation,
                interval=self.audit_interval,
                registry=self.registry,
                trace=self.trace,
            )
            self.auditor.start()
        if self.availability_interval is not None and self.availability is None:
            seed = self.availability_seed
            if seed is None:
                # Derived, not shared: reproducible per run seed, but a
                # different stream from every simulation RNG.
                seed = (getattr(simulation, "seed", 0) or 0) ^ 0xA5A11AB1
            self.availability = AvailabilityMonitor(
                simulation,
                interval=self.availability_interval,
                samples_per_epoch=self.availability_samples,
                seed=seed,
                registry=self.registry,
                trace=self.trace,
            )
            self.availability.start()
        if self.sample_interval is not None and self.sampler is None:
            self.sampler = ClusterSampler(
                simulation,
                interval=self.sample_interval,
                registry=self.registry,
                trace=self.trace,
            )
            self.sampler.start()
        if self.slo_interval is not None and self.slo is None:
            self.enable_latency()
            self.slo = SLOTracker(
                simulation,
                self.latency,
                slos=self.slos,
                interval=self.slo_interval,
                registry=self.registry,
                trace=self.trace,
            )
            self.slo.start()
        if self.profile:
            self.pump_profile = simulation.kernel.enable_profiling()

    def report(self, simulation) -> str:
        """The terminal run report for ``simulation``."""
        return render_run_report(simulation, self)


__all__ = ["Telemetry"]
