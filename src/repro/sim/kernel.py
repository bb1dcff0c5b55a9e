"""The global-clock simulation kernel.

Each :class:`~repro.core.system.LDSSystem` owns a private
:class:`~repro.net.simulator.Simulator`, so a sharded cluster is a federation
of independent event queues.  Running them one after another would destroy
every cross-shard timing phenomenon: background repair slots would never
compete with foreground load, migrations would never overlap writes, and
correlated failures would collapse into sequential ones.

The :class:`GlobalScheduler` -- the one execution backend every cluster
runs on -- avoids that by multiplexing any number of
per-shard simulators -- plus its own kernel event queue for scenario actions
and workload arrivals -- onto **one monotonic global clock**:

* every registered simulator becomes a :class:`SimulatorSource` with a fixed
  ``offset`` mapping its local clock onto the global one (``global = offset +
  local``); a shard created at global time *g* simply gets ``offset = g``;
* each :meth:`step` picks the source whose next pending event has the
  smallest global time and executes exactly that one event, so events from
  different shards interleave exactly as their timestamps dictate;
* ties are broken by source registration order, and each simulator's own
  queue is FIFO at equal times, so the merged order is a pure function of
  the event timestamps -- deterministic under a fixed seed.

The kernel also maintains a rolling CRC *fingerprint* of the executed
``(source, time)`` sequence, giving determinism tests an O(1)-memory
signature of the entire global event order, and (optionally) a full trace.

Two observability hooks ride on the pump (see :mod:`repro.obs`), both
designed to leave that fingerprint untouched:

* :meth:`GlobalScheduler.schedule_probe` places observation-only events
  on a dedicated ``telemetry`` source that executes at its scheduled
  instant but bypasses the global clock, the stats, the fingerprint and
  the trace -- so a sampled run is byte-identical to an unsampled one.
  :meth:`GlobalScheduler.every` builds periodic probes on it; the
  cluster sampler, the live session auditor
  (:mod:`repro.obs.live_audit`), the availability monitor
  (:mod:`repro.obs.availability`) and the SLO tracker
  (:mod:`repro.obs.slo`) are all periodic probes;
* :meth:`GlobalScheduler.enable_profiling` attributes every executed
  event to its callback's qualified name (count, simulated-time and
  wall-time), feeding the flamegraph work; off by default, and the
  per-event cost when off is a single ``is None`` check;
* :meth:`GlobalScheduler.enable_sanitizer` turns on runtime invariant
  checking (clock monotonicity, no scheduling into a source's local
  past, probe purity, pending-map leaks -- see
  :mod:`repro.sim.sanitizer`) with the same off-cost and the same
  byte-identity guarantee.
"""

from __future__ import annotations

import heapq
import zlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.net.simulator import EventHandle, Simulator

#: Name of the kernel's own event queue (scenario actions, arrivals).
KERNEL_SOURCE = "kernel"

#: Name of the observation-only probe queue (never fingerprinted).
TELEMETRY_SOURCE = "telemetry"


class SimulatorSource:
    """One per-shard simulator adapted onto the global clock."""

    def __init__(self, name: str, simulator: Simulator, offset: float = 0.0) -> None:
        self.name = name
        self.simulator = simulator
        self.offset = offset
        self.events_executed = 0
        #: Registration order; the kernel breaks global-time ties by it.
        self.order = 0

    def next_time(self) -> Optional[float]:
        """Global time of the source's next pending event (None when idle)."""
        local = self.simulator.peek_time()
        return None if local is None else self.offset + local

    def step(self) -> bool:
        """Run exactly one event of the underlying simulator."""
        ran = self.simulator.step()
        if ran:
            self.events_executed += 1
        return ran

    def to_global(self, local_time: float) -> float:
        return self.offset + local_time

    def to_local(self, global_time: float) -> float:
        return global_time - self.offset

    @property
    def global_now(self) -> float:
        """The source's local clock expressed on the global timeline."""
        return self.offset + self.simulator.now


class _Periodic:
    """One :meth:`GlobalScheduler.every` cadence, scheduled as its own
    tick event.  ``func`` is the probe callback: the pump profiler
    attributes ticks to it, not to the kernel."""

    def __init__(self, kernel: "GlobalScheduler", interval: float,
                 func: Callable[[float], None]) -> None:
        self._kernel = kernel
        self.interval = interval
        self.func = func
        #: Nominal time of the pending (or last) tick.
        self.next_tick = 0.0
        #: False once a tick found no pending foreground work.
        self.armed = False

    def arm(self, tick: float) -> None:
        self.next_tick = tick
        self.armed = True
        kernel = self._kernel
        # A tick clamped behind the telemetry clock runs late, so its
        # nominal successor may already lie in the global past.
        kernel.schedule_probe(max(tick, kernel.now), self)

    def __call__(self) -> None:
        tick = self.next_tick
        self.func(tick)
        if self._kernel.pending_work():
            self.arm(tick + self.interval)
        else:
            self.armed = False


@dataclass
class KernelStats:
    """Interleaving statistics of the merged execution."""

    events_total: int = 0
    #: Events executed per source name (retains unregistered sources).
    events_by_source: Dict[str, int] = field(default_factory=dict)
    #: Number of consecutive event pairs drawn from *different* sources --
    #: the direct measure of cross-shard interleaving (0 means the merged
    #: execution degenerated into per-shard blocks).
    context_switches: int = 0
    _last_source: Optional[str] = None

    def record(self, source_name: str) -> None:
        self.events_total += 1
        self.events_by_source[source_name] = (
            self.events_by_source.get(source_name, 0) + 1
        )
        if self._last_source is not None and self._last_source != source_name:
            self.context_switches += 1
        self._last_source = source_name

    @property
    def switch_rate(self) -> float:
        """Fraction of event transitions that crossed source boundaries."""
        if self.events_total <= 1:
            return 0.0
        return self.context_switches / (self.events_total - 1)

    def busiest_sources(self, limit: int = 5) -> List[Tuple[str, int]]:
        ranked = sorted(self.events_by_source.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:limit]


class GlobalScheduler:
    """Merges many simulators into one deterministic global event pump."""

    def __init__(self, record_trace: bool = False) -> None:
        self._sources: Dict[str, SimulatorSource] = {}
        self._retired_offsets: Dict[str, float] = {}
        self._now = 0.0
        #: Lazy min-heap over source head times: (global_time, registration
        #: order, source name, entry version).  An entry is valid only while
        #: its version matches ``_heap_versions[name]`` and its time matches
        #: the source's current head; anything else is discarded (and
        #: refreshed) on pop, so stale entries are tolerated instead of
        #: removed eagerly.  Sources push fresh entries through their
        #: simulator's head listener whenever scheduling moves a head
        #: earlier, which keeps the heap sound without rescanning every
        #: source per event: each step costs O(log S) instead of O(S).
        self._heap: List[Tuple[float, int, str, int]] = []
        self._heap_versions: Dict[str, int] = {}
        self._registrations = 0
        self.stats = KernelStats()
        self.record_trace = record_trace
        #: Full (global_time, source_name) trace when ``record_trace`` is on.
        self.trace: List[Tuple[float, str]] = []
        self._fingerprint = 0
        #: Lazily created on the first :meth:`schedule_probe`.
        self._telemetry_source: Optional[SimulatorSource] = None
        #: Periodic probes registered through :meth:`every`.
        self._periodic: List[_Periodic] = []
        #: Pump profile (:class:`repro.obs.profile.PumpProfile`) or None.
        self._profile = None
        #: Runtime sanitizer (:class:`repro.sim.sanitizer.KernelSanitizer`)
        #: or None; like the profile, checked with a single ``is None``
        #: per event when off.
        self._sanitizer = None
        # The kernel's own queue carries scenario actions and workload
        # arrivals; registering it first makes kernel events win every tie
        # against shard events at the same global time, so an arrival at t
        # is injected before the shards advance past t.
        self._kernel_sim = Simulator()
        self.register_simulator(self._kernel_sim, name=KERNEL_SOURCE, offset=0.0)

    # -- source registry --------------------------------------------------------

    @property
    def now(self) -> float:
        """The current global virtual time (monotonically non-decreasing)."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self.stats.events_total

    def register_simulator(self, simulator: Simulator, name: str,
                           offset: Optional[float] = None) -> SimulatorSource:
        """Adopt a simulator as an event source on the global clock.

        When ``offset`` is omitted the simulator's *current* local time is
        aligned with the *current* global time, which is the right thing
        both for fresh simulators (local 0 == now) and for simulators
        attached after they already ran on their own.
        """
        if name in self._sources:
            raise ValueError(f"duplicate event source {name!r}")
        if offset is None:
            offset = self._now - simulator.now
        source = SimulatorSource(name=name, simulator=simulator, offset=offset)
        source.order = self._registrations
        self._registrations += 1
        self._sources[name] = source
        self._retired_offsets.pop(name, None)
        simulator.set_head_listener(lambda: self._push_head(name))
        self._push_head(name)
        if self._sanitizer is not None:
            self._sanitizer.attach_source(source)
        return source

    def unregister(self, name: str) -> None:
        """Drop a source (e.g. a drained pre-migration shard).

        The offset stays queryable through :meth:`offset_of` for
        inspection; the authoritative history-to-global mapping lives with
        the owner of the source (the router keeps its own per-epoch offset
        map, which also covers epochs that never were kernel sources).
        """
        source = self._sources.pop(name)
        source.simulator.set_head_listener(None)
        if self._sanitizer is not None:
            self._sanitizer.detach_source(source)
        self._heap_versions.pop(name, None)
        self._retired_offsets[name] = source.offset

    def source(self, name: str) -> SimulatorSource:
        return self._sources[name]

    def sources(self) -> List[SimulatorSource]:
        return list(self._sources.values())

    def offset_of(self, name: str) -> float:
        """Offset of a live *or retired* source."""
        live = self._sources.get(name)
        if live is not None:
            return live.offset
        return self._retired_offsets[name]

    # -- kernel events -----------------------------------------------------------

    def schedule_at(self, time: float, callback) -> EventHandle:
        """Schedule a kernel event (scenario action, arrival) at a global time."""
        if time < self._now:
            raise ValueError("cannot schedule a kernel event in the global past")
        return self._kernel_sim.schedule_at(time, callback)

    def schedule(self, delay: float, callback) -> EventHandle:
        """Schedule a kernel event ``delay`` global time units from now."""
        if delay < 0:
            raise ValueError("cannot schedule a kernel event in the global past")
        return self.schedule_at(self._now + delay, callback)

    # -- telemetry probes ----------------------------------------------------------

    def schedule_probe(self, time: float, callback) -> EventHandle:
        """Schedule an observation-only probe at a global time.

        Probes execute on the merged pump -- so a sampler sees cluster
        state exactly as of its scheduled instant -- but are invisible to
        the determinism surface: they never advance the global clock, and
        they are excluded from :attr:`stats`, the fingerprint and the
        recorded trace.  Not advancing the clock matters beyond cosmetics:
        a lagging source's clamped head executes *at* the global clock, so
        a probe that moved the clock would change real event times.

        Probe callbacks must be pure observation (read state, write
        telemetry sinks); scheduling foreground work from one would break
        the telemetry-on/off byte-identity the test suite enforces.
        """
        if time < self._now:
            raise ValueError("cannot schedule a probe in the global past")
        if self._telemetry_source is None:
            self._telemetry_source = self.register_simulator(
                Simulator(), name=TELEMETRY_SOURCE, offset=self._now
            )
        source = self._telemetry_source
        # The telemetry source's local clock may legitimately be ahead of
        # the global clock: final drain ticks run beyond the last
        # foreground event without advancing ``now``.  A probe re-arming
        # from global time (e.g. two probe families with different
        # intervals) must not land in the source's local past.
        local = max(source.to_local(time), source.simulator.now)
        if self._sanitizer is not None and local > source.to_local(time):
            self._sanitizer.note_clamp(
                "probe", TELEMETRY_SOURCE,
                requested=time, effective=source.to_global(local))
        return source.simulator.schedule_at(local, callback)

    def every(self, interval: float, callback: Callable[[float], None]) -> None:
        """Call ``callback(tick)`` as a probe every ``interval`` time units.

        Ticks fall at ``now + interval``, ``now + 2 * interval``, ... and
        are scheduled through :meth:`schedule_probe`, so they share its
        purity contract and its clamp to the telemetry source's clock (the
        callback still receives the nominal tick).  A tick that finds no
        :meth:`pending_work` is the last one: the cadence winds down
        rather than keep a drained simulation pumping, and :meth:`run` /
        :meth:`run_until_idle` re-arm it from the then-current time.
        """
        if interval <= 0:
            raise ValueError("a periodic probe needs a positive interval")
        periodic = _Periodic(self, float(interval), callback)
        self._periodic.append(periodic)
        periodic.arm(self._now + periodic.interval)

    def _rearm_periodic(self) -> None:
        """Restart every cadence that wound down (new work may exist)."""
        for periodic in self._periodic:
            if not periodic.armed:
                periodic.arm(self._now + periodic.interval)

    def pending_work(self) -> bool:
        """True while any non-telemetry source has a pending event.

        A periodic probe (:meth:`every`) checks this before scheduling its
        next tick; re-arming unconditionally would keep an otherwise
        drained simulation pumping forever.
        """
        return any(
            source.next_time() is not None
            for name, source in self._sources.items()
            if name != TELEMETRY_SOURCE
        )

    # -- pump profiling ------------------------------------------------------------

    def enable_profiling(self):
        """Turn on per-event-type pump attribution; returns the profile.

        Idempotent.  The profile never feeds the fingerprint or the clock,
        so profiled runs stay byte-identical to unprofiled ones.
        """
        if self._profile is None:
            from repro.obs.profile import PumpProfile

            self._profile = PumpProfile()
        return self._profile

    @property
    def profile(self):
        """The active :class:`PumpProfile`, or None when profiling is off."""
        return self._profile

    # -- runtime sanitizer ---------------------------------------------------------

    def enable_sanitizer(self, strict: bool = True):
        """Turn on runtime invariant checking; returns the sanitizer.

        Idempotent (``strict`` only applies on first call).  The
        sanitizer guards clock monotonicity, scheduling into a source's
        local past, probe purity and end-of-run pending-map leaks (see
        :mod:`repro.sim.sanitizer`).  It never feeds the fingerprint,
        the clock or the stats, so a sanitized run stays byte-identical
        to an unsanitized one.
        """
        if self._sanitizer is None:
            from repro.sim.sanitizer import KernelSanitizer

            self._sanitizer = KernelSanitizer(self, strict=strict)
            for source in self._sources.values():
                self._sanitizer.attach_source(source)
        return self._sanitizer

    @property
    def sanitizer(self):
        """The active :class:`KernelSanitizer`, or None when off."""
        return self._sanitizer

    # -- the event pump -------------------------------------------------------------

    def _push_head(self, name: str) -> None:
        """(Re)index a source's current head time in the heap."""
        source = self._sources.get(name)
        if source is None:
            return
        time = source.next_time()
        if time is None:
            return
        version = self._heap_versions.get(name, 0) + 1
        self._heap_versions[name] = version
        heapq.heappush(self._heap, (time, source.order, name, version))

    def _pop_valid(self) -> Optional[Tuple[float, int, str, int]]:
        """Pop the earliest heap entry that still describes a real head."""
        while self._heap:
            entry = heapq.heappop(self._heap)
            time, _order, name, version = entry
            source = self._sources.get(name)
            if source is None or version != self._heap_versions.get(name):
                continue
            actual = source.next_time()
            if actual is None:
                continue
            if actual != time:
                # The head moved without a listener notification (an event
                # at the front was cancelled): refresh and keep looking.
                self._push_head(name)
                continue
            return entry
        return None

    def peek(self) -> Optional[Tuple[float, str]]:
        """Global time and source of the next event, or None when all idle.

        A source whose head event maps before the global clock (possible
        when a simulator was attached mid-flight, or when a lagging shard
        schedules "now" locally) is clamped to *now* -- the global clock
        never moves backwards.  Ties -- including everything clamped to
        *now* -- go to the earliest-registered source, exactly as the
        pre-heap linear scan resolved them.
        """
        best = self._pop_valid()
        if best is None:
            return None
        if best[0] > self._now:
            # All other valid entries are at or after this raw time, so the
            # heap's (time, registration order) minimum is the winner.
            heapq.heappush(self._heap, best)
            return best[0], best[2]
        # One or more heads are clamped to the current global time; among
        # everything effectively at *now* the first-registered source wins,
        # regardless of how far behind its raw head time is.
        clamped = [best]
        while True:
            entry = self._pop_valid()
            if entry is None:
                break
            if entry[0] <= self._now:
                clamped.append(entry)
            else:
                heapq.heappush(self._heap, entry)
                break
        winner = min(clamped, key=lambda entry: entry[1])
        for entry in clamped:
            heapq.heappush(self._heap, entry)
        return self._now, winner[2]

    def step(self) -> bool:
        """Execute the globally earliest pending event; False when idle."""
        head = self.peek()
        if head is None:
            return False
        self._execute(head)
        return True

    def _execute(self, head: Tuple[float, str]) -> None:
        time, name = head
        source = self._sources[name]
        profile = self._profile
        sanitizer = self._sanitizer
        if profile is not None:
            label = profile.label_for(source)
            wall_started = perf_counter()  # simlint: disable=ND02 -- wall-clock profiling only; never feeds sim state
        if name == TELEMETRY_SOURCE:
            # Observation-only probe: run it, keep its head indexed, and
            # leave the clock / stats / fingerprint / trace exactly as a
            # telemetry-free run would have them.  The sanitizer's write
            # barrier verifies that "exactly" at runtime.
            if sanitizer is not None:
                probe_snapshot = sanitizer.before_probe()
            source.step()
            self._push_head(name)
            if sanitizer is not None:
                sanitizer.after_probe(probe_snapshot)
            if profile is not None:
                profile.record(name, label, 0.0,
                               perf_counter() - wall_started)  # simlint: disable=ND02 -- wall-clock profiling only; never feeds sim state
            return
        if sanitizer is not None:
            sanitizer.before_event(source, time)
        sim_delta = time - self._now
        self._now = time
        source.step()
        if sanitizer is not None:
            sanitizer.after_event(source)
        # The executed source's head moved; its old heap entry is stale
        # (version bump) and the new head gets indexed.  Heads of *other*
        # sources the event scheduled onto were re-indexed synchronously by
        # their simulators' head listeners.
        self._push_head(name)
        self.stats.record(name)
        self._fingerprint = zlib.crc32(
            f"{name}@{time!r}".encode(), self._fingerprint
        )
        if self.record_trace:
            self.trace.append((time, name))
        if profile is not None:
            profile.record(name, label, sim_delta,
                           perf_counter() - wall_started)  # simlint: disable=ND02 -- wall-clock profiling only; never feeds sim state

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Pump merged events, bounded by global time and/or event count.

        The clock never rewinds: an ``until`` already in the past leaves it
        untouched (matching :meth:`Simulator.run`).
        """
        self._rearm_periodic()
        executed = 0
        while True:
            if max_events is not None and executed >= max_events:
                return
            head = self.peek()
            if head is None:
                break
            if until is not None and head[0] > until:
                break
            self._execute(head)
            executed += 1
        if until is not None and until > self._now:
            self._now = until

    def run_until_idle(self, max_events: int = 10_000_000) -> None:
        """Pump until every source is drained; guards against runaways.

        With the sanitizer enabled, draining to idle also runs its
        pending-map leak check -- the one invariant that is only
        meaningful once no event could still perform the cleanup.
        """
        self._rearm_periodic()
        executed = 0
        while self.step():
            executed += 1
            if executed > max_events:
                raise RuntimeError(
                    "global simulation exceeded the maximum event budget"
                )
        if self._sanitizer is not None:
            self._sanitizer.check_leaks()

    @property
    def fingerprint(self) -> int:
        """CRC32 over the executed (source, time) sequence.

        Two runs with the same seed must produce the same fingerprint; this
        is the determinism regression signal.
        """
        return self._fingerprint


__all__ = ["GlobalScheduler", "KernelStats", "SimulatorSource",
           "KERNEL_SOURCE", "TELEMETRY_SOURCE"]
