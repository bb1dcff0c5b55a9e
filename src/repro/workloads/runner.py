"""Workload execution against any of the simulated systems.

The runner only relies on the small driving API that
:class:`~repro.core.system.LDSSystem`, :class:`~repro.baselines.abd.ABDSystem`
and :class:`~repro.baselines.cas.CASSystem` share: ``invoke_write``,
``invoke_read``, ``run_until_idle``, ``history``, ``operation_cost`` and
``communication_cost``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol

from repro.consistency.history import History, READ, WRITE
from repro.consistency.linearizability import (
    AtomicityViolation,
    check_atomicity_by_tags,
)
from repro.workloads.generator import Workload
from repro.workloads.metrics import LatencySummary, summarize_latencies


class DrivableSystem(Protocol):
    """The driving API every simulated register system exposes."""

    def invoke_write(self, value: bytes, writer=0, at: Optional[float] = None) -> str: ...

    def invoke_read(self, reader=0, at: Optional[float] = None) -> str: ...

    def run_until_idle(self, max_events: int = 10_000_000) -> None: ...

    def history(self) -> History: ...

    def operation_cost(self, op_id: str) -> float: ...

    @property
    def communication_cost(self) -> float: ...


@dataclass
class WorkloadReport:
    """Everything measured while executing one workload."""

    history: History
    write_latency: LatencySummary
    read_latency: LatencySummary
    write_costs: Dict[str, float] = field(default_factory=dict)
    read_costs: Dict[str, float] = field(default_factory=dict)
    total_communication_cost: float = 0.0
    incomplete_operations: int = 0
    atomicity_violation: Optional[AtomicityViolation] = None

    @property
    def mean_write_cost(self) -> float:
        return (sum(self.write_costs.values()) / len(self.write_costs)) if self.write_costs else 0.0

    @property
    def mean_read_cost(self) -> float:
        return (sum(self.read_costs.values()) / len(self.read_costs)) if self.read_costs else 0.0

    @property
    def is_atomic(self) -> bool:
        return self.atomicity_violation is None


def _assemble_report(system, history: History, violation: Optional[AtomicityViolation],
                     write_ops: List[str], read_ops: List[str]) -> WorkloadReport:
    """Shared report construction for both runners."""
    incomplete = sum(1 for op in history if not op.is_complete)
    return WorkloadReport(
        history=history,
        write_latency=summarize_latencies(history.latencies(WRITE)),
        read_latency=summarize_latencies(history.latencies(READ)),
        write_costs={op: system.operation_cost(op) for op in write_ops},
        read_costs={op: system.operation_cost(op) for op in read_ops},
        total_communication_cost=system.communication_cost,
        incomplete_operations=incomplete,
        atomicity_violation=violation,
    )


class WorkloadRunner:
    """Executes a :class:`Workload` against a drivable system."""

    def __init__(self, system: DrivableSystem, check_atomicity: bool = True) -> None:
        self.system = system
        self.check_atomicity = check_atomicity

    def run(self, workload: Workload, max_events: int = 10_000_000) -> WorkloadReport:
        """Schedule every operation, run to quiescence, and summarise."""
        write_ops: List[str] = []
        read_ops: List[str] = []
        for operation in workload.sorted_operations():
            if operation.kind == WRITE:
                op_id = self.system.invoke_write(
                    operation.value or b"", writer=operation.client_index, at=operation.at
                )
                write_ops.append(op_id)
            else:
                op_id = self.system.invoke_read(
                    reader=operation.client_index, at=operation.at
                )
                read_ops.append(op_id)
        self.system.run_until_idle(max_events=max_events)

        history = self.system.history()
        violation = None
        if self.check_atomicity:
            violation = check_atomicity_by_tags(history)
        return _assemble_report(self.system, history, violation, write_ops, read_ops)


class KeyedDrivableSystem(Protocol):
    """The keyed driving API of the cluster router (and its facades)."""

    def invoke_write(self, key: str, value: bytes, writer=0,
                     at: Optional[float] = None,
                     session: Optional[str] = None) -> str: ...

    def invoke_read(self, key: str, reader=0, at: Optional[float] = None,
                    session: Optional[str] = None) -> str: ...

    def add_workload(self, workload: "Workload", start: float = 0.0,
                     on_handle=None) -> int: ...

    def run_until_idle(self, max_events: int = 10_000_000) -> None: ...

    def history(self) -> History: ...

    def check_atomicity(self) -> Optional[AtomicityViolation]: ...

    def operation_cost(self, handle: str) -> float: ...

    @property
    def communication_cost(self) -> float: ...


class KeyedWorkloadRunner:
    """Executes a keyed :class:`Workload` against an object router.

    The router checks atomicity itself (per object and per migration
    epoch), so unlike :class:`WorkloadRunner` this runner delegates the
    check instead of running the tag checker over the merged history.

    Operations are scheduled through the system's ``add_workload`` as
    timed *arrival events* on its global simulation kernel, so the
    workload interleaves with background repairs, migrations and other
    shards' traffic on one global clock.  Every operation is stamped with
    its *session identity*
    (:attr:`~repro.workloads.generator.ScheduledOperation.session_id` --
    explicit, or the default pairing writer ``i`` and reader ``i`` as one
    logical client), which the router preserves end to end into the merged
    history so :func:`repro.consistency.sessions.check_sessions` can audit
    per-client guarantees across keys and shards.
    """

    def __init__(self, system: "KeyedDrivableSystem",
                 check_atomicity: bool = True) -> None:
        self.system = system
        self.check_atomicity = check_atomicity

    def run(self, workload: Workload, max_events: int = 10_000_000) -> WorkloadReport:
        """Schedule every keyed operation, run to quiescence, and summarise."""
        write_ops: List[str] = []
        read_ops: List[str] = []

        def collect(kind: str, handle: str) -> None:
            (write_ops if kind == WRITE else read_ops).append(handle)

        # Arrival semantics (per-operation timed injection, uniform forward
        # shift of past-due windows, key and client validation, arrival
        # counting) live in ``add_workload``; the runner only collects the
        # handles for cost reporting.
        self.system.add_workload(workload, on_handle=collect)
        self.system.run_until_idle(max_events=max_events)

        history = self.system.history()
        violation = self.system.check_atomicity() if self.check_atomicity else None
        return _assemble_report(self.system, history, violation, write_ops, read_ops)


__all__ = [
    "DrivableSystem",
    "KeyedDrivableSystem",
    "KeyedWorkloadRunner",
    "WorkloadReport",
    "WorkloadRunner",
]
