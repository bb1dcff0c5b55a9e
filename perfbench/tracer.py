"""Outside-in span tracing of the ``repro`` layers.

The tracer wraps the public entry points of each ``repro`` package from
the benchmark's side -- nothing inside the program changes -- and records
one span per call: name, start, end, parent span and, where the call's
message carries one, the ``op_id``.  Spans nest on one stack because the
simulation runs on one thread.  A span's *self time* is its duration
minus the duration of its direct children, so the self times of all spans
under the root add up to the root's duration exactly.

``install()`` patches the entry points and ``uninstall()`` restores the
originals, so untraced runs execute the program untouched.
"""

from __future__ import annotations

import functools
import gzip
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster import replicas as cluster_replicas
from repro.cluster import router as cluster_router
from repro.codes.base import ErasureCode, RegeneratingCode
from repro.consistency.streaming import StreamingSessionAuditor
from repro.core.reader import Reader
from repro.core.server_l1 import L1Server
from repro.core.server_l2 import L2Server
from repro.core.system import LDSSystem
from repro.core.writer import Writer
from repro.gf.gf256 import GF256
from repro.gf.matrix import GFMatrix
from repro.net.network import Network
from repro.obs.availability import AvailabilityMonitor
from repro.obs.latency import LatencyTracker
from repro.obs.live_audit import LiveAuditProbe
from repro.sim import harness as sim_harness
from repro.sim.kernel import GlobalScheduler

#: Name of the span around one traced run (pump plus final audit).
ROOT = "bench.run"


def _arg(args, kwargs, index: int, name: str):
    """A call's argument, passed by position or by keyword."""
    return args[index] if len(args) > index else kwargs[name]


def _message_op_id(args, kwargs) -> Optional[str]:
    """``op_id`` of the call's message (the last argument)."""
    return getattr(kwargs.get("message", args[-1]), "op_id", None)


def _encode_stripes(args, kwargs) -> int:
    return args[0].stripe_count(len(_arg(args, kwargs, 1, "data")))


def _decode_stripes(args, kwargs) -> int:
    elements = _arg(args, kwargs, 1, "elements")
    return len(elements[0].data) // args[0].element_size if elements else 0


def _helper_stripes(args, kwargs) -> int:
    return len(_arg(args, kwargs, 2, "helper_element")) // args[0].element_size


def _repair_stripes(args, kwargs) -> int:
    helpers = _arg(args, kwargs, 2, "helper_data")
    return len(next(iter(helpers.values()), b"")) // args[0].helper_size


def _matrix_key(args) -> Tuple:
    data = args[0].data
    return data.shape, data.tobytes()


class Tracer:
    """Records nested spans and aggregates self time and calls per name."""

    def __init__(self) -> None:
        self._patches: List[Tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget every recorded span and counter (patches stay in place)."""
        #: (name, start, end, parent index, op_id) per closed span, in
        #: opening order (a span's slot is reserved when it opens).
        self.spans: List[Optional[Tuple[str, float, float, int, Optional[str]]]] = []
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.stripes: Counter = Counter()
        self.matrices: set = set()
        # Open spans: [span index, name, start, child time, op_id].
        self._stack: List[list] = []

    # -- span recording ------------------------------------------------------

    def open(self, name: str, op_id: Optional[str] = None) -> None:
        self.spans.append(None)
        self._stack.append([len(self.spans) - 1, name, perf_counter(), 0.0, op_id])  # simlint: disable=ND02 -- benchmark span timing; never feeds the simulation

    def close(self) -> None:
        end = perf_counter()  # simlint: disable=ND02 -- benchmark span timing; never feeds the simulation
        index, name, start, child, op_id = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.self_time[name] += duration - child
        self.calls[name] += 1
        self.spans[index] = (name, start, end,
                             -1 if parent is None else parent[0], op_id)

    # -- patching ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str,
             op_id: Optional[Callable] = None,
             stripes: Optional[Callable] = None,
             matrix: bool = False) -> None:
        """Replace ``owner.attr`` (a method, classmethod or module-level
        function) with a span-recording wrapper."""
        original = owner.__dict__[attr]
        is_classmethod = isinstance(original, classmethod)
        func = original.__func__ if is_classmethod else original
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if stripes is not None:
                tracer.stripes[name] += stripes(args, kwargs)
            if matrix:
                tracer.matrices.add(_matrix_key(args))
            tracer.open(name, op_id(args, kwargs) if op_id is not None else None)
            try:
                return func(*args, **kwargs)
            finally:
                tracer.close()

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap the public entry points of every ``repro`` layer."""
        wrap = self.wrap
        # gf: the field and matrix primitives the code layer calls.
        wrap(GF256, "matmul", "gf.matmul")
        wrap(GF256, "dot", "gf.dot")
        wrap(GFMatrix, "inverse", "gf.inverse", matrix=True)
        wrap(GFMatrix, "solve", "gf.solve", matrix=True)
        # codes: the byte-level encode / decode / repair interface.
        wrap(ErasureCode, "encode", "codes.encode", stripes=_encode_stripes)
        wrap(ErasureCode, "decode", "codes.decode", stripes=_decode_stripes)
        wrap(RegeneratingCode, "helper_data", "codes.helper",
             stripes=_helper_stripes)
        wrap(RegeneratingCode, "repair", "codes.regenerate",
             stripes=_repair_stripes)
        # core: the protocol state machines and client invocation.
        wrap(L1Server, "on_message", "core.l1", op_id=_message_op_id)
        wrap(L2Server, "on_message", "core.l2", op_id=_message_op_id)
        wrap(Reader, "on_message", "core.client", op_id=_message_op_id)
        wrap(Writer, "on_message", "core.client", op_id=_message_op_id)
        wrap(LDSSystem, "invoke_write", "core.invoke")
        wrap(LDSSystem, "invoke_read", "core.invoke")
        # net: message send (cost accounting, latency draw, scheduling).
        wrap(Network, "send", "net.send", op_id=_message_op_id)
        # sim: one kernel step (head selection plus the event it runs).
        wrap(GlobalScheduler, "step", "sim.step")
        # cluster: router dispatch, batch flush and replica routing.
        wrap(cluster_router.ObjectRouter, "invoke_write", "cluster.dispatch")
        wrap(cluster_router.ObjectRouter, "invoke_read", "cluster.dispatch")
        wrap(cluster_router.ObjectRouter, "flush_key", "cluster.flush")
        wrap(cluster_replicas.ReplicaCoordinator, "invoke_write",
             "cluster.replicas")
        wrap(cluster_replicas.ReplicaCoordinator, "invoke_read",
             "cluster.replicas")
        # consistency: the streaming auditor and the post-run checkers
        # (patched where the harness and the router look them up).
        wrap(StreamingSessionAuditor, "consume", "consistency.stream")
        wrap(StreamingSessionAuditor, "advance", "consistency.stream")
        wrap(cluster_router, "check_atomicity_by_tags", "consistency.audit")
        wrap(sim_harness, "check_sessions", "consistency.audit")
        # obs: the kernel probes and the latency tracker's span sink.
        wrap(LiveAuditProbe, "tick", "obs.probe")
        wrap(AvailabilityMonitor, "tick", "obs.probe")
        for method in ("begin_op", "child_span", "child_instant", "end_op"):
            wrap(LatencyTracker, method, "obs.latency")

    def uninstall(self) -> None:
        """Restore every patched entry point."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write the spans as gzipped tab-separated lines under a header:
        name, start and end (``perf_counter`` seconds), parent span index
        (-1 for none) and op_id (empty for none)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("name\tstart_s\tend_s\tparent\top_id\n")
            handle.writelines(
                f"{name}\t{start!r}\t{end!r}\t{parent}\t{op_id or ''}\n"
                for name, start, end, parent, op_id in self.spans)
