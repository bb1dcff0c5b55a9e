"""The benchmark harness behind ``run.py``: repeats, checks and metrics."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

import numpy

from repro.consistency.sessions import split_object_id
from repro.core.analysis import mbr_read_cost, mbr_write_cost

from tracer import ROOT as ROOT_SPAN
from tracer import Tracer
from workloads import CONFIG, WORKLOADS

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
RESULTS = HERE / "results"

#: Tail percentiles tried from the top down; the tail is the highest one
#: with at least ``TAIL_MIN_BEYOND`` samples beyond it.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10
#: Set-up takes milliseconds, so each run samples it this many extra times.
SETUP_SAMPLES = 25
#: Fewest repeats of each kind (untraced, traced) in one run.
MIN_REPEATS = 2

LAYERS = ("gf", "codes", "core", "net", "sim", "cluster", "consistency", "obs")

#: name -> unit of every end-to-end metric.
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "read_latency_p50": "sim_time",
    "read_latency_tail": "sim_time",
    "write_latency_p50": "sim_time",
    "write_latency_tail": "sim_time",
    "read_cost_per_op": "value_sizes",
    "write_cost_per_op": "value_sizes",
    "completed_op_share": "ratio",
}


def _clock() -> float:
    return perf_counter()  # simlint: disable=ND02 -- benchmark wall-clock timing; never feeds the simulation


@dataclass
class Repeat:
    """What one build / run / audit repeat measured."""

    setup_s: float
    wall_s: float
    audit_s: float
    #: Deterministic outputs, identical on every repeat of one seed.
    signature: Dict[str, object]
    #: Per-layer aggregates of a traced repeat (None when untraced).
    layers: Optional[Dict[str, object]] = None


@dataclass
class Checks:
    failures: List[str] = field(default_factory=list)

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)


# -- one repeat ----------------------------------------------------------------


def _build(plan):
    simulation = plan.build()
    handles = []
    simulation.add_workload(
        plan.workload,
        on_handle=lambda kind, handle: handles.append((kind, handle)))
    if plan.scenario is not None:
        simulation.apply(plan.scenario, run=False)
    return simulation, handles


def _rank(count: int, percent: float) -> int:
    """1-based nearest-rank index of a percentile among ``count`` samples."""
    return int(max(1, -(-count * percent // 100)))


def _tail(values: List[float]):
    """(percentile, value) of the highest ladder percentile that has at
    least ``TAIL_MIN_BEYOND`` samples beyond it."""
    for percent in TAIL_LADDER:
        rank = _rank(len(values), percent)
        if len(values) - rank >= TAIL_MIN_BEYOND:
            return percent, values[rank - 1]
    raise ValueError(f"{len(values)} samples are too few for a tail")


def _signature(plan, simulation, handles, report) -> Dict[str, object]:
    history = sorted(simulation.history(), key=lambda op: (op.object_id, op.op_id))
    digest = hashlib.sha256()
    latencies: Dict[str, List[float]] = {"read": [], "write": []}
    wrong_reads = 0
    for op in history:
        digest.update(repr((op.object_id, op.op_id, op.kind, op.value,
                            op.invoked_at, op.responded_at, op.session)).encode())
        if op.responded_at is not None:
            latencies[op.kind].append(op.responded_at - op.invoked_at)
            if op.kind == "read" and plan.expected_values is not None:
                key = split_object_id(op.object_id)[0]
                wrong_reads += op.value != plan.expected_values[key]
    costs = {kind: [simulation.operation_cost(handle)
                    for op_kind, handle in handles if op_kind == kind]
             for kind in ("read", "write")}
    stats = simulation.router.stats
    replicas = simulation.replicas
    return {
        "audit_ok": bool(report.ok),
        "atomicity_ok": report.atomicity is None,
        "fingerprint": simulation.kernel.fingerprint,
        "history_sha256": digest.hexdigest(),
        "attempted": len(plan.workload),
        "completed": sum(len(values) for values in latencies.values()),
        "wrong_reads": wrong_reads,
        "events": simulation.kernel.events_processed,
        "switch_rate": simulation.interleaving.switch_rate,
        "latencies": {kind: sorted(values) for kind, values in latencies.items()},
        "mean_cost": {kind: statistics.fmean(values)
                      for kind, values in costs.items()},
        "cluster": {
            "quorum_reads": stats.quorum_reads,
            "read_repairs": stats.read_repairs,
            "forwarded_writes": stats.forwarded_writes,
            "session_fallbacks": stats.session_fallbacks,
            "promotions": 0 if replicas is None else replicas.stats.promotions,
        },
    }


def _layer_summary(tracer: Tracer, reads: int) -> Dict[str, object]:
    spans = tracer.spans
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for name, seconds in tracer.self_time.items():
        if name != ROOT_SPAN:
            by_layer[name.split(".", 1)[0]] += seconds
    l1_regenerations = sum(
        1 for name, _, _, parent, _ in spans
        if name == "codes.regenerate" and parent >= 0
        and spans[parent][0] == "core.l1")
    return {
        "wall_s": spans[0][2] - spans[0][1],
        "unattributed_s": tracer.self_time[ROOT_SPAN],
        "self_s": dict(tracer.self_time),
        "layer_self_s": by_layer,
        # Work counts: identical on every traced repeat of one seed.
        "counts": {
            "calls": dict(tracer.calls),
            "stripes": sum(tracer.stripes.values()),
            "distinct_matrices": len(tracer.matrices),
            "regenerations_per_read": l1_regenerations / reads,
        },
    }


def run_repeat(plan, tracer: Optional[Tracer] = None) -> Repeat:
    """Build the simulation, pump it to idle and audit it, once."""
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        started = _clock()
        simulation, handles = _build(plan)
        setup_s = _clock() - started
        if tracer is not None:
            tracer.reset()
            tracer.open(ROOT_SPAN)
        started = _clock()
        simulation.run_until_idle()
        audit_started = _clock()
        report = simulation.audit()
        ended = _clock()
        if tracer is not None:
            tracer.close()
    finally:
        if tracer is not None:
            tracer.uninstall()
    signature = _signature(plan, simulation, handles, report)
    layers = None
    if tracer is not None:
        layers = _layer_summary(tracer, len(signature["latencies"]["read"]))
    return Repeat(setup_s=setup_s, wall_s=ended - started,
                  audit_s=ended - audit_started, signature=signature,
                  layers=layers)


# -- a run ---------------------------------------------------------------------


def measure(plan, seconds: float, trace: bool):
    """Repeat the workload for about ``seconds``.

    Untraced and (with ``trace``) traced repeats alternate, at least
    ``MIN_REPEATS`` of each; a repeat starts only if the last one of its
    kind would still end within ``seconds``.  Returns the untraced
    repeats, the traced repeats, the set-up samples and the tracer.
    """
    tracer = Tracer() if trace else None
    run_started = _clock()
    setups = []
    for _ in range(SETUP_SAMPLES):
        gc.collect()
        started = _clock()
        _build(plan)
        setups.append(_clock() - started)
    untraced: List[Repeat] = []
    traced: List[Repeat] = []
    last: Dict[bool, float] = {}
    while True:
        use_trace = trace and len(traced) < len(untraced)
        enough = len(untraced) >= MIN_REPEATS and (
            not trace or len(traced) >= MIN_REPEATS)
        if enough and _clock() - run_started + last[use_trace] > seconds:
            break
        started = _clock()
        repeat = run_repeat(plan, tracer if use_trace else None)
        last[use_trace] = _clock() - started
        (traced if use_trace else untraced).append(repeat)
    setups.extend(repeat.setup_s for repeat in untraced)
    return untraced, traced, setups, tracer


def check_outputs(plan, untraced: List[Repeat], traced: List[Repeat]) -> List[str]:
    """Every output check of the run; returns the failures."""
    checks = Checks()
    reference = untraced[0].signature
    checks.expect(reference["audit_ok"], "audit() is not ok")
    checks.expect(reference["atomicity_ok"], "the atomicity check failed")
    checks.expect(reference["wrong_reads"] == 0,
                  f"{reference['wrong_reads']} reads returned a value other "
                  "than the one written")
    for index, repeat in enumerate(untraced[1:], start=2):
        checks.expect(repeat.signature == reference,
                      f"untraced repeat {index} differs from repeat 1 in "
                      "counts, latencies, costs or history")
    for index, repeat in enumerate(traced, start=1):
        layers = repeat.layers
        checks.expect(repeat.signature == reference,
                      f"traced repeat {index} differs from the untraced run in "
                      "fingerprint, history, counts, latencies or costs")
        checks.expect(layers["counts"] == traced[0].layers["counts"],
                      f"traced repeat {index} counted other layer work than "
                      "traced repeat 1")
        covered = sum(layers["layer_self_s"].values()) + layers["unattributed_s"]
        checks.expect(abs(covered - layers["wall_s"]) <= 1e-6 * layers["wall_s"],
                      "layer self times plus the unattributed remainder do "
                      "not cover the traced wall time")
        checks.expect(min(layers["self_s"].values()) >= -1e-9,
                      "a span has negative self time")

    cluster = reference["cluster"]
    if plan.name == "coded-read":
        bound = mbr_read_cost(CONFIG.n1, CONFIG.n2, CONFIG.k, CONFIG.d, delta=0)
        cost = reference["mean_cost"]["read"]
        checks.expect(cost <= bound + 1e-9,
                      f"read cost {cost:.4f} exceeds the Lemma V.2 bound {bound:.4f}")
        bound = mbr_write_cost(CONFIG.n1, CONFIG.n2, CONFIG.k, CONFIG.d)
        cost = reference["mean_cost"]["write"]
        checks.expect(cost <= bound + 1e-9,
                      f"write cost {cost:.4f} exceeds the Lemma V.2 bound {bound:.4f}")
    failover = plan.name == "replica-failover"
    checks.expect((cluster["promotions"] > 0) == failover,
                  f"{cluster['promotions']} promotions on {plan.name}")
    checks.expect((cluster["quorum_reads"] > 0) == failover,
                  f"{cluster['quorum_reads']} quorum reads on {plan.name}")
    if traced:
        counts = traced[0].layers["counts"]
        obs_calls = sum(calls for name, calls in counts["calls"].items()
                        if name.startswith("obs."))
        checks.expect((obs_calls > 0) == failover,
                      f"{obs_calls} obs calls on {plan.name}")
        if plan.name == "coded-read":
            checks.expect(counts["regenerations_per_read"] == CONFIG.n1,
                          f"{counts['regenerations_per_read']} L1 regenerations "
                          f"per read, expected n1={CONFIG.n1}")
    return checks.failures


# -- metrics -------------------------------------------------------------------


def end_to_end(untraced: List[Repeat], setups: List[float]):
    """(metrics, details): the untraced, user-visible metrics."""
    signature = untraced[0].signature
    metrics = {
        "ops_per_s": statistics.median(
            repeat.signature["completed"] / repeat.wall_s for repeat in untraced),
        "setup_s": statistics.median(setups),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {}
    for kind in ("read", "write"):
        values = signature["latencies"][kind]
        metrics[f"{kind}_latency_p50"] = values[_rank(len(values), 50.0) - 1]
        percent, metrics[f"{kind}_latency_tail"] = _tail(values)
        details[f"{kind}_latency_tail"] = {"percentile": percent,
                                           "samples": len(values)}
        metrics[f"{kind}_cost_per_op"] = signature["mean_cost"][kind]
    metrics["completed_op_share"] = signature["completed"] / signature["attempted"]
    return metrics, details


def _median_of(traced: List[Repeat], pick) -> float:
    return statistics.median(pick(repeat.layers) for repeat in traced)


def per_layer(untraced: List[Repeat], traced: List[Repeat]):
    """The per-layer metrics (name -> (value, unit)) of a traced run."""
    signature = untraced[0].signature
    counts = traced[0].layers["counts"]
    calls = counts["calls"]
    attempted = signature["attempted"]
    untraced_wall = statistics.median(repeat.wall_s for repeat in untraced)

    def self_s(name):
        return _median_of(traced, lambda layers: layers["self_s"].get(name, 0.0))

    def layer_s(layer):
        return _median_of(traced, lambda layers: layers["layer_self_s"][layer])

    def share(layer):
        return _median_of(traced, lambda layers:
                          layers["layer_self_s"][layer] / layers["wall_s"])

    # Entry points idle on some workloads report a share, not a time:
    # their time would read exactly 0 s on every run there.
    def entry_share(name):
        return _median_of(traced, lambda layers:
                          layers["self_s"].get(name, 0.0) / layers["wall_s"])

    inverted = calls.get("gf.inverse", 0) + calls.get("gf.solve", 0)
    messages = calls.get("net.send", 0)
    count, seconds, ratio = "count", "s", "ratio"
    return {
        "gf.inverse.calls": (calls.get("gf.inverse", 0), count),
        "gf.solve.calls": (calls.get("gf.solve", 0), count),
        "gf.matmul.calls": (calls.get("gf.matmul", 0), count),
        "gf.dot.calls": (calls.get("gf.dot", 0), count),
        "gf.inverse.self_s": (self_s("gf.inverse"), seconds),
        "gf.matmul.self_s": (self_s("gf.matmul"), seconds),
        "gf.self_s": (layer_s("gf"), seconds),
        "gf.share": (share("gf"), ratio),
        "gf.distinct_matrix_ratio": (
            counts["distinct_matrices"] / inverted if inverted else 0.0, ratio),
        "codes.encode.calls": (calls.get("codes.encode", 0), count),
        "codes.helper.calls": (calls.get("codes.helper", 0), count),
        "codes.regenerate.calls": (calls.get("codes.regenerate", 0), count),
        "codes.decode.calls": (calls.get("codes.decode", 0), count),
        "codes.stripes": (counts["stripes"], count),
        "codes.self_s": (layer_s("codes"), seconds),
        "codes.share": (share("codes"), ratio),
        "core.l1.messages": (calls.get("core.l1", 0), count),
        "core.l2.messages": (calls.get("core.l2", 0), count),
        "core.client.messages": (calls.get("core.client", 0), count),
        "core.regenerations_per_read": (counts["regenerations_per_read"], "1/op"),
        "core.self_s": (layer_s("core"), seconds),
        "core.share": (share("core"), ratio),
        "net.messages": (messages, count),
        "net.messages_per_op": (messages / attempted, "1/op"),
        "net.send.self_s": (self_s("net.send"), seconds),
        "net.share": (share("net"), ratio),
        "sim.events": (signature["events"], count),
        "sim.events_per_op": (signature["events"] / attempted, "1/op"),
        "sim.events_per_s": (signature["events"] / untraced_wall, "1/s"),
        "sim.step.self_s": (self_s("sim.step"), seconds),
        "sim.switch_rate": (signature["switch_rate"], ratio),
        "sim.share": (share("sim"), ratio),
        "cluster.dispatch.calls": (calls.get("cluster.dispatch", 0), count),
        "cluster.dispatch.self_s": (self_s("cluster.dispatch"), seconds),
        **{f"cluster.{name}": (value, count)
           for name, value in signature["cluster"].items()},
        "cluster.share": (share("cluster"), ratio),
        "consistency.audit_s": (
            statistics.median(repeat.audit_s for repeat in untraced), seconds),
        "consistency.stream.share": (entry_share("consistency.stream"), ratio),
        "consistency.share": (share("consistency"), ratio),
        "obs.probe.share": (entry_share("obs.probe"), ratio),
        "obs.latency.share": (entry_share("obs.latency"), ratio),
        "obs.share": (share("obs"), ratio),
        "unattributed.share": (_median_of(
            traced, lambda layers: layers["unattributed_s"] / layers["wall_s"]),
            ratio),
        "trace.overhead": (
            _median_of(traced, lambda layers: layers["wall_s"]) / untraced_wall,
            ratio),
    }


# -- the environment manifest ----------------------------------------------------


def _git_sha() -> Optional[str]:
    """The checkout's commit, read from ``.git`` without running git; None
    outside a git repository."""
    git = CHECKOUT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _source_sha256() -> str:
    """Digest of the program source, which identifies it without git."""
    digest = hashlib.sha256()
    for path in sorted((CHECKOUT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(CHECKOUT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def manifest(args) -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- entry point -----------------------------------------------------------------


def main(args) -> int:
    plan = WORKLOADS[args.workload](args.seed)
    untraced, traced, setups, tracer = measure(plan, args.seconds, bool(args.trace))
    failures = check_outputs(plan, untraced, traced)
    e2e, details = end_to_end(untraced, setups)
    layers = per_layer(untraced, traced) if traced else {}

    e2e_json = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                for name, value in e2e.items()}
    layer_json = {name: {"value": value, "unit": unit}
                  for name, (value, unit) in layers.items()}
    print(f"perfbench {plan.name} seed={plan.seed}: {len(untraced)} untraced "
          f"and {len(traced)} traced repeats, {len(plan.workload)} ops each")
    for name, metric in {**e2e_json, **layer_json}.items():
        print(f"  {name:28s} {metric['value']:14.6g} {metric['unit']}")
    for name, tail in details.items():
        print(f"  {name} is the p{tail['percentile']:g} of {tail['samples']} samples")
    for failure in failures:
        print(f"  CHECK FAILED: {failure}")

    signature = untraced[0].signature
    result = {
        "correct": not failures,
        "attempted": signature["attempted"],
        "failed": signature["attempted"] - signature["completed"],
        "metrics": layer_json if args.trace else e2e_json,
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{plan.name}-seed{plan.seed}-trace{args.trace}"
    full = dict(result, env=manifest(args), failures=failures,
                end_to_end=e2e_json, tails=details, per_layer=layer_json,
                repeats={"untraced_wall_s": [r.wall_s for r in untraced],
                         "traced_wall_s": [r.wall_s for r in traced]})
    (RESULTS / f"{stem}.json").write_text(json.dumps(full, indent=2) + "\n")
    if tracer is not None:
        # The spans of the last traced repeat.
        tracer.write(str(RESULTS / f"{stem}.spans.tsv.gz"))
    print(json.dumps(result))
    return 0 if not failures else 1
