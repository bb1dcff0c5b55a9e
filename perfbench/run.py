"""LDS layered benchmark: the full ``ClusterSimulation`` stack, end to end
and layer by layer.

Run from the root of a repository checkout::

    python3 perfbench/run.py --workload coded-read --seed 1 --seconds 30 --trace 0

``--workload`` is ``coded-read``, ``edge-mixed`` or ``replica-failover``
(``workloads.py`` says why each exists).  The run builds the workload's
inputs from ``--seed`` and repeats it -- build the simulation, pump the
global kernel to idle, audit -- for about ``--seconds`` (at least twice).
All load comes from this one process and thread.

* ``--trace 0`` reports the end-to-end metrics of untraced repeats:
  throughput, set-up time, peak memory, simulated latencies, the paper's
  communication costs and the share of operations completed.
* ``--trace 1`` alternates untraced and traced repeats and reports the
  per-layer metrics: calls, work counts and self time per ``repro``
  package, measured by ``tracer.py``, plus the tracing overhead.

The run fails (exit code 1, ``"correct": false``) on any output check:
the audit, the per-workload expectations, identical results on every
repeat of the seed and, when tracing, identical behaviour traced and
untraced.  Every metric is printed with its unit; the last line of
standard output is the JSON result.  The full result with an environment
manifest, and the spans of the last traced repeat, are written under
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}; run from "
              "the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return bench.main(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
