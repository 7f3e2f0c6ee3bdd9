"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload helr-step --seed 1 --seconds 20 --trace 0

Each workload runs in its own process as one client in a closed loop (see
``workloads.py``; ``workloads.json`` lists sizes, stressed and bypassed
layers, and the layer-metric predictions).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` prints the per-layer metrics and writes
the recorded spans as gzipped JSONL under ``perfbench/out/``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

The program under test is imported from ``src/`` next to this directory;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

#: Set-up time counts from here, before numpy and the program load.
STARTED = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# BLAS threads never exceed the host's cores (and two at most); this must
# run before numpy loads.
_THREADS = str(min(2, os.cpu_count() or 1))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = _THREADS

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: a set-up-only child process, timed by the parent run.
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    cls = WORKLOADS[args.workload]
    if args.setup_only:
        _, warm, setup_s = harness.setup(cls, args.seed, STARTED)
        print(json.dumps({"setup_s": setup_s, "ok": warm.ok}))
        return 0
    if args.trace:
        spans_path = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}.jsonl.gz")
        result = harness.per_layer(cls, args.seed, args.seconds, STARTED, spans_path)
    else:
        result = harness.end_to_end(
            cls, args.seed, args.seconds, STARTED, os.path.abspath(__file__)
        )
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']:.6g} {metric['unit']}")
    print(
        f"failed_ratio {result['failed']}/{result['attempted']} = "
        f"{result['failed'] / result['attempted']:.3g}"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
