"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload packet-barbell --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` is the separate traced run that prints the per-layer
metrics.  Human-readable lines come first; the last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 only when every operation and output check passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

WORKLOADS = ("packet-barbell", "fluid-fabric", "live-gateway",
             "service-jobs")


def _runner(name: str):
    from perfbench import fluid, live, packet, service
    return {
        "packet-barbell": packet.run,
        "fluid-fabric": fluid.run,
        "live-gateway": live.run,
        "service-jobs": service.run,
    }[name]


def document(outcome, trace: bool) -> dict:
    """The result object: every catalogued metric, with its unit.

    End-to-end metrics must all be measured.  Per-layer metrics of a
    layer the workload does not run (or profile) read 0.
    """
    from perfbench.common import END_TO_END, PER_LAYER
    catalogue = PER_LAYER if trace else END_TO_END
    values = dict.fromkeys(catalogue, 0.0) if trace else {}
    values.update(outcome.metrics)
    if not trace:
        values["ok_rate"] = outcome.ok_rate
    unknown = sorted(set(values) - set(catalogue))
    missing = sorted(set(catalogue) - set(values))
    if unknown or missing:
        raise RuntimeError(f"metric set mismatch: unknown {unknown}, "
                           f"missing {missing}")
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in catalogue.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; nothing to measure",
              file=sys.stderr)
        return 2
    # Import the program from this checkout's sources and the benchmark
    # as a package (not its directory's modules as top-level names).
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.common import calibration_loop_s

    calibration = calibration_loop_s()
    outcome = _runner(args.workload)(args.seed, args.seconds,
                                     bool(args.trace))
    result = document(outcome, bool(args.trace))
    for failure in outcome.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} calibration_loop_s={calibration:.6f}")
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']:16.6f} {metric['unit']}")
    print(json.dumps(result, allow_nan=False))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
