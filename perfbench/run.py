"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload serve_poisson --seed 1 \\
        --seconds 30 --trace 0 [--report out.json]
    python3 perfbench/run.py --compare before.json after.json

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` runs the same workload with every layer wrapped (see
``tracing.py``) and prints the per-layer metrics instead.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a failed correctness check
prints ``correct: false`` with no metrics and exits with status 1.
``--report`` also writes the run's provenance stamp and details, which
``--compare`` reads back.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", help="write stamp, metrics and "
                        "details to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar="REPORT",
                        help="compare two --report files and exit")
    args = parser.parse_args(argv)
    if args.compare is None and args.workload is None:
        parser.error("--workload is required")
    return args


def _declared(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"]
                for metric in json.load(handle)[kind]}


def _emit(correct: bool, attempted: int, failed: int, metrics: dict,
          units: dict) -> None:
    payload = {name: {"value": metrics[name], "unit": unit}
               for name, unit in units.items()} if correct else {}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": payload}))


def _trace_metrics(run, tracer) -> dict:
    """Per-layer metrics of a traced run, and its tracing overhead."""
    from tracing import layer_metrics

    traced = [round_ for round_ in run.rounds if round_.traced]
    wall = sum(slice_.wall_s for round_ in traced
               for slice_ in round_.slices)
    metrics = layer_metrics(tracer, wall)
    projects = {id(entry.handle.project): entry.handle.project
                for round_ in traced for entry in round_.tuned}.values()
    requested = sum(project.trials_run for project in projects)
    executed = sum(project.trials_executed for project in projects)
    metrics["harness.trials_requested"] = float(requested)
    metrics["harness.trials_executed"] = float(executed)
    metrics["harness.cache_hit_ratio"] = (
        1.0 - executed / requested if requested else 0.0)
    on, off = run.metrics(traced=True), run.metrics(traced=False)
    metrics["trace.overhead_tune_s"] = on["tune_s"] - off["tune_s"]
    metrics["trace.overhead_latency_p50_ms"] = (
        on["latency_p50_ms"] - off["latency_p50_ms"])
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if args.compare is not None:
        from stamp import compare
        print("\n".join(compare(*args.compare)))
        return 0
    try:
        import repro  # the program under test
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2
    source = os.path.join(ROOT, "src", "")
    if not os.path.abspath(repro.__file__).startswith(source):
        print(f"perfbench: repro was imported from {repro.__file__}, not "
              f"from {source}", file=sys.stderr)
        return 2
    from lifecycle import GateFailure, WorkloadRun
    from stamp import stamp
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose "
              f"from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    units = _declared("per_layer" if args.trace else "end_to_end")
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-",
                               dir=os.path.join(HERE, ".work"))
    run = WorkloadRun(WORKLOADS[args.workload], args.seed, args.seconds,
                      workdir, tracer=tracer)
    try:
        try:
            result = run.execute()
        except GateFailure as exc:
            print(f"perfbench: correctness gate failed: {exc}",
                  file=sys.stderr)
            _emit(False, run.attempted, run.failed, {}, units)
            return 1
        # Untraced runs print the layer numbers they have (generator
        # lag, hot-swap time, escalations) on the EXTRA line.
        metrics = {**result.layer, **result.metrics}
        if tracer is not None:
            metrics = {**result.layer, **_trace_metrics(run, tracer)}
        result.stamp = stamp(ROOT, args.workload, args.seed, args.seconds,
                             run.rounds[0].tuned)
    finally:
        run.close()
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"perfbench: run produced no value for {missing}",
              file=sys.stderr)
        return 1
    print("STAMP " + json.dumps(result.stamp, sort_keys=True))
    print("DETAILS " + json.dumps(result.details, sort_keys=True))
    extra = {name: value for name, value in metrics.items()
             if name not in units}
    print("EXTRA " + json.dumps(extra, sort_keys=True))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump({"stamp": result.stamp, "details": result.details,
                       "extra": extra,
                       "metrics": {name: {"value": metrics[name],
                                          "unit": unit}
                                   for name, unit in units.items()}},
                      handle, indent=1, sort_keys=True)
    _emit(True, result.attempted, result.failed, metrics, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
