"""Benchmark of cluster-dual: build cost and per-point cost, end to end and
layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload braid-a2 --seed 1 --seconds 25 --trace 0

Workloads: braid-a2, poisson-a1, compute-a2, cli-suite-a2 (see
``perfbench/README.md``).  The library is imported from ``src/`` of the
checkout; the run fails with exit code 2, printing no result, when it is not
there.

With ``--trace 0`` the run measures for ``--seconds`` seconds (compute-a2:
a number of requests proportional to it) and reports the end-to-end
metrics, every time scaled to a reference speed by ``calibrate.py``.  With ``--trace 1`` it runs a fixed number of requests
with the tracer installed, then as many without it, and reports the
per-layer metrics and the tracing overhead; a fixed size keeps the counts
identical between traced runs at one seed.

Standard output ends with two lines: a report with every metric, the sample
counts and the environment, then the result object whose ``metrics`` are
exactly the ones ``BENCHMARK.json`` names for the mode.  Spans of a traced
run are written under ``.perfbench_out/``.  The exit code is 0 when every
request passed its correctness gate and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import tracing
import workloads
from calibrate import REFERENCE_MS, calibration_ms, scale_factor
from workloads import BenchmarkError, Outcome

HERE = os.path.dirname(os.path.abspath(__file__))

# Fresh interpreters timed for setup_s; one more runs first, unmeasured, so
# that compiling bytecode into a new checkout is not counted.  Each probe
# also times the calibration loop, which scales its own setup time.
SETUP_PROBES = 11

SETUP_CODE = """\
import sys, time
t = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cluster_dual
for label in sys.argv[3:]:
    cluster_dual.cartan.build_cartan(label)
elapsed = time.perf_counter() - t
sys.path.insert(0, sys.argv[2])
from calibrate import calibration_ms
print(cluster_dual.__file__)
print(elapsed)
print(sorted(calibration_ms() for _ in range(3))[1])
"""


MAX_DETAILS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def library_source(root: str) -> str | None:
    src = os.path.join(root, "src")
    if os.path.isfile(os.path.join(src, "cluster_dual", "__init__.py")):
        return src
    return None


def import_library(src: str):
    sys.path.insert(0, src)
    import cluster_dual
    if not os.path.abspath(cluster_dual.__file__).startswith(src + os.sep):
        raise BenchmarkError(f"cluster_dual imported from {cluster_dual.__file__}, not {src}")
    return cluster_dual


def measure_setup(src: str, types: tuple[str, ...]) -> list[tuple[float, float]]:
    """(seconds to import the package and build its Cartan data, calibration
    milliseconds) in fresh interpreters."""
    out = []
    for probe in range(SETUP_PROBES + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, src, HERE, *types],
                              env=workloads.child_env(), capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchmarkError(f"setup probe failed: {proc.stderr[-400:]}")
        path, elapsed, cal_ms = proc.stdout.split()
        if not os.path.abspath(path).startswith(src + os.sep):
            raise BenchmarkError(f"setup probe imported {path}")
        if probe:
            out.append((float(elapsed), float(cal_ms)))
    return out


def percentile(samples: list[float], q: int) -> float:
    """The q-th percentile (inclusive interpolation)."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args, requests: int) -> dict:
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "cpu_model": cpu_model(),
            "platform": platform.platform(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "requests": requests}


@dataclass
class Phase:
    """Requests run back to back by one client."""

    samples: list = field(default_factory=list)     # seconds per request
    outcomes: list = field(default_factory=list)
    calibrations: list = field(default_factory=list)  # milliseconds per loop
    cal_before: list = field(default_factory=list)    # requests done before each
    wall_s: float = 0.0     # requests only, calibration excluded

    def calibrate(self) -> None:
        self.calibrations.append(calibration_ms())
        self.cal_before.append(len(self.samples))

    def scale(self, request: int) -> float:
        """Factor to the reference speed around a request (-1: before the
        first); the calibration loop runs before every request."""
        return scale_factor(self.calibrations, self.cal_before, request)

    def scaled_samples(self) -> list[float]:
        return [o.scaled_latency_s if o.scaled_latency_s is not None else t * self.scale(i)
                for i, (t, o) in enumerate(zip(self.samples, self.outcomes))]

    @property
    def failed(self) -> int:
        return sum(not o.ok for o in self.outcomes)

    @property
    def redraws(self) -> int:
        return sum(o.redraws for o in self.outcomes)

    @property
    def points(self) -> int:
        return sum(o.points for o in self.outcomes)

    def details(self) -> list[str]:
        return [o.detail for o in self.outcomes if not o.ok][:MAX_DETAILS]


def run_phase(workload, first: int, seconds: float | None = None,
              count: int | None = None, tracer=None) -> Phase:
    """Closed loop from ``first``: ``count`` requests, or as many as fit in
    ``seconds`` (a request is not started when a typical one would end
    past the limit)."""
    phase = Phase()
    start = time.perf_counter()
    index = first
    while workload.max_requests is None or index < workload.max_requests:
        phase.calibrate()
        done = len(phase.samples)
        if count is not None:
            if done >= count:
                break
        elif done >= workload.min_requests and \
                time.perf_counter() - start + statistics.median(phase.samples) > seconds:
            break
        t0 = time.perf_counter()
        try:
            if tracer is None:
                outcome = workload.request(index)
            else:
                with tracer.request_span(index):
                    outcome = workload.request(index)
        except BenchmarkError:
            raise
        except Exception as exc:  # a request that raises is a failed request
            outcome = Outcome(False, detail=f"request {index}: {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
        phase.samples.append(outcome.latency_s if outcome.latency_s is not None else elapsed)
        phase.outcomes.append(outcome)
        index += 1
    phase.calibrate()
    phase.wall_s = time.perf_counter() - start - sum(phase.calibrations) / 1000
    return phase


def peak_rss_mb(phase: Phase) -> float:
    child = [o.maxrss_kb for o in phase.outcomes if o.maxrss_kb is not None]
    kb = max(child) if child else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024


TIME_UNITS = {"req_ms_p50": "ms", "req_ms_p90": "ms", "req_per_s": "1/s",
              "build_s": "s", "build_ms_p50": "ms", "verdict_s": "s"}


def time_metrics(workload: str, samples: list[float], wall_s: float,
                 build_s: float | None, builds: list[float]) -> dict:
    """Latency, rate and build figures of one phase, by metric name."""
    out = {"req_ms_p50": statistics.median(samples) * 1000,
           "req_ms_p90": percentile(samples, 90) * 1000,
           "req_per_s": len(samples) / wall_s}
    if build_s is not None:
        out["build_s"] = build_s
    elif builds:
        out["build_s"] = sum(builds)
        out["build_ms_p50"] = statistics.median(builds) * 1000
    if workload == "cli-suite-a2":
        out["verdict_s"] = statistics.median(samples)
    return out


def measure(args, root: str, src: str, lib) -> tuple[dict, dict, int, int]:
    """Untraced run: (metrics, report extras, attempted, failed)."""
    setup = measure_setup(src, workloads.WORKLOADS[args.workload].types)
    workload = workloads.WORKLOADS[args.workload](lib, args.seed, root, args.seconds)
    t0 = time.perf_counter()
    built = workload.build()
    build_s = time.perf_counter() - t0 if built is not None else None
    phase = run_phase(workload, 0, seconds=args.seconds)
    n = len(phase.samples)
    scaled = phase.scaled_samples()
    builds = [(i, o.build_s) for i, o in enumerate(phase.outcomes) if o.build_s is not None]
    raw = time_metrics(args.workload, phase.samples, phase.wall_s, build_s,
                       [b for _, b in builds])
    metrics = {name: (value, TIME_UNITS[name]) for name, value in time_metrics(
        args.workload, scaled, phase.wall_s * sum(scaled) / sum(phase.samples),
        None if build_s is None else build_s * phase.scale(-1),
        [b * phase.scale(i) for i, b in builds]).items()}
    metrics["setup_s"] = (statistics.median(t * REFERENCE_MS / cal for t, cal in setup), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb(phase), "MB")
    metrics["failed_ratio"] = (phase.failed / n, "1")
    raw["setup_s"] = statistics.median(t for t, _ in setup)
    extras = {"samples": {"requests": n, "setup_probes": len(setup),
                          "beyond_p90": sum(t > metrics["req_ms_p90"][0] / 1000
                                            for t in scaled),
                          "points_drawn": phase.points, "redraws": phase.redraws},
              "raw": raw,
              "calibration": {"reference_ms": REFERENCE_MS,
                              "median_ms": statistics.median(phase.calibrations),
                              "samples": len(phase.calibrations),
                              "setup_probe_ms": [cal for _, cal in setup]},
              "setup_s_samples": [t for t, _ in setup], "build": built,
              "failures": phase.details()}
    return metrics, extras, n, phase.failed


def trace(args, root: str, lib) -> tuple[dict, dict, int, int]:
    """Traced run of fixed size, then as many untraced requests."""
    workload = workloads.WORKLOADS[args.workload](lib, args.seed, root, args.seconds)
    tracer = tracing.Tracer()
    in_process = not isinstance(workload, workloads.CliSuiteA2)
    count = workload.trace_requests
    if workload.max_requests is not None:
        count = min(count, workload.max_requests // 2)
    if in_process:
        tracer.install(lib)
    else:
        workload.trace = True
    try:
        with tracer.request_span(-1):
            built = workload.build()
        traced = run_phase(workload, 0, count=count,
                           tracer=tracer if in_process else None)
    finally:
        tracer.uninstall()
    workload.trace = False
    plain = run_phase(workload, count, count=count)
    children = [o.trace for o in traced.outcomes if o.trace]
    span_files = [child["spans_file"] for child in children]
    if in_process:
        path = os.path.join(root, ".perfbench_out",
                            f"spans-{args.workload}-seed{args.seed}.json")
        tracer.write_spans(path)
        span_files.append(os.path.relpath(path, root))
    summary = tracing.merge([tracer.summary()] + children)
    layers = tracing.layer_metrics(summary, len(traced.samples), traced.redraws)
    traced_p50 = statistics.median(traced.scaled_samples()) * 1000
    plain_p50 = statistics.median(plain.scaled_samples()) * 1000
    layers["trace.overhead_ms"] = (traced_p50 - plain_p50, "ms")
    extras = {"samples": {"traced_requests": len(traced.samples),
                          "untraced_requests": len(plain.samples),
                          "points_drawn_traced": traced.points,
                          "redraws_traced": traced.redraws},
              "traced_req_ms_p50": traced_p50, "untraced_req_ms_p50": plain_p50,
              "spans": {"files": span_files,
                        "recorded": summary["recorded_spans"],
                        "dropped": summary["dropped_spans"]},
              "self_s_by_bucket": {k: v / 1e9 for k, v in sorted(summary["self_ns"].items())},
              "build": built,
              "failures": traced.details() + plain.details()}
    attempted = len(traced.samples) + len(plain.samples)
    return layers, extras, attempted, traced.failed + plain.failed


def contract_metrics(root: str, key: str, metrics: dict) -> dict:
    """The metrics BENCHMARK.json names under ``key``, with their units."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        names = json.load(fh)[key]
    out = {}
    for entry in names:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise BenchmarkError(f"{entry['name']} measured in {unit}, declared {entry['unit']}")
        out[entry["name"]] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = library_source(root)
    if src is None:
        print(f"error: no cluster_dual package under {os.path.join(root, 'src')}; "
              "run from the root of a cluster-dual checkout", file=sys.stderr)
        return 2
    os.environ.pop("CLUSTER_DUAL_SEED", None)
    try:
        lib = import_library(src)
        if args.trace:
            metrics, extras, attempted, failed = trace(args, root, lib)
            key = "per_layer"
        else:
            metrics, extras, attempted, failed = measure(args, root, src, lib)
            key = "end_to_end"
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": contract_metrics(root, key, metrics)}
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = {"environment": environment(args, attempted),
              "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
              **extras}
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
