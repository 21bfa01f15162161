"""One ``cluster-dual`` CLI command in a fresh interpreter.

Run by the cli-suite-a2 workload as
``python3 perfbench/cli_request.py '<job json>'``; the job names the
checkout root, the CLI argv, whether to trace and where to write spans.  The
last line of standard output is a JSON object: the exit code, the wall time
of ``cli.main``, the parsed JSON payload the command printed, the peak RSS
of this interpreter and, when traced, the tracer summary.

An untraced command also runs the calibration loop before every check the
CLI starts (``evals.check_identity`` as ``cli`` looks it up) and once at the
end, and reports its time scaled check by check to the reference speed: a
command lasts several seconds, long enough for the core's speed to change.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

from calibrate import calibration_ms, scale_factor


def main() -> int:
    job = json.loads(sys.argv[1])
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    import cluster_dual
    if not os.path.abspath(cluster_dual.__file__).startswith(src + os.sep):
        print(f"cluster_dual imported from {cluster_dual.__file__}, not {src}",
              file=sys.stderr)
        return 2
    tracer = None
    calibrations, cal_before, checks = [], [], []
    if job["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(cluster_dual)
    else:
        check_identity = cluster_dual.evals.check_identity

        def timed_check(check):
            calibrations.append(calibration_ms())
            cal_before.append(len(checks))
            start = time.perf_counter()
            try:
                return check_identity(check)
            finally:
                checks.append(time.perf_counter() - start)
        cluster_dual.evals.check_identity = timed_check
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        if tracer is None:
            rc = cluster_dual.cli.main(job["argv"])
        else:
            with tracer.request_span(0):
                rc = cluster_dual.cli.main(job["argv"])
    elapsed = time.perf_counter() - start - sum(calibrations) / 1000
    out = {"rc": rc, "elapsed_s": elapsed,
           "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is None:
        calibrations.append(calibration_ms())
        cal_before.append(len(checks))
        out["scaled_s"] = (sum(t * scale_factor(calibrations, cal_before, k)
                               for k, t in enumerate(checks))
                           + (elapsed - sum(checks)) * scale_factor(calibrations, cal_before, -1))
    try:
        out["payload"] = json.loads(buf.getvalue())
    except ValueError:
        out["payload"] = None
    if tracer is not None:
        tracer.uninstall()
        tracer.write_spans(job["spans"])
        out["trace"] = tracer.summary()
        out["trace"]["spans_file"] = os.path.relpath(job["spans"], job["root"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
