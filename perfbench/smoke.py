"""Smoke test of the benchmark itself, at tiny sizes.

Run from the root of a checkout::

    python3 perfbench/smoke.py

It runs every workload untraced and traced, checks that every metric the
benchmark defines is emitted with its unit, that a deliberately wrong
expected result is counted as a failed request rather than passed, and that
the benchmark refuses to run without the library.  It is kept out of the
repository's test suite because it takes about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"setup_s": "s", "req_ms_p50": "ms", "req_ms_p90": "ms", "req_per_s": "1/s",
              "peak_rss_mb": "MB", "failed_ratio": "1"}
WORKLOAD_END_TO_END = {"braid-a2": {"build_s": "s"},
                       "compute-a2": {"build_s": "s", "build_ms_p50": "ms"},
                       "cli-suite-a2": {"verdict_s": "s"}, "poisson-a1": {}}
PER_LAYER = (
    "arith.fp_div_per_req", "arith.spow_per_req", "arith.jet_mul_per_req",
    "cartan.self_s", "cartan.from_word_calls",
    "words.self_s", "words.applicable_moves_calls", "words.shuffle_class_calls",
    "words.apply_move_per_point", "words.index_map_per_point",
    "seeds.self_s", "seeds.mutate_seed_per_point", "seeds.tropical_mutate_seed_per_point",
    "seeds.seed_for_word_per_point",
    "maps.build_self_s", "maps.steps_per_map", "maps.step_apply_self_s",
    "maps.mutate_point_per_point", "maps.zeta_map_in_eval_per_point",
    "maps.poisson_bracket_self_s",
    "group.mul_per_req", "group.inverse_per_req", "group.gauss_per_req", "group.self_s",
    "evals.ev_hat_per_point", "evals.ev_hat_self_s", "evals.make_context_s",
    "evals.harness_self_s", "evals.points_drawn", "evals.redraw_ratio",
    "evals.q_evals_per_req",
    "golden.self_s", "cli.self_s", "trace.overhead_ms",
)


@contextlib.contextmanager
def patched(obj, **values):
    old = {name: getattr(obj, name) for name in values}
    for name, value in values.items():
        setattr(obj, name, value)
    try:
        yield
    finally:
        for name, value in old.items():
            setattr(obj, name, value)


@contextlib.contextmanager
def tiny():
    """One-trial CLI suite and one traced request per workload."""
    with contextlib.ExitStack() as stack:
        stack.enter_context(patched(workloads, CLI_ARGV=workloads.CLI_ARGV + ["--trials", "1"],
                                    CLI_TRIALS=1))
        for cls in workloads.WORKLOADS.values():
            stack.enter_context(patched(cls, trace_requests=1))
        yield


def bench(workload: str, trace: int, seed: int = 0) -> tuple[int, dict, dict]:
    """Run the benchmark in-process: (exit code, report, result)."""
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(buf):
            rc = run.main(["--workload", workload, "--seed", str(seed),
                           "--seconds", "0.5", "--trace", str(trace)])
    finally:
        os.chdir(cwd)
    report, result = (json.loads(line) for line in buf.getvalue().splitlines()[-2:])
    return rc, report, result


def declared(key: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def test_every_metric_emitted():
    with tiny():
        for name in workloads.WORKLOADS:
            rc, report, result = bench(name, 0)
            assert rc == 0 and result["correct"] and result["failed"] == 0, (name, report)
            want = {**END_TO_END, **WORKLOAD_END_TO_END[name]}
            got = {k: v["unit"] for k, v in report["metrics"].items()}
            assert got == want, (name, got)
            assert report["metrics"]["failed_ratio"]["value"] == 0
            assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("end_to_end")
            env = report["environment"]
            assert env["nproc"] >= 1 and env["python"] and env["seed"] == 0 \
                and env["requests"] == result["attempted"]
            assert report["samples"]["requests"] == result["attempted"]

            rc, report, result = bench(name, 1)
            assert rc == 0 and result["correct"], (name, report)
            got = {k: v["unit"] for k, v in report["metrics"].items()}
            assert set(got) == set(PER_LAYER), (name, set(PER_LAYER) ^ set(got))
            assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("per_layer")


def test_layer_attribution():
    with tiny():
        braid = bench("braid-a2", 1)[1]["metrics"]
        poisson = bench("poisson-a1", 1)[1]["metrics"]
    assert braid["seeds.mutate_seed_per_point"]["value"] > 0
    assert poisson["seeds.mutate_seed_per_point"]["value"] == 0
    assert poisson["group.mul_per_req"]["value"] > 0
    assert braid["group.mul_per_req"]["value"] == 0


def test_wrong_expectation_counts_as_failure():
    cases = [
        ("braid-a2", dict(BRAID_EXPECTED_WORDS=["2,1,2,2,1,2"])),
        ("poisson-a1", dict(POISSON_EXPECTED_WORDS={"PGL2_TABLE": ["1,1"],
                                                    "EVHAT_POISSON": ["1"]})),
        ("compute-a2", dict(COMPUTE_PINNED=("0" * 16,) + workloads.COMPUTE_PINNED[1:])),
        ("cli-suite-a2", dict(CLI_EXPECTED_CHECKS=workloads.CLI_EXPECTED_CHECKS[1:])),
    ]
    with tiny():
        for name, wrong in cases:
            with patched(workloads, **wrong):
                rc, report, result = bench(name, 0)
            assert rc == 1 and not result["correct"], (name, result)
            assert result["failed"] >= 1, (name, result)
            ratio = report["metrics"]["failed_ratio"]["value"]
            assert ratio == result["failed"] / result["attempted"] > 0, (name, ratio)


def test_refuses_without_library():
    bare = os.path.join(ROOT, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "braid-a2",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == "", proc.stdout


def main() -> int:
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
            else:
                print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
