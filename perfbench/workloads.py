"""The four workloads: their seeded inputs, their requests and the
correctness gate every request passes through.

Each workload is a closed loop from one client (one process, one thread):
the next request starts when the previous one has returned.  The library
sees only the generated inputs; the workload seed never reaches it through
``CLUSTER_DUAL_SEED``.  Why each workload exists is written in
``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

DEFAULT_SEED = 0

BRAID_WORD = "1,2,1,1,2,1"
BRAID_EXPECTED_WORDS = [BRAID_WORD]

POISSON_CHECKS = ("PGL2_TABLE", "EVHAT_POISSON")
POISSON_EXPECTED_WORDS = {"PGL2_TABLE": ["-1,1", "1,1"],
                          "EVHAT_POISSON": ["-1,1", "1,1", "1"]}

# Requests of a compute-a2 run per second of --seconds, at most all 160
# pairs: 100 at the 25 s of BENCHMARK.json, about 15 s of work at the
# reference speed and under 35 s on a core half as fast.
COMPUTE_PAIRS_PER_SECOND = 4

# Redraws of a singular rational point allowed per compute-a2 request; a
# request that exhausts them fails.
COMPUTE_RETRY = 16

# sha256 prefixes of the first compute-a2 requests at DEFAULT_SEED: the word,
# the generator index, the rational input point and its exact image.  They
# pin the bit-exact Fraction outputs of ``artin_T``.
COMPUTE_PINNED = (
    "28c5d10333e3cbe3", "bceb998216e3ad58", "b7348468b7e52772", "7af8803000bca4b6",
    "6d00932d831b5333", "ab48aab53ba2d994", "822c2ce7c7a244c2", "d7e2c906fa238f3e",
)

# ``verify --all --type A2`` at the CLI's default trial count: every check
# except the two rank-one tables, in suite order.
CLI_ARGV = ["verify", "--all", "--type", "A2"]
CLI_TRIALS = 20
CLI_EXPECTED_CHECKS = [
    "FG_MUTATION", "TWIST", "TROP_GEOM", "TAU_EQUIV", "SALTATION", "MU_HAT",
    "W0_CONJ", "TAU_PRODUCT", "T_LEMMA", "TORMUT", "DCKP_CLUSTER", "BRAID",
    "SITROP", "PHI_REL",
]
CLI_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))


class BenchmarkError(Exception):
    """The workload cannot run: its build failed or produced a wrong map."""


@dataclass
class Outcome:
    """One request's result as the gate judged it."""

    ok: bool
    points: int = 0
    redraws: int = 0
    detail: str = ""
    build_s: Optional[float] = None     # cold construction inside the request
    latency_s: Optional[float] = None   # set when timed by a child process
    scaled_latency_s: Optional[float] = None  # ... and scaled there, check by check
    maxrss_kb: Optional[int] = None     # peak RSS of that child
    trace: Optional[dict] = None        # that child's tracer summary


def request_seed(seed: int, workload: str, index: int) -> int:
    return random.Random(f"{seed}:{workload}:{index}").getrandbits(32)


def _check_points(report) -> int:
    return len(report.words) * report.trials + report.skipped


def _gate_report(report, words: list[str]) -> str:
    """Empty when a one-trial report is correct, else why it is not."""
    if not report.ok:
        return f"{report.name}: {len(report.failures)} failures"
    if report.words != words:
        return f"{report.name}: ran words {report.words}, expected {words}"
    if report.trials != 1:
        return f"{report.name}: {report.trials} trials"
    return ""


class BraidA2:
    """Cold build of T1T2T1 and T2T1T2, then one-point BRAID checks."""

    name = "braid-a2"
    types = ("A2",)
    trace_requests = 8
    max_requests = None

    def __init__(self, lib, seed: int, root: str, seconds: float):
        self.lib = lib
        self.seed = seed
        self.min_requests = 1

    def build(self) -> dict:
        lib = self.lib
        cdata = lib.cartan.build_cartan("A2")
        base = lib.words.DoubleWord.from_string(BRAID_WORD)
        lhs = lib.maps.artin_T_word(base, (1, 2, 1), cdata)
        rhs = lib.maps.artin_T_word(base, (2, 1, 2), cdata)
        for m in (lhs, rhs):
            if m.source_word != base or m.target_word != base:
                raise BenchmarkError("artin_T_word left the bracket torus of the base word")
        return {"steps": [len(lhs.steps), len(rhs.steps)]}

    def request(self, index: int) -> Outcome:
        evals = self.lib.evals
        check = evals.IdentityCheck("BRAID", "A2", trials=1,
                                    rng_seed=request_seed(self.seed, self.name, index))
        report = evals.check_identity(check)
        detail = _gate_report(report, BRAID_EXPECTED_WORDS)
        return Outcome(not detail, _check_points(report), report.skipped, detail)


class PoissonA1:
    """One PGL2_TABLE and one EVHAT_POISSON check per request, same seed."""

    name = "poisson-a1"
    types = ("A1",)
    trace_requests = 8
    max_requests = None

    def __init__(self, lib, seed: int, root: str, seconds: float):
        self.lib = lib
        self.seed = seed
        self.min_requests = 1

    def build(self) -> Optional[dict]:
        return None

    def request(self, index: int) -> Outcome:
        evals = self.lib.evals
        rng_seed = request_seed(self.seed, self.name, index)
        out = Outcome(True)
        for name in POISSON_CHECKS:
            report = evals.check_identity(
                evals.IdentityCheck(name, "A1", trials=1, rng_seed=rng_seed))
            detail = _gate_report(report, POISSON_EXPECTED_WORDS[name])
            out.points += _check_points(report)
            out.redraws += report.skipped
            if detail:
                out.ok = False
                out.detail = detail
        return out


def shuffle_words() -> list[tuple[int, ...]]:
    """The 80 shuffles of a barred and a plain reduced word of w0 in A2."""
    out = []
    reduced = ((1, 2, 1), (2, 1, 2))
    for neg, pos in itertools.product(reduced, reduced):
        for slots in itertools.combinations(range(6), 3):
            it_neg, it_pos = iter(neg), iter(pos)
            out.append(tuple(-next(it_neg) if t in slots else next(it_pos)
                             for t in range(6)))
    return out


def point_digest(word: str, j: int, point: dict, image: dict) -> str:
    text = json.dumps([word, j, [[list(ix), str(v)] for ix, v in sorted(point.items())],
                       [[list(ix), str(v)] for ix, v in sorted(image.items())]])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class ComputeA2:
    """``compute artin-T``: cold build of T_j on a D(w0) word, then an exact
    rational round trip through the map and its inverse."""

    name = "compute-a2"
    types = ("A2",)
    trace_requests = 10

    def __init__(self, lib, seed: int, root: str, seconds: float):
        self.lib = lib
        self.seed = seed
        pairs = [(w, j) for w in shuffle_words() for j in (1, 2)]
        random.Random(f"{seed}:{self.name}").shuffle(pairs)
        self.pairs = pairs
        # A fixed number of requests, not a time limit: later builds reuse
        # word caches the earlier ones filled, so runs compare only when they
        # do the same work.  At DEFAULT_SEED every pinned digest is checked.
        size = max(1, min(len(pairs), round(COMPUTE_PAIRS_PER_SECOND * seconds)))
        if seed == DEFAULT_SEED:
            size = max(size, len(COMPUTE_PINNED))
        self.min_requests = self.max_requests = size

    def build(self) -> Optional[dict]:
        return None

    def request(self, index: int) -> Outcome:
        lib = self.lib
        maps = lib.maps
        cdata = lib.cartan.build_cartan("A2")
        letters, j = self.pairs[index]
        word = lib.words.DoubleWord(letters)
        t0 = time.perf_counter()
        tmap = maps.artin_T(word, j, cdata)
        build_s = time.perf_counter() - t0
        for redraw in range(COMPUTE_RETRY):
            rng = random.Random(f"{self.seed}:{self.name}:{index}:{redraw}")
            point = maps.random_assignment(word, cdata, rng)
            try:
                image = tmap.apply(point)
                back = tmap.inverse().apply(image)
            except lib.errors.SingularPoint:
                continue
            detail = self._gate(word, j, index, point, image, back)
            return Outcome(not detail, redraw + 1, redraw, detail, build_s=build_s)
        return Outcome(False, COMPUTE_RETRY, COMPUTE_RETRY,
                       f"{word.to_string()} T{j}: retry budget exhausted", build_s=build_s)

    def _gate(self, word, j, index, point, image, back) -> str:
        text = word.to_string()
        if set(image) != set(point):
            return f"{text} T{j}: image has other coordinates"
        if not all(type(v) is Fraction for v in image.values()):
            return f"{text} T{j}: image is not rational"
        if back != point:
            return f"{text} T{j}: inverse does not return the point"
        digest = point_digest(text, j, point, image)
        if self.seed == DEFAULT_SEED and index < len(COMPUTE_PINNED) \
                and digest != COMPUTE_PINNED[index]:
            return f"{text} T{j}: output digest {digest} != pinned {COMPUTE_PINNED[index]}"
        return ""


class CliSuiteA2:
    """``verify --all --type A2``; each command runs in a fresh interpreter so
    that every verdict starts from cold caches."""

    name = "cli-suite-a2"
    types = ("A2",)
    trace_requests = 1
    max_requests = None

    def __init__(self, lib, seed: int, root: str, seconds: float):
        self.seed = seed
        self.root = root
        self.trace = False  # set by the runner for the traced phase
        self.min_requests = 1

    def build(self) -> Optional[dict]:
        return None

    def request(self, index: int) -> Outcome:
        rng_seed = request_seed(self.seed, self.name, index)
        argv = CLI_ARGV + ["--rng-seed", str(rng_seed)]
        spans = os.path.join(self.root, ".perfbench_out",
                             f"spans-{self.name}-seed{self.seed}-req{index}.json")
        job = {"root": self.root, "argv": argv, "trace": self.trace, "spans": spans}
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "cli_request.py"), json.dumps(job)],
            cwd=self.root, env=child_env(), capture_output=True, text=True,
            timeout=CLI_TIMEOUT_S)
        if proc.returncode != 0:
            return Outcome(False, detail=f"cli child exited {proc.returncode}: "
                                         f"{proc.stderr[-400:]}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        out = Outcome(True, latency_s=child["elapsed_s"], maxrss_kb=child["maxrss_kb"],
                      scaled_latency_s=child.get("scaled_s"), trace=child.get("trace"))
        payload = child["payload"]
        reports = payload["reports"] if payload else []
        out.points = sum(len(r["words"]) * r["trials"] + r["skipped"] for r in reports)
        out.redraws = sum(r["skipped"] for r in reports)
        names = [r["name"] for r in reports]
        if child["rc"] != 0:
            out.detail = f"exit code {child['rc']}"
        elif names != CLI_EXPECTED_CHECKS:
            out.detail = f"ran checks {names}"
        elif any(r["failures"] for r in reports):
            out.detail = "failures in " + ", ".join(r["name"] for r in reports if r["failures"])
        elif payload["config"]["trials"] != CLI_TRIALS \
                or payload["config"]["rng_seed"] != rng_seed:
            out.detail = f"config {payload['config']}"
        out.ok = not out.detail
        return out


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CLUSTER_DUAL_SEED", None)
    return env


WORKLOADS = {cls.name: cls for cls in (BraidA2, PoissonA1, ComputeA2, CliSuiteA2)}
