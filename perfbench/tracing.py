"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public functions and methods of ``cluster_dual`` from the
outside; no library file changes.  A module-level function is replaced in
every module namespace that binds it, because ``maps`` and ``evals`` import
``mutate_seed``, ``seed_for_word``, ``bracket_seed``, ``spow`` and others by
name: patching ``seeds.mutate_seed`` alone would miss the calls ``maps``
makes.  Methods (``Step`` subclasses, ``RationalMap``, ``GroupMatrix``,
``WeylElement``, ``Fp``, ``Jet``) are patched on their class.

Each wrapped call of a layer function is a span: an id, its parent span, a
name, start and end (``perf_counter_ns``) and the request it belongs to.
Self time is accounted online (span duration minus the part its child spans
cover) into one bucket per layer, so the per-layer numbers never depend on
the recorded span list, which is capped to bound memory.  Scalar operations
(``Fp`` division, ``Jet`` multiplication, ``spow``) are only counted: a span
per field operation would cost more than the operation.

Accessors of ``Seed``, ``DoubleWord`` and ``Move`` (``eps``, ``count``,
properties) and the small ``WeylElement`` methods (``*``, ``length``,
``reduced_word``) are not wrapped: a span costs about as much as one of
them, so wrapping them would inflate the caller's layer.  Their time counts
to the caller's layer.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import Counter, defaultdict
from fractions import Fraction

MAX_RECORDED_SPANS = 100_000

# Calls that evaluate a map at a point: everything below them is per-point
# work.  Everything else in ``maps``, except the point-level helpers below,
# is map construction.
_EVAL_METHODS = {"maps.RationalMap.apply", "maps.MoveStep.apply",
                 "maps.XiCoreStep.apply", "maps.XiCoreInverseStep.apply"}

# Point-level helpers of ``maps`` that other layers call once per point.
_POINT_FUNCTIONS = {"maps.mutate_point", "maps.tropical_mutate_point",
                    "maps.amalgamate_points", "maps.split_point"}

# Top-level constructors whose returned maps feed ``maps.steps_per_map``.
_CONSTRUCTORS = {"maps.artin_T", "maps.artin_T_word", "maps.mu_hat",
                 "maps.path_transform", "maps.dmove_transform", "maps.zeta_map",
                 "maps.dual_move_map", "maps.xi_saltation"}

_LAYER_FUNCTIONS = {
    "cartan": ("build_cartan", "from_word", "longest_element", "is_reduced",
               "reduced_words", "star_involution", "star", "star_element",
               "right_weak_leq", "positive_roots", "weyl_iter"),
    "words": ("seed_indices", "classify", "applicable_moves", "apply_move",
              "index_map", "move_path", "is_positive_reduced",
              "is_negative_reduced", "section_word", "square_word", "star_word",
              "l_move", "r_move", "trivial_vword", "trivial_decompositions",
              "shuffle_class_decomposition", "is_in_dv", "is_in_class",
              "canonical_class", "dual_move_classes", "membership",
              "dual_block_length"),
    "seeds": ("elementary_seed", "amalgamate", "seed_for_word", "bracket_seed",
              "mutate_seed", "flip_orientation", "tropical_mutate_seed",
              "relabel_seed"),
    "maps": ("mutate_point", "tropical_mutate_point", "amalgamate_points",
             "split_point", "identity_map", "dmove_transform", "path_transform",
             "zeta_map", "dual_move_map", "xi_saltation", "mu_hat", "artin_T",
             "artin_T_word", "poisson_bracket_at", "is_poisson_map",
             "random_assignment"),
    "group": ("identity", "projective_eq", "e_gen", "f_gen", "h_gen", "x_pos",
              "x_neg", "s_hat", "generator", "word_representative",
              "weyl_representative", "gauss", "gauss_leq0", "gauss_geq0", "theta",
              "gauss_g0", "xi_and_ddminus", "dckp_T"),
    "evals": ("ev", "ev_red", "frozen_torus", "make_context", "ev_LR", "ev_hat",
              "star_transport", "tau_product", "check_identity"),
    "golden": ("data", "eval_expr", "eval_matrix", "eval_map", "eta_matrix"),
    "cli": ("main",),
}

_LAYER_METHODS = {
    ("cartan", "WeylElement"): ("inverse", "act_on_weight"),
    ("maps", "MoveStep"): ("apply", "inverse"),
    ("maps", "XiCoreStep"): ("apply", "inverse"),
    ("maps", "XiCoreInverseStep"): ("apply", "inverse"),
    ("maps", "RationalMap"): ("apply", "then", "inverse"),
    ("group", "GroupMatrix"): ("__mul__", "inverse", "det", "transpose", "scale"),
}

# Scalar operations that are counted, never spanned.
_COUNTED_METHODS = {
    ("arith", "Fp"): ("__truediv__", "inverse"),
    ("arith", "Jet"): ("__mul__", "__rmul__"),
}


class Tracer:
    """Spans and counters for one process; install, run, uninstall."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.eval_counts: Counter = Counter()
        self.self_ns: defaultdict = defaultdict(int)
        self.make_context_ns = 0
        self.map_steps: list[int] = []
        self.q_evals = 0
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self._names: dict[str, int] = {}
        self._origin = time.perf_counter_ns()
        self.request = -1
        self._stack: list[list] = []
        self._next_id = 0
        self._eval_depth = 0
        self._build_depth = 0
        self._patches: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self, lib) -> None:
        """Wrap the layer functions of the imported ``cluster_dual`` package."""
        modules = [getattr(lib, name) for name in lib.__all__ if name != "__version__"]
        for layer, names in _LAYER_FUNCTIONS.items():
            mod = getattr(lib, layer)
            for name in names:
                self._rebind(modules, getattr(mod, name),
                             self._span_wrapper(getattr(mod, name), layer, f"{layer}.{name}"))
        golden = lib.golden
        self._rebind(modules, golden.bracket_table_entries,
                     self._golden_table_wrapper(golden.bracket_table_entries))
        self._rebind(modules, lib.arith.spow,
                     self._count_wrapper(lib.arith.spow, "arith.spow"))
        for (layer, cls_name), names in _LAYER_METHODS.items():
            cls = getattr(getattr(lib, layer), cls_name)
            for name in names:
                orig = cls.__dict__[name]
                self._patch(cls, name, self._span_wrapper(
                    orig, layer, f"{layer}.{cls_name}.{name}"))
        for (layer, cls_name), names in _COUNTED_METHODS.items():
            cls = getattr(getattr(lib, layer), cls_name)
            for name in names:
                self._patch(cls, name, self._count_wrapper(
                    cls.__dict__[name], f"{layer}.{cls_name}.{name}"))

    def uninstall(self) -> None:
        for target, name, orig in reversed(self._patches):
            setattr(target, name, orig)
        self._patches.clear()

    def _patch(self, target, name, value) -> None:
        self._patches.append((target, name, target.__dict__[name]))
        setattr(target, name, value)

    def _rebind(self, modules, orig, wrapper) -> None:
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is orig:
                    self._patch(mod, name, wrapper)

    # -- wrappers ----------------------------------------------------------

    def _count_wrapper(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _span_wrapper(self, fn, layer, name):
        tracer = self
        clock = time.perf_counter_ns
        is_eval = name in _EVAL_METHODS
        is_constructor = name in _CONSTRUCTORS
        is_make_context = name == "evals.make_context"
        is_map_apply = name == "maps.RationalMap.apply"
        is_point_work = is_eval or name in _POINT_FUNCTIONS
        if name == "evals.check_identity":
            bucket = "evals.harness"
        elif name == "evals.ev_hat":
            bucket = "evals.ev_hat"
        elif name == "maps.poisson_bracket_at":
            bucket = "maps.poisson_bracket"
        elif name == "maps.random_assignment":
            bucket = "maps.draw"
        else:
            bucket = layer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = tracer.counts
            counts[name] += 1
            if tracer._eval_depth:
                tracer.eval_counts[name] += 1
            if is_map_apply and not tracer._eval_depth and args[1:] and args[1] \
                    and isinstance(next(iter(args[1].values())), Fraction):
                tracer.q_evals += 1
            own = bucket
            if layer == "maps" and own == "maps":
                own = "maps.eval" if (is_point_work or tracer._eval_depth) else "maps.build"
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][2] if stack else -1
            frame = [clock(), 0, span_id]
            stack.append(frame)
            if is_eval:
                tracer._eval_depth += 1
            outer_build = is_constructor and not tracer._eval_depth and not tracer._build_depth
            if is_constructor:
                tracer._build_depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                if is_eval:
                    tracer._eval_depth -= 1
                if is_constructor:
                    tracer._build_depth -= 1
                stack.pop()
                start = frame[0]
                dur = end - start
                tracer.self_ns[own] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if is_make_context:
                    tracer.make_context_ns += dur
                tracer._record(span_id, parent, name, start, end)
            if outer_build:
                tracer.map_steps.append(len(result.steps))
            return result
        return traced

    def _golden_table_wrapper(self, fn):
        """The table's expected-value closures are golden code run by evals."""
        span = self._span_wrapper(fn, "golden", "golden.bracket_table_entries")
        wrap = self._span_wrapper

        @functools.wraps(fn)
        def table():
            return [(a, b, wrap(expect, "golden", "golden.expect"))
                    for a, b, expect in span()]
        return table

    # -- spans ---------------------------------------------------------------

    def _record(self, span_id, parent, name, start, end) -> None:
        if len(self.spans) < MAX_RECORDED_SPANS:
            name_id = self._names.setdefault(name, len(self._names))
            self.spans.append((span_id, parent, name_id, start - self._origin,
                               end - start, self.request))
        else:
            self.dropped_spans += 1

    @contextlib.contextmanager
    def request_span(self, index: int):
        """A root span for one benchmark request."""
        self.request = index
        span_id = self._next_id
        self._next_id += 1
        frame = [time.perf_counter_ns(), 0, span_id]
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.self_ns["bench"] += end - frame[0] - frame[1]
            self._record(span_id, -1, "bench.request", frame[0], end)

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start_ns", "duration_ns", "request"],
                       "names": list(self._names), "dropped": self.dropped_spans,
                       "spans": self.spans}, fh, separators=(",", ":"))

    def summary(self) -> dict:
        """Plain-data totals, mergeable across processes."""
        return {"counts": dict(self.counts), "eval_counts": dict(self.eval_counts),
                "self_ns": dict(self.self_ns), "make_context_ns": self.make_context_ns,
                "map_steps": list(self.map_steps), "q_evals": self.q_evals,
                "recorded_spans": len(self.spans), "dropped_spans": self.dropped_spans}


def merge(summaries: list[dict]) -> dict:
    """Sum tracer summaries from several processes."""
    out = {"counts": Counter(), "eval_counts": Counter(), "self_ns": Counter(),
           "make_context_ns": 0, "map_steps": [], "q_evals": 0,
           "recorded_spans": 0, "dropped_spans": 0}
    for s in summaries:
        out["counts"].update(s["counts"])
        out["eval_counts"].update(s["eval_counts"])
        out["self_ns"].update(s["self_ns"])
        out["map_steps"].extend(s["map_steps"])
        for key in ("make_context_ns", "q_evals", "recorded_spans", "dropped_spans"):
            out[key] += s[key]
    return out


def layer_metrics(summary: dict, requests: int, redraws: int) -> dict:
    """The per-layer metrics, as name -> (value, unit).  Points drawn are the
    calls of ``maps.random_assignment``, the library's and the benchmark's."""
    c, ev = summary["counts"], summary["eval_counts"]
    points = c.get("maps.random_assignment", 0)
    secs = {k: v / 1e9 for k, v in summary["self_ns"].items()}
    per_req = max(requests, 1)
    per_pt = max(points, 1)
    steps = summary["map_steps"]
    return {
        "arith.fp_div_per_req": ((c.get("arith.Fp.__truediv__", 0)
                                  + c.get("arith.Fp.inverse", 0)) / per_req, "count"),
        "arith.spow_per_req": (c.get("arith.spow", 0) / per_req, "count"),
        "arith.jet_mul_per_req": ((c.get("arith.Jet.__mul__", 0)
                                   + c.get("arith.Jet.__rmul__", 0)) / per_req, "count"),
        "cartan.self_s": (secs.get("cartan", 0.0), "s"),
        "cartan.from_word_calls": (c.get("cartan.from_word", 0), "count"),
        "words.self_s": (secs.get("words", 0.0), "s"),
        "words.applicable_moves_calls": (c.get("words.applicable_moves", 0), "count"),
        "words.shuffle_class_calls": (c.get("words.shuffle_class_decomposition", 0), "count"),
        "words.apply_move_per_point": (ev.get("words.apply_move", 0) / per_pt, "count"),
        "words.index_map_per_point": (ev.get("words.index_map", 0) / per_pt, "count"),
        "seeds.self_s": (secs.get("seeds", 0.0), "s"),
        "seeds.mutate_seed_per_point": (ev.get("seeds.mutate_seed", 0) / per_pt, "count"),
        "seeds.tropical_mutate_seed_per_point": (
            ev.get("seeds.tropical_mutate_seed", 0) / per_pt, "count"),
        "seeds.seed_for_word_per_point": (ev.get("seeds.seed_for_word", 0) / per_pt, "count"),
        "maps.build_self_s": (secs.get("maps.build", 0.0), "s"),
        "maps.steps_per_map": (sum(steps) / len(steps) if steps else 0.0, "count"),
        "maps.step_apply_self_s": (secs.get("maps.eval", 0.0), "s"),
        "maps.mutate_point_per_point": (c.get("maps.mutate_point", 0) / per_pt, "count"),
        "maps.zeta_map_in_eval_per_point": (ev.get("maps.zeta_map", 0) / per_pt, "count"),
        "maps.poisson_bracket_self_s": (secs.get("maps.poisson_bracket", 0.0), "s"),
        "group.mul_per_req": (c.get("group.GroupMatrix.__mul__", 0) / per_req, "count"),
        "group.inverse_per_req": (c.get("group.GroupMatrix.inverse", 0) / per_req, "count"),
        "group.gauss_per_req": (c.get("group.gauss", 0) / per_req, "count"),
        "group.self_s": (secs.get("group", 0.0), "s"),
        "evals.ev_hat_per_point": (c.get("evals.ev_hat", 0) / per_pt, "count"),
        "evals.ev_hat_self_s": (secs.get("evals.ev_hat", 0.0), "s"),
        "evals.make_context_s": (summary["make_context_ns"] / 1e9, "s"),
        "evals.harness_self_s": (secs.get("evals.harness", 0.0), "s"),
        "evals.points_drawn": (points, "count"),
        "evals.redraw_ratio": (redraws / per_pt, "1"),
        "evals.q_evals_per_req": (summary["q_evals"] / per_req, "count"),
        "golden.self_s": (secs.get("golden", 0.0), "s"),
        "cli.self_s": (secs.get("cli", 0.0), "s"),
    }
