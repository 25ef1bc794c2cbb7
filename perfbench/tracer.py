"""Wrappers that time calls into the engine's public functions, layer by layer.

Nothing here is imported by the engine.  `Tracer.install` replaces every
module attribute that is bound to a target function (the engine imports
names directly, e.g. `twists` holds its own `minimize`) and every target
method on its class; `Tracer.uninstall` puts the original objects back.

Two kinds of target:

* span targets record one span per call (id, parent id, name code, start
  and end in ns, case id) and attribute the call's self time (duration
  minus the time its traced children cover) to the function and its layer;
* counter targets (`AlgebraElement.__mul__`, `HomComplex.__init__`) are
  called too often for one span each, so they only add to call counts and
  time, and their time is charged to the enclosing span as child time.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("linalg", "zigzag", "homcore", "twists", "stability", "reduce", "rootlat")

# (module, attribute path, metric prefix, layer, kind)
TARGETS = (
    ("twistcat.linalg", "rank_mod_p", "linalg.rank_mod_p", "linalg", "span"),
    ("twistcat.linalg", "rank", "linalg.rank", "linalg", "span"),
    ("twistcat.linalg", "nullspace", "linalg.nullspace", "linalg", "span"),
    ("twistcat.linalg", "complement_reps", "linalg.complement_reps", "linalg", "span"),
    ("twistcat.zigzag", "AlgebraElement.__mul__", "zigzag.mul", "zigzag", "counter"),
    ("twistcat.homcore", "HomComplex.__init__", "homcore.HomComplex.build", "homcore", "counter"),
    ("twistcat.homcore", "HomComplex.matrix", "homcore.HomComplex.matrix", "homcore", "span"),
    ("twistcat.homcore", "HomComplex.cocycle_reps", "homcore.cocycle_reps", "homcore", "span"),
    ("twistcat.homcore", "minimize", "homcore.minimize", "homcore", "span"),
    ("twistcat.homcore", "cone", "homcore.cone", "homcore", "span"),
    ("twistcat.homcore", "hom0_is_nonzero", "homcore.hom0_is_nonzero", "homcore", "span"),
    ("twistcat.homcore", "is_spherical", "homcore.is_spherical", "homcore", "span"),
    ("twistcat.homcore", "find_isomorphism", "homcore.find_isomorphism", "homcore", "span"),
    ("twistcat.twists", "twist", "twists.twist", "twists", "span"),
    ("twistcat.twists", "untwist", "twists.untwist", "twists", "span"),
    ("twistcat.twists", "apply_braid", "twists.apply_braid", "twists", "span"),
    ("twistcat.stability", "StabilityCondition.phi_probes", "stability.phi_probes", "stability", "span"),
    ("twistcat.stability", "StabilityCondition.stable_build", "stability.stable_build", "stability", "span"),
    ("twistcat.reduce", "reduce_to_stable", "reduce.reduce_to_stable", "reduce", "span"),
    ("twistcat.rootlat", "positive_roots", "rootlat.positive_roots", "rootlat", "span"),
    ("twistcat.rootlat", "minimal_word", "rootlat.minimal_word", "rootlat", "span"),
    ("twistcat.rootlat", "root_sequence", "rootlat.root_sequence", "rootlat", "span"),
    ("twistcat.rootlat", "evaluate_word", "rootlat.evaluate_word", "rootlat", "span"),
)

_NAMES = tuple(t[2] for t in TARGETS)
_CODE = {name: i for i, name in enumerate(_NAMES)}


class _Frame:
    __slots__ = ("span_id", "code", "child_ns", "rank_calls", "applied_braid")

    def __init__(self, span_id: int, code: int):
        self.span_id = span_id
        self.code = code
        self.child_ns = 0
        self.rank_calls = 0
        self.applied_braid = False


class Tracer:
    """Span store, per-function counters and the patch/unpatch machinery."""

    def __init__(self):
        self.patches: list[tuple[object, str, object]] = []
        self.active = False
        self.case_id = -1
        self._stack: list[_Frame] = []
        self._next_id = 0
        # span columns: id, parent id (-1 at top level), name code, start, end, case id
        self._spans = tuple(array("q") for _ in range(6))
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.self_ns: defaultdict[str, int] = defaultdict(int)
        self.layer_ns: defaultdict[str, int] = defaultdict(int)
        self.values: defaultdict[str, float] = defaultdict(float)

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self.patches:
            raise RuntimeError("tracer is already installed")
        for module_name, path, name, layer, kind in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                wrapper = self._wrap(original, name, layer, kind)
                setattr(owner, attr, wrapper)
                self.patches.append((owner, attr, original))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(original, name, layer, kind)
            for mod in list(sys.modules.values()):
                namespace = getattr(mod, "__dict__", None)
                if not isinstance(namespace, dict):
                    continue
                for attr, value in list(namespace.items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self.patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()
        self.active = False

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, kind: str):
        tracer = self
        code = _CODE[name]
        calls = tracer.calls
        total_ns = tracer.self_ns
        layer_ns = tracer.layer_ns
        stack = tracer._stack

        if kind == "counter":
            def counted(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                t0 = perf_counter_ns()
                result = fn(*args, **kwargs)
                dt = perf_counter_ns() - t0
                calls[name] += 1
                total_ns[name] += dt
                layer_ns[layer] += dt
                if stack:
                    stack[-1].child_ns += dt
                if code == _BUILD:
                    tracer.values["homcore.HomComplex.basis_dim"] += sum(
                        len(v) for v in args[0].basis.values()
                    )
                return result

            counted.__wrapped__ = fn
            return counted

        spans = tracer._spans
        post = _POST.get(name)

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else None
            frame = _Frame(span_id, code)
            if code == _RANK:
                for f in stack:
                    f.rank_calls += 1
            elif code == _APPLY_BRAID and parent is not None and parent.code == _STABLE_BUILD:
                parent.applied_braid = True
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                own = dur - frame.child_ns
                if parent is not None:
                    parent.child_ns += dur
                calls[name] += 1
                total_ns[name] += own
                layer_ns[layer] += own
                for col, value in zip(
                    spans,
                    (span_id, parent.span_id if parent else -1, code, t0, t1, tracer.case_id),
                ):
                    col.append(value)
            if post is not None:
                post(tracer, args, result, frame, parent)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- results -----------------------------------------------------------

    def reset_counts(self) -> None:
        """Zero every count and time; the spans are kept."""
        for counts in (self.calls, self.self_ns, self.layer_ns, self.values):
            counts.clear()

    def span_count(self) -> int:
        return len(self._spans[0])

    def write_spans(self, path) -> None:
        """Write the spans as gzipped JSON lines: a header, then one array per span."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(json.dumps({
                "columns": ["id", "parent", "name", "start_ns", "end_ns", "case"],
                "names": list(_NAMES),
            }) + "\n")
            for row in zip(*self._spans):
                out.write(json.dumps(row) + "\n")

    def layer_metrics(self, base_s: float, prefix: str = "") -> dict[str, float]:
        """Self-time share of each layer over `base_s`, plus the part outside the engine."""
        out = {}
        engine = 0.0
        for layer in LAYERS:
            seconds = self.layer_ns[layer] / 1e9
            engine += seconds
            out[f"{prefix}layer.{layer}.self_frac"] = seconds / base_s if base_s else 0.0
        out[f"{prefix}layer.outside.self_frac"] = (base_s - engine) / base_s if base_s else 0.0
        return out

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics named in BENCHMARK.json (timed phase)."""
        c, s, v = self.calls, self.self_ns, self.values

        def sec(name):
            return s[name] / 1e9

        def frac(num, den):
            return num / den if den else 0.0

        out = {}
        for fn in ("rank_mod_p", "rank", "nullspace", "complement_reps"):
            out[f"linalg.{fn}.calls"] = c[f"linalg.{fn}"]
            out[f"linalg.{fn}.self_s"] = sec(f"linalg.{fn}")
        out["linalg.rank_mod_p.cells"] = v["linalg.rank_mod_p.cells"]
        out["linalg.nullspace.cells"] = v["linalg.nullspace.cells"]
        out["zigzag.mul.calls"] = c["zigzag.mul"]
        out["zigzag.mul.self_s"] = sec("zigzag.mul")
        out["homcore.HomComplex.builds"] = c["homcore.HomComplex.build"]
        out["homcore.HomComplex.basis_dim"] = v["homcore.HomComplex.basis_dim"]
        out["homcore.HomComplex.build.self_s"] = sec("homcore.HomComplex.build")
        for fn in ("HomComplex.matrix", "minimize", "hom0_is_nonzero", "is_spherical",
                   "cocycle_reps", "find_isomorphism"):
            out[f"homcore.{fn}.calls"] = c[f"homcore.{fn}"]
            out[f"homcore.{fn}.self_s"] = sec(f"homcore.{fn}")
        out["homcore.cone.calls"] = c["homcore.cone"]
        out["homcore.cone.self_s"] = sec("homcore.cone")
        out["homcore.minimize.pivots"] = v["homcore.minimize.pivots"]
        for fn in ("hom0_is_nonzero", "is_spherical"):
            out[f"homcore.{fn}.exact_frac"] = frac(v[f"homcore.{fn}.exact"], c[f"homcore.{fn}"])
        out["homcore.find_isomorphism.candidates"] = v["homcore.find_isomorphism.candidates"]
        out["twists.twist.calls"] = c["twists.twist"]
        out["twists.untwist.calls"] = c["twists.untwist"]
        out["twists.apply_braid.calls"] = c["twists.apply_braid"]
        out["twists.self_s"] = sum(sec(f"twists.{fn}") for fn in ("twist", "untwist", "apply_braid"))
        out["twists.gens_out"] = v["twists.gens_out"]
        out["twists.apply_braid.letters"] = v["twists.apply_braid.letters"]
        probes = c["stability.phi_probes"]
        out["stability.phi_probes.calls"] = probes
        out["stability.phi_probes.self_s"] = sec("stability.phi_probes")
        out["stability.hom_tests_per_probe"] = frac(v["stability.hom_tests"], probes)
        out["stability.probe_hit_frac"] = frac(v["stability.hom_hits"], v["stability.hom_tests"])
        out["stability.stable_build.calls"] = c["stability.stable_build"]
        out["stability.stable_build.builds"] = v["stability.stable_build.builds"]
        out["stability.stable_build.self_s"] = sec("stability.stable_build")
        out["reduce.reduce_to_stable.calls"] = c["reduce.reduce_to_stable"]
        out["reduce.reduce_to_stable.self_s"] = sec("reduce.reduce_to_stable")
        out["reduce.steps"] = v["reduce.steps"]
        out["rootlat.self_s"] = sum(
            sec(name) for name in _NAMES if name.startswith("rootlat.")
        )
        return out


def _post_rank_mod_p(tracer, args, result, frame, parent):
    rows = args[0]
    tracer.values["linalg.rank_mod_p.cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _post_nullspace(tracer, args, result, frame, parent):
    tracer.values["linalg.nullspace.cells"] += len(args[0]) * args[1]


def _post_minimize(tracer, args, result, frame, parent):
    tracer.values["homcore.minimize.pivots"] += (
        len(args[0].generators) - len(result.generators)
    ) // 2


def _post_hom0(tracer, args, result, frame, parent):
    if frame.rank_calls:
        tracer.values["homcore.hom0_is_nonzero.exact"] += 1
    if parent is not None and parent.code == _PHI_PROBES:
        tracer.values["stability.hom_tests"] += 1
        if result:
            tracer.values["stability.hom_hits"] += 1


def _post_spherical(tracer, args, result, frame, parent):
    if frame.rank_calls:
        tracer.values["homcore.is_spherical.exact"] += 1


def _post_find_iso(tracer, args, result, frame, parent):
    tracer.values["homcore.find_isomorphism.candidates"] += result[1]


def _post_twist(tracer, args, result, frame, parent):
    tracer.values["twists.gens_out"] += len(result.generators)


def _post_apply_braid(tracer, args, result, frame, parent):
    tracer.values["twists.apply_braid.letters"] += len(args[1])


def _post_stable_build(tracer, args, result, frame, parent):
    if frame.applied_braid:
        tracer.values["stability.stable_build.builds"] += 1


def _post_reduce(tracer, args, result, frame, parent):
    tracer.values["reduce.steps"] += len(result.steps)


_POST = {
    "linalg.rank_mod_p": _post_rank_mod_p,
    "linalg.nullspace": _post_nullspace,
    "homcore.minimize": _post_minimize,
    "homcore.hom0_is_nonzero": _post_hom0,
    "homcore.is_spherical": _post_spherical,
    "homcore.find_isomorphism": _post_find_iso,
    "twists.twist": _post_twist,
    "twists.untwist": _post_twist,
    "twists.apply_braid": _post_apply_braid,
    "stability.stable_build": _post_stable_build,
    "reduce.reduce_to_stable": _post_reduce,
}

_RANK = _CODE["linalg.rank"]
_APPLY_BRAID = _CODE["twists.apply_braid"]
_STABLE_BUILD = _CODE["stability.stable_build"]
_PHI_PROBES = _CODE["stability.phi_probes"]
_BUILD = _CODE["homcore.HomComplex.build"]
