"""Span tracing around the library's public functions, from outside it.

The benchmark never edits the library: :meth:`Tracer.install` replaces each
traced function (and every name other modules bound to it with
``from ... import``) by a wrapper that records a span, and :meth:`uninstall`
puts the originals back.  Spans are kept in flat arrays in memory and
written out once, after the run.

Every span stores its name, start, end, parent span and op id, plus up to
two integers of work done (``val`` and ``aux``, e.g. LP cells and whether
the LP was feasible).  A layer's self time is its duration minus the
durations of its direct children; spans of one thread nest, so the children
of a span never overlap.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

OP = "bench.op"

# (module, attribute, span name, val/aux extractor).  Names follow
# ``<module>.<function>``; an extractor maps (args, result) to (val, aux).
TARGETS = [
    ("submodular", "SetFunctionOracle.value", "submodular.oracle", None),
    ("submodular", "greedy_vertex", "submodular.greedy_vertex", None),
    ("hull", "diagnose", "hull.diagnose", None),
    ("mixing", "separate_mixing", "mixing.separate_mixing", None),
    ("mixing", "mix_star_cuts", "mixing.chain_cuts", lambda a, r: (len(r), 0)),
    ("mixing", "all_mixing_cuts", "mixing.chain_cuts", lambda a, r: (len(r), 0)),
    ("aggregated", "separate_aggregated", "aggregated.separate_aggregated", None),
    ("aggregated", "aggregated_cut", "aggregated.aggregated_cut", None),
    (
        "hull",
        "hull_cut_family",
        "hull.hull_cut_family",
        lambda a, r: (len(r), sum(c.kind.value == "AMix*" for c in r)),
    ),
    ("core", "LinearCut.canonical_key", "core.canonical_key", None),
    ("core", "load_instance", "core.load_instance", None),
    ("hull", "v_representation", "hull.v_representation", lambda a, r: (len(r.points), 0)),
    (
        "hull",
        "membership",
        "hull.membership",
        lambda a, r: (len(a[0].points) + len(a[0].rays), int(r.inside)),
    ),
    (
        "exactlp",
        "solve_feasibility",
        "exactlp.solve_feasibility",
        lambda a, r: (len(a[0]) * (len(a[0][0]) if a[0] else 0), int(r.feasible)),
    ),
    ("hull", "check_sufficiency", "hull.check_sufficiency", None),
    ("counterexample", "witness", "counterexample.witness", None),
    ("counterexample", "certify_witness", "counterexample.certify_witness", None),
    ("twosided", "hull_with_bounds", "twosided.hull_with_bounds", None),
    ("twosided", "to_mixing", "twosided.to_mixing", None),
    ("twosided", "generalized_cut", "twosided.generalized_cut", None),
    ("cli", "main", "cli.main", None),
]

# The separation regime is a property of the generated instance, so the op
# tags it and the span of separate_aggregated carries it in its name.
TAGGED = {"aggregated.separate_aggregated"}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.val = array("q")
        self.aux = array("q")
        self.evals: dict[int, int] = {}
        self._stack: list[int] = []
        self.op_id = -1
        self.tag = ""
        self._patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.val.append(0)
        self.aux.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def run_op(self, op_id: int, fn, *args):
        """Run one benchmark op inside a root span carrying its id."""
        self.op_id = op_id
        idx = self.open(self.name_id(OP))
        try:
            return fn(*args)
        finally:
            self.close(idx)

    # -- installing wrappers ------------------------------------------------

    def _wrap(self, fn, name: str, extract):
        tracer = self
        tagged = name in TAGGED
        nid = self.name_id(name)

        def wrapper(*args, **kwargs):
            idx = tracer.open(tracer.name_id(f"{name}.{tracer.tag}") if tagged else nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if extract is not None:
                tracer.val[idx], tracer.aux[idx] = extract(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "mixcuts" or k.startswith("mixcuts.")]
        for mod_name, attr, name, extract in TARGETS:
            owner = sys.modules[f"mixcuts.{mod_name}"]
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            wrapper = self._wrap(original, name, extract)
            self._set(owner, path[-1], wrapper)
            if len(path) == 1:  # also every `from ... import` binding
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapper)
        self._count_evals(sys.modules["mixcuts.submodular"].SetFunctionOracle)

    def _count_evals(self, oracle_cls) -> None:
        """Count evaluations by wrapping the ``func`` every oracle is built with."""
        tracer = self
        init = oracle_cls.__init__

        def counting_init(obj, ground_size, func, *args, **kwargs):
            def counted(mask):
                tracer.evals[tracer.op_id] = tracer.evals.get(tracer.op_id, 0) + 1
                return func(mask)

            init(obj, ground_size, counted, *args, **kwargs)

        self._set(oracle_cls, "__init__", counting_init)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[idx] - self.start[idx]
        return own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\top\tparent\tname\tstart\tend\tval\taux\n")
            for idx in range(len(self.name)):
                fh.write(
                    f"{idx}\t{self.op[idx]}\t{self.parent[idx]}\t{self.names[self.name[idx]]}\t"
                    f"{self.start[idx]!r}\t{self.end[idx]!r}\t{self.val[idx]}\t{self.aux[idx]}\n"
                )


def accounting(tracer: Tracer, own: list[float], wall: float) -> tuple[float, list[str]]:
    """Benchmark-side time in the traced phase, and any accounting errors.

    The layers' self times plus the benchmark's own time (op spans' self time
    and the time outside ops) add up to the traced wall time only if every
    span lies inside its parent, siblings do not overlap and the root spans
    fit in the wall time, so all three are checked along with the sum.
    """
    errors = []
    op_id = tracer.ids.get(OP, -1)
    latest_end: dict[int, float] = {}  # parent (-1 for roots) -> end of its last child
    roots = layer = bench = 0.0
    for idx, nid in enumerate(tracer.name):
        parent, start, end = tracer.parent[idx], tracer.start[idx], tracer.end[idx]
        if parent >= 0 and not tracer.start[parent] <= start <= end <= tracer.end[parent]:
            errors.append(f"span {idx} ({tracer.names[nid]}) is not inside its parent {parent}")
        if start < latest_end.get(parent, start):
            errors.append(f"span {idx} ({tracer.names[nid]}) overlaps an earlier sibling")
        latest_end[parent] = end
        if parent < 0:
            roots += end - start
        if nid == op_id:
            bench += own[idx]
        else:
            layer += own[idx]
    if roots > wall:
        errors.append(f"root spans cover {roots!r} s, more than the wall time {wall!r} s")
    bench += wall - roots
    if abs(layer + bench - wall) > 1e-6 * max(1.0, wall):
        errors.append(f"self times {layer!r} + benchmark {bench!r} != wall {wall!r}")
    return bench, errors


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_totals(tracer: Tracer, own: list[float], ops: range | None = None) -> dict:
    """Per span name: calls, self time and val/aux sums over the given ops
    (all ops by default), plus oracle evaluations and the aggregated_cut
    calls made under hull_cut_family."""
    totals: dict = {"calls": {}, "self_s": {}, "val": {}, "aux": {}}
    under_family = 0
    family = tracer.ids.get("hull.hull_cut_family", -2)
    agg = tracer.ids.get("aggregated.aggregated_cut", -2)
    for idx, nid in enumerate(tracer.name):
        if ops is not None and tracer.op[idx] not in ops:
            continue
        name = tracer.names[nid]
        for key, value in (("calls", 1), ("self_s", own[idx]), ("val", tracer.val[idx]), ("aux", tracer.aux[idx])):
            totals[key][name] = totals[key].get(name, 0) + value
        if nid == agg:
            parent = tracer.parent[idx]
            while parent >= 0 and tracer.name[parent] != family:
                parent = tracer.parent[parent]
            under_family += parent >= 0
    totals["evals"] = sum(v for op, v in tracer.evals.items() if ops is None or op in ops)
    totals["agg_under_family"] = under_family
    return totals


# Span names reported with calls and self_s; separate_aggregated is split by
# regime.  The extra stats of some layers are added in per_layer below.
LAYER_NAMES = [
    "submodular.oracle",
    "submodular.greedy_vertex",
    "hull.diagnose",
    "mixing.separate_mixing",
    "mixing.chain_cuts",
    "aggregated.separate_aggregated.greedy",
    "aggregated.separate_aggregated.enum",
    "aggregated.aggregated_cut",
    "hull.hull_cut_family",
    "core.canonical_key",
    "core.load_instance",
    "hull.v_representation",
    "hull.membership",
    "exactlp.solve_feasibility",
    "hull.check_sufficiency",
    "counterexample.witness",
    "counterexample.certify_witness",
    "twosided.hull_with_bounds",
    "twosided.to_mixing",
    "twosided.generalized_cut",
    "cli.main",
]


def per_layer(totals: dict) -> dict[str, float]:
    """The named per-layer metrics (``<module>.<function>.<stat>``)."""
    calls, own, val, aux = totals["calls"], totals["self_s"], totals["val"], totals["aux"]
    metrics: dict[str, float] = {}
    for name in LAYER_NAMES:
        metrics[f"{name}.calls"] = calls.get(name, 0)
        metrics[f"{name}.self_s"] = own.get(name, 0.0)
    oracle_calls = calls.get("submodular.oracle", 0)
    metrics["submodular.oracle.evals"] = totals["evals"]
    metrics["submodular.oracle.hit_ratio"] = ratio(oracle_calls - totals["evals"], oracle_calls)
    metrics["mixing.chain_cuts.cuts"] = val.get("mixing.chain_cuts", 0)
    metrics["hull.hull_cut_family.cuts"] = val.get("hull.hull_cut_family", 0)
    metrics["hull.hull_cut_family.kept_ratio"] = ratio(aux.get("hull.hull_cut_family", 0), totals["agg_under_family"])
    metrics["hull.v_representation.points"] = val.get("hull.v_representation", 0)
    metrics["hull.membership.columns"] = val.get("hull.membership", 0)
    metrics["hull.membership.inside_ratio"] = ratio(aux.get("hull.membership", 0), calls.get("hull.membership", 0))
    metrics["exactlp.solve_feasibility.cells"] = val.get("exactlp.solve_feasibility", 0)
    metrics["exactlp.solve_feasibility.feasible_ratio"] = ratio(
        aux.get("exactlp.solve_feasibility", 0), calls.get("exactlp.solve_feasibility", 0)
    )
    return metrics


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"
