"""Per-layer metrics: where the tracer hooks into solvquot's modules, and how
the spans and counts of the traced rounds become the per-layer figures.

A layer is a module of src/solvquot.  The hooks replace a callee's name in
its caller's namespace, so they catch the calls that cross from one module
into another (counting -> cohomology, cohomology -> presentations, ...).
A hook whose function no longer exists is skipped, and its figures read 0.
"""

from __future__ import annotations

import statistics

from tracer import Tracer

# (namespace module, attribute, span name); the span is named after the
# module that defines the function.
HOOKS = [
    ("counting", "build_system", "cohomology.build_system"),
    ("cohomology", "symbolic_jacobian", "presentations.symbolic_jacobian"),
    ("counting", "solve_system", "cohomology.solve_system"),
    ("counting", "aut_order", "groups.aut_order"),
    ("subgrowth", "hom_count_symmetric", "subgrowth.hom_count_symmetric"),
    ("subgrowth", "table1_delta", "counting.table1_delta"),
    ("subgrowth", "abelian_invariants", "presentations.abelian_invariants"),
]
ITERATOR_HOOKS = [
    ("counting", "solution_vectors", "cohomology.solution_vectors"),
]
MODULES = ("presentations", "groups", "cohomology", "counting", "subgrowth")

UNITS = {
    "presentations.parse_s": "s",
    "presentations.jacobian_calls": "count",
    "presentations.jacobian_s": "s",
    "presentations.self_s": "s",
    "groups.tower_s": "s",
    "groups.aut_calls": "count",
    "groups.aut_s": "s",
    "groups.self_s": "s",
    "cohomology.build_calls": "count",
    "cohomology.build_s": "s",
    "cohomology.solve_calls": "count",
    "cohomology.solve_s": "s",
    "cohomology.solvable_ratio": "ratio",
    "cohomology.solutions_yielded": "count",
    "cohomology.solutions_yielded.top": "count",
    "cohomology.enumerate_s": "s",
    "cohomology.self_s": "s",
    "counting.queries": "count",
    "counting.self_s": "s",
    "counting.frontier_peak": "count",
    "counting.kept_ratio": "ratio",
    "subgrowth.homsym_calls": "count",
    "subgrowth.homsym_s": "s",
    "subgrowth.largest_k_s": "s",
    "subgrowth.normal_s": "s",
    "subgrowth.self_s": "s",
    "bench.trace_overhead_s": "s",
    "bench.spans": "count",
}


def new_tracer(lib=None, patch=False):
    """A tracer; with ``patch`` its hooks are installed in ``lib``."""
    tr = Tracer()
    if not patch:
        return tr

    def note_layer(args, kwargs):
        tr.last_layer = args[2] if len(args) > 2 else kwargs.get("layer")

    def note_solvable(res, args, kwargs, seconds):
        if getattr(res, "solvable", False):
            tr.counts["solvable"] += 1

    def note_largest_k(out, args, kwargs, seconds):
        k = args[1] if len(args) > 1 else kwargs.get("k")
        if k == tr.kmax:
            tr.counts["largest_k_s"] += seconds

    extra = {
        "build_system": (note_layer, None),
        "solve_system": (None, note_solvable),
        "hom_count_symmetric": (None, note_largest_k),
    }
    for mod, attr, span in HOOKS:
        before, after = extra.get(attr, (None, None))
        tr.patch(getattr(lib, mod), attr, span, before, after)

    def on_done_factory():
        top = tr.top_layer is not None and tr.last_layer is tr.top_layer
        query = tr.query

        def on_done(items):
            if top:
                tr.counts["solutions_top"] += items
            tr.counts["solutions_in." + query] += items

        return on_done

    for mod, attr, span in ITERATOR_HOOKS:
        tr.patch_iterator(getattr(lib, mod), attr, span, on_done_factory)
    return tr


def _round_metrics(tr, outs):
    c, total, selfs = tr.counts, tr.total, tr.module_self()
    solves = c["cohomology.solve_system.calls"]
    peak = 0
    kept = 0
    for out in outs:
        if hasattr(out, "levels"):
            sizes = [lv["epi_out"] for lv in out.levels]
            peak = max([peak] + sizes)
            kept += sum(sizes)
        elif isinstance(out, int):
            peak = max(peak, out)
    enumerated_epi = c["solutions_in.counting.epi_count"]
    m = {
        "presentations.jacobian_calls": c["presentations.symbolic_jacobian.calls"],
        "presentations.jacobian_s": total["presentations.symbolic_jacobian"],
        "groups.aut_calls": c["groups.aut_order.calls"],
        "groups.aut_s": total["groups.aut_order"],
        "cohomology.build_calls": c["cohomology.build_system.calls"],
        "cohomology.build_s": tr.self_time["cohomology.build_system"],
        "cohomology.solve_calls": solves,
        "cohomology.solve_s": total["cohomology.solve_system"],
        "cohomology.solvable_ratio": c["solvable"] / solves if solves else 0.0,
        "cohomology.solutions_yielded": c["cohomology.solution_vectors.items"],
        "cohomology.solutions_yielded.top": c["solutions_top"],
        "cohomology.enumerate_s": total["cohomology.solution_vectors"],
        "counting.queries": c["counting.epi_count.calls"] + c["counting.hom_count.calls"],
        "counting.frontier_peak": peak,
        "counting.kept_ratio": kept / enumerated_epi if enumerated_epi else 0.0,
        "subgrowth.homsym_calls": c["subgrowth.hom_count_symmetric.calls"],
        "subgrowth.homsym_s": total["subgrowth.hom_count_symmetric"],
        "subgrowth.largest_k_s": c["largest_k_s"],
        "subgrowth.normal_s": total["subgrowth.ak_normal"],
        "bench.spans": len(tr.name),
    }
    for mod in MODULES:
        m[mod + ".self_s"] = selfs[mod]
    return m


def per_layer_metrics(setup_tracer, setup_scale, traced_rounds, round_scales, overhead_s):
    """Median over the traced rounds of each round's figures, plus the
    set-up figures of one traced set-up and the tracing overhead.  Times
    are multiplied by the speed scale of their round or set-up."""
    per_round = []
    for r, scale in zip(traced_rounds, round_scales):
        m = _round_metrics(r[3], r[1])
        per_round.append({k: v * scale if UNITS[k] == "s" else v for k, v in m.items()})
    values = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
    values["presentations.parse_s"] = setup_tracer.total["presentations.parse"] * setup_scale
    values["groups.tower_s"] = setup_tracer.total["groups.builtin_group"] * setup_scale
    values["bench.trace_overhead_s"] = overhead_s
    return {k: {"value": values[k], "unit": u} for k, u in UNITS.items()}
