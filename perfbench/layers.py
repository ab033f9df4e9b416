"""Per-layer metrics of a traced run, computed from the tracer's spans.

Spans are named ``<layer>.<function>``; each cell has a root span
``cell.<kind>``.  A span's self time is its duration minus the time of its
child spans and of the leaf calls made directly from it.  Per-call times
(``*_us``, ``*_ms``) are means over every traced call, inclusive of
children.  Counts are taken per round or per cell of the named kind, then
the median over the run.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import median

from tracer import LAYERS

# Ancestry flags of a span, set when one of its ancestors has the name.
_UNDER = {"solver.run_tos": 1, "qap.nonstationarity_error": 2, "fw.run_fw": 4}
_UNDER_LAP = 8


def cell_self_times(tracer) -> dict:
    """``{cell id: {layer: self seconds}}``; code of the benchmark's own is
    charged to ``bench``."""
    out: dict = defaultdict(lambda: defaultdict(float))
    for _, _, cell, name, start, end, child in tracer.spans:
        layer = name.split(".", 1)[0]
        out[cell]["bench" if layer == "cell" else layer] += end - start - child
    for (cell, name), (_, seconds) in tracer.leaves.items():
        out[cell][name.split(".", 1)[0]] += seconds
    return {cell: dict(layers) for cell, layers in out.items()}


def layer_metrics(tracer, cells: list[dict], replay: bool) -> dict:
    """The per-layer metrics, in seconds-derived units, of the traced cells.

    ``cells`` are the traced cells' records (``id``, ``round``, ``kind``,
    ``iterations``, ``checkpoints``, ``tau``); ``replay`` says whether the
    stochastic cells recovered z_tau by replaying the run.
    """
    kind_of = {c["id"]: c["kind"] for c in cells}
    round_of = {c["id"]: c["round"] for c in cells}
    by_kind = defaultdict(list)
    for c in cells:
        by_kind[c["kind"]].append(c)
    tos = by_kind["split1"] + by_kind["split2"]
    tos_ids = {c["id"] for c in tos}
    fw_ids = {c["id"] for c in by_kind["fw"]}

    flags: dict[int, int] = {}
    names: dict[int, str] = {}
    total = defaultdict(float)  # name -> seconds, over every call
    calls = defaultdict(lambda: defaultdict(int))  # name -> cell -> calls
    self_time = defaultdict(lambda: defaultdict(float))  # name -> cell -> seconds
    run_tos_s = checkpoint_s = lap_in_fw = lap_in_split2_ns = 0.0
    lap_under_run_tos = defaultdict(int)
    cell_time = {}
    for span_id, parent, cell, name, start, end, child in sorted(tracer.spans):
        # Ids grow in call order, so a parent's flags are set before its children's.
        up = flags.get(parent, 0) | _UNDER.get(names.get(parent), 0)
        if names.get(parent, "").startswith("lap."):
            up |= _UNDER_LAP
        flags[span_id], names[span_id] = up, name
        d = end - start
        if name.startswith("cell."):
            cell_time[cell] = d
            continue
        total[name] += d
        calls[name][cell] += 1
        self_time[name][cell] += d - child
        if name == "solver.run_tos" and cell in tos_ids:
            run_tos_s += d
        if (name in ("qap.infeasibility_error", "qap.nonstationarity_error")
                and cell in tos_ids and up & 1 and not up & 2):
            checkpoint_s += d
        if name.startswith("lap.") and not up & _UNDER_LAP:
            if cell in fw_ids:
                lap_in_fw += d
            if kind_of.get(cell) == "split2" and up & 2:
                lap_in_split2_ns += d
        if name == "lap.solve_lap_min" and up & 1:
            lap_under_run_tos[cell] += 1
    for (cell, name), (n_calls, seconds) in tracer.leaves.items():
        calls[name][cell] += n_calls
        total[name] += seconds

    def mean_call(name: str, scale: float) -> float:
        n_calls = sum(calls[name].values())
        return scale * total[name] / n_calls if n_calls else 0.0

    def per_round(name: str) -> float:
        totals = defaultdict(int)
        for cell, k in calls[name].items():
            totals[round_of[cell]] += k
        return median(totals.get(r, 0) for r in set(round_of.values()))

    def per_cell(table: dict, group: list[dict]) -> float:
        return median(table.get(c["id"], 0) for c in group) if group else 0.0

    def per_iter(table: dict, group: list[dict]) -> float:
        iters = sum(c["iterations"] for c in group)
        return sum(table.get(c["id"], 0) for c in group) / iters if iters else 0.0

    def share(part: float, group: list[dict]) -> float:
        whole = sum(cell_time.get(c["id"], 0.0) for c in group)
        return part / whole if whole else 0.0

    def result_median(key: str, group: list[dict]) -> float:
        return median(c[key] for c in group) if group else 0.0

    layer_self = defaultdict(float)
    for layers in cell_self_times(tracer).values():
        for layer, seconds in layers.items():
            layer_self[layer] += seconds
    total_self = sum(layer_self.values())

    m = {
        "prox.simplex_calls": per_round("prox.project_simplex"),
        "prox.row_us": mean_call("prox.project_row_stochastic", 1e6),
        "prox.col_us": mean_call("prox.project_col_stochastic", 1e6),
        "prox.birkhoff_alternating_ms": mean_call("prox.project_birkhoff_alternating", 1e3),
        "prox.box_us": mean_call("prox.project_box01", 1e6),
        "prox.affine_us": mean_call("prox.project_affine_doubly_stochastic", 1e6),
        "lap.min_us": mean_call("lap.solve_lap_min", 1e6),
        "lap.max_us": mean_call("lap.solve_lap_max", 1e6),
        "lap.min_calls": per_round("lap.solve_lap_min"),
        "lap.fw_calls": per_cell(calls["lap.solve_lap_min"], by_kind["fw"]),
        "lap.checkpoint_calls": per_cell(lap_under_run_tos, tos),
        "lap.fw_share": share(lap_in_fw, by_kind["fw"]),
        "lap.split2_nonstationarity_share": share(lap_in_split2_ns, by_kind["split2"]),
        "qap.nonstationarity_ms": mean_call("qap.nonstationarity_error", 1e3),
        "qap.nonstationarity_calls": per_cell(calls["qap.nonstationarity_error"], tos),
        "qap.infeasibility_us": mean_call("qap.infeasibility_error", 1e6),
        "qap.gradient_us": mean_call("qap.qap_gradient", 1e6),
        "qap.gradient_calls": per_round("qap.qap_gradient"),
        "qap.objective_us": mean_call("qap.qap_objective", 1e6),
        "qap.objective_calls": per_round("qap.qap_objective"),
        "qap.estimate_smoothness_ms": mean_call("qap.estimate_smoothness", 1e3),
        "qap.build_problem_ms": mean_call("qap.build_problem", 1e3),
        "qap.initial_point_ms": mean_call("qap.initial_point", 1e3),
        "qap.round_ms": mean_call("qap.round_to_permutation", 1e3),
        "solver.iters": result_median("iterations", tos),
        "solver.checkpoints": result_median("checkpoints", tos),
        "solver.checkpoint_share": checkpoint_s / run_tos_s if run_tos_s else 0.0,
        "solver.self_us_per_iter": 1e6 * per_iter(self_time["solver.run_tos"], tos),
        "solver.product_space_self_us_per_iter": 1e6 * per_iter(
            self_time["solver.run_tos_product_space"], by_kind["consensus"]),
        "solver.replay_iters": result_median("tau", by_kind["stochastic"]) if replay else 0.0,
        "linalg.as_matrix_calls_per_iter": per_iter(calls["linalg.as_matrix"], tos),
        "linalg.as_matrix_us": mean_call("linalg.as_matrix", 1e6),
        "fw.iters": result_median("iterations", by_kind["fw"]),
        "fw.self_us_per_iter": 1e6 * per_iter(self_time["fw.run_fw"], by_kind["fw"]),
        "fw.line_step_us": mean_call("fw.exact_line_step", 1e6),
        "fw.gradients_per_iter": per_iter(calls["qap.qap_gradient"], by_kind["fw"]),
        "fw.objectives_per_iter": per_iter(calls["qap.qap_objective"], by_kind["fw"]),
        "oracles.minibatch_us": mean_call("oracles.minibatch_gradient", 1e6),
        "oracles.minibatch_calls": per_cell(calls["oracles.minibatch_gradient"], by_kind["stochastic"]),
    }
    for layer in LAYERS:
        m[f"{layer}.self_share"] = layer_self[layer] / total_self if total_self else 0.0
    return m


def unit_of(name: str) -> str:
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_calls", "count"),
                         ("_share", "fraction"), ("_frac", "fraction"),
                         ("_us_per_iter", "us"), ("_per_iter", "count/iter")):
        if name.endswith(suffix):
            return unit
    return "count"

