"""Tracing of treecvrp's public functions, installed from outside the package.

``Tracer.install`` replaces every public function of the traced modules with a
wrapper that records a span, and rebinds that wrapper everywhere the original
is reachable: in its own module, in every ``treecvrp`` module that imported it
by name (``bench.solve_exact``, ``exact.pickup_set_cost``, ...) and, for
``TreeInstance`` validation, on the class itself. Nothing inside ``src/`` is
edited; ``uninstall`` restores the originals.

A span is ``[id, parent_id, item_id, name, start, end, child_s, attrs]``.
Spans stay in memory until the caller writes them out. A span's self time is
its duration minus the durations of its direct children, so the self times of
all spans below an item span add up to the item span's duration.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

MODULES = ("instance", "baselines", "exact", "height", "structure", "dp",
           "verify", "generate", "bench")

ID, PARENT, ITEM, NAME, START, END, CHILD_S, ATTRS = range(8)


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _dp_states(pos):
    def attrs(args, kwargs, result):
        stats = _arg(args, kwargs, pos, "stats")
        return {"states": stats.get("states", 0)} if stats else {}
    return attrs


def _instance_key(args, kwargs, result):
    inst = args[0]
    return {"key": hash((inst.parent, inst.weight, inst.demand,
                         inst.capacity))}


# Work counters read off a call's arguments and result, by span name.
ATTR_HOOKS = {
    "dp.merge_child_table": lambda a, k, r: {
        "pairs_in": len(a[0]) * len(a[1]), "states_out": len(r),
        "root": _arg(a, k, 4, "node", -1) == 0},
    "dp.distribute_tokens": lambda a, k, r: {
        "states_in": len(a[0]), "states_out": len(r)},
    "dp.charge_edge": lambda a, k, r: {"states_in": len(a[0])},
    "dp.solve_structured": _dp_states(3),
    "dp.solve_bicriteria": _dp_states(4),
    "exact.solve_exact": _instance_key,
    "structure.transform": lambda a, k, r: {"big_buckets": r[2].big_buckets},
}


class Tracer:
    """Records spans around the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.item = None  # item id stamped on new spans; set by the caller
        self._stack: list[list] = []
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> list:
        span = [self._next_id, self._stack[-1][ID] if self._stack else None,
                self.item, name, time.perf_counter(), 0.0, 0.0, None]
        self._next_id += 1
        self._stack.append(span)
        return span

    def end(self, span: list, attrs: dict | None = None) -> None:
        span[END] = time.perf_counter()
        span[ATTRS] = attrs
        self._stack.pop()
        if self._stack:
            self._stack[-1][CHILD_S] += span[END] - span[START]
        self.spans.append(span)

    def _wrap(self, name: str, fn):
        hook = ATTR_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end(span, {"raised": type(exc).__name__})
                raise
            self.end(span, hook(args, kwargs, result) if hook else None)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import treecvrp
        from treecvrp.instance import TreeInstance

        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = [importlib.import_module(f"treecvrp.{m}") for m in MODULES]
        replaced = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    replaced[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for mod in [treecvrp, *mods]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, replaced[id(obj)])
        init = TreeInstance.__post_init__
        self._restore.append((TreeInstance, "__post_init__", init))
        TreeInstance.__post_init__ = self._wrap("instance.TreeInstance", init)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path) -> None:
        """One JSON array per line, after a header line naming the fields."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["id", "parent", "item", "name", "start",
                                 "end", "self_s", "attrs"]) + "\n")
            for s in self.spans:
                fh.write(json.dumps([s[ID], s[PARENT], s[ITEM], s[NAME],
                                     s[START], s[END], self_s(s),
                                     s[ATTRS]]) + "\n")


def self_s(span) -> float:
    return span[END] - span[START] - span[CHILD_S]


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as (value, unit), from one traced pass's spans."""
    agg: dict[str, dict] = {}
    keys: set = set()
    root_s = dp_solve_s = item_s = 0.0
    transform_raised = 0
    frontier = 0
    for s in spans:
        name, attrs = s[NAME], s[ATTRS] or {}
        a = agg.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        a["calls"] += 1
        a["s"] += s[END] - s[START]
        a["self_s"] += self_s(s)
        for k, v in attrs.items():
            if isinstance(v, (int, float)) and not isinstance(v, bool) \
                    and k != "key":
                a[k] = a.get(k, 0) + v
        if name == "item":
            item_s += s[END] - s[START]
        elif name == "dp.merge_child_table":
            frontier = max(frontier, attrs.get("states_out", 0))
            if attrs.get("root"):
                root_s += s[END] - s[START]
        elif name == "dp.distribute_tokens":
            frontier = max(frontier, attrs.get("states_out", 0))
        elif name in ("dp.solve_structured", "dp.solve_bicriteria"):
            dp_solve_s += s[END] - s[START]
        elif name == "exact.solve_exact" and "key" in attrs:
            keys.add(attrs["key"])
        elif name == "structure.transform" and "raised" in attrs:
            transform_raised += 1

    def get(name, field):
        return agg.get(name, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    merge, dist, charge = ("dp.merge_child_table", "dp.distribute_tokens",
                           "dp.charge_edge")
    solve_self = get("dp.solve_structured", "self_s") + get(
        "dp.solve_bicriteria", "self_s")
    exact_s = get("exact.solve_exact", "s")
    transforms = get("structure.transform", "calls")
    out = {
        f"{merge}.self_s": (get(merge, "self_s"), "s"),
        f"{merge}.root_s": (root_s, "s"),
        f"{merge}.root_share": (ratio(root_s, dp_solve_s), "ratio"),
        f"{merge}.calls": (get(merge, "calls"), "count"),
        f"{merge}.pairs_in": (get(merge, "pairs_in"), "count"),
        f"{merge}.states_out": (get(merge, "states_out"), "count"),
        f"{dist}.self_s": (get(dist, "self_s"), "s"),
        f"{dist}.states_in": (get(dist, "states_in"), "count"),
        f"{dist}.states_out": (get(dist, "states_out"), "count"),
        f"{charge}.self_s": (get(charge, "self_s"), "s"),
        f"{charge}.states_in": (get(charge, "states_in"), "count"),
        "dp.filter.kept_ratio": (ratio(get(charge, "states_in"),
                                       get(dist, "states_out")), "ratio"),
        "dp.frontier_max": (frontier, "count"),
        "dp.states": (get("dp.solve_structured", "states")
                      + get("dp.solve_bicriteria", "states"), "count"),
        "dp.solve.self_s": (solve_self, "s"),
        "instance.TreeInstance.inits": (get("instance.TreeInstance", "calls"),
                                        "count"),
        "instance.TreeInstance.init_s": (get("instance.TreeInstance", "s"),
                                         "s"),
        "instance.pickup_set_cost.calls": (
            get("instance.pickup_set_cost", "calls"), "count"),
        "instance.pickup_set_cost.s": (get("instance.pickup_set_cost", "s"),
                                       "s"),
    }
    for fn in ("normalize_demands", "load_instance", "save_instance",
               "load_solution"):
        out[f"instance.{fn}.s"] = (get(f"instance.{fn}", "s"), "s")
    out.update({
        "baselines.flow_lower_bound.s": (get("baselines.flow_lower_bound",
                                             "s"), "s"),
        "baselines.itp_solve.self_s": (get("baselines.itp_solve", "self_s"),
                                       "s"),
        "verify.check_feasible.self_s": (get("verify.check_feasible",
                                             "self_s"), "s"),
        "height.build_reduced_tree.s": (get("height.build_reduced_tree", "s"),
                                        "s"),
        "height.lift_solution.self_s": (get("height.lift_solution", "self_s"),
                                        "s"),
        "structure.transform.self_s": (get("structure.transform", "self_s"),
                                       "s"),
        "structure.profile_complexity.s": (
            get("structure.profile_complexity", "s"), "s"),
        "structure.resample_frac": (ratio(transform_raised, transforms),
                                    "ratio"),
        "structure.big_buckets": (get("structure.transform", "big_buckets"),
                                  "count"),
        "exact.solve_exact.s": (exact_s, "s"),
        "exact.solve_exact.calls": (get("exact.solve_exact", "calls"),
                                    "count"),
        "exact.solve_exact.distinct_ratio": (
            ratio(len(keys), get("exact.solve_exact", "calls")), "ratio"),
        "exact.solve_exact.share": (ratio(exact_s, item_s), "ratio"),
        "verify.ratio_report.self_s": (get("verify.ratio_report", "self_s"),
                                       "s"),
        "bench.run_suite.self_s": (get("bench.run_suite", "self_s"), "s"),
        "generate.generate.s": (get("generate.generate", "s"), "s"),
        "trace.spans": (len(spans), "count"),
    })
    return out
