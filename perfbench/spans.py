"""Spans recorded from outside the program, and their per-layer roll-up.

Nothing in ``strata_glue`` knows about tracing.  ``install`` replaces every
public module-level function of the six modules, wherever a module global
names it, and the public methods of the classes in ``METHODS`` with timing
wrappers.  Calls through those names, from another module, from the same
module or from the benchmark, each become one span.  Scalar value types
(``CoeffRing``, ``Laur``, ``ProjPoint``, ``LambdaMatrix``) are left alone:
they run 10^5-10^6 times per job, and their cost stays in the caller's self
time.

A span is the list ``[name, layer, parent, start, end, sizes]``; ``parent``
is the index of the enclosing span in ``Recorder.spans`` or None.
"""

import functools
import importlib
import inspect
import json
import time

LAYERS = ("lambda_core", "padic_core", "finite_rep", "sl2_coh",
          "char_engine", "cli")

# classes whose public methods are spanned, by defining layer; the Jacquet
# stage is private but it is the smoothing tower's unit of work
METHODS = {
    "lambda_core": {"FgModule": None, "ModuleMap": None},
    "finite_rep": {"FiniteRep": None, "_StageEngine": ("stage",)},
    "sl2_coh": {"TreeBall": None},
}

# spans whose input shape counts toward lambda_core.howell_cells
HOWELL = ("howell_form", "left_kernel", "kernel", "quotient_module")
# span name -> the counter one call adds to
CALL_COUNTS = {"FiniteRep.action_matrix": "finite_rep.action_matrix_calls",
               "_StageEngine.stage": "finite_rep.jacquet_stages",
               "act": "padic_core.act_calls"}
# span name -> (counter, the size it adds)
SIZE_SUMS = {"enumerate_p1": ("padic_core.points_swept", "points"),
             "bt_ball": ("sl2_coh.ball_vertices", "vertices")}


def _matrix_in(args, out):
    m = args[0]
    return {"rows": m.nrows, "cols": m.cols, "out_rows": out.nrows}


def _kernel_in(args, out):
    f = args[0]
    return {"rows": f.source.ambient + f.target.relations.nrows,
            "cols": f.target.ambient, "out_rows": out.ambient}


def _quotient_in(args, out):
    module, rows = args[0], args[1]
    return {"rows": module.relations.nrows + len(rows),
            "cols": module.ambient, "out_rows": out.relations.nrows}


def _rank_of_arg(args, out):
    return {"rank": args[0].rank}


def _rank_of_out(args, out):
    return {"rank": out.rank}


SIZERS = {
    "howell_form": _matrix_in,
    "left_kernel": _matrix_in,
    "kernel": _kernel_in,
    "quotient_module": _quotient_in,
    "enumerate_p1": lambda args, out: {"points": len(out)},
    "bt_ball": lambda args, out: {"vertices": len(out.vertices)},
    "trivial_rep": _rank_of_out,
    "induced_rep": _rank_of_out,
    "steinberg": _rank_of_out,
    "FiniteRep.at_level": _rank_of_out,
    "FiniteRep.action_matrix": _rank_of_arg,
    "fixed_points": _rank_of_arg,
    "jacquet_oracle": _rank_of_arg,
    "_StageEngine.stage": lambda args, out: {"j": args[1],
                                             "size": args[0].size,
                                             "rank": out[0]},
}


class Recorder:
    """In-memory span list with the stack of spans currently open."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, layer, name, fn):
        spans, stack, clock = self.spans, self._open, time.perf_counter
        sizer = SIZERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, layer, stack[-1] if stack else None, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = clock()
            try:
                out = fn(*args, **kwargs)
                if sizer is not None:
                    rec[5] = sizer(args, out)
                return out
            finally:
                rec[4] = clock()
                stack.pop()

        return traced

    def write(self, path, origin=0.0):
        """Write the spans as JSON lines, times relative to origin."""
        with open(path, "w") as fh:
            for name, layer, parent, start, end, sizes in self.spans:
                fh.write(json.dumps({
                    "name": name, "layer": layer, "parent": parent,
                    "start": start - origin, "end": end - origin,
                    "sizes": sizes}) + "\n")


def install(recorder):
    """Wrap the program's public calls; returns the undo list for restore."""
    modules = {layer: importlib.import_module(f"strata_glue.{layer}")
               for layer in LAYERS}
    wrapped = {}
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                wrapped[id(obj)] = (obj, recorder.wrap(layer, name, obj))
    undo = []
    namespaces = [vars(m) for m in modules.values()]
    namespaces.append(vars(importlib.import_module("strata_glue")))
    for ns in namespaces:
        for name, obj in list(ns.items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                undo.append((ns, name, obj))
                ns[name] = hit[1]
    for layer, classes in METHODS.items():
        for cls_name, only in classes.items():
            cls = getattr(modules[layer], cls_name)
            for name, obj in list(vars(cls).items()):
                if only is None and name.startswith("_"):
                    continue
                if only is not None and name not in only:
                    continue
                if inspect.isfunction(obj):
                    undo.append((cls, name, obj))
                    setattr(cls, name,
                            recorder.wrap(layer, f"{cls_name}.{name}", obj))
    return undo


def restore(undo):
    for target, name, obj in reversed(undo):
        if isinstance(target, dict):
            target[name] = obj
        else:
            setattr(target, name, obj)


def rollup(spans, wall):
    """Per-layer self time and counts of one traced job list.

    A span's self time is its duration minus the durations of its direct
    children; a layer's self_s sums that over the layer's spans.  Time of
    the job list that no root span covers is trace.unattributed_s.
    """
    child = [0.0] * len(spans)
    covered = 0.0
    for name, layer, parent, start, end, sizes in spans:
        if parent is None:
            covered += end - start
        else:
            child[parent] += end - start
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
    cells = rows_in = rows_out = 0
    counts = dict.fromkeys(
        ["lambda_core.howell_calls", "finite_rep.model_rank_max",
         *CALL_COUNTS.values(), *(key for key, _ in SIZE_SUMS.values())], 0)
    for i, (name, layer, parent, start, end, sizes) in enumerate(spans):
        out[f"{layer}.self_s"] += end - start - child[i]
        out[f"{layer}.calls"] += 1
        sizes = sizes or {}  # None when the call raised
        if name in HOWELL:
            counts["lambda_core.howell_calls"] += 1
            cells += sizes.get("rows", 0) * sizes.get("cols", 0)
            rows_in += sizes.get("rows", 0)
            rows_out += sizes.get("out_rows", 0)
        elif name in CALL_COUNTS:
            counts[CALL_COUNTS[name]] += 1
        elif name in SIZE_SUMS:
            key, size = SIZE_SUMS[name]
            counts[key] += sizes.get(size, 0)
        if layer == "finite_rep" and "rank" in sizes:
            counts["finite_rep.model_rank_max"] = max(
                counts["finite_rep.model_rank_max"], sizes["rank"])
    out.update(counts)
    out["lambda_core.howell_cells"] = cells
    out["lambda_core.rank_yield"] = rows_out / rows_in if rows_in else 0.0
    out["trace.unattributed_s"] = wall - covered
    return out
