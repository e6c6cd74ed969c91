"""Spans around regfrac's public functions, recorded from outside the package.

Each traced function is replaced, in every ``regfrac`` module that binds
it, by a wrapper that records a span (name, start, end, parent span, run
id) and a few work counts taken from its arguments and result.  Methods
are wrapped on their class.  ``Tracer.installed()`` restores every
original binding on exit, so untraced passes run the package unchanged.
Spans stay in memory until the run ends; ``pass_metrics`` turns one
run's spans into the per-layer metrics.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import json
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

LAYERS = ("gagliardo", "spectral", "geometry", "hardy", "special",
          "rearrange", "shapeopt", "cli")


def regfrac_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == "regfrac" or name.startswith("regfrac."))]


def rebind(old, new) -> list[tuple[object, str, object]]:
    """Replace ``old`` by ``new`` under every name any regfrac module
    binds it to; returns what was replaced so it can be restored."""
    done = []
    for mod in regfrac_modules():
        for name, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, name, new)
                done.append((mod, name, old))
    return done


def restore(bindings) -> None:
    for owner, name, value in reversed(bindings):
        setattr(owner, name, value)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _assemble_counts(fn, args, kwargs, result) -> dict:
    return {"nodes": int(result.size)}


def _eigen_counts(fn, args, kwargs, result) -> dict:
    return {"outer_iters": int(result.iterations),
            "unconverged": int(not result.converged)}


def _march_counts(fn, args, kwargs, result) -> dict:
    n_pts, n_dir = result.shape
    return {"rays": int(n_pts * n_dir)}


def _search_counts(fn, args, kwargs, result) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return {"trials": int(bound.arguments["trials"])}


def _fixed_measure_counts(fn, args, kwargs, result) -> dict:
    return {"accepted": max(0, len(result.history) - 1)}


def traced_targets(rf) -> list[tuple[str, object, str, object]]:
    """(span name, owner, attribute, count function) for every traced
    public function; ``rf`` maps module short names to modules."""
    g = rf["gagliardo"]
    return [
        ("gagliardo.table", g, "build_near_table", None),
        ("gagliardo.assemble", g, "assemble", _assemble_counts),
        ("gagliardo.apply", g.RegionalForm, "apply", None),
        ("gagliardo.diagonal", g.RegionalForm, "diagonal", None),
        ("spectral.eigen", rf["spectral"], "smallest_eigenpair", _eigen_counts),
        ("geometry.mask", rf["geometry"], "make_mask", None),
        ("geometry.march", rf["geometry"], "march_exit_distances", _march_counts),
        ("hardy.check", rf["hardy"], "hardy_check", None),
        ("hardy.equivalence", rf["hardy"], "equivalence_check", None),
        ("hardy.corpus", rf["hardy"], "standard_test_functions", None),
        ("special.tail", rf["special"], "tail_integral", None),
        ("special.hardy_constant", rf["special"], "hardy_constant", None),
        ("rearrange.search", rf["rearrange"], "regional_violation_search",
         _search_counts),
        ("rearrange.sdr", rf["rearrange"], "symmetric_decreasing_rearrangement",
         None),
        ("shapeopt.penalized", rf["shapeopt"], "optimize_penalized", None),
        ("shapeopt.fixed_measure", rf["shapeopt"], "optimize_fixed_measure",
         _fixed_measure_counts),
        ("cli.main", rf["cli"], "main", None),
    ]


class Tracer:
    """Collects spans from wrapped functions while installed."""

    def __init__(self, rf):
        self.rf = rf
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []
        # run -> (nodes, args, kwargs) of its largest assemble call
        self.largest_assemble: dict[int, tuple] = {}

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, self.run)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span.counts.update(count(fn, args, kwargs, result))
            if name == "gagliardo.assemble":
                best = self.largest_assemble.get(self.run)
                if best is None or result.size > best[0]:
                    self.largest_assemble[self.run] = (result.size, args, kwargs)
            return result
        return traced

    def assemble_peak_mb(self, run: int) -> float:
        """tracemalloc peak, in MB, of assembling run ``run``'s largest
        form again, untraced: tracing memory inside the timed passes
        would slow every allocation."""
        if run not in self.largest_assemble:
            return 0.0
        _, args, kwargs = self.largest_assemble[run]
        tracemalloc.start()
        try:
            self.rf["gagliardo"].assemble(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 2.0 ** 20

    def write(self, path: Path, runs) -> None:
        """Dump the spans of ``runs`` as JSON; parents index the dump."""
        keep = [i for i, s in enumerate(self.spans) if s.run in runs]
        where = {i: n for n, i in enumerate(keep)}
        rows = [{**dataclasses.asdict(self.spans[i]),
                 "parent": where.get(self.spans[i].parent)} for i in keep]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows))

    @contextlib.contextmanager
    def installed(self, run: int):
        """Trace run ``run`` inside the block; restore everything after."""
        self.run = run
        bindings = []
        try:
            for name, owner, attr, count in traced_targets(self.rf):
                fn = vars(owner)[attr]
                wrapper = self._wrap(name, fn, count)
                if isinstance(owner, type):
                    setattr(owner, attr, wrapper)
                    bindings.append((owner, attr, fn))
                else:
                    bindings.extend(rebind(fn, wrapper))
            yield self
        finally:
            restore(bindings)
            self._stack.clear()


def pass_metrics(spans: list[Span], run: int, wall: float) -> dict[str, float]:
    """Per-layer metrics of traced run ``run``, whose wall time is ``wall``.

    Self time is a span's duration minus its children's, so the layer
    self times plus ``unattributed_s`` (time under no span) equal ``wall``.
    """
    ids = [i for i, s in enumerate(spans) if s.run == run]
    children = dict.fromkeys(ids, 0.0)
    in_eigen: dict[int, bool] = {}
    fixed_of: dict[int, int | None] = {}
    # a span is appended when its call starts, so parents precede children
    for i in ids:
        p = spans[i].parent
        if p is None:
            in_eigen[i], fixed_of[i] = False, None
            continue
        children[p] += spans[i].duration
        in_eigen[i] = in_eigen[p] or spans[p].name == "spectral.eigen"
        fixed_of[i] = p if spans[p].name == "shapeopt.fixed_measure" \
            else fixed_of[p]

    by_name: dict[str, list[int]] = {}
    for i in ids:
        by_name.setdefault(spans[i].name, []).append(i)

    def named(name):
        return by_name.get(name, [])

    def total(*names):
        return sum(spans[i].duration for n in names for i in named(n))

    def self_time(pred):
        return sum(spans[i].duration - children[i] for i in ids
                   if pred(spans[i].name))

    def summed(name, key):
        return sum(spans[i].counts.get(key, 0) for i in named(name))

    assembles = named("gagliardo.assemble")
    per_fixed = {f: 0 for f in named("shapeopt.fixed_measure")}
    for i in assembles:
        if fixed_of[i] is not None:
            per_fixed[fixed_of[i]] += 1
    candidates = sum(max(0, n - 1) for n in per_fixed.values())
    accepted = summed("shapeopt.fixed_measure", "accepted")
    m = {
        "gagliardo.table_s": total("gagliardo.table"),
        "gagliardo.table_calls": len(named("gagliardo.table")),
        "gagliardo.assemble_s": total("gagliardo.assemble"),
        "gagliardo.assemble_self_s": self_time(
            lambda n: n == "gagliardo.assemble"),
        "gagliardo.assemble_calls": len(assembles),
        "gagliardo.nodes": summed("gagliardo.assemble", "nodes"),
        "gagliardo.apply_s": total("gagliardo.apply"),
        "gagliardo.apply_calls": len(named("gagliardo.apply")),
        "gagliardo.diagonal_s": total("gagliardo.diagonal"),
        "spectral.eigen_s": total("spectral.eigen"),
        "spectral.solves": len(named("spectral.eigen")),
        "spectral.outer_iters": summed("spectral.eigen", "outer_iters"),
        "spectral.matvecs": sum(1 for i in named("gagliardo.apply")
                                if in_eigen[i]),
        "spectral.unconverged": summed("spectral.eigen", "unconverged"),
        "geometry.march_s": total("geometry.march"),
        "geometry.march_calls": len(named("geometry.march")),
        "geometry.rays": summed("geometry.march", "rays"),
        "geometry.mask_s": total("geometry.mask"),
        "hardy.check_s": total("hardy.check", "hardy.equivalence"),
        "hardy.checks": len(named("hardy.check"))
        + len(named("hardy.equivalence")),
        "hardy.corpus_s": total("hardy.corpus"),
        "special.tail_s": total("special.tail"),
        "special.tail_calls": len(named("special.tail")),
        "special.hardy_constant_s": total("special.hardy_constant"),
        "special.hardy_constant_calls": len(named("special.hardy_constant")),
        "rearrange.search_s": total("rearrange.search"),
        "rearrange.trials": summed("rearrange.search", "trials"),
        "rearrange.sdr_s": total("rearrange.sdr"),
        "shapeopt.optimize_s": sum(
            spans[i].duration for i in ids
            if spans[i].name.startswith("shapeopt.")
            and (spans[i].parent is None
                 or not spans[spans[i].parent].name.startswith("shapeopt."))),
        "shapeopt.candidates": candidates,
        "shapeopt.accepted": accepted,
        "shapeopt.accept_ratio": accepted / candidates if candidates else 0.0,
        "cli.main_s": total("cli.main"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time(
            lambda n, layer=layer: n.split(".")[0] == layer)
    m["unattributed_s"] = wall - sum(spans[i].duration for i in ids
                                     if spans[i].parent is None)
    return m


# counters that must repeat exactly when a run is repeated at one seed
DETERMINISTIC = ("spectral.matvecs", "spectral.outer_iters", "spectral.solves",
                 "gagliardo.apply_calls", "gagliardo.assemble_calls",
                 "gagliardo.nodes", "geometry.rays", "shapeopt.candidates",
                 "shapeopt.accepted", "rearrange.trials", "hardy.checks",
                 "special.tail_calls")

# every per-layer metric of a traced run, with its unit
PER_LAYER_UNITS = {
    name: ("MB" if name.endswith("_mb") else "s" if name.endswith("_s")
           else "ratio" if name.endswith("_ratio") else "count")
    for name in (
        "gagliardo.table_s", "gagliardo.table_calls", "gagliardo.assemble_s",
        "gagliardo.assemble_self_s", "gagliardo.assemble_calls",
        "gagliardo.nodes", "gagliardo.assemble_peak_mb", "gagliardo.apply_s",
        "gagliardo.apply_calls", "gagliardo.diagonal_s",
        "spectral.eigen_s", "spectral.solves", "spectral.outer_iters",
        "spectral.matvecs", "spectral.unconverged",
        "geometry.march_s", "geometry.march_calls", "geometry.rays",
        "geometry.mask_s",
        "hardy.check_s", "hardy.checks", "hardy.corpus_s",
        "special.tail_s", "special.tail_calls", "special.hardy_constant_s",
        "special.hardy_constant_calls",
        "rearrange.search_s", "rearrange.trials", "rearrange.sdr_s",
        "shapeopt.optimize_s", "shapeopt.candidates", "shapeopt.accepted",
        "shapeopt.accept_ratio",
        "cli.main_s",
        *(f"{layer}.self_s" for layer in LAYERS),
        "unattributed_s", "untraced_wall_s", "traced_wall_s",
        "tracing_overhead_s",
    )
}
