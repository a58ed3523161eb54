"""Spans and op counters put around k3pencils from the outside.

A Tracer wraps the library's layer boundaries: every public function
that one k3pencils module imports from another (plus the few that the
per-layer metrics name but only their own module calls), in every
module namespace that binds it, so that calls through module globals
are seen too.  Each call records a span (name, start, end, parent) in
memory.  The scalar layer (`algebra`) gets no spans: its matrix helpers
run hundreds of thousands of times, so the Cyc and Element methods are
counted instead and their time stays in the self time of the caller.
The verification table builders are generators; each gets one span
covering its whole iteration.
"""

import sys
import time
import types

LIB = "k3pencils"
SPANNED = ("groups", "geometry", "singularities", "lattices", "config",
           "tables", "cli")
# boundaries that only their own module (or the benchmark) calls
ALSO_SPANNED = {
    "groups": ("generate_group",),
    "geometry": ("base_points", "stabilizer", "fix_group", "line_inventory"),
    "lattices": ("smith_normal_form",),
    "config": ("emit_config",),
}
COUNTED = {
    ("algebra", "Cyc"): {
        "__init__": "algebra.cyc_new",
        "__mul__": "algebra.cyc_mul",
        "__add__": "algebra.cyc_add",
        "__sub__": "algebra.cyc_sub",
        "inv": "algebra.cyc_inv",
        "galois": "algebra.cyc_galois",
    },
    ("groups", "Element"): {"__mul__": "groups.element_mul"},
}
CACHED = ("base_points", "fixlines_table", "quadric_point_rows",
          "offquadric_rows")


def _is_function(obj):
    return isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")


def library_modules():
    """{short name: module} of every imported k3pencils submodule."""
    prefix = LIB + "."
    return {name[len(prefix):]: mod for name, mod in list(sys.modules.items())
            if name.startswith(prefix) and mod is not None}


def boundaries(modules):
    """{function object: span name} of the functions to wrap."""
    out = {}
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not _is_function(obj):
                continue
            home = getattr(obj, "__module__", "") or ""
            if not home.startswith(LIB + "."):
                continue
            home_short = home[len(LIB) + 1:]
            if home_short not in SPANNED:
                continue
            if home_short != short or attr in ALSO_SPANNED.get(short, ()):
                out[obj] = "%s.%s" % (home_short, obj.__name__)
    return out


class Tracer:
    """Collects spans and counts while installed; undoes every patch."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.closure_elements = 0
        self._stack = []
        self._undo = []
        self._cache_start = {}

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
        traced.__wrapped__ = fn
        return traced

    def _span_gen(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                yield from fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
        return traced

    def _counter(self, key, fn):
        cell = self.counts.setdefault(key, [0])

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return counted

    def _patch(self, holder, attr, new):
        self._undo.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, new)

    def install(self):
        modules = library_modules()
        wrapped = {}
        for fn, name in boundaries(modules).items():
            new = self._span(name, fn)
            if name == "groups.generate_group":
                new = self._with_closure_size(new)
            wrapped[fn] = new
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if _is_function(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])
        tables = modules.get("tables")
        builders = getattr(tables, "_BUILDERS", {})
        for table_id, builder in list(builders.items()):
            self._undo.append((builders, table_id, builder))
            builders[table_id] = self._span_gen("tables." + table_id, builder)
        for (short, cls_name), methods in COUNTED.items():
            cls = getattr(modules.get(short), cls_name, None)
            for meth, key in methods.items():
                if cls is not None and meth in cls.__dict__:
                    self._patch(cls, meth,
                                self._counter(key, cls.__dict__[meth]))
        geometry = modules.get("geometry")
        for name in CACHED:
            fn = getattr(geometry, name, None)
            fn = getattr(fn, "__wrapped__", fn)
            if hasattr(fn, "cache_info"):
                info = fn.cache_info()
                self._cache_start[name] = (fn, info.hits, info.misses)

    def _with_closure_size(self, fn):
        def sized(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.closure_elements += out.order()
            return out
        sized.__wrapped__ = fn
        return sized

    def uninstall(self):
        while self._undo:
            holder, attr, old = self._undo.pop()
            if isinstance(holder, dict):
                holder[attr] = old
            else:
                setattr(holder, attr, old)

    def snapshot(self):
        """Spans, counts and cache statistics gathered so far."""
        counts = {key: cell[0] for key, cell in self.counts.items()}
        counts["groups.closure_elements"] = self.closure_elements
        hits = misses = 0
        for fn, h0, m0 in self._cache_start.values():
            info = fn.cache_info()
            hits += info.hits - h0
            misses += info.misses - m0
        counts["geometry.cache_hits"] = hits
        counts["geometry.cache_misses"] = misses
        return {"spans": self.spans, "counts": counts}


def self_times(spans):
    """Per span: its duration minus the time its direct children cover.

    spans are [name, start, end, parent index] lists; children may
    overlap each other, so their intervals are merged first.
    """
    children = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for idx, (_, start, end, _parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for a, b in sorted(children.get(idx, ())):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        out.append((end - start) - covered)
    return out


def totals(spans):
    """{span name: [calls, self seconds, inclusive seconds]}."""
    out = {}
    for span, self_s in zip(spans, self_times(spans)):
        entry = out.setdefault(span[0], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += self_s
        entry[2] += span[2] - span[1]
    return out
