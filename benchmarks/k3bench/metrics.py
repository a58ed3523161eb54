"""Metric definitions and the per-layer metrics derived from a trace.

Each per-layer metric names the end-to-end metric and workload it
should move; BENCHMARK.json lists the same names, units and directions
(test_k3bench checks that they agree).
"""

from statistics import median

from . import trace

END_TO_END = (
    # name, unit, better, what it is
    ("latency_s", "s", "lower",
     "median time of one operation (one round for witness and lattice)"),
    ("tail_s", "s", "lower",
     "highest percentile with at least 10 samples beyond it"),
    ("ops_per_s", "1/s", "higher",
     "verifies, CLI calls, lines or configs completed per second"),
    ("rss_mb", "MB", "lower", "peak resident memory of the process doing "
                              "the work"),
    ("setup_s", "s", "lower", "work before the first timed operation"),
)

TABLE_IDS = ("sec3.subgroups", "sec4.rulings", "sec4.meeting",
             "sec4.fixlines", "sec5.sing", "sec6.nu", "sec7.divisible",
             "sec8.discs")

# self-time metrics: name -> span names whose self time they sum
SELF_TIME = {
    "groups.closure_s": ("groups.generate_group",),
    "geometry.orbits_s": ("geometry.orbits_on_ruling", "geometry.line_orbits",
                          "geometry.meeting_point_orbits"),
    "geometry.fixlines_s": ("geometry.fixlines_table",
                            "geometry.line_inventory", "geometry.fix_group"),
    "geometry.base_s": ("geometry.base_points", "geometry.base_locus"),
    "geometry.sing_rows_s": ("geometry.quadric_point_rows",
                             "geometry.offquadric_rows",
                             "geometry.points_off_quadric", "geometry.nu1",
                             "geometry.nu2", "geometry.nu3_smooth"),
    "geometry.stabilizer_s": ("geometry.stabilizer",),
    "singularities.nu_s": ("singularities.nu_totals",),
    "lattices.snf_s": ("lattices.smith_normal_form",),
    "lattices.det_s": ("lattices.discriminant",),
    "lattices.divisible_s": ("lattices.is_p_divisible",
                             "lattices.nikulin_count_check"),
    "lattices.adjoin_s": ("lattices.adjoin_class",),
    "config.parse_s": ("config.parse_config",),
    "config.emit_s": ("config.emit_config",),
    "cli.emit_s": ("tables.emit_report",),
}
SELF_TIME.update({"tables.%s_s" % t: ("tables." + t,) for t in TABLE_IDS})

# inclusive-time metrics: name -> span name
INCLUSIVE = {"tables.%s_incl_s" % t: "tables." + t for t in TABLE_IDS}

# call-count metrics: name -> span name
CALLS = {
    "groups.closures": "groups.generate_group",
    "geometry.stabilizer_calls": "geometry.stabilizer",
    "singularities.nu_calls": "singularities.nu_totals",
}

# op counters recorded by the tracer
COUNTS = ("algebra.cyc_mul", "algebra.cyc_add", "algebra.cyc_sub",
          "algebra.cyc_inv", "algebra.cyc_galois", "algebra.cyc_new",
          "groups.closure_elements", "groups.element_mul")

_V, _Q, _W, _L = ("latency_s on verify", "latency_s, ops_per_s on query",
                  "ops_per_s on witness", "ops_per_s on lattice")

# name -> (unit, better, the end-to-end metric it should move)
PER_LAYER = {
    "algebra.cyc_mul": ("count", "lower", _V + "; " + _W),
    "algebra.cyc_add": ("count", "lower", _V + "; " + _W),
    "algebra.cyc_sub": ("count", "lower", _V + "; " + _W),
    "algebra.cyc_inv": ("count", "lower", _V + "; " + _W),
    "algebra.cyc_galois": ("count", "lower", _V + "; " + _W),
    "algebra.cyc_new": ("count", "lower", _V + "; " + _W),
    "algebra.mul_ns": ("ns", "lower", _V),
    "groups.closures": ("count", "lower", _Q + "; " + _V),
    "groups.closure_elements": ("count", "lower", _Q + "; " + _V),
    "groups.element_mul": ("count", "lower", _Q + "; " + _V),
    "groups.closure_s": ("s", "lower", _Q + "; " + _V),
    "geometry.orbits_s": ("s", "lower", _V),
    "geometry.fixlines_s": ("s", "lower", _V),
    "geometry.base_s": ("s", "lower", _V),
    "geometry.sing_rows_s": ("s", "lower", _V),
    "geometry.stabilizer_s": ("s", "lower", _W),
    "geometry.stabilizer_calls": ("count", "lower", _W),
    "geometry.cache_hit_ratio": ("ratio", "higher", "ops_per_s on query"),
    "geometry.cache_attempts": ("count", "lower", "ops_per_s on query"),
    "singularities.nu_s": ("s", "lower", _V + "; tail_s on query"),
    "singularities.nu_calls": ("count", "lower",
                               _V + "; tail_s on query"),
    "lattices.snf_s": ("s", "lower", _L),
    "lattices.det_s": ("s", "lower", _L),
    "lattices.divisible_s": ("s", "lower", _L),
    "lattices.adjoin_s": ("s", "lower", _L),
    "config.parse_s": ("s", "lower", _L),
    "config.emit_s": ("s", "lower", _L),
    "cli.import_s": ("s", "lower", "setup_s on verify and query"),
    "cli.emit_s": ("s", "lower", _V),
}
PER_LAYER.update({"tables.%s_s" % t: ("s", "lower", _V) for t in TABLE_IDS})
PER_LAYER.update({name: ("s", "lower", _V) for name in INCLUSIVE})


def layer_values(traces, import_s, mul_ns):
    """Per-layer metric values from the snapshots of several tracers.

    traces: list of Tracer.snapshot() dicts (one per traced process or
    in-process part); import_s: cold import times of the traced CLI
    children; mul_ns: the Cyc multiplication microbenchmark.
    """
    by_name = {}
    counts = {}
    for snap in traces:
        for name, values in trace.totals(snap["spans"]).items():
            entry = by_name.setdefault(name, [0, 0.0, 0.0])
            for i, value in enumerate(values):
                entry[i] += value
        for key, value in snap["counts"].items():
            counts[key] = counts.get(key, 0) + value
    out = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(by_name.get(n, (0, 0.0, 0.0))[1] for n in names)
    for metric, name in INCLUSIVE.items():
        out[metric] = by_name.get(name, (0, 0.0, 0.0))[2]
    for metric, name in CALLS.items():
        out[metric] = by_name.get(name, (0, 0.0, 0.0))[0]
    for metric in COUNTS:
        out[metric] = counts.get(metric, 0)
    attempts = counts.get("geometry.cache_hits", 0) + counts.get(
        "geometry.cache_misses", 0)
    out["geometry.cache_attempts"] = attempts
    out["geometry.cache_hit_ratio"] = (
        counts.get("geometry.cache_hits", 0) / attempts if attempts else 0.0)
    out["cli.import_s"] = median(import_s)
    out["algebra.mul_ns"] = mul_ns
    return {name: out[name] for name in PER_LAYER}


def units(traced):
    """{metric name: unit} of a run's result line."""
    if traced:
        return {name: spec[0] for name, spec in PER_LAYER.items()}
    return {name: unit for name, unit, _, _ in END_TO_END}
