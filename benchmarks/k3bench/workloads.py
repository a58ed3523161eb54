"""The four workloads and the traced pass.

Every workload is a closed loop: one client, one operation at a time,
the next starting when the previous one has returned.  End-to-end runs
carry no instrumentation; the per-layer numbers come from run_traced,
a separate pass with the Tracer installed.
"""

import json
import os
import random
import resource
import sys
import time
from statistics import median

from . import inputs, metrics, oracles, procs
from .stats import tail
from .trace import Tracer

# set-up is timed several times per run, half before the timed loop and
# half after it, so that its median spans the host's slow and fast spells
IMPORT_SAMPLES = 8
WITNESS_SETUP_SAMPLES = 3
LATTICE_SETUP_SAMPLES = 10
# a median needs a few samples even when one op takes half the run
VERIFY_MIN_RUNS = 3
QUERY_ROUNDS = 8
WITNESS_ROUNDS = 64
# children get what is left of this budget, so a run ends within 180 s
RUN_BUDGET_S = 150.0


class BenchError(Exception):
    """The benchmark cannot run here (no program, or it will not start)."""


class Context:
    def __init__(self, root, seed, seconds):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.started = time.perf_counter()
        self.work = root / ".bench_work"
        self.work.mkdir(exist_ok=True)
        src = str(root / "src")
        # a fixed hash seed keeps set iteration, and so op counts, the same
        self.env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
        self.trace_env = dict(self.env, PYTHONPATH=os.pathsep.join(
            [src, str(root / "benchmarks")]))

    def rng(self, stream):
        return random.Random("%d:%s" % (self.seed, stream))

    def left(self):
        return RUN_BUDGET_S - (time.perf_counter() - self.started)

    def child(self, argv, traced=False):
        return procs.run(argv, self.trace_env if traced else self.env,
                         str(self.root), str(self.work), self.left())

    def cli(self, args):
        return self.child([sys.executable, "-m", "k3pencils"] + list(args))

    def traced_cli(self, args, name):
        """Run one CLI command under the tracer: (ChildResult, snapshot)."""
        out = self.work / name
        if out.exists():
            out.unlink()
        result = self.child([sys.executable, "-m", "k3bench.child", "trace",
                             str(out)] + list(args), traced=True)
        snap = json.loads(out.read_text()) if out.exists() else None
        return result, snap


class Tally:
    """Operations attempted and failed, and the latencies measured."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies = []

    def add(self, ok, latency=None):
        self.attempted += 1
        self.failed += not ok
        if latency is not None:
            self.latencies.append(latency)


def import_times(ctx):
    """Wall times of cold processes that import the CLI (and so every
    module of the package): half of the set-up samples of a run."""
    out = []
    for _ in range(IMPORT_SAMPLES // 2):
        r = ctx.child([sys.executable, "-c", "import k3pencils.cli"])
        if r.code != 0:
            raise BenchError("k3pencils does not import: %s"
                             % r.stderr.decode(errors="replace").strip())
        out.append(r.wall_s)
    return out


def _until(ctx, start, seconds):
    """Loop guard: keep going while measured time and budget remain."""
    return time.perf_counter() - start < seconds and ctx.left() > 0


def _result(tally, elapsed, rss_mb, setup, info):
    value, pct, n = tail(tally.latencies)
    info.update(tail_percentile=round(pct, 2), samples=n,
                setup_samples=[round(s, 4) for s in setup])
    done = tally.attempted - tally.failed
    return tally, {
        "latency_s": median(tally.latencies),
        "tail_s": value,
        "ops_per_s": done / elapsed,
        "rss_mb": rss_mb,
        "setup_s": median(setup),
    }, info


def _self_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# verify: repeated cold `python -m k3pencils verify`

def run_verify(ctx):
    setup = import_times(ctx)
    tally, rss = Tally(), []
    start = time.perf_counter()
    while (tally.attempted < VERIFY_MIN_RUNS and ctx.left() > 0
           or _until(ctx, start, ctx.seconds)):
        r = ctx.cli(["verify"])
        tally.add(r.code is not None
                  and oracles.verify_ok(r.stdout, r.stderr, r.code), r.wall_s)
        rss.append(r.rss_mb)
    elapsed = time.perf_counter() - start
    setup += import_times(ctx)
    return _result(tally, elapsed, median(rss), setup, {})


# ---------------------------------------------------------------------------
# query: one-shot CLI calls, a fresh process each

def query_ok(call, r):
    if r.code != 0:
        return False
    if call[0] != "lattice":
        return oracles.sha256(r.stdout) == oracles.REFS["query"].get(
            " ".join(call))
    _, what, item = call
    names, gram, v = oracles.parse_graph(item.text, item.cls)
    det = oracles.fraction_det(gram)
    out = r.stdout.decode()
    if what == "disc":
        return out == "rank %d  disc %d\n" % (len(names), det)
    if what == "group":
        order, factors = oracles.group_order(out)
        return order == abs(det) and oracles.is_chain(factors)
    if not oracles.rational_divisible(gram, v, item.p):
        return False
    if what == "divisible":
        return out == ("%s is divisible by %d\nsupport check: passed\n"
                       % (item.cls, item.p))
    return out == "disc %d -> %d (rank %d)\n" % (
        det, det // (item.p * item.p), len(names))


def query_call(ctx, call, name=None):
    """Run one query; with name, traced, keeping the trace in that file."""
    args = list(call)
    if call[0] == "lattice":
        _, what, item = call
        cfg_path = ctx.work / "query.cfg"
        cfg_path.write_text(item.text)
        args = ["lattice", what, str(cfg_path)]
        if what in ("divisible", "adjoin"):
            args += ["-p", str(item.p)]
    if name is None:
        r, snap = ctx.cli(args), None
    else:
        r, snap = ctx.traced_cli(args, name)
    return r, query_ok(call, r), snap


def query_inputs(ctx):
    rng = ctx.rng("query")
    rounds = [inputs.query_round(rng) for _ in range(QUERY_ROUNDS)]
    digest = inputs.digest([[inputs.query_json(c) for c in rnd]
                            for rnd in rounds])
    return rounds, digest


def run_query(ctx):
    rounds, digest = query_inputs(ctx)
    setup = import_times(ctx)
    tally, rss = Tally(), []
    start = time.perf_counter()
    done = 0
    # whole rounds only, so that every run does the same mix, and only
    # as many as fit: a round takes about as long as a whole run
    while not done or (_until(ctx, start, ctx.seconds)
                       and (time.perf_counter() - start) * (done + 1) / done
                       <= ctx.seconds):
        for call in rounds[done % len(rounds)]:
            r, ok, _ = query_call(ctx, call)
            tally.add(ok, r.wall_s)
            rss.append(r.rss_mb)
        done += 1
    elapsed = time.perf_counter() - start
    setup += import_times(ctx)
    return _result(tally, elapsed, median(rss), setup,
                   {"inputs_sha256": digest, "rounds": done})


# ---------------------------------------------------------------------------
# witness: stabilizer and fix group of sampled (group, line) pairs

def witness_setup():
    """(seconds, pools): group closures, line inventories, orbit lengths.

    pools[label] = (projective group, {"base": lines, "inv": lines},
    {line key: orbit length}, {line key: (pool, orbit index)}).
    """
    from k3pencils import geometry, groups
    start = time.perf_counter()
    pools = {}
    for label in inputs.ALL_GROUPS:
        pg = groups.pgroup(label)
        lines = {"base": geometry.base_locus(groups.DEFAULT_DEGREE[label]),
                 "inv": geometry.line_inventory(pg)}
        length, orbit_of = {}, {}
        for kind, pool in lines.items():
            for k, orb in enumerate(geometry.line_orbits(pg, pool)):
                for ln in orb:
                    length[ln.key] = len(orb)
                    orbit_of[ln.key] = (kind, k)
        pools[label] = (pg, lines, length, orbit_of)
    return time.perf_counter() - start, pools


def witness_inputs(ctx, pools):
    sizes = {label: (len(p[1]["base"]), len(p[1]["inv"]))
             for label, p in pools.items()}
    rounds = inputs.witness_rounds(ctx.rng("witness"), sizes, WITNESS_ROUNDS)
    return rounds, inputs.digest(rounds)


def witness_op(pools, pick, ratios):
    """Check one line: |orbit| * |H_L| = |PG| and F_L inside H_L.

    Returns (ok, seconds in the two library calls).  Records (label,
    orbit, |H|/|F|) in ratios for the check against fixlines_table
    that follows the timed loop.
    """
    from k3pencils import geometry
    label, kind, idx = pick
    pg, lines, length, orbit_of = pools[label]
    line = lines[kind][idx]
    start = time.perf_counter()
    stab = geometry.stabilizer(pg, line)
    fix = geometry.fix_group(pg, line)
    seconds = time.perf_counter() - start
    h = {e.proj_key() for e in stab}
    f = {e.proj_key() for e in fix}
    ok = (len(h) == len(stab) and length[line.key] * len(h) == pg.order()
          and f <= h and len(h) % len(f) == 0)
    if ok and kind == "inv" and label in inputs.PENCIL_GROUPS:
        ratios.append((label, orbit_of[line.key], len(h) // len(f)))
    return ok, seconds


def witness_check(pools, ratios):
    """Failed ops among ratios: |H|/|F| must equal fixlines_table's row
    for the line's orbit (a property of the orbit, so any member will
    do)."""
    from k3pencils import geometry
    want = {}
    for label in {r[0] for r in ratios}:
        _, _, length, orbit_of = pools[label]
        for row in geometry.fixlines_table(label):
            key = row.rep.key
            if length.get(key) == row.length:
                want[(label, orbit_of[key])] = row.ratio
    return sum(1 for label, orbit, ratio in ratios
               if want.get((label, orbit)) != ratio)


def witness_rounds_run(ctx, pools, rounds, tally, seconds):
    """Whole rounds until seconds have passed (at least one).

    A round's latency is the time its library calls took: single
    checks differ thirtyfold between groups, a round holds every group.
    """
    ratios = []
    start = time.perf_counter()
    done = 0
    while not done or _until(ctx, start, seconds):
        spent = 0.0
        for pick in rounds[done % len(rounds)]:
            ok, op_s = witness_op(pools, pick, ratios)
            tally.add(ok)
            spent += op_s
        tally.latencies.append(spent)
        done += 1
    elapsed = time.perf_counter() - start
    tally.failed += witness_check(pools, ratios)
    return elapsed, done


def run_witness(ctx):
    first, pools = witness_setup()
    rounds, digest = witness_inputs(ctx, pools)
    tally = Tally()
    elapsed, done = witness_rounds_run(ctx, pools, rounds, tally, ctx.seconds)
    rss_mb = _self_rss_mb()
    setup = [first]
    for _ in range(WITNESS_SETUP_SAMPLES - 1):
        r = ctx.child([sys.executable, "-m", "k3bench.child", "witness-setup"],
                      traced=True)
        if r.code != 0:
            raise BenchError("witness setup failed: %s"
                             % r.stderr.decode(errors="replace").strip())
        setup.append(json.loads(r.stdout)["setup_s"])
    return _result(tally, elapsed, rss_mb, setup,
                   {"inputs_sha256": digest, "rounds": done})


# ---------------------------------------------------------------------------
# lattice: curve-graph configs through lattices and config

def lattice_setup(ctx):
    from k3pencils import data
    start = time.perf_counter()
    pool = inputs.lattice_pool(ctx.rng("lattice"), data.DIVISIBLE_CLASSES)
    return time.perf_counter() - start, pool


def lattice_op(item):
    """Every lattice call on one config: (summary, detail).

    summary must repeat exactly on every round; detail feeds the
    oracle check after the timed loop.
    """
    from k3pencils import config, lattices
    cfg = config.parse_config(item.text)
    lat = lattices.gram_from_graph(cfg.graph)
    disc = lattices.discriminant(lat)
    factors = lattices.discriminant_group(lat).invariant_factors
    v = lattices.divisor_class(lat, cfg.classes[item.cls])
    divisible = tuple(lattices.is_p_divisible(lat, v, p) for p in (2, 3))
    count = (lattices.nikulin_count_check(lat, v, item.p)
             if item.p in (2, 3) else None)
    big = lattices.adjoin_class(lat, v, item.p)
    big_disc = lattices.discriminant(big)
    again = config.parse_config(config.emit_config(cfg))
    same = (again.graph.curves == cfg.graph.curves
            and again.graph.edges == cfg.graph.edges
            and again.classes == cfg.classes)
    summary = (lat.rank, disc, factors, divisible, count, big.rank,
               big_disc, same)
    return summary, (lat.gram, v.coeffs, big.gram)


def lattice_ok(item, summary, detail):
    """Check one config's results against Fraction arithmetic."""
    rank, disc, factors, divisible, count, big_rank, big_disc, same = summary
    gram, coeffs, big_gram = detail
    names, want_gram, want_coeffs = oracles.parse_graph(item.text, item.cls)
    det = oracles.fraction_det(want_gram)
    order = 1
    for d in factors:
        order *= d
    p = item.p
    return (same and rank == len(names) == big_rank
            and [list(r) for r in gram] == want_gram
            and list(coeffs) == want_coeffs
            and det != 0 and disc == det
            and order == abs(det) and oracles.is_chain(list(factors))
            and divisible == tuple(oracles.rational_divisible(gram, coeffs, q)
                                   for q in (2, 3))
            and oracles.rational_divisible(gram, coeffs, p)
            and count in (True, None) and (count is None) == (p not in (2, 3))
            and big_disc * p * p == det
            and oracles.fraction_det(big_gram) == big_disc
            and all(big_gram[i][i] % 2 == 0 for i in range(big_rank)))


def lattice_rounds_run(ctx, pool, tally, seconds):
    """Whole rounds until seconds have passed (at least one).

    A round's latency is the time its library calls took: one config
    costs twentyfold more at rank 22 than the smallest shipped one.
    Results must repeat on every round and pass lattice_ok.
    """
    first = [None] * len(pool)
    consistent = []
    start = time.perf_counter()
    done = 0
    while not done or _until(ctx, start, seconds):
        spent = 0.0
        for i, item in enumerate(pool):
            t0 = time.perf_counter()
            summary, detail = lattice_op(item)
            spent += time.perf_counter() - t0
            if first[i] is None:
                first[i] = (summary, detail)
            consistent.append((i, summary == first[i][0]))
        tally.latencies.append(spent)
        done += 1
    elapsed = time.perf_counter() - start
    good = [lattice_ok(item, *first[i]) for i, item in enumerate(pool)]
    for i, same in consistent:
        tally.add(same and good[i])
    return elapsed, done


def run_lattice(ctx):
    def build(samples):
        for _ in range(samples):
            seconds, pool = lattice_setup(ctx)
            setup.append(seconds)
            digests.add(inputs.digest([item.as_json() for item in pool]))
        return pool

    setup, digests = [], set()
    pool = build(LATTICE_SETUP_SAMPLES // 2)
    tally = Tally()
    elapsed, done = lattice_rounds_run(ctx, pool, tally, ctx.seconds)
    rss_mb = _self_rss_mb()
    build(LATTICE_SETUP_SAMPLES // 2)
    if len(digests) != 1:
        raise BenchError("lattice inputs differ between two builds "
                         "from one seed")
    return _result(tally, elapsed, rss_mb, setup,
                   {"inputs_sha256": digests.pop(), "rounds": done})


WORKLOADS = {
    "verify": run_verify,
    "query": run_query,
    "witness": run_witness,
    "lattice": run_lattice,
}


# ---------------------------------------------------------------------------
# the traced pass

def cyc_mul_ns(ctx):
    """Median ns per Cyc.__mul__ over a seeded pool of group-matrix
    entries (products of the seven groups' matrix entries)."""
    from k3pencils import groups
    entries = set()
    for label in inputs.ALL_GROUPS:
        for e in groups.pgroup(label):
            entries.update(x for m in (e.P, e.Q) for row in m for x in row)
    entries = sorted(entries, key=lambda c: (c.num, c.den))
    rng = ctx.rng("mul")
    pairs = [(rng.choice(entries), rng.choice(entries)) for _ in range(1000)]
    samples = []
    for _ in range(5):
        reps = 0
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            for a, b in pairs:
                a * b
            reps += 1
        samples.append((time.perf_counter() - start) / (reps * len(pairs)))
    return median(samples) * 1e9


def run_traced(ctx):
    """One traced pass over a slice of every workload.

    verify: two traced cold runs, whose op counts must agree, with an
    untraced run between them, the base of the tracing overhead.  query: one call of
    each command from the first seeded round, each traced in its own
    process.  witness and lattice: one seeded round each, in this
    process, with the tracer installed around setup, ops and checks.
    """
    tally = Tally()
    snaps, import_s, traced_s = [], [], []
    for i in range(2):
        r, snap = ctx.traced_cli(["verify"], "trace-verify-%d.json" % i)
        tally.add(snap is not None
                  and oracles.verify_ok(r.stdout, r.stderr, r.code))
        if snap is None:
            raise BenchError("traced verify did not finish")
        snaps.append(snap)
        import_s.append(snap["import_s"])
        traced_s.append(r.wall_s)
        if not i:
            # between the traced runs, so host drift hits both sides alike
            r = ctx.cli(["verify"])
            tally.add(r.code is not None
                      and oracles.verify_ok(r.stdout, r.stderr, r.code))
            untraced_s = r.wall_s
    same_counts = snaps[0]["counts"] == snaps[1]["counts"]
    tally.add(same_counts)
    parts = [snaps[0]]

    rounds, query_digest = query_inputs(ctx)
    seen = set()
    for call in rounds[0]:
        kind = call[:2] if call[0] == "lattice" else call[:1]
        if kind in seen:
            continue
        seen.add(kind)
        r, ok, snap = query_call(ctx, call, "trace-query.json")
        tally.add(ok and snap is not None)
        if snap is not None:
            parts.append(snap)
            import_s.append(snap["import_s"])

    import k3pencils.cli  # noqa: F401  (every module, before patching)
    tracer = Tracer()
    tracer.install()
    try:
        _, pools = witness_setup()
        witness, witness_digest = witness_inputs(ctx, pools)
        witness_rounds_run(ctx, pools, witness[:1], tally, 0)
        _, pool = lattice_setup(ctx)
        lattice_rounds_run(ctx, pool, tally, 0)
    finally:
        tracer.uninstall()
    parts.append(tracer.snapshot())
    mul_ns = cyc_mul_ns(ctx)

    layer = metrics.layer_values(parts, import_s, mul_ns)
    path = ctx.work / ("trace-%d.json" % ctx.seed)
    with open(path, "w") as fh:
        json.dump({"parts": parts}, fh, separators=(",", ":"))
    info = {
        "trace_file": str(path.relative_to(ctx.root)),
        "spans": sum(len(p["spans"]) for p in parts),
        "verify_traced_s": [round(s, 4) for s in traced_s],
        "verify_untraced_s": round(untraced_s, 4),
        "trace_overhead": round(median(traced_s) / untraced_s - 1, 4),
        "trace_counts_identical": same_counts,
        "query_sha256": query_digest,
        "witness_sha256": witness_digest,
    }
    return tally, layer, info
