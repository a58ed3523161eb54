"""Recompute every embedded table and report cell-level agreement.

Each builder walks one table of the golden dataset, recomputes the
cells from the group generators, and yields (key, expected, computed)
triples.  run_verification stamps a status on every triple:

    ok              computed equals the golden value
    known-deviation computed differs, and equals the value the
                    dataset's *_FIXES entry records for that cell
    FAIL            anything else

Reports are deterministic: builders iterate fixed tuples, never sets.
"""

from math import prod
from typing import NamedTuple

from . import data
from .config import parse_config
from .geometry import (
    base_locus,
    fixlines_table,
    meeting_point_orbits,
    orbits_on_ruling,
    quadric_point_rows,
)
from .groups import GROUP_LABELS, Surface, group, index, is_subgroup, pgroup
from .lattices import (
    ADEType,
    ade_lattice,
    direct_sum,
    discriminant,
    divisor_class,
    gram_from_graph,
    is_p_divisible,
    nikulin_count_check,
)
from .singularities import (
    NODE_COUNTS,
    binary_quotient,
    fixline_columns,
    node_records,
    nu_totals,
    offquadric_orbits,
    quadric_point_singularity,
)


class CellResult(NamedTuple):
    table_id: str
    key: str
    expected: object
    computed: object
    status: str

    def __repr__(self):
        return "CellResult(%s %s: %s)" % (self.table_id, self.key,
                                          self.status)


def _known_deviations():
    """{(table id, key): recomputed value} of the cells whose golden
    value contradicts its own row; built from the data.*_FIXES tables."""
    out = {}
    for (label, col), ratio in data.FIXLINE_FIXES.items():
        out[("sec4.fixlines", "%s.%s.ratio" % (label, col))] = ratio
    for (label, col), length in data.OFFQUADRIC_FIXES.items():
        out[("sec5.sing", "%s.%s.length" % (label, col))] = length
    for (label, fiber), fixed in data.SINGULAR_NU_FIXES.items():
        printed = data.SINGULAR_NU[(label, fiber)]
        for name, want, was in zip(("nu3", "nu4", "nu"), fixed, printed):
            if want != was:
                out[("sec6.nu", "%s.l%d.%s" % (label, fiber, name))] = want
    return out


KNOWN_DEVIATIONS = _known_deviations()


def _sing_str(count, ade, keep_one=False):
    if count == 1 and not keep_one:
        return str(ade)
    return "%d%s" % (count, ade)


def _build_subgroups():
    for label in data.GROUP_ORDER:
        order, ambient, idx = data.SUBGROUPS[label]
        g = group(label)
        amb = group(ambient)
        yield "%s.order" % label, order, g.order()
        yield ("%s.ambient" % label, ambient,
               ambient if is_subgroup(g, amb) else "not inside %s" % ambient)
        yield "%s.index" % label, idx, index(g, amb)


def _build_rulings():
    for label in data.GROUP_ORDER:
        for side in ("left", "right"):
            expected = data.RULINGS[(label, side)]
            got = orbits_on_ruling(group(label), side)
            got = {o: tuple(lengths) for o, lengths in got.items()}
            yield "%s.%s" % (label, side), expected, got


def _build_meeting():
    for label, degree, _ in data.PENCIL_SURFACES:
        lines = base_locus(degree)
        left = [ln for ln in lines if ln.side == "left"]
        right = [ln for ln in lines if ln.side == "right"]
        got = meeting_point_orbits(pgroup(label), left, right)
        yield label, data.MEETING[label], tuple(got)


def _common(rows, get):
    vals = sorted({get(r) for r in rows})
    return vals[0] if len(vals) == 1 else tuple(vals)


def _build_fixlines():
    for label in data.GROUP_ORDER:
        printed = [r for r in data.FIXLINES if r[0] == label]
        computed = fixlines_table(label)
        columns = fixline_columns(label)
        orders = sorted({r[3] for r in printed}
                        | {c.fix_order for c in computed})
        for o in orders:
            prows = sorted((r for r in printed if r[3] == o),
                           key=lambda r: r[4])
            # the map places every column of an order or none of them
            if not prows or prows[0][1] not in columns:
                yield ("%s.classes(o=%d)" % (label, o),
                       sum(r[6] for r in prows),
                       sum(1 for c in computed if c.fix_order == o))
                continue
            for r in prows:
                _, name, _rep, _fix, length, ratio, mult = r
                rows = columns[name]
                prefix = "%s.%s" % (label, name)
                yield prefix + ".classes", mult, len(rows)
                yield (prefix + ".type", name[0],
                       _common(rows, lambda c: c.type_tag))
                yield (prefix + ".length", length,
                       _common(rows, lambda c: c.length))
                yield (prefix + ".ratio", ratio,
                       _common(rows, lambda c: c.ratio))


def _build_sing():
    for smooth in data.PENCIL_SURFACES:
        label = smooth.label
        printed = [r for r in data.QUADRIC_POINTS if r[0] == label]
        printed.sort(key=lambda r: (r[3], r[4], r[2]))
        computed = sorted(quadric_point_rows(smooth),
                          key=lambda c: (c.length, c.number,
                                         "Z%dxZ%d" % c.fix))
        yield "%s.quadric.rows" % label, len(printed), len(computed)
        if len(printed) == len(computed):
            for i, (r, c) in enumerate(zip(printed, computed), start=1):
                prefix = "%s.P%d" % (label, i)
                yield prefix + ".fix", r[2], "Z%dxZ%d" % c.fix
                yield prefix + ".length", r[3], c.length
                yield prefix + ".number", r[4], c.number
                sing = quadric_point_singularity(c.transversal_order)
                yield (prefix + ".sing", r[5],
                       _sing_str(c.number, sing, keep_one=True))

        orbits = offquadric_orbits(smooth)
        for (grp, o), m in data.OFFQUADRIC_COUNTS.items():
            if grp != label:
                continue
            got = sorted({row.ratio * n for row, n in orbits
                          if row.order == o})
            yield ("%s.points.o%d" % (label, o), m,
                   got[0] if len(got) == 1 else tuple(got))

        columns = fixline_columns(label)
        number_of = dict(orbits)
        mult_of = {r[1]: r[6] for r in data.FIXLINES if r[0] == label}
        printed = [r for r in data.OFFQUADRIC_ROWS if r[0] == label]
        for o in sorted({r[2] for r in printed}):
            prows = sorted((r for r in printed if r[2] == o),
                           key=lambda r: (r[4], r[3]))
            if not all(r[1] in columns for r in prows):
                yield ("%s.lines(o=%d)" % (label, o),
                       sum(mult_of[r[1]] for r in prows),
                       sum(1 for row, _ in orbits if row.order == o))
                continue
            for r in prows:
                _, name, _o, length, number, sing = r
                rows = columns[name]
                prefix = "%s.%s" % (label, name)
                yield (prefix + ".length", length,
                       _common(rows, lambda c: c.ratio))
                yield (prefix + ".number", number,
                       _common(rows, number_of.get))
                yield (prefix + ".sing", sing,
                       _common(rows, lambda c: _sing_str(
                           number_of[c], ADEType("A", c.order - 1))))

        ph = pgroup(label).order()
        for rec in node_records(label):
            ns, orbits, fix, _meeting, sing = data.NODES[(label, rec.fiber)]
            prefix = "%s.l%d" % (label, rec.fiber)
            got_ns = NODE_COUNTS[smooth.degree][rec.fiber - 1]
            yield prefix + ".ns", ns, got_ns
            # orbit-stabilizer: each orbit holds |PH| / |F| of the nodes
            order, node_sing = binary_quotient(rec.fix_group)
            num = got_ns * order
            yield (prefix + ".orbits", orbits,
                   num // ph if num % ph == 0 else "%d/%d" % (num, ph))
            yield prefix + ".F", fix, rec.fix_group
            yield (prefix + ".sing", sing,
                   _sing_str(rec.orbit_count, node_sing))


def _build_nu():
    for label, degree, _ in data.PENCIL_SURFACES:
        n1, n2, n3, n = data.SMOOTH_NU[label]
        got = nu_totals(Surface(label, degree))
        prefix = "%s.smooth" % label
        yield prefix + ".nu1", n1, got[0]
        yield prefix + ".nu2", n2, got[1]
        yield prefix + ".nu3", n3, got[2]
        yield prefix + ".nu", n, got[4]
        for fiber in (1, 2, 3, 4):
            n3, n4, n = data.SINGULAR_NU[(label, fiber)]
            got = nu_totals(Surface(label, degree, fiber))
            prefix = "%s.l%d" % (label, fiber)
            yield prefix + ".nu3", n3, got[2]
            yield prefix + ".nu4", n4, got[3]
            yield prefix + ".nu", n, got[4]


def _build_divisible():
    for ctx, name, p, text in data.DIVISIBLE_CLASSES:
        cfg = parse_config(text)
        lat = gram_from_graph(cfg.graph)
        v = divisor_class(lat, cfg.classes[name])
        prefix = "%s.%s" % (ctx, name)
        yield ("%s.divisible(%d)" % (prefix, p), True,
               is_p_divisible(lat, v, p))
        if p in (2, 3):
            yield prefix + ".support", True, nikulin_count_check(lat, v, p)


def _ade_sum(text):
    count = int(text[:-2]) if len(text) > 2 else 1
    block = ade_lattice(ADEType.parse(text[-2:]))
    lat = block
    for _ in range(count - 1):
        lat = direct_sum(lat, block)
    return lat


def _build_discs():
    for name, disc in data.COMPONENT_DISCS:
        yield "blocks.%s" % name, disc, discriminant(_ade_sum(name))
    for ctx, blocks in data.COMPONENT_TABLES:
        yield ("factors.%s" % ctx, data.PRINTED_DISC[ctx],
               prod(d for _, d in blocks))
    for ctx, d_w2, ps in data.DISC_DROPS:
        d_w, sq = data.PRINTED_DISC[ctx], prod(ps) ** 2
        got = d_w // sq if d_w % sq == 0 else "index does not divide"
        yield "%s.after" % ctx, d_w2, got


_BUILDERS = {
    "sec3.subgroups": _build_subgroups,
    "sec4.rulings": _build_rulings,
    "sec4.meeting": _build_meeting,
    "sec4.fixlines": _build_fixlines,
    "sec5.sing": _build_sing,
    "sec6.nu": _build_nu,
    "sec7.divisible": _build_divisible,
    "sec8.discs": _build_discs,
}

assert tuple(_BUILDERS) == data.TABLE_IDS


def run_verification(scope="all"):
    """CellResults for one table id, or for every table in order."""
    if scope == "all":
        ids = data.TABLE_IDS
    elif scope in _BUILDERS:
        ids = (scope,)
    else:
        raise ValueError("unknown table %r" % (scope,))
    results = []
    for table_id in ids:
        for key, expected, computed in _BUILDERS[table_id]():
            if computed == expected:
                status = "ok"
            elif KNOWN_DEVIATIONS.get((table_id, key)) == computed:
                status = "known-deviation"
            else:
                status = "FAIL"
            results.append(CellResult(table_id, key, expected, computed,
                                      status))
    return results


def tally(results):
    """(ok, known-deviation, FAIL) counts."""
    ok = sum(1 for r in results if r.status == "ok")
    known = sum(1 for r in results if r.status == "known-deviation")
    return ok, known, len(results) - ok - known


def _fmt(value):
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, dict):
        return "; ".join("%s:%s" % (k, _fmt(value[k]))
                         for k in sorted(value))
    if isinstance(value, (tuple, list)):
        return "[%s]" % ", ".join(_fmt(x) for x in value)
    return str(value)


def emit_report(results, fmt="tsv"):
    """Render CellResults as one deterministic text table."""
    rows = [(r.table_id, r.key, _fmt(r.expected), _fmt(r.computed), r.status)
            for r in results]
    header = ("table", "key", "expected", "computed", "status")
    if fmt == "tsv":
        lines = ["\t".join(header)]
        lines.extend("\t".join(row) for row in rows)
        return "\n".join(lines) + "\n"
    if fmt == "markdown":
        def clean(cell):
            return cell.replace("|", "\\|")
        lines = ["| " + " | ".join(header) + " |",
                 "|" + "---|" * len(header)]
        lines.extend("| " + " | ".join(clean(c) for c in row) + " |"
                     for row in rows)
        return "\n".join(lines) + "\n"
    raise ValueError("unknown report format %r" % (fmt,))


def group_registry():
    """(label, order, projective order) for every registered group."""
    out = []
    for label in GROUP_LABELS:
        g = group(label)
        out.append((label, g.order(), pgroup(label).order()))
    return out
