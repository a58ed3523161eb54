"""A-D-E classification of the quotient singularities and curve counts.

Three sources of rational curves on the resolved quotient need
bookkeeping beyond the base-locus orbits: stabilizers of points where
base lines meet other fix-lines on the quadric, stabilizers of
off-quadric points on fix-lines, and binary quotients C^2/F~ at the
images of nodes of the singular pencil members.  Node positions depend
on the invariant forms cutting the pencil, so node counts, fix-group
names, and node-line incidences are read from data.NODES; everything
downstream of them is recomputed and cross-checked.
"""

import re
from collections import namedtuple
from functools import cache

from . import data
from .geometry import fixlines_table, nu1, nu2, points_off_quadric
from .groups import pgroup
from .lattices import ADEType, _integer

# fix groups named without a parameter; the others are Zn and Dn
_UNPARAMETRIZED = {"id": (1, ADEType("A", 1)), "T": (12, ADEType("E", 6)),
                   "O": (24, ADEType("E", 7)), "I": (60, ADEType("E", 8))}
_CYCLIC_DIHEDRAL = re.compile(r"([ZD])([1-9][0-9]*)")


def binary_quotient(label):
    """(|F|, Dynkin type of C^2/F~) for the rotation group F of a label.

    The McKay correspondence: the binary covers of Zn, Dn, T, O, I give
    A_{2n-1}, D_{n+2}, E6, E7, E8.  A node with trivial stabilizer (id)
    stays an ordinary double point, A1.  Any other label, Z1 and D1
    included, raises ValueError.
    """
    if isinstance(label, str) and label in _UNPARAMETRIZED:
        return _UNPARAMETRIZED[label]
    m = isinstance(label, str) and _CYCLIC_DIHEDRAL.fullmatch(
        "D2" if label == "Z2xZ2" else label)
    if not m or int(m[2]) < 2:
        raise ValueError("unknown rotation-group label %r" % (label,))
    n = int(m[2])
    if m[1] == "Z":
        return n, ADEType("A", 2 * n - 1)
    return 2 * n, ADEType("D", n + 2)


def quadric_point_singularity(a):
    """Quotient type at a base-line point with stabilizer Z_a x Z_b.

    a is the order of the transversal factor; the other factor fixes
    the base line pointwise, so only the transversal factor acts on a
    disc normal to the branch curve, and the image point is an A_{a-1}.
    """
    if a < 2:
        raise ValueError("transversal factor must act nontrivially")
    return ADEType("A", a - 1)


class NodeOrbitRecord(namedtuple(
        "NodeOrbitRecord", "group fiber node_count orbit_count fix_group"
                           " line_incidences")):
    """Ingested invariants of the nodes of one singular pencil member.

    node_count and fix_group come from the classical description of the
    pencils; fix_group is the label data.NODES prints, which
    binary_quotient must know.  line_incidences holds (fix-line columns,
    lines of those columns through each node) pairs parsed from the
    meeting-lines annotation.
    """

    __slots__ = ()

    def __new__(cls, group, fiber, node_count, orbit_count, fix_group,
                line_incidences=()):
        if not (type(fiber) is int and 1 <= fiber <= 4):
            raise ValueError("fiber must be 1..4, got %r" % (fiber,))
        node_count = _integer(node_count, "node count")
        orbit_count = _integer(orbit_count, "orbit count")
        if min(node_count, orbit_count) < 1:
            raise ValueError("node and orbit counts must be positive")
        if node_count % orbit_count:
            raise ValueError("orbit count must divide node count")
        binary_quotient(fix_group)
        return super().__new__(cls, group, fiber, node_count, orbit_count,
                               fix_group, tuple(line_incidences))

    def __repr__(self):
        return "NodeOrbitRecord(%r, %d, ns=%d, orbits=%d, F=%s)" % (
            self.group, self.fiber, self.node_count, self.orbit_count,
            self.fix_group)


# nodes on the four singular members of the degree-n pencil
NODE_COUNTS = {6: (12, 48, 48, 12), 8: (24, 72, 144, 96)}

_TERM = re.compile(r"(\d+)(.+)")


def fixline_columns(label):
    """{printed fix-line column: its rows of fixlines_table(label)}.

    Within one |F_L|, the data.FIXLINES columns, sorted by printed
    length, each take `classes` consecutive rows sorted by computed
    length.  An order whose class counts do not add up to its rows gets
    no columns.  Every call returns a fresh dict.
    """
    printed = [r for r in data.FIXLINES if r[0] == label]
    computed = fixlines_table(label)
    out = {}
    for o in sorted({r[3] for r in printed}):
        cols = sorted((r for r in printed if r[3] == o), key=lambda r: r[4])
        rows = sorted((c for c in computed if c.fix_order == o),
                      key=lambda c: c.length)
        if sum(r[6] for r in cols) == len(rows):
            for r in cols:
                out[r[1]], rows = tuple(rows[:r[6]]), rows[r[6]:]
    return out


def parse_meeting_lines(label, text):
    """(fix-line columns, lines through each node) pairs.

    text is a meeting-lines annotation of data.NODES such as "3Mi+4N":
    terms <count><name> joined by "+".  A name is one of the group's
    data.FIXLINES columns or else a family of them: "Mi" / "Mij" for
    the numbered M columns, "N(N')" for N and N'.
    """
    columns = [r[1] for r in data.FIXLINES if r[0] == label]
    out = []
    for term in text.split("+") if text else ():
        m = _TERM.fullmatch(term)
        name = m[2] if m else ""
        if name in columns:
            names = (name,)
        elif name in ("Mi", "Mij"):
            names = tuple(c for c in columns
                          if c[0] == "M" and c[1:].isdigit())
        elif name == "N(N')":
            names = tuple(c for c in columns if c in ("N", "N'"))
        else:
            names = ()
        if not names:
            raise ValueError("%s: meeting-lines term %r names no fix-line"
                             " column" % (label, term))
        out.append((names, int(m[1])))
    return tuple(out)


@cache
def node_records(label):
    """The node data of one group's four singular members (data.NODES)."""
    out = []
    for fiber in (1, 2, 3, 4):
        ns, orbits, fix, meeting, _sing = data.NODES[(label, fiber)]
        try:
            out.append(NodeOrbitRecord(label, fiber, ns, orbits, fix,
                                       parse_meeting_lines(label, meeting)))
        except ValueError as exc:
            raise ValueError("%s lambda%d: %s" % (label, fiber, exc)) from None
    return tuple(out)


def _nodes_per_line(label, record):
    """{fixlines_table row: nodes of the member on each of its lines}.

    The incidences of one meeting-lines term spread evenly over the
    lines of the rows its columns name, which also absorbs the
    alternating N/N' annotations.  Rows no term names are absent.
    """
    where = "%s lambda%d" % (label, record.fiber)
    columns = fixline_columns(label)
    k_of = {}
    for names, per_node in record.line_incidences:
        if not all(c in columns for c in names):
            raise ValueError("%s: fix-line columns %s match no computed"
                             " rows" % (where, "+".join(names)))
        rows = [row for c in names for row in columns[c]]
        lines = sum(row.length for row in rows)
        hits = record.node_count * per_node
        if hits % lines:
            raise ValueError("%s: %d node incidences do not share out over"
                             " the %d lines of %s" % (where, hits, lines,
                                                      "+".join(names)))
        for row in rows:
            k_of[row] = k_of.get(row, 0) + hits // lines
    return k_of


def offquadric_orbits(surface):
    """(fixlines_table row, orbits left on it) pairs, in table order.

    A transversal fix-line L carries m base points of the surface's
    pencil off the quadric; each of the k nodes of the member on L is a
    double point of the intersection and takes two.  H_L/F_L acts
    freely on the m - 2k left, so they fall into (m - 2k)/|H_L/F_L|
    orbits, each the image of one A_{o(L)-1} point.  The smooth member
    (fiber None) has no nodes; a singular one has those of node_records.
    """
    label, degree, fiber = surface
    if fiber is None:
        where, k_of = "%s smooth" % label, {}
    else:
        where = "%s lambda%d" % (label, fiber)
        k_of = _nodes_per_line(label, node_records(label)[fiber - 1])
    out = []
    for row in fixlines_table(label):
        m = points_off_quadric(row.rep, degree)
        k = k_of.get(row, 0)
        left = m - 2 * k
        if left < 0 or left % row.ratio:
            raise ValueError("%s: %d nodes on a %s line with %d off-quadric"
                             " points leave %d, not a multiple of |H|/|F|"
                             " = %d" % (where, k, row.type_tag, m, left,
                                        row.ratio))
        out.append((row, left // row.ratio))
    return tuple(out)


def nu_totals(surface):
    """The curve-count vector (nu1, nu2, nu3, nu4, nu) of one surface.

    The nodes of a singular member are those of data.NODES, looked up
    by the group label.  nu1 and nu2 count curves over the base locus,
    the same on every member of the pencil.
    """
    label, degree, fiber = surface
    n3 = sum(n * (row.order - 1) for row, n in offquadric_orbits(surface))
    n1, n2 = nu1(surface), nu2(surface)
    if fiber is None:
        return (n1, n2, n3, 0, n1 + n2 + n3)
    record = node_records(label)[fiber - 1]
    if record.node_count != NODE_COUNTS[degree][fiber - 1]:
        raise ValueError("node count does not match the pencil degree")
    order, sing = binary_quotient(record.fix_group)
    if record.orbit_count * pgroup(label).order() != record.node_count * order:
        raise ValueError("%s lambda%d: orbit count %d of %d nodes with"
                         " F = %s breaks orbit-stabilizer" % (
                             label, fiber, record.orbit_count,
                             record.node_count, record.fix_group))
    n4 = record.orbit_count * sing.rank
    return (n1, n2, n3, n4, n1 + n2 + n3 + n4)
