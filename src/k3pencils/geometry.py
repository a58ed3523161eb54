"""Lines on the quadric surface and their orbits under the rotation groups.

The quadric in P^3 is P^1 x P^1; a point is a pair (u, v) of points of
P^1 and a group element (P, Q) acts componentwise.  Three families of
lines matter:

* ruling lines {u} x P^1 and P^1 x {v}, the fix-lines of the "pure"
  elements (one factor scalar);
* transversal fix-lines, 2-dimensional eigenspaces of elements with
  both factors nonscalar (they meet the quadric in exactly two points);
* the base locus of the degree-n pencil: the unique ambient orbit of n
  ruling lines in each ruling.

A line is keyed by the points that pin it: a ruling line by its side
and its point of P^1, a transversal line by the unordered pair of
points where it meets the quadric.  Points are indices of the 26
special points in groups.binary_octahedral(), so orbits, stabilizers
and fix groups are lookups there and sums of eigenvalue exponents mod
24.  Equality of lines is equality of keys however they were produced.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

# the table is read as groups.binary_octahedral(), not imported by name:
# the benchmark tracer spans every function one module imports from
# another, which would put a span on each lookup
from . import groups
from .groups import AMBIENT, group, pgroup

ORDER_TAGS = {2: "M", 3: "N", 4: "R"}


def orbit_partition(seeds, images):
    """Orbits through seeds, under generators mapping x to images(x).

    Each orbit is a sorted list; the orbits come ordered by (length,
    first member).
    """
    pending = set(seeds)
    orbits = []
    while pending:
        start = pending.pop()
        orb = {start}
        frontier = [start]
        while frontier:
            for y in images(frontier.pop()):
                if y not in orb:
                    orb.add(y)
                    frontier.append(y)
        pending -= orb
        orbits.append(sorted(orb))
    orbits.sort(key=lambda o: (len(o), o[0]))
    return orbits


class Line(NamedTuple):
    """A ruling line (side, point) or a transversal line (qpoints).

    point is a special-point index; qpoints is the sorted pair of
    quadric points (u, v), as index pairs, on the line.  The fields are
    canonical, so equality is that of keys, and lines of both kinds
    sort together as tuples.
    """

    kind: str
    side: str | None = None
    point: int | None = None
    qpoints: tuple | None = None

    @property
    def key(self):
        """("ruling", side, point) or ("transversal", qpoints)."""
        if self.kind == "ruling":
            return ("ruling", self.side, self.point)
        return ("transversal", self.qpoints)


def ruling_line(side, pt):
    return Line("ruling", side=side, point=pt)


def transversal_line(qp1, qp2):
    return Line("transversal", qpoints=tuple(sorted((qp1, qp2))))


def act_line(e, line):
    act = groups.binary_octahedral().act
    if line.kind == "ruling":
        m = e.a if line.side == "left" else e.b
        return ruling_line(line.side, act[m][line.point])
    P, Q = act[e.a], act[e.b]
    (u1, v1), (u2, v2) = line.qpoints
    return transversal_line((P[u1], Q[v1]), (P[u2], Q[v2]))


def fix_lines(e):
    """Lines fixed pointwise (projectively) by a rotation.

    Pure elements fix the two ruling lines through the eigenpoints of
    their nonscalar factor.  For the rest, a 2-dimensional eigenspace
    of the 4x4 matrix exists for each pairing of the factor eigenvalues
    with equal products (equal exponent sums mod 24); involutions
    produce two such lines, elements of projective order 3 or 4 exactly
    one (the other pairing leaves two isolated fixed points).
    """
    eig = groups.binary_octahedral().eig
    ep, eq = eig[e.a], eig[e.b]
    if ep is None and eq is None:
        raise ValueError("projectively trivial element fixes all of P^3")
    if eq is None:
        return [ruling_line("left", u) for u in ep]
    if ep is None:
        return [ruling_line("right", v) for v in eq]
    (u1, l1), (u2, l2) = ep.items()
    (v1, m1), (v2, m2) = eq.items()
    out = []
    if (l1 + m1 - l2 - m2) % 24 == 0:
        out.append(transversal_line((u1, v1), (u2, v2)))
    if (l1 + m2 - l2 - m1) % 24 == 0:
        out.append(transversal_line((u1, v2), (u2, v1)))
    return out


# ---------------------------------------------------------------------------
# ruling actions and their fixed points

def ruling_orbits(g, side, points):
    """Orbits of points of one ruling under that side of g."""
    act = groups.binary_octahedral().act
    perms = {act[e.a if side == "left" else e.b] for e in g.generators}
    return orbit_partition(points, lambda pt: [p[pt] for p in perms])


def pure_fix_points(g, side):
    """Fixed points on one ruling from the pure elements of g.

    Returns {point: projective order of the largest pure element fixing
    it}; these are the points whose ruling lines are fixed by g-elements
    acting trivially on the other ruling.
    """
    eig = groups.binary_octahedral().eig
    pts = {}
    for e in g:
        m, other = (e.a, e.b) if side == "left" else (e.b, e.a)
        if eig[m] is not None and eig[other] is None:
            o = e.proj_order()
            for pt in eig[m]:
                if pts.get(pt, 0) < o:
                    pts[pt] = o
    return pts


def orbits_on_ruling(g, side):
    """Orbit lengths of the pure fixed points, grouped by fixer order."""
    pts = pure_fix_points(g, side)
    table = {}
    for orb in ruling_orbits(g, side, pts):
        orders = {pts[p] for p in orb}
        assert len(orders) == 1, "fixer order must be constant on an orbit"
        table.setdefault(orders.pop(), []).append(len(orb))
    return {o: sorted(lengths) for o, lengths in sorted(table.items())}


@lru_cache(maxsize=None)
def base_points(degree):
    """The n base points in each ruling (frozenset pair, left/right)."""
    amb = group(AMBIENT[degree])
    sides = []
    for side in ("left", "right"):
        pts = pure_fix_points(amb, side)
        hits = [o for o in ruling_orbits(amb, side, pts)
                if len(o) == degree]
        assert len(hits) == 1, (
            f"ambient ruling orbit of length {degree} is not unique"
        )
        sides.append(frozenset(hits[0]))
    return tuple(sides)


def base_locus(degree):
    """The 2n lines every member of the degree-n pencil contains."""
    left, right = base_points(degree)
    lines = [ruling_line("left", p) for p in sorted(left)]
    lines += [ruling_line("right", p) for p in sorted(right)]
    return lines


# ---------------------------------------------------------------------------
# line orbits, stabilizers, fix-groups

def line_orbits(pg, lines):
    return orbit_partition(
        lines, lambda ln: [act_line(e, ln) for e in pg.generators])


def stabilizer(pg, line):
    """H_L: elements mapping the line to itself."""
    return [e for e in pg if act_line(e, line) == line]


def fix_group(pg, line):
    """F_L: elements fixing the line pointwise."""
    return [e for e in pg if e.is_proj_trivial() or line in fix_lines(e)]


def line_inventory(pg):
    """All transversal fix-lines of the group, deduplicated."""
    lines = {ln for e in pg if not e.is_proj_trivial() for ln in fix_lines(e)}
    return sorted(ln for ln in lines if ln.kind == "transversal")


class FixLineOrbit(NamedTuple):
    """One row of a fix-line table: an orbit with its local data."""

    type_tag: str
    length: int
    fix_order: int
    stab_order: int
    rep: Line
    order: int

    @property
    def ratio(self):
        # Lagrange (F_L is a subgroup of H_L): an internal invariant,
        # not a check on user input, so python -O may strip it
        assert self.stab_order % self.fix_order == 0
        return self.stab_order // self.fix_order

    def __repr__(self):
        return (f"FixLineOrbit({self.type_tag}, l={self.length}, "
                f"|F|={self.fix_order}, |H|/|F|={self.ratio})")


@lru_cache(maxsize=None)
def fixlines_table(label):
    pg = pgroup(label)
    rows = []
    for orb in line_orbits(pg, line_inventory(pg)):
        rep = orb[0]
        stab = stabilizer(pg, rep)
        fix = fix_group(pg, rep)
        assert len(orb) * len(stab) == pg.order(), "orbit-stabilizer broken"
        order = max(e.proj_order() for e in fix if not e.is_proj_trivial())
        rows.append(FixLineOrbit(ORDER_TAGS[order], len(orb), len(fix),
                                 len(stab), rep, order))
    rows.sort(key=lambda r: (r.order, r.length))
    return tuple(rows)


# ---------------------------------------------------------------------------
# meeting points of ruling lines

def meeting_point_orbits(pg, left_lines, right_lines):
    """Orbit-length multiset of pairwise intersections of ruling lines."""
    for ln in left_lines:
        if ln.kind != "ruling" or ln.side != "left":
            raise ValueError("left_lines must be left-ruling lines")
    for ln in right_lines:
        if ln.kind != "ruling" or ln.side != "right":
            raise ValueError("right_lines must be right-ruling lines")
    points = {(l.point, r.point) for l in left_lines for r in right_lines}
    return sorted(len(o) for o in _point_pair_orbits(pg, points))


def _point_pair_orbits(pg, points):
    act = groups.binary_octahedral().act
    perms = [(act[e.a], act[e.b]) for e in pg.generators]
    return orbit_partition(
        points, lambda uv: [(P[uv[0]], Q[uv[1]]) for P, Q in perms])


def points_off_quadric(line, degree):
    """Base points of the degree-n pencil on the line, off the quadric.

    A line meets every member of the pencil in n points; the two points
    where a transversal line meets the quadric are base points exactly
    when they lie on base-locus lines.
    """
    if line.kind == "ruling":
        raise ValueError("line lies inside the quadric")
    bl, br = base_points(degree)
    on_base = sum(1 for (u, v) in line.qpoints if u in bl or v in br)
    return degree - on_base


# ---------------------------------------------------------------------------
# quadric-point singular loci (base lines crossed by other fix points)

class QuadricPointRow(NamedTuple):
    """Aggregated orbits of quadric fix-points on the base locus."""

    fix: tuple  # (left order, right order), display convention
    length: int
    number: int
    transversal_order: int

    def __repr__(self):
        a, b = self.fix
        return (f"QuadricPointRow(Z{a}xZ{b}, length={self.length}, "
                f"number={self.number})")


@lru_cache(maxsize=None)
def quadric_point_rows(label, degree):
    """Orbits of (pure fix point) x (base point) pairs on the quadric.

    These are the quadric points of the base-locus lines with extra
    stabilizer; the factor transversal to the base line drives the
    quotient singularity.
    """
    g = group(label)
    pg = pgroup(label)
    bl, br = base_points(degree)
    fixl = pure_fix_points(g, "left")
    fixr = pure_fix_points(g, "right")
    pts = {}
    for u, o in fixl.items():
        if u not in bl:
            for v in br:
                pts[(u, v)] = (o, fixr[v], o)  # (left, right, transversal)
    for v, o in fixr.items():
        if v not in br:
            for u in bl:
                pts[(u, v)] = (fixl[u], o, o)
    grouped = {}
    for orb in _point_pair_orbits(pg, pts):
        data = {pts[p] for p in orb}
        assert len(data) == 1, "mixed stabilizer data inside an orbit"
        left_o, right_o, trans_o = data.pop()
        key = (left_o, right_o, trans_o, len(orb))
        grouped[key] = grouped.get(key, 0) + 1
    rows = [
        QuadricPointRow((lo, ro), length, number, trans)
        for (lo, ro, trans, length), number in sorted(grouped.items())
    ]
    return tuple(rows)


# ---------------------------------------------------------------------------
# off-quadric singular loci (points on transversal fix-lines)

class OffQuadricRow(NamedTuple):
    type_tag: str
    order: int
    length: int  # |H_L| / |F_L|, the generic orbit length
    number: int

    def __repr__(self):
        return (f"OffQuadricRow({self.type_tag}, o={self.order}, "
                f"length={self.length}, number={self.number})")


@lru_cache(maxsize=None)
def offquadric_rows(label, degree):
    """Orbits of pencil base points sitting on transversal fix-lines.

    On a fix-line L the quotient group H_L / F_L acts freely away from
    the quadric, so the m base points off the quadric fall into
    m / |H_L/F_L| orbits, each contributing one A_{o(L)-1} point.
    """
    rows = []
    for fl in fixlines_table(label):
        m = points_off_quadric(fl.rep, degree)
        hbar = fl.ratio
        assert m % hbar == 0, "free action does not divide the base points"
        rows.append(OffQuadricRow(fl.type_tag, fl.order, hbar, m // hbar))
    return tuple(rows)


def nu1(label, degree):
    """Number of base-locus line orbits under the projective group."""
    return len(line_orbits(pgroup(label), base_locus(degree)))


def nu2(label, degree):
    return sum(
        r.number * (r.transversal_order - 1)
        for r in quadric_point_rows(label, degree)
    )


def nu3_smooth(label, degree):
    return sum(
        r.number * (r.order - 1) for r in offquadric_rows(label, degree)
    )
