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
points where it meets the quadric.  Equality of lines is equality of
keys no matter how they were produced.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .algebra import (
    eig2,
    mat_vec,
    normalize_point,
    normalize_vec4,
    quat_of_su2,
    scalar_of,
)
from .groups import AMBIENT, canon2, flat_key, group, pgroup

ORDER_TAGS = {2: "M", 3: "N", 4: "R"}


def quadric_point(u, v):
    """Point of P^3 sitting at (u, v) on the quadric."""
    m = ((u[0] * v[0], u[0] * v[1]), (u[1] * v[0], u[1] * v[1]))
    return normalize_vec4(quat_of_su2(m))


def orbit_partition(seeds, images, key):
    """Orbits through seeds, under generators mapping x to images(x).

    Each orbit is a list sorted by key; the orbits come ordered by
    (length, key of the first member).
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
        orbits.append(sorted(orb, key=key))
    orbits.sort(key=lambda o: (len(o), key(o[0])))
    return orbits


class Line(NamedTuple):
    """A ruling line (side, point) or a transversal line (qpoints).

    qpoints is the pair of quadric points (u, v) on the line, sorted,
    so that the fields are canonical and equality is that of keys.
    """

    kind: str
    side: str | None = None
    point: tuple | None = None
    qpoints: tuple | None = None

    @property
    def key(self):
        """("ruling", side, point) or ("transversal", qpoints)."""
        if self.kind == "ruling":
            return ("ruling", self.side, self.point)
        return ("transversal", self.qpoints)

    def sort_key(self):
        """One total order on lines of both kinds."""
        pin = self.point if self.kind == "ruling" else self.qpoints
        return (self.kind, self.side or "", flat_key(pin))


def ruling_line(side, pt):
    return Line("ruling", side=side, point=pt)


def transversal_line(qp1, qp2):
    return Line("transversal",
                qpoints=tuple(sorted((qp1, qp2), key=flat_key)))


_EIG_CACHE = {}


def eig2_cached(m):
    if m not in _EIG_CACHE:
        _EIG_CACHE[m] = eig2(m)
    return _EIG_CACHE[m]


def act_point(m, pt):
    return normalize_point(mat_vec(m, pt))


def act_line(e, line):
    if line.kind == "ruling":
        m = e.P if line.side == "left" else e.Q
        return ruling_line(line.side, act_point(m, line.point))
    (u1, v1), (u2, v2) = line.qpoints
    return transversal_line(
        (act_point(e.P, u1), act_point(e.Q, v1)),
        (act_point(e.P, u2), act_point(e.Q, v2)),
    )


def fix_lines(e):
    """Lines fixed pointwise (projectively) by a rotation.

    Pure elements fix the two ruling lines through the eigenpoints of
    their nonscalar factor.  For the rest, a 2-dimensional eigenspace
    of the 4x4 matrix exists for each pairing of the factor eigenvalues
    with equal products; involutions produce two such lines, elements
    of projective order 3 or 4 exactly one (the other pairing leaves
    two isolated fixed points).
    """
    sp, sq = scalar_of(e.P), scalar_of(e.Q)
    if sp is not None and sq is not None:
        raise ValueError("projectively trivial element fixes all of P^3")
    if sq is not None:
        return [ruling_line("left", u) for _, u in eig2_cached(e.P)]
    if sp is not None:
        return [ruling_line("right", v) for _, v in eig2_cached(e.Q)]
    (l1, u1), (l2, u2) = eig2_cached(e.P)
    (m1, v1), (m2, v2) = eig2_cached(e.Q)
    out = []
    if l1 * m1 == l2 * m2:
        out.append(transversal_line((u1, v1), (u2, v2)))
    if l1 * m2 == l2 * m1:
        out.append(transversal_line((u1, v2), (u2, v1)))
    return out


# ---------------------------------------------------------------------------
# ruling actions and their fixed points

def ruling_orbits(g, side, points):
    """Orbits of points of one ruling under that side of g."""
    mats = {canon2(e.P if side == "left" else e.Q) for e in g.generators}
    return orbit_partition(
        points, lambda pt: [act_point(m, pt) for m in mats], flat_key)


def pure_fix_points(g, side):
    """Fixed points on one ruling from the pure elements of g.

    Returns {point: projective order of the largest pure element fixing
    it}; these are the points whose ruling lines are fixed by g-elements
    acting trivially on the other ruling.
    """
    pts = {}
    for e in g:
        sp, sq = scalar_of(e.P), scalar_of(e.Q)
        if side == "left":
            pure, m = (sq is not None and sp is None), e.P
        else:
            pure, m = (sp is not None and sq is None), e.Q
        if pure:
            o = e.proj_order()
            for _, pt in eig2_cached(m):
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
    lines = [ruling_line("left", p) for p in sorted(left, key=flat_key)]
    lines += [ruling_line("right", p) for p in sorted(right, key=flat_key)]
    return lines


# ---------------------------------------------------------------------------
# line orbits, stabilizers, fix-groups

def line_orbits(pg, lines):
    return orbit_partition(
        lines, lambda ln: [act_line(e, ln) for e in pg.generators],
        Line.sort_key)


def _proj_eq2(a, b):
    return (a[0] * b[1] - a[1] * b[0]).is_zero()


def _stabilizes(e, line):
    # setwise test without canonicalization: a ruling line is pinned by
    # its P^1 point, a transversal line by its two quadric points
    if line.kind == "ruling":
        m = e.P if line.side == "left" else e.Q
        return _proj_eq2(mat_vec(m, line.point), line.point)
    (u1, v1), (u2, v2) = line.qpoints
    a1, b1 = mat_vec(e.P, u1), mat_vec(e.Q, v1)
    a2, b2 = mat_vec(e.P, u2), mat_vec(e.Q, v2)
    if _proj_eq2(a1, u1) and _proj_eq2(b1, v1):
        return _proj_eq2(a2, u2) and _proj_eq2(b2, v2)
    if _proj_eq2(a1, u2) and _proj_eq2(b1, v2):
        return _proj_eq2(a2, u1) and _proj_eq2(b2, v1)
    return False


def stabilizer(pg, line):
    """H_L: elements mapping the line to itself."""
    return [e for e in pg if _stabilizes(e, line)]


def _eigval_at(m, pt):
    w = mat_vec(m, pt)
    if not (w[0] * pt[1] - w[1] * pt[0]).is_zero():
        return None
    return w[0] / pt[0] if not pt[0].is_zero() else w[1] / pt[1]


def fixes_pointwise(e, line):
    if e.is_proj_trivial():
        return True
    if line.kind == "ruling":
        if line.side == "left":
            return (scalar_of(e.Q) is not None
                    and _eigval_at(e.P, line.point) is not None)
        return (scalar_of(e.P) is not None
                and _eigval_at(e.Q, line.point) is not None)
    (u1, v1), (u2, v2) = line.qpoints
    l1 = _eigval_at(e.P, u1)
    r1 = _eigval_at(e.Q, v1)
    l2 = _eigval_at(e.P, u2)
    r2 = _eigval_at(e.Q, v2)
    if l1 is None or r1 is None or l2 is None or r2 is None:
        return False
    # the 4x4 acts on the two quadric points by the eigenvalue products;
    # the line is pointwise fixed iff these agree
    return l1 * r1 == l2 * r2


def fix_group(pg, line):
    """F_L: elements fixing the line pointwise."""
    return [e for e in pg if fixes_pointwise(e, line)]


def line_inventory(pg):
    """All transversal fix-lines of the group, deduplicated."""
    lines = set()
    for e in pg:
        if scalar_of(e.P) is None and scalar_of(e.Q) is None:
            lines.update(fix_lines(e))
    return sorted(lines, key=Line.sort_key)


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
    def images(uv):
        u, v = uv
        return [(act_point(e.P, u), act_point(e.Q, v)) for e in pg.generators]
    return orbit_partition(points, images, flat_key)


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
