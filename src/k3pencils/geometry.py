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

Lines are keyed by canonical Pluecker coordinates, so equality of
lines is equality of keys no matter how they were produced.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import (
    ONE,
    ZERO,
    _rref,
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


def pluecker(a, b):
    """Canonical Pluecker 6-vector of the line through a and b."""
    p = []
    for i in range(4):
        for j in range(i + 1, 4):
            p.append(a[i] * b[j] - a[j] * b[i])
    for x in p:
        if not x.is_zero():
            inv = x.inv()
            return tuple(inv * y for y in p)
    raise ValueError("points do not span a line")


def pluecker_relation(p):
    return (p[0] * p[5] - p[1] * p[4] + p[2] * p[3]).is_zero()


class Line:
    """A line in P^3, canonical under its Pluecker key."""

    __slots__ = ("kind", "side", "point", "qpoints", "basis", "key",
                 "type_tag")

    def __init__(self, kind, basis, side=None, point=None, qpoints=None,
                 type_tag=None):
        self.kind = kind
        rows, pivots = _rref(basis)
        if len(pivots) != 2:
            raise ValueError("line basis is degenerate")
        self.basis = tuple(rows)
        self.key = pluecker(*self.basis)
        assert pluecker_relation(self.key)
        self.side = side
        self.point = point
        self.qpoints = qpoints
        self.type_tag = type_tag

    def __eq__(self, other):
        return self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        if self.kind == "ruling":
            return f"Line(ruling {self.side}, {self.point})"
        return f"Line(transversal {self.type_tag}, {self.qpoints})"


def ruling_line(side, pt):
    e0, e1 = (ONE, ZERO), (ZERO, ONE)
    if side == "left":
        basis = (quadric_point(pt, e0), quadric_point(pt, e1))
    else:
        basis = (quadric_point(e0, pt), quadric_point(e1, pt))
    return Line("ruling", basis, side=side, point=pt)


def transversal_line(qp1, qp2, type_tag=None):
    qps = tuple(sorted((qp1, qp2), key=flat_key))
    basis = (quadric_point(*qps[0]), quadric_point(*qps[1]))
    return Line("transversal", basis, qpoints=qps, type_tag=type_tag)


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
        type_tag=line.type_tag,
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
    tag = ORDER_TAGS.get(e.proj_order())
    if sq is not None:
        return [ruling_line("left", u) for _, u in eig2_cached(e.P)]
    if sp is not None:
        return [ruling_line("right", v) for _, v in eig2_cached(e.Q)]
    (l1, u1), (l2, u2) = eig2_cached(e.P)
    (m1, v1), (m2, v2) = eig2_cached(e.Q)
    out = []
    if l1 * m1 == l2 * m2:
        out.append(transversal_line((u1, v1), (u2, v2), type_tag=tag))
    if l1 * m2 == l2 * m1:
        out.append(transversal_line((u1, v2), (u2, v1), type_tag=tag))
    return out


# ---------------------------------------------------------------------------
# ruling actions and their fixed points

class RulingAction:
    """The Moebius action of one side of a group on its P^1."""

    def __init__(self, g, side):
        self.side = side
        mats = []
        seen = set()
        for e in g.generators:
            m = canon2(e.P if side == "left" else e.Q)
            if m not in seen:
                seen.add(m)
                mats.append(m)
        self.mats = tuple(mats)

    def orbit(self, pt):
        orb = {pt}
        frontier = [pt]
        while frontier:
            x = frontier.pop()
            for m in self.mats:
                y = act_point(m, x)
                if y not in orb:
                    orb.add(y)
                    frontier.append(y)
        return orb

    def orbits(self, points):
        pending = set(points)
        out = []
        while pending:
            orb = self.orbit(pending.pop())
            pending -= orb
            out.append(orb)
        out.sort(key=lambda o: (len(o), min(flat_key(p) for p in o)))
        return out


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
    action = RulingAction(g, side)
    table = {}
    for orb in action.orbits(pts):
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
        orbits = RulingAction(amb, side).orbits(pts)
        hits = [o for o in orbits if len(o) == degree]
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
    index = {ln.key: ln for ln in lines}
    pending = set(index)
    orbits = []
    while pending:
        key = pending.pop()
        orb = {key: index[key]}
        frontier = [index[key]]
        while frontier:
            ln = frontier.pop()
            for e in pg.generators:
                img = act_line(e, ln)
                if img.key not in orb:
                    orb[img.key] = img
                    frontier.append(img)
        pending -= orb.keys()
        orbits.append(sorted(orb.values(), key=lambda x: flat_key(x.key)))
    orbits.sort(key=lambda o: (len(o), flat_key(o[0].key)))
    return orbits


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
    lines = {}
    for e in pg:
        if scalar_of(e.P) is None and scalar_of(e.Q) is None:
            for ln in fix_lines(e):
                lines.setdefault(ln.key, ln)
    return sorted(lines.values(), key=lambda x: flat_key(x.key))


class FixLineOrbit:
    """One row of a fix-line table: an orbit with its local data."""

    __slots__ = ("type_tag", "length", "fix_order", "stab_order", "rep",
                 "order")

    def __init__(self, type_tag, length, fix_order, stab_order, rep, order):
        self.type_tag = type_tag
        self.length = length
        self.fix_order = fix_order
        self.stab_order = stab_order
        self.rep = rep
        self.order = order

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
        tag = ORDER_TAGS[order]
        rep.type_tag = tag
        rows.append(FixLineOrbit(tag, len(orb), len(fix), len(stab), rep,
                                 order))
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
    pending = set(points)
    orbits = []
    while pending:
        start = pending.pop()
        orb = {start}
        frontier = [start]
        while frontier:
            u, v = frontier.pop()
            for e in pg.generators:
                img = (act_point(e.P, u), act_point(e.Q, v))
                if img not in orb:
                    orb.add(img)
                    frontier.append(img)
        pending -= orb
        orbits.append(orb)
    orbits.sort(key=lambda o: (len(o), min(flat_key(p) for p in o)))
    return orbits


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

class QuadricPointRow:
    """Aggregated orbits of quadric fix-points on the base locus."""

    __slots__ = ("fix", "length", "number", "transversal_order")

    def __init__(self, fix, length, number, transversal_order):
        self.fix = fix  # (left order, right order), display convention
        self.length = length
        self.number = number
        self.transversal_order = transversal_order

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

class OffQuadricRow:
    __slots__ = ("type_tag", "order", "length", "number")

    def __init__(self, type_tag, order, length, number):
        self.type_tag = type_tag
        self.order = order
        self.length = length  # |H_L| / |F_L|, the generic orbit length
        self.number = number

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
