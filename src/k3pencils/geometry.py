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

from functools import cache, wraps
from typing import NamedTuple

# the table is read as groups.binary_octahedral(), not imported by name:
# the benchmark tracer spans every function one module imports from
# another, which would put a span on each lookup
from . import groups
from .groups import AMBIENT, pgroup

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
    sort together as tuples.  The scans build them positionally
    (Line._make), equal and hashing as the keyword form.
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
    return Line._make(("ruling", side, pt, None))


def transversal_line(qp1, qp2):
    return Line._make(("transversal", None, None,
                       (qp1, qp2) if qp1 < qp2 else (qp2, qp1)))


def act_line(e, line):
    act = groups.binary_octahedral().act
    if line.kind == "ruling":
        m = e.a if line.side == "left" else e.b
        return ruling_line(line.side, act[m][line.point])
    P, Q = act[e.a], act[e.b]
    (u1, v1), (u2, v2) = line.qpoints
    return transversal_line((P[u1], Q[v1]), (P[u2], Q[v2]))


def _fixed_qpoints(elements):
    """Keys (quadric-point pairs) of the transversal lines the rotations
    fix pointwise, one per line and element that fixes it.

    Only an element with both factors nonscalar fixes a transversal
    line pointwise; a pure one (one factor +-1) fixes only the ruling
    lines through the eigenpoints of its other factor.  A 2-dimensional
    eigenspace of the 4x4 matrix exists for each pairing of the factor
    eigenvalues with equal products (equal exponent sums mod 24);
    involutions produce two such lines, elements of projective order 3
    or 4 exactly one (the other pairing leaves two isolated fixed
    points).  Each pair is sorted, as in transversal_line (u1 != u2).
    """
    items = groups.binary_octahedral().eig_items
    for a, b in elements:
        ep, eq = items[a], items[b]
        if ep is None or eq is None:
            continue
        (u1, l1), (u2, l2) = ep
        (v1, m1), (v2, m2) = eq
        if (l1 + m1 - l2 - m2) % 24 == 0:
            yield ((u1, v1), (u2, v2)) if u1 < u2 else ((u2, v2), (u1, v1))
        if (l1 + m2 - l2 - m1) % 24 == 0:
            yield ((u1, v2), (u2, v1)) if u1 < u2 else ((u2, v1), (u1, v2))


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
    table = groups.binary_octahedral()
    eig, order = table.eig, table.proj_order
    pts = {}
    for a, b in g:
        m, other = (a, b) if side == "left" else (b, a)
        o = order[m]
        if o > 1 and order[other] == 1:  # pure: only m acts
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
        # conjugate points have conjugate fixers: also under python -O
        if len(orders) != 1:
            raise ArithmeticError(f"{g.name} {side} ruling orbit of {orb[0]} "
                                  f"(length {len(orb)}): fixer orders "
                                  f"{sorted(orders)}, not one")
        table.setdefault(orders.pop(), []).append(len(orb))
    return {o: sorted(lengths) for o, lengths in sorted(table.items())}


@cache
def base_points(degree):
    """The n base points in each ruling (frozenset pair, left/right)."""
    amb = pgroup(AMBIENT[degree])
    sides = []
    for side in ("left", "right"):
        pts = pure_fix_points(amb, side)
        hits = [o for o in ruling_orbits(amb, side, pts)
                if len(o) == degree]
        if len(hits) != 1:
            raise ArithmeticError(f"{amb.name} {side} ruling: {len(hits)} "
                                  f"orbits of length {degree}, not one")
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
    """Orbits of the lines under pg, as orbit_partition orders them.

    Each kind of line (left ruling, right ruling, transversal) is walked
    on bare keys: a point, or the indices (u1, v1, u2, v2) of the sorted
    quadric points, moved by the generators' point permutations as in
    act_line; keys sort as their lines do.  An orbit holds the caller's
    own Line objects, and builds only the lines not among them.
    """
    act = groups.binary_octahedral().act
    perms = [(act[a], act[b]) for a, b in pg.generators]

    def transversal(key):
        u1, v1, u2, v2 = key
        out = []
        for P, Q in perms:
            x, y = P[u1], P[u2]  # u1 != u2, so x != y
            out.append((x, Q[v1], y, Q[v2]) if x < y
                       else (y, Q[v2], x, Q[v1]))
        return out

    moves = {"left": lambda p: [P[p] for P, _ in perms],
             "right": lambda p: [Q[p] for _, Q in perms],
             None: transversal}
    own = {}  # side -> {key: the caller's line}
    for ln in lines:
        key = ln.point if ln.side else ln.qpoints[0] + ln.qpoints[1]
        own.setdefault(ln.side, {}).setdefault(key, ln)
    orbits = []
    for side, by_key in own.items():
        for orb in orbit_partition(by_key, moves[side]):
            orbits.append([by_key[k] if k in by_key
                           else ruling_line(side, k) if side
                           else transversal_line(k[:2], k[2:]) for k in orb])
    orbits.sort(key=lambda o: (len(o), o[0]))
    return orbits


def stabilizer(pg, line):
    """H_L: elements mapping the line to itself."""
    return [e for e in pg if act_line(e, line) == line]


def fix_group(pg, line):
    """F_L: elements fixing the line pointwise, in the order of pg.

    Read off the eigen table by index, with no line built.  (P, Q)
    fixes the ruling line {p} x P^1 pointwise when Q is +-1 (else it
    moves the line's points) and P is +-1 or fixes p; likewise on the
    right.  A transversal line is spanned by its quadric points (u1, v1)
    and (u2, v2), u1 != u2, v1 != v2.  It is fixed pointwise when both
    lie in one eigenspace of the 4x4: P fixes u1, u2, Q fixes v1, v2 and
    the exponent sums there agree mod 24; or when e is projectively
    trivial.  A pure element fixes no transversal line.
    """
    if line.kind == "ruling":
        p, left = line.point, line.side == "left"

        def fixes(ep, eq):
            this, other = (ep, eq) if left else (eq, ep)
            return other is None and (this is None or p in this)
    else:
        (u1, v1), (u2, v2) = line.qpoints

        def fixes(ep, eq):
            if ep is None or eq is None:
                return ep is None and eq is None
            return (u1 in ep and u2 in ep and v1 in eq and v2 in eq
                    and (ep[u1] + eq[v1] - ep[u2] - eq[v2]) % 24 == 0)
    eig = groups.binary_octahedral().eig
    return [e for e in pg if fixes(eig[e.a], eig[e.b])]


def line_inventory(pg):
    """All transversal fix-lines of the group, sorted, each built once."""
    keys = sorted(set(_fixed_qpoints(pg)))
    return [Line._make(("transversal", None, None, qpoints))
            for qpoints in keys]


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


@cache
def fixlines_table(label):
    pg = pgroup(label)
    rows = []
    for orb in line_orbits(pg, line_inventory(pg)):
        rep = orb[0]
        stab = stabilizer(pg, rep)
        fix = fix_group(pg, rep)
        # also under python -O: stabilizer and fix_group share no code
        row = f"{label} fix-line row {rep.key} (orbit {len(orb)})"
        if len(orb) * len(stab) != pg.order():
            raise ArithmeticError(f"{row}: orbit x |H_L| = {len(orb)} x "
                                  f"{len(stab)}, not |PG| = {pg.order()}")
        in_stab = {e.proj_key() for e in stab}
        if any(e.proj_key() not in in_stab for e in fix):
            raise ArithmeticError(f"{row}: F_L is not inside H_L")
        order = max(e.proj_order() for e in fix if not e.is_proj_trivial())
        rows.append(FixLineOrbit(ORDER_TAGS[order], len(orb), len(fix),
                                 len(stab), rep, order))
    rows.sort(key=lambda r: (r.order, r.length))
    return tuple(rows)


# ---------------------------------------------------------------------------
# meeting points of ruling lines

def meeting_point_orbits(pg, left_lines, right_lines):
    """Orbit-length multiset of pairwise intersections of ruling lines."""
    for side, lines in (("left", left_lines), ("right", right_lines)):
        if any(ln.side != side for ln in lines):  # transversal: side None
            raise ValueError(f"{side}_lines must be {side}-ruling lines")
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

def _per_pencil(fn):
    """fn(surface) cached once per (label, degree).

    The value depends on the surface's pencil only, so the five members
    of one pencil share one entry, the smooth member's; cache_info
    reports on that cache.
    """
    cached = cache(fn)

    @wraps(fn)
    def on_pencil(surface):
        return cached(surface._replace(fiber=None))

    on_pencil.cache_info = cached.cache_info
    return on_pencil


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


@_per_pencil
def quadric_point_rows(surface):
    """Orbits of (pure fix point) x (base point) pairs on the quadric.

    These are the quadric points of the base-locus lines with extra
    stabilizer; the factor transversal to the base line drives the
    quotient singularity.  The base lines are those of the pencil of
    the surface's degree; its fiber plays no part.
    """
    pg = pgroup(surface.label)
    bl, br = base_points(surface.degree)
    fixl = pure_fix_points(pg, "left")
    fixr = pure_fix_points(pg, "right")
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
        if len(data) != 1:
            raise ArithmeticError(f"{pg.name} quadric point orbit of {orb[0]} "
                                  f"(length {len(orb)}): stabilizer data "
                                  f"{sorted(data)}, not one")
        left_o, right_o, trans_o = data.pop()
        key = (left_o, right_o, trans_o, len(orb))
        grouped[key] = grouped.get(key, 0) + 1
    rows = [
        QuadricPointRow((lo, ro), length, number, trans)
        for (lo, ro, trans, length), number in sorted(grouped.items())
    ]
    return tuple(rows)


@_per_pencil
def nu1(surface):
    """Number of base-locus line orbits under the projective group."""
    return len(line_orbits(pgroup(surface.label), base_locus(surface.degree)))


def nu2(surface):
    return sum(r.number * (r.transversal_order - 1)
               for r in quadric_point_rows(surface))

