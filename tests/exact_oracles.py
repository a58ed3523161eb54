"""Exact helpers that only the tests use, kept out of the package.

Field constants, matrix and group operations that serve as oracles for
the table-driven code in k3pencils, or as checks the report does not
need: matrix-vector products, scaling, determinants, eigenspaces, SU(2)
inverses, the breadth-first group closure, normality, conjugation (by a
rotation or by the factor-swapping reflection) and conjugacy classes.
The lines an element fixes are enumerated from the package's key rule;
fix groups, line inventories and line orbits are found again from them
and from act_line, and field inverses from all seven Galois conjugates.
The lattice oracles redo integer determinants and overlattice Gram
matrices in Fraction arithmetic, and Smith forms from gcds of minors.
"""

import itertools
import math
from fractions import Fraction

from k3pencils.algebra import (
    ONE,
    Q1,
    Q2,
    ROOTS24,
    ZERO,
    Cyc,
    mat2_conj,
    mat_identity,
    nullspace,
    quat_mul,
)
from k3pencils.geometry import (
    _fixed_qpoints,
    act_line,
    orbit_partition,
    ruling_line,
    transversal_line,
)
from k3pencils.groups import (
    Element,
    ProjectiveGroup,
    binary_octahedral,
    generate_group,
    is_subgroup,
)

SQRT3 = Cyc.zeta(2) + Cyc.zeta(22)
OMEGA = Cyc.zeta(8)  # primitive cube root of unity
Q3 = quat_mul(Q1, Q2)  # k

# quaternion-coordinate reflection diag(1,-1,-1,-1); conjugating by it
# swaps the two factors of a rotation pair (it is not itself a rotation,
# so it has no pair representation)
C_SWAP = tuple(
    tuple(
        Cyc.from_int(1 if i == j == 0 else (-1 if i == j else 0))
        for j in range(4)
    )
    for i in range(4)
)


def mat_vec(a, v):
    out = []
    for row in a:
        acc = ZERO
        for x, y in zip(row, v):
            acc = acc + x * y
        out.append(acc)
    return tuple(out)


def mat_scale(a, c):
    return tuple(tuple(c * x for x in row) for row in a)


def mat_det(a):
    n = len(a)
    rows = [list(r) for r in a]
    det = ONE
    for c in range(n):
        pr = next((i for i in range(c, n) if not rows[i][c].is_zero()), None)
        if pr is None:
            return ZERO
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            det = -det
        det = det * rows[c][c]
        inv = rows[c][c].inv()
        for i in range(c + 1, n):
            if not rows[i][c].is_zero():
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det


def eigenspaces(m):
    """Eigenvalue -> eigenspace basis, scanning the 24th roots of unity.

    Only valid for finite-order matrices (all of ours); raises if the
    eigenvalues found do not span.
    """
    n = len(m)
    out = []
    total = 0
    for lam in ROOTS24:
        scalar = mat_scale(mat_identity(n), lam)
        shifted = tuple(tuple(x - y for x, y in zip(ra, rb))
                        for ra, rb in zip(m, scalar))
        basis = nullspace(shifted)
        if basis:
            out.append((lam, basis))
            total += len(basis)
        if total == n:
            break
    if total != n:
        raise ValueError("eigenvalue outside mu_24")
    return out


def fraction_det(m):
    """Determinant of a square integer matrix by Fraction elimination."""
    rows = [[Fraction(x) for x in r] for r in m]
    n = len(rows)
    det = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if rows[i][c]), None)
        if pr is None:
            return 0
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            det = -det
        det *= rows[c][c]
        for i in range(c + 1, n):
            f = rows[i][c] / rows[c][c]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    assert det.denominator == 1
    return int(det)


def determinantal_divisors(m):
    """Invariant factors s_k = d_k / d_(k-1) of an integer matrix.

    d_k is the gcd of all k x k minors (d_0 = 1).  Once d_k is 0 every
    later one is too; those factors are 0, so the list has length
    min(rows, cols), like smith_normal_form.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    size = min(rows, cols)
    out = []
    prev = 1
    for k in range(1, size + 1):
        d = 0
        for r in itertools.combinations(range(rows), k):
            for c in itertools.combinations(range(cols), k):
                d = math.gcd(d, fraction_det([[m[i][j] for j in c]
                                              for i in r]))
        if d == 0:
            break
        out.append(d // prev)
        prev = d
    return out + [0] * (size - len(out))


def fraction_overlattice_gram(gram, basis, p):
    """B G B^T / p^2 by dense products, as nested lists of Fractions."""
    n = len(gram)
    bg = [[sum(row[k] * gram[k][j] for k in range(n)) for j in range(n)]
          for row in basis]
    return [[Fraction(sum(x * y for x, y in zip(line, col)), p * p)
             for col in basis] for line in bg]


def su2_inv(m):
    # determinant-1 shortcut
    (a, b), (c, d) = m
    return ((d, -b), (-c, a))


def swap(e):
    """Conjugate by C_SWAP: exchanges the two ruling factors."""
    t = binary_octahedral()
    return Element(t.index[mat2_conj(t.mats[e.b])],
                   t.index[mat2_conj(t.mats[e.a])])


def bfs_closure(generators):
    """Index pairs of the group generated by Elements, breadth-first.

    Every element times every generator, |G| x |gens| products: the
    reference for the coset closure of generate_group.
    """
    table = binary_octahedral()
    mul, neg = table.mul, table.neg
    seen = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        new = []
        for a, b in frontier:
            for c, d in generators:
                x, y = mul[a][c], mul[b][d]
                if neg[x] < x:
                    x, y = neg[x], neg[y]
                if (x, y) not in seen:
                    seen.add((x, y))
                    new.append((x, y))
        frontier = new
    return seen


def inverse_by_all_conjugates(x):
    """1 / x as (product of the 7 nontrivial conjugates) / field norm:
    the reference for the tower inverse of Cyc.inv."""
    if x.is_zero():
        raise ZeroDivisionError("division by zero in Q(zeta_24)")
    prod = ONE
    for t in (5, 7, 11, 13, 17, 19, 23):
        prod = prod * x.galois(t)
    norm = x * prod
    assert norm.is_rational(), "norm must be rational"
    return Cyc(tuple(c * norm.den for c in prod.num), prod.den * norm.num[0])


def fix_lines(e):
    """Lines fixed pointwise (projectively) by a rotation.

    Pure elements fix the two ruling lines through the eigenpoints of
    their nonscalar factor; the others the transversal lines of
    geometry's key rule.
    """
    eig = binary_octahedral().eig
    ep, eq = eig[e.a], eig[e.b]
    if eq is None:
        if ep is None:
            raise ValueError("projectively trivial element fixes all of P^3")
        return [ruling_line("left", u) for u in ep]
    if ep is None:
        return [ruling_line("right", v) for v in eq]
    return [transversal_line(*qpoints) for qpoints in _fixed_qpoints([e])]


def inventory_by_fix_lines(pg):
    """The union of fix_lines over pg, transversal lines only: the
    reference for geometry.line_inventory."""
    lines = {ln for e in pg if not e.is_proj_trivial() for ln in fix_lines(e)}
    return sorted(ln for ln in lines if ln.kind == "transversal")


def orbits_by_act_line(pg, lines):
    """Line orbits walked with act_line, a Line built per image: the
    reference for geometry.line_orbits."""
    return orbit_partition(
        lines, lambda ln: [act_line(e, ln) for e in pg.generators])


def fix_group_by_lines(pg, line):
    """F_L as the elements among whose fix-lines the line is: the
    reference for the eigen-table test of geometry.fix_group."""
    return [e for e in pg if e.is_proj_trivial() or line in fix_lines(e)]


def is_normal(h, g):
    if not is_subgroup(h, g):
        return False
    for c in g.generators:
        cinv = c.inv()
        for e in h:
            if c * e * cinv not in h:
                return False
    return True


def conjugate_group(g, c):
    """Conjugate a group: c may be an Element or the C_SWAP reflection."""
    if isinstance(c, Element):
        cinv = c.inv()
        gens = [c * e * cinv for e in g.generators]
    elif c == C_SWAP:
        gens = [swap(e) for e in g.generators]
    else:
        raise ValueError("conjugator must be a rotation Element or C_SWAP")
    out = generate_group(g.name + "^c", gens)
    assert out.order() == g.order()
    return out


def conjugacy_classes(g):
    """Partition into conjugacy classes (works projectively too)."""
    if isinstance(g, ProjectiveGroup):
        keys = set(g.reps)
        lookup = g.reps
        all_elems = list(g.reps.values())
        classes = []
        while keys:
            k = keys.pop()
            orbit = {k}
            e = lookup[k]
            for x in all_elems:
                ck = (x * e * x.inv()).proj_key()
                orbit.add(ck)
            keys -= orbit
            classes.append(sorted(orbit))
        classes.sort(key=lambda cl: (len(cl), cl[0]))
        return classes
    pool = set(g.elements)
    all_elems = list(g.elements)
    classes = []
    while pool:
        e = pool.pop()
        orbit = {e}
        for x in all_elems:
            orbit.add(x * e * x.inv())
        pool -= orbit
        classes.append(orbit)
    classes.sort(key=len)
    return classes
