"""Finite rotation groups as index pairs into one exact table of 2O.

A rotation x -> p x qbar of the quaternion algebra is the pair (P, Q)
with P the 2x2 image of p and Q the entrywise conjugate of the image
of q, up to a joint sign.  Every such factor here lies in the binary
octahedral group 2O; binary_octahedral() tabulates its 48 matrices and
their action on the 26 special points of P^1 once, exactly, on first
use.  An Element is a pair of indices into that table, so products and
inverses are lookups; its matrices and 4x4 rotation are read back.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from math import gcd, lcm
from typing import NamedTuple

from .algebra import (
    P3,
    P4,
    Q1,
    Q2,
    QUAT_ONE,
    ROOTS24,
    Cyc,
    eig2,
    mat2_conj,
    mat4_of_pair,
    mat_identity,
    mat_mul,
    mat_vec,
    normalize_point,
    quat_mul,
    su2_of_quat,
)

ID2 = mat_identity(2)

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


class OctahedralTable(NamedTuple):
    """2O and its action on P^1, indexed by small ints.

    mats[0] is the identity; mul, inv, neg and conj are the product,
    inverse, sign flip and mat2_conj on indices.  points are the 26
    eigenpoints in flat_key order, so index tuples sort as coordinate
    tuples do; act[a][p] is the image of point p under mats[a].  eig[a]
    maps the fixed points of a nonscalar mats[a], in increasing k, to
    the exponent k of its eigenvalue zeta_24^k there; None for +-1.
    """

    mats: tuple
    index: dict
    mul: tuple
    inv: tuple
    neg: tuple
    conj: tuple
    points: tuple
    act: tuple
    eig: tuple


@cache
def binary_octahedral():
    """Build the table from the generator factors of the seven groups.

    Left products by the generators close up to 2O along a spanning
    tree (each element a generator times its parent); the product table
    and point permutations follow from those of the generators.
    """
    gens = sorted({m for pairs in _GENERATOR_PAIRS.values()
                   for p, q in pairs
                   for m in (su2_of_quat(p), mat2_conj(su2_of_quat(q)))}
                  - {ID2}, key=flat_key)
    mats, index, tree = [ID2], {ID2: 0}, [None]
    left = [[] for _ in gens]
    for x, m in enumerate(mats):  # mats grows while it is scanned
        for j, g in enumerate(gens):
            y = mat_mul(g, m)
            if y not in index:
                index[y] = len(mats)
                mats.append(y)
                tree.append((x, j))
            left[j].append(index[y])
    eigs = [eig2(m) for m in mats]
    points = sorted({v for e in eigs if e for _, v in e}, key=flat_key)
    at = {v: i for i, v in enumerate(points)}
    exponent = {lam: k for k, lam in enumerate(ROOTS24)}

    def along_tree(perms, n):
        rows = [tuple(range(n))]
        for parent, j in tree[1:]:
            rows.append(tuple(perms[j][v] for v in rows[parent]))
        return tuple(rows)

    mul = along_tree(left, len(mats))
    minus = index[tuple(tuple(-c for c in r) for r in ID2)]
    return OctahedralTable(
        mats=tuple(mats),
        index=index,
        mul=mul,
        inv=tuple(row.index(0) for row in mul),
        neg=tuple(row[minus] for row in mul),
        conj=tuple(index[mat2_conj(m)] for m in mats),
        points=tuple(points),
        act=along_tree([[at[normalize_point(mat_vec(g, v))]
                         for v in points] for g in gens], len(points)),
        eig=tuple(e and {at[v]: exponent[lam] for lam, v in e}
                  for e in eigs),
    )


def point_coords(p):
    """P^1 coordinates (first nonzero one is 1) of special point p."""
    return binary_octahedral().points[p]


class Element(namedtuple("Element", "a b")):
    """A rotation as an index pair (a, b) into binary_octahedral().

    The pair is canonical under the joint sign (a, b) ~ (-a, -b): a is
    the smaller of a and its negative.
    """

    __slots__ = ()

    def __new__(cls, a, b):
        neg = binary_octahedral().neg
        if neg[a] < a:
            a, b = neg[a], neg[b]
        return super().__new__(cls, a, b)

    @classmethod
    def from_quats(cls, p, q):
        index = binary_octahedral().index
        try:
            return cls(index[su2_of_quat(p)],
                       index[mat2_conj(su2_of_quat(q))])
        except KeyError:
            raise ValueError("rotation factor outside the binary"
                             " octahedral group") from None

    @classmethod
    def identity(cls):
        return cls(0, 0)

    @property
    def P(self):
        return binary_octahedral().mats[self.a]

    @property
    def Q(self):
        return binary_octahedral().mats[self.b]

    def __mul__(self, other):
        mul = binary_octahedral().mul
        return Element(mul[self.a][other.a], mul[self.b][other.b])

    def inv(self):
        inv = binary_octahedral().inv
        return Element(inv[self.a], inv[self.b])

    def matrix4(self):
        return mat4_of_pair(self.P, self.Q)

    def proj_key(self):
        """Canonical key modulo scalars of P^3 (signs flip independently)."""
        neg = binary_octahedral().neg
        return (min(self.a, neg[self.a]), min(self.b, neg[self.b]))

    def swap(self):
        """Conjugate by C_SWAP: exchanges the two ruling factors."""
        conj = binary_octahedral().conj
        return Element(conj[self.b], conj[self.a])

    def is_identity(self):
        return self.a == self.b == 0

    def is_proj_trivial(self):
        eig = binary_octahedral().eig
        return eig[self.a] is None and eig[self.b] is None

    def order(self):
        acc = self
        for n in range(1, 25):
            if acc.is_identity():
                return n
            acc = acc * self
        raise AssertionError("rotation order exceeds 24")

    def proj_order(self):
        # a nonscalar factor with eigenvalues zeta_24^(+-k) turns P^1
        # by zeta_24^(2k), of order 24 / gcd(24, 2k)
        eig = binary_octahedral().eig
        return lcm(*(24 // gcd(24, 2 * next(iter(eig[x].values())))
                     if eig[x] else 1 for x in (self.a, self.b)))


class Group:
    def __init__(self, name, generators, elements):
        self.name = name
        self.generators = tuple(generators)
        self.elements = frozenset(elements)

    def order(self):
        return len(self.elements)

    def __contains__(self, e):
        return e in self.elements

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self):
        return f"Group({self.name!r}, order={self.order()})"


def generate_group(name, generators, cap=10000):
    """Close a generator list under multiplication (breadth-first)."""
    gens = [g if isinstance(g, Element) else Element.from_quats(*g)
            for g in generators]
    table = binary_octahedral()
    mul, neg = table.mul, table.neg
    seen = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        new = []
        for a, b in frontier:
            for c, d in gens:
                x, y = mul[a][c], mul[b][d]
                if neg[x] < x:
                    x, y = neg[x], neg[y]
                if (x, y) not in seen:
                    seen.add((x, y))
                    new.append((x, y))
                    if len(seen) > cap:
                        raise ValueError("group too large or not finite")
        frontier = new
    return Group(name, gens, (Element(a, b) for a, b in seen))


class ProjectiveGroup:
    """Image of a Group in PGL_2 x PGL_2 (= the action on P^1 x P^1)."""

    def __init__(self, name, reps, generators):
        self.name = name
        self.reps = reps  # proj_key -> representative Element
        self.generators = tuple(generators)

    def order(self):
        return len(self.reps)

    def __contains__(self, e):
        return e.proj_key() in self.reps

    def __iter__(self):
        return iter(self.reps.values())

    def __repr__(self):
        return f"ProjectiveGroup({self.name!r}, order={self.order()})"


def projectivize(g):
    reps = {}
    for e in g:
        reps.setdefault(e.proj_key(), e)
    return ProjectiveGroup(g.name, reps, [reps[x.proj_key()] for x in g.generators])


def is_subgroup(h, g):
    return all(e in g for e in h)


def is_normal(h, g):
    if not is_subgroup(h, g):
        return False
    for c in g.generators:
        cinv = c.inv()
        for e in h:
            if c * e * cinv not in h:
                return False
    return True


def index(h, g):
    if not is_subgroup(h, g):
        raise ValueError(f"{h.name} is not a subgroup of {g.name}")
    # Lagrange: an internal invariant once h is a subgroup, not a check
    # on user input, so python -O may strip it
    assert g.order() % h.order() == 0
    return g.order() // h.order()


def conjugate_group(g, c):
    """Conjugate a group: c may be an Element or the C_SWAP reflection."""
    if isinstance(c, Element):
        cinv = c.inv()
        gens = [c * e * cinv for e in g.generators]
    elif c == C_SWAP:
        gens = [e.swap() for e in g.generators]
    else:
        raise ValueError("conjugator must be a rotation Element or C_SWAP")
    out = generate_group(g.name + "^c", gens, cap=2 * g.order())
    assert out.order() == g.order()
    return out


def flat_key(key):
    # flatten nested Cyc structures into plain int tuples, for sorting
    if isinstance(key, Cyc):
        return (key.num, key.den)
    return tuple(flat_key(x) for x in key)


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


# ---------------------------------------------------------------------------
# the seven named groups

P4Q2 = quat_mul(P4, Q2)

_GENERATOR_PAIRS = {
    # degree-6 quotient groups, inside the left-right tetrahedral product
    "TxV": [(Q1, QUAT_ONE), (QUAT_ONE, Q1), (QUAT_ONE, Q2), (P3, QUAT_ONE)],
    "TT1": [(Q1, QUAT_ONE), (QUAT_ONE, Q1), (Q2, QUAT_ONE), (QUAT_ONE, Q2),
            (P3, P3)],
    "VxV": [(Q1, QUAT_ONE), (QUAT_ONE, Q1), (Q2, QUAT_ONE), (QUAT_ONE, Q2)],
    # degree-8 quotient groups, inside the octahedral product
    "OxT": [(Q1, QUAT_ONE), (QUAT_ONE, Q1), (P3, QUAT_ONE), (QUAT_ONE, P3),
            (P4, QUAT_ONE)],
    "OO2": [(Q1, QUAT_ONE), (QUAT_ONE, Q1), (P3, QUAT_ONE), (QUAT_ONE, P3),
            (P4Q2, P4Q2)],
    "TxT": [(Q1, QUAT_ONE), (QUAT_ONE, Q1), (P3, QUAT_ONE), (QUAT_ONE, P3)],
    "OxO": [(Q2, QUAT_ONE), (QUAT_ONE, Q2), (P3, QUAT_ONE), (QUAT_ONE, P3),
            (P4, QUAT_ONE), (QUAT_ONE, P4)],
}

GROUP_LABELS = ("TxV", "TT1", "VxV", "OxT", "OO2", "TxT", "OxO")

# pencil degree -> (quotient groups, ambient group); TxT plays both
# roles: quotient at degree 8, ambient at degree 6
PENCILS = {6: ("TxV", "TT1", "VxV"), 8: ("OxT", "OO2", "TxT")}
AMBIENT = {6: "TxT", 8: "OxO"}
DEFAULT_DEGREE = {"TxV": 6, "TT1": 6, "VxV": 6,
                  "OxT": 8, "OO2": 8, "TxT": 8, "OxO": 8}

_cache = {}


def group(label):
    if label not in _GENERATOR_PAIRS:
        raise ValueError(f"unknown group {label!r}")
    if label not in _cache:
        _cache[label] = generate_group(label, _GENERATOR_PAIRS[label])
    return _cache[label]


_pcache = {}


def pgroup(label):
    if label not in _pcache:
        _pcache[label] = projectivize(group(label))
    return _pcache[label]

