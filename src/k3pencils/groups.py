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
    TRACE_EXPONENT,
    Cyc,
    eig2,
    mat2_conj,
    mat4_of_pair,
    mat_identity,
    mat_mul,
    quat_mul,
    su2_of_quat,
)

ID2 = mat_identity(2)


@cache
def _factors(x):
    # su2(x) and its conjugate, x's left and right factors: the table
    # build and Element.from_quats read six quaternions 132 times
    m = su2_of_quat(x)
    return m, mat2_conj(m)


class OctahedralTable(NamedTuple):
    """2O and its action on P^1, indexed by small ints.

    mats[0] is the identity; mul, inv and neg are the product, inverse
    and sign flip on indices.  points are the 26 eigenpoints in flat_key
    order, so index tuples sort as coordinate tuples do; act[a][p] is the
    image of point p under mats[a].  eig[a] maps the fixed points of a
    nonscalar mats[a], in increasing k, to the exponent k of its
    eigenvalue zeta_24^k there; None for +-1.  eig_items[a] holds the
    same (point, k) pairs as a tuple, and proj_order[a] is the order of
    mats[a] on P^1 (1 for +-1).
    """

    mats: tuple
    index: dict
    mul: tuple
    inv: tuple
    neg: tuple
    points: tuple
    act: tuple
    eig: tuple
    eig_items: tuple
    proj_order: tuple


@cache
def binary_octahedral():
    """Build the table from the generator factors of the seven groups.

    Left products close up to 2O, taking a generator factor only if the
    closure has not reached it yet; each element is a generator times
    its parent on that spanning tree, so the product table follows from
    the used generators' left permutations.  Factors come in increasing
    trace exponent, so largest orders first: one of order 8 and one of
    order 6 generate 2O, in 2 x 48 products.  Each product computes
    only its first row: every factor, so every element, is an SU(2)
    matrix ((a, b), (-conj b, conj a)), named by (a, b), and a new
    element gets its second row by conjugation.  eig2 runs once per +-
    pair, since -m has the eigenpoints of m with exponents + 12.  The
    point action needs no arithmetic: if h fixes p with exponent k, then
    a h a^-1 fixes a.p with exponent k.
    """
    gens = sorted({m for pairs in _GENERATOR_PAIRS.values()
                   for p, q in pairs
                   for m in (_factors(p)[0], _factors(q)[1])} - {ID2},
                  key=lambda m: (TRACE_EXPONENT[m[0][0] + m[1][1]],
                                 flat_key(m)))
    mats, index, tree = [ID2], {ID2: 0}, [None]
    at_row = {ID2[0]: 0}  # an element's index by its first row
    used, left = [], []  # left[j][x] is the index of used[j] * mats[x]
    for g in gens:
        if g in index:
            continue
        used.append(g)
        left.append([])
        for x, m in enumerate(mats):  # mats grows while it is scanned
            for j, h in enumerate(used):
                if len(left[j]) > x:  # filled before g was added
                    continue
                (row,) = mat_mul(h[:1], m)  # the first row of h m
                if row not in at_row:
                    if len(mats) == 48:  # a wrong second row never closes
                        raise ArithmeticError("2O closure passed 48 elements")
                    a, b = row
                    y = (row, (-b.conj(), a.conj()))
                    at_row[row] = index[y] = len(mats)
                    mats.append(y)
                    tree.append((x, j))
                left[j].append(at_row[row])
    mul = [tuple(range(len(mats)))]
    for parent, j in tree[1:]:
        mul.append(tuple(left[j][v] for v in mul[parent]))
    minus = index[tuple(tuple(-c for c in r) for r in ID2)]
    neg = tuple(row[minus] for row in mul)
    inv = tuple(row.index(0) for row in mul)

    found = {a: eig2(m) for a, m in enumerate(mats) if a < neg[a]}
    points = sorted({v for e in found.values() if e for _, v in e},
                    key=flat_key)
    at = {v: i for i, v in enumerate(points)}
    exponent = {lam: k for k, lam in enumerate(ROOTS24)}
    eig = [None] * len(mats)
    for a, e in found.items():
        if e:
            eig[a] = {at[v]: exponent[lam] for lam, v in e}
            eig[neg[a]] = dict(sorted(
                ((p, (k + 12) % 24) for p, k in eig[a].items()),
                key=lambda pk: pk[1]))

    # h fixes p with exponent k, so a h a^-1 fixes a.p with exponent k
    fixed_at = {(h, k): p for h, e in enumerate(eig) if e
                for p, k in e.items()}
    witness = {p: hk for hk, p in fixed_at.items()}  # any one per point
    return OctahedralTable(
        mats=tuple(mats),
        index=index,
        mul=tuple(mul),
        inv=inv,
        neg=neg,
        points=tuple(points),
        act=tuple(tuple(fixed_at[mul[mul[a][h]][inv[a]], k]
                        for h, k in map(witness.get, range(len(points))))
                  for a in range(len(mats))),
        eig=tuple(eig),
        eig_items=tuple(e and tuple(e.items()) for e in eig),
        # a factor with eigenvalues zeta_24^(+-k) turns P^1 by
        # zeta_24^(2k), of order 24 / gcd(24, 2k)
        proj_order=tuple(24 // gcd(24, 2 * next(iter(e.values()))) if e
                         else 1 for e in eig),
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
            return cls(index[_factors(p)[0]], index[_factors(q)[1]])
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
        order = binary_octahedral().proj_order
        return lcm(order[self.a], order[self.b])


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


def generate_group(name, generators, projective=False):
    """Close a generator list under multiplication (Dimino's algorithm).

    Elements are index pairs into the 2O table taken modulo the joint
    sign, so the closure always ends, with at most 1152 of them.  Adding
    a generator adds right cosets H r of the group H closed so far, one
    product per element (Butler, Fundamental Algorithms for Permutation
    Groups, 1991): each new r is a known coset's r times a generator.
    With projective, the factors' signs are independent: the pairs are
    proj_keys, the closure the image in PGL_2 x PGL_2 (at most 576).
    """
    gens = [g if isinstance(g, Element) else Element.from_quats(*g)
            for g in generators]
    table = binary_octahedral()
    mul, neg = table.mul, table.neg
    if projective:
        gens = [Element._make(g.proj_key()) for g in gens]

    def times(p, q):  # the canonical pair of the product p q
        x, y = mul[p[0]][q[0]], mul[p[1]][q[1]]
        if neg[x] < x:
            x, y = neg[x], neg[y]
        if projective and neg[y] < y:
            y = neg[y]
        return x, y

    elements, seen = [(0, 0)], {(0, 0)}
    for i, s in enumerate(gens):
        sub, todo = elements[:], [s]
        for r in todo:  # todo grows while it is scanned
            if r not in seen:  # the cosets found so far are all in seen
                coset = [times(h, r) for h in sub]
                elements += coset
                seen.update(coset)
                todo += [times(r, t) for t in gens[:i + 1]]
    if projective:
        return ProjectiveGroup(name, dict(zip(
            elements, map(Element._make, elements))), gens)
    return Group(name, gens, map(Element._make, elements))


class ProjectiveGroup:
    """A group in PGL_2 x PGL_2 (= the action on P^1 x P^1), by proj_key."""

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


def is_subgroup(h, g):
    return all(e in g for e in h)


def index(h, g):
    if not is_subgroup(h, g):
        raise ValueError(f"{h.name} is not a subgroup of {g.name}")
    # Lagrange: an internal invariant once h is a subgroup, not a check
    # on user input, so python -O may strip it
    assert g.order() % h.order() == 0
    return g.order() // h.order()


def flat_key(key):
    # flatten nested Cyc structures into plain int tuples, for sorting
    if isinstance(key, Cyc):
        return (key.num, key.den)
    return tuple(flat_key(x) for x in key)


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

GROUP_LABELS = tuple(_GENERATOR_PAIRS)

# the ambient group of each pencil degree, and each surface context of
# the printed tables as (group, degree): that pencil modulo that group
AMBIENT = {6: "TxT", 8: "OxO"}
SURFACES = {"T_L": ("TxV", 6), "T_M": ("TT1", 6), "T_Lbar": ("VxV", 6),
            "O_L": ("OxT", 8), "O_M": ("OO2", 8), "O_Lbar": ("TxT", 8),
            "Y_TT": (AMBIENT[6], 6), "Y_OO": (AMBIENT[8], 8)}

# the CLI's degree for a bare group label: its pencil's, else its ambient
DEFAULT_DEGREE = {g: d for d, g in AMBIENT.items()} | {
    g: d for g, d in SURFACES.values() if g != AMBIENT[d]}


class Surface(namedtuple("Surface", "label degree fiber")):
    """One member of the degree-n pencil modulo a group: fiber None is
    the smooth member, 1..4 a singular one.  Only pencil groups have node
    data, so Y_TT and Y_OO take no fiber.  Checked also under python -O."""

    __slots__ = ()

    def __new__(cls, label, degree, fiber=None):
        if (label, degree) not in SURFACES.values():
            raise ValueError(f"no surface {label!r} at degree {degree!r}")
        if not (fiber is None or type(fiber) is int and 1 <= fiber <= 4):
            raise ValueError(f"fiber must be None or 1..4, got {fiber!r}")
        if fiber is not None and AMBIENT[degree] == label:
            raise ValueError(f"ambient {label} at degree {degree} has no"
                             f" node data: no fiber {fiber}")
        return super().__new__(cls, label, degree, fiber)


def surface(context):
    """Surface of a context "O_L" (fiber None) or "O_L@8,4" (fiber 4)."""
    name, at, member = context.partition("@")
    label, degree = SURFACES.get(name, (None, None))
    fiber = {f"{degree},{k}": k for k in (1, 2, 3, 4)}.get(member)
    if label is None or at and fiber is None:
        raise ValueError(f"unknown surface {context!r}")
    return Surface(label, degree, fiber)


def _generators(label):
    if label not in _GENERATOR_PAIRS:
        raise ValueError(f"unknown group {label!r}")
    return _GENERATOR_PAIRS[label]


@cache
def group(label):
    """The linear group: read only where linear orders are printed."""
    return generate_group(label, _generators(label))


@cache
def pgroup(label):
    """The projective group, closed directly: the group of the geometry."""
    return generate_group(label, _generators(label), projective=True)
