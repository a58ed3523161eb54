"""Finite rotation groups stored as pairs of SU(2) matrices.

A rotation x -> p x qbar of the quaternion algebra is kept as the pair
(P, Q) with P the 2x2 image of p and Q the entrywise conjugate of the
image of q; the pair is determined up to a joint sign, which we fix by
making the first nonzero integer coordinate positive.  Products and
inverses then cost a pair of 2x2 multiplications instead of 4x4 work,
and the two factors act separately on the two rulings of the quadric,
which is what all the orbit computations downstream want.  The honest
4x4 rotation matrix is reconstructed on demand.
"""

from __future__ import annotations

from .algebra import (
    P3,
    P4,
    Q1,
    Q2,
    QUAT_ONE,
    Cyc,
    mat2_conj,
    mat4_of_pair,
    mat_identity,
    mat_mul,
    quat_mul,
    scalar_of,
    su2_inv,
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


def _first_sign(*mats):
    for m in mats:
        for row in m:
            for entry in row:
                for c in entry.num:
                    if c:
                        return 1 if c > 0 else -1
    return 0


def _neg2(m):
    return tuple(tuple(-x for x in row) for row in m)


def canon2(m):
    """Sign-canonical representative of {m, -m}."""
    return _neg2(m) if _first_sign(m) < 0 else m


class Element:
    """A rotation, canonical under the joint sign flip of its pair."""

    __slots__ = ("P", "Q", "_hash")

    def __init__(self, P, Q):
        if _first_sign(P) < 0:
            P, Q = _neg2(P), _neg2(Q)
        self.P = P
        self.Q = Q
        self._hash = hash((P, Q))

    @classmethod
    def from_quats(cls, p, q):
        return cls(su2_of_quat(p), mat2_conj(su2_of_quat(q)))

    @classmethod
    def identity(cls):
        return cls(ID2, ID2)

    def __mul__(self, other):
        return Element(mat_mul(self.P, other.P), mat_mul(self.Q, other.Q))

    def inv(self):
        return Element(su2_inv(self.P), su2_inv(self.Q))

    def __eq__(self, other):
        return self.P == other.P and self.Q == other.Q

    def __hash__(self):
        return self._hash

    def matrix4(self):
        return mat4_of_pair(self.P, self.Q)

    def proj_key(self):
        """Canonical key modulo scalars of P^3 (signs flip independently)."""
        return (canon2(self.P), canon2(self.Q))

    def swap(self):
        """Conjugate by C_SWAP: exchanges the two ruling factors."""
        return Element(mat2_conj(self.Q), mat2_conj(self.P))

    def is_identity(self):
        return self.P == ID2 and self.Q == ID2

    def is_proj_trivial(self):
        return scalar_of(self.P) is not None and scalar_of(self.Q) is not None

    def order(self):
        acc = self
        for n in range(1, 25):
            if acc.is_identity():
                return n
            acc = acc * self
        raise AssertionError("rotation order exceeds 24")

    def proj_order(self):
        acc = self
        for n in range(1, 25):
            if acc.is_proj_trivial():
                return n
            acc = acc * self
        raise AssertionError("projective order exceeds 24")

    def __repr__(self):
        return f"Element(P={self.P!r}, Q={self.Q!r})"


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
    seen = {Element.identity()}
    frontier = list(seen)
    while frontier:
        new = []
        for e in frontier:
            for g in gens:
                x = e * g
                if x not in seen:
                    seen.add(x)
                    new.append(x)
                    if len(seen) > cap:
                        raise ValueError("group too large or not finite")
        frontier = new
    return Group(name, gens, seen)


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
            classes.append(sorted(orbit, key=flat_key))
        classes.sort(key=lambda cl: (len(cl), flat_key(cl[0])))
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

