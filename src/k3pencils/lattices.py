"""Integral lattice algebra for curve-intersection bookkeeping.

Gram matrices come from graphs of rational curves (self-intersection -2
unless a cover changed it, edge multiplicity = intersection number).
All arithmetic is exact.  Unit and lone pivots split off first, once
per lattice; Bareiss elimination and Hermite forms of the rest give
determinants and Smith forms.  Gluing v/p changes one row and column.
"""

import math
import operator
from collections import namedtuple


def _integer(x, what):
    """x as an int, or ValueError; int() would truncate 2.7 to 2."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError("%s %r is not an integer" % (what, x)) from None


def _integers(values, what):
    values = tuple(values)
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        return tuple(_integer(x, what) for x in values)


class CurveGraph:
    """Named curves with self-intersections and meeting multiplicities."""

    def __init__(self):
        self.curves = {}
        self.edges = {}

    def add_curve(self, name, self_intersection=-2):
        if name in self.curves:
            raise ValueError("curve %r declared twice" % (name,))
        self.curves[name] = _integer(self_intersection,
                                      "self-intersection")

    def add_edge(self, a, b, mult=1):
        if a == b:
            raise ValueError("curve %r cannot meet itself" % (a,))
        for name in (a, b):
            if name not in self.curves:
                raise ValueError("unknown curve %r" % (name,))
        mult = _integer(mult, "multiplicity")
        if mult < 1:
            raise ValueError("multiplicity must be positive")
        key = frozenset((a, b))
        self.edges[key] = self.edges.get(key, 0) + mult

    def names(self):
        return tuple(self.curves)


class IntegralLattice:
    """A symmetric integer Gram matrix with named basis vectors.

    Immutable once built: the _reduced (pivot split) and _disc slots
    are filled on first use, the only writes allowed after __init__.
    """

    __slots__ = ("gram", "basis_names", "_reduced", "_disc")

    def __init__(self, gram, basis_names=None):
        gram = tuple(_integers(row, "Gram entry") for row in gram)
        n = len(gram)
        if any(len(row) != n for row in gram):
            raise ValueError("Gram matrix must be square")
        if tuple(zip(*gram)) != gram:
            raise ValueError("Gram matrix must be symmetric")
        if basis_names is None:
            basis_names = tuple("e%d" % (i + 1) for i in range(n))
        basis_names = tuple(basis_names)
        if len(basis_names) != n:
            raise ValueError("need one name per basis vector")
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "basis_names", basis_names)
        object.__setattr__(self, "_reduced", None)
        object.__setattr__(self, "_disc", None)

    def __setattr__(self, name, value):
        raise AttributeError("IntegralLattice is immutable")

    def __delattr__(self, name):
        raise AttributeError("IntegralLattice is immutable")

    @property
    def rank(self):
        return len(self.gram)

    def is_even(self):
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def index_of(self, name):
        try:
            return self.basis_names.index(name)
        except ValueError:
            raise ValueError("unknown curve %r" % (name,))

    def __repr__(self):
        return "IntegralLattice(rank=%d, disc=%d)" % (
            self.rank, discriminant(self))


class DivisorClass:
    """An integer coefficient vector in the basis of a lattice."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = _integers(coeffs, "class coefficient")

    def __eq__(self, other):
        if not isinstance(other, DivisorClass):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "DivisorClass(%r)" % (self.coeffs,)


def divisor_class(l, mapping):
    """Build a class from {curve name: coefficient} over lattice l."""
    coeffs = [0] * l.rank
    for name, c in mapping.items():
        coeffs[l.index_of(name)] += c
    return DivisorClass(coeffs)


class DiscriminantGroup:
    """Invariant factors d1 | d2 | ... of a nondegenerate Gram matrix."""

    __slots__ = ("invariant_factors",)

    def __init__(self, invariant_factors):
        factors = _integers(invariant_factors, "invariant factor")
        for d in factors:
            if d <= 1:
                raise ValueError("invariant factors must exceed 1")
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise ValueError("invariant factors must form a chain")
        self.invariant_factors = factors

    @property
    def order(self):
        return math.prod(self.invariant_factors)

    def p_rank(self, p):
        return sum(1 for d in self.invariant_factors if d % p == 0)

    def __eq__(self, other):
        if not isinstance(other, DiscriminantGroup):
            return NotImplemented
        return self.invariant_factors == other.invariant_factors

    def __str__(self):
        if not self.invariant_factors:
            return "0"
        return " x ".join("Z%d" % d for d in self.invariant_factors)

    def __repr__(self):
        return "DiscriminantGroup(%r)" % (self.invariant_factors,)


def gram_from_graph(g):
    names = g.names()
    idx = {name: i for i, name in enumerate(names)}
    n = len(names)
    gram = [[0] * n for _ in range(n)]
    for name, s in g.curves.items():
        gram[idx[name]][idx[name]] = s
    for key, mult in g.edges.items():
        a, b = tuple(key)
        gram[idx[a]][idx[b]] = mult
        gram[idx[b]][idx[a]] = mult
    return IntegralLattice(gram, names)


_VALID_E = (6, 7, 8)


class ADEType(namedtuple("ADEType", "kind index")):
    """One irreducible root-lattice symbol: A_n, D_n or E_n."""

    __slots__ = ()

    def __new__(cls, kind, index):
        index = _integer(index, "Dynkin index")
        if kind == "A":
            if index < 1:
                raise ValueError("A_n needs n >= 1")
        elif kind == "D":
            if index < 4:
                raise ValueError("D_n needs n >= 4")
        elif kind == "E":
            if index not in _VALID_E:
                raise ValueError("E_n needs n in {6, 7, 8}")
        else:
            raise ValueError("unknown Dynkin kind %r" % (kind,))
        return super().__new__(cls, kind, index)

    @classmethod
    def parse(cls, text):
        s = text.strip().replace("_", "")
        if not s or s[0] not in "ADE":
            raise ValueError("cannot parse Dynkin symbol %r" % (text,))
        try:
            n = int(s[1:])
        except ValueError:
            raise ValueError("cannot parse Dynkin symbol %r" % (text,))
        return cls(s[0], n)

    @property
    def rank(self):
        return self.index

    def __str__(self):
        return "%s%d" % (self.kind, self.index)

    def __repr__(self):
        return "ADEType(%r, %d)" % (self.kind, self.index)


def ade_lattice(t):
    """Negative-definite root lattice of the given Dynkin type."""
    if isinstance(t, str):
        t = ADEType.parse(t)
    n = t.index
    g = CurveGraph()
    names = ["%s.%d" % (t, i + 1) for i in range(n)]
    for name in names:
        g.add_curve(name)
    if t.kind == "A":
        for i in range(n - 1):
            g.add_edge(names[i], names[i + 1])
    elif t.kind == "D":
        for i in range(n - 3):
            g.add_edge(names[i], names[i + 1])
        g.add_edge(names[n - 3], names[n - 2])
        g.add_edge(names[n - 3], names[n - 1])
    else:
        # E_n: a chain of n-1 curves with the last curve attached to
        # the third, giving arm lengths (2, n-4, 1) at the branch
        for i in range(n - 2):
            g.add_edge(names[i], names[i + 1])
        g.add_edge(names[2], names[n - 1])
    return gram_from_graph(g)


def direct_sum(a, b):
    n, m = a.rank, b.rank
    gram = ([list(row) + [0] * m for row in a.gram]
            + [[0] * n + list(row) for row in b.gram])
    names = list(a.basis_names)
    seen = set(names)
    for name in b.basis_names:
        fresh = name
        k = 2
        while fresh in seen:
            fresh = "%s@%d" % (name, k)
            k += 1
        seen.add(fresh)
        names.append(fresh)
    return IntegralLattice(gram, names)


def _det_bareiss(m):
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _split_pivots(m):
    """Split off the pivots of m that need no division: (sign, split, core).

    A pivot x at (i, j) is a unit, the only entry of its column dividing
    its row, or the only entry of its row dividing its column; shortest
    columns go first, to limit fill-in.  Row operations by the exact
    y // x clear column j, then row i and column j leave and x joins
    split; sign collects (-1)^(i + j) over live positions.  For square
    m, det m = sign * prod(split) * det core, and the Smith form of m
    is that of split with core's (Dumas, Saunders and Villard, 2001).
    """
    rows = {i: {j: x for j, x in enumerate(row) if x}
            for i, row in enumerate(m)}
    cols = {j: set() for j in range(len(m[0]) if m else 0)}
    for i, row in rows.items():
        for j in row:
            cols[j].add(i)
    sign, split = 1, []
    while True:
        best = i = None
        for c, col in cols.items():
            if best is None or len(col) < best:
                for r in col:
                    x = rows[r][c]
                    if x in (1, -1) or len(col) == 1 and not any(
                            y % x for y in rows[r].values()):
                        best, i, j = len(col), r, c
                        break
        if i is None:
            i, j = next(((r, c) for r, row in rows.items() if len(row) == 1
                         for c, x in row.items()
                         if not any(rows[k][c] % x for k in cols[c])),
                        (None, None))
            if i is None:
                break
        if (list(rows).index(i) + list(cols).index(j)) % 2:
            sign = -sign
        pivot = rows.pop(i)
        x = pivot.pop(j)
        for k in cols.pop(j) - {i}:
            row = rows[k]
            q = row.pop(j) // x
            for l, y in pivot.items():
                z = row.get(l, 0) - q * y
                if z:
                    row[l] = z
                    cols[l].add(k)
                else:
                    del row[l]
                    cols[l].discard(k)
        for l in pivot:
            cols[l].discard(i)
        split.append(x)
    return sign, split, [[row.get(j, 0) for j in cols]
                         for row in rows.values()]


def _reduction(l):
    """_split_pivots of l's Gram, run once per lattice object."""
    if l._reduced is None:
        object.__setattr__(l, "_reduced", _split_pivots(l.gram))
    return l._reduced


def discriminant(l):
    """Signed determinant of the Gram matrix (1 for the empty lattice).

    Computed once per lattice object and kept in its _disc slot.
    """
    if l._disc is None:
        sign, split, core = _reduction(l)
        object.__setattr__(l, "_disc",
                           sign * math.prod(split) * _det_bareiss(core))
    return l._disc


def smith_normal_form(m):
    """Diagonal of the Smith form of an integer matrix, as a list.

    m may be an IntegralLattice, whose kept pivot split is reused.
    Entries are nonnegative and each divides the next; zeros sort last.
    The pivots _split_pivots removes join the diagonal.  On its core,
    row Hermite forms of the matrix and of its transpose alternate
    until no entry is off the diagonal (Kannan and Bachem, 1979); gcd
    and lcm swaps then turn the nonzero diagonal into a divisor chain.
    """
    _, split, a = (_reduction(m) if isinstance(m, IntegralLattice)
                   else _split_pivots(m))
    m = getattr(m, "gram", m)
    size = min(len(m), len(m[0])) if m else 0
    while any(x for i, row in enumerate(a)
              for j, x in enumerate(row) if i != j):
        a = list(zip(*_hnf_rows(a)))
    # off the diagonal every entry is now 0
    diag = [abs(x) for x in split] + [abs(x) for row in a for x in row if x]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = math.gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag + [0] * (size - len(diag))


def discriminant_group(l):
    diag = smith_normal_form(l)
    if 0 in diag:
        raise ValueError("degenerate lattice has no discriminant group")
    return DiscriminantGroup([d for d in diag if d > 1])


def _combine(terms, rows):
    """The sum of c * rows[k] over the (k, c) pairs of terms."""
    if not terms:
        return [0] * len(rows)
    (k, c), *rest = terms
    out = [c * y for y in rows[k]]
    for k, c in rest:
        out = [x + c * y for x, y in zip(out, rows[k])]
    return out


def is_p_divisible(l, v, p):
    """Whether v/p extends l to an even integral overlattice.

    Numerically: Gram . v = 0 (mod p) and v . v = 0 (mod 2p^2).
    """
    if p not in (2, 3, 4):
        raise ValueError("divisibility is checked for p = 2, 3, 4 only")
    coeffs = v.coeffs
    if len(coeffs) != l.rank:
        raise ValueError("class length does not match lattice rank")
    support = [(j, c) for j, c in enumerate(coeffs) if c]
    # Gram . v from the rows of the support (the Gram is symmetric);
    # v . v reuses it
    gv = _combine(support, l.gram)
    if any(x % p for x in gv):
        return False
    return sum(c * gv[j] for j, c in support) % (2 * p * p) == 0


def nikulin_count_check(l, v, p):
    """The curve-count side of the divisibility criteria.

    p=2: the support must be disjoint (-2)-curves and there must be 8
    or 16 of them.  p=3: the support must split into disjoint pairs of
    meeting (-2)-curves, with opposite unit coefficients inside each
    pair, and exactly six such pairs.
    """
    if p not in (2, 3):
        raise ValueError("count criteria exist for p = 2 and 3 only")
    coeffs = v.coeffs
    if len(coeffs) != l.rank:
        raise ValueError("class length does not match lattice rank")
    support = [i for i, c in enumerate(coeffs) if c]
    for i in support:
        if l.gram[i][i] != -2:
            raise ValueError("support curve %s is not a (-2)-curve"
                             % l.basis_names[i])
    near = {i: [j for j in support if j != i and l.gram[i][j]]
            for i in support}
    if p == 2:
        # the first curve in basis order that meets another meets
        # only later ones
        for i in support:
            if near[i]:
                raise ValueError(
                    "support curves %s and %s meet" % (
                        l.basis_names[i], l.basis_names[near[i][0]]))
        return len(support) in (8, 16)
    for i in support:
        for k in [i] + near[i][:1]:
            if len(near[k]) != 1:
                raise ValueError(
                    "support does not split into disjoint meeting pairs "
                    "(curve %s)" % l.basis_names[k])
    pairs = [(i, near[i][0]) for i in support if i < near[i][0]]
    if len(pairs) != 6:
        return False
    return all(
        sorted((coeffs[i], coeffs[j])) == [-1, 1] and l.gram[i][j] == 1
        for i, j in pairs)


def _hnf_rows(rows):
    """Row-style Hermite normal form; returns the nonzero rows."""
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    r = 0
    for c in range(n):
        while True:
            nz = [i for i in range(r, m) if a[i][c]]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(a[i][c]))
            a[r], a[piv] = a[piv], a[r]
            clean = True
            for i in range(r + 1, m):
                if a[i][c]:
                    q = a[i][c] // a[r][c]
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                    clean = clean and a[i][c] == 0
            if clean:
                break
        if r < m and a[r][c]:
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
            for i in range(r):
                q = a[i][c] // a[r][c]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
            r += 1
    return a[:r]


def _glue_vector(v, p):
    """(k, w): the first k with v_k prime to p, and w = v / v_k mod p.

    w_k = 1, so the rows p e_i (i != k) and w are a basis B of p Z^n + Z v.
    """
    k = next(i for i, c in enumerate(v.coeffs) if math.gcd(c, p) == 1)
    u = pow(v.coeffs[k], -1, p)
    return k, [u * c % p for c in v.coeffs]


def adjoin_class(l, v, p):
    """The overlattice generated by l and v/p.

    Its basis is B/p for B from _glue_vector, so its Gram matrix is G
    with row and column k set to G w / p and corner w G w / p^2.
    Divides the discriminant by exactly p^2 and keeps the lattice even.
    Raises ValueError for a degenerate l, and unless v is p-divisible
    and of order p modulo p l (gcd of p and v's coefficients is 1).
    """
    if p == 1:
        return l
    if discriminant(l) == 0:
        raise ValueError("degenerate lattice: cannot adjoin class/%d" % p)
    if not is_p_divisible(l, v, p):
        raise ValueError("class is not %d-divisible on this lattice" % p)
    g = math.gcd(p, *v.coeffs)
    if g != 1:
        # v/p is then (v/g)/(p/g): the overlattice has index p/g, and
        # the discriminant drops by (p/g)^2, not p^2
        raise ValueError("class/%d adds index %d, not %d: %d divides %d "
                         "and every coefficient" % (p, p // g, p, g, p))
    k, w = _glue_vector(v, p)
    if w[k] != 1:
        raise ArithmeticError("glue vector has %d, not 1, at %d" % (w[k], k))
    gw = _combine([(j, c) for j, c in enumerate(w) if c], l.gram)
    corner = sum(c * x for c, x in zip(w, gw))
    if corner % (p * p) or any(x % p for x in gw):
        raise ArithmeticError("overlattice Gram not integral")
    col = [x // p for x in gw]
    col[k] = corner // (p * p)
    gram = [row[:k] + (x,) + row[k + 1:] for row, x in zip(l.gram, col)]
    gram[k] = col
    out = IntegralLattice(gram)
    if not out.is_even():
        raise ArithmeticError("overlattice not even")
    if discriminant(out) * p * p != discriminant(l):
        raise ArithmeticError("overlattice discriminant is not d(l)/p^2")
    return out


def index_formula_check(dW, dW2, ps):
    """d(W) = d(W') * (index)^2 with the index a product of primes."""
    index = math.prod(ps)
    return dW == dW2 * index * index


def cover_self_intersection(s, ramified, p):
    """Self-intersection transport along a degree-p cyclic cover.

    A component of the branch divisor pulls back with multiplicity p,
    so its reduced preimage has square s/p; an invariant curve off the
    branch locus pulls back to p disjoint copies glued into one class
    of square p*s.
    """
    if p not in (2, 3):
        raise ValueError("only degree 2 and 3 covers occur here")
    if ramified:
        if s % p:
            raise ValueError(
                "a branch curve needs self-intersection divisible by %d"
                % p)
        return s // p
    return p * s


def p_rank_bound_check(l, p, picard_rank):
    """p-rank of the discriminant group against 22 - rho."""
    return discriminant_group(l).p_rank(p) <= 22 - picard_rank
