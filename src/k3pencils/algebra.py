"""Exact arithmetic in Q(zeta_24) plus small exact matrices.

Everything downstream (group elements, eigenvalues, projective points)
lives in the 24th cyclotomic field: sqrt(2), i, sqrt(3) and the cube
roots of unity all embed, and every eigenvalue of every finite-order
matrix we meet is a 24th root of unity.  An element is stored as eight
integer coordinates in the power basis 1, z, ..., z^7 (z = zeta_24,
minimal polynomial x^8 - x^4 + 1) over a common positive denominator,
gcd-reduced, so equality is tuple equality and hashing is free.
"""

from __future__ import annotations

from math import gcd
from operator import add, sub


def _reduce_pow(k):
    # z^k as an 8-vector, for any integer k
    k %= 24
    vec = [0] * 8
    vec[0] = 1
    for _ in range(k):
        vec = _shift(vec)
    return tuple(vec)


def _shift(vec):
    # multiply by z: shift up, fold z^8 = z^4 - 1
    top = vec[7]
    out = [-top] + list(vec[:7])
    out[4] += top
    return out


_ZPOW = [_reduce_pow(k) for k in range(24)]


class Cyc:
    """An element of Q(zeta_24) in canonical form."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=1):
        if den <= 0:
            if not den:
                raise ZeroDivisionError("zero denominator")
            num = tuple(-c for c in num)
            den = -den
        g = gcd(den, *num)
        if g > 1:
            num = tuple(c // g for c in num)
            den //= g
        self.num = tuple(num)
        self.den = den
        self._hash = hash((self.num, self.den))

    @classmethod
    def from_int(cls, n):
        return cls((n, 0, 0, 0, 0, 0, 0, 0), 1)

    @classmethod
    def rational(cls, p, q=1):
        """p / q for integers, or for any rational p with numerator and
        denominator (a Fraction), which are read without importing it."""
        return cls((p.numerator, 0, 0, 0, 0, 0, 0, 0), p.denominator * q)

    @classmethod
    def zeta(cls, k):
        return cls(_ZPOW[k % 24], 1)

    def __add__(self, other):
        a, b = self, other
        if a.den == b.den:
            return Cyc(tuple(map(add, a.num, b.num)), a.den)
        num = tuple(x * b.den + y * a.den for x, y in zip(a.num, b.num))
        return Cyc(num, a.den * b.den)

    def __sub__(self, other):
        a, b = self, other
        if a.den == b.den:
            return Cyc(tuple(map(sub, a.num, b.num)), a.den)
        num = tuple(x * b.den - y * a.den for x, y in zip(a.num, b.num))
        return Cyc(num, a.den * b.den)

    def __neg__(self):
        return Cyc(tuple(-c for c in self.num), self.den)

    def __mul__(self, other):
        acc = [0] * 15  # z^0 .. z^14, zero coefficients of both skipped
        for i, ai in enumerate(self.num):
            if ai:
                for k, bj in enumerate(other.num, i):  # k = i + j
                    if bj:
                        acc[k] += ai * bj
        c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12, c13, c14 = acc
        # z^(8+m) = z^(4+m) - z^m, folded from the top down
        c10 += c14
        c6 -= c14
        c9 += c13
        c5 -= c13
        c8 += c12
        c4 -= c12
        c7 += c11
        c3 -= c11
        c6 += c10
        c2 -= c10
        c5 += c9
        c1 -= c9
        c4 += c8
        c0 -= c8
        return Cyc((c0, c1, c2, c3, c4, c5, c6, c7), self.den * other.den)

    def galois(self, t):
        """Apply z -> z^t (t must be a unit mod 24)."""
        if gcd(t, 24) != 1:
            raise ValueError(f"z -> z^{t} is not a field automorphism")
        acc = [0] * 8
        for k, c in enumerate(self.num):
            if c:
                for m, e in enumerate(_ZPOW[(t * k) % 24]):
                    acc[m] += c * e
        return Cyc(tuple(acc), self.den)

    def conj(self):
        """Complex conjugation (z -> z^23)."""
        return self.galois(23)

    def inv(self):
        """1 / self, by relative norms up the tower of quadratic subfields.

        The Galois group is (Z/24)^* = (Z/2)^3, generated by z -> z^23,
        z^13, z^7.  Multiplying the partial norm n by its image under
        the next of them gives a norm to a subfield of half the degree,
        fixed by one more generator (Cohen, A Course in Computational
        Algebraic Number Theory, 1993, 4.3); after at most three steps
        it is rational, and self^-1 = (product of the images) / norm.
        The walk stops as soon as the norm is rational: an element of
        rational absolute value takes the one conjugation z -> z^23.
        """
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta_24)")
        norm, prod = self, ONE
        for t in (23, 13, 7):
            if norm.is_rational():
                break
            image = norm.galois(t)
            norm, prod = norm * image, prod * image
        if not norm.is_rational():
            raise ArithmeticError(f"norm of {self!r} is not rational")
        return Cyc(
            tuple(c * norm.den for c in prod.num), prod.den * norm.num[0]
        )

    def __truediv__(self, other):
        return self * other.inv()

    def __pow__(self, n):
        if n < 0:  # n >>= 1 would never reach 0
            raise ValueError(f"negative exponent {n}; use inv()")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def is_zero(self):
        return not any(self.num)

    def is_rational(self):
        return not any(self.num[1:])

    def as_fraction(self):
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        # imported here: fractions loads decimal and numbers, which
        # cost every cold process a few ms that only this method needs
        from fractions import Fraction

        return Fraction(self.num[0], self.den)

    def __eq__(self, other):
        return (
            isinstance(other, Cyc)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.is_rational():
            n = self.num[0]
            return f"{n}/{self.den}" if self.den != 1 else f"{n}"
        terms = []
        for k, c in enumerate(self.num):
            if c:
                terms.append(f"{c}" if k == 0 else f"{c}*z^{k}")
        s = " + ".join(terms).replace("+ -", "- ")
        return f"({s})/{self.den}" if self.den != 1 else f"({s})"


ZERO = Cyc.from_int(0)
ONE = Cyc.from_int(1)
HALF = Cyc.rational(1, 2)
I = Cyc.zeta(6)
SQRT2 = Cyc.zeta(3) + Cyc.zeta(21)  # zeta_8 + zeta_8^-1

ROOTS24 = tuple(Cyc.zeta(k) for k in range(24))


# ---------------------------------------------------------------------------
# generic exact matrices (tuples of tuples of Cyc)

def mat_identity(n):
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
    )


def mat_mul(a, b):
    n, m = len(a), len(b[0])
    k = len(b)
    if len(a[0]) != k:
        raise ValueError(f"cannot multiply {n}x{len(a[0])} by {k}x{m}")
    bt = tuple(zip(*b))
    out = []
    for row in a:
        out.append(
            tuple(
                _dot(row, col) for col in bt
            )
        )
    return tuple(out)


def _dot(u, v):
    # the nonzero products summed, with no addition to ZERO
    terms = [x * y for x, y in zip(u, v) if not (x.is_zero() or y.is_zero())]
    acc = terms[0] if terms else ZERO
    for t in terms[1:]:
        acc = acc + t
    return acc


def mat_transpose(a):
    return tuple(zip(*a))


def scalar_of(a):
    """Return c if a == c*Id, else None."""
    c = a[0][0]
    n = len(a)
    for i in range(n):
        for j in range(n):
            want = c if i == j else ZERO
            if a[i][j] != want:
                return None
    return c


def _rref(rows):
    """Row-reduce in place over the field; returns (rows, pivot columns)."""
    rows = [list(r) for r in rows]
    n = len(rows)
    m = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(m):
        pr = next((i for i in range(r, n) if not rows[i][c].is_zero()), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c].inv()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return [tuple(row) for row in rows], pivots


def nullspace(a):
    """Canonical basis of ker(a); vectors in reduced echelon form."""
    n = len(a)
    m = len(a[0])
    red, pivots = _rref(a)
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * m
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(tuple(v))
    # echelonize the basis itself so the result is canonical
    if basis:
        basis, _ = _rref(basis)
    return [tuple(v) for v in basis]


# ---------------------------------------------------------------------------
# quaternions and the SU(2) x SU(2) parametrization of SO(4)

def quat_mul(x, y):
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return (
        x0 * y0 - x1 * y1 - x2 * y2 - x3 * y3,
        x0 * y1 + x1 * y0 + x2 * y3 - x3 * y2,
        x0 * y2 - x1 * y3 + x2 * y0 + x3 * y1,
        x0 * y3 + x1 * y2 - x2 * y1 + x3 * y0,
    )


def su2_of_quat(x):
    """2x2 complex image of a quaternion: x0 + x1 i + x2 j + x3 k."""
    a = x[0] + I * x[1]
    d = x[0] - I * x[1]
    b = x[2] + I * x[3]
    c = -x[2] + I * x[3]
    return ((a, b), (c, d))


def quat_of_su2(m):
    (a, b), (c, d) = m
    two_i_inv = (I + I).inv()
    return (
        (a + d) * HALF,
        (a - d) * two_i_inv,
        (b - c) * HALF,
        (b + c) * two_i_inv,
    )


QUAT_BASIS = (
    (ONE, ZERO, ZERO, ZERO),
    (ZERO, ONE, ZERO, ZERO),
    (ZERO, ZERO, ONE, ZERO),
    (ZERO, ZERO, ZERO, ONE),
)

# the unit quaternions every group in the registry is built from
Q1 = QUAT_BASIS[1]  # i
Q2 = QUAT_BASIS[2]  # j
P3 = (HALF, HALF, -HALF, HALF)  # (1 + i - j + k)/2, order 6
_R2 = HALF * SQRT2
P4 = (_R2, _R2, ZERO, ZERO)  # (1 + i)/sqrt(2), order 8
QUAT_ONE = QUAT_BASIS[0]


def mat4_of_pair(P, Qc):
    """4x4 rotation matrix (quaternion-coordinate action x -> p x qbar)
    from the stored pair P = su2(p), Qc = conj(su2(q))."""
    qct = mat_transpose(Qc)
    cols = []
    for e in QUAT_BASIS:
        img = mat_mul(mat_mul(P, su2_of_quat(e)), qct)
        cols.append(quat_of_su2(img))
    return tuple(zip(*cols))


def mat2_conj(m):
    return tuple(tuple(x.conj() for x in row) for row in m)


# the trace zeta^k + zeta^-k of a nonscalar det-1 2x2 of finite order,
# 0 < k < 12, mapped to k; traces +-2 (k = 0, 12) belong to +-1 only
TRACE_EXPONENT = {ROOTS24[k] + ROOTS24[-k]: k for k in range(1, 12)}


def eig2(m):
    """Eigen data of a det-1 2x2 over the field.

    Returns None for scalar matrices, else ((lam1, v1), (lam2, v2)) with
    the two eigenvalues zeta_24^k, zeta_24^(24-k) (0 < k < 12, read off
    the trace) and canonical projective eigenvectors.
    """
    if scalar_of(m) is not None:
        return None
    k = TRACE_EXPONENT.get(m[0][0] + m[1][1])
    if k is None:
        raise ValueError("eigenvalue outside mu_24")
    lams = (ROOTS24[k], ROOTS24[24 - k])
    (a, b), (c, d) = m
    if not b.is_zero():  # (b, lam - a) for both: one inverse of b
        ib = b.inv()
        return tuple((lam, (ONE, (lam - a) * ib)) for lam in lams)
    # lower triangular: (0, 1) for lam = d, (lam - d, c) for lam = a
    return tuple((lam, normalize_point((lam - d, c)) if (lam - a).is_zero()
                  else (ZERO, ONE)) for lam in lams)


def normalize_point(v):
    """Canonical representative of a point of P^1 (first nonzero coord 1)."""
    a, b = v
    if not a.is_zero():
        return (ONE, b / a)
    if b.is_zero():
        raise ValueError("zero vector is not a projective point")
    return (ZERO, ONE)

