"""Gram constructors, SNF, divisibility criteria, overlattice gluing."""

import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from exact_oracles import (
    determinantal_divisors,
    fraction_det,
    fraction_overlattice_gram,
)
from k3pencils import data, lattices
from k3pencils.config import parse_config
from k3pencils.lattices import (
    ADEType,
    CurveGraph,
    DiscriminantGroup,
    DivisorClass,
    IntegralLattice,
    ade_lattice,
    adjoin_class,
    cover_self_intersection,
    direct_sum,
    discriminant,
    discriminant_group,
    divisor_class,
    gram_from_graph,
    index_formula_check,
    is_p_divisible,
    nikulin_count_check,
    p_rank_bound_check,
    smith_normal_form,
)


def sum_of(*symbols):
    out = ade_lattice(symbols[0])
    for s in symbols[1:]:
        out = direct_sum(out, ade_lattice(s))
    return out


def oracle_divisible(l, v, p):
    """Fraction-arithmetic check that l + Z(v/p) is integral and even."""
    n = l.rank
    w = [Fraction(c, p) for c in v.coeffs]
    pair = [sum(Fraction(l.gram[i][j]) * w[j] for j in range(n))
            for i in range(n)]
    if any(x.denominator != 1 for x in pair):
        return False
    sq = sum(w[i] * pair[i] for i in range(n))
    return sq.denominator == 1 and sq.numerator % 2 == 0


class TestCurveGraph:
    def test_duplicate_curve(self):
        g = CurveGraph()
        g.add_curve("A")
        with pytest.raises(ValueError, match="twice"):
            g.add_curve("A")

    def test_self_loop(self):
        g = CurveGraph()
        g.add_curve("A")
        with pytest.raises(ValueError, match="itself"):
            g.add_edge("A", "A")

    def test_unknown_curve(self):
        g = CurveGraph()
        g.add_curve("A")
        with pytest.raises(ValueError, match="unknown curve"):
            g.add_edge("A", "B")

    def test_bad_multiplicity(self):
        g = CurveGraph()
        g.add_curve("A")
        g.add_curve("B")
        with pytest.raises(ValueError, match="positive"):
            g.add_edge("A", "B", 0)

    def test_non_integer_self_intersection(self):
        g = CurveGraph()
        with pytest.raises(ValueError, match="self-intersection -2.5 is not"):
            g.add_curve("A", -2.5)
        assert g.curves == {}

    def test_non_integer_multiplicity(self):
        g = CurveGraph()
        g.add_curve("A")
        g.add_curve("B")
        with pytest.raises(ValueError, match="multiplicity 1.5 is not"):
            g.add_edge("A", "B", 1.5)
        assert g.edges == {}

    def test_gram_assembly(self):
        g = CurveGraph()
        g.add_curve("A")
        g.add_curve("B", self_intersection=-4)
        g.add_edge("A", "B", 2)
        l = gram_from_graph(g)
        assert l.gram == ((-2, 2), (2, -4))
        assert l.basis_names == ("A", "B")


class TestIntegralLattice:
    def test_validation(self):
        with pytest.raises(ValueError, match="square"):
            IntegralLattice([[1, 2]])
        with pytest.raises(ValueError, match="symmetric"):
            IntegralLattice([[0, 1], [2, 0]])
        with pytest.raises(ValueError, match="name"):
            IntegralLattice([[-2]], ["a", "b"])

    def test_non_integer_gram_entry(self):
        with pytest.raises(ValueError, match="Gram entry 1.5 is not"):
            IntegralLattice([[1.5]])
        with pytest.raises(ValueError, match="Gram entry '1' is not"):
            IntegralLattice([[-2, 1], ["1", -2]])

    def test_non_integer_class_coefficient(self):
        with pytest.raises(ValueError, match="coefficient 2.7 is not"):
            DivisorClass([2.7])
        with pytest.raises(ValueError, match="coefficient 0.5 is not"):
            DivisorClass(c / 2 for c in (1, 2))

    def test_non_integer_invariant_factor(self):
        with pytest.raises(ValueError, match="factor 2.5 is not"):
            DiscriminantGroup([2.5, 4.9])

    def test_integer_types_are_kept(self):
        assert IntegralLattice([[True]]).gram == ((1,),)
        assert DivisorClass(c for c in (2, -1)).coeffs == (2, -1)

    def test_empty_lattice(self):
        l = IntegralLattice([])
        assert l.rank == 0
        assert discriminant(l) == 1

    def test_evenness(self):
        assert ade_lattice("E8").is_even()
        assert not IntegralLattice([[-1]]).is_even()

    def test_attributes_cannot_be_reassigned(self):
        l = ade_lattice("A2")
        writes = (("gram", ((-2, 1), (1, -4))), ("basis_names", ("x", "y")),
                  ("_reduced", (1, [], [])), ("_disc", 7))
        for filled in (False, True):
            for name, value in writes:
                with pytest.raises(AttributeError):
                    setattr(l, name, value)
                with pytest.raises(AttributeError):
                    delattr(l, name)
            if not filled:
                assert discriminant(l) == 3  # fills the cached slot
        assert l.gram == ((-2, 1), (1, -2))
        assert l.basis_names == ("A2.1", "A2.2")
        assert discriminant(l) == 3


def random_symmetric(rng, n, lo=-5, hi=5):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            m[i][j] = m[j][i] = rng.randint(lo, hi)
    return m


NON_INTEGER_INPUTS = """
from k3pencils import lattices as L
g = L.CurveGraph()
g.add_curve("A")
g.add_curve("B")
cases = (lambda: L.IntegralLattice([[1.5]]), lambda: L.DivisorClass([2.7]),
         lambda: g.add_curve("C", -2.0), lambda: g.add_edge("A", "B", 1.5))
print(__debug__)
for case in cases:
    try:
        case()
    except ValueError as exc:
        print(exc)
"""


def test_non_integer_inputs_rejected_under_python_O():
    proc = subprocess.run([sys.executable, "-O", "-c", NON_INTEGER_INPUTS],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "False",
        "Gram entry 1.5 is not an integer",
        "class coefficient 2.7 is not an integer",
        "self-intersection -2.0 is not an integer",
        "multiplicity 1.5 is not an integer",
    ]


class TestDeterminant:
    # zero pivots: leading, after one elimination step, a zero first
    # column; and a singular matrix with no zero entry
    PIVOT_CASES = (
        [[0, 1], [1, 0]],
        [[0, 2, 1], [2, 0, 3], [1, 3, 0]],
        [[1, 1, 0], [1, 1, 1], [0, 1, 0]],
        [[0, 0, 0], [0, -2, 1], [0, 1, -2]],
        [[-2, 1, 1], [1, -2, 1], [1, 1, -2]],
    )

    @pytest.mark.parametrize("m", PIVOT_CASES)
    def test_zero_pivots_and_singular_cases(self, m):
        assert discriminant(IntegralLattice(m)) == fraction_det(m)

    def test_matches_fraction_elimination(self):
        # a third with a zero leading pivot (the row-swap path), a
        # third singular
        rng = random.Random(20261019)
        for trial in range(240):
            n = 1 + trial % 12
            m = random_symmetric(rng, n)
            singular = trial % 3 == 2 and n > 1
            if trial % 3 == 1:
                m[0][0] = 0
            elif singular:
                # last row and column copy the first
                for j in range(n - 1):
                    m[n - 1][j] = m[j][n - 1] = m[0][j]
                m[n - 1][n - 1] = m[0][0]
            want = fraction_det(m)
            assert discriminant(IntegralLattice(m)) == want, m
            assert want == 0 or not singular


def curve_like(rng, n):
    """A -2 diagonal with unit edges; one graph in three is disjoint A1
    blocks plus a cycle, whose Gram is singular (affine A_k)."""
    m = [[-2 * (i == j) for j in range(n)] for i in range(n)]
    if rng.random() < 1 / 3 and n >= 3:
        k = rng.randint(3, n)
        for i in range(k):
            m[i][(i + 1) % k] = m[(i + 1) % k][i] = 1
        return m
    for _ in range(rng.randint(0, 2 * n) if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        m[i][j] = m[j][i] = rng.choice((1, 1, 1, 2))
    return m


def qualifies(core, i, j):
    """Whether core[i][j] is a pivot _split_pivots would remove."""
    x = core[i][j]
    row = [y for y in core[i] if y]
    col = [r[j] for r in core if r[j]]
    return x != 0 and (abs(x) == 1
                       or len(row) == 1 and all(y % x == 0 for y in col)
                       or len(col) == 1 and all(y % x == 0 for y in row))


class TestSplitPivots:
    def check(self, m):
        sign, split, core = lattices._split_pivots(m)
        assert sign in (1, -1)
        assert len(split) + len(core) == len(m)
        assert sign * math.prod(split) * fraction_det(core) \
            == fraction_det(m), m
        assert not any(qualifies(core, i, j) for i in range(len(core))
                       for j in range(len(core))), (m, core)

    def test_matches_fraction_det(self):
        # dense in [-3, 3], curve-like Grams, and matrices whose
        # entries are all 0 or of absolute value at least 2
        rng = random.Random(20261021)
        for trial in range(300):
            n = rng.randint(0, 10)
            if trial % 3 == 0:
                m = [[rng.randint(-3, 3) for _ in range(n)]
                     for _ in range(n)]
            elif trial % 3 == 1:
                m = curve_like(rng, n)
            else:
                m = [[rng.choice((0, 0, 2, -2, 3, 4, -6)) for _ in range(n)]
                     for _ in range(n)]
            self.check(m)

    def test_signed_permutations(self):
        # every entry is a unit, so only the cofactor signs decide
        rng = random.Random(7)
        for n in range(1, 8):
            for _ in range(10):
                perm = list(range(n))
                rng.shuffle(perm)
                m = [[rng.choice((1, -1)) * (j == perm[i]) for j in range(n)]
                     for i in range(n)]
                sign, split, core = lattices._split_pivots(m)
                assert core == [] and len(split) == n
                assert sign * math.prod(split) == fraction_det(m), m

    def test_smith_form_of_rectangular_matrices(self):
        # up to 4 x 6 with units and a row holding one entry
        rng = random.Random(31)
        for trial in range(150):
            rows, cols = rng.randint(1, 4), rng.randint(1, 6)
            m = [[rng.choice((0, 0, 1, -1, 2, -3, 4, 6)) for _ in range(cols)]
                 for _ in range(rows)]
            if trial % 2:
                i, j = rng.randrange(rows), rng.randrange(cols)
                m[i] = [rng.choice((2, 3, -4)) * (k == j)
                        for k in range(cols)]
            assert smith_normal_form(m) == determinantal_divisors(m), m


square_matrices = st.integers(0, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-4, 4), min_size=n, max_size=n),
    min_size=n, max_size=n))
matrices = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda shape: st.lists(st.lists(st.integers(-4, 4), min_size=shape[1],
                                    max_size=shape[1]),
                           min_size=shape[0], max_size=shape[0]))
deterministic = settings(derandomize=True, database=None, deadline=None,
                      max_examples=150)


class TestProperties:
    @deterministic
    @given(square_matrices)
    def test_discriminant_is_the_determinant(self, m):
        sym = [[m[min(i, j)][max(i, j)] for j in range(len(m))]
               for i in range(len(m))]
        assert discriminant(IntegralLattice(sym)) == fraction_det(sym)

    @deterministic
    @given(matrices)
    def test_smith_form_is_the_minor_gcd_chain(self, m):
        assert smith_normal_form(m) == determinantal_divisors(m)


DETS = {
    "A1": -2, "A2": 3, "A3": -4, "A4": 5, "A5": -6, "A7": -8,
    "D4": 4, "D5": -4, "D6": 4,
    "E6": 3, "E7": -2, "E8": 1,
}


class TestADEConstructors:
    @pytest.mark.parametrize("sym", sorted(DETS))
    def test_determinants(self, sym):
        assert discriminant(ade_lattice(sym)) == DETS[sym]

    def test_accepts_type_objects(self):
        assert discriminant(ade_lattice(ADEType("A", 2))) == 3

    def test_non_integer_index(self):
        with pytest.raises(ValueError, match="Dynkin index 2.5 is not"):
            ADEType("A", 2.5)

    def test_an_formula(self):
        for n in range(1, 9):
            assert discriminant(ade_lattice("A%d" % n)) \
                == (-1) ** n * (n + 1)

    def test_negative_definite(self):
        # leading principal minors of -G all positive
        for sym in ("A4", "D5", "E7"):
            g = ade_lattice(sym).gram
            for k in range(1, len(g) + 1):
                sub = IntegralLattice([[-g[i][j] for j in range(k)]
                                       for i in range(k)])
                assert discriminant(sub) > 0

    def test_six_disjoint_a2(self):
        l = sum_of(*["A2"] * 6)
        assert discriminant(l) == 3 ** 6

    def test_three_disjoint_a1(self):
        assert discriminant(sum_of("A1", "A1", "A1")) == -(2 ** 3)


class TestDirectSum:
    def test_disc_multiplicative(self):
        rng = random.Random(11)
        pool = ["A1", "A2", "A3", "D4", "E6"]
        for _ in range(10):
            a = ade_lattice(rng.choice(pool))
            b = ade_lattice(rng.choice(pool))
            assert discriminant(direct_sum(a, b)) \
                == discriminant(a) * discriminant(b)

    def test_name_collision_resolved(self):
        l = direct_sum(ade_lattice("A1"), ade_lattice("A1"))
        assert len(set(l.basis_names)) == 2


class TestSmithForm:
    def test_known_groups(self):
        assert discriminant_group(ade_lattice("A3")) \
            == DiscriminantGroup([4])
        assert discriminant_group(ade_lattice("D4")) \
            == DiscriminantGroup([2, 2])
        assert discriminant_group(sum_of(*["A1"] * 8)) \
            == DiscriminantGroup([2] * 8)
        assert discriminant_group(ade_lattice("E8")).invariant_factors == ()
        known = {"D5": [4], "D6": [2, 2], "D7": [4], "E6": [3], "E7": [2]}
        known.update(("A%d" % n, [n + 1]) for n in range(1, 9))
        for sym, factors in known.items():
            assert discriminant_group(ade_lattice(sym)) \
                == DiscriminantGroup(factors), sym

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            discriminant_group(IntegralLattice([[2, 2], [2, 2]]))

    def test_chain_validation(self):
        with pytest.raises(ValueError, match="chain"):
            DiscriminantGroup([4, 2])
        with pytest.raises(ValueError, match="exceed"):
            DiscriminantGroup([1, 2])

    def test_product_equals_det(self):
        rng = random.Random(20240824)
        for _ in range(60):
            n = rng.randint(1, 10)
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1):
                    m[i][j] = m[j][i] = rng.randint(-5, 5)
            diag = smith_normal_form(m)
            prod = 1
            for d in diag:
                prod *= d
            assert prod == abs(discriminant(IntegralLattice(m)))

    def test_divisibility_chain(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(2, 7)
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1):
                    m[i][j] = m[j][i] = rng.randint(-6, 6)
            diag = [d for d in smith_normal_form(m) if d]
            for a, b in zip(diag, diag[1:]):
                assert b % a == 0

    def test_rectangular_input(self):
        assert smith_normal_form([[2, 4, 4], [-6, 6, 12]]) == [2, 6]

    EDGE_CASES = (
        [], [[]], [[], []], [[0]], [[0, 0, 0], [0, 0, 0]],
        [[0, 0], [0, 0], [0, 0]], [[2, 0], [0, 6]], [[6, 0], [0, 4]],
        [[0, 0, 0], [1, 2, 3], [4, 5, 6]], [[0, 2], [0, 4], [0, 6]],
        [[4, 6], [6, 9]], [[-3]],
    )

    @pytest.mark.parametrize("m", EDGE_CASES)
    def test_edge_cases_match_minor_gcds(self, m):
        assert smith_normal_form(m) == determinantal_divisors(m)

    def test_random_matrices_match_minor_gcds(self):
        # square and rectangular up to 4 x 5; every fourth has a row
        # that is a multiple of another, every fifth a zero column
        rng = random.Random(20261020)
        for trial in range(200):
            rows, cols = rng.randint(1, 4), rng.randint(1, 5)
            m = [[rng.choice((0, rng.randint(-8, 8))) for _ in range(cols)]
                 for _ in range(rows)]
            if trial % 4 == 0 and rows > 1:
                m[-1] = [rng.randint(-2, 2) * x for x in m[0]]
            if trial % 5 == 0:
                for row in m:
                    row[rng.randrange(cols)] = 0
            assert smith_normal_form(m) == determinantal_divisors(m), m

    def test_unimodular_invariance(self):
        # U G V for products U, V of elementary row and column
        # operations on the shipped Grams
        rng = random.Random(77)
        for ctx, name, p, text in data.DIVISIBLE_CLASSES:
            gram = gram_from_graph(parse_config(text).graph).gram
            n = len(gram)
            m = [list(row) for row in gram]
            for _ in range(3 * n):
                i, j = rng.sample(range(n), 2)
                q = rng.choice((-2, -1, 1, 2))
                if rng.random() < 0.5:
                    m[i] = [x + q * y for x, y in zip(m[i], m[j])]
                else:
                    for row in m:
                        row[i] += q * row[j]
                if rng.random() < 0.2:
                    m[i], m[j] = m[j], [-x for x in m[i]]
            assert m != [list(row) for row in gram], ctx
            assert smith_normal_form(m) == smith_normal_form(gram), ctx


class TestDivisibility:
    def test_eight_a1_sum(self):
        l = sum_of(*["A1"] * 8)
        v = DivisorClass([1] * 8)
        assert is_p_divisible(l, v, 2)
        assert nikulin_count_check(l, v, 2)

    def test_six_a2_alternating(self):
        l = sum_of(*["A2"] * 6)
        v = DivisorClass([1, -1] * 6)
        assert is_p_divisible(l, v, 3)
        assert nikulin_count_check(l, v, 3)

    def test_single_a1(self):
        assert not is_p_divisible(ade_lattice("A1"), DivisorClass([1]), 2)

    def test_four_curves_pass_numerically_fail_nikulin(self):
        # the numeric condition alone admits this non-geometric class
        l = sum_of(*["A1"] * 4)
        v = DivisorClass([1] * 4)
        assert is_p_divisible(l, v, 2)
        assert not nikulin_count_check(l, v, 2)

    def test_sixteen_curves_pass(self):
        l = sum_of(*["A1"] * 16)
        v = DivisorClass([1] * 16)
        assert is_p_divisible(l, v, 2)
        assert nikulin_count_check(l, v, 2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            is_p_divisible(ade_lattice("A2"), DivisorClass([1]), 2)

    def test_nikulin_meeting_support_rejected(self):
        l = ade_lattice("A2")
        with pytest.raises(ValueError, match="meet"):
            nikulin_count_check(l, DivisorClass([1, 1]), 2)

    def test_nikulin_unpairable_support_rejected(self):
        l = ade_lattice("A3")
        with pytest.raises(ValueError, match="pairs"):
            nikulin_count_check(l, DivisorClass([1, -1, 1]), 3)

    def test_nikulin_five_pairs_fail(self):
        l = sum_of(*["A2"] * 5)
        assert not nikulin_count_check(l, DivisorClass([1, -1] * 5), 3)

    def test_nikulin_same_sign_pair_fails(self):
        l = sum_of(*["A2"] * 6)
        v = DivisorClass([1, 1] + [1, -1] * 5)
        assert not nikulin_count_check(l, v, 3)

    def test_nikulin_non_minus_two_support(self):
        l = IntegralLattice([[-4]])
        with pytest.raises(ValueError, match="-2"):
            nikulin_count_check(l, DivisorClass([1]), 2)

    def test_nikulin_bad_p(self):
        with pytest.raises(ValueError, match="2 and 3"):
            nikulin_count_check(ade_lattice("A1"), DivisorClass([0]), 5)


class TestAdjoinClass:
    def test_eight_a1(self):
        l = sum_of(*["A1"] * 8)
        out = adjoin_class(l, DivisorClass([1] * 8), 2)
        assert discriminant(out) == 2 ** 6
        assert out.rank == 8
        assert out.is_even()

    def test_six_a2(self):
        l = sum_of(*["A2"] * 6)
        out = adjoin_class(l, DivisorClass([1, -1] * 6), 3)
        assert discriminant(out) == 3 ** 4
        assert out.is_even()

    def test_p_one_identity(self):
        l = ade_lattice("D4")
        assert adjoin_class(l, DivisorClass([1, 0, 0, 0]), 1) is l

    def test_rejects_non_divisible(self):
        l = ade_lattice("A1")
        with pytest.raises(ValueError, match="divisible"):
            adjoin_class(l, DivisorClass([1]), 2)

    def test_rejects_degenerate_lattice(self):
        # disc 0 would pass the d(out) * p^2 = d(l) check vacuously
        l = IntegralLattice([[0, 0], [0, 0]])
        v = DivisorClass([1, 1])
        assert is_p_divisible(l, v, 2)
        with pytest.raises(ValueError, match="degenerate lattice"):
            adjoin_class(l, v, 2)

    def test_rejects_class_of_order_below_p(self):
        # both pass is_p_divisible, but v/p adds index p/gcd(p, v) < p
        for l, v, p in [(ade_lattice("A1"), DivisorClass([2]), 2),
                        (sum_of(*["A1"] * 8), DivisorClass([2] * 8), 4)]:
            assert is_p_divisible(l, v, p)
            with pytest.raises(ValueError, match="adds index %d, not %d"
                               % (p // 2, p)):
                adjoin_class(l, v, p)

    def test_chain_supported_class(self):
        # two A3 chains with coefficients 1,2,3 plus two chains M-N-M
        # with a disjoint extra curve: square -64, 4-divisible
        g = CurveGraph()
        names = ["R1", "R2", "R3", "R1'", "R2'", "R3'",
                 "M1", "N1", "M2", "C1", "M3", "N3", "M4", "C2"]
        for nm in names:
            g.add_curve(nm)
        for a, b in [("R1", "R2"), ("R2", "R3"), ("R1'", "R2'"),
                     ("R2'", "R3'"), ("M1", "N1"), ("N1", "M2"),
                     ("M3", "N3"), ("N3", "M4")]:
            g.add_edge(a, b)
        l = gram_from_graph(g)
        v = divisor_class(l, {
            "R1": 1, "R2": 2, "R3": 3, "R1'": 1, "R2'": 2, "R3'": 3,
            "N1": 2, "C1": 2, "M1": 3, "M2": 1,
            "N3": 2, "C2": 2, "M3": 3, "M4": 1,
        })
        sq = sum(
            v.coeffs[i] * sum(l.gram[i][j] * v.coeffs[j]
                              for j in range(l.rank))
            for i in range(l.rank))
        assert sq == -64
        assert is_p_divisible(l, v, 4)
        out = adjoin_class(l, v, 4)
        assert discriminant(out) * 16 == discriminant(l)
        assert out.is_even()


# p-divisible classes on ADE sums, for p = 2, 3, 4
GLUE_BASES = [(["A1"] * 8, [1] * 8, 2), (["A2"] * 6, [1, -1] * 6, 3),
              (["A1"] * 4, [1] * 4, 2),
              (["A3", "A3", "A3", "A1", "A3", "A1"],
               [1, 2, 3, 1, 2, 3, 3, 2, 1, 2, 3, 2, 1, 2], 4)]
ADE_POOL = ["A1", "A2", "A3", "A4", "D4", "D5", "E6", "E7"]


def glue_basis(v, p):
    """The basis B of p Z^n + Z v that adjoin_class documents."""
    k, w = lattices._glue_vector(v, p)
    n = len(w)
    return k, [w if i == k else [p * (i == j) for j in range(n)]
               for i in range(n)]


def check_overlattice(l, v, p):
    """adjoin_class against B G B^T / p^2 in Fractions.

    B is the glue basis adjoin_class uses; it must span exactly
    p Z^n + Z v: every row lies there, v lies in its span, and |det B|
    is the index of p Z^n + Z v.
    """
    out = adjoin_class(l, v, p)
    n = l.rank
    k, basis = glue_basis(v, p)
    for row in basis:
        assert any(all((r - t * c) % p == 0 for r, c in zip(row, v.coeffs))
                   for t in range(p)), row
    # v = v_k * w + p * z, and p Z^n is spanned by the p e_i and p w
    assert all((c - v.coeffs[k] * x) % p == 0
               for c, x in zip(v.coeffs, basis[k]))
    # adjoin_class accepts only v of order p modulo p Z^n
    assert abs(fraction_det(basis)) == p ** (n - 1)
    assert [list(r) for r in out.gram] \
        == fraction_overlattice_gram(l.gram, basis, p)
    return out


class TestOverlatticeGram:
    def test_every_shipped_divisible_class(self):
        for ctx, name, p, text in data.DIVISIBLE_CLASSES:
            cfg = parse_config(text)
            lat = gram_from_graph(cfg.graph)
            v = divisor_class(lat, cfg.classes[name])
            out = check_overlattice(lat, v, p)
            assert discriminant(out) * p * p == discriminant(lat), ctx

    def test_divisible_classes_on_random_ade_sums(self):
        # a known divisible class, summed with a random ADE lattice and
        # shifted by p * w; both keep v/p integral and even
        rng = random.Random(4242)
        for trial in range(24):
            symbols, coeffs, p = GLUE_BASES[trial % len(GLUE_BASES)]
            extra = [rng.choice(ADE_POOL) for _ in range(rng.randint(1, 3))]
            if trial % 2:
                l = sum_of(*(symbols + extra))
                coeffs = coeffs + [0] * (l.rank - len(coeffs))
            else:
                l = sum_of(*(extra + symbols))
                coeffs = [0] * (l.rank - len(coeffs)) + coeffs
            v = DivisorClass([c + p * rng.randint(-1, 1) for c in coeffs])
            assert is_p_divisible(l, v, p), (symbols, extra, v)
            out = check_overlattice(l, v, p)
            assert discriminant(out) * p * p == discriminant(l)
            assert out.is_even()

    def test_glue_row_that_is_not_the_hermite_row(self):
        # v_1..v_4 = 2 (mod 4) come before the first unit: the Hermite
        # basis leads with v and has a row 2 e_5 + ..., the glue basis
        # keeps 4 e_1 and puts w = v at row 5
        l = sum_of(*["A1"] * 4, "A3", "A3", "A3", "A1", "A3", "A1")
        v = DivisorClass([2, 2, 2, 2, 1, 2, 3, 1, 2, 3, 3, 2, 1, 2, 3, 2,
                          1, 2])
        k, basis = glue_basis(v, 4)
        n = l.rank
        stacked = [[4 * (i == j) for j in range(n)] for i in range(n)]
        hermite = lattices._hnf_rows(stacked + [list(v.coeffs)])
        assert k == 4 and basis != hermite
        out = check_overlattice(l, v, 4)
        assert (discriminant(l), discriminant(out)) == (16384, 1024)

    @deterministic
    @given(st.data())
    def test_divisible_classes_shifted_by_p(self, data):
        symbols, coeffs, p = data.draw(st.sampled_from(GLUE_BASES))
        extra = data.draw(st.lists(st.sampled_from(ADE_POOL), max_size=3))
        cut = data.draw(st.integers(0, len(extra)))
        l = sum_of(*(extra[:cut] + symbols + extra[cut:]))
        before = sum(ADEType.parse(s).rank for s in extra[:cut])
        base = [0] * before + coeffs + [0] * (l.rank - before - len(coeffs))
        z = data.draw(st.lists(st.integers(-2, 2), min_size=l.rank,
                               max_size=l.rank))
        v = DivisorClass([c + p * t for c, t in zip(base, z)])
        assert is_p_divisible(l, v, p)
        out = check_overlattice(l, v, p)
        assert discriminant(out) * p * p == discriminant(l)


class TestLatticeRoundBudget:
    def test_one_determinant_per_lattice(self, monkeypatch):
        # Bareiss runs once per lattice, on the core _split_pivots
        # leaves: empty for a shipped curve lattice, a part of the
        # overlattice
        calls = []
        bareiss = lattices._det_bareiss

        def counted(m):
            calls.append(len(m))
            return bareiss(m)

        monkeypatch.setattr(lattices, "_det_bareiss", counted)
        for ctx, name, p, text in data.DIVISIBLE_CLASSES:
            cfg = parse_config(text)
            lat = gram_from_graph(cfg.graph)
            v = divisor_class(lat, cfg.classes[name])
            del calls[:]
            discriminant_group(lat)
            assert calls == [], (ctx, name)
            d = discriminant(lat)
            big = adjoin_class(lat, v, p)
            assert discriminant(big) * p * p == d
            assert len(calls) == 2, (ctx, name)
            assert calls[0] == 0 and calls[1] < big.rank, (ctx, name)

    def test_one_pivot_split_per_lattice(self, monkeypatch):
        # discriminant and discriminant_group share the split of each
        # lattice object, and adjoin_class runs no Hermite form: 2
        # splits per benchmark op, one for l and one for its overlattice
        splits, hermite = [], []
        split_pivots, hnf_rows = lattices._split_pivots, lattices._hnf_rows
        monkeypatch.setattr(lattices, "_split_pivots",
                            lambda m: splits.append(len(m)) or split_pivots(m))
        monkeypatch.setattr(lattices, "_hnf_rows",
                            lambda m: hermite.append(len(m)) or hnf_rows(m))
        for ctx, name, p, text in data.DIVISIBLE_CLASSES:
            cfg = parse_config(text)
            lat = gram_from_graph(cfg.graph)
            v = divisor_class(lat, cfg.classes[name])
            del splits[:]
            discriminant(lat)
            discriminant_group(lat)
            del hermite[:]
            big = adjoin_class(lat, v, p)
            assert hermite == [], (ctx, name)
            discriminant(big)
            discriminant_group(big)
            assert splits == [lat.rank, big.rank], (ctx, name)


# sabotaged glue vectors, and a wrong G w, that each break one
# adjoin_class check; w_k = 1 alone fixes the discriminant of B G B^T
OPTIMIZED_ADJOIN = """
from k3pencils import lattices as L
four = L.IntegralLattice([[-2 * (i == j) for j in range(4)]
                          for i in range(4)])
combine = L._combine
cases = (("_glue_vector", lambda v, p: (0, [2, 1, 1, 1])),
         ("_glue_vector", lambda v, p: (0, [1, 0, 0, 0])),
         ("_glue_vector", lambda v, p: (0, [1, 1, 0, 0])),
         ("_combine", lambda terms, rows: [2 * x for x in
                                           combine(terms, rows)]))
print(__debug__)
for name, sabotage in cases:
    kept = getattr(L, name)
    setattr(L, name, sabotage)
    try:
        L.adjoin_class(four, L.DivisorClass([1, 1, 1, 1]), 2)
    except ArithmeticError as exc:
        print(exc)
    setattr(L, name, kept)
"""


def test_adjoin_checks_survive_python_O():
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_ADJOIN],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "False",
        "glue vector has 2, not 1, at 0",
        "overlattice Gram not integral",
        "overlattice not even",
        "overlattice discriminant is not d(l)/p^2",
    ]


class TestIndexFormula:
    def test_printed_pairs(self):
        cases = [
            (2 ** 5 * 3 ** 3 * 5, 2 * 3 * 5, [3, 2, 2]),
            (2 ** 5 * 3 ** 3 * 7, 2 ** 3 * 3 * 7, [2, 3]),
            (-2 ** 4 * 3 ** 3 * 5, -3 * 5, [3, 2, 2]),
            (-2 ** 6 * 3 ** 3 * 5, -2 ** 2 * 3 * 5, [3, 2, 2]),
            (-3 ** 3 * 5, -3 * 5, [3]),
            (-2 ** 4 * 3 ** 2 * 7, -2 ** 2 * 7, [2, 3]),
            (-2 ** 6 * 3 ** 2 * 7, -2 ** 2 * 7, [2, 3, 2]),
            (-2 ** 4 * 7, -2 ** 2 * 7, [2]),
            (-2 ** 8 * 7, -2 ** 4 * 7, [4]),
            (-3 ** 4 * 7, -7, [3, 3]),
            (-2 ** 4 * 3 ** 4 * 7, -2 ** 2 * 7, [3, 3, 2]),
        ]
        for dW, dW2, ps in cases:
            assert index_formula_check(dW, dW2, ps), (dW, dW2, ps)

    def test_trivial_and_negative(self):
        assert index_formula_check(42, 42, [])
        assert not index_formula_check(12, 3, [3])


class TestCoverArithmetic:
    def test_printed_values(self):
        assert cover_self_intersection(-3, True, 3) == -1
        assert cover_self_intersection(-1, False, 3) == -3
        assert cover_self_intersection(-2, True, 2) == -1

    def test_divisibility_guard(self):
        with pytest.raises(ValueError, match="divisible"):
            cover_self_intersection(-3, True, 2)

    def test_degree_guard(self):
        with pytest.raises(ValueError, match="degree"):
            cover_self_intersection(-5, False, 5)


class TestPRankBound:
    def test_rank20_three_rank2(self):
        l = sum_of("A2", "A2")
        assert p_rank_bound_check(l, 3, 20)

    def test_rank19_two_rank5(self):
        l = sum_of(*["A1"] * 5)
        assert not p_rank_bound_check(l, 2, 19)

    def test_trivial_group(self):
        assert p_rank_bound_check(ade_lattice("E8"), 2, 22)


def all_ade_sums(max_rank):
    """Multisets of A-D-E symbols with total rank <= max_rank."""
    by_rank = {1: ["A1"], 2: ["A2"], 3: ["A3"], 4: ["A4", "D4"],
               5: ["A5", "D5"], 6: ["A6", "D6", "E6"]}
    out = []

    def rec(prefix, budget, floor):
        if prefix:
            out.append(tuple(prefix))
        for r in range(1, budget + 1):
            for sym in by_rank[r]:
                if sym >= floor:
                    rec(prefix + [sym], budget - r, sym)

    rec([], max_rank, "")
    return out


class TestOracleAgreement:
    def test_divisibility_vs_fraction_oracle(self):
        rng = random.Random(99)
        for symbols in all_ade_sums(5):
            l = sum_of(*symbols)
            for p in (2, 3, 4):
                for _ in range(6):
                    v = DivisorClass([rng.randint(-p, p)
                                      for _ in range(l.rank)])
                    assert is_p_divisible(l, v, p) \
                        == oracle_divisible(l, v, p), (symbols, p, v)

    def test_oracle_confirms_known_classes(self):
        l = sum_of(*["A1"] * 8)
        assert oracle_divisible(l, DivisorClass([1] * 8), 2)
        l = sum_of(*["A2"] * 6)
        assert oracle_divisible(l, DivisorClass([1, -1] * 6), 3)
