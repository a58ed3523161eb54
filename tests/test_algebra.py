"""Field arithmetic, matrices and the quaternion-pair parametrization."""

import random
import subprocess
import sys

import pytest
from hypothesis import given, seed, settings, strategies as st

from k3pencils.algebra import (
    HALF,
    I,
    ONE,
    P3,
    P4,
    Q1,
    Q2,
    QUAT_ONE,
    ROOTS24,
    SQRT2,
    ZERO,
    Cyc,
    eig2,
    mat2_conj,
    mat4_of_pair,
    mat_identity,
    mat_mul,
    mat_transpose,
    normalize_point,
    nullspace,
    quat_mul,
    quat_of_su2,
    scalar_of,
    su2_of_quat,
)

from exact_oracles import (
    OMEGA,
    Q3,
    SQRT3,
    eigenspaces,
    inverse_by_all_conjugates,
    mat_det,
    mat_scale,
    mat_vec,
    su2_inv,
)

rng = random.Random(20240824)


def rand_cyc(allow_zero=True):
    while True:
        c = Cyc(tuple(rng.randint(-3, 3) for _ in range(8)), rng.randint(1, 4))
        if allow_zero or not c.is_zero():
            return c


class TestFieldConstants:
    def test_i_squares_to_minus_one(self):
        assert I * I == -ONE

    def test_sqrt2(self):
        assert SQRT2 * SQRT2 == Cyc.from_int(2)

    def test_sqrt3(self):
        assert SQRT3 * SQRT3 == Cyc.from_int(3)

    def test_omega_is_cube_root(self):
        assert OMEGA * OMEGA * OMEGA == ONE
        assert OMEGA * OMEGA + OMEGA + ONE == ZERO

    def test_zeta_primitive(self):
        z = Cyc.zeta(1)
        powers = {z**k for k in range(24)}
        assert len(powers) == 24
        assert z**24 == ONE
        assert z**12 == -ONE


class TestFieldArithmetic:
    def test_ring_axioms_random(self):
        for _ in range(200):
            a, b, c = rand_cyc(), rand_cyc(), rand_cyc()
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a - a == ZERO

    def test_inverse_roundtrip(self):
        for _ in range(100):
            a = rand_cyc(allow_zero=False)
            assert a * a.inv() == ONE
            assert (ONE / a) * a == ONE

    def test_galois_is_multiplicative(self):
        for t in (5, 7, 11, 13, 17, 19, 23):
            for _ in range(20):
                a, b = rand_cyc(), rand_cyc()
                assert (a * b).galois(t) == a.galois(t) * b.galois(t)
                assert (a + b).galois(t) == a.galois(t) + b.galois(t)

    def test_conj_fixes_rationals_and_involutive(self):
        assert HALF.conj() == HALF
        for _ in range(30):
            a = rand_cyc()
            assert a.conj().conj() == a

    def test_conj_on_roots(self):
        for k, z in enumerate(ROOTS24):
            assert z.conj() == Cyc.zeta(-k)
            assert z * z.conj() == ONE

    def test_scalar_arith_ops(self):
        a, b = Cyc.rational(3, 2), Cyc.rational(-2, 5)
        assert a + b == Cyc.rational(11, 10)
        assert a - b == Cyc.rational(19, 10)
        assert a * b == Cyc.rational(-3, 5)
        assert a / b == Cyc.rational(-15, 4)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO
        with pytest.raises(ZeroDivisionError):
            ZERO.inv()
        with pytest.raises(ZeroDivisionError):
            Cyc(ONE.num, 0)

    @seed(31)
    @settings(database=None, deadline=None, max_examples=300)
    @given(st.lists(st.integers(-9, 9), min_size=8, max_size=8),
           st.integers(1, 12))
    def test_tower_inverse_matches_all_conjugates(self, num, den):
        # random coordinates: the norm to the real subfield is almost
        # never rational, so most examples take all three tower steps
        x = Cyc(tuple(num), den)
        if x.is_zero():
            with pytest.raises(ZeroDivisionError):
                x.inv()
        else:
            assert x.inv() == inverse_by_all_conjugates(x)
            assert x * x.inv() == ONE

    @pytest.mark.parametrize("x, steps", [
        (Cyc.rational(-7, 3), 0),
        (HALF + I * HALF, 1),  # |x|^2 = 1/2, as for every 2O entry
        (ONE + Cyc.zeta(1), 3),  # 2 + z + 1/z, then 2 - sqrt(3)
    ], ids=["rational", "rational_abs_square", "three_steps"])
    def test_tower_inverse_stops_at_a_rational_norm(self, monkeypatch, x,
                                                     steps):
        calls = []
        galois = Cyc.galois

        def counted(self, t):
            calls.append(t)
            return galois(self, t)

        monkeypatch.setattr(Cyc, "galois", counted)
        inverse = x.inv()
        assert calls == [23, 13, 7][:steps]
        monkeypatch.undo()
        assert inverse == inverse_by_all_conjugates(x)

    def test_bad_exponents_raise_under_python_O(self):
        # with asserts compiled out, a negative power looped forever
        # (-1 >> 1 == -1) and galois(2) returned a map that is no field
        # automorphism; a root of unity as base keeps the powers small
        code = ("from k3pencils.algebra import Cyc\n"
                "z = Cyc.zeta(1)\n"
                "for f in (lambda: z ** -1, lambda: z.galois(2)):\n"
                "    try:\n"
                "        f()\n"
                "    except ValueError as exc:\n"
                "        print(exc)\n")
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True, timeout=10)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "negative exponent -1; use inv()",
            "z -> z^2 is not a field automorphism",
        ]

    @pytest.mark.parametrize("call, error", [
        # a broken automorphism leaves every norm irrational
        ("Cyc.galois = lambda self, t: self\nCyc.zeta(1).inv()",
         "ArithmeticError: norm of (1*z^1) is not rational"),
        ("SQRT2.as_fraction()",
         "ValueError: (1*z^1 + 1*z^3 - 1*z^5) is not rational"),
        ("normalize_point((ZERO, ZERO))",
         "ValueError: zero vector is not a projective point"),
        ("mat_mul(((ONE, ONE),), ((ONE, ONE),))",
         "ValueError: cannot multiply 1x2 by 1x2"),
    ], ids=["inv_norm", "as_fraction", "normalize_point", "mat_mul_shape"])
    def test_guards_raise_under_python_O(self, call, error):
        # each was an assert: under -O, SQRT2.as_fraction() returned 0,
        # normalize_point((0, 0)) returned (0, 1) and mat_mul zipped
        # mismatched shapes
        code = ("from k3pencils.algebra import ONE, SQRT2, ZERO, Cyc, "
                "mat_mul, normalize_point\n" + call + "\n")
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True, timeout=10)
        assert proc.returncode == 1, proc.stdout
        assert proc.stderr.strip().splitlines()[-1] == error

    def test_canonical_form_and_hash(self):
        a = Cyc((2, 0, 4, 0, 0, 0, 0, 0), 6)
        b = Cyc((1, 0, 2, 0, 0, 0, 0, 0), 3)
        assert a == b and hash(a) == hash(b)
        c = Cyc((1, 0, 0, 0, 0, 0, 0, 0), -2)
        assert c == Cyc.rational(-1, 2)

    def test_rational_detection(self):
        assert Cyc.rational(7, 3).is_rational()
        assert not SQRT2.is_rational()
        from fractions import Fraction

        assert Cyc.rational(7, 3).as_fraction() == Fraction(7, 3)
        assert Cyc.rational(Fraction(-14, 6)) == Cyc.rational(-7, 3)
        assert Cyc.rational(Fraction(7, 3), 2) == Cyc.rational(7, 6)

    def test_cold_cli_import_leaves_fractions_unloaded(self):
        # fractions loads decimal and numbers, 2-3 ms of every cold CLI
        # process; only as_fraction needs it, and imports it when called
        code = ("import sys, k3pencils.cli\n"
                "print(sorted({'fractions', 'decimal', 'numbers'}"
                " & set(sys.modules)))\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


# quaternion-coordinate matrices of the generator pairs, as printed
M_Q1_L = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
M_Q1_R = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
M_Q2_L = [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]
M_Q2_R = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
M_P3_L = [[1, -1, 1, -1], [1, 1, -1, -1], [-1, 1, 1, -1], [1, 1, 1, 1]]
M_P3_R = [[1, 1, -1, 1], [-1, 1, -1, -1], [1, 1, 1, -1], [-1, 1, 1, 1]]
M_P4_L = [[1, -1, 0, 0], [1, 1, 0, 0], [0, 0, 1, -1], [0, 0, 1, 1]]
M_P4_R = [[1, 1, 0, 0], [-1, 1, 0, 0], [0, 0, 1, -1], [0, 0, 1, 1]]


def int_mat(rows, scale=ONE):
    return tuple(
        tuple(scale * Cyc.from_int(x) for x in row) for row in rows
    )


def pair_mat(p, q):
    return mat4_of_pair(su2_of_quat(p), mat2_conj(su2_of_quat(q)))


EXPECTED_GENERATOR_MATRICES = [
    ((Q1, QUAT_ONE), int_mat(M_Q1_L)),
    ((QUAT_ONE, Q1), int_mat(M_Q1_R)),
    ((Q2, QUAT_ONE), int_mat(M_Q2_L)),
    ((QUAT_ONE, Q2), int_mat(M_Q2_R)),
    ((P3, QUAT_ONE), int_mat(M_P3_L, HALF)),
    ((QUAT_ONE, P3), int_mat(M_P3_R, HALF)),
    ((P4, QUAT_ONE), int_mat(M_P4_L, SQRT2 * HALF)),
    ((QUAT_ONE, P4), int_mat(M_P4_R, SQRT2 * HALF)),
]


class TestPairParametrization:
    def test_generator_matrices(self):
        for (p, q), want in EXPECTED_GENERATOR_MATRICES:
            assert pair_mat(p, q) == want

    def test_matrices_are_special_orthogonal(self):
        for _, m in EXPECTED_GENERATOR_MATRICES:
            assert mat_mul(mat_transpose(m), m) == mat_identity(4)
            assert mat_det(m) == ONE

    def test_su2_functorial(self):
        quats = [Q1, Q2, Q3, P3, P4]
        for p in quats:
            for q in quats:
                lhs = su2_of_quat(quat_mul(p, q))
                rhs = mat_mul(su2_of_quat(p), su2_of_quat(q))
                assert lhs == rhs

    def test_quat_su2_roundtrip(self):
        for _ in range(30):
            x = tuple(rand_cyc() for _ in range(4))
            assert quat_of_su2(su2_of_quat(x)) == x

    def test_pair_action_is_multiplicative(self):
        a = pair_mat(P3, Q1)
        b = pair_mat(P4, Q2)
        ab = pair_mat(quat_mul(P3, P4), quat_mul(Q1, Q2))
        assert mat_mul(a, b) == ab

    def test_quat_orders(self):
        def order(x):
            acc = x
            for n in range(1, 30):
                if acc == QUAT_ONE:
                    return n
                acc = quat_mul(acc, x)
            raise AssertionError

        assert order(Q1) == order(Q2) == order(Q3) == 4
        assert order(P3) == 6
        assert order(P4) == 8

    def test_minus_one_pair_acts_trivially(self):
        minus = tuple(-c for c in QUAT_ONE)
        assert pair_mat(minus, minus) == mat_identity(4)


class TestMatrixHelpers:
    def rand_int_mat(self, n):
        return tuple(
            tuple(Cyc.from_int(rng.randint(-4, 4)) for _ in range(n))
            for _ in range(n)
        )

    def test_det_multiplicative(self):
        for _ in range(20):
            a = self.rand_int_mat(3)
            b = self.rand_int_mat(3)
            assert mat_det(mat_mul(a, b)) == mat_det(a) * mat_det(b)

    def test_nullspace_of_rank_one(self):
        m = int_mat([[1, 2, 3], [2, 4, 6], [3, 6, 9]])
        basis = nullspace(m)
        assert len(basis) == 2
        for v in basis:
            assert all(x.is_zero() for x in mat_vec(m, v))

    def test_scalar_detection(self):
        assert scalar_of(mat_scale(mat_identity(3), SQRT2)) == SQRT2
        assert scalar_of(int_mat([[1, 1], [0, 1]])) is None


class TestEigen:
    def test_eigenspaces_of_generators(self):
        for _, m in EXPECTED_GENERATOR_MATRICES:
            spaces = eigenspaces(m)
            total = 0
            for lam, basis in spaces:
                assert lam in ROOTS24
                total += len(basis)
                for v in basis:
                    assert mat_vec(m, v) == tuple(lam * x for x in v)
            assert total == 4

    def test_left_q1_pair_has_pm_i_eigenvalues(self):
        m = int_mat(M_Q1_L)
        spaces = dict(
            (lam, basis) for lam, basis in eigenspaces(m)
        )
        assert set(spaces) == {I, -I}
        assert all(len(b) == 2 for b in spaces.values())

    def test_eigenvalue_outside_mu24(self):
        m = (
            (Cyc.from_int(2), ZERO),
            (ZERO, HALF),
        )
        with pytest.raises(ValueError, match="mu_24"):
            eigenspaces(m)

    def test_eig2_on_su2(self):
        m = su2_of_quat(Q1)
        pairs = eig2(m)
        assert {lam for lam, _ in pairs} == {I, -I}
        for lam, v in pairs:
            assert mat_vec(m, v) == tuple(lam * x for x in v)

    def test_eig2_rejects_eigenvalues_outside_mu24(self):
        two = Cyc.from_int(2)
        for m in (((two, ZERO), (ZERO, HALF)),  # trace 5/2
                  ((ONE, ONE), (ZERO, ONE))):  # trace 2, not diagonalisable
            with pytest.raises(ValueError, match="mu_24"):
                eig2(m)

    def test_eig2_scalar_returns_none(self):
        assert eig2(mat_scale(mat_identity(2), -ONE)) is None

    def test_su2_inv(self):
        m = su2_of_quat(P4)
        assert mat_mul(m, su2_inv(m)) == mat_identity(2)


class TestProjectivePoints:
    def test_normalize(self):
        assert normalize_point((SQRT2, SQRT2)) == (ONE, ONE)
        assert normalize_point((ZERO, -SQRT3)) == (ZERO, ONE)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            normalize_point((ZERO, ZERO))
