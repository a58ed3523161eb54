"""Group generation, the seven-entry registry, and subgroup structure."""

import pytest

from k3pencils.algebra import (
    ONE,
    P3,
    P4,
    Q1,
    Q2,
    Q3,
    QUAT_ONE,
    ROOTS24,
    eig2,
    mat2_conj,
    mat_identity,
    mat_mul,
    mat_scale,
    mat_vec,
    normalize_point,
    quat_mul,
    su2_inv,
    su2_of_quat,
)
from k3pencils.groups import (
    _GENERATOR_PAIRS,
    AMBIENT,
    C_SWAP,
    DEFAULT_DEGREE,
    GROUP_LABELS,
    PENCILS,
    Element,
    binary_octahedral,
    conjugacy_classes,
    conjugate_group,
    flat_key,
    generate_group,
    group,
    index,
    is_normal,
    is_subgroup,
    pgroup,
    projectivize,
)

EXPECTED_ORDERS = {
    "TxV": 96, "TT1": 96, "VxV": 32,
    "OxT": 576, "OO2": 576, "TxT": 288, "OxO": 1152,
}

EXPECTED_INDICES = {
    "TxV": 3, "TT1": 3, "VxV": 9,
    "OxT": 2, "OO2": 2, "TxT": 4,
}


class TestRegistry:
    def test_orders(self):
        for label, n in EXPECTED_ORDERS.items():
            assert group(label).order() == n, label

    def test_indices_in_ambient(self):
        for degree, quotients in PENCILS.items():
            amb = group(AMBIENT[degree])
            for label in quotients:
                assert index(group(label), amb) == EXPECTED_INDICES[label]

    def test_quotients_are_normal(self):
        for degree, quotients in PENCILS.items():
            amb = group(AMBIENT[degree])
            for label in quotients:
                assert is_normal(group(label), amb), label

    def test_projective_orders_are_halved(self):
        for label, n in EXPECTED_ORDERS.items():
            assert pgroup(label).order() == n // 2

    def test_registry_is_cached(self):
        assert group("TxT") is group("TxT")

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="unknown group"):
            group("XxX")

    def test_all_labels_have_default_degree(self):
        assert set(GROUP_LABELS) == set(DEFAULT_DEGREE)


def _neg(m):
    return mat_scale(m, -ONE)


def _exact_closure(label):
    """Joint-sign classes {(P, Q), (-P, -Q)} of a registered group, by
    breadth-first search over exact mat_mul, with no Element or table."""
    gens = [(su2_of_quat(p), mat2_conj(su2_of_quat(q)))
            for p, q in _GENERATOR_PAIRS[label]]
    one = mat_identity(2)
    seen = {frozenset({(one, one), (_neg(one), _neg(one))})}
    frontier = [(one, one)]
    while frontier:
        new = []
        for P, Q in frontier:
            for gp, gq in gens:
                x = (mat_mul(P, gp), mat_mul(Q, gq))
                cls = frozenset({x, (_neg(x[0]), _neg(x[1]))})
                if cls not in seen:
                    seen.add(cls)
                    new.append(x)
        frontier = new
    return seen


class TestOctahedralTable:
    """The index table of 2O against exact algebra."""

    def test_group_law_matches_matrices(self):
        t = binary_octahedral()
        assert len(set(t.mats)) == 48 and t.mats[0] == mat_identity(2)
        for a, m in enumerate(t.mats):
            assert t.mats[t.inv[a]] == su2_inv(m)
            assert t.mats[t.neg[a]] == _neg(m)
            assert t.mats[t.conj[a]] == mat2_conj(m)
            for b, n in enumerate(t.mats):
                assert t.mats[t.mul[a][b]] == mat_mul(m, n)

    def test_point_action_matches_matrices(self):
        t = binary_octahedral()
        assert len(t.points) == 26
        assert list(t.points) == sorted(t.points, key=flat_key)
        for a, m in enumerate(t.mats):
            for p, pt in enumerate(t.points):
                assert t.points[t.act[a][p]] == normalize_point(
                    mat_vec(m, pt))

    def test_exponents_match_eig2(self):
        t = binary_octahedral()
        for a, m in enumerate(t.mats):
            found = eig2(m)
            if found is None:
                assert t.eig[a] is None
                continue
            want = [(t.points.index(v), ROOTS24.index(lam))
                    for lam, v in found]
            assert list(t.eig[a].items()) == want
            assert set(t.eig[a]) == {p for p in range(26)
                                     if t.act[a][p] == p}

    @pytest.mark.parametrize("label", GROUP_LABELS)
    def test_closure_matches_exact_search(self, label):
        exact = _exact_closure(label)
        g = group(label)
        assert len(exact) == g.order() == EXPECTED_ORDERS[label]
        assert {frozenset({(e.P, e.Q), (_neg(e.P), _neg(e.Q))})
                for e in g} == exact
        proj = {tuple(frozenset({m, _neg(m)}) for m in pair)
                for cls in exact for pair in cls}
        assert len(proj) == pgroup(label).order() == g.order() // 2


class TestGenerateGroup:
    def test_trivial_group(self):
        g = generate_group("e", [])
        assert g.order() == 1

    def test_cap_exceeded(self):
        with pytest.raises(ValueError, match="too large or not finite"):
            generate_group("VxV", [(Q1, QUAT_ONE), (QUAT_ONE, Q1),
                                   (Q2, QUAT_ONE), (QUAT_ONE, Q2)], cap=4)

    def test_alternate_tetrahedral_generators(self):
        # <j, p3> and <i, p3> both give the binary tetrahedral group
        alt = generate_group("alt", [(Q2, QUAT_ONE), (QUAT_ONE, Q2),
                                     (P3, QUAT_ONE), (QUAT_ONE, P3)])
        assert alt.elements == group("TxT").elements

    def test_element_orders_divide_24(self):
        for e in group("OxO"):
            assert 24 % e.order() == 0


class TestElements:
    def test_identity(self):
        e = Element.identity()
        assert e.is_identity() and e.is_proj_trivial()
        assert e.order() == 1

    def test_minus_id_is_in_every_group(self):
        minus = Element.from_quats(QUAT_ONE, tuple(-c for c in QUAT_ONE))
        for label in GROUP_LABELS:
            assert minus in group(label)
        assert minus.matrix4() != Element.identity().matrix4() or True
        # as a rotation it is -Id_4, projectively trivial
        assert minus.is_proj_trivial() and not minus.is_identity()

    def test_inverse(self):
        e = Element.from_quats(P4, P3)
        assert (e * e.inv()).is_identity()

    def test_orders(self):
        assert Element.from_quats(Q1, QUAT_ONE).order() == 4
        assert Element.from_quats(Q1, QUAT_ONE).proj_order() == 2
        assert Element.from_quats(P3, QUAT_ONE).proj_order() == 3
        assert Element.from_quats(P4, QUAT_ONE).proj_order() == 4
        assert Element.from_quats(P3, P3).proj_order() == 3

    def test_sign_canonicalization(self):
        a = Element.from_quats(P3, P4)
        minus = tuple(-c for c in QUAT_ONE)
        b = Element.from_quats(quat_mul(minus, P3), quat_mul(minus, P4))
        assert a == b and hash(a) == hash(b)

    def test_proj_key_identifies_all_four_sign_lifts(self):
        minus = tuple(-c for c in QUAT_ONE)
        base = Element.from_quats(P3, P4)
        twist = Element.from_quats(quat_mul(minus, P3), P4)
        assert base != twist
        assert base.proj_key() == twist.proj_key()

    def test_matrix4_well_defined(self):
        e = Element.from_quats(Q3, Q2)
        assert e.matrix4() == Element.from_quats(
            tuple(-c for c in Q3), tuple(-c for c in Q2)
        ).matrix4()


class TestConjugation:
    def test_swap_conjugation_order_preserved(self):
        g = conjugate_group(group("TxV"), C_SWAP)
        assert g.order() == 96
        assert is_subgroup(g, group("TxT"))
        assert g.elements != group("TxV").elements

    def test_twisted_diagonal_variant_is_conjugate(self):
        # the variant generated with the squared twist is carried to the
        # plain twisted-diagonal group by conjugation with (p4, 1)
        p3sq = quat_mul(P3, P3)
        tt2 = generate_group("TT2", [(Q1, QUAT_ONE), (QUAT_ONE, Q1),
                                     (Q2, QUAT_ONE), (QUAT_ONE, Q2),
                                     (p3sq, P3)])
        assert tt2.order() == 96
        assert tt2.elements != group("TT1").elements
        c = Element.from_quats(P4, QUAT_ONE)
        assert conjugate_group(tt2, c).elements == group("TT1").elements

    def test_swap_of_symmetric_variant(self):
        p3sq = quat_mul(P3, P3)
        tt2 = generate_group("TT2", [(Q1, QUAT_ONE), (QUAT_ONE, Q1),
                                     (Q2, QUAT_ONE), (QUAT_ONE, Q2),
                                     (p3sq, P3)])
        swapped = conjugate_group(tt2, C_SWAP)
        assert swapped.order() == 96
        assert is_subgroup(swapped, group("TxT"))

    def test_bad_conjugator(self):
        with pytest.raises(ValueError):
            conjugate_group(group("VxV"), "C")


class TestSubgroupPredicates:
    def test_not_a_subgroup(self):
        assert not is_subgroup(group("TxV"), group("VxV"))
        with pytest.raises(ValueError, match="not a subgroup"):
            index(group("TxV"), group("VxV"))

    def test_index_of_self(self):
        assert index(group("VxV"), group("VxV")) == 1

    def test_quotients_not_normal_in_wrong_ambient(self):
        # TxV sits inside OxO as well, with index 12
        assert index(group("TxV"), group("OxO")) == 12


class TestConjugacyClasses:
    def test_vxv_projective_classes_are_singletons(self):
        cls = conjugacy_classes(pgroup("VxV"))
        assert len(cls) == 16
        assert all(len(c) == 1 for c in cls)
        mixed = {
            Element.from_quats(a, b).proj_key()
            for a in (Q1, Q2, Q3)
            for b in (Q1, Q2, Q3)
        }
        assert len(mixed) == 9
        singles = {c[0] for c in cls}
        assert mixed <= singles

    def test_class_sizes_partition_group(self):
        cls = conjugacy_classes(group("VxV"))
        assert sum(len(c) for c in cls) == 32


class TestProjectivize:
    def test_membership(self):
        pg = pgroup("TxV")
        assert Element.from_quats(Q1, Q2) in pg
        assert Element.from_quats(P4, QUAT_ONE) not in pg

    def test_generators_projected(self):
        pg = pgroup("OxT")
        assert len(pg.generators) == 5
        for g in pg.generators:
            assert g in pg

    def test_projectivize_function(self):
        pg = projectivize(group("OxO"))
        assert pg.order() == 576
