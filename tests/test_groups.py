"""Group generation, the seven-entry registry, the surface registry and
subgroup structure."""

import hashlib
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from k3pencils import algebra, data, groups
from k3pencils.algebra import (
    ONE,
    P3,
    P4,
    Q1,
    Q2,
    QUAT_ONE,
    ROOTS24,
    Cyc,
    eig2,
    mat2_conj,
    mat_identity,
    mat_mul,
    normalize_point,
    quat_mul,
    su2_of_quat,
)
from k3pencils.groups import (
    _GENERATOR_PAIRS,
    AMBIENT,
    DEFAULT_DEGREE,
    GROUP_LABELS,
    SURFACES,
    Element,
    Surface,
    binary_octahedral,
    flat_key,
    generate_group,
    group,
    index,
    is_subgroup,
    pgroup,
    projectivize,
    surface,
)

from exact_oracles import (
    C_SWAP,
    Q3,
    bfs_closure,
    conjugacy_classes,
    conjugate_group,
    is_normal,
    mat_scale,
    mat_vec,
    su2_inv,
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
        for label, idx in EXPECTED_INDICES.items():
            amb = group(AMBIENT[DEFAULT_DEGREE[label]])
            assert index(group(label), amb) == idx, label

    def test_quotients_are_normal(self):
        for label in EXPECTED_INDICES:
            amb = group(AMBIENT[DEFAULT_DEGREE[label]])
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

    def test_derived_degrees_and_labels(self):
        assert GROUP_LABELS == ("TxV", "TT1", "VxV", "OxT", "OO2", "TxT",
                                "OxO")
        assert DEFAULT_DEGREE == {"TxV": 6, "TT1": 6, "VxV": 6, "OxT": 8,
                                  "OO2": 8, "TxT": 8, "OxO": 8}


BAD_CONTEXTS = ("T_L@8,1", "T_L@6,5", "T_L@6", "X_Q", "T_L@", "T_L@6,1,2")


class TestSurfaces:
    def test_every_data_context_resolves(self):
        contexts = ({c for c, *_ in data.DIVISIBLE_CLASSES}
                    | {c for c, *_ in data.DISC_DROPS}
                    | {c for c, *_ in data.COMPONENT_TABLES}
                    | set(data.PRINTED_DISC))
        for ctx in contexts:
            label, degree, fiber = surface(ctx)
            assert label in GROUP_LABELS, ctx
            assert fiber in (None, 1, 2, 3, 4), ctx
            if not ctx.startswith("Y_"):
                assert DEFAULT_DEGREE[label] == degree, ctx

    def test_ambient_quotients_and_second_stage(self):
        assert surface("Y_TT") == ("TxT", 6, None)
        assert surface("Y_OO") == ("OxO", 8, None)
        assert surface("O_Lbar") == ("TxT", 8, None)
        for name in ("Y_TT", "Y_OO"):
            label, degree, _ = surface(name)
            assert AMBIENT[degree] == label

    def test_pencil_surfaces_name_each_pencil_group_once(self):
        pencil = [label for name, (label, _) in SURFACES.items()
                  if not name.startswith("Y_")]
        assert pencil == list(data.GROUP_ORDER)

    def test_member_contexts(self):
        assert surface("O_Lbar@8,4") == ("TxT", 8, 4)
        assert surface("T_M@6,2").fiber == 2
        with pytest.raises(AttributeError):
            surface("T_L").label = "TxT"

    def test_printed_discs_name_the_thirty_pencil_members(self):
        members = {Surface(label, degree, fiber)
                   for label, degree, _ in data.PENCIL_SURFACES
                   for fiber in (None, 1, 2, 3, 4)}
        assert {surface(ctx) for ctx in data.PRINTED_DISC} == members
        assert len(data.PRINTED_DISC) == 30

    def test_ambient_surfaces_take_no_fiber(self):
        # node data exist only for the pencil groups: TxT's are O_Lbar's
        # at degree 8, not Y_TT's at degree 6
        assert Surface("TxT", 8, 1) == surface("O_Lbar@8,1")
        for ctx in ("Y_TT@6,1", "Y_OO@8,4"):
            with pytest.raises(ValueError, match="no node data"):
                surface(ctx)
        with pytest.raises(ValueError,
                           match="ambient TxT at degree 6 has no node data"):
            Surface("TxT", 6, 1)

    def test_pairs_outside_the_registry_raise(self):
        assert Surface("TxV", 6) == ("TxV", 6, None)
        for label, degree in (("TxV", 8), ("XxX", 6), ("OxO", 6)):
            with pytest.raises(ValueError, match="no surface"):
                Surface(label, degree)

    def test_bad_contexts_raise_under_python_O(self):
        code = ("from k3pencils.groups import surface\n"
                "for ctx in %r:\n"
                "    try:\n"
                "        surface(ctx)\n"
                "    except ValueError as exc:\n"
                "        print(exc)\n" % (BAD_CONTEXTS,))
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "unknown surface %r" % ctx for ctx in BAD_CONTEXTS]


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


# sha256 of the repr of each field of binary_octahedral(), first 16 hex
TABLE_DIGESTS = {
    "mats": "79221aedce3f632f",
    "index": "9ae318baaa7bd785",
    "mul": "4a271d13a2a3e8b8",
    "inv": "771cc9479e2335d8",
    "neg": "be487d791670866d",
    "points": "5c5d12193a40b2b1",
    "act": "69c6bf46f2347bc8",
    "eig": "ca9d19e74ccc0e1f",
}


class TestOctahedralTable:
    """The index table of 2O against exact algebra."""

    def test_group_law_matches_matrices(self):
        t = binary_octahedral()
        assert len(set(t.mats)) == 48 and t.mats[0] == mat_identity(2)
        for a, m in enumerate(t.mats):
            assert t.mats[t.inv[a]] == su2_inv(m)
            assert t.mats[t.neg[a]] == _neg(m)
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

    # the facts the build relies on, read from the table alone

    def test_point_action_is_a_homomorphism(self):
        t = binary_octahedral()
        for a in range(48):
            for b in range(48):
                assert t.act[t.mul[a][b]] == tuple(t.act[a][q]
                                                   for q in t.act[b])

    def test_conjugate_fixes_the_moved_points_with_the_same_exponents(self):
        t = binary_octahedral()
        for a in range(48):
            for h, e in enumerate(t.eig):
                moved = e and {t.act[a][p]: k for p, k in e.items()}
                assert t.eig[t.mul[t.mul[a][h]][t.inv[a]]] == moved

    def test_negation_adds_12_to_the_exponents(self):
        t = binary_octahedral()
        for a, e in enumerate(t.eig):
            assert t.eig[t.neg[a]] == (
                e and {p: (k + 12) % 24 for p, k in e.items()})

    def test_exponents_are_listed_in_increasing_order(self):
        for e in binary_octahedral().eig:
            if e:
                assert list(e.values()) == sorted(e.values())

    def test_build_stays_within_its_exact_arithmetic_budget(self,
                                                            monkeypatch):
        calls = Counter()
        open_eig2 = []

        def counted_mat_mul(a, b):
            calls["mat_mul"] += 1
            return algebra.mat_mul(a, b)

        def counted_eig2(m):
            calls["eig2"] += 1
            open_eig2.append(m)
            try:
                return algebra.eig2(m)
            finally:
                open_eig2.pop()

        def counted_normalize_point(v):
            if not open_eig2:
                calls["normalize_point outside eig2"] += 1
            return normalize_point(v)  # this module's unpatched import

        def counted_su2_of_quat(x):
            calls["su2_of_quat"] += 1
            return su2_of_quat(x)

        def counted(name):
            method = getattr(Cyc, name)

            def count(self, *args):
                calls[name] += 1
                return method(self, *args)
            return count

        monkeypatch.setattr(groups, "mat_mul", counted_mat_mul)
        monkeypatch.setattr(groups, "eig2", counted_eig2)
        monkeypatch.setattr(groups, "su2_of_quat", counted_su2_of_quat)
        for module in (algebra, groups):
            monkeypatch.setattr(module, "normalize_point",
                                counted_normalize_point, raising=False)
        for name in ("galois", "inv"):
            monkeypatch.setattr(Cyc, name, counted(name))
        groups._factors.cache_clear()
        t = binary_octahedral.__wrapped__()
        assert len(t.mats) == 48 and len(t.points) == 26
        # an order-8 and an order-6 factor generate 2O: 2 x 48 products
        assert calls["mat_mul"] <= 96
        assert calls["eig2"] <= 24
        assert calls["normalize_point outside eig2"] == 0
        # eig2 takes one inverse per nonscalar +- pair: of b, shared by
        # both eigenvectors, or of lam - d on the 3 diagonal pairs.
        # Conjugations: 4 x 6 for the generator factors, 2 x 47 for the
        # second rows of the new elements, and one for each of the 23
        # inverses but the rational one: every 2O entry has rational
        # |b|^2
        assert calls["inv"] == 23
        assert calls["galois"] == 4 * 6 + 2 * 47 + 22
        # and the seven closures convert no generator quaternion again
        for label in GROUP_LABELS:
            generate_group(label, _GENERATOR_PAIRS[label])
        assert calls["su2_of_quat"] == 6

    def test_a_closure_past_48_elements_raises_under_python_O(self):
        # a new element's second row is conjugated from its first; with
        # a wrong conjugation the products never close up, and the build
        # stops at |2O| = 48 instead of growing without end
        code = ("from k3pencils import groups\n"
                "from k3pencils.algebra import Cyc\n"
                "Cyc.conj = lambda self: self\n"
                "groups.binary_octahedral()\n")
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 1, proc.stdout
        assert proc.stderr.strip().splitlines()[-1] == (
            "ArithmeticError: 2O closure passed 48 elements")

    @pytest.mark.parametrize("field, digest", TABLE_DIGESTS.items(),
                             ids=list(TABLE_DIGESTS))
    def test_table_is_the_one_built_by_full_products(self, field, digest):
        # pinned from the build that multiplied full 2x2 matrices and
        # inverted through all seven Galois conjugates
        value = repr(getattr(binary_octahedral(), field))
        assert hashlib.sha256(value.encode()).hexdigest()[:16] == digest

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


# derandomized, as in test_lattices.TestProperties
deterministic = settings(derandomize=True, database=None, deadline=None,
                         max_examples=150)
# a group label and a list of positions in its generator list: subsets
# in any order, with repeats
generator_picks = st.sampled_from(GROUP_LABELS).flatmap(
    lambda label: st.tuples(st.just(label), st.lists(
        st.integers(0, len(_GENERATOR_PAIRS[label]) - 1), max_size=7)))


class TestGenerateGroup:
    def test_trivial_group(self):
        g = generate_group("e", [])
        assert g.order() == 1

    @pytest.mark.parametrize("label", GROUP_LABELS)
    def test_coset_closure_matches_breadth_first(self, label):
        g = group(label)
        assert set(g.elements) == bfs_closure(g.generators)
        # made from canonical pairs, without the constructor's check
        assert all(Element(*e) == e for e in g)

    @deterministic
    @given(generator_picks)
    def test_coset_closure_of_generator_subsets(self, pick):
        label, positions = pick
        gens = [group(label).generators[i] for i in positions]
        g = generate_group("sub", gens)
        assert set(g.elements) == bfs_closure(gens)

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
        # as a rotation it is x -> -x, projectively trivial
        assert minus.matrix4() == _neg(mat_identity(4))
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
