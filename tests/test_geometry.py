"""Ruling orbits, fix-lines, base locus, meeting points, singular loci."""

import subprocess
import sys

import pytest

from k3pencils.algebra import (
    I,
    ONE,
    P3,
    P4,
    Q1,
    Q2,
    QUAT_ONE,
    ZERO,
    quat_mul,
    quat_of_su2,
)
from k3pencils.groups import (
    DEFAULT_DEGREE,
    GROUP_LABELS,
    Element,
    Surface,
    binary_octahedral,
    generate_group,
    group,
    pgroup,
    point_coords,
    projectivize,
    surface,
)
from k3pencils.geometry import (
    Line,
    act_line,
    base_locus,
    base_points,
    fix_group,
    fixlines_table,
    line_inventory,
    line_orbits,
    meeting_point_orbits,
    nu1,
    nu2,
    orbits_on_ruling,
    points_off_quadric,
    pure_fix_points,
    quadric_point_rows,
    ruling_line,
    ruling_orbits,
    stabilizer,
    transversal_line,
)
from k3pencils.singularities import offquadric_orbits

from exact_oracles import (
    eigenspaces,
    fix_group_by_lines,
    fix_lines,
    inventory_by_fix_lines,
    mat_vec,
    orbits_by_act_line,
)

# orbit lengths of pure-element fix points, grouped by fixer order,
# one entry per (group, side)
RULING_TABLES = {
    ("TxV", "left"): {2: [6], 3: [4, 4]},
    ("TxV", "right"): {2: [2, 2, 2]},
    ("TT1", "left"): {2: [6]},
    ("TT1", "right"): {2: [6]},
    ("VxV", "left"): {2: [2, 2, 2]},
    ("VxV", "right"): {2: [2, 2, 2]},
    ("OxT", "left"): {2: [12], 3: [8], 4: [6]},
    ("OxT", "right"): {2: [6], 3: [4, 4]},
    ("OO2", "left"): {2: [6], 3: [8]},
    ("OO2", "right"): {2: [6], 3: [8]},
    ("TxT", "left"): {2: [6], 3: [4, 4]},
    ("TxT", "right"): {2: [6], 3: [4, 4]},
}

# fix-line orbits as (type, length, |F_L|, |H_L|/|F_L|) multisets
FIXLINE_TABLES = {
    "TxV": [("M", 6, 2, 4)] * 3,
    "TT1": [("M", 6, 2, 4)] * 3 + [("N", 16, 3, 1)],
    "VxV": [("M", 2, 2, 4)] * 9,
    "OxT": [("M", 18, 2, 8), ("M", 36, 2, 4), ("N", 32, 3, 3)],
    "OO2": [("M", 72, 2, 2), ("N", 16, 3, 6), ("N", 16, 3, 6),
            ("R", 18, 4, 4)],
    "TxT": [("M", 18, 2, 4), ("N", 16, 3, 3), ("N", 16, 3, 3)],
}

DEGREES = {"TxV": 6, "TT1": 6, "VxV": 6, "OxT": 8, "OO2": 8, "TxT": 8}


class TestRulingOrbits:
    @pytest.mark.parametrize("label,side", sorted(RULING_TABLES))
    def test_orbit_tables(self, label, side):
        assert orbits_on_ruling(group(label), side) == RULING_TABLES[
            (label, side)
        ]

    def test_fix_point_counts(self):
        pts = pure_fix_points(group("OxT"), "left")
        assert len(pts) == 26  # 12 + 8 + 6
        assert sorted(pts.values()).count(4) == 6

    def test_ruling_action_orbit(self):
        pts = pure_fix_points(group("TxT"), "left")
        # order-2 points form a single orbit of 6
        twos = {p for p, o in pts.items() if o == 2}
        some = next(iter(twos))
        (orbit,) = ruling_orbits(group("TxT"), "left", [some])
        assert set(orbit) == twos


def _point(coords):
    """Index of the special point of P^1 with these coordinates."""
    return next(p for p in range(26) if point_coords(p) == coords)


def quadric_point(u, v):
    """P^3 coordinates, up to scale, of the quadric point (u, v)."""
    (u0, u1), (v0, v1) = point_coords(u), point_coords(v)
    return quat_of_su2(((u0 * v0, u0 * v1), (u1 * v0, u1 * v1)))


def _pluecker(line):
    """Normalised Pluecker 6-vector of the span of two points of a line."""
    if line.kind == "transversal":
        qps = line.qpoints
    elif line.side == "left":
        qps = [(line.point, _point((ONE, ZERO))),
               (line.point, _point((ZERO, ONE)))]
    else:
        qps = [(_point((ONE, ZERO)), line.point),
               (_point((ZERO, ONE)), line.point)]
    a, b = (quadric_point(*qp) for qp in qps)
    p = [a[i] * b[j] - a[j] * b[i] for i in range(4) for j in range(i + 1, 4)]
    lead = [x for x in p if not x.is_zero()]
    assert lead, "points do not span a line"
    inv = lead[0].inv()
    return tuple(inv * x for x in p)


class TestFixLines:
    def test_pure_element_fixes_two_ruling_lines(self):
        e = Element.from_quats(Q1, QUAT_ONE)
        lines = fix_lines(e)
        assert len(lines) == 2
        assert all(ln.kind == "ruling" and ln.side == "left" for ln in lines)
        assert lines[0].point != lines[1].point

    def test_projectively_trivial_rejected(self):
        with pytest.raises(ValueError, match="trivial"):
            fix_lines(Element.identity())
        minus = tuple(-c for c in QUAT_ONE)
        with pytest.raises(ValueError, match="trivial"):
            fix_lines(Element.from_quats(QUAT_ONE, minus))

    def test_involution_fixes_two_transversal_lines(self):
        e = Element.from_quats(Q1, Q1)
        lines = fix_lines(e)
        assert len(lines) == 2
        assert all(ln.kind == "transversal" for ln in lines)

    def test_order_three_diagonal_fixes_one_line(self):
        # the second eigenvalue pairing has distinct products, leaving
        # two isolated fixed points instead of a second line
        e = Element.from_quats(P3, P3)
        lines = fix_lines(e)
        assert len(lines) == 1

    def test_order_four_diagonal_fixes_one_line(self):
        e = Element.from_quats(P4, P4)
        lines = fix_lines(e)
        assert len(lines) == 1

    def test_lines_are_eigenspaces_of_the_4x4(self):
        for p, q in [(Q1, Q1), (P3, P3), (P4, P4), (Q1, Q2)]:
            e = Element.from_quats(p, q)
            m = e.matrix4()
            planes = [
                basis for _, basis in eigenspaces(m) if len(basis) == 2
            ]
            lines = fix_lines(e)
            assert len(lines) == len(planes)
            # each line's two quadric points must lie inside one 2-dim
            # eigenspace: check by eigenvector property
            for ln in lines:
                found = False
                for lam, basis in eigenspaces(m):
                    if len(basis) != 2:
                        continue
                    if all(
                        mat_vec(m, vec) == tuple(lam * x for x in vec)
                        for vec in (quadric_point(*qp) for qp in ln.qpoints)
                    ):
                        found = True
                assert found

    def test_mixed_order_element_may_fix_nothing(self):
        # order-8 left factor against order-4 right factor: no pairing
        # of eigenvalue products matches
        e = Element.from_quats(P4, Q1)
        assert fix_lines(e) == []

    def test_quadric_points_on_quadric(self):
        # the quadric is the vanishing of the quaternion norm
        for ln in fix_lines(Element.from_quats(P3, P3)):
            for u, v in ln.qpoints:
                x = quadric_point(u, v)
                norm = x[0] * x[0] + x[1] * x[1] + x[2] * x[2] + x[3] * x[3]
                assert norm.is_zero()

    def test_keys_match_pluecker_coordinates(self):
        # oracle: a line's key is its pinning points, so two lines must
        # share a key exactly when their spans in P^3 agree
        lines = base_locus(6) + base_locus(8)
        for label in GROUP_LABELS:
            lines += line_inventory(pgroup(label))
        pairs = {(ln.key, _pluecker(ln)) for ln in lines}
        keys = {k for k, _ in pairs}
        vecs = {p for _, p in pairs}
        assert len(keys) == len(vecs) == len(pairs)
        for p in vecs:
            assert (p[0] * p[5] - p[1] * p[4] + p[2] * p[3]).is_zero()

    def test_line_equality_across_constructions(self):
        # the fix lines of (q1, q1) and of (p4, p4) overlap in the span
        # of 1 and i: same line from different elements
        l1 = fix_lines(Element.from_quats(P4, P4))[0]
        m_lines = fix_lines(Element.from_quats(Q1, Q1))
        assert l1 in m_lines


class TestKeyWalks:
    """line_inventory and line_orbits against the Line-by-Line walks."""

    @pytest.mark.parametrize("label", GROUP_LABELS)
    def test_inventory_matches_the_union_of_fix_lines(self, label):
        pg = pgroup(label)
        assert line_inventory(pg) == inventory_by_fix_lines(pg)

    @pytest.mark.parametrize("pool", ["base", "inventory"])
    @pytest.mark.parametrize("label", GROUP_LABELS)
    def test_orbits_match_the_act_line_walk(self, label, pool):
        pg = pgroup(label)
        lines = (base_locus(DEFAULT_DEGREE[label]) if pool == "base"
                 else line_inventory(pg))
        orbits = line_orbits(pg, lines)
        assert orbits == orbits_by_act_line(pg, lines)
        assert all(type(ln) is Line for orb in orbits for ln in orb)


class TestBaseLocus:
    def test_counts(self):
        assert len(base_locus(6)) == 12
        assert len(base_locus(8)) == 16

    def test_orbit_uniqueness_oracle(self):
        # enumerate all ambient orbits on a ruling and check the base
        # orbit is the only one of the right length
        amb6 = group("TxT")
        pts = pure_fix_points(amb6, "left")
        lens = sorted(len(o) for o in ruling_orbits(amb6, "left", pts))
        assert lens == [4, 4, 6]
        amb8 = group("OxO")
        pts8 = pure_fix_points(amb8, "left")
        lens8 = sorted(len(o) for o in ruling_orbits(amb8, "left", pts8))
        assert lens8 == [6, 8, 12]

    def test_base_points_cached_and_sided(self):
        bl, br = base_points(6)
        assert len(bl) == len(br) == 6
        assert base_points(6) is base_points(6)


class TestFixLineTables:
    @pytest.mark.parametrize("label", sorted(FIXLINE_TABLES))
    def test_orbit_rows(self, label):
        rows = fixlines_table(label)
        got = sorted(
            (r.type_tag, r.length, r.fix_order, r.ratio) for r in rows
        )
        assert got == sorted(FIXLINE_TABLES[label])

    def test_cached_rows_are_immutable(self):
        row = fixlines_table("OO2")[0]
        with pytest.raises(AttributeError):
            row.type_tag = "R"
        with pytest.raises(AttributeError):
            row.rep.qpoints = None
        with pytest.raises(AttributeError):
            row.rep.type_tag = "R"
        with pytest.raises(AttributeError):
            quadric_point_rows(Surface("OxT", 8))[0].number = 0
        with pytest.raises(TypeError):
            offquadric_orbits(Surface("OxT", 8))[0] = None

    def test_orbit_stabilizer_identity(self):
        pg = pgroup("TT1")
        for row in fixlines_table("TT1"):
            assert row.length * row.stab_order == pg.order()

    def test_fix_group_is_cyclic_z3_on_n_line(self):
        pg = pgroup("TT1")
        n_line = next(
            r.rep for r in fixlines_table("TT1") if r.type_tag == "N"
        )
        fl = fix_group(pg, n_line)
        assert len(fl) == 3
        gen = next(e for e in fl if not e.is_proj_trivial())
        keys = {e.proj_key() for e in fl}
        assert {(gen * gen).proj_key(), gen.proj_key(),
                Element.identity().proj_key()} == keys

    def test_inventory_promotion(self):
        # inside (OO)'' the lines fixed by (q,q)-involutions acquire
        # order-4 fixers, so none of the 18 R-lines is typed M there,
        # while the same lines inside TxT stay M
        r_rep = next(r for r in fixlines_table("OO2") if r.type_tag == "R")
        r_lines = {
            ln.key for ln in line_orbits(pgroup("OO2"), [r_rep.rep])[0]
        }
        m18 = next(r for r in fixlines_table("TxT") if r.type_tag == "M")
        m_lines = {
            ln.key for ln in line_orbits(pgroup("TxT"), [m18.rep])[0]
        }
        assert len(r_lines) == len(m_lines) == 18
        assert m_lines == r_lines
        assert len(line_inventory(pgroup("OO2"))) == 72 + 16 + 16 + 18

    def test_trivial_group_orbit(self):
        triv = projectivize(generate_group("e", []))
        ln = fix_lines(Element.from_quats(Q1, Q1))[0]
        orbits = line_orbits(triv, [ln])
        assert len(orbits) == 1 and len(orbits[0]) == 1

    def test_stabilizer_of_base_line(self):
        pg = pgroup("TxV")
        ln = base_locus(6)[0]
        stab = stabilizer(pg, ln)
        assert len(stab) * 6 == pg.order()  # left base lines: one orbit of 6


class TestFixGroups:
    def test_eigen_rule_matches_fix_line_enumeration(self):
        # every group on every line that can be a fix-line: the
        # transversal ones of OxO, which holds the other six groups, and
        # the ruling line through each special point on each side
        transversal = line_inventory(pgroup("OxO"))
        points = range(len(binary_octahedral().points))
        ruling = [ruling_line(side, p) for side in ("left", "right")
                  for p in points]
        assert (len(transversal), len(ruling)) == (194, 52)
        for label in GROUP_LABELS:
            pg = pgroup(label)
            for ln in transversal + ruling:
                assert fix_group(pg, ln) == fix_group_by_lines(pg, ln), \
                    (label, ln.key)

    @pytest.mark.parametrize("label", GROUP_LABELS)
    def test_fix_group_inside_stabilizer(self, label):
        # on the group's own fix-lines and base lines; on the fix-lines
        # |H_L|/|F_L| is also the table's ratio for the line's orbit
        pg = pgroup(label)
        inventory = line_inventory(pg)
        ratio = {}
        for orb in line_orbits(pg, inventory):
            row = next(r for r in fixlines_table(label) if r.rep in orb)
            ratio.update(dict.fromkeys(orb, row.ratio))
        assert set(ratio) == set(inventory)
        for ln in inventory + base_locus(DEFAULT_DEGREE[label]):
            stab = {e.proj_key() for e in stabilizer(pg, ln)}
            fix = {e.proj_key() for e in fix_group(pg, ln)}
            assert fix <= stab, ln.key
            if ln in ratio:
                assert len(stab) == ratio[ln] * len(fix), ln.key


# fixlines_table's checks with asserts compiled out: a stabilizer short
# of one element breaks orbit-stabilizer; an F_L holding an element
# that moves the line is not inside H_L
FIXLINE_SABOTAGE = (
    ("geometry.stabilizer = lambda pg, ln, f=geometry.stabilizer: "
     "f(pg, ln)[1:]", "not |PG| = 48"),
    ("geometry.fix_group = lambda pg, ln, f=geometry.fix_group: "
     "f(pg, ln) + [e for e in pg if geometry.act_line(e, ln) != ln][:1]",
     "F_L is not inside H_L"),
)


@pytest.mark.parametrize("sabotage, message", FIXLINE_SABOTAGE,
                         ids=["short_stabilizer", "moving_fixer"])
def test_fixlines_checks_survive_python_O(sabotage, message):
    code = ("from k3pencils import geometry\n"
            "from k3pencils.cli import main\n"
            "%s\n"
            "raise SystemExit(main(['fixlines', 'TxV']))\n" % sabotage)
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stdout
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("ArithmeticError: TxV fix-line row "), last
    assert last.endswith(message), last


# the orbit invariants of the ruling and quadric-point tables with
# asserts compiled out: a fixer order bumped on one point splits its
# orbit's data, a doubled orbit list gives two base orbits
RULING_SABOTAGE = (
    ("geometry.pure_fix_points = lambda g, s, f=geometry.pure_fix_points: "
     "{p: o + (p == min(f(g, s))) for p, o in f(g, s).items()}\n"
     "geometry.orbits_on_ruling(geometry.group('TxV'), 'left')",
     "ArithmeticError: TxV left ruling orbit of 0 (length 6): fixer "
     "orders [2, 3], not one"),
    ("geometry.ruling_orbits = lambda g, s, p, f=geometry.ruling_orbits: "
     "f(g, s, p) * 2\n"
     "geometry.base_points(6)",
     "ArithmeticError: TxT left ruling: 2 orbits of length 6, not one"),
    ("geometry.pure_fix_points = lambda g, s, f=geometry.pure_fix_points: "
     "{p: o + (p == min(f(g, s))) for p, o in f(g, s).items()}\n"
     "geometry.quadric_point_rows(geometry.groups.Surface('TxV', 6))",
     "ArithmeticError: TxV quadric point orbit of (2, 0) (length 8): "
     "stabilizer data [(3, 2, 3), (3, 3, 3)], not one"),
)


@pytest.mark.parametrize("sabotage, message", RULING_SABOTAGE,
                         ids=["fixer_orders", "base_orbits", "quadric_data"])
def test_orbit_checks_survive_python_O(sabotage, message):
    code = "from k3pencils import geometry\n%s\n" % sabotage
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stdout
    assert proc.stderr.strip().splitlines()[-1] == message


MEETING = {
    "TxV": [12, 12, 12],
    "TT1": [12, 12, 12],
    "VxV": [4] * 9,
    "OxT": [32, 32],
    "OO2": [32, 32],
    "TxT": [16, 16, 16, 16],
}

# groups whose base meeting points fall into one orbit per pair of
# base-line orbits (the two twisted diagonals instead mix: three orbits
# for TT1, two for OO2, on a single pair)
PRODUCT_GROUPS = ("TxV", "VxV", "OxT", "TxT")


class TestMeetingPoints:
    @pytest.mark.parametrize("label", sorted(MEETING))
    def test_meeting_orbit_lengths(self, label):
        deg = DEGREES[label]
        lines = base_locus(deg)
        left = [ln for ln in lines if ln.side == "left"]
        right = [ln for ln in lines if ln.side == "right"]
        got = meeting_point_orbits(pgroup(label), left, right)
        assert got == MEETING[label]

    @pytest.mark.parametrize("label", PRODUCT_GROUPS)
    def test_one_orbit_per_line_orbit_pair(self, label):
        deg = DEGREES[label]
        pg = pgroup(label)
        lines = base_locus(deg)
        lorbs = line_orbits(pg, [n for n in lines if n.side == "left"])
        rorbs = line_orbits(pg, [n for n in lines if n.side == "right"])
        for lo in lorbs:
            for ro in rorbs:
                assert len(meeting_point_orbits(pg, lo, ro)) == 1

    def test_ruling_input_validated(self):
        ln = fix_lines(Element.from_quats(Q1, Q1))[0]
        right = [x for x in base_locus(6) if x.side == "right"]
        with pytest.raises(ValueError, match="ruling"):
            meeting_point_orbits(pgroup("TxV"), [ln], right)

    def test_trivial_group_single_point(self):
        triv = projectivize(generate_group("e", []))
        left = [ruling_line("left", _point((ONE, ONE)))]
        right = [ruling_line("right", _point((ONE, -ONE)))]
        assert meeting_point_orbits(triv, left, right) == [1]


class TestPointsOffQuadric:
    def test_order_two_line_degree_six(self):
        ln = fix_lines(Element.from_quats(Q1, Q1))[0]
        assert points_off_quadric(ln, 6) == 4

    def test_n_line_degree_six(self):
        ln = fix_lines(Element.from_quats(P3, P3))[0]
        assert points_off_quadric(ln, 6) == 6

    def test_r_line_degree_eight(self):
        ln = fix_lines(Element.from_quats(P4, P4))[0]
        assert points_off_quadric(ln, 8) == 8

    def test_n_line_degree_eight(self):
        ln = fix_lines(Element.from_quats(P3, P3))[0]
        assert points_off_quadric(ln, 8) == 6

    def test_ruling_line_rejected(self):
        with pytest.raises(ValueError, match="quadric"):
            points_off_quadric(base_locus(6)[0], 6)


# (fix orders as printed left x right, orbit length, orbit count,
# transversal order)
QUADRIC_ROWS = {
    ("TxV", 6): [((3, 2), 8, 6, 3)],
    ("TT1", 6): [],
    ("VxV", 6): [],
    ("OxT", 8): [((2, 3), 48, 2, 2), ((3, 2), 48, 1, 2), ((4, 3), 24, 2, 4)],
    ("OO2", 8): [((2, 3), 48, 1, 2), ((3, 2), 48, 1, 2)],
    ("TxT", 8): [((2, 3), 24, 2, 2), ((3, 2), 24, 2, 2)],
}

# (type, order, orbit length on the line, orbit count)
OFFQUADRIC_ROWS = {
    ("TxV", 6): [("M", 2, 4, 1)] * 3,
    ("TT1", 6): [("M", 2, 4, 1)] * 3 + [("N", 3, 1, 6)],
    ("VxV", 6): [("M", 2, 4, 1)] * 9,
    ("OxT", 8): [("M", 2, 8, 1), ("M", 2, 4, 2), ("N", 3, 3, 2)],
    ("OO2", 8): [("M", 2, 2, 4), ("N", 3, 6, 1), ("N", 3, 6, 1),
                 ("R", 4, 4, 2)],
    ("TxT", 8): [("M", 2, 4, 2), ("N", 3, 3, 2), ("N", 3, 3, 2)],
}


class TestSingularLoci:
    @pytest.mark.parametrize("label,degree", sorted(QUADRIC_ROWS))
    def test_quadric_point_rows(self, label, degree):
        assert DEFAULT_DEGREE[label] == degree
        got = sorted(
            (r.fix, r.length, r.number, r.transversal_order)
            for r in quadric_point_rows(Surface(label, degree))
        )
        assert got == sorted(QUADRIC_ROWS[(label, degree)])

    @pytest.mark.parametrize("label,degree", sorted(OFFQUADRIC_ROWS))
    def test_offquadric_rows(self, label, degree):
        assert DEFAULT_DEGREE[label] == degree
        got = sorted(
            (r.type_tag, r.order, r.ratio, n)
            for r, n in offquadric_orbits(Surface(label, degree))
        )
        assert got == sorted(OFFQUADRIC_ROWS[(label, degree)])

    def test_nu_components(self):
        expected = {
            "TxV": (4, 12, 3),
            "TT1": (2, 0, 15),
            "VxV": (6, 0, 9),
            "OxT": (3, 9, 7),
            "OO2": (2, 2, 14),
            "TxT": (4, 4, 10),
        }
        for label, (n1, n2, n3) in expected.items():
            smooth = Surface(label, DEFAULT_DEGREE[label])
            assert nu1(smooth) == n1
            assert nu2(smooth) == n2
            assert sum(n * (r.order - 1) for r, n in
                       offquadric_orbits(smooth)) == n3

    def test_ambient_quotient_rows(self):
        # Y_OO, OxO over the degree-8 base locus: reached through its
        # Surface, with no degree looked up by label
        rows = quadric_point_rows(surface("Y_OO"))
        assert [r.length for r in rows] == [96, 96, 48, 48]

    def test_pencil_members_share_one_cache_entry(self):
        smooth = Surface("OxT", 8)
        assert quadric_point_rows(smooth._replace(fiber=3)) \
            is quadric_point_rows(smooth)
        # in a fresh process the five TxV members miss once, hit four times
        code = ("from k3pencils.geometry import nu1, quadric_point_rows\n"
                "from k3pencils.groups import Surface\n"
                "for fn in (quadric_point_rows, nu1):\n"
                "    for fiber in (None, 1, 2, 3, 4):\n"
                "        fn(Surface('TxV', 6, fiber))\n"
                "    info = fn.cache_info()\n"
                "    print(info.hits, info.misses, info.currsize)\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.stdout.splitlines() == ["4 1 1", "4 1 1"], proc.stderr


class TestLineActions:
    def test_act_preserves_kind(self):
        e = Element.from_quats(P3, P4)
        rl = ruling_line("left", _point((ONE, ZERO)))
        assert act_line(e, rl).kind == "ruling"
        tl = fix_lines(Element.from_quats(Q1, Q1))[0]
        assert act_line(e, tl).kind == "transversal"

    def test_act_is_group_action(self):
        a = Element.from_quats(P3, Q1)
        b = Element.from_quats(P4, Q2)
        ln = fix_lines(Element.from_quats(Q1, Q1))[0]
        assert act_line(a, act_line(b, ln)).key == act_line(a * b, ln).key

    @pytest.mark.parametrize("label", ["TxV", "OxO"])
    def test_built_lines_equal_keyword_lines(self, label):
        # the scans build lines positionally; each must be the Line that
        # the keyword constructor makes from its key
        pg = pgroup(label)
        lines = {ln for e in pg if not e.is_proj_trivial()
                 for ln in fix_lines(e)}
        lines |= {act_line(e, ln) for e in pg
                  for ln in base_locus(DEFAULT_DEGREE[label])
                  + line_inventory(pg)[:3]}
        kinds = set()
        for ln in lines:
            if ln.key[0] == "ruling":
                want = Line("ruling", side=ln.key[1], point=ln.key[2])
            else:
                want = Line("transversal", qpoints=ln.key[1])
                assert list(want.qpoints) == sorted(want.qpoints)
            assert ln == want and hash(ln) == hash(want)
            kinds.add(ln.kind)
        assert kinds == {"ruling", "transversal"}

    def test_transversal_line_canonical_order(self):
        u1, v1 = _point((ONE, I)), _point((ZERO, ONE))
        u2, v2 = _point((ONE, -I)), _point((ONE, ZERO))
        assert transversal_line((u1, v1), (u2, v2)).key == transversal_line(
            (u2, v2), (u1, v1)
        ).key
