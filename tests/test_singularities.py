"""Dynkin classification, node dataset, and curve-count totals."""

import pytest

from k3pencils import data
from k3pencils.geometry import fixlines_table, quadric_point_rows
from k3pencils.groups import Surface, pgroup, surface
from k3pencils.lattices import ADEType
from k3pencils.singularities import (
    NodeOrbitRecord,
    binary_quotient,
    fixline_columns,
    node_records,
    nu_totals,
    offquadric_orbits,
    parse_meeting_lines,
    quadric_point_singularity,
)

DEGREES = {"TxV": 6, "TT1": 6, "VxV": 6, "OxT": 8, "OO2": 8, "TxT": 8}


class TestADEType:
    def test_ranks(self):
        assert ADEType("A", 5).rank == 5
        assert ADEType("D", 4).rank == 4
        assert ADEType("E", 8).rank == 8

    def test_str_and_parse_roundtrip(self):
        for t in [ADEType("A", 1), ADEType("A", 15), ADEType("D", 6),
                  ADEType("E", 7)]:
            assert ADEType.parse(str(t)) == t
        assert ADEType.parse("D_4") == ADEType("D", 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            ADEType("A", 0)
        with pytest.raises(ValueError):
            ADEType("D", 3)
        with pytest.raises(ValueError):
            ADEType("E", 5)
        with pytest.raises(ValueError):
            ADEType("B", 2)
        with pytest.raises(ValueError):
            ADEType.parse("Q7")

    def test_immutability_and_ordering(self):
        t = ADEType("A", 3)
        with pytest.raises(AttributeError):
            t.index = 4
        assert sorted([ADEType("E", 6), ADEType("A", 7), ADEType("D", 5)]) \
            == [ADEType("A", 7), ADEType("D", 5), ADEType("E", 6)]


class TestFixGroupLabels:
    def test_parse_and_orders(self):
        cases = {
            "id": 1, "Z2": 2, "Z3": 3, "Z4": 4,
            "Z2xZ2": 4, "D3": 6, "T": 12, "O": 24, "I": 60,
        }
        for label, order in cases.items():
            assert binary_quotient(label)[0] == order
        # every fix group data.NODES prints is among them
        assert {row[2] for row in data.NODES.values()} <= set(cases)

    def test_d2_is_klein_four(self):
        assert binary_quotient("Z2xZ2") == binary_quotient("D2") \
            == (4, ADEType("D", 4))

    def test_validation(self):
        # Z1 and D1 are not written so; "1" is no alias of id; the
        # parameter is not truncated
        for label in ("Q8", "Zx", "Z1", "D1", "T3", "Z2.5", "", "1", "Z02",
                      " T", "Z2xZ3", 2, None):
            with pytest.raises(ValueError, match="rotation-group label"):
                binary_quotient(label)


class TestBinaryQuotientType:
    def test_classical_map(self):
        cases = [
            ("id", ADEType("A", 1)),
            ("Z2", ADEType("A", 3)),
            ("Z3", ADEType("A", 5)),
            ("Z4", ADEType("A", 7)),
            ("Z5", ADEType("A", 9)),
            ("Z6", ADEType("A", 11)),
            ("Z2xZ2", ADEType("D", 4)),
            ("D2", ADEType("D", 4)),
            ("D3", ADEType("D", 5)),
            ("D4", ADEType("D", 6)),
            ("D5", ADEType("D", 7)),
            ("T", ADEType("E", 6)),
            ("O", ADEType("E", 7)),
            ("I", ADEType("E", 8)),
        ]
        for label, expect in cases:
            assert binary_quotient(label)[1] == expect

    def test_rank_vs_binary_order(self):
        # for cyclic F the resolution has |F~| - 1 curves
        for n in range(2, 7):
            order, sing = binary_quotient("Z%d" % n)
            assert sing.rank == 2 * order - 1


class TestPointClassifiers:
    def test_quadric_point_rules(self):
        assert quadric_point_singularity(3) == ADEType("A", 2)
        assert quadric_point_singularity(4) == ADEType("A", 3)
        assert quadric_point_singularity(2) == ADEType("A", 1)
        with pytest.raises(ValueError):
            quadric_point_singularity(1)


EXPECTED_NODE_SING = {
    "TxV": ["D4", "A1", "A1", "D4"],
    "TT1": ["3E6", "3A5", "A1", "D4"],
    "VxV": ["3D4", "3A1", "3A1", "3D4"],
    "OxT": ["E6", "D4", "A3", "A5"],
    "OO2": ["2E7", "A7", "A3", "2D5"],
    "TxT": ["2E6", "A3", "A1", "2A5"],
}


class TestNodeDataset:
    @pytest.mark.parametrize("label", sorted(DEGREES))
    def test_counts_and_orbit_formula(self, label):
        ns = (12, 48, 48, 12) if DEGREES[label] == 6 else (24, 72, 144, 96)
        recs = node_records(label)
        ph = pgroup(label).order()
        assert [r.node_count for r in recs] == list(ns)
        for r in recs:
            order = binary_quotient(r.fix_group)[0]
            assert r.orbit_count * ph == r.node_count * order

    @pytest.mark.parametrize("label", sorted(EXPECTED_NODE_SING))
    def test_node_singularity_cells(self, label):
        got = []
        for rec in node_records(label):
            count, t = rec.orbit_count, binary_quotient(rec.fix_group)[1]
            got.append(str(t) if count == 1 else "%d%s" % (count, t))
        assert got == EXPECTED_NODE_SING[label]

    def test_record_validation(self):
        with pytest.raises(ValueError, match="divide"):
            NodeOrbitRecord("TxV", 1, 12, 5, "id")
        with pytest.raises(ValueError):
            NodeOrbitRecord("TxV", 1, 12, 1, "Q8")
        # the fiber is an int 1..4: 1.0 and True would pass as 1
        for fiber in (1.0, True, 0, 5):
            with pytest.raises(ValueError, match="fiber"):
                NodeOrbitRecord("TxV", fiber, 12, 1, "id")
        # the fix group keeps its printed label
        rec = NodeOrbitRecord("TxV", 1, 12, 1, "Z2xZ2")
        assert rec.fix_group == "Z2xZ2"
        assert repr(rec) == \
            "NodeOrbitRecord('TxV', 1, ns=12, orbits=1, F=Z2xZ2)"
        # counts are positive integers: no division by zero, no
        # fractional or negative orbits
        for ns, orbits in ((12, 0), (12, 1.5), (12, -3), (-12, 1)):
            with pytest.raises(ValueError):
                NodeOrbitRecord("TxV", 1, ns, orbits, "id")

    def test_records_are_cached_and_immutable(self):
        recs = node_records("OO2")
        assert recs is node_records("OO2")
        with pytest.raises(TypeError):
            recs[0] = None
        with pytest.raises(AttributeError):
            recs[0].node_count = 0

    def test_meeting_lines_parse(self):
        # a term names fix-line columns: N(N') is N and N', Mi the
        # numbered M columns; an exact column name wins (VxV's Mij)
        assert node_records("OO2")[0].line_incidences == (
            (("R",), 3), (("N", "N'"), 4), (("M",), 6))
        assert node_records("OxT")[1].line_incidences == (
            (("M",), 1), (("M'",), 2))
        assert node_records("VxV")[0].line_incidences == ((("Mij",), 3),)
        assert parse_meeting_lines("TT1", "3Mi+4N") == (
            (("M1", "M2", "M3"), 3), (("N",), 4))
        assert parse_meeting_lines("TT1", "4N(N')") == ((("N",), 4),)
        with pytest.raises(ValueError, match="'2R'"):
            parse_meeting_lines("TxT", "1M+2R")


class TestFixlineColumns:
    @pytest.mark.parametrize("label", sorted(DEGREES))
    def test_every_printed_column_is_mapped(self, label):
        columns = fixline_columns(label)
        printed = [r for r in data.FIXLINES if r[0] == label]
        assert sorted(columns) == sorted(r[1] for r in printed)
        for _, name, _rep, fix, _length, _ratio, classes in printed:
            assert len(columns[name]) == classes
            assert {row.fix_order for row in columns[name]} == {fix}
        # the columns share out the computed rows, each row once
        mapped = [row for rows in columns.values() for row in rows]
        assert len(mapped) == len(set(mapped))
        assert set(mapped) == set(fixlines_table(label))

    def test_each_call_returns_a_fresh_dict(self):
        columns = fixline_columns("OO2")
        columns.clear()
        assert fixline_columns("OO2")


def _quadric_cells(label):
    return ["%d%s" % (r.number, quadric_point_singularity(r.transversal_order))
            for r in quadric_point_rows(Surface(label, DEGREES[label]))]


def _offquadric_cells(label):
    return ["%d%s" % (n, ADEType("A", r.order - 1))
            for r, n in offquadric_orbits(Surface(label, DEGREES[label]))]


class TestSingularityReports:
    def test_quadric_cells(self):
        assert _quadric_cells("TxV") == ["6A2"]
        assert _quadric_cells("TT1") == []
        assert _quadric_cells("VxV") == []
        assert sorted(_quadric_cells("OxT")) == ["1A1", "2A1", "2A3"]
        assert _quadric_cells("OO2") == ["1A1", "1A1"]
        assert _quadric_cells("TxT") == ["2A1", "2A1"]

    def test_offquadric_cells(self):
        assert _offquadric_cells("TT1") == ["1A1", "1A1", "1A1", "6A2"]
        assert _offquadric_cells("OO2") == ["4A1", "1A2", "1A2", "2A3"]
        assert _offquadric_cells("VxV") == ["1A1"] * 9


class TestOffquadricOrbits:
    @pytest.mark.parametrize("label", sorted(DEGREES))
    def test_nodes_only_take_points(self, label):
        # row for row in fixlines_table order, each singular count
        # between 0 and the smooth one
        degree = DEGREES[label]
        smooth = [n for _, n in offquadric_orbits(Surface(label, degree))]
        for fiber in (1, 2, 3, 4):
            pairs = offquadric_orbits(Surface(label, degree, fiber))
            assert [r for r, _ in pairs] == list(fixlines_table(label))
            assert all(0 <= n <= s for (_, n), s in zip(pairs, smooth))

    def test_members_without_meeting_lines_keep_every_orbit(self):
        # the six members whose nodes lie on no transversal fix-line
        empty = sorted(key for key, row in data.NODES.items() if not row[3])
        assert empty == [("TT1", 3), ("TxT", 3), ("TxV", 2), ("TxV", 3),
                         ("VxV", 2), ("VxV", 3)]
        for label, fiber in empty:
            assert offquadric_orbits(Surface(label, DEGREES[label], fiber)) \
                == offquadric_orbits(Surface(label, DEGREES[label]))

    def test_oo2_lambda1(self):
        # the recomputed nu3 = 2 of the known OO2 lambda1 deviation
        got = [(r.type_tag, r.length, n)
               for r, n in offquadric_orbits(Surface("OO2", 8, 1))]
        assert got == [("M", 72, 2), ("N", 16, 0), ("N", 16, 0),
                       ("R", 18, 0)]

    def test_invalid_fiber(self):
        # the Surface refuses it before any count is taken; 1.0 and
        # True compare equal to 1 but are no member index
        for fiber in (0, 5, "1", "smooth", 1.0, True):
            with pytest.raises(ValueError, match="fiber must be"):
                offquadric_orbits(Surface("TxV", 6, fiber))


SMOOTH_NU = {
    "TxV": (4, 12, 3, 0, 19),
    "TT1": (2, 0, 15, 0, 17),
    "VxV": (6, 0, 9, 0, 15),
    "OxT": (3, 9, 7, 0, 19),
    "OO2": (2, 2, 14, 0, 18),
    "TxT": (4, 4, 10, 0, 18),
}

# recomputed (nu3, nu4, nu) per fiber; the OO2 fiber-1 components come
# out (2, 14) against a printed (0, 16) with the same total 20 -- the
# printed pair contradicts that row's own 2E7 cell, see the verification
# dataset flags
SINGULAR_NU = {
    "TxV": [(0, 4, 20), (3, 1, 20), (3, 1, 20), (0, 4, 20)],
    "TT1": [(0, 18, 20), (3, 15, 20), (15, 1, 18), (12, 4, 18)],
    "VxV": [(0, 12, 18), (9, 3, 18), (9, 3, 18), (0, 12, 18)],
    "OxT": [(2, 6, 20), (4, 4, 20), (5, 3, 20), (3, 5, 20)],
    "OO2": [(2, 14, 20), (8, 7, 19), (12, 3, 19), (6, 10, 20)],
    "TxT": [(0, 12, 20), (8, 3, 19), (10, 1, 19), (2, 10, 20)],
}


class TestNuTotals:
    @pytest.mark.parametrize("label", sorted(SMOOTH_NU))
    def test_smooth(self, label):
        assert nu_totals(Surface(label, DEGREES[label])) == SMOOTH_NU[label]

    @pytest.mark.parametrize("label", sorted(SINGULAR_NU))
    def test_singular_fibers(self, label):
        n1, n2 = SMOOTH_NU[label][:2]
        for fiber in (1, 2, 3, 4):
            n3, n4, nu = SINGULAR_NU[label][fiber - 1]
            got = nu_totals(Surface(label, DEGREES[label], fiber))
            assert got == (n1, n2, n3, n4, nu)

    @pytest.mark.parametrize("context, want", [
        ("Y_TT", (2, 8, 9, 0, 19)),
        ("Y_OO", (2, 8, 9, 0, 19)),
        ("O_Lbar", SMOOTH_NU["TxT"]),
    ])
    def test_surfaces_by_context(self, context, want):
        # TxT is O_Lbar at degree 8 and Y_TT at degree 6: each surface
        # carries its own degree, with no module global overwritten
        assert nu_totals(surface(context)) == want
