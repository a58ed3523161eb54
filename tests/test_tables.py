"""Config format round-trips and the table verification engine."""

import hashlib
import json
from pathlib import Path

import pytest

from k3pencils import data
from k3pencils.config import ConfigError, emit_config, parse_config
from k3pencils.groups import Surface
from k3pencils.lattices import discriminant
from k3pencils.singularities import nu_totals
from k3pencils.tables import (
    KNOWN_DEVIATIONS,
    _ade_sum,
    emit_report,
    group_registry,
    run_verification,
    tally,
)

SMALL = """\
# a pair of A2 chains with a named class
curve L1
curve L2
curve L3 self=-4
edge L1 L2
edge L2 L3 mult=2

class v = +L1 +L1 -L2
class v = +L3
"""


class TestParseConfig:
    def test_curves_and_edges(self):
        cfg = parse_config(SMALL)
        assert list(cfg.graph.curves) == ["L1", "L2", "L3"]
        assert cfg.graph.curves["L3"] == -4
        assert cfg.graph.curves["L1"] == -2
        assert cfg.graph.edges[frozenset(("L1", "L2"))] == 1
        assert cfg.graph.edges[frozenset(("L2", "L3"))] == 2

    def test_class_terms_accumulate(self):
        cfg = parse_config(SMALL)
        # "+L1 +L1" means coefficient 2, the later line extends v
        assert cfg.classes["v"] == {"L1": 2, "L2": -1, "L3": 1}
        assert list(cfg.classes) == ["v"]

    def test_comments_and_blanks_skipped(self):
        cfg = parse_config("\n  # nothing here\ncurve A  # trailing\n\n")
        assert list(cfg.graph.curves) == ["A"]

    def test_empty_text(self):
        cfg = parse_config("")
        assert not cfg.graph.curves
        assert not cfg.classes


class TestParseErrors:
    def test_unknown_directive(self):
        with pytest.raises(ConfigError, match="line 1: unknown directive"):
            parse_config("vertex A\n")

    def test_duplicate_curve(self):
        with pytest.raises(ConfigError, match="line 3:.*twice"):
            parse_config("curve A\n\ncurve A\n")

    def test_self_edge(self):
        with pytest.raises(ConfigError, match="line 2:.*itself"):
            parse_config("curve A\nedge A A\n")

    def test_bad_integer(self):
        with pytest.raises(ConfigError, match="bad integer"):
            parse_config("curve A self=minus2\n")

    def test_unsigned_class_term(self):
        with pytest.raises(ConfigError, match="needs a sign"):
            parse_config("curve A\nclass v = A\n")

    def test_unknown_curve_in_class(self):
        with pytest.raises(ConfigError, match="line 2: unknown curve 'L9'"):
            parse_config("curve A\nclass v = +L9\n")

    def test_unknown_curve_in_edge(self):
        with pytest.raises(ConfigError, match="unknown curve"):
            parse_config("curve A\nedge A B\n")

    def test_class_needs_equals(self):
        with pytest.raises(ConfigError, match="usage: class"):
            parse_config("curve A\nclass v +A\n")

    def test_error_is_value_error(self):
        # callers that only know ValueError still catch config problems
        with pytest.raises(ValueError):
            parse_config("bogus\n")


class TestEmitConfig:
    def test_round_trip_small(self):
        cfg = parse_config(SMALL)
        again = parse_config(emit_config(cfg))
        assert again.graph.curves == cfg.graph.curves
        assert again.graph.edges == cfg.graph.edges
        assert again.classes == cfg.classes

    def test_round_trip_dataset_configs(self):
        for _ctx, _name, _p, text in data.DIVISIBLE_CLASSES:
            cfg = parse_config(text)
            again = parse_config(emit_config(cfg))
            assert again.graph.curves == cfg.graph.curves
            assert again.graph.edges == cfg.graph.edges
            assert again.classes == cfg.classes

    def test_empty(self):
        assert emit_config(parse_config("")) == ""

    def test_negative_coefficients_survive(self):
        text = "curve A\ncurve B\nclass v = -A -A +B\n"
        again = parse_config(emit_config(parse_config(text)))
        assert again.classes["v"] == {"A": -2, "B": 1}

    @pytest.mark.parametrize("terms, want", [
        ("+A -A", {"A": 0}),
        ("-B +A +B -A", {"B": 0, "A": 0}),
        ("+A +A -A +B -B -B", {"A": 1, "B": -1}),
        ("+A -A +B +B +B", {"A": 0, "B": 3}),
    ])
    def test_round_trip_is_exact_for_cancelling_and_repeated_terms(
            self, terms, want):
        cfg = parse_config("curve A\ncurve B\nclass v = %s\n" % terms)
        assert cfg.classes == {"v": want}
        again = parse_config(emit_config(cfg))
        assert again.classes == cfg.classes
        assert list(again.classes["v"].items()) == list(want.items())
        assert emit_config(again) == emit_config(cfg)


@pytest.fixture(scope="module")
def all_results():
    return run_verification("all")


class TestExpectedTable:
    def test_every_table_nonempty(self, all_results):
        for table_id in data.TABLE_IDS:
            results = run_verification(table_id)
            assert len(results) > 0
            assert {r.table_id for r in results} == {table_id}
            assert results == [r for r in all_results
                               if r.table_id == table_id]


class TestRunVerification:
    def test_full_run_statuses(self, all_results):
        ok, known, fail = tally(all_results)
        assert fail == 0
        assert known == len(KNOWN_DEVIATIONS)
        assert ok + known == len(all_results)

    def test_deviating_cells_are_the_registered_ones(self, all_results):
        flagged = {(r.table_id, r.key) for r in all_results
                   if r.status == "known-deviation"}
        assert flagged == set(KNOWN_DEVIATIONS)

    def test_deviation_values_match_registry(self, all_results):
        for r in all_results:
            if r.status == "known-deviation":
                assert r.computed == KNOWN_DEVIATIONS[(r.table_id, r.key)]
                assert r.computed != r.expected

    def test_single_table_scope(self):
        results = run_verification("sec3.subgroups")
        assert results
        assert {r.table_id for r in results} == {"sec3.subgroups"}
        assert all(r.status == "ok" for r in results)

    def test_scope_order_matches_table_ids(self, all_results):
        seen = []
        for r in all_results:
            if r.table_id not in seen:
                seen.append(r.table_id)
        assert tuple(seen) == data.TABLE_IDS

    def test_class_count_mismatch_fails_its_cells(self, monkeypatch):
        # TxV prints three |F_L| = 2 columns of one class each; with M1
        # at two classes they no longer add up to the three computed
        # rows, so the fix-line and off-quadric cells of those columns
        # give way to one count cell each
        patched = tuple(r[:6] + (2,) if r[:2] == ("TxV", "M1") else r
                        for r in data.FIXLINES)
        monkeypatch.setattr(data, "FIXLINES", patched)
        results = (run_verification("sec4.fixlines")
                   + run_verification("sec5.sing"))
        failed = {(r.table_id, r.key): (r.expected, r.computed)
                  for r in results if r.status == "FAIL"}
        assert failed == {("sec4.fixlines", "TxV.classes(o=2)"): (4, 3),
                          ("sec5.sing", "TxV.lines(o=2)"): (4, 3)}
        assert not any(r.key.startswith("TxV.M") for r in results)
        # the node incidences name those columns: nu cannot place them
        with pytest.raises(ValueError, match="TxV lambda1"):
            nu_totals(Surface("TxV", 6, 1))

    def test_unknown_scope(self):
        with pytest.raises(ValueError, match="unknown table"):
            run_verification("sec0.nope")

    def test_deterministic(self):
        a = run_verification("sec8.discs")
        b = run_verification("sec8.discs")
        assert [(r.key, r.status) for r in a] == \
               [(r.key, r.status) for r in b]


class TestEmitReport:
    def test_tsv_shape(self, all_results):
        text = emit_report(all_results, "tsv")
        lines = text.splitlines()
        assert lines[0] == "table\tkey\texpected\tcomputed\tstatus"
        assert len(lines) == len(all_results) + 1
        assert all(line.count("\t") == 4 for line in lines)
        assert text.endswith("\n")

    def test_markdown_shape(self, all_results):
        text = emit_report(all_results, "markdown")
        lines = text.splitlines()
        assert lines[0].startswith("| table | key |")
        assert set(lines[1]) <= set("|-")
        assert len(lines) == len(all_results) + 2

    def test_bool_and_dict_formatting(self):
        results = run_verification("sec7.divisible")
        text = emit_report(results, "tsv")
        assert "\tyes\t" in text
        results = run_verification("sec4.rulings")
        text = emit_report(results, "tsv")
        assert "2:" in text  # dict cells come out as "order:lengths"

    def test_unknown_format(self, all_results):
        with pytest.raises(ValueError, match="unknown report format"):
            emit_report(all_results, "yaml")

    def test_report_matches_pinned_reference(self, all_results):
        # the benchmark pins the full report; it must stay byte-identical
        refs = Path(__file__).resolve().parents[1] / "benchmarks" / \
            "k3bench" / "refs.json"
        want = json.loads(refs.read_text())["verify"]
        text = emit_report(all_results)
        assert hashlib.sha256(text.encode()).hexdigest() == want["sha256"]
        summary = "%d cells: %d ok, %d known deviations, %d failures" % (
            (len(all_results),) + tally(all_results))
        assert summary == want["summary"]


class TestAdeSum:
    # the count is all leading digits, the block all the rest
    @pytest.mark.parametrize("text, rank, disc", [
        ("A11", 11, -12), ("2D10", 20, 4 ** 2), ("12A1", 12, 2 ** 12),
        ("3A1", 3, -(2 ** 3)), ("E8", 8, 1)])
    def test_count_and_block(self, text, rank, disc):
        lat = _ade_sum(text)
        assert (lat.rank, discriminant(lat)) == (rank, disc)

    @pytest.mark.parametrize("text", ["2X3", "0A1", "12", "", "2D3", "A"])
    def test_bad_symbol(self, text):
        with pytest.raises(ValueError, match="cannot parse|needs"):
            _ade_sum(text)


class TestGroupRegistry:
    def test_seven_groups(self):
        rows = group_registry()
        assert len(rows) == 7
        by_label = {label: (order, porder) for label, order, porder in rows}
        assert by_label["TxT"] == (288, 144)
        assert by_label["OxO"] == (1152, 576)
        for _label, order, porder in rows:
            assert order == 2 * porder
