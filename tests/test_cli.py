"""Command line surface: exit codes and output shapes."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from k3pencils.cli import main
from k3pencils.config import ConfigError, parse_config

SIX_A2 = "\n".join(
    ["curve P%d\ncurve Q%d\nedge P%d Q%d" % (i, i, i, i)
     for i in range(1, 7)]
    + ["class v = " + " ".join("+P%d -Q%d" % (i, i) for i in range(1, 7))]
) + "\n"

MEETING_PAIR = """\
curve L1
curve L2
edge L1 L2
class v = +L1 -L2
"""


@pytest.fixture
def six_a2(tmp_path):
    path = tmp_path / "six_a2.cfg"
    path.write_text(SIX_A2)
    return str(path)


class TestGroups:
    def test_lists_all_seven(self, capsys):
        assert main(["groups"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].split() == ["label", "order", "projective"]
        assert len(lines) == 8
        assert "OxO" in out and "1152" in out and "576" in out

    def test_order_column_doubles_projective(self, capsys):
        main(["groups"])
        out = capsys.readouterr().out
        for line in out.strip().splitlines()[1:]:
            _label, order, porder = line.split()
            assert int(order) == 2 * int(porder)


class TestOrbits:
    def test_both_sides_default(self, capsys):
        assert main(["orbits", "TxV"]) == 0
        out = capsys.readouterr().out
        assert "TxV left" in out
        assert "TxV right" in out
        assert "3: 4 4" in out

    def test_single_side(self, capsys):
        assert main(["orbits", "OxT", "--side", "left"]) == 0
        out = capsys.readouterr().out
        assert "left" in out
        assert "right" not in out

    def test_unknown_group(self, capsys):
        assert main(["orbits", "XYZ"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "unknown group" in err


class TestFixlines:
    def test_header_and_rows(self, capsys):
        assert main(["fixlines", "TxV"]) == 0
        out = capsys.readouterr().out
        assert "type  o(L)" in out
        assert "|H|/|F|" in out

    def test_vxv_has_nine_classes(self, capsys):
        main(["fixlines", "VxV"])
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 1 + 9

    def test_ambient_group_rejected(self, capsys):
        assert main(["fixlines", "OxO"]) == 2
        assert "six pencil groups" in capsys.readouterr().err


class TestSing:
    def test_sections_present(self, capsys):
        assert main(["sing", "OxT"]) == 0
        out = capsys.readouterr().out
        assert "# points on the quadric" in out
        assert "# points off the quadric" in out
        assert "# nodes of the singular members" in out

    def test_node_rows(self, capsys):
        main(["sing", "OxT"])
        out = capsys.readouterr().out
        assert "lambda1  ns 24  orbits 1  F T  sing 1 x E6" in out
        assert "lambda3  ns 144" in out

    def test_quadric_points(self, capsys):
        main(["sing", "TxV"])
        out = capsys.readouterr().out
        assert "Z3xZ2  length 8  orbits 6" in out


class TestNu:
    def test_smooth_prints_all_fibers(self, capsys):
        assert main(["nu", "TxV"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("smooth")
        assert "total 19" in lines[0]
        assert all("total 20" in line for line in lines[1:])

    def test_single_fiber(self, capsys):
        assert main(["nu", "TT1", "--fiber", "2"]) == 0
        out = capsys.readouterr().out
        assert out.strip().splitlines() == [
            "lambda2  nu1  2  nu2  0  nu3  3  nu4 15  total 20"]

    def test_recomputed_not_transcribed(self, capsys):
        # the one table row whose printed totals disagree with the count
        main(["nu", "OO2", "--fiber", "1"])
        out = capsys.readouterr().out
        assert "nu3  2" in out
        assert "nu4 14" in out


class TestLattice:
    def test_disc(self, six_a2, capsys):
        assert main(["lattice", "disc", six_a2]) == 0
        assert "rank 12  disc 729" in capsys.readouterr().out

    def test_group(self, six_a2, capsys):
        assert main(["lattice", "group", six_a2]) == 0
        out = capsys.readouterr().out.strip()
        assert out == " x ".join(["Z3"] * 6)

    def test_divisible_yes(self, six_a2, capsys):
        assert main(["lattice", "divisible", six_a2, "-p", "3"]) == 0
        out = capsys.readouterr().out
        assert "v is divisible by 3" in out
        assert "support check: passed" in out

    def test_divisible_no_exits_1(self, six_a2, capsys):
        assert main(["lattice", "divisible", six_a2, "-p", "2"]) == 1
        assert "not divisible by 2" in capsys.readouterr().out

    def test_divisible_meeting_support(self, tmp_path, capsys):
        path = tmp_path / "pair.cfg"
        path.write_text(MEETING_PAIR)
        assert main(["lattice", "divisible", str(path), "-p", "2"]) == 1
        out = capsys.readouterr().out
        assert "support curves L1 and L2 meet" in out

    def test_adjoin(self, six_a2, capsys):
        assert main(["lattice", "adjoin", six_a2, "-p", "3"]) == 0
        assert "disc 729 -> 81 (rank 12)" in capsys.readouterr().out

    def test_adjoin_not_divisible(self, six_a2, capsys):
        assert main(["lattice", "adjoin", six_a2, "-p", "2"]) == 2
        assert "cannot adjoin" in capsys.readouterr().err

    def test_missing_class(self, tmp_path, capsys):
        path = tmp_path / "bare.cfg"
        path.write_text("curve A\ncurve B\nedge A B\n")
        assert main(["lattice", "divisible", str(path)]) == 2
        assert "declares no classes" in capsys.readouterr().err

    def test_wrong_class_name(self, six_a2, capsys):
        assert main(["lattice", "disc", six_a2, "--class", "w"]) == 2
        assert "unknown class 'w'" in capsys.readouterr().err

    def test_parse_error_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.cfg"
        path.write_text("curve A\nridge A B\n")
        assert main(["lattice", "disc", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err
        assert "unknown directive" in err

    def test_node_directive_is_not_config(self, tmp_path, capsys):
        text = "node TxV 1 count=12 orbits=1 fix=Z2xZ2\n"
        with pytest.raises(ConfigError, match="line 1: unknown directive"):
            parse_config(text)
        path = tmp_path / "node.cfg"
        path.write_text(text)
        assert main(["lattice", "disc", str(path)]) == 2
        assert "line 1: unknown directive 'node'" in capsys.readouterr().err


class TestVerify:
    def test_clean_table_exits_0(self, capsys):
        assert main(["verify", "--table", "sec8.discs"]) == 0
        captured = capsys.readouterr()
        assert "0 known deviations, 0 failures" in captured.err
        assert captured.out.startswith("table\tkey\t")

    def test_deviating_table_exits_1(self, capsys):
        assert main(["verify", "--table", "sec6.nu"]) == 1
        captured = capsys.readouterr()
        assert "2 known deviations, 0 failures" in captured.err
        assert "known-deviation" in captured.out

    def test_unknown_table_exits_2(self, capsys):
        assert main(["verify", "--table", "sec9.bogus"]) == 2
        assert "unknown table" in capsys.readouterr().err

    def test_markdown_format(self, capsys):
        assert main(["verify", "--table", "sec3.subgroups",
                     "--format", "markdown"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("| table | key |")

    def test_output_file(self, tmp_path, capsys):
        dest = tmp_path / "report.tsv"
        assert main(["verify", "--table", "sec3.subgroups",
                     "--output", str(dest)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        text = dest.read_text()
        assert text.startswith("table\tkey\t")
        assert "18 cells" in captured.err


class TestPinnedQueries:
    def test_outputs_match_benchmark_digests(self, capsys):
        # the benchmark pins these 43 outputs byte for byte, so a change
        # of orbit, row or line order shows up here too
        refs = Path(__file__).resolve().parents[1] / "benchmarks" / \
            "k3bench" / "refs.json"
        want = json.loads(refs.read_text())["query"]
        wrong = []
        for call, digest in sorted(want.items()):
            assert main(call.split()) == 0, call
            out = capsys.readouterr().out.encode()
            if hashlib.sha256(out).hexdigest() != digest:
                wrong.append(call)
        assert len(want) == 43
        assert wrong == []


class TestArgparseBehaviour:
    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out.lower()

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_bad_choice(self, capsys):
        assert main(["nu", "TxV", "--fiber", "9"]) == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "k3pencils", "groups"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "TxV" in proc.stdout
    assert "1152" in proc.stdout


def test_octahedral_table_is_built_lazily_and_once():
    # importing the CLI must not pay for the table (setup time of every
    # one-shot command); the first closure builds it, once
    code = ("import k3pencils.cli\n"
            "from k3pencils.groups import binary_octahedral, group\n"
            "info = binary_octahedral.cache_info\n"
            "print(info().currsize)\n"
            "group('VxV')\n"
            "group('OxO')\n"
            "print(info().currsize, info().misses)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "1", "1"]


# argument checks that must hold with asserts compiled out
OPTIMIZED_CASES = (
    ("from k3pencils.algebra import Cyc; Cyc((1,) * 8, 0)",
     "ZeroDivisionError"),
    ("from k3pencils.singularities import NodeOrbitRecord; "
     "NodeOrbitRecord('TxV', 7, 12, 1, 'id')", "ValueError"),
    ("from k3pencils.singularities import nu_totals; "
     "nu_totals('TxV', 6, 7)", "ValueError"),
    ("from k3pencils.lattices import is_p_divisible; "
     "is_p_divisible(None, None, 5)", "ValueError"),
)


def test_validation_survives_python_O():
    for code, exc in OPTIMIZED_CASES:
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 1, code
        assert proc.stderr.strip().splitlines()[-1].startswith(exc + ":"), \
            proc.stderr
