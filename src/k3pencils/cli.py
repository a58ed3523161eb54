"""Command line front end.

Exit codes: 0 on success, 1 when verification finds any deviating
cell, 2 on usage or input errors.
"""

import argparse
import sys

from .config import ConfigError, parse_config
from .geometry import fixlines_table, orbits_on_ruling, quadric_point_rows
from .groups import AMBIENT, DEFAULT_DEGREE, GROUP_LABELS, Surface, pgroup
from .lattices import (
    adjoin_class,
    discriminant,
    discriminant_group,
    divisor_class,
    gram_from_graph,
    is_p_divisible,
    nikulin_count_check,
)
from .singularities import binary_quotient, node_records, nu_totals, \
    offquadric_orbits
from .tables import emit_report, group_registry, run_verification, tally


def _fail(msg):
    print("error: %s" % msg, file=sys.stderr)
    return 2


def _check_label(label, pencil_only=None):
    if label not in GROUP_LABELS:
        raise ConfigError("unknown group %r (choose from %s)"
                          % (label, ", ".join(GROUP_LABELS)))
    if pencil_only and AMBIENT[DEFAULT_DEGREE[label]] == label:
        raise ConfigError("%s exist for the six pencil groups" % pencil_only)


def cmd_groups(args):
    print("label  order  projective")
    for label, order, proj in group_registry():
        print("%-5s  %5d  %10d" % (label, order, proj))
    return 0


def cmd_orbits(args):
    _check_label(args.group)
    pg = pgroup(args.group)
    sides = ("left", "right") if args.side == "both" else (args.side,)
    for side in sides:
        table = orbits_on_ruling(pg, side)
        cells = ["%d: %s" % (o, " ".join(str(n) for n in table[o]))
                 for o in sorted(table)]
        print("%s %-5s  %s" % (args.group, side, "   ".join(cells)))
    return 0


def cmd_fixlines(args):
    _check_label(args.group, "fix-line tables")
    print("type  o(L)  |F|  length  |H|/|F|")
    for row in fixlines_table(args.group):
        print("%-4s  %4d  %3d  %6d  %7d" % (
            row.type_tag, row.order, row.fix_order, row.length, row.ratio))
    return 0


def cmd_sing(args):
    _check_label(args.group, "singular loci")
    smooth = Surface(args.group, DEFAULT_DEGREE[args.group])
    print("# points on the quadric")
    for row in quadric_point_rows(smooth):
        print("Z%dxZ%d  length %d  orbits %d" % (
            row.fix + (row.length, row.number)))
    print("# points off the quadric")
    for row, n in offquadric_orbits(smooth):
        print("%-4s o=%d  length %d  orbits %d" % (
            row.type_tag, row.order, row.ratio, n))
    print("# nodes of the singular members")
    for rec in node_records(args.group):
        _order, t = binary_quotient(rec.fix_group)
        print("lambda%d  ns %d  orbits %d  F %s  sing %d x %s" % (
            rec.fiber, rec.node_count, rec.orbit_count,
            rec.fix_group, rec.orbit_count, t))
    return 0


def cmd_nu(args):
    _check_label(args.group, "curve counts")
    fibers = ([None, 1, 2, 3, 4] if args.fiber == "smooth"
              else [int(args.fiber)])
    for fiber in fibers:
        surface = Surface(args.group, DEFAULT_DEGREE[args.group], fiber)
        n1, n2, n3, n4, n = nu_totals(surface)
        tag = "smooth" if fiber is None else "lambda%d" % fiber
        print("%-8s nu1 %2d  nu2 %2d  nu3 %2d  nu4 %2d  total %2d" % (
            tag, n1, n2, n3, n4, n))
    return 0


def _load_config(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(str(exc))
    return parse_config(text)


def _pick_class(cfg, name):
    if not cfg.classes:
        raise ConfigError("config declares no classes")
    if name is None:
        if len(cfg.classes) > 1:
            raise ConfigError("config has several classes, pass --class")
        name = next(iter(cfg.classes))
    if name not in cfg.classes:
        raise ConfigError("unknown class %r (config has %s)"
                          % (name, ", ".join(cfg.classes)))
    return name


def cmd_lattice(args):
    cfg = _load_config(args.config)
    lat = gram_from_graph(cfg.graph)
    if args.what in ("disc", "group"):
        # whole-lattice reports; still reject a wrong --class name
        if args.cls is not None:
            _pick_class(cfg, args.cls)
        if args.what == "disc":
            print("rank %d  disc %d" % (lat.rank, discriminant(lat)))
        else:
            print(discriminant_group(lat))
        return 0
    name = _pick_class(cfg, args.cls)
    v = divisor_class(lat, cfg.classes[name])
    if args.what == "divisible":
        div = is_p_divisible(lat, v, args.p)
        print("%s is %sdivisible by %d" % (name, "" if div else "not ",
                                           args.p))
        if args.p in (2, 3):
            try:
                count = nikulin_count_check(lat, v, args.p)
            except ValueError as exc:
                print("support check: %s" % exc)
            else:
                print("support check: %s" % ("passed" if count
                                             else "wrong curve count"))
        return 0 if div else 1
    if not is_p_divisible(lat, v, args.p):
        return _fail("%s is not divisible by %d, cannot adjoin"
                     % (name, args.p))
    bigger = adjoin_class(lat, v, args.p)
    print("disc %d -> %d (rank %d)" % (
        discriminant(lat), discriminant(bigger), bigger.rank))
    return 0


def cmd_verify(args):
    results = run_verification(args.table)
    report = emit_report(results, args.format)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(report)
        except OSError as exc:
            return _fail(exc)
    else:
        sys.stdout.write(report)
    ok, known, fail = tally(results)
    print("%d cells: %d ok, %d known deviations, %d failures"
          % (len(results), ok, known, fail), file=sys.stderr)
    return 0 if ok == len(results) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="k3pencils",
        description="recompute the invariant tables of six K3 quotient"
                    " pencils from their group generators")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("groups", help="list the registered groups")

    p = sub.add_parser("orbits", help="line orbits on the two rulings")
    p.add_argument("group")
    p.add_argument("--side", choices=("left", "right", "both"),
                   default="both")

    p = sub.add_parser("fixlines", help="transversal fix-line orbits")
    p.add_argument("group")

    p = sub.add_parser("sing", help="singular loci of one quotient")
    p.add_argument("group")

    p = sub.add_parser("nu", help="rational curve counts")
    p.add_argument("group")
    p.add_argument("--fiber", default="smooth",
                   choices=("smooth", "1", "2", "3", "4"))

    p = sub.add_parser("lattice", help="lattice computations on a config")
    p.add_argument("what", choices=("disc", "group", "divisible", "adjoin"))
    p.add_argument("config", help="path to a curve-graph config file")
    p.add_argument("--class", dest="cls", default=None,
                   help="class name, when the config has several")
    p.add_argument("-p", type=int, default=2, choices=(2, 3, 4),
                   help="divisor of the class (default 2)")

    p = sub.add_parser("verify", help="recompute the embedded tables")
    p.add_argument("--table", default="all",
                   help="table id, or all (default)")
    p.add_argument("--format", choices=("tsv", "markdown"), default="tsv")
    p.add_argument("--output", default=None,
                   help="write the report to a file instead of stdout")

    return parser


_COMMANDS = {
    "groups": cmd_groups,
    "orbits": cmd_orbits,
    "fixlines": cmd_fixlines,
    "sing": cmd_sing,
    "nu": cmd_nu,
    "lattice": cmd_lattice,
    "verify": cmd_verify,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:  # ConfigError is a ValueError
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
