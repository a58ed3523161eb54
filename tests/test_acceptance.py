"""End-to-end acceptance run: ten numbered criteria, one test each.

Every test prints "criterion N: PASS" or "criterion N: FAIL" before its
assertion, so a plain run (pytest -s, or the failure report) shows one
line per criterion.  Criterion 6 is expected to fail: two component
cells of one embedded table row contradict the same row's singularity
type, the recomputation sides with the singularity type, and the test
compares against the table as printed.  The analysis lives next to the
flagged values in the data module and in the verification report
(known-deviation cells).
"""

import random
from fractions import Fraction

from k3pencils import data
from k3pencils.config import parse_config
from k3pencils.geometry import (
    base_locus,
    line_inventory,
    line_orbits,
    meeting_point_orbits,
    orbits_on_ruling,
    pure_fix_points,
    quadric_point_rows,
    ruling_line,
    stabilizer,
)
from k3pencils.groups import (
    AMBIENT,
    DEFAULT_DEGREE,
    GROUP_LABELS,
    Surface,
    group,
    index,
    pgroup,
)
from k3pencils.lattices import (
    ADEType,
    DivisorClass,
    ade_lattice,
    adjoin_class,
    cover_self_intersection,
    direct_sum,
    discriminant,
    divisor_class,
    gram_from_graph,
    index_formula_check,
    is_p_divisible,
    nikulin_count_check,
    smith_normal_form,
)
from k3pencils.singularities import (
    binary_quotient,
    node_records,
    nu_totals,
    offquadric_orbits,
    quadric_point_singularity,
)
from k3pencils.tables import KNOWN_DEVIATIONS, run_verification

from exact_oracles import is_normal

PENCIL_GROUPS = data.GROUP_ORDER


def _report(n, ok):
    print("criterion %d: %s" % (n, "PASS" if ok else "FAIL"))


def _sing(count, ade, keep_one=False):
    if count == 1 and not keep_one:
        return str(ade)
    return "%d%s" % (count, ade)


def test_criterion_01_subgroup_orders_indices_normality():
    mismatches = []
    for label in PENCIL_GROUPS:
        order, ambient, idx = data.SUBGROUPS[label]
        g = group(label)
        amb = group(ambient)
        if g.order() != order:
            mismatches.append("%s order %d != %d" % (label, g.order(), order))
        if index(g, amb) != idx:
            mismatches.append("%s index %d != %d"
                              % (label, index(g, amb), idx))
        if not is_normal(g, amb):
            mismatches.append("%s not normal in %s" % (label, ambient))
    _report(1, not mismatches)
    assert not mismatches, "\n".join(mismatches)


def test_criterion_02_ruling_orbit_tables():
    mismatches = []
    for (label, side), want in data.RULINGS.items():
        got = {o: tuple(lengths)
               for o, lengths in orbits_on_ruling(group(label), side).items()}
        if got != want:
            mismatches.append("%s %s: %r != %r" % (label, side, got, want))
    assert len({label for label, _ in data.RULINGS}) == 6
    # the three rows called out as easy to get wrong
    assert data.RULINGS[("VxV", "left")][2] == (2, 2, 2)
    assert data.RULINGS[("TxV", "left")][3] == (4, 4)
    assert data.RULINGS[("OxT", "left")] == {2: (12,), 3: (8,), 4: (6,)}
    _report(2, not mismatches)
    assert not mismatches, "\n".join(mismatches)


def test_criterion_03_meeting_point_orbits():
    mismatches = []
    per_pair_single = {"TxV", "VxV", "OxT", "TxT"}
    for label in PENCIL_GROUPS:
        pg = pgroup(label)
        lines = base_locus(DEFAULT_DEGREE[label])
        left = [ln for ln in lines if ln.side == "left"]
        right = [ln for ln in lines if ln.side == "right"]
        combined = tuple(meeting_point_orbits(pg, left, right))
        if combined != data.MEETING[label]:
            mismatches.append("%s combined %r != %r"
                              % (label, combined, data.MEETING[label]))
        if label in per_pair_single:
            # each image-line pair downstairs meets in exactly one point
            for lorb in line_orbits(pg, left):
                for rorb in line_orbits(pg, right):
                    orbs = meeting_point_orbits(pg, lorb, rorb)
                    if len(orbs) != 1:
                        mismatches.append(
                            "%s pair (%d x %d lines): %d orbits"
                            % (label, len(lorb), len(rorb), len(orbs)))
    if data.MEETING["TT1"] != (12, 12, 12):
        mismatches.append("TT1 base meeting orbits %r"
                          % (data.MEETING["TT1"],))
    if len(data.MEETING["OO2"]) != 2:
        mismatches.append("OO2 base meeting orbit count %d"
                          % len(data.MEETING["OO2"]))

    # recorded run: TT1 acting on base lines plus the degree-6 ambient
    # group's order-3 ruling fix-lines.  No orbit of length 32 can occur
    # (32 does not divide 48), so only size sanity is asserted here.
    pg = pgroup("TT1")
    amb = group(AMBIENT[6])
    lines = base_locus(6)
    left = [ln for ln in lines if ln.side == "left"]
    right = [ln for ln in lines if ln.side == "right"]
    for side, dest in (("left", left), ("right", right)):
        for pt, o in pure_fix_points(amb, side).items():
            if o == 3:
                dest.append(ruling_line(side, pt))
    lengths = meeting_point_orbits(pg, left, right)
    print("criterion 3 recorded run, TT1 on base + order-3 lines:",
          lengths)
    if sum(lengths) != len(left) * len(right):
        mismatches.append("recorded run misses points: %r" % (lengths,))
    if any(pg.order() % l for l in lengths):
        mismatches.append("recorded run orbit size not dividing %d: %r"
                          % (pg.order(), lengths))
    _report(3, not mismatches)
    assert not mismatches, "\n".join(mismatches)


def test_criterion_04_fixline_tables():
    from k3pencils.geometry import fixlines_table
    mismatches = []
    for label in PENCIL_GROUPS:
        ph = pgroup(label).order()
        for row in fixlines_table(label):
            if row.length * row.stab_order != ph:
                mismatches.append("%s %s-line orbit-stabilizer broken"
                                  % (label, row.type_tag))
            if row.stab_order % row.fix_order:
                mismatches.append("%s %s-line |F| not dividing |H|"
                                  % (label, row.type_tag))
    # spelled-out row: the length-16 N-line orbit with F = Z3 and ratio 1
    n16 = [row for row in fixlines_table("TT1")
           if row.type_tag == "N" and row.length == 16]
    if not (n16 and n16[0].fix_order == 3 and n16[0].ratio == 1):
        mismatches.append("TT1 N-line row (16, Z3, 1) not reproduced")

    # cell-for-cell against the embedded tables; exactly three ratio
    # cells carry a recomputed value (the printed ones fail their own
    # row identity), and those must surface as known deviations
    flagged = set()
    for r in run_verification("sec4.fixlines"):
        if r.status == "FAIL":
            mismatches.append("fix-line cell %s: %r != %r"
                              % (r.key, r.computed, r.expected))
        elif r.status == "known-deviation":
            flagged.add(r.key)
    want_flagged = {key for (tid, key) in KNOWN_DEVIATIONS
                    if tid == "sec4.fixlines"}
    if flagged != want_flagged:
        mismatches.append("flagged ratio cells %r != %r"
                          % (sorted(flagged), sorted(want_flagged)))
    _report(4, not mismatches)
    assert not mismatches, "\n".join(mismatches)


def test_criterion_05_singularity_cells():
    mismatches = []
    for label in PENCIL_GROUPS:
        smooth = Surface(label, DEFAULT_DEGREE[label])
        want = sorted(r[5] for r in data.QUADRIC_POINTS if r[0] == label)
        got = []
        for row in quadric_point_rows(smooth):
            ade = quadric_point_singularity(row.transversal_order)
            got.append(_sing(row.number, ade, keep_one=True))
        if sorted(got) != want:
            mismatches.append("%s quadric sing %r != %r"
                              % (label, sorted(got), want))

        mult_of = {r[1]: r[6] for r in data.FIXLINES if r[0] == label}
        want = sorted(r[5] for r in data.OFFQUADRIC_ROWS if r[0] == label
                      for _ in range(mult_of.get(r[1], 1)))
        got = sorted(_sing(n, ADEType("A", row.order - 1))
                     for row, n in offquadric_orbits(smooth))
        if got != want:
            mismatches.append("%s off-quadric sing %r != %r"
                              % (label, got, want))

        for rec in node_records(label):
            want_sing = data.NODES[(label, rec.fiber)][4]
            got_sing = _sing(rec.orbit_count,
                             binary_quotient(rec.fix_group)[1])
            if got_sing != want_sing:
                mismatches.append("%s lambda%d sing %s != %s"
                                  % (label, rec.fiber, got_sing, want_sing))
    # three spot rows worth naming
    assert data.NODES[("OO2", 1)][4] == "2E7"
    assert data.NODES[("TT1", 2)][4] == "3A5"
    assert data.NODES[("TxV", 1)][4] == "D4"
    _report(5, not mismatches)
    assert not mismatches, "\n".join(mismatches)


def test_criterion_06_nu_tables_as_printed():
    """Expected to fail on two cells of one row.

    The embedded table prints (nu3, nu4) = (0, 16) for the first
    singular member of OO2, but the same row's node type 2E7 forces
    nu4 = 2*7 = 14, and the recomputation gives nu3 = 2 with the row
    total 20 unchanged.  SINGULAR_NU_FIXES carries the recomputed pair;
    the verification report flags both cells.  This test compares
    against the table as printed and is left red on purpose.
    """
    mismatches = []
    for label in PENCIL_GROUPS:
        degree = DEFAULT_DEGREE[label]
        n1, n2, n3, n4, n = nu_totals(Surface(label, degree))
        if (n1, n2, n3, n) != data.SMOOTH_NU[label]:
            mismatches.append("%s smooth (%d,%d,%d,%d) != %r"
                              % (label, n1, n2, n3, n,
                                 data.SMOOTH_NU[label]))
        if n4 != 0:
            mismatches.append("%s smooth nu4 = %d" % (label, n4))
        for fiber in (1, 2, 3, 4):
            got = nu_totals(Surface(label, degree, fiber))[2:]
            want = data.SINGULAR_NU[(label, fiber)]
            if got != want:
                mismatches.append(
                    "%s lambda%d (nu3, nu4, nu) %r != printed %r"
                    % (label, fiber, got, want))
    totals = tuple(data.SMOOTH_NU[label][3] for label in PENCIL_GROUPS)
    assert totals == (19, 17, 15, 19, 18, 18)
    _report(6, not mismatches)
    assert not mismatches, (
        "components recompute differently than printed:\n%s\n"
        "totals all agree; the recomputed pair sits in "
        "data.SINGULAR_NU_FIXES and the report marks both cells "
        "known-deviation" % "\n".join(mismatches))


def test_criterion_07_discriminant_index_identities():
    mismatches = []
    seen = set()
    for ctx, dW2, ps in data.DISC_DROPS:
        # d(W) is the printed discriminant of the member ctx names
        dW = data.PRINTED_DISC[ctx]
        if not index_formula_check(dW, dW2, ps):
            mismatches.append("%s: %d != %d * %r^2" % (ctx, dW, dW2, ps))
        seen.add((dW, dW2, tuple(ps)))
    wanted = {
        (4320, 30, (3, 2, 2)),
        (6048, 168, (2, 3)),
        (-2160, -15, (3, 2, 2)),
        (-8640, -60, (3, 2, 2)),
        (-135, -15, (3,)),
        (-1008, -28, (2, 3)),
        (-4032, -28, (2, 3, 2)),
        (-112, -28, (2,)),
        (-1792, -112, (4,)),
        (-567, -7, (3, 3)),
        (-9072, -28, (3, 3, 2)),
    }
    missing = wanted - seen
    if missing:
        mismatches.append("missing index drops: %r" % (sorted(missing),))
    _report(7, not mismatches)
    assert not mismatches, "\n".join(mismatches)


def test_criterion_08_divisible_class_suite():
    mismatches = []
    names_seen = set()
    for ctx, name, p, text in data.DIVISIBLE_CLASSES:
        names_seen.add(name)
        cfg = parse_config(text)
        lat = gram_from_graph(cfg.graph)
        v = divisor_class(lat, cfg.classes[name])
        tag = "%s %s" % (ctx, name)
        if not is_p_divisible(lat, v, p):
            mismatches.append("%s not divisible by %d" % (tag, p))
            continue
        support = sum(1 for c in v.coeffs if c)
        if p == 2:
            if nikulin_count_check(lat, v, p) is not True:
                mismatches.append("%s fails the 8/16-curve count" % tag)
            if support not in (8, 16):
                mismatches.append("%s support size %d" % (tag, support))
        elif p == 3:
            if nikulin_count_check(lat, v, p) is not True:
                mismatches.append("%s fails the six-pair count" % tag)
            if support != 12:
                mismatches.append("%s support size %d" % (tag, support))
        else:
            # the one 4-divisible class; adjoining v/4 must divide the
            # discriminant by 16^2
            d0 = discriminant(lat)
            bigger = adjoin_class(lat, v, p)
            d1 = discriminant(bigger)
            if (d0, d1) != (1024, 64) or bigger.rank != lat.rank:
                mismatches.append("%s adjoin %d -> %d" % (tag, d0, d1))
    wanted = {"L", "L'", "M", "M'", "Lbar'", "h1", "h2", "k1", "Lbar",
              "kappa", "k1'", "k1''", "W"}
    if not wanted <= names_seen:
        mismatches.append("classes missing from the suite: %r"
                          % sorted(wanted - names_seen))
    _report(8, not mismatches)
    assert not mismatches, "\n".join(mismatches)


def test_criterion_09_ade_determinants():
    mismatches = []
    for n in range(1, 13):
        if discriminant(ade_lattice(ADEType("A", n))) != (-1) ** n * (n + 1):
            mismatches.append("A%d determinant" % n)
    for n in range(4, 13):
        if discriminant(ade_lattice(ADEType("D", n))) != (-1) ** n * 4:
            mismatches.append("D%d determinant" % n)
    for n, d in ((6, 3), (7, -2), (8, 1)):
        if discriminant(ade_lattice(ADEType("E", n))) != d:
            mismatches.append("E%d determinant" % n)
    for text, want in data.COMPONENT_DISCS:
        # strings look like "3A1" or "A1"; split count from symbol
        i = 0
        while text[i].isdigit():
            i += 1
        count = int(text[:i]) if i else 1
        ade = ADEType.parse(text[i:])
        lat = ade_lattice(ade)
        for _ in range(count - 1):
            lat = direct_sum(lat, ade_lattice(ade))
        if discriminant(lat) != want:
            mismatches.append("%s disc %d != %d"
                              % (text, discriminant(lat), want))
    _report(9, not mismatches)
    assert not mismatches, "\n".join(mismatches)


def _fraction_det(m):
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    assert det.denominator == 1
    return det.numerator


def _oracle_divisible(lat, coeffs, p):
    w = [Fraction(c, p) for c in coeffs]
    pair = [sum(Fraction(g) * w[j] for j, g in enumerate(row))
            for row in lat.gram]
    if any(x.denominator != 1 for x in pair):
        return False
    sq = sum(wi * pi for wi, pi in zip(w, pair))
    return sq.denominator == 1 and sq.numerator % 2 == 0


def _ade_sums_up_to_rank(limit):
    symbols = ([ADEType("A", n) for n in range(1, limit + 1)]
               + [ADEType("D", n) for n in range(4, limit + 1)]
               + ([ADEType("E", 6)] if limit >= 6 else []))
    out = []

    def grow(start, chosen, rank):
        if chosen:
            out.append(tuple(chosen))
        for i in range(start, len(symbols)):
            r = rank + symbols[i].rank
            if r <= limit:
                grow(i, chosen + [symbols[i]], r)

    grow(0, [], 0)
    return out


def test_criterion_10_property_suite():
    mismatches = []
    rng = random.Random(20260816)

    # (a) orbit times stabilizer equals the projective group order,
    # on 1000 sampled (group, line) pairs
    pools = {}
    for label in GROUP_LABELS:
        pg = pgroup(label)
        lines = list(line_inventory(pg)) + list(
            base_locus(DEFAULT_DEGREE[label]))
        length_of = {}
        for orb in line_orbits(pg, lines):
            for ln in orb:
                length_of[ln.key] = len(orb)
        pools[label] = (pg, lines, length_of)
    stab_cache = {}
    for _ in range(1000):
        label = rng.choice(GROUP_LABELS)
        pg, lines, length_of = pools[label]
        ln = lines[rng.randrange(len(lines))]
        key = (label, ln.key)
        if key not in stab_cache:
            stab_cache[key] = len(stabilizer(pg, ln))
        if length_of[ln.key] * stab_cache[key] != pg.order():
            mismatches.append("orbit-stabilizer fails for a %s line"
                              % label)
            break

    # (b) modular divisibility test against rational arithmetic on
    # every block sum of rank at most 6
    lattices = []
    for combo in _ade_sums_up_to_rank(6):
        lat = ade_lattice(combo[0])
        for sym in combo[1:]:
            lat = direct_sum(lat, ade_lattice(sym))
        lattices.append(lat)
    agree = disagree = positives = 0
    for lat in lattices:
        for p in (2, 3):
            for _ in range(30):
                coeffs = [rng.randint(-3, 3) for _ in range(lat.rank)]
                got = is_p_divisible(lat, DivisorClass(coeffs), p)
                want = _oracle_divisible(lat, coeffs, p)
                if got == want:
                    agree += 1
                    positives += got
                else:
                    disagree += 1
    if disagree:
        mismatches.append("divisibility disagrees with the rational "
                          "oracle %d times" % disagree)
    # seeded positives so the comparison is not vacuous
    a1_4 = direct_sum(direct_sum(ade_lattice(ADEType("A", 1)),
                                 ade_lattice(ADEType("A", 1))),
                      direct_sum(ade_lattice(ADEType("A", 1)),
                                 ade_lattice(ADEType("A", 1))))
    if not is_p_divisible(a1_4, DivisorClass([1, 1, 1, 1]), 2):
        mismatches.append("four (-2)-classes with even pairing "
                          "should be 2-divisible")
    a2_3 = direct_sum(direct_sum(ade_lattice(ADEType("A", 2)),
                                 ade_lattice(ADEType("A", 2))),
                      ade_lattice(ADEType("A", 2)))
    if not is_p_divisible(a2_3, DivisorClass([1, -1, 1, -1, 1, -1]), 3):
        mismatches.append("three signed A2 pairs should be 3-divisible")
    assert positives > 0

    # (c) product of invariant factors equals |det|
    for _ in range(60):
        n = rng.randint(1, 10)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randint(-6, 6)
        det = _fraction_det(m)
        diag = smith_normal_form(m)
        if det == 0:
            if 0 not in diag:
                mismatches.append("singular matrix with nonzero factors")
        else:
            prod = 1
            for d in diag:
                prod *= d
            if prod != abs(det):
                mismatches.append("factor product %d != |det| %d"
                                  % (prod, abs(det)))

    # (d) self-intersection transport along cyclic covers
    for args, want in (((-3, True, 3), -1), ((-1, False, 3), -3),
                       ((-2, True, 2), -1)):
        if cover_self_intersection(*args) != want:
            mismatches.append("cover transport %r != %d" % (args, want))
    _report(10, not mismatches)
    assert not mismatches, "\n".join(mismatches)
