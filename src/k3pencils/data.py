"""Golden values for every table the toolkit recomputes.

Cells are stored exactly as the reference tables print them.  A few
entries contradict identities the rest of their own row satisfies
(orbit-stabilizer, row sums); those carry the recomputed value in a
parallel *_FIXES mapping and the verifier reports them as known
deviations instead of silently patching the golden copy.

Keys reuse the dataset section ids (sec3 ... sec8) so a report cell
can always be traced back to one table of one section.
"""

from .groups import AMBIENT, SURFACES, Surface

TABLE_IDS = (
    "sec3.subgroups",
    "sec4.rulings",
    "sec4.meeting",
    "sec4.fixlines",
    "sec5.sing",
    "sec6.nu",
    "sec7.divisible",
    "sec8.discs",
)

# the six pencil surfaces (smooth members) and groups, in printed order
PENCIL_SURFACES = tuple(Surface(g, d) for g, d in SURFACES.values()
                        if g != AMBIENT[d])
GROUP_ORDER = tuple(s.label for s in PENCIL_SURFACES)

# sec3.subgroups: label -> (order, ambient label, index in the ambient)
SUBGROUPS = {
    "TxV": (96, "TxT", 3),
    "TT1": (96, "TxT", 3),
    "VxV": (32, "TxT", 9),
    "OxT": (576, "OxO", 2),
    "OO2": (576, "OxO", 2),
    "TxT": (288, "OxO", 4),
}

# sec4.rulings: (label, side) -> {fixer order: orbit lengths}
RULINGS = {
    ("TxV", "left"): {2: (6,), 3: (4, 4)},
    ("TxV", "right"): {2: (2, 2, 2)},
    ("TT1", "left"): {2: (6,)},
    ("TT1", "right"): {2: (6,)},
    ("VxV", "left"): {2: (2, 2, 2)},
    ("VxV", "right"): {2: (2, 2, 2)},
    ("OxT", "left"): {2: (12,), 3: (8,), 4: (6,)},
    ("OxT", "right"): {2: (6,), 3: (4, 4)},
    ("OO2", "left"): {2: (6,), 3: (8,)},
    ("OO2", "right"): {2: (6,), 3: (8,)},
    ("TxT", "left"): {2: (6,), 3: (4, 4)},
    ("TxT", "right"): {2: (6,), 3: (4, 4)},
}

# sec4.meeting: orbit lengths of the base-locus meeting points.  The
# four product groups act transitively on each (left orbit x right
# orbit) block; the two twisted groups split as shown.
MEETING = {
    "TxV": (12, 12, 12),
    "TT1": (12, 12, 12),
    "VxV": (4, 4, 4, 4, 4, 4, 4, 4, 4),
    "OxT": (32, 32),
    "OO2": (32, 32),
    "TxT": (16, 16, 16, 16),
}

# sec4.fixlines: (label, column, generator, |F_L|, length, ratio,
# classes) where ratio = |H_L| / |F_L| and classes counts how many
# line orbits the column stands for.  Column order follows the tables.
FIXLINES = (
    ("TxV", "M1", "(q1,q1)", 2, 6, 4, 1),
    ("TxV", "M2", "(q1,q2)", 2, 6, 4, 1),
    ("TxV", "M3", "(q1,q3)", 2, 6, 4, 1),
    ("TT1", "M1", "(q1,q1)", 2, 6, 4, 1),
    ("TT1", "M2", "(q1,q2)", 2, 6, 4, 1),
    ("TT1", "M3", "(q1,q3)", 2, 6, 4, 1),
    ("TT1", "N", "(p3,p3)", 3, 16, 1, 1),
    ("VxV", "Mij", "(qi,qj)", 2, 2, 4, 9),
    ("OxT", "M", "(q1,q1)", 2, 18, 8, 1),
    ("OxT", "N", "(p3,p3)", 3, 32, 3, 1),
    ("OxT", "M'", "(p4q2,q2)", 2, 36, 3, 1),
    ("OO2", "R", "(p4,p4)", 4, 18, 4, 1),
    ("OO2", "N", "(p3,p3)", 3, 16, 8, 1),
    ("OO2", "N'", "(p3^2,p3)", 3, 16, 8, 1),
    ("OO2", "M", "(p4q2,p4q2)", 2, 72, 2, 1),
    ("TxT", "M", "(q2,q2)", 2, 18, 4, 1),
    ("TxT", "N", "(p3,p3)", 3, 16, 3, 1),
    ("TxT", "N'", "(p3^2,p3)", 3, 16, 3, 1),
)

# ratio cells that violate length * |H_L| = |PH|; value = what the
# identity (and the sec5 orbit counts) force instead
FIXLINE_FIXES = {
    ("OxT", "M'"): 4,   # 36 * |H_L| = 288 needs |H_L| = 8, |F_L| = 2
    ("OO2", "N"): 6,    # 16 * |H_L| = 288 needs |H_L| = 18, |F_L| = 3
    ("OO2", "N'"): 6,
}

# sec5.sing part 1: orbits of extra fix-points on the quadric,
# (label, row) -> (fix-group display, length, number, singularity)
QUADRIC_POINTS = (
    ("TxV", 0, "Z3xZ2", 8, 6, "6A2"),
    ("OxT", 0, "Z3xZ2", 48, 1, "1A1"),
    ("OxT", 1, "Z4xZ3", 24, 2, "2A3"),
    ("OxT", 2, "Z2xZ3", 48, 2, "2A1"),
    ("OO2", 0, "Z2xZ3", 48, 1, "1A1"),
    ("OO2", 1, "Z3xZ2", 48, 1, "1A1"),
    ("TxT", 0, "Z3xZ2", 24, 2, "2A1"),
    ("TxT", 1, "Z2xZ3", 24, 2, "2A1"),
)

# sec5.sing part 2a: points cut out off the quadric per line order
OFFQUADRIC_COUNTS = {
    ("TxV", 2): 4,
    ("TT1", 2): 4,
    ("TT1", 3): 6,
    ("VxV", 2): 4,
    ("OxT", 2): 8,
    ("OxT", 3): 6,
    ("OO2", 4): 8,
    ("OO2", 3): 6,
    ("TxT", 2): 8,
    ("TxT", 3): 6,
}

# sec5.sing part 2b: (label, column) -> (o(L), orbit length on the
# line, number of orbits, singularities)
OFFQUADRIC_ROWS = (
    ("TxV", "M1", 2, 4, 1, "A1"),
    ("TxV", "M2", 2, 4, 1, "A1"),
    ("TxV", "M3", 2, 4, 1, "A1"),
    ("TT1", "M1", 2, 4, 1, "A1"),
    ("TT1", "M2", 2, 4, 1, "A1"),
    ("TT1", "M3", 2, 4, 1, "A1"),
    ("TT1", "N", 3, 1, 6, "6A2"),
    ("VxV", "Mij", 2, 4, 1, "A1"),
    ("OxT", "M", 2, 8, 1, "A1"),
    ("OxT", "N", 3, 3, 2, "2A2"),
    ("OxT", "M'", 2, 3, 2, "2A1"),
    ("OO2", "R", 4, 4, 2, "2A3"),
    ("OO2", "N", 3, 6, 1, "A2"),
    ("OO2", "N'", 3, 6, 1, "A2"),
    ("OO2", "M", 2, 2, 4, "4A1"),
    ("TxT", "M", 2, 4, 2, "2A1"),
    ("TxT", "N", 3, 3, 2, "2A2"),
    ("TxT", "N'", 3, 3, 2, "2A2"),
)

# the one length cell out of step with its own (length * number = m)
# row sum; 8 points in 2 orbits of the ratio-4 line need length 4
OFFQUADRIC_FIXES = {
    ("OxT", "M'"): 4,
}

# sec5.sing part 3: (label, fiber) ->
#   (nodes, orbits, fix group, meeting lines, singularity)
NODES = {
    ("TxV", 1): (12, 1, "Z2xZ2", "1M1+1M2+1M3", "D4"),
    ("TxV", 2): (48, 1, "id", "", "A1"),
    ("TxV", 3): (48, 1, "id", "", "A1"),
    ("TxV", 4): (12, 1, "Z2xZ2", "1M1+1M2+1M3", "D4"),
    ("TT1", 1): (12, 3, "T", "3Mi+4N", "3E6"),
    ("TT1", 2): (48, 3, "Z3", "1N", "3A5"),
    ("TT1", 3): (48, 1, "id", "", "A1"),
    ("TT1", 4): (12, 1, "Z2xZ2", "1M1+1M2+1M3", "D4"),
    ("VxV", 1): (12, 3, "Z2xZ2", "3Mij", "3D4"),
    ("VxV", 2): (48, 3, "id", "", "3A1"),
    ("VxV", 3): (48, 3, "id", "", "3A1"),
    ("VxV", 4): (12, 3, "Z2xZ2", "3Mij", "3D4"),
    ("OxT", 1): (24, 1, "T", "3M+4N", "E6"),
    ("OxT", 2): (72, 1, "Z2xZ2", "1M+2M'", "D4"),
    ("OxT", 3): (144, 1, "Z2", "1M'", "A3"),
    ("OxT", 4): (96, 1, "Z3", "1N", "A5"),
    ("OO2", 1): (24, 2, "O", "3R+4N(N')+6M", "2E7"),
    ("OO2", 2): (72, 1, "Z4", "1R", "A7"),
    ("OO2", 3): (144, 1, "Z2", "1M", "A3"),
    ("OO2", 4): (96, 2, "D3", "1N(N')+3M", "2D5"),
    ("TxT", 1): (24, 2, "T", "3M+4N(N')", "2E6"),
    ("TxT", 2): (72, 1, "Z2", "1M", "A3"),
    ("TxT", 3): (144, 1, "id", "", "A1"),
    ("TxT", 4): (96, 2, "Z3", "1N(N')", "2A5"),
}

# sec6.nu, smooth members: label -> (nu1, nu2, nu3, nu)
# ("-" cells are zero); PRINTED_DISC holds their printed discriminants
SMOOTH_NU = {
    "TxV": (4, 12, 3, 19),
    "TT1": (2, 0, 15, 17),
    "VxV": (6, 0, 9, 15),
    "OxT": (3, 9, 7, 19),
    "OO2": (2, 2, 14, 18),
    "TxT": (4, 4, 10, 18),
}

# sec6.nu, singular members: (label, fiber) -> (nu3, nu4, nu)
SINGULAR_NU = {
    ("TxV", 1): (0, 4, 20),
    ("TxV", 2): (3, 1, 20),
    ("TxV", 3): (3, 1, 20),
    ("TxV", 4): (0, 4, 20),
    ("TT1", 1): (0, 18, 20),
    ("TT1", 2): (3, 15, 20),
    ("TT1", 3): (15, 1, 18),
    ("TT1", 4): (12, 4, 18),
    ("VxV", 1): (0, 12, 18),
    ("VxV", 2): (9, 3, 18),
    ("VxV", 3): (9, 3, 18),
    ("VxV", 4): (0, 12, 18),
    ("OxT", 1): (2, 6, 20),
    ("OxT", 2): (4, 4, 20),
    ("OxT", 3): (5, 3, 20),
    ("OxT", 4): (3, 5, 20),
    ("OO2", 1): (0, 16, 20),
    ("OO2", 2): (8, 7, 19),
    ("OO2", 3): (12, 3, 19),
    ("OO2", 4): (6, 10, 20),
    ("TxT", 1): (0, 12, 20),
    ("TxT", 2): (8, 3, 19),
    ("TxT", 3): (10, 1, 19),
    ("TxT", 4): (2, 10, 20),
}

# the 2E7 row forces nu4 = 2 * rank(E7) = 14, and the residue of the
# 72-line orbit puts the missing 2 curves in nu3; the printed total 20
# is consistent with the recomputed split, not with the printed one
SINGULAR_NU_FIXES = {
    ("OO2", 1): (2, 14, 20),
}

class _PrintedDiscs(dict):
    def __missing__(self, context):
        raise ValueError(f"no printed discriminant for {context!r}")


# sec8.discs: the printed lattice discriminant d(W) of each pencil member
# by context ("T_L", "T_L@6,k"); a context with none raises ValueError
PRINTED_DISC = _PrintedDiscs({
    "T_L": 2**5 * 3**3 * 5,
    "T_L@6,1": -(2**4) * 3**3 * 5,
    "T_L@6,2": -(2**6) * 3**3 * 5,
    "T_L@6,3": -(2**6) * 3**3 * 5,
    "T_L@6,4": -(2**4) * 3**3 * 5,
    "T_M": 2**3 * 3**6 * 5,
    "T_M@6,1": -(3**3) * 5,
    "T_M@6,2": -(2**6) * 3**3 * 5,
    "T_M@6,3": -(2**4) * 3**6 * 5,
    "T_M@6,4": -(2**2) * 3**6 * 5,
    "T_Lbar": 2**13 * 5,
    "T_Lbar@6,1": -(2**10) * 5,
    "T_Lbar@6,2": -(2**16) * 5,
    "T_Lbar@6,3": -(2**16) * 5,
    "T_Lbar@6,4": -(2**10) * 5,
    "O_L": 2**5 * 3**3 * 7,
    "O_L@8,1": -(2**4) * 3**2 * 7,
    "O_L@8,2": -(2**4) * 3**3 * 7,
    "O_L@8,3": -(2**5) * 3**3 * 7,
    "O_L@8,4": -(2**6) * 3**2 * 7,
    "O_M": -(2**8) * 3**2 * 7,
    "O_M@8,1": -(2**4) * 7,
    "O_M@8,2": 2**7 * 3**2 * 7,
    "O_M@8,3": 2**8 * 3**2 * 7,
    "O_M@8,4": -(2**8) * 7,
    "O_Lbar": -(2**2) * 3**6 * 7,
    "O_Lbar@8,1": -(3**4) * 7,
    "O_Lbar@8,2": 2**2 * 3**6 * 7,
    "O_Lbar@8,3": 2**3 * 3**6 * 7,
    "O_Lbar@8,4": -(2**4) * 3**4 * 7,
})


def _pairs_config(pairs, class_name, signs=None):
    """Config text for a class supported on disjoint meeting pairs."""
    lines = []
    for a, b in pairs:
        lines.append("curve %s" % a)
        lines.append("curve %s" % b)
    for a, b in pairs:
        lines.append("edge %s %s" % (a, b))
    if signs is None:
        signs = [(1, -1)] * len(pairs)
    terms = []
    for (a, b), (sa, sb) in zip(pairs, signs):
        terms.append(("+%s" if sa > 0 else "-%s") % a)
        terms.append(("+%s" if sb > 0 else "-%s") % b)
    lines.append("class %s = %s" % (class_name, " ".join(terms)))
    return "\n".join(lines) + "\n"


def _disjoint_config(curves, class_name):
    """Config text for a class supported on disjoint (-2)-curves."""
    lines = ["curve %s" % c for c in curves]
    lines.append(
        "class %s = %s" % (class_name, " ".join("+%s" % c for c in curves)))
    return "\n".join(lines) + "\n"


# the 4-divisible class lives on two A3 chains of R-curves with
# multiplicities 1,2,3, two A3 chains M-N-M' with multiplicities
# 3,2,1, and two isolated C-curves with multiplicity 2
_W_CONFIG = """\
curve R1
curve R2
curve R3
curve R1'
curve R2'
curve R3'
curve M1
curve N1
curve M2
curve C1
curve M3
curve N3
curve M4
curve C2
edge R1 R2
edge R2 R3
edge R1' R2'
edge R2' R3'
edge M1 N1
edge N1 M2
edge M3 N3
edge N3 M4
class W = +R1 +R2 +R2 +R3 +R3 +R3 +R1' +R2' +R2' +R3' +R3' +R3' \
+M1 +M1 +M1 +N1 +N1 +M2 +C1 +C1 +M3 +M3 +M3 +N3 +N3 +M4 +C2 +C2
"""

# sec7.divisible: (groups.surface context, class name, p, config text).
# Each class is divisible by p on the block lattice of its support.
DIVISIBLE_CLASSES = (
    ("Y_TT", "L", 3, _pairs_config(
        [("L1", "L2"), ("L4", "L5"), ("N1", "N2"), ("N3", "N4"),
         ("N5", "N6"), ("N7", "N8")], "L")),
    ("Y_TT", "L'", 3, _pairs_config(
        [("L1'", "L2'"), ("L4'", "L5'"), ("N1", "N2"), ("N3", "N4"),
         ("N5", "N6"), ("N7", "N8")], "L'",
        signs=[(1, -1), (1, -1), (1, -1), (1, -1), (-1, 1), (-1, 1)])),
    ("Y_TT", "M", 3, _pairs_config(
        [("L1", "L2"), ("L4", "L5"), ("L1'", "L2'"), ("L4'", "L5'"),
         ("N5", "N6"), ("N7", "N8")], "M",
        signs=[(1, -1), (1, -1), (-1, 1), (-1, 1), (-1, 1), (-1, 1)])),
    ("Y_TT", "M'", 3, _pairs_config(
        [("L1", "L2"), ("L4", "L5"), ("L1'", "L2'"), ("L4'", "L5'"),
         ("N1", "N2"), ("N3", "N4")], "M'",
        signs=[(1, -1), (1, -1), (1, -1), (1, -1), (-1, 1), (-1, 1)])),
    ("Y_OO", "L", 2, _disjoint_config(
        ["L1", "L3", "L5", "M1", "M3", "M4", "R1", "R3"], "L")),
    ("Y_OO", "L'", 2, _disjoint_config(
        ["L1'", "L3'", "L5'", "M2", "M3", "M4", "R1", "R3"], "L'")),
    ("Y_OO", "M", 2, _disjoint_config(
        ["L1", "L3", "L5", "L1'", "L3'", "L5'", "M1", "M2"], "M")),
    ("T_L", "Lbar'", 3, _pairs_config(
        [("L1", "L2"), ("L4", "L5"), ("L1'", "L2'"), ("L4'", "L5'"),
         ("L1''", "L2''"), ("L4''", "L5''")], "Lbar'")),
    ("T_L", "h1", 2, _disjoint_config(
        ["L1", "L3", "L5", "L1'", "L3'", "L5'", "M1", "M2"], "h1")),
    ("T_L", "h2", 2, _disjoint_config(
        ["L1", "L3", "L5", "L1''", "L3''", "L5''", "M1", "M3"], "h2")),
    ("O_L", "Lbar'", 2, _disjoint_config(
        ["L1", "L3", "L5", "L1'", "L3'", "L5'", "M1", "M2"], "Lbar'")),
    ("O_L", "k1", 3, _pairs_config(
        [("L1", "L2"), ("L4", "L5"), ("L1'", "L2'"), ("L4'", "L5'"),
         ("N1", "N2"), ("N3", "N4")], "k1",
        signs=[(1, -1), (1, -1), (-1, 1), (-1, 1), (1, -1), (1, -1)])),
    ("O_L@8,4", "extra", 2, _disjoint_config(
        ["L1", "L3", "L5", "N1", "C", "N4", "R2", "M1"], "extra")),
    ("T_M", "Lbar", 3, _pairs_config(
        [("N1", "N2"), ("N3", "N4"), ("N5", "N6"), ("N7", "N8"),
         ("N9", "N10"), ("N11", "N12")], "Lbar")),
    ("T_M@6,2", "extra1", 2, _disjoint_config(
        ["N1", "C1", "N4", "N5", "C2", "N8", "M1", "M2"], "extra1")),
    ("T_M@6,2", "extra2", 2, _disjoint_config(
        ["N1", "C1", "N4", "N9", "C3", "N12", "M1", "M3"], "extra2")),
    ("O_M", "Lbar", 2, _disjoint_config(
        ["M1", "M2", "M3", "M4", "R1", "R3", "R1'", "R3'"], "Lbar")),
    ("O_M@8,4", "W", 4, _W_CONFIG),
    ("O_Lbar@8,1", "k1'", 3, _pairs_config(
        [("L2", "L4"), ("L3'", "L1'"), ("N1", "N2"), ("N3", "N4"),
         ("N5", "N6"), ("N7", "N8")], "k1'")),
    ("O_Lbar@8,1", "k1''", 3, _pairs_config(
        [("L2'", "L4'"), ("L3", "L1"), ("N1", "N2"), ("N3", "N4"),
         ("N5", "N6"), ("N7", "N8")], "k1''",
        signs=[(1, -1), (1, -1), (1, -1), (-1, 1), (1, -1), (-1, 1)])),
    ("O_Lbar@8,4", "kappa", 2, _disjoint_config(
        ["N1", "C1", "N4", "N5", "C2", "N8", "M1", "M2"], "kappa")),
)

# sec8.discs: (context, disc after adjoining, index chain); d(W), the
# context's PRINTED_DISC, is disc(after) * (prod ps)^2 here.
DISC_DROPS = (
    ("T_L", 2 * 3 * 5, (3, 2, 2)),
    ("O_L", 2**3 * 3 * 7, (2, 3)),
    ("T_L@6,1", -3 * 5, (3, 2, 2)),
    ("T_L@6,2", -(2**2) * 3 * 5, (3, 2, 2)),
    ("T_L@6,3", -(2**2) * 3 * 5, (3, 2, 2)),
    ("T_L@6,4", -3 * 5, (3, 2, 2)),
    ("T_M@6,1", -3 * 5, (3,)),
    ("T_M@6,2", -(2**2) * 3 * 5, (3, 2, 2)),
    ("O_L@8,1", -(2**2) * 7, (2, 3)),
    ("O_L@8,4", -(2**2) * 7, (2, 3, 2)),
    ("O_M@8,1", -(2**2) * 7, (2,)),
    ("O_M@8,4", -(2**4) * 7, (4,)),
    ("O_Lbar@8,1", -7, (3, 3)),
    ("O_Lbar@8,4", -(2**2) * 7, (3, 3, 2)),
)

# component discriminants quoted in the covering propositions, each the
# determinant of a disjoint union of A-D-E blocks
COMPONENT_DISCS = (
    ("3A1", -(2**3)),
    ("6A2", 3**6),
    ("2A1", 2**2),
    ("2A2", 3**2),
    ("A1", -2),
    ("4A1", 2**4),
    ("9A1", -(2**9)),
    ("4A2", 3**4),
)

# per-surface factor tables: context -> ((component label, disc), ...).
# The blocks multiply to the context's PRINTED_DISC in every row.
COMPONENT_TABLES = (
    ("T_L", (("L", -(2**2) * 3**3 * 5), ("M", -(2**3)))),
    ("T_M", (("L", -5), ("M", -(2**3)), ("N", 3**6))),
    ("O_L", (("L", -(2**2) * 3 * 7), ("M", 2**2), ("N", 3**2), ("R", -2))),
    ("O_M", (("L", -7), ("M", 2**4), ("N", 3**2), ("R", 2**4))),
    ("T_Lbar", (("L", -(2**4) * 5), ("M", -(2**9)))),
    ("O_Lbar", (("L", -(3**2) * 7), ("M", 2**2), ("N", 3**4))),
)
