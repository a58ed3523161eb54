"""Seeded inputs for the workloads.

Every generator takes a random.Random built from the run's seed and
nothing else, so one seed always gives the same inputs.  Rounds are
balanced: a round holds every kind of operation in fixed proportion
and only the order and the parameters that do not change its cost are
drawn, so that runs with different seeds do the same amount of work.
"""

import hashlib
import json

from .oracles import fraction_det

PENCIL_GROUPS = ("TxV", "TT1", "VxV", "OxT", "OO2", "TxT")
ALL_GROUPS = PENCIL_GROUPS + ("OxO",)
GENERATED_RANKS = range(10, 23)
LATTICE_WHATS = ("disc", "group", "divisible", "adjoin")

# divisible block -> (curves in the block, the p that divides its class)
BLOCKS = {"A1x8": (8, 2), "A1x16": (16, 2), "A2x6": (12, 3)}


def digest(obj):
    """sha256 of the canonical JSON form of obj."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class LatticeInput:
    """A curve-graph config with one class known to be p-divisible."""

    __slots__ = ("label", "text", "cls", "p")

    def __init__(self, label, text, cls, p):
        self.label = label
        self.text = text
        self.cls = cls
        self.p = p

    def as_json(self):
        return [self.label, self.text, self.cls, self.p]


def lattice_config(rng, rank, block):
    """A random even curve graph of the given rank, nondegenerate.

    The block carries the class V: 8 or 16 disjoint (-2)-curves summed
    (divisible by 2), or 6 meeting pairs with opposite unit
    coefficients (divisible by 3).  The remaining curves form a random
    forest; some of them also meet the block, always in a way that
    keeps V divisible: an even number of A1 curves, or both curves of
    one A2 pair.  Graphs are redrawn until the Gram matrix is
    nondegenerate.
    """
    size, p = BLOCKS[block]
    extra = rank - size
    if extra < 0:
        raise ValueError("block %s does not fit in rank %d" % (block, rank))
    while True:
        if p == 2:
            block_curves = ["B%d" % i for i in range(1, size + 1)]
            units = [(c,) for c in block_curves]
            terms = ["+" + c for c in block_curves]
        else:
            units = [("P%da" % i, "P%db" % i) for i in range(1, size // 2 + 1)]
            block_curves = [c for pair in units for c in pair]
            terms = []
            for a, b in units:
                sa, sb = ("+", "-") if rng.random() < 0.5 else ("-", "+")
                terms += [sa + a, sb + b]
        xs = ["X%d" % i for i in range(1, extra + 1)]
        edges = []
        if p == 3:
            edges += [(a, b) for a, b in units]
        for i, x in enumerate(xs):
            if i and rng.random() < 0.7:
                edges.append((xs[rng.randrange(i)], x))
            if rng.random() < 0.3:
                if p == 2:
                    edges += [(x, c) for c in rng.sample(block_curves, 2)]
                else:
                    edges += [(x, c) for c in rng.choice(units)]
        lines = ["curve %s" % c for c in block_curves + xs]
        lines += ["edge %s %s" % e for e in edges]
        lines.append("class V = %s" % " ".join(terms))
        names = block_curves + xs
        index = {c: i for i, c in enumerate(names)}
        gram = [[-2 if i == j else 0 for j in range(rank)]
                for i in range(rank)]
        for a, b in edges:
            gram[index[a]][index[b]] += 1
            gram[index[b]][index[a]] += 1
        if fraction_det(gram):
            return "\n".join(lines) + "\n", p


def lattice_pool(rng, shipped):
    """The lattice workload's configs: the shipped texts, then two
    generated graphs of every rank from 10 to 22."""
    pool = [LatticeInput("%s.%s" % (ctx, name), text, name, p)
            for ctx, name, p, text in shipped]
    for rank in GENERATED_RANKS:
        for block in ("A1x16" if rank >= 18 else "A1x8",
                      "A2x6" if rank >= 12 else "A1x8"):
            text, p = lattice_config(rng, rank, block)
            pool.append(LatticeInput("r%d.%s" % (rank, block), text, "V", p))
    return pool


def query_round(rng):
    """One round of CLI calls: `groups`, then orbits, fixlines, sing
    and nu --fiber k on each pencil group, and the four lattice
    commands on fresh configs, in seeded order.

    A lattice call is ("lattice", what, LatticeInput); the input is
    written to a file just before the call.
    """
    calls = [("groups",)]
    for g in PENCIL_GROUPS:
        calls += [("orbits", g), ("fixlines", g), ("sing", g),
                  ("nu", g, "--fiber", str(rng.randint(1, 4)))]
    for what in LATTICE_WHATS:
        rank = rng.choice(GENERATED_RANKS)
        block = rng.choice([b for b, (size, _) in BLOCKS.items()
                            if size <= rank])
        text, p = lattice_config(rng, rank, block)
        calls.append(("lattice", what,
                      LatticeInput("r%d.%s" % (rank, block), text, "V", p)))
    rng.shuffle(calls)
    return calls


def query_json(call):
    if call[0] == "lattice":
        return ["lattice", call[1], call[2].as_json()]
    return list(call)


def witness_rounds(rng, sizes, count):
    """count rounds of (group, pool, index) picks.

    sizes maps each group label to (base-locus lines, inventory lines).
    A round checks one base-locus line and one transversal fix-line of
    each of the seven groups.
    """
    rounds = []
    for _ in range(count):
        picks = []
        for label in ALL_GROUPS:
            n_base, n_inv = sizes[label]
            picks.append((label, "base", rng.randrange(n_base)))
            picks.append((label, "inv", rng.randrange(n_inv)))
        rng.shuffle(picks)
        rounds.append(picks)
    return rounds
