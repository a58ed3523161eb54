"""Source layout: relative imports used and at module level, no public
name without a reader.

The checks read the package with ast, so they run nothing of it.  A
public name is read when some module of src/k3pencils or
benchmarks/k3bench loads it, by name or as an attribute, or imports it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "k3pencils"
READERS = (PACKAGE, ROOT / "benchmarks" / "k3bench")

# public names read only by the tests, or kept for an open ROADMAP item
ALLOWED_UNREAD = {
    "nullspace": "exact 4x4 kernels, ROADMAP items 3 and 6",
    "point_coords": "the tests' accessor for point coordinates",
    "index_formula_check": "lattice check, ROADMAP item 4",
    "cover_self_intersection": "lattice check, ROADMAP item 4",
    "p_rank_bound_check": "lattice check, ROADMAP item 3",
}


def _trees(*dirs):
    return {path: ast.parse(path.read_text())
            for d in dirs for path in sorted(d.glob("*.py"))}


def _loaded_names(tree):
    return {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}


def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign):
            names = [node.target.id] if isinstance(node.target,
                                                   ast.Name) else []
        else:
            names = []
        yield from (name for name in names if not name.startswith("_"))


def _read_names(tree):
    """Names a module loads, reads as an attribute or imports."""
    read = _loaded_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.asname or node.name)
    return read


def _unread_public_names():
    read = set()
    for tree in _trees(*READERS).values():
        read |= _read_names(tree)
    return {name: path.name
            for path, tree in _trees(PACKAGE).items()
            for name in _public_definitions(tree) if name not in read}


def test_relative_imports_are_used():
    unused = []
    for path, tree in _trees(PACKAGE).items():
        loaded = _loaded_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                unused.extend("%s: %s" % (path.name, a.asname or a.name)
                              for a in node.names
                              if (a.asname or a.name) not in loaded)
    assert not unused


def test_relative_imports_are_at_module_level():
    # an import inside a function hides an edge of the module graph
    hidden = []
    for path, tree in _trees(PACKAGE).items():
        top = set(map(id, tree.body))
        hidden.extend("%s:%d" % (path.name, node.lineno)
                      for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom) and node.level
                      and id(node) not in top)
    assert not hidden


def test_public_names_have_a_reader():
    unread = _unread_public_names()
    assert {n: m for n, m in unread.items() if n not in ALLOWED_UNREAD} == {}
    # an entry whose name gained a reader, or is gone, leaves the list
    assert set(ALLOWED_UNREAD) == set(unread)


def test_default_degree_is_read_by_groups_and_cli_only():
    # per-surface functions take a Surface, which carries its degree;
    # only the CLI reads a bare group label at a default degree
    readers = {path.stem for path, tree in _trees(PACKAGE).items()
               if "DEFAULT_DEGREE" in _read_names(tree)}
    assert readers - {"groups", "cli"} == set()
