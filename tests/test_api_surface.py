"""Every public name of ``gonalift`` has a caller outside the tests, or a reason.

A public module-level function or class counts as reached when some file
under ``src/``, ``tools/`` or ``bench/`` reaches it outside its own
definition through its module: ``from module import name``, the attribute
``module.name``, or the bare name inside the module's own file.  A public
method of a public class counts as reached when its bare name is
mentioned, as a name or an attribute, since the scan cannot tell its
receiver's class.  A name that only the tests reach is deleted, or listed
in ``KEPT`` with the reason it stays.
"""

import ast
import collections
import pathlib

import gonalift

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = pathlib.Path(gonalift.__file__).parent

KEPT = {
    "linalg.mat_mul": "the tests' reference for inverses, kernels and composed changes",
    "mpoly.sylvester_matrix": "the tests' reference for both determinant paths of resultant",
    "upoly.resultant": "the tests' reference for mpoly.resultant on polynomials in one "
                       "variable, itself checked against a Sylvester determinant",
    "upoly.is_irreducible": "the tests' entry to _is_irreducible, which checks field moduli",
    "polygon.LatticePolygon.boundary_points": "the tests' Pick's-formula reference",
    "polygon.LatticePolygon.lattice_points": "the tests draw sub-polygons from it",
    "verify.make_monic": "the monic model over the order is what Tuitman's algorithm "
                         "takes; the tests hold each route's monic x-degree to its bound",
    "verify.substitute_step": "a trail kind the genus-6 report writes",
    "verify.gcd_step": "a trail kind the genus-6 report writes",
    "verify.select_step": "a trail kind the genus-6 report writes",
    "verify.forward_point": "moves one point through a stored trail; the tests' entry",
    "verify.LiftReport.from_json": "reads back what to_json writes",
}


def _public_defs():
    """(qualified name, node) of each public def of the package's public modules."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem.startswith("_"):
            continue
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            yield f"{path.stem}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", item


def _names(tree):
    """Every bare name and attribute name the tree mentions, counted."""
    out = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
    return out


def _qualified(path, tree):
    """Every ``module.name`` of the package that a file reaches, counted.

    A file reaches ``m.name`` by ``from m import name``, by the attribute
    ``m.name`` on a name bound to the package module m, or, inside m's
    own file, by the bare name.
    """
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    aliases = {}
    out = collections.Counter()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = (node.module or "").removeprefix("gonalift").lstrip(".")
        if node.level == 0 and not (node.module or "").startswith("gonalift"):
            continue
        for alias in node.names:
            if not source and alias.name in modules:
                aliases[alias.asname or alias.name] = alias.name
            elif source in modules:
                out[f"{source}.{alias.name}"] += 1
    own = path.stem if path.parent == PACKAGE else None
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            out[f"{aliases[node.value.id]}.{node.attr}"] += 1
        elif isinstance(node, ast.Name) and own:
            out[f"{own}.{node.id}"] += 1
    return out


def _unreached():
    qualified, named = collections.Counter(), collections.Counter()
    for top in ("src", "tools", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            tree = ast.parse(path.read_text())
            qualified += _qualified(path, tree)
            named += _names(tree)
    unreached = set()
    for qual, node in _public_defs():
        if qual.count(".") == 2:  # a method, by its bare name
            count = named[node.name] - _names(node)[node.name]
        else:  # less the def's calls of itself, which its own file counts
            count = qualified[qual] - sum(isinstance(n, ast.Name) and n.id == node.name
                                          for n in ast.walk(node))
        if count <= 0:
            unreached.add(qual)
    return unreached


def test_every_public_name_is_reached_or_kept():
    unreached = _unreached()
    assert unreached - set(KEPT) == set(), "reached only by tests: delete or keep"
    assert set(KEPT) - unreached == set(), "reached now: take it out of KEPT"
