"""Every public name of ``gonalift`` has a caller outside the tests, or a reason.

A public module-level function or class, or a public method of a public
class, counts as reached when some file under ``src/``, ``tools/`` or
``bench/`` names it outside its own definition: as a name, an attribute
or an import.  The scan matches bare names, so a method that shares its
name with a reached function counts as reached too.  A name that only
the tests reach is deleted, or listed in ``KEPT`` with the reason it stays.
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
    "upoly.is_irreducible": "the tests' entry to _is_irreducible, which checks field moduli",
    "upoly.squarefree_decomposition":
        "the tests' entry to _squarefree_decomposition, which factor runs",
    "polygon.LatticePolygon.boundary_points": "the tests' Pick's-formula reference",
    "polygon.LatticePolygon.lattice_points": "the tests draw sub-polygons from it",
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
    """Every name the tree mentions, counted."""
    out = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rsplit(".", 1)[-1]] += 1
    return out


def _unreached():
    named = collections.Counter()
    for top in ("src", "tools", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            named += _names(ast.parse(path.read_text()))
    return {qual for qual, node in _public_defs()
            if named[node.name] - _names(node)[node.name] <= 0}


def test_every_public_name_is_reached_or_kept():
    unreached = _unreached()
    assert unreached - set(KEPT) == set(), "reached only by tests: delete or keep"
    assert set(KEPT) - unreached == set(), "reached now: take it out of KEPT"
