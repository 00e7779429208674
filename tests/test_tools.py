"""The polygon derivation tool runs: ``tools/derive_polygons.py`` must exit 0.

A short sweep (3 runs per family, over F_31, F_37 and F_25) must print,
for every family, a union of Newton polygons that lies inside the frozen
entry of ``_derived_polygons.DERIVED``: a smaller sweep can only see less.
"""

import ast
import os
import re
import subprocess
import sys

from gonalift import polygon
from gonalift._derived_polygons import DERIVED

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
UNION = re.compile(r"^(\w+): union (\[.*\]) over \d+ runs, interior 3$", re.M)


def test_derive_polygons_unions_lie_inside_the_frozen_table():
    out = subprocess.run([sys.executable, os.path.join("tools", "derive_polygons.py"),
                          "--runs", "3"], cwd=ROOT, capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    unions = {name: ast.literal_eval(verts) for name, verts in UNION.findall(out.stdout)}
    assert set(unions) == set(DERIVED)
    for name, verts in unions.items():
        frozen = polygon.LatticePolygon(DERIVED[name])
        assert frozen.contains(polygon.LatticePolygon(verts)), (name, verts)
