"""Output identity: ``tools/dump_outputs.py`` on its golden set matches the stored digests.

``tests/dump_digests.json`` holds, for each line of the golden set
(``dump_outputs.GOLDEN``: seeded quartics over F_127, F_31, F_25 and
F_27, then the g6, routes and pointless lines once), the SHA-256 of the
line and of each of its keys.  A change that alters output on purpose
regenerates the file with

    python3 tools/dump_outputs.py --golden > tests/dump_digests.json

and says in ``CHANGES.md`` which lines changed and why.
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import dump_outputs


def test_dump_matches_the_golden_digests():
    want = json.loads((ROOT / "tests" / "dump_digests.json").read_text())
    got = dump_outputs.golden()
    assert [w["line"] for w in want] == [g["line"] for g in got]
    for w, g in zip(want, got):
        if w["sha256"] != g["sha256"]:
            moved = [k for k in sorted(set(w["keys"]) | set(g["keys"]))
                     if w["keys"].get(k) != g["keys"].get(k)]
            raise AssertionError(f"the first line that differs is {w['line']!r}; "
                                 f"its keys that changed: {moved}")
