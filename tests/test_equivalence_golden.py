"""The first cases of every family of ``tests/equivalence.py``, replayed.

``golden/equivalence.json`` holds, per family, the number of cases taken
and the SHA-256 over their digest lines (case id and SHA-256 of the
output, as the harness prints them).  The cases are the first ``FIRST``
that ``equivalence.cases()`` yields for each family: the loaders,
single-round routines, solvers, ``search`` with node counts and
``check_temporal`` with witnesses.  ``golden/equivalence_full.txt`` holds
the same two numbers for every family at full size, as
``PYTHONPATH=src python tests/equivalence.py`` prints them to stderr; CI
diffs a full run against it, and ``--compare`` stays for diagnosis.

``PYTHONPATH=src python tests/test_equivalence_golden.py`` rewrites the
golden file.
"""

import hashlib
import json
from itertools import groupby, islice
from pathlib import Path

import equivalence

GOLDEN = Path(__file__).parent / "golden" / "equivalence.json"
FIRST = 2000  # cases per family, about 4 s in all


def corpus() -> dict:
    """Per family, the case count and the SHA-256 of its digest lines."""
    families = {}
    for family, group in groupby(equivalence.cases(FIRST, FIRST), key=lambda c: c[0]):
        h, count = hashlib.sha256(), 0
        for _, case, thunk in islice(group, FIRST):
            h.update(equivalence.line(case, thunk).encode())
            count += 1
        families[family] = {"cases": count, "sha256": h.hexdigest()}
        if family == "check_temporal":  # the last family; the rest of it is not drawn
            break
    return families


def test_equivalence_corpus_matches_golden():
    assert corpus() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(corpus(), indent=2) + "\n")
