"""Byte-identity gate for the JSON reports.

`chainalg check <f> --ring R --window N --format json` on the six bialgebra
fixtures over Z, Q and GF(5) at windows 8 and 12,
`chainalg demo <f> --window 8 --format json` on the three lambda fixtures,
`chainalg demo tstar-s1 --ring R --format json` over Z, Q and GF(5),
`chainalg homology tstar-s1 --cone --ring R --format json` over Z, Q and
GF(5), `chainalg homology <f> --format json` on the 4x4 cubical Klein
bottle scenarios in tests/data (over Z and over Q) and on seeded 10x10
torus, 10x10 Klein bottle and 14x14 Klein bottle scenarios over Z and on
a seeded dense complex over Z (80 cells, one 40x40 differential with
entries +-2..+-9 and so no unit entry), and
`chainalg check <f> --format json` on two lambda-s1-plus scenarios at window
8 with one mu structure constant negated (over Q and over GF(5)), whose
associativity axiom fails, and `chainalg cone <f> --format json` on two
lambda-s1-plus cone scenarios at window 8 with one structure constant
negated (a mu constant over Q, a lam constant over GF(5)), whose cone
associativity and assoc-infinitesimal records fail, and on the unmutated
one over Z (Q0 = -lam(eta)), whose three records pass, and `chainalg check <f>
--format json` on two small complex scenarios with a `top` field and the
essential check, one whose top-degree differential vanishes and one whose
does not, `chainalg demo <f> --window 8 --format json` on the three omega
fixtures, `chainalg cone lambda-s3`, `chainalg homology lambda-s3` and
`chainalg report omega-s1-minus tstar-s1`, each at window 8 in JSON, and
`chainalg check omega-s1-minus-gate-Z.json --format json`, whose loop
fixture runs Loday-Ronco, cc-antisymmetry and the reverse-bivector gate,
must reproduce the
sha256 digests stored in tests/data/report_digests.json byte for byte.  The
failing reports pin the witness text.  Reports name their target, so every case runs from
tests/data.

When a report is meant to change, regenerate the digests from a source
tree with

    PYTHONPATH=src python tests/test_report_digests.py
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from chainalg.cli import main

DATA = Path(__file__).resolve().parent / "data"
DIGESTS = DATA / "report_digests.json"
BIALGEBRA = ("lambda-s3", "lambda-s1-plus", "lambda-s1-minus",
             "omega-s3", "omega-s1-plus", "omega-s1-minus")
LAMBDA = BIALGEBRA[:3]
OMEGA = BIALGEBRA[3:]

CASES = [
    ("check", f, "--ring", r, "--window", str(n), "--format", "json")
    for f in BIALGEBRA for r in ("Z", "Q", "GF(5)") for n in (8, 12)
] + [("demo", f, "--window", "8", "--format", "json") for f in LAMBDA] + [
    ("demo", "tstar-s1", "--ring", r, "--format", "json")
    for r in ("Z", "Q", "GF(5)")
] + [
    ("homology", "tstar-s1", "--cone", "--ring", r, "--format", "json")
    for r in ("Z", "Q", "GF(5)")
] + [("homology", f"klein4-{r}.json", "--format", "json") for r in ("Z", "Q")
] + [("homology", f"{s}-Z.json", "--format", "json")
     for s in ("torus10", "klein10", "klein14", "dense40")
] + [("check", f"lambda-s1-plus-mu-{r}.json", "--format", "json")
     for r in ("Q", "GF5")
] + [("cone", f"lambda-s1-plus-cone-{m}.json", "--format", "json")
     for m in ("mu-Q", "lam-GF5", "Z")
] + [("check", f"essential-{s}-Z.json", "--format", "json")
     for s in ("pass", "fail")
] + [("demo", f, "--window", "8", "--format", "json") for f in OMEGA] + [
    ("cone", "lambda-s3", "--window", "8", "--format", "json"),
    ("homology", "lambda-s3", "--window", "8", "--format", "json"),
    ("report", "omega-s1-minus", "tstar-s1", "--window", "8", "--format",
     "json"),
    ("check", "omega-s1-minus-gate-Z.json", "--format", "json"),
]


def report_digest(argv, workdir) -> str:
    out = Path(workdir) / "report.json"
    main([*argv, "--output", str(out)])
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def stored():
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_report_is_byte_identical(argv, stored, tmp_path, monkeypatch):
    monkeypatch.chdir(DATA)
    assert report_digest(argv, tmp_path) == stored[" ".join(argv)]


if __name__ == "__main__":
    os.chdir(DATA)
    with tempfile.TemporaryDirectory() as work:
        digests = {" ".join(a): report_digest(a, work) for a in CASES}
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
