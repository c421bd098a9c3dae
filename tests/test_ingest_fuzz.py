"""Seeded mutational fuzz of scenario ingest.

Each shipped scenario in tests/data, and two exported fixtures, is mutated
at 1 to 3 places picked at random among all its fields: a value is
replaced (by a wrong type, an unhashable value where a name goes, a bool,
a huge integer, a bad coefficient, a name of the document, ...), deleted,
or repeated.  Every mutated document must either ingest or raise
SchemaError: the parser's lookups catch what a malformed document makes
them raise, so no KeyError, TypeError or other exception may escape.  The
seed is fixed, so the same documents run every time (about 2 s).
"""

import json
import random
from pathlib import Path

import pytest

from chainalg import scenario as sc
from chainalg.fixtures import TruncationWindow, make_fixture
from chainalg.rings import QQ

DATA = Path(__file__).resolve().parent / "data"
SEED = 2025
DOCUMENTS = 1200   # mutated documents in all, spread over the bases

# replacement values that do not depend on the document
VALUES = [None, True, False, 0, 1, -1, 2.5, 10 ** 40, -(10 ** 4000), "",
          "e", "⊗", "a⊗b", "0", "-1", "1/2", "1/0", "seven", " 3 ", "1e3",
          "9" * 5000, [], {}, [[]], [{}], ["1"], [["1"]], [None, None],
          {"n": 1}, [[1, "e"]], [["1", []]], [["1", {}]], [["1", [[], {}]]],
          [{"in": [], "out": []}], [{"in": [[]], "out": [[]]}]]


# a complex with a pair whose map is nonzero, c(m) = 2a; no file in
# tests/data has a pair
PAIR = {"schema_version": 1, "kind": "complex", "ring": "Z",
        "module": {"basis": [{"name": "a", "degree": 0},
                             {"name": "b", "degree": 1}]},
        "differential": {"degree": -1,
                         "entries": [{"in": ["b"], "out": [["2", "a"]]}]},
        "pair": {"module": {"basis": [{"name": "m", "degree": 0}]},
                 "differential": {"degree": -1, "entries": []},
                 "map": {"degree": 0,
                         "entries": [{"in": ["m"], "out": [["2", "a"]]}]},
                 "secondary": {"degree": 1, "entries": []}},
        "checks": ["d-squared", "continuation-vanishes"]}


def _bases():
    """(label, document) for every scenario in tests/data, PAIR, and two
    exports: a bialgebra over Q and the complex tstar-s1."""
    out = [(p.name, json.loads(p.read_text(encoding="utf-8")))
           for p in sorted(DATA.glob("*.json"))
           if p.name != "report_digests.json"]
    inst = make_fixture("lambda-s1-minus", TruncationWindow(4), QQ)
    out.append(("pair", PAIR))
    out.append(("export lambda-s1-minus", sc.export_bialgebra(inst, "Q")))
    out.append(("export tstar-s1", sc.export_complex(
        make_fixture("tstar-s1"), "tstar-s1", ("d-squared", "transition"))))
    return out


def _slots(doc, path=()):
    """The path of every field and list item of `doc`."""
    items = (doc.items() if isinstance(doc, dict) else
             enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _slots(value, path + (key,))


def _sections(doc):
    """The paths of `_slots`, grouped by top-level field (by field of the
    pair in a pair), so that a small field, such as eta, is picked as often
    as a large table."""
    out = {}
    for path in _slots(doc):
        out.setdefault(path[:2] if path[0] == "pair" else path[:1],
                       []).append(path)
    return list(out.values())


def _names(doc):
    """Every string in `doc`: basis names, coefficients, check ids."""
    if isinstance(doc, dict):
        return [s for v in doc.values() for s in _names(v)]
    if isinstance(doc, list):
        return [s for v in doc for s in _names(v)]
    return [doc] if isinstance(doc, str) else []


def _mutate(doc, path, rng, names):
    """Replace, delete or repeat the field at `path`; False when an earlier
    mutation took the path away."""
    node, key = doc, path[-1]
    try:
        for k in path[:-1]:
            node = node[k]
        node[key]
    except (KeyError, IndexError, TypeError):
        return False
    if not isinstance(node, (dict, list)):   # a string put there earlier
        return False
    action = rng.random()
    if action < 0.15:
        del node[key]
    elif action < 0.25 and isinstance(node, list):
        node.insert(key, json.loads(json.dumps(node[key])))
    elif action < 0.45:
        node[key] = rng.choice(names)
    elif action < 0.55:
        node[key] = [rng.choice(names), rng.choice(names + VALUES)]
    else:
        node[key] = json.loads(json.dumps(rng.choice(VALUES)))
    return True


def _documents():
    rng = random.Random(SEED)
    bases = _bases()
    for label, base in bases:
        text, sections, names = json.dumps(base), _sections(base), _names(base)
        for _ in range(DOCUMENTS // len(bases)):
            doc = json.loads(text)
            done = [_mutate(doc, rng.choice(rng.choice(sections)), rng, names)
                    for _ in range(rng.randint(1, 3))]
            if any(done):
                yield label, doc


def test_mutated_documents_ingest_or_raise_schema_errors():
    outcomes = {"ingested": 0, "refused": 0}
    paths = set()
    for label, doc in _documents():
        try:
            sc.ingest(doc)
        except sc.SchemaError as e:
            outcomes["refused"] += 1
            paths.add(e.path.split("[", 1)[0])
        except Exception as e:  # noqa: BLE001 - the finding is the escape
            pytest.fail(f"{label}: {type(e).__name__}: {e}\n"
                        f"{json.dumps(doc)[:2000]}")
        else:
            outcomes["ingested"] += 1
    # the mutations reach the tables and combinations, and not all refuse
    assert outcomes["refused"] > 0 and outcomes["ingested"] > 0, outcomes
    assert {"$.mu.entries", "$.lambda.entries", "$.differential.entries",
            "$.pair.map.entries", "$.eta", "$.module.basis"} <= paths, paths
