"""Export reads operation tables by row.

`scenario._operation_to_json` reads each table row by position and sorts
only what the file orders by name.  The exporter it replaced, which read
every source basis name through `eval_basis`, is kept as the reference in
`name_keyed.operation_to_json`: both must write the same bytes.
"""

import json
import random
from pathlib import Path

import pytest

import name_keyed
from chainalg import scenario as sc
from chainalg.fixtures import (TruncationWindow, fixture_names, make_fixture,
                               mutate_lambda, mutate_mu, mutation_targets)
from chainalg.graded import tensor
from chainalg.rings import GF, QQ, ZZ

DATA = Path(__file__).resolve().parent / "data"
RINGS = {"Z": ZZ, "Q": QQ, "GF(5)": GF(5)}
BIALGEBRAS = [name for name in fixture_names() if name != "tstar-s1"]


def _text(doc) -> str:
    """The bytes `chainalg export` writes for a document."""
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def _texts(export, monkeypatch):
    """The export by rows and by the name-keyed reference."""
    got = _text(export())
    with monkeypatch.context() as m:
        m.setattr(sc, "_operation_to_json", name_keyed.operation_to_json)
        want = _text(export())
    return got, want


def _instances(name, window, ring):
    """The fixture and one seeded mu and one seeded lambda mutant of it."""
    w = TruncationWindow(window)
    inst = make_fixture(name, w, ring)
    rng = random.Random(f"{name}:{window}:{ring!r}")
    targets = list(mutation_targets(inst, w))
    _, i, o = rng.choice([t for t in targets if t[0] == "mu"])
    yield inst
    yield mutate_mu(inst, i, o)
    _, i, o = rng.choice([t for t in targets if t[0] == "lambda"])
    yield mutate_lambda(inst, i, o)


@pytest.mark.parametrize("window", [4, 8, 18])
@pytest.mark.parametrize("name", BIALGEBRAS)
def test_bialgebra_export_matches_the_name_keyed_reference(name, window,
                                                           monkeypatch):
    for ring_name, ring in RINGS.items():
        for inst in _instances(name, window, ring):
            got, want = _texts(lambda: sc.export_bialgebra(inst, ring_name),
                               monkeypatch)
            assert got == want, (inst.name, ring_name)


@pytest.mark.parametrize("ring", list(RINGS.values()), ids=repr)
def test_tstar_export_matches_the_name_keyed_reference(ring, monkeypatch):
    bundle = make_fixture("tstar-s1", ring=ring)
    got, want = _texts(lambda: sc.export_complex(
        bundle, "tstar-s1", ("d-squared", "transition")), monkeypatch)
    assert got == want
    # only the secondary map is nonzero on tstar-s1
    doc = json.loads(got)
    assert [len(t["entries"]) for t in (
        doc["differential"], doc["pair"]["differential"], doc["pair"]["map"],
        doc["pair"]["secondary"])] == [0, 0, 0, 2]


@pytest.mark.parametrize("path", sorted(
    p.name for p in DATA.glob("*.json")
    if json.loads(p.read_text(encoding="utf-8")).get("kind") == "complex"))
def test_complex_scenario_export_matches_the_name_keyed_reference(
        path, monkeypatch):
    scn = sc.load(str(DATA / path))
    got, want = _texts(lambda: sc.export_complex(scn.payload, scn.name,
                                                 scn.checks), monkeypatch)
    assert got == want
    assert json.loads(got)["differential"]["entries"]


def test_export_sorts_a_combination_by_name():
    # a combination is held as a row in the order it was read, and written
    # in name order (by the joined name in a tensor power)
    doc = {"schema_version": 1, "kind": "bialgebra", "ring": "Z",
           "module": {"basis": [{"name": n, "degree": 0} for n in "ab"]},
           "mu": {"degree": 0, "entries": []},
           "lambda": {"degree": 0, "entries": []},
           "eta": [["2", "b"], ["-1", "a"]], "safe": ["a"]}
    inst = sc.ingest(json.dumps(doc)).payload
    assert inst.eta == ((1, 2), (0, -1))
    assert sc.export_bialgebra(inst, "Z")["eta"] == [["-1", "a"], ["2", "b"]]
    A2 = tensor(inst.module, inst.module)
    assert sc._combo_writer(A2)((((1, 0), 3), ((0, 1), 4))) == [
        ["4", ["a", "b"]], ["3", ["b", "a"]]]


def test_export_sorts_tensor_inputs_and_terms_by_joined_name():
    # names chosen so that ordering the parts as a tuple and ordering the
    # joined name disagree: "a" < "ab" as names, but "ab⊗a" < "a⊗b"
    # because "b" < "⊗"
    doc = {"schema_version": 1, "kind": "bialgebra", "ring": "Z",
           "module": {"basis": [{"name": n, "degree": 0}
                                for n in ("a", "ab", "b")]},
           "mu": {"degree": 0, "entries": [
               {"in": [x, y], "out": [["1", "a"]]}
               for x in ("a", "ab", "b") for y in ("a", "b")]},
           "lambda": {"degree": 0, "entries": [
               {"in": ["a"], "out": [["1", ["a", "b"]], ["2", ["ab", "a"]],
                                     ["3", ["b", "a"]]]}]},
           "eta": [["1", "a"]], "safe": ["a"]}
    inst = sc.ingest(json.dumps(doc)).payload
    out = sc.export_bialgebra(inst, "Z")
    assert [e["in"] for e in out["mu"]["entries"]] == [
        ["ab", "a"], ["ab", "b"], ["a", "a"], ["a", "b"], ["b", "a"],
        ["b", "b"]]
    assert out["lambda"]["entries"][0]["out"] == [
        ["2", ["ab", "a"]], ["1", ["a", "b"]], ["3", ["b", "a"]]]
    assert out["mu"] == name_keyed.operation_to_json(inst.mu)
    assert out["lambda"] == name_keyed.operation_to_json(inst.lam)
