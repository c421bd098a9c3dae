import json
from pathlib import Path

import pytest

from chainalg.rings import GF, QQ, ZZ
from chainalg import scenario as sc
from chainalg.fixtures import TruncationWindow, make_fixture, make_tstar_s1
from chainalg.bialgebra import check_axioms
from chainalg.graded import basis_keys
from chainalg.report import CheckRecord, records
from name_keyed import basis_in_degree, is_zero, structurally_equal

DATA = Path(__file__).resolve().parent / "data"


MINIMAL = {
    "schema_version": 1,
    "kind": "bialgebra",
    "ring": "Z",
    "module": {"basis": [{"name": "e", "degree": 0}]},
    "mu": {"degree": 0, "entries": [{"in": ["e", "e"], "out": [["1", "e"]]}]},
    "lambda": {"degree": -1, "entries": []},
    "eta": [["1", "e"]],
}


def test_minimal_scenario_passes_axioms():
    scn = sc.ingest(json.dumps(MINIMAL))
    assert scn.kind == "bialgebra"
    rep = check_axioms(scn.payload)
    assert [r for r in rep.results if r.status != "pass"] == []


def test_default_checks_per_kind():
    scn = sc.ingest(dict(MINIMAL))
    assert scn.checks == ("axioms", "lambda-eta")


def test_unknown_check_rejected_with_path():
    doc = dict(MINIMAL)
    doc["checks"] = ["axioms", "nope"]
    with pytest.raises(sc.SchemaError) as ei:
        sc.ingest(doc)
    assert ei.value.path == "$.checks[1]"


def test_repeated_check_rejected_with_path():
    # run twice, a repeated check would count twice in the summary
    doc = dict(MINIMAL)
    doc["checks"] = ["axioms", "lambda-eta", "axioms"]
    with pytest.raises(sc.SchemaError) as ei:
        sc.ingest(doc)
    assert (ei.value.path, ei.value.message) == (
        "$.checks[2]", "duplicate check 'axioms'")


def test_inhomogeneous_entry_rejected_with_path():
    doc = json.loads(json.dumps(MINIMAL))
    doc["module"]["basis"].append({"name": "x", "degree": 2})
    doc["mu"]["entries"].append({"in": ["x", "x"], "out": [["1", "e"]]})
    with pytest.raises(sc.SchemaError) as ei:
        sc.ingest(doc)
    assert "inhomogeneous" in ei.value.message
    assert ei.value.path == "$.mu.entries[1].out"


def test_unknown_basis_name_rejected():
    doc = json.loads(json.dumps(MINIMAL))
    doc["eta"] = [["1", "ghost"]]
    with pytest.raises(sc.SchemaError) as ei:
        sc.ingest(doc)
    assert "ghost" in ei.value.message


def test_bad_coefficient_rejected():
    doc = json.loads(json.dumps(MINIMAL))
    doc["eta"] = [["seven", "e"]]
    with pytest.raises(sc.SchemaError) as ei:
        sc.ingest(doc)
    assert ei.value.path.startswith("$.eta")


def test_bad_json_reports_position():
    with pytest.raises(sc.SchemaError) as ei:
        sc.ingest("{not json")
    assert "line" in ei.value.message


def test_version_gate():
    doc = dict(MINIMAL)
    doc["schema_version"] = 2
    with pytest.raises(sc.SchemaError):
        sc.ingest(doc)


def test_ring_parse():
    doc = json.loads(json.dumps(MINIMAL))
    doc["ring"] = "GF(5)"
    scn = sc.ingest(doc)
    assert scn.ring == GF(5)
    doc["ring"] = "GF(6)"
    with pytest.raises(sc.SchemaError):
        sc.ingest(doc)


def test_rational_coefficients_round_trip():
    doc = json.loads(json.dumps(MINIMAL))
    doc["ring"] = "Q"
    doc["mu"]["entries"][0]["out"] = [["3/4", "e"], ["1/4", "e"]]
    scn = sc.ingest(doc)
    # 3/4 + 1/4 = 1
    assert all(r.status == "pass" for r in check_axioms(scn.payload).results)


@pytest.mark.parametrize("name", ["lambda-s3", "omega-s1-minus"])
def test_fixture_export_round_trip(name):
    w = TruncationWindow(6)
    inst = make_fixture(name, w)
    doc = sc.export_bialgebra(inst)
    scn = sc.ingest(json.dumps(doc))
    assert structurally_equal(inst, scn.payload)
    # and the re-ingested instance still passes its axioms
    assert all(r.status == "pass" for r in check_axioms(scn.payload).results)


def test_export_json_stable():
    w = TruncationWindow(6)
    a = json.dumps(sc.export_bialgebra(make_fixture("lambda-s3", w)), sort_keys=True)
    b = json.dumps(sc.export_bialgebra(make_fixture("lambda-s3", w)), sort_keys=True)
    assert a == b


def test_cone_scenario():
    inst = make_fixture("lambda-s1-plus", TruncationWindow(4))
    doc = sc.export_bialgebra(inst)
    doc["kind"] = "cone"
    doc["n"] = 1
    doc["Q0"] = [["1", ["1", "A"]], ["-1", ["A", "1"]]]
    scn = sc.ingest(json.dumps(doc))
    assert scn.kind == "cone"
    assert scn.checks == ("components", "associativity", "assoc-infinitesimal")
    from chainalg.cone_product import cross_check_components

    assert cross_check_components(scn.payload).status == "pass"


def test_complex_scenario_with_pair():
    doc = {
        "schema_version": 1,
        "kind": "complex",
        "ring": "Z",
        "module": {"basis": [{"name": "a", "degree": 0},
                             {"name": "b", "degree": 1}]},
        "differential": {"degree": -1,
                         "entries": [{"in": ["b"], "out": [["2", "a"]]}]},
        "top": 1,
        "pair": {
            "module": {"basis": [{"name": "m", "degree": 0}]},
            "differential": {"degree": -1, "entries": []},
            "map": {"degree": 0, "entries": [{"in": ["m"], "out": [["2", "a"]]}]},
        },
    }
    scn = sc.ingest(json.dumps(doc))
    bundle = scn.payload
    assert bundle.top == 1
    assert bundle.pair_map is not None
    from chainalg.complexes import homology

    assert homology(bundle.complex).by_degree == ((0, 0, (2,)),)


def test_non_chain_pair_map_rejected():
    doc = {
        "schema_version": 1,
        "kind": "complex",
        "ring": "Z",
        "module": {"basis": [{"name": "a", "degree": 0},
                             {"name": "b", "degree": 1}]},
        "differential": {"degree": -1,
                         "entries": [{"in": ["b"], "out": [["1", "a"]]}]},
        "pair": {
            "module": {"basis": [{"name": "m", "degree": 1}]},
            "differential": {"degree": -1, "entries": []},
            "map": {"degree": 0, "entries": [{"in": ["m"], "out": [["1", "b"]]}]},
        },
    }
    with pytest.raises(sc.SchemaError) as ei:
        sc.ingest(json.dumps(doc))
    assert ei.value.path == "$.pair.map"


def test_reverse_bivector_gate():
    inst = make_fixture("lambda-s1-minus", TruncationWindow(4))
    doc = sc.export_bialgebra(inst)
    doc["checks"] = ["axioms", "reverse-bivector-gate"]
    # lam_minus(eta) = 1(x)A - A(x)1
    doc["reverse_bivector"] = [["1", ["1", "A"]], ["-1", ["A", "1"]]]
    scn = sc.ingest(json.dumps(doc))
    assert scn.reverse_bivector is not None
    from chainalg.bialgebra import check_lemma_c_lambda_eta

    assert check_lemma_c_lambda_eta(scn.reverse_bivector,
                                    scn.payload).status == "pass"
    # requesting the gate without the field is a schema error
    doc2 = sc.export_bialgebra(inst)
    doc2["checks"] = ["reverse-bivector-gate"]
    with pytest.raises(sc.SchemaError, match="reverse_bivector"):
        sc.ingest(json.dumps(doc2))


def _complex_doc():
    return {
        "schema_version": 1,
        "kind": "complex",
        "ring": "Z",
        "module": {"basis": [{"name": "a", "degree": 0},
                             {"name": "b", "degree": 1}]},
        "differential": {"degree": -1,
                         "entries": [{"in": ["b"], "out": [["2", "a"]]}]},
        "top": 1,
    }


def test_a_differential_that_does_not_square_to_zero_is_refused():
    doc = _complex_doc()
    doc["module"]["basis"].append({"name": "c", "degree": 2})
    doc["differential"]["entries"].append({"in": ["c"], "out": [["1", "b"]]})
    del doc["top"]
    with pytest.raises(sc.SchemaError) as ei:
        sc.ingest(json.dumps(doc))
    assert (ei.value.path, ei.value.message) == (
        "$.differential", "d*d != 0 on c: d(d(c)) = 2*a")


@pytest.mark.parametrize("where, path", [
    (("module", "basis", 0, "degree"), "$.module.basis[0].degree"),
    (("mu", "degree"), "$.mu.degree"),
    (("lambda", "degree"), "$.lambda.degree"),
    (("schema_version",), "$.schema_version"),
])
@pytest.mark.parametrize("flag", [True, False])
def test_bool_is_not_an_integer(where, path, flag):
    doc = json.loads(json.dumps(MINIMAL))
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = flag
    with pytest.raises(sc.SchemaError) as ei:
        sc.ingest(json.dumps(doc))
    assert ei.value.path == path
    assert "bool" in ei.value.message


@pytest.mark.parametrize("field, path", [
    ("top", "$.top"),
    ("differential", "$.differential.degree"),
])
def test_bool_is_not_an_integer_in_complexes(field, path):
    doc = _complex_doc()
    if field == "top":
        doc["top"] = False
    else:
        doc["differential"]["degree"] = True
    with pytest.raises(sc.SchemaError) as ei:
        sc.ingest(json.dumps(doc))
    assert ei.value.path == path
    assert sc.ingest(json.dumps(_complex_doc())).payload.top == 1


def test_duplicate_safe_name_rejected():
    doc = json.loads(json.dumps(MINIMAL))
    doc["module"]["basis"].append({"name": "x", "degree": 0})
    doc["safe"] = ["e", "x", "e"]
    with pytest.raises(sc.SchemaError) as ei:
        sc.ingest(json.dumps(doc))
    assert ei.value.path == "$.safe[2]"
    assert "duplicate" in ei.value.message
    doc["safe"] = ["x", "e"]
    assert tuple(sc.ingest(json.dumps(doc)).payload.safe_names) == ("x", "e")


@pytest.mark.parametrize("source", ["lambda-s1-plus-mu-Q.json",
                                    "lambda-s1-plus-cone-mu-Q.json"])
def test_empty_safe_list_rejected(source):
    # an empty window would pass every axiom on 0 inputs
    doc = json.loads((DATA / source).read_text(encoding="utf-8"))
    doc["safe"] = []
    with pytest.raises(sc.SchemaError) as ei:
        sc.ingest(json.dumps(doc))
    assert (ei.value.path, ei.value.message) == (
        "$.safe", "expected at least one basis name")


def _rejected_at(doc):
    with pytest.raises(sc.SchemaError) as ei:
        sc.ingest(json.dumps(doc))
    assert "at most" in ei.value.message
    return ei.value.path


def test_basis_size_cap():
    doc = _complex_doc()
    doc["module"]["basis"] = [{"name": f"c{i}", "degree": 0}
                              for i in range(sc.MAX_BASIS + 1)]
    doc["differential"]["entries"] = []
    assert _rejected_at(doc) == "$.module.basis"
    doc["module"]["basis"].pop()
    module = sc.ingest(json.dumps(doc)).payload.complex.module
    assert len(basis_in_degree(module, 0)) == sc.MAX_BASIS


def test_safe_length_cap():
    # the cubic quantifier window: the safe list, or the whole basis
    doc = json.loads(json.dumps(MINIMAL))
    doc["module"]["basis"] += [{"name": f"x{i}", "degree": 0}
                               for i in range(sc.MAX_SAFE)]
    assert _rejected_at(doc) == "$.module.basis"
    doc["safe"] = [b["name"] for b in doc["module"]["basis"]]
    assert _rejected_at(doc) == "$.safe"
    doc["safe"].pop()
    assert len(sc.ingest(json.dumps(doc)).payload.safe_names) == sc.MAX_SAFE


@pytest.mark.parametrize("kind", ["bialgebra", "cone"])
def test_differential_basis_cap(kind):
    # with a differential, mu is checked as a chain map on every element of
    # A (x) A, so the basis is held to the quantifier window's cap even
    # with a short safe list
    doc = json.loads(json.dumps(MINIMAL))
    doc.update(kind=kind, n=1, safe=["e"],
               differential={"degree": -1, "entries": []})
    doc["module"]["basis"] += [{"name": f"x{i}", "degree": 0}
                               for i in range(sc.MAX_SAFE)]
    assert _rejected_at(doc) == "$.differential"
    assert str(sc.MAX_SAFE) in _schema_error(doc).message
    doc["module"]["basis"].pop()
    assert len(basis_keys(sc.ingest(json.dumps(doc)).payload.mu.source)) == \
        sc.MAX_SAFE ** 2


def test_entry_count_cap():
    doc = json.loads(json.dumps(MINIMAL))
    doc["mu"]["entries"] *= sc.MAX_ENTRIES + 1
    assert _rejected_at(doc) == "$.mu.entries"
    cx = _complex_doc()
    cx["differential"]["entries"] *= sc.MAX_ENTRIES + 1
    assert _rejected_at(cx) == "$.differential.entries"


@pytest.mark.parametrize("field, term", [
    ("eta", ["0", "e"]), ("reverse_bivector", ["0", ["e", "e"]]),
    ("c0", ["0", ["e", "e"]]), ("Q0", ["0", ["e", "e"]]),
    ("B", ["0", ["e", "e", "e"]])])
def test_combination_term_cap(field, term):
    # a combination of more than MAX_ENTRIES terms is refused at its own
    # path before any term is read; at the cap its zero terms are read
    err = _schema_error(_combination_doc(field, [term] * (sc.MAX_ENTRIES + 1)))
    assert (err.path, err.message) == (
        f"$.{field}", f"{sc.MAX_ENTRIES + 1} terms; at most "
        f"{sc.MAX_ENTRIES} are accepted")
    doc = _combination_doc(field, [term] * sc.MAX_ENTRIES)
    if field == "eta":   # the unit stays e
        doc[field][-1] = ["1", "e"]
    sc.ingest(json.dumps(doc))


def _pair_doc():
    doc = _complex_doc()
    doc["pair"] = {
        "module": {"basis": [{"name": "m", "degree": 0}]},
        "differential": {"degree": -1, "entries": []},
        "map": {"degree": 0, "entries": [{"in": ["m"], "out": [["2", "a"]]}]},
    }
    return doc


def _schema_error(doc):
    with pytest.raises(sc.SchemaError) as ei:
        sc.ingest(json.dumps(doc))
    return ei.value


def test_non_object_cross_map_entry_rejected_with_path():
    doc = _pair_doc()
    doc["pair"]["map"]["entries"].append(5)
    assert _schema_error(doc).path == "$.pair.map.entries[1]"


def test_non_object_secondary_rejected_with_path():
    doc = _pair_doc()
    doc["pair"]["secondary"] = 5
    assert _schema_error(doc).path == "$.pair.secondary"


@pytest.mark.parametrize("table, path", [
    (("mu",), "$.mu.entries[0].out"),
    (("differential",), "$.differential.entries[0].out"),
    (("pair", "map"), "$.pair.map.entries[0].out"),
])
def test_missing_out_rejected_with_path(table, path):
    doc = json.loads(json.dumps(MINIMAL)) if table == ("mu",) else _pair_doc()
    node = doc
    for key in table:
        node = node[key]
    del node["entries"][0]["out"]
    err = _schema_error(doc)
    assert (err.path, err.message) == (path, "missing required field")


def test_repeated_cross_map_input_rejected():
    doc = _pair_doc()
    doc["pair"]["map"]["entries"].append({"in": ["m"], "out": []})
    err = _schema_error(doc)
    assert err.path == "$.pair.map.entries[1].in"
    assert "duplicate" in err.message


def test_non_string_name_rejected():
    doc = _complex_doc()
    doc["name"] = 5
    assert _schema_error(doc).path == "$.name"
    doc["name"] = "labelled"
    assert sc.ingest(json.dumps(doc)).name == "labelled"


def test_top_must_bound_the_support():
    doc = _complex_doc()
    doc["top"] = 0
    err = _schema_error(doc)
    assert (err.path, err.message) == ("$.top", "support [0, 1] outside [0, 0]")
    doc["top"] = 2
    assert sc.ingest(json.dumps(doc)).payload.top == 2
    doc["module"]["basis"].append({"name": "z", "degree": -1})
    assert _schema_error(doc).path == "$.top"


def test_essential_check_needs_top():
    doc = _complex_doc()
    doc["checks"] = ["d-squared", "essential"]
    assert sc.ingest(json.dumps(doc)).checks == ("d-squared", "essential")
    del doc["top"]
    err = _schema_error(doc)
    assert err.path == "$.checks"
    assert "top" in err.message
    doc["checks"] = ["d-squared"]
    assert sc.ingest(json.dumps(doc)).payload.top is None


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("ring", [ZZ, QQ, GF(5)], ids=repr)
def test_continuation_vanishes_passes_on_tstar_s1(ring, sign):
    scn = sc.Scenario("complex", "tstar-s1", ring, make_tstar_s1(ring, sign),
                      (), None)
    assert records(scn, ("continuation-vanishes",), "tstar-s1.", False) == [
        CheckRecord("tstar-s1.continuation-vanishes", "pass", "c = 0")]


def test_continuation_vanishes_fails_with_its_witness():
    # the document of test_complex_scenario_with_pair, where c(m) = 2a
    doc = _pair_doc()
    doc["checks"] = ["continuation-vanishes"]
    scn = sc.ingest(json.dumps(doc))
    assert records(scn, scn.checks, "", False) == [
        CheckRecord("continuation-vanishes", "fail", "c(m) = 2*a")]
    # the witness is the first nonzero input in canonical order, (degree,
    # name), not in the order the document lists the basis
    doc["pair"]["module"]["basis"].insert(0, {"name": "n", "degree": 0})
    doc["pair"]["map"]["entries"].insert(
        0, {"in": ["n"], "out": [["-1", "a"]]})
    scn = sc.ingest(json.dumps(doc))
    assert records(scn, scn.checks, "", False)[0].detail == "c(m) = 2*a"
    del doc["pair"]["map"]["entries"][1]
    scn = sc.ingest(json.dumps(doc))
    assert records(scn, scn.checks, "", False)[0].detail == "c(n) = -a"


def test_continuation_vanishes_needs_a_pair():
    doc = _complex_doc()
    doc["checks"] = ["continuation-vanishes"]
    err = _schema_error(doc)
    assert (err.path, err.message) == (
        "$.checks", "continuation-vanishes needs a pair field")


def _complex_bundles_to_export():
    for ring in (ZZ, QQ, GF(5)):
        for sign in (1, -1):
            yield make_tstar_s1(ring, sign)
    yield sc.load(str(DATA / "klein4-Z.json")).payload
    doc = _pair_doc()   # a nonzero pair map
    doc["pair"]["secondary"] = {"degree": 1, "entries": []}
    yield sc.ingest(json.dumps(doc)).payload


def test_exported_complexes_ingest_to_the_same_rows():
    count = 0
    for bundle in _complex_bundles_to_export():
        doc = sc.export_complex(bundle, "exported", ("d-squared",))
        got = sc.ingest(json.dumps(doc)).payload
        assert got.top == bundle.top
        maps = [(bundle.complex.d, got.complex.d)]
        if bundle.pair_map is not None:
            maps += [(bundle.pair_map.f, got.pair_map.f),
                     (bundle.secondary, got.secondary)]
        for want, have in maps:
            assert (have.source, have.target, have.degree) == (
                want.source, want.target, want.degree)
            for k in basis_keys(want.source):
                assert dict(have.at(k)) == dict(want.at(k)), k
        count += len(maps)
    assert count == 6 * 3 + 1 + 3


def test_secondary_must_be_a_chain_map():
    # m (degree 0) -> b (degree 1) with d(b) = 2a gives [d, s](m) = 2a
    doc = _pair_doc()
    doc["pair"]["secondary"] = {"degree": 1, "entries": []}
    assert sc.ingest(json.dumps(doc)).payload.secondary is not None
    doc["pair"]["secondary"]["entries"] = [{"in": ["m"], "out": [["1", "b"]]}]
    err = _schema_error(doc)
    assert err.path == "$.pair.secondary"
    assert err.message == "secondary is not a chain map: [d, secondary] != 0 on m"


def test_oversized_json_integer_is_a_schema_error():
    text = json.dumps(_complex_doc()).replace('"top": 1', '"top": ' + "9" * 5000)
    with pytest.raises(sc.SchemaError) as ei:
        sc.ingest(text)
    assert ei.value.path == "$"
    assert "invalid JSON" in ei.value.message


@pytest.mark.parametrize("text", ["[" * 100_000, '{"a": ' * 100_000,
                                  '{"module": ' + "[" * 100_000])
def test_deeply_nested_json_is_a_schema_error(text):
    with pytest.raises(sc.SchemaError) as ei:
        sc.ingest(text)
    assert (ei.value.path, ei.value.message) == (
        "$", "invalid JSON: nested too deeply")


def test_gf_modulus_is_bounded():
    import time

    from chainalg.rings import MAX_MODULUS

    assert GF(2 ** 31 - 1).p == 2 ** 31 - 1 < MAX_MODULUS
    doc = json.loads(json.dumps(MINIMAL))
    doc["ring"] = f"GF({2 ** 61 - 1})"   # a prime, rejected by size alone
    start = time.perf_counter()
    err = _schema_error(doc)
    assert time.perf_counter() - start < 0.1
    assert err.path == "$.ring"
    assert "2^31" in err.message


def test_a_modulus_that_is_not_an_integer_fails_at_the_ring():
    doc = json.loads(json.dumps(MINIMAL))
    doc["ring"] = "GF(two)"
    err = _schema_error(doc)
    assert (err.path, err.message) == (
        "$.ring", "unknown ring 'GF(two)' (expected Z, Q, or GF(p))")


# ---------------------------------------------------------------------------
# Operation tables: error paths, row maps and equivalence with the source
# ---------------------------------------------------------------------------

_TABLES_BIALGEBRA = {
    "schema_version": 1,
    "kind": "bialgebra",
    "ring": "Z",
    "module": {"basis": [{"name": "e", "degree": 0},
                         {"name": "x", "degree": 1}]},
    "mu": {"degree": 0, "entries": [{"in": ["e", "e"], "out": [["1", "e"]]}]},
    "lambda": {"degree": -1, "entries": []},
    "eta": [["1", "e"]],
}

_TABLES_COMPLEX = {
    "schema_version": 1,
    "kind": "complex",
    "ring": "Z",
    "module": {"basis": [{"name": "a", "degree": 0},
                         {"name": "b", "degree": 1}]},
    "differential": {"degree": -1,
                     "entries": [{"in": ["b"], "out": [["2", "a"]]}]},
    "pair": {"module": {"basis": [{"name": "m", "degree": 0}]},
             "differential": {"degree": -1, "entries": []},
             "map": {"degree": 0,
                     "entries": [{"in": ["m"], "out": [["2", "a"]]}]},
             "secondary": {"degree": 1, "entries": []}},
}


def _table_doc(where, table, ring="Z"):
    """A copy of the bialgebra doc (basis e in degree 0, x in degree 1), or
    with a "cx." prefix of the complex doc (a, b; pair module m), with the
    operation table at `where` replaced: a list is its entries, anything
    else the whole table.  A bialgebra "differential" starts out empty."""
    base = _TABLES_COMPLEX if where.startswith("cx.") else _TABLES_BIALGEBRA
    doc = json.loads(json.dumps(base))
    doc["ring"] = ring
    keys = where.removeprefix("cx.").split(".")
    if keys == ["differential"] and base is _TABLES_BIALGEBRA:
        doc["differential"] = {"degree": -1, "entries": []}
    node = doc
    for key in keys[:-1]:
        node = node[key]
    if isinstance(table, list):
        node[keys[-1]]["entries"] = table
    else:
        node[keys[-1]] = table
    return doc


def _e(names, out):
    return {"in": names, "out": out}


# Every SchemaError the operation-table parser raises, with the exact path
# and message.  All but the two mixed-degree rows were recorded before the
# parser built row maps directly; a value mixing degrees (as mu(e (x) e) =
# e + x) escaped as a bare ValueError then.
_OPERATION_ERRORS = [
    ("mu", [5], "$.mu.entries[0]", "expected an object"),
    ("mu", [{"out": []}], "$.mu.entries[0].in", "missing required field"),
    ("mu", [_e("e", [])], "$.mu.entries[0].in", "expected list, got str"),
    ("mu", [_e(None, [])], "$.mu.entries[0].in",
     "expected list, got NoneType"),
    ("mu", [_e(["e"], [])], "$.mu.entries[0].in", "expected 2 input name(s)"),
    ("mu", [_e(["e", "e", "e"], [])], "$.mu.entries[0].in",
     "expected 2 input name(s)"),
    ("lambda", [_e(["x", "x"], [])], "$.lambda.entries[0].in",
     "expected 1 input name(s)"),
    ("mu", [_e(["e", "ghost"], [])], "$.mu.entries[0].in",
     "unknown basis name 'ghost'"),
    ("mu", [_e([["e"], "e"], [])], "$.mu.entries[0].in",
     "unknown basis name ['e']"),
    ("mu", [_e(["e", {"n": 1}], [])], "$.mu.entries[0].in",
     "unknown basis name {'n': 1}"),
    ("mu", [_e(["e", 5], [])], "$.mu.entries[0].in", "unknown basis name 5"),
    ("differential", [_e(["ghost"], [])], "$.differential.entries[0].in",
     "unknown basis name 'ghost'"),
    ("cx.pair.differential", [_e(["a"], [])],
     "$.pair.differential.entries[0].in", "unknown basis name 'a'"),
    ("mu", [_e(["e", "e"], []), _e(["e", "e"], [["1", "e"]])],
     "$.mu.entries[1].in", "duplicate entry for this input"),
    ("mu", [{"in": ["e", "e"]}], "$.mu.entries[0].out",
     "missing required field"),
    ("mu", [_e(["e", "e"], "e")], "$.mu.entries[0].out",
     "expected a list of [coeff, name] pairs"),
    ("mu", [_e(["e", "e"], None)], "$.mu.entries[0].out",
     "expected a list of [coeff, name] pairs"),
    ("mu", [_e(["e", "e"], [["1", "e", "x"]])], "$.mu.entries[0].out[0]",
     "expected [coefficient, name]"),
    ("mu", [_e(["e", "e"], [5])], "$.mu.entries[0].out[0]",
     "expected [coefficient, name]"),
    ("mu", [_e(["e", "e"], [[1, "e"]])], "$.mu.entries[0].out[0][0]",
     "coefficients are strings"),
    ("mu", [_e(["e", "e"], [["seven", "e"]])], "$.mu.entries[0].out[0][0]",
     "bad coefficient: invalid literal for int() with base 10: 'seven'"),
    ("mu", [_e(["e", "e"], [["1/2", "e"]])], "$.mu.entries[0].out[0][0]",
     "bad coefficient: 1/2 is not an integer"),
    ("cx.pair.secondary", [_e(["m"], [["x", "b"]])],
     "$.pair.secondary.entries[0].out[0][0]",
     "bad coefficient: invalid literal for int() with base 10: 'x'"),
    ("mu", [_e(["e", "e"], [["1", "ghost"]])], "$.mu.entries[0].out[0][1]",
     "unknown basis name 'ghost'"),
    ("mu", [_e(["e", "e"], [["1", ["e"]]])], "$.mu.entries[0].out[0][1]",
     "expected a name"),
    ("cx.differential", [_e(["b"], [["2", "m"]])],
     "$.differential.entries[0].out[0][1]", "unknown basis name 'm'"),
    ("cx.pair.map", [_e(["m"], [["1", "m"]])],
     "$.pair.map.entries[0].out[0][1]", "unknown basis name 'm'"),
    ("lambda", [_e(["x"], [["1", ["e", "ghost"]]])],
     "$.lambda.entries[0].out[0][1]", "unknown basis name 'ghost'"),
    ("lambda", [_e(["x"], [["1", ["e", ["e"]]]])],
     "$.lambda.entries[0].out[0][1]", "unknown basis name ['e']"),
    ("lambda", [_e(["x"], [["1", "e"]])], "$.lambda.entries[0].out[0][1]",
     "expected a list of 2 names"),
    ("lambda", [_e(["x"], [["1", ["e"]]])], "$.lambda.entries[0].out[0][1]",
     "expected a list of 2 names"),
    ("lambda", [_e(["x"], [["1", ["e", "e", "e"]]])],
     "$.lambda.entries[0].out[0][1]", "expected a list of 2 names"),
    ("mu", [_e(["x", "x"], [["1", "e"]])], "$.mu.entries[0].out",
     "inhomogeneous value: degree 0, expected 2"),
    ("mu", [_e(["e", "e"], [["1", "x"]])], "$.mu.entries[0].out",
     "inhomogeneous value: degree 1, expected 0"),
    ("mu", [_e(["e", "e"], [["1", "e"]]), _e(["e", "x"], [["1", "e"]])],
     "$.mu.entries[1].out", "inhomogeneous value: degree 0, expected 1"),
    ("lambda", [_e(["x"], [["1", ["x", "x"]]])], "$.lambda.entries[0].out",
     "inhomogeneous value: degree 2, expected 0"),
    ("differential", [_e(["x"], [["1", "x"]])],
     "$.differential.entries[0].out",
     "inhomogeneous value: degree 1, expected 0"),
    ("cx.differential", [_e(["b"], [["2", "b"]])],
     "$.differential.entries[0].out",
     "inhomogeneous value: degree 1, expected 0"),
    ("cx.pair.map", [_e(["m"], [["1", "b"]])], "$.pair.map.entries[0].out",
     "inhomogeneous value: degree 1, expected 0"),
    ("cx.pair.secondary", [_e(["m"], [["1", "a"]])],
     "$.pair.secondary.entries[0].out",
     "inhomogeneous value: degree 0, expected 1"),
    ("mu", [_e(["e", "e"], [["1", "e"], ["1", "x"]])], "$.mu.entries[0].out",
     "inhomogeneous value: degrees [0, 1], expected 0"),
    ("lambda", [_e(["x"], [["1", ["e", "e"]], ["1", ["x", "e"]]])],
     "$.lambda.entries[0].out",
     "inhomogeneous value: degrees [0, 1], expected 0"),
    ("differential", 5, "$.differential", "expected an object"),
    ("mu", {"degree": "0", "entries": []}, "$.mu.degree",
     "expected int, got str"),
    ("mu", {"degree": 0, "entries": {}}, "$.mu.entries",
     "expected list, got dict"),
]


@pytest.mark.parametrize("where, table, path, message", _OPERATION_ERRORS)
def test_operation_table_errors_keep_path_and_message(where, table, path,
                                                      message):
    err = _schema_error(_table_doc(where, table))
    assert (err.path, err.message) == (path, message)


@pytest.mark.parametrize("ring, coeff, message", [
    ("Q", "1/0", "bad coefficient: Fraction(1, 0)"),
    ("GF(5)", "1/5", "bad coefficient: denominator of 1/5 vanishes mod 5"),
])
def test_operation_coefficient_errors_per_ring(ring, coeff, message):
    doc = _table_doc("mu", [_e(["e", "e"], [[coeff, "e"]])], ring)
    err = _schema_error(doc)
    assert (err.path, err.message) == ("$.mu.entries[0].out[0][0]", message)


# Combinations share the term parser of the operation tables; recorded
# like the rows above.
_COMBINATION_ERRORS = [
    ("eta", [5], "$.eta[0]", "expected [coefficient, name]"),
    ("eta", [["1"]], "$.eta[0]", "expected [coefficient, name]"),
    ("eta", [[1, "e"]], "$.eta[0][0]", "coefficients are strings"),
    ("eta", [["z", "e"]], "$.eta[0][0]",
     "bad coefficient: invalid literal for int() with base 10: 'z'"),
    ("eta", [["1", ["e"]]], "$.eta[0][1]", "expected a name"),
    ("eta", [["1", "ghost"]], "$.eta[0][1]", "unknown basis name 'ghost'"),
    ("eta", [["1", "e"], ["1", 5]], "$.eta[1][1]", "expected a name"),
    ("reverse_bivector", {}, "$.reverse_bivector",
     "expected a list of [coeff, name] pairs"),
    ("reverse_bivector", [["1", "e"]], "$.reverse_bivector[0][1]",
     "expected a list of 2 names"),
    ("reverse_bivector", [["1", ["e", "ghost"]]], "$.reverse_bivector[0][1]",
     "unknown basis name 'ghost'"),
    ("reverse_bivector", [["1", ["e", 7]]], "$.reverse_bivector[0][1]",
     "unknown basis name 7"),
    ("reverse_bivector", [["1", [["e"], "e"]]], "$.reverse_bivector[0][1]",
     "unknown basis name ['e']"),
    ("B", [["1", ["e", "e"]]], "$.B[0][1]", "expected a list of 3 names"),
    ("B", [["1", ["e", "e", "q"]]], "$.B[0][1]", "unknown basis name 'q'"),
    ("Q0", [["1/2", ["e", "e"]]], "$.Q0[0][0]",
     "bad coefficient: 1/2 is not an integer"),
    # degrees are judged at the combination's own path (n = 1 for the cone
    # fields: |c0| = -2, |Q0| = -1, |B| = -2); before, the BialgebraData and
    # ConeProductData constructors raised them and ingest reported them at $
    ("eta", [["1", "x"]], "$.eta", "inhomogeneous value: degree 1, expected 0"),
    ("eta", [["1", "e"], ["1", "x"]], "$.eta",
     "inhomogeneous value: degrees [0, 1], expected 0"),
    ("c0", [["1", ["e", "e"]]], "$.c0",
     "inhomogeneous value: degree 0, expected -2"),
    ("c0", [["1", ["e", "e"]], ["1", ["e", "x"]]], "$.c0",
     "inhomogeneous value: degrees [0, 1], expected -2"),
    ("Q0", [["1", ["e", "e"]], ["2", ["x", "x"]]], "$.Q0",
     "inhomogeneous value: degrees [0, 2], expected -1"),
    ("B", [["1", ["e", "e", "x"]], ["1", ["e", "e", "e"]]], "$.B",
     "inhomogeneous value: degrees [0, 1], expected -2"),
]


def _combination_doc(field, value):
    doc = json.loads(json.dumps(_TABLES_BIALGEBRA))
    if field in ("B", "Q0", "c0"):
        doc.update(kind="cone", n=1)
    doc[field] = value
    return doc


@pytest.mark.parametrize("field, value, path, message", _COMBINATION_ERRORS)
def test_combination_errors_keep_path_and_message(field, value, path,
                                                  message):
    err = _schema_error(_combination_doc(field, value))
    assert (err.path, err.message) == (path, message)


# Every SchemaError of a module basis, with the exact path and message:
# (which module, its basis, path, message).  The checks run in a fixed
# order per element (object, name present and a string, degree present and
# an integer, then the name's form), so an element with two faults reports
# the first; a repeated name is judged on the whole basis.
_BASIS_ERRORS = [
    ("module", [{"name": "e", "degree": 0}, 5], "$.module.basis[1]",
     "expected an object"),
    ("module", [["e", 0]], "$.module.basis[0]", "expected an object"),
    ("module", [{"degree": 0}], "$.module.basis[0].name",
     "missing required field"),
    ("module", [{"name": 5, "degree": 0}], "$.module.basis[0].name",
     "expected str, got int"),
    ("module", [{"name": ["e"], "degree": 0}], "$.module.basis[0].name",
     "expected str, got list"),
    ("module", [{"name": None, "degree": 0}], "$.module.basis[0].name",
     "expected str, got NoneType"),
    ("module", [{"name": "", "degree": 0}], "$.module.basis[0].name",
     "names must be nonempty and free of the tensor separator"),
    ("module", [{"name": "e", "degree": 0}, {"name": "x⊗y", "degree": 1}],
     "$.module.basis[1].name",
     "names must be nonempty and free of the tensor separator"),
    ("module", [{"name": "e"}], "$.module.basis[0].degree",
     "missing required field"),
    ("module", [{"name": "e", "degree": 1.0}], "$.module.basis[0].degree",
     "expected int, got float"),
    ("module", [{"name": "e", "degree": "0"}], "$.module.basis[0].degree",
     "expected int, got str"),
    ("module", [{"name": "e", "degree": False}], "$.module.basis[0].degree",
     "expected int, got bool"),
    ("module", [{}], "$.module.basis[0].name", "missing required field"),
    ("module", [{"name": "", "degree": 1.5}], "$.module.basis[0].degree",
     "expected int, got float"),
    ("module", [{"name": 7}], "$.module.basis[0].name",
     "expected str, got int"),
    ("module", [{"name": "e", "degree": 0}, {"name": "e", "degree": 1}],
     "$.module.basis", "duplicate basis name 'e'"),
    ("module", {"name": "e"}, "$.module.basis", "expected list, got dict"),
    ("pair", [7], "$.pair.module.basis[0]", "expected an object"),
    ("pair", [{"degree": 0}], "$.pair.module.basis[0].name",
     "missing required field"),
    ("pair", [{"name": 5, "degree": 0}], "$.pair.module.basis[0].name",
     "expected str, got int"),
    ("pair", [{"name": "", "degree": 0}], "$.pair.module.basis[0].name",
     "names must be nonempty and free of the tensor separator"),
    ("pair", [{"name": "m⊗", "degree": 0}], "$.pair.module.basis[0].name",
     "names must be nonempty and free of the tensor separator"),
    ("pair", [{"name": "m"}], "$.pair.module.basis[0].degree",
     "missing required field"),
    ("pair", [{"name": "m", "degree": 0.5}], "$.pair.module.basis[0].degree",
     "expected int, got float"),
    ("pair", [{"name": "m", "degree": 0}, {"name": "m", "degree": 0}],
     "$.pair.module.basis", "duplicate basis name 'm'"),
]


@pytest.mark.parametrize("module, basis, path, message", _BASIS_ERRORS)
def test_module_basis_errors_keep_path_and_message(module, basis, path,
                                                   message):
    if module == "module":
        doc = json.loads(json.dumps(_TABLES_BIALGEBRA))
        doc["mu"]["entries"] = doc["eta"] = []
        doc["module"]["basis"] = basis
    else:
        doc = _table_doc("cx.pair.map", [])
        doc["pair"]["module"]["basis"] = basis
    err = _schema_error(doc)
    assert (err.path, err.message) == (path, message)


def test_combination_terms_are_summed():
    # a combination is parsed into a row: e is at position 0
    eta = [["1", "e"], ["2", "e"]]
    assert sc.ingest(_combination_doc("eta", eta)).payload.eta == ((0, 3),)
    eta = [["1", "x"], ["-1", "x"]]
    assert sc.ingest(_combination_doc("eta", eta)).payload.eta == ()


def test_cancelling_terms_give_an_empty_row():
    # the x terms cancel, so no degree is judged: mu(e (x) e) = 0
    doc = _table_doc("mu", [_e(["e", "e"], [["1", "x"], ["-1", "x"]])])
    mu = sc.ingest(json.dumps(doc)).payload.mu
    assert mu.row(0, 0) == ()
    assert is_zero(mu.eval_basis("e⊗e"))
    # a surviving term is still judged, a cancelled one is not
    doc = _table_doc("mu", [_e(["e", "e"], [["1", "e"], ["1", "x"],
                                            ["-1", "x"]])])
    assert sc.ingest(json.dumps(doc)).payload.mu.row(0, 0) == ((0, 1),)


@pytest.mark.parametrize("ring, zero", [("Z", "0"), ("Q", "0/3"),
                                        ("GF(5)", "10")])
def test_zero_coefficients_leave_no_term(ring, zero):
    # a coefficient text that reads as zero in the ring adds no term, in a
    # table and in a combination alike
    doc = _table_doc("mu", [_e(["e", "e"], [[zero, "e"]]),
                            _e(["x", "e"], [["1", "x"], [zero, "x"]]),
                            _e(["e", "x"], [[zero, "x"], ["2", "x"]])], ring)
    doc["eta"] = [["1", "e"], [zero, "e"], [zero, "x"]]
    scn = sc.ingest(json.dumps(doc))
    mu = scn.payload.mu
    assert [mu.row(0, 0), mu.row(1, 0), mu.row(0, 1)] == [(), ((1, 1),),
                                                          ((1, 2),)]
    assert scn.payload.eta == ((0, 1),)


@pytest.mark.parametrize("names", [["e", "x"], ["x", "e"]])
def test_a_tensor_term_has_the_degree_of_both_factors(names):
    # lam has degree -1, so lam(x) has degree 0; e (x) x and x (x) e have
    # degree 1, which reading one factor twice would miss for one of them
    err = _schema_error(_table_doc("lambda", [_e(["x"], [["1", names]])]))
    assert (err.path, err.message) == (
        "$.lambda.entries[0].out", "inhomogeneous value: degree 1, expected 0")


def test_coefficients_are_parsed_per_ring():
    # the same texts read in each ring in turn, twice over: no value read
    # in one ring is reused in another
    want = {"Z": -1, "Q": -1, "GF(5)": 4, "GF(3)": 2, "GF(2)": 1}
    for ring, value in list(want.items()) * 2:
        doc = _table_doc("mu", [_e(["e", "e"], [["-1", "e"]])], ring)
        doc["eta"] = [["-1", "e"]]
        payload = sc.ingest(json.dumps(doc)).payload
        assert payload.mu.row(0, 0) == ((0, value),), ring
        assert payload.eta == ((0, value),), ring


@pytest.mark.parametrize("where, value, path", [
    ("mu", [_e(["e", "e"], [["1", "e"]]), _e(["e", "x"], []),
            _e(["x", "e"], [["1", "x"], ["1", "ghost"], ["1", "ghost"],
                            ["1", "x"]])],
     "$.mu.entries[2].out[1][1]"),
    ("mu", [_e(["e", "e"], [["1", "e"], ["1", "e"], [1, "e"], ["1", "e"],
                            [1, "e"]])],
     "$.mu.entries[0].out[2][0]"),
    ("lambda", [_e(["x"], [["1", ["e", "x"]], ["1", ["e", "x"]],
                           ["1", ["e", "x", "e"]], ["1", ["e", "x"]]])],
     "$.lambda.entries[0].out[2][1]"),
    ("eta", [["1", "e"], ["2", "e"], ["z", "e"], ["z", "e"]], "$.eta[2][0]"),
])
def test_a_term_error_names_the_first_failing_term(where, value, path):
    if where == "eta":
        doc = json.loads(json.dumps(_TABLES_BIALGEBRA))
        doc["eta"] = value
    else:
        doc = _table_doc(where, value)
    assert _schema_error(doc).path == path


def _instances_to_export():
    from chainalg.fixtures import fixture_names, mutate_lambda, mutate_mu, \
        mutation_targets
    w = TruncationWindow(4)
    for name in fixture_names():
        if name == "tstar-s1":
            continue
        for ring in (ZZ, QQ, GF(5)):
            inst = make_fixture(name, w, ring)
            yield inst
            targets = list(mutation_targets(inst, w))
            _, i, o = next(t for t in targets if t[0] == "mu")
            yield mutate_mu(inst, i, o)
            _, i, o = next(t for t in targets if t[0] == "lambda")
            yield mutate_lambda(inst, i, o)


def test_exported_instances_ingest_to_the_same_rows():
    count = 0
    for inst in _instances_to_export():
        scn = sc.ingest(json.dumps(sc.export_bialgebra(inst)))
        got = scn.payload
        assert structurally_equal(inst, got), inst.name
        dim = len(inst.module.basis())
        for i in range(dim):
            assert (dict(got.lam.row(i))
                    == dict(inst.lam.row(i))), (inst.name, i)
            for j in range(dim):
                assert (dict(got.mu.row(i, j))
                        == dict(inst.mu.row(i, j))), (inst.name, i, j)
        count += 1
    assert count == 6 * 3 * 3


@pytest.mark.parametrize("source", [
    "lambda-s1-plus-mu-Q.json", "lambda-s1-plus-cone-lam-GF5.json", "pair"])
def test_scenario_operations_are_row_maps(monkeypatch, source):
    from pathlib import Path

    from chainalg.graded import GradedMap

    def refuse(*args, **kwargs):
        raise AssertionError("from_table called during ingest")

    monkeypatch.setattr(GradedMap, "from_table", refuse)
    if source == "pair":
        doc = _table_doc("cx.pair.secondary", [])
        bundle = sc.ingest(json.dumps(doc)).payload
        ops = [bundle.complex.d, bundle.pair_map.source.d, bundle.pair_map.f,
               bundle.secondary]
    else:
        data = Path(__file__).resolve().parent / "data" / source
        payload = sc.load(str(data)).payload
        ops = [payload.mu, payload.lam]
    assert all(op.row_fn is not None for op in ops)
