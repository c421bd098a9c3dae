import json

import pytest

from chainalg.rings import GF
from chainalg import scenario as sc
from chainalg.fixtures import TruncationWindow, make_fixture
from chainalg.bialgebra import check_axioms


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
    assert rep.passed, rep.describe()


def test_default_checks_per_kind():
    scn = sc.ingest(dict(MINIMAL))
    assert scn.checks == ("axioms", "lambda-eta")


def test_unknown_check_rejected_with_path():
    doc = dict(MINIMAL)
    doc["checks"] = ["axioms", "nope"]
    with pytest.raises(sc.SchemaError) as ei:
        sc.ingest(doc)
    assert ei.value.path == "$.checks[1]"


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
    assert check_axioms(scn.payload).passed  # 3/4 + 1/4 = 1


@pytest.mark.parametrize("name", ["lambda-s3", "omega-s1-minus"])
def test_fixture_export_round_trip(name):
    w = TruncationWindow(6)
    inst = make_fixture(name, w)
    doc = sc.export_bialgebra(inst)
    scn = sc.ingest(json.dumps(doc))
    assert sc.structurally_equal(inst, scn.payload)
    # and the re-ingested instance still passes its axioms
    assert check_axioms(scn.payload).passed


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
    from chainalg.cone_product import derive_secondary_ops, cross_check_components

    assert cross_check_components(derive_secondary_ops(scn.payload)).passed


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

    assert homology(bundle.complex).torsion(0) == [2]


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
    from chainalg.fixtures import make_loop_circle

    inst = make_loop_circle(TruncationWindow(4), "minus")
    doc = sc.export_bialgebra(inst)
    doc["checks"] = ["axioms", "reverse-bivector-gate"]
    # lam_minus(eta) = 1(x)A - A(x)1
    doc["reverse_bivector"] = [["1", ["1", "A"]], ["-1", ["A", "1"]]]
    scn = sc.ingest(json.dumps(doc))
    assert scn.reverse_bivector is not None
    from chainalg.bialgebra import check_lemma_c_lambda_eta

    assert check_lemma_c_lambda_eta(scn.reverse_bivector, scn.payload).passed
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
    assert sc.ingest(json.dumps(doc)).payload.complex.module.dim(0) == sc.MAX_BASIS


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


def test_entry_count_cap():
    doc = json.loads(json.dumps(MINIMAL))
    doc["mu"]["entries"] *= sc.MAX_ENTRIES + 1
    assert _rejected_at(doc) == "$.mu.entries"
    cx = _complex_doc()
    cx["differential"]["entries"] *= sc.MAX_ENTRIES + 1
    assert _rejected_at(cx) == "$.differential.entries"


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
