import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from chainalg import cli
from chainalg import report as rp
from chainalg import scenario as sc
from chainalg.bialgebra import AXIOM_ORDER

CLI = [sys.executable, "-m", "chainalg.cli"]
DATA = Path(__file__).resolve().parent / "data"


def run(*args, **kw):
    """A separate `python -m chainalg.cli` run."""
    return subprocess.run(CLI + list(args), capture_output=True, text=True, **kw)


@pytest.fixture
def main(capsys):
    """`cli.main` called in this process, with a result shaped as `run`'s:
    its exit code (argparse's own exit included), stdout and stderr."""
    def call(*args):
        try:
            code = cli.main(list(args))
        except SystemExit as e:
            code = e.code
        out = capsys.readouterr()
        return subprocess.CompletedProcess(list(args), code, out.out, out.err)

    return call


def test_demo_fixture_passes(main):
    r = main("demo", "lambda-s3", "--window", "6")
    assert r.returncode == 0, r.stderr
    assert "axioms.unit" in r.stdout
    assert "FAIL" not in r.stdout


def test_demo_prints_lambda_eta_value(main):
    r = main("demo", "lambda-s1-plus", "--window", "6")
    assert r.returncode == 0
    assert "lam(eta)" in r.stdout
    assert "A" in r.stdout


def test_check_unknown_target_exits_2(main):
    r = main("check", "no-such-fixture.json")
    assert r.returncode == 2
    assert "schema error" in r.stderr
    assert "lambda-s3" in r.stderr  # catalog listed


def test_schema_error_path_reported(tmp_path, main):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "schema_version": 1,
        "kind": "bialgebra",
        "ring": "Z",
        "module": {"basis": [{"name": "e", "degree": 0}]},
        "mu": {"degree": 0, "entries": [{"in": ["e", "e"],
                                         "out": [["1", "ghost"]]}]},
        "lambda": {"degree": -1, "entries": []},
        "eta": [["1", "e"]],
    }))
    r = main("check", str(bad))
    assert r.returncode == 2
    assert "$.mu.entries[0].out" in r.stderr


def test_mixed_degree_value_exits_2(tmp_path, capsys):
    # mu(e (x) e) = e + x mixes degrees 0 and 1
    bad = tmp_path / "mixed.json"
    bad.write_text(json.dumps({
        "schema_version": 1,
        "kind": "bialgebra",
        "ring": "Z",
        "module": {"basis": [{"name": "e", "degree": 0},
                             {"name": "x", "degree": 1}]},
        "mu": {"degree": 0, "entries": [{"in": ["e", "e"],
                                         "out": [["1", "e"], ["1", "x"]]}]},
        "lambda": {"degree": -1, "entries": []},
        "eta": [["1", "e"]],
    }))
    assert cli.main(["check", str(bad)]) == 2
    assert ("schema error at $.mu.entries[0].out: inhomogeneous value: "
            "degrees [0, 1], expected 0") in capsys.readouterr().err


@pytest.mark.parametrize("field, path", [
    ("name", "$.name"), ("secondary", "$.pair.secondary")])
def test_hostile_complex_scenario_exits_2(tmp_path, field, path, main):
    doc = {
        "schema_version": 1,
        "kind": "complex",
        "ring": "Z",
        "module": {"basis": [{"name": "a", "degree": 0}]},
        "differential": {"degree": -1, "entries": []},
        "pair": {"module": {"basis": [{"name": "m", "degree": 0}]},
                 "differential": {"degree": -1, "entries": []},
                 "map": {"degree": 0, "entries": []}},
    }
    (doc if field == "name" else doc["pair"])[field] = 5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    r = main("check", str(bad))
    assert r.returncode == 2
    assert f"schema error at {path}" in r.stderr
    assert "Traceback" not in r.stderr


def _hostile(field):
    """A complex scenario made hostile in one field, and that field's path."""
    doc = {
        "schema_version": 1,
        "kind": "complex",
        "ring": "Z",
        "module": {"basis": [{"name": n, "degree": d}
                             for n, d in (("a", 0), ("b", 1), ("c", 2))]},
        "differential": {"degree": -1,
                         "entries": [{"in": ["b"], "out": [["2", "a"]]}]},
        "top": 2,
        "checks": ["d-squared", "essential"],
        "pair": {"module": {"basis": [{"name": "m", "degree": 0}]},
                 "differential": {"degree": -1, "entries": []},
                 "map": {"degree": 0, "entries": []}},
    }
    if field == "top":
        doc["top"] = 1
    elif field == "secondary":
        doc["pair"]["secondary"] = {
            "degree": 1, "entries": [{"in": ["m"], "out": [["1", "b"]]}]}
    elif field == "checks":
        del doc["top"]
    elif field == "ring":
        doc["ring"] = f"GF({2 ** 61 - 1})"
    text = json.dumps(doc)
    if field == "integer":
        text = text.replace('"top": 2', '"top": ' + "7" * 5000)
    path = {"secondary": "$.pair.secondary", "integer": "$"}.get(field,
                                                                 f"$.{field}")
    return text, path


@pytest.mark.parametrize("field", ["top", "secondary", "checks", "ring",
                                   "integer"])
@pytest.mark.parametrize("command", [("check",), ("homology", "--cone")])
def test_hostile_field_is_a_schema_error_within_a_second(
        tmp_path, capsys, field, command):
    text, path = _hostile(field)
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    start = time.perf_counter()
    code = cli.main([*command, str(bad)])
    elapsed = time.perf_counter() - start
    assert code == 2
    assert f"schema error at {path}:" in capsys.readouterr().err
    assert elapsed < 1.0, f"{field}: {elapsed:.2f} s"
    text, _ = _hostile(None)
    bad.write_text(text)
    assert cli.main([*command, str(bad)]) == 0


def test_failed_check_exits_1(tmp_path, main):
    # sign-flipped coproduct on a tiny free-loop circle window: the unital
    # infinitesimal relation must fail and the witness be printed
    from chainalg.fixtures import make_fixture, TruncationWindow, mutate_lambda
    from chainalg import scenario as sc
    from chainalg.graded import TENSOR_SEP

    inst = make_fixture("omega-s3", TruncationWindow(6))
    bad = mutate_lambda(inst, "U^2", f"1{TENSOR_SEP}U")
    doc = sc.export_bialgebra(bad)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    r = main("check", str(path))
    assert r.returncode == 1
    assert "FAIL" in r.stdout
    assert "witness" in r.stdout


def test_an_empty_safe_list_exits_2(tmp_path, capsys):
    # the scenario fails 3 axioms; with no safe names it would pass them all
    doc = json.loads((DATA / "lambda-s1-plus-mu-Q.json").read_text(
        encoding="utf-8"))
    path = tmp_path / "empty-safe.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check", str(path)]) == 1
    doc["safe"] = []
    path.write_text(json.dumps(doc))
    assert cli.main(["check", str(path)]) == 2
    assert "$.safe" in capsys.readouterr().err


# a cone scenario whose continuation map c(x0^) = x0 is not a chain map:
# d(x0) = x1, while d_M(x0^) = 0
BAD_CONE = {"schema_version": 1, "kind": "cone", "name": "badcone",
            "ring": "Z",
            "module": {"basis": [{"name": "x0", "degree": 0},
                                 {"name": "x1", "degree": -1}]},
            "differential": {"degree": -1, "entries": [
                {"in": ["x0"], "out": [["1", "x1"]]}]},
            "mu": {"degree": 0, "entries": []},
            "lambda": {"degree": 1, "entries": []},
            "eta": [], "n": 0, "c0": [["1", ["x0", "x0"]]]}


@pytest.mark.parametrize("command", ["check", "cone"])
def test_a_continuation_that_is_not_a_chain_map_exits_2(tmp_path, capsys,
                                                        command):
    path, out = tmp_path / "badcone.json", tmp_path / "report.json"
    path.write_text(json.dumps(BAD_CONE))
    assert cli.main([command, str(path), "--output", str(out)]) == 2
    assert capsys.readouterr().err == (
        "schema error at $: not a chain map: fails on x0^\n")
    assert not out.exists()


@pytest.mark.parametrize("case", ["output is a directory",
                                  "output in a missing directory",
                                  "target is a directory"])
def test_an_os_error_exits_2_without_a_traceback(tmp_path, case, main):
    # exit 1 means a check failed (test_failed_check_exits_1); a file that
    # cannot be read or written is an error, one line on stderr
    args = {"output is a directory": ("omega-s3", "-o", str(tmp_path)),
            "output in a missing directory": (
                "omega-s3", "-o", str(tmp_path / "missing" / "x.md")),
            "target is a directory": (str(tmp_path),)}[case]
    r = main("check", *args)
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1


def test_an_oversized_window_exits_2_before_anything_is_built(capsys):
    start = time.perf_counter()
    assert cli.main(["demo", "omega-s3", "--window", "100000000"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "more than the 2048" in capsys.readouterr().err


@pytest.mark.parametrize("name,window", [
    ("lambda-s1-plus", 74), ("omega-s1-minus", 128), ("lambda-s3", 181),
    ("omega-s3", 314)])
def test_export_writes_only_what_check_accepts(tmp_path, capsys, name,
                                               window):
    # the largest window whose export `check` reads back, and the next one,
    # whose mu has more entries than ingest accepts: refused, no file
    # (the plus and minus variants share their modules and entry counts)
    out = tmp_path / "f.json"
    assert cli.main(["export", name, "--window", str(window),
                     "-o", str(out)]) == 0
    sc.load(str(out))
    out.unlink()
    assert cli.main(["export", name, "--window", str(window + 1),
                     "-o", str(out)]) == 2
    assert "schema error at $.mu.entries:" in capsys.readouterr().err
    assert not out.exists()


def test_homology_tstar_cone(main):
    r = main("homology", "tstar-s1", "--cone")
    assert r.returncode == 0
    assert "nontrivial on cone homology" in r.stdout


def test_cone_subcommand(main):
    r = main("cone", "lambda-s1-plus", "--window", "6")
    assert r.returncode == 0, r.stdout + r.stderr
    assert "components" in r.stdout
    assert "associativity" in r.stdout


def test_cone_rejects_non_cone_fixture(main):
    r = main("cone", "omega-s3")
    assert r.returncode == 2


def test_json_format_and_determinism(main):
    # one run in this process and one separate run: the output depends on
    # neither the process nor its hash seed
    a = main("check", "omega-s1-plus", "--window", "6", "--format", "json")
    b = run("check", "omega-s1-plus", "--window", "6", "--format", "json")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert doc["summary"]["fail"] == 0
    assert all(r["status"] in ("pass", "fail", "error", "skip", "info")
               for r in doc["records"])


def test_report_multi_target_and_jobs_determinism(main):
    args = ("report", "omega-s1-plus", "omega-s1-minus", "--window", "6",
            "--format", "json")
    first = main(*args)
    second = run(*args)   # a separate process, as above
    assert first.returncode == 0
    assert first.stdout == second.stdout
    # report runs its targets in order and has no --jobs option
    jobs = main(*args, "--jobs", "4")
    assert jobs.returncode == 2
    assert "--jobs" in jobs.stderr


def test_export_then_check_round_trip(tmp_path, main):
    out = tmp_path / "fixture.json"
    r = main("export", "omega-s1-minus", "--window", "6", "-o", str(out))
    assert r.returncode == 0
    r2 = main("check", str(out))
    assert r2.returncode == 0, r2.stdout + r2.stderr


def test_export_tstar_s1_then_homology_cone(tmp_path, main):
    out = tmp_path / "f.json"
    assert main("export", "tstar-s1", "-o", str(out)).returncode == 0
    r = main("homology", str(out), "--cone")
    assert r.returncode == 0, r.stdout + r.stderr
    assert "tstar-s1.continuation-vanishes" in r.stdout


@pytest.mark.parametrize("ring", ["Z", "Q", "GF(5)"])
def test_exported_tstar_s1_reports_what_its_demo_reports(tmp_path, ring):
    # the scenario file that `export` writes is the fixture: its `homology
    # --cone` records are the demo's, id, status and detail
    scenario, demo, homology = (tmp_path / n for n in ("f.json", "d", "h"))
    assert cli.main(["export", "tstar-s1", "--ring", ring,
                     "-o", str(scenario)]) == 0
    assert cli.main(["demo", "tstar-s1", "--ring", ring, "--format", "json",
                     "-o", str(demo)]) == 0
    assert cli.main(["homology", str(scenario), "--cone", "--format", "json",
                     "-o", str(homology)]) == 0
    records = [json.loads(p.read_text())["records"] for p in (demo, homology)]
    assert records[0] == records[1]
    assert [r["id"] for r in records[0]] == [
        f"tstar-s1.{i}" for i in (
            "homology", "homology.pair", "homology.cone",
            "transition.unipotent", "transition.homology-action",
            "continuation-vanishes")]


def test_demo_list(main):
    r = main("demo", "--list")
    assert r.returncode == 0
    for name in ("lambda-s3", "tstar-s1"):
        assert name in r.stdout


def test_timings_flag_adds_timing(main):
    r = main("check", "omega-s1-plus", "--window", "6", "--timings",
            "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert any("elapsed_ms" in rec for rec in doc["records"])


@pytest.mark.parametrize("argv", [
    ["demo", "tstar-s1"], ["homology", "tstar-s1", "--cone"],
    ["homology", str(DATA / "essential-pass-Z.json")]],
    ids=["demo", "homology-cone", "homology-scenario"])
def test_timings_flag_times_every_complex_record(argv, capsys):
    docs = []
    for extra in ([], ["--timings"]):
        assert cli.main(argv + ["--format", "json"] + extra) == 0
        docs.append(json.loads(capsys.readouterr().out))
    plain, timed = (doc["records"] for doc in docs)
    assert len(plain) >= 3
    assert not any("elapsed_ms" in rec for rec in plain)
    assert all(rec.pop("elapsed_ms") >= 0 for rec in timed)
    assert timed == plain


@pytest.mark.parametrize("argv", [
    ["demo", "lambda-s3", "--window", "8"],
    ["check", str(DATA / "omega-s1-minus-gate-Z.json")]],
    ids=["demo", "check-gate-scenario"])
def test_timings_flag_times_every_bialgebra_record(argv, capsys):
    docs = []
    for extra in ([], ["--timings"]):
        assert cli.main(argv + ["--format", "json"] + extra) == 0
        docs.append(json.loads(capsys.readouterr().out))
    plain, timed = (doc["records"] for doc in docs)
    assert {"lambda-eta", "cc-antisymmetry"} <= {
        rec["id"].split(".", 1)[1] for rec in plain}
    assert not any("elapsed_ms" in rec for rec in plain)
    assert all(rec.pop("elapsed_ms") >= 0 for rec in timed)
    assert timed == plain


@pytest.mark.parametrize("name, argv, broken", [
    ("check_axioms", ["demo", "lambda-s3", "--window", "8"],
     [f"lambda-s3.axioms.{a}" for a in AXIOM_ORDER]),
    ("lambda_eta", ["demo", "lambda-s3", "--window", "8"],
     ["lambda-s3.lambda-eta"]),
    ("check_involutivity", ["demo", "lambda-s3", "--window", "8"],
     ["lambda-s3.involutivity"]),
    ("check_cc_implies_antisymmetry", ["demo", "lambda-s3", "--window", "8"],
     ["lambda-s3.cc-antisymmetry"]),
    ("check_lemma_c_lambda_eta",
     ["check", str(DATA / "omega-s1-minus-gate-Z.json")],
     ["omega-s1-minus-gate.reverse-bivector-gate"])])
def test_an_exception_in_a_check_is_an_error_record(monkeypatch, capsys,
                                                    name, argv, broken):
    def fail(*args, **kwargs):
        raise RuntimeError("broken")

    monkeypatch.setattr(rp, name, fail)
    assert cli.main(argv + ["--format", "json"]) == 1
    records = json.loads(capsys.readouterr().out)["records"]
    errors = [rec for rec in records if rec["status"] == "error"]
    assert [rec["id"] for rec in errors] == broken
    assert {rec["detail"] for rec in errors} == {"RuntimeError: broken"}
    assert all(rec["status"] in ("pass", "skip") for rec in records
               if rec not in errors)


def test_reverse_bivector_gate_via_cli(tmp_path, main):
    from chainalg.fixtures import make_fixture, TruncationWindow
    from chainalg import scenario as sc

    inst = make_fixture("lambda-s1-minus", TruncationWindow(4))
    doc = sc.export_bialgebra(inst)
    doc["checks"] = ["reverse-bivector-gate"]
    doc["reverse_bivector"] = [["1", ["1", "A"]], ["-1", ["A", "1"]]]
    good = tmp_path / "gate.json"
    good.write_text(json.dumps(doc))
    r = main("check", str(good))
    assert r.returncode == 0, r.stdout + r.stderr
    # a deliberately wrong bivector fails with the difference reported
    doc["reverse_bivector"] = [["1", ["1", "A"]]]
    bad = tmp_path / "gate-bad.json"
    bad.write_text(json.dumps(doc))
    r2 = main("check", str(bad))
    assert r2.returncode == 1
    assert "differs from lam(eta)" in r2.stdout


def test_homology_complex_scenario_with_cone(tmp_path, main):
    doc = {
        "schema_version": 1,
        "kind": "complex",
        "ring": "Z",
        "module": {"basis": [{"name": "a", "degree": 0}]},
        "differential": {"degree": -1, "entries": []},
        "pair": {
            "module": {"basis": [{"name": "m", "degree": 0}]},
            "differential": {"degree": -1, "entries": []},
            "map": {"degree": 0, "entries": [{"in": ["m"], "out": [["2", "a"]]}]},
        },
    }
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    r = main("homology", str(path), "--cone")
    assert r.returncode == 0, r.stdout + r.stderr
    assert "R/2" in r.stdout   # cone of multiplication by two


def test_in_process_main_calls_match_separate_runs(tmp_path):
    # one parser serves every `main` call of a process (parse_args leaves
    # it as it was): subcommands and options given one after another must
    # leave nothing for the next call (the last case drops the --ring and
    # --cone of the first)
    cases = [
        ("homology", "tstar-s1", "--cone", "--ring", "Q", "--format", "json"),
        ("check", "lambda-s3", "--window", "6", "--format", "json"),
        ("homology", str(DATA / "klein4-Z.json")),
        ("demo", "tstar-s1", "--ring", "GF(5)"),
        ("cone", "lambda-s1-plus", "--window", "6", "--format", "json"),
        ("homology", "tstar-s1", "--format", "json"),
    ]
    in_process = []
    for k, argv in enumerate(cases):
        out = tmp_path / f"in-process-{k}"
        assert cli.main([*argv, "--output", str(out)]) == 0, argv
        in_process.append(out.read_bytes())
    assert cli.build_parser.cache_info().currsize == 1
    for k, argv in enumerate(cases):
        out = tmp_path / f"separate-{k}"
        r = run(*argv, "--output", str(out))
        assert r.returncode == 0, r.stderr
        assert out.read_bytes() == in_process[k], argv


def test_dense_unit_free_homology_bound(tmp_path, monkeypatch):
    # 80 cells: d(e_k) = sum_i a_ki v_i for e_0..e_39 in degree 1 and
    # v_0..v_39 in degree 0, each a_ki = choice((-1, 1)) * randint(2, 9)
    # in turn from random.Random("dense40:1").  No entry is a unit, so the
    # whole block goes through the Smith normal form
    monkeypatch.chdir(DATA)
    out = tmp_path / "report.json"
    start = time.perf_counter()
    assert cli.main(["homology", "dense40-Z.json", "--format", "json",
                     "--output", str(out)]) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"{elapsed:.2f} s"
    assert "dense40.homology" in out.read_text(encoding="utf-8")
