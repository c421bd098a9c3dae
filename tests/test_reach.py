"""Reach of the library from the command line.

A fixed list of `chainalg` commands runs in one fresh interpreter under
`sys.settrace`, which records every Python function called (its global
hook sees Python calls only, so it costs less than `sys.setprofile`, which
also reports each call into C).  Each `def` and each `lambda` in
`src/chainalg` must be among them or on ALLOWED, with the reason it is not
reached.  ALLOWED may only shrink: an entry whose code now runs, or no
longer exists, fails the test as well, so that the list stays exact.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import chainalg
from chainalg.fixtures import fixture_names

# the src/ that the tests import, which is a mutated copy under mutants.py
SRC = Path(chainalg.__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parent / "data"

PERFBENCH = ("pinned by perfbench/layertrace.py METHODS until the "
             "benchmark change (ROADMAP item 1)")
DENSE = "the dense reference of perfbench/ and the tests (ROADMAP item 1)"
REDUCED = "reduced homology, ROADMAP item 3"
TEST_ONLY = "test-only helper"
API = "public API that only the tests call"
FAILURE = "formats a failure; no shipped fixture or scenario fails"
REPR = "debugging aid; no report prints it"
HASH = "no command hashes it"
MALFORMED = "raises on a malformed scenario; the shipped ones are valid"
CHAIN_MU = ("mu as a chain map on a bialgebra with a differential, which no "
            "shipped scenario has")

# "module.qualified name" of a def or lambda that no command reaches -> why
ALLOWED = {
    "complexes.ChainComplex.__repr__": REPR,
    "complexes._require_chain_map.<lambda 1>": CHAIN_MU,
    "complexes.is_chain_homotopic": REDUCED,
    "complexes.is_chain_homotopic.<lambda 1>": REDUCED,
    "complexes.graded_commutator": REDUCED,
    "complexes.QuotientComplex.__init__": REDUCED,
    "complexes.QuotientComplex._coordinates": REDUCED,
    "complexes.QuotientComplex.reduces_to_zero": REDUCED,
    "complexes.QuotientComplex._generators": REDUCED,
    "complexes.QuotientComplex._boundary": REDUCED,
    "complexes.QuotientComplex.projection_is_chain_map": REDUCED,
    "complexes.QuotientComplex.homology": REDUCED,
    "complexes.quotient_by_image": REDUCED,
    "complexes.induced_quotient_homotopy": REDUCED,
    "complexes.induced_quotient_homotopy.<lambda 1>": REDUCED,
    "complexes.induced_quotient_homotopy.rows": REDUCED,
    "complexes.induced_quotient_homotopy.sides": REDUCED,
    "complexes.is_essential.<lambda 2>":
        "a cochain-oriented complex, only in " + REDUCED,
    "cone_product._cyclic_rotate":
        "cone packages with B != 0; none ships (ROADMAP item 6)",
    "cone_product.cross_check_components.show": FAILURE,
    "fixtures.flip_structure_constant": TEST_ONLY,
    "fixtures.flip_structure_constant.rows": TEST_ONLY,
    "fixtures.mutate_lambda": TEST_ONLY,
    "fixtures.mutate_mu": TEST_ONLY,
    "fixtures.mutation_targets": TEST_ONLY,
    "graded.BasisElement.__repr__": REPR,
    "graded.GradedModule.__hash__": HASH,
    "graded.GradedModule.__repr__": REPR,
    "graded.TensorModule._struct":
        "compares equal but distinct tensor modules; commands build "
        "each product once",
    "graded.TensorModule.__hash__": HASH,
    "graded.TensorModule.__repr__": REPR,
    "graded.Vector.__init__": PERFBENCH,
    "graded.Vector.__eq__": API,
    "graded.Vector.__hash__": HASH,
    "graded.Vector.__repr__": REPR,
    "graded.GradedMap.eval_basis":
        "pinned by perfbench/layertrace.py METHODS; the mutant helpers of "
        "fixtures, which perfbench calls, read by names through it",
    "graded.GradedMap.block": PERFBENCH,
    "graded.GradedMap.__repr__": REPR,
    "graded.shift_map.rows":
        "an odd map shifted by an odd k; every shipped shift is even",
    "matrices.ExactMatrix.__init__": PERFBENCH,
    "matrices.ExactMatrix.from_rows": DENSE,
    "matrices.ExactMatrix.identity": DENSE,
    "matrices.ExactMatrix.to_rows": DENSE,
    "matrices.ExactMatrix.__eq__": DENSE,
    "matrices.ExactMatrix.__hash__": HASH,
    "matrices.ExactMatrix.__repr__": REPR,
    "matrices.ExactMatrix.__mul__": PERFBENCH,
    "matrices.ExactMatrix.transpose": PERFBENCH,
    "matrices.ExactMatrix.apply": PERFBENCH,
    "matrices._dot": PERFBENCH,
    "matrices.ExactMatrix.__getitem__": DENSE,
    "matrices.ExactMatrix.row": DENSE,
    "matrices.ExactMatrix.col": DENSE,
    "matrices.smith_normal_form": DENSE,
    "matrices.ImageSolver.image": REDUCED,
    "matrices.ImageSolver.solve": API,
    "matrices.diagonal_of": DENSE,
    "matrices._combine_rows":
        "an integer block that needs a non-unit gcd step; no shipped "
        "scenario has one, the tests do",
    "matrices._xgcd":
        "an integer block that needs a non-unit gcd step; no shipped "
        "scenario has one, the tests do",
    "matrices.image_rank":
        "pinned by perfbench/test_perfbench.py's image_rank span "
        "(ROADMAP item 1)",
    "rings.Ring.__hash__": HASH,
    "rings.Ring.zero": API,
    "rings.Ring.div": API,
    "rings.Ring.__init__.<lambda 2>":
        "subtraction over GF(p), as in elimination; no command here "
        "eliminates or subtracts Vectors over GF(p)",
    "scenario._basis_error": MALFORMED,
    "scenario._degree_error": MALFORMED,
    "scenario._name_error": MALFORMED,
    "scenario._parse_rows.error": MALFORMED,
    "scenario._parse_rows.term_error": MALFORMED,
    "scenario._parse_rows.<lambda 1>":
        "the degree of a term of three or more names, or of a tensor "
        "term in an inhomogeneous value; no shipped scenario has either",
}

# Runs the commands given as JSON in argv[1] with the tracer on from
# before the first import, and prints the (file, first line) of every code
# object of the package that was called.
_RUN = """
import contextlib, io, json, os, sys
reached = set()
sys.settrace(lambda frame, event, arg: reached.add(frame.f_code))
from chainalg import cli
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        cli.main(argv)
sys.settrace(None)
package = os.path.dirname(cli.__file__)
print(json.dumps(sorted({(os.path.basename(c.co_filename), c.co_firstlineno)
                         for c in reached
                         if os.path.dirname(c.co_filename) == package})))
"""


def commands():
    """demo, check on three rings and export on every fixture at window 8;
    check, homology --cone and cone on every scenario file, in JSON (plain
    homology runs nothing that homology --cone does not); the cone of
    tstar-s1; one Markdown report."""
    out = []
    for name in fixture_names():
        out.append(["demo", name, "--window", "8"])
        out += [["check", name, "--window", "8", "--ring", ring]
                for ring in ("Z", "Q", "GF(5)")]
        out.append(["export", name, "--window", "8"])
    for path in sorted(DATA.glob("*.json")):
        if path.name != "report_digests.json":
            for command in (["check"], ["homology", "--cone"], ["cone"]):
                out.append([command[0], str(path), *command[1:],
                            "--format", "json"])
    out.append(["homology", "tstar-s1", "--cone"])
    out.append(["report", "omega-s1-minus", "tstar-s1", "--window", "8"])
    return out


def defs():
    """{(file name, first line): "module.qualified name"} of every def and
    lambda in the package, the first line of a def being that of its first
    decorator.  The k-th lambda in source order directly inside a def or
    class (or at module level) is named "<lambda k>" there; lambdas that
    start on one line share its entry, the last one's name."""
    out = {}
    lambdas = {}   # (module, prefix) -> lambdas named there so far

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                if isinstance(child, ast.FunctionDef):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    out[path.name, first] = f"{module}.{name}"
                visit(child, module, name + ".")
                continue
            if isinstance(child, ast.Lambda):
                k = lambdas[module, prefix] = lambdas.get((module, prefix),
                                                          0) + 1
                out[path.name, child.lineno] = f"{module}.{prefix}<lambda {k}>"
            visit(child, module, prefix)

    for path in sorted((SRC / "chainalg").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return out


def test_every_def_is_reached_or_allowed():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    r = subprocess.run([sys.executable, "-c", _RUN, json.dumps(commands())],
                       capture_output=True, text=True, env=env, timeout=60)
    assert r.returncode == 0, r.stderr
    reached = {tuple(x) for x in json.loads(r.stdout)}
    names = defs()
    unreached = {names[k] for k in names.keys() - reached}
    # the names are listed in the message, in full: pytest's diff of a
    # long list names only its first extra item
    missing = sorted(unreached - ALLOWED.keys())
    assert not missing, "not reached, not allowed:\n" + "\n".join(missing)
    stale = sorted(ALLOWED.keys() - unreached)
    assert not stale, "allowed, but reached or gone:\n" + "\n".join(stale)
