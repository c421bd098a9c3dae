"""Seeded inputs and their known answers for the three workloads.

Every input is built here from the seed alone, and every expected verdict
comes from how the input was built, never from a chainalg run:

* axioms: the shipped bialgebra fixtures pass every axiom; a copy of one
  with a single structure constant negated, picked from the constants the
  quantifiers read (`fixtures.mutation_targets`), fails.
* cone: the `demo` suite passes on the three lambda fixtures.
* homology: cubical tori and Klein bottles, whose homology follows from
  the surface and the ring; the T*S^1 cone splits because its continuation
  map is zero; and dense matrices P*diag(d)*Q with P, Q unimodular, whose
  invariant factors are d.

A workload pass is a list of `Verdict`s; a run repeats the same pass.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass, field

AXIOM_NAMES = ("unit (left)", "unit (right)", "associativity",
               "coassociativity", "unital infinitesimal",
               "unital anti-symmetry")
BIALGEBRA_FIXTURES = ("lambda-s3", "lambda-s1-plus", "lambda-s1-minus",
                      "omega-s3", "omega-s1-plus", "omega-s1-minus")
CONE_FIXTURES = ("lambda-s3", "lambda-s1-plus", "lambda-s1-minus")

AXIOMS_RINGS = ("Z", "Q", "GF(5)")
AXIOMS_WINDOW = 18
CONE_WINDOWS = (8, 12)
SURFACES = ("torus", "klein")
# grid size -> instances per surface and ring in a pass; the small grids
# come several to a pass so that the median verdict sits among many
# draws of the same shape
GRID_INSTANCES = {4: 5, 6: 1}
HOMOLOGY_RINGS = ("Z", "Q", "GF(2)")
SNF_SIZE = 20
SNF_CALLS = 6

WORKLOADS = ("axioms", "cone", "homology")


@dataclass
class Expected:
    """What a verdict must produce.

    exit_code: the CLI's exit code; pass_ids: record ids that must have
    status "pass"; must_fail: at least one record has status "fail";
    homology: record id -> {degree: (free rank, torsion tuple)};
    diagonal: the Smith normal form diagonal of a direct SNF call.
    """

    exit_code: int = 0
    pass_ids: tuple = ()
    must_fail: bool = False
    homology: dict = field(default_factory=dict)
    diagonal: tuple = None


@dataclass
class Verdict:
    label: str
    expected: Expected
    argv: tuple = ()          # a chainalg CLI call, or
    matrix: list = None       # a direct smith_normal_form call on these rows
    files: dict = field(default_factory=dict)   # file name -> text, in argv


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------

def _axiom_ids(prefix):
    return tuple(f"{prefix}.axioms.{a}" for a in AXIOM_NAMES)


def _mutant_scenario(name, ring_name, op_kind, rng):
    """A fixture with one read structure constant of `op_kind` negated."""
    from chainalg import fixtures as fx
    from chainalg import scenario as sc
    from chainalg.rings import ring_from_name

    window = fx.TruncationWindow(AXIOMS_WINDOW)
    inst = fx.make_fixture(name, window, ring_from_name(ring_name))
    targets = [t for t in fx.mutation_targets(inst, window) if t[0] == op_kind]
    op, input_name, output_name = rng.choice(targets)
    if op == "mu":
        bad = fx.mutate_mu(inst, input_name, output_name)
    else:
        bad = fx.mutate_lambda(inst, input_name, output_name)
    doc = sc.export_bialgebra(bad, ring_name)
    doc["name"] = f"{name}!{op}"
    return doc


def axioms_pass(rng):
    """Six fixtures on three rings, then one mu and one lambda mutant per
    fixture, the rings taking turns."""
    out = []
    for ring in AXIOMS_RINGS:
        for name in BIALGEBRA_FIXTURES:
            out.append(Verdict(
                f"check {name} {ring} N={AXIOMS_WINDOW}",
                Expected(0, _axiom_ids(name) + (f"{name}.lambda-eta",)),
                argv=("check", name, "--ring", ring,
                      "--window", str(AXIOMS_WINDOW))))
    for i, name in enumerate(BIALGEBRA_FIXTURES):
        for j, op in enumerate(("mu", "lambda")):
            ring = AXIOMS_RINGS[(i + j) % len(AXIOMS_RINGS)]
            doc = _mutant_scenario(name, ring, op, rng)
            fname = f"mutant-{name}-{op}.json"
            out.append(Verdict(
                f"check mutant {name} {op} {ring}",
                Expected(1, must_fail=True),
                argv=("check", fname),
                files={fname: json.dumps(doc, indent=1)}))
    return out


# ---------------------------------------------------------------------------
# cone
# ---------------------------------------------------------------------------

def cone_pass(rng):
    """`demo` on the cone fixtures at both windows, in a seeded order."""
    out = []
    for window in CONE_WINDOWS:
        for name in CONE_FIXTURES:
            ids = _axiom_ids(name) + tuple(
                f"{name}.{c}" for c in ("lambda-eta", "components",
                                        "associativity", "assoc-infinitesimal"))
            if name != "lambda-s3":
                ids += (f"{name}.reverse-coproduct",)
            out.append(Verdict(f"demo {name} N={window}", Expected(0, ids),
                               argv=("demo", name, "--window", str(window))))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------

def surface_cells(kind, n):
    """Boundaries of the cubical n x n torus or Klein bottle.

    Cells are ("v"|"h"|"w"|"s", i, j): vertices, horizontal and vertical
    edges, squares.  Horizontal edges run (i,j)->(i+1,j), vertical ones
    (i,j)->(i,j+1), indices mod n.  The Klein bottle glues row n to row 0
    through i -> -i, which reverses the horizontal edges of that row.
    Returns {cell: [(coefficient, cell), ...]}.
    """
    def top_row_edge(i):        # the horizontal edge (i, n) -> (i+1, n)
        if kind == "torus":
            return [(1, ("h", i % n, 0))]
        return [(-1, ("h", (-i - 1) % n, 0))]

    def row_edge(i, j):
        return top_row_edge(i) if j == n else [(1, ("h", i % n, j))]

    def vertex_above(i, j):     # the vertex (i, j+1)
        if j + 1 < n:
            return ("v", i, j + 1)
        return ("v", i if kind == "torus" else (-i) % n, 0)

    bd = {}
    for i in range(n):
        for j in range(n):
            bd[("v", i, j)] = []
            bd[("h", i, j)] = [(1, ("v", (i + 1) % n, j)), (-1, ("v", i, j))]
            bd[("w", i, j)] = [(1, vertex_above(i, j)), (-1, ("v", i, j))]
            bd[("s", i, j)] = (row_edge(i, j) + [(1, ("w", (i + 1) % n, j))]
                               + [(-c, e) for c, e in row_edge(i, j + 1)]
                               + [(-1, ("w", i, j))])
    return bd


def surface_homology(kind, ring):
    """{degree: (free rank, torsion)} of the closed surface over `ring`."""
    if kind == "torus":
        return {0: (1, ()), 1: (2, ()), 2: (1, ())}
    if ring == "Z":
        return {0: (1, ()), 1: (1, (2,))}
    if ring.startswith("GF(") and int(ring[3:-1]) == 2:
        return {0: (1, ()), 1: (2, ()), 2: (1, ())}
    return {0: (1, ()), 1: (1, ())}


def surface_scenario(kind, n, ring, rng):
    """Complex scenario of the surface with seeded cell names and
    orientations (flipping a cell negates it everywhere it occurs)."""
    bd = surface_cells(kind, n)
    cells = sorted(bd)
    labels = list(range(len(cells)))
    rng.shuffle(labels)
    name = {c: f"c{labels[k]}" for k, c in enumerate(cells)}
    flip = {c: rng.choice((1, -1)) for c in cells}
    degree = {"v": 0, "h": 1, "w": 1, "s": 2}
    entries = []
    for c in cells:
        out = {}
        for coeff, face in bd[c]:
            out[face] = out.get(face, 0) + coeff * flip[c] * flip[face]
        combo = [[str(v), name[f]] for f, v in sorted(out.items()) if v]
        if combo:
            entries.append({"in": [name[c]], "out": combo})
    return {
        "schema_version": 1,
        "kind": "complex",
        "name": f"{kind}{n}",
        "ring": ring,
        "module": {"basis": [{"name": name[c], "degree": degree[c[0]]}
                             for c in cells]},
        "differential": {"degree": -1, "entries": entries},
    }


def _unimodular(n, rng):
    """Product of 4n seeded elementary integer row operations."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(4 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


def matmul(a, b):
    """Integer matrix product on lists of rows."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def snf_input(n, rng):
    """(rows of P*diag(d)*Q, d) with d1 | d2 | ... and two zero factors."""
    base = [1] * (n // 2) + [2] * (n // 4)
    d = base + [2 * rng.choice((3, 5, 7))] * (n - len(base) - 2) + [0, 0]
    diag = [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]
    return matmul(matmul(_unimodular(n, rng), diag), _unimodular(n, rng)), d


def homology_pass(rng):
    """Surfaces on every ring, the T*S^1 cone, and direct SNF calls."""
    out = []
    for n, instances in GRID_INSTANCES.items():
        for kind, ring, k in itertools.product(SURFACES, HOMOLOGY_RINGS,
                                               range(instances)):
            doc = surface_scenario(kind, n, ring, rng)
            fname = f"{kind}{n}-{ring}-{k}.json"
            out.append(Verdict(
                f"homology {kind} {n}x{n} {ring} #{k}",
                Expected(0, (f"{kind}{n}.d-squared",),
                         homology={f"{kind}{n}.homology":
                                   surface_homology(kind, ring)}),
                argv=("homology", fname),
                files={fname: json.dumps(doc, indent=1)}))
    # c = 0, so the cone is the direct sum of the two shifted complexes
    out.append(Verdict(
        "homology tstar-s1 --cone",
        Expected(0, ("tstar-s1.transition.unipotent",
                     "tstar-s1.transition.homology-action"),
                 homology={"tstar-s1.homology": {-1: (1, ()), 0: (1, ())},
                           "tstar-s1.homology.pair": {-2: (1, ()), -1: (1, ())},
                           "tstar-s1.homology.cone": {-1: (2, ()), 0: (2, ())}}),
        argv=("homology", "tstar-s1", "--cone")))
    for k in range(SNF_CALLS):
        rows, d = snf_input(SNF_SIZE, rng)
        out.append(Verdict(f"smith_normal_form {SNF_SIZE}x{SNF_SIZE} #{k}",
                           Expected(diagonal=tuple(d)), matrix=rows))
    return out


BUILDERS = {"axioms": axioms_pass, "cone": cone_pass,
            "homology": homology_pass}


def build(workload: str, seed: int):
    """The verdicts of a pass; the same seed gives the same verdicts."""
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def write_files(verdicts, workdir) -> None:
    for v in verdicts:
        for fname, text in v.files.items():
            with open(os.path.join(workdir, fname), "w", encoding="utf-8") as fh:
                fh.write(text)


def digest(verdicts) -> str:
    """sha256 of the generated inputs and their expected answers."""
    h = hashlib.sha256()
    for v in verdicts:
        h.update(json.dumps({
            "label": v.label, "argv": list(v.argv), "matrix": v.matrix,
            "files": v.files, "expected": repr(v.expected),
        }, sort_keys=True).encode())
    return h.hexdigest()
