"""Scenario files: versioned JSON descriptions of instances to verify.

A scenario carries a ring, a graded module, operation tables, and a list
of checks.  Coefficients are strings so that Z, Q, and GF(p) share one
encoding; linear combinations are lists of [coefficient, name] pairs where
name is a basis name or a list of names for tensor values.

Top-level fields:

    schema_version   1
    kind             "bialgebra" | "cone" | "complex"
    name             optional label
    ring             "Z" | "Q" | "GF(p)"
    module           {"basis": [{"name": ..., "degree": ...}, ...]}
    safe             optional list of basis names (quantifier window)
    checks           optional list of check ids (defaults per kind)

bialgebra: mu, lambda (operation tables), eta (combination), optional
differential.  cone: the bialgebra fields plus n and optional c0, Q0, B.
complex: differential, optional top (extreme degree for the essential
check, which needs it; the support must lie in [0, top]), optional pair
{module, differential, map, secondary} describing a second complex with a
chain map into the main one and a degree +1 chain map alongside it; the
continuation-vanishes check needs the pair and passes when its map is 0.

Operation tables: {"degree": d, "entries": [{"in": [names...],
"out": combination}, ...]}; inputs not listed map to zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .rings import Ring, ring_from_name
from .graded import (
    BasisElement,
    GradedModule,
    GradedMap,
    Vector,
    tensor,
    TENSOR_SEP,
)
from .complexes import (ChainComplex, ChainMap, ComplexBundle,
                        _require_chain_map)
from .bialgebra import BialgebraData
from .cone_product import ConeProductData


# Size caps.  A scenario beyond one is rejected before anything is built:
# the basis sets the size of every matrix block, the quantifier window
# (`safe`, or the whole basis without one) is cubed by the associativity
# checks, and each operation's entry list is parsed and held in full.
MAX_BASIS = 2048
MAX_SAFE = 128
MAX_ENTRIES = 50_000


class SchemaError(ValueError):
    """Scenario violates the schema; `path` locates the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


@dataclass
class Scenario:
    kind: str
    name: str
    ring: Ring
    payload: object            # BialgebraData, ConeProductData or ComplexBundle
    checks: tuple
    window: object             # a shipped fixture's TruncationWindow, or None
    raw: dict = field(repr=False, default=None)
    reverse_bivector: object = None   # optional claimed value of lam(eta)


def _expect(cond, path, message):
    if not cond:
        raise SchemaError(path, message)


def _is_int(x) -> bool:
    """JSON integers only: bool is an int subclass but not an integer here."""
    return isinstance(x, int) and not isinstance(x, bool)


def _cap(items, limit, path, what):
    _expect(len(items) <= limit, path,
            f"{len(items)} {what}; at most {limit} are accepted")


def _get(obj, key, path, required=True, typ=None):
    if key not in obj:
        if required:
            raise SchemaError(f"{path}.{key}", "missing required field")
        return None
    val = obj[key]
    if typ is not None and not (_is_int(val) if typ is int else isinstance(val, typ)):
        raise SchemaError(f"{path}.{key}",
                          f"expected {typ.__name__}, got {type(val).__name__}")
    return val


def _parse_module(obj, ring, path) -> GradedModule:
    basis_raw = _get(obj, "basis", path, typ=list)
    _cap(basis_raw, MAX_BASIS, path + ".basis", "basis elements")
    basis = []
    for i, b in enumerate(basis_raw):
        bp = f"{path}.basis[{i}]"
        _expect(isinstance(b, dict), bp, "expected an object")
        name = _get(b, "name", bp, typ=str)
        degree = _get(b, "degree", bp, typ=int)
        _expect(TENSOR_SEP not in name and name, bp + ".name",
                "names must be nonempty and free of the tensor separator")
        basis.append(BasisElement(name, degree))
    try:
        return GradedModule(ring, basis)
    except ValueError as e:
        raise SchemaError(path + ".basis", str(e))


def _error(path, entry, field, message):
    """SchemaError at `path` + `field`; with an entry number, `path` is
    first extended to that entry of the operation table at `path`."""
    if entry is not None:
        path = f"{path}.entries[{entry}]"
    return SchemaError(path + field, message)


def _parse_terms(raw, pos, arity, ring, parsed, path, entry=None,
                 field="") -> dict:
    """[[coeff, name-or-names], ...] summed into {k: coefficient}, where k
    is the position in `pos` of a name (arity 1) or the tuple of positions
    of `arity` names.  `parsed` caches the coefficient texts already read.
    The list sits at `path`, entry, `field` (see `_error`); field paths are
    built only for an error."""
    if not isinstance(raw, list):
        raise _error(path, entry, field,
                     "expected a list of [coeff, name] pairs")
    acc = {}
    for t, term in enumerate(raw):
        if not (isinstance(term, list) and len(term) == 2):
            raise _error(path, entry, f"{field}[{t}]",
                         "expected [coefficient, name]")
        coeff_raw, name_raw = term
        if not isinstance(coeff_raw, str):
            raise _error(path, entry, f"{field}[{t}][0]",
                         "coefficients are strings")
        c = parsed.get(coeff_raw)
        if c is None:
            try:
                c = parsed[coeff_raw] = ring.parse(coeff_raw)
            except (ValueError, ZeroDivisionError) as e:
                raise _error(path, entry, f"{field}[{t}][0]",
                             f"bad coefficient: {e}")
        if arity == 1:
            if not isinstance(name_raw, str):
                raise _error(path, entry, f"{field}[{t}][1]",
                             "expected a name")
            k = pos.get(name_raw)
            if k is None:
                raise _error(path, entry, f"{field}[{t}][1]",
                             f"unknown basis name {name_raw!r}")
        else:
            if not (isinstance(name_raw, list) and len(name_raw) == arity):
                raise _error(path, entry, f"{field}[{t}][1]",
                             f"expected a list of {arity} names")
            # a name's type is checked before the lookup: a list is unhashable
            k = tuple(pos.get(nm) if isinstance(nm, str) else None
                      for nm in name_raw)
            if None in k:
                raise _error(path, entry, f"{field}[{t}][1]", "unknown basis "
                             f"name {name_raw[k.index(None)]!r}")
        old = acc.get(k)
        acc[k] = c if old is None else ring.add(old, c)
    return acc


def _degree_error(acc, degree_of, expected):
    """The message for summed terms {k: coefficient} whose nonzero terms do
    not all have degree `expected`, or None; degree_of(k) reads a key's
    degree."""
    degs = sorted({degree_of(k) for k, c in acc.items() if c != 0})
    if not degs or degs == [expected]:
        return None
    if len(degs) == 1:
        return f"inhomogeneous value: degree {degs[0]}, expected {expected}"
    return f"inhomogeneous value: degrees {degs}, expected {expected}"


def _parse_combo(raw, module, path, arity=1, degree=None) -> Vector:
    """[[coeff, name-or-names], ...] into a vector of module (tensor power),
    whose nonzero terms must all have `degree` when it is given."""
    idx = module.index()
    acc = _parse_terms(raw, idx.pos, arity, module.ring, {}, path)
    if degree is not None:
        deg = idx.degree
        message = _degree_error(acc, deg.__getitem__ if arity == 1 else
                                lambda k: sum(map(deg.__getitem__, k)), degree)
        if message:
            raise SchemaError(path, message)
    if arity == 1:
        return Vector._trusted(module, {idx.names[k]: c
                                        for k, c in acc.items()})
    return Vector._trusted(tensor(*([module] * arity)), {
        TENSOR_SEP.join(idx.names[x] for x in k): c for k, c in acc.items()})


_MISSING = object()


def _positions(module):
    """Positions by name and degrees by position of an atomic module."""
    idx = module.index()
    return idx.pos, idx.degree


def _parse_operation(obj, source, target, path) -> GradedMap:
    """An operation table from `source` (an atomic module or a tensor power
    of one) to `target` (likewise); each input lists one name per factor.

    Each entry is parsed once, straight into the row form of `OpTable.row`
    keyed by its input positions, and the map is a row map on them.  Names become positions by lookup in `GradedModule.index`,
    degrees are read by position, each distinct coefficient text is parsed
    once, and an entry's value is judged for homogeneity on the terms left
    after repeated outputs are summed.  Field paths are built only for an
    error."""
    _expect(isinstance(obj, dict), path, "expected an object")
    degree = _get(obj, "degree", path, typ=int)
    entries = _get(obj, "entries", path, typ=list)
    _cap(entries, MAX_ENTRIES, path + ".entries", "entries")
    R = source.ring
    ins = [_positions(f) for f in source.factors]
    out_pos, out_deg = _positions(target.factors[0])
    in_arity, out_arity = len(ins), target.arity
    degree_of = (out_deg.__getitem__ if out_arity == 1 else
                 lambda k: sum(map(out_deg.__getitem__, k)))
    parsed = {}   # each distinct coefficient text is parsed once
    rows = {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise _error(path, i, "", "expected an object")
        in_raw = entry.get("in", _MISSING)
        if not isinstance(in_raw, list):
            raise _error(path, i, ".in", "missing required field"
                               if in_raw is _MISSING else
                               f"expected list, got {type(in_raw).__name__}")
        if len(in_raw) != in_arity:
            raise _error(path, i, ".in",
                               f"expected {in_arity} input name(s)")
        key = []
        expected = degree
        for nm, (pos, degs) in zip(in_raw, ins):
            p = pos.get(nm) if isinstance(nm, str) else None
            if p is None:
                raise _error(path, i, ".in", f"unknown basis name {nm!r}")
            key.append(p)
            expected += degs[p]
        key = tuple(key)
        if key in rows:
            raise _error(path, i, ".in", "duplicate entry for this input")
        out_raw = entry.get("out", _MISSING)
        if out_raw is _MISSING:
            raise _error(path, i, ".out", "missing required field")
        acc = _parse_terms(out_raw, out_pos, out_arity, R, parsed, path, i,
                           ".out")
        if not set(map(degree_of, acc)) <= {expected}:
            message = _degree_error(acc, degree_of, expected)
            if message:
                raise _error(path, i, ".out", message)
        rows[key] = (tuple(acc.items()) if all(acc.values()) else
                     tuple((k, c) for k, c in acc.items() if c != 0))
    return GradedMap(source, target, degree, lambda *ij: rows.get(ij, ()))


def ingest(data) -> Scenario:
    """Validate a scenario (dict or JSON text) into typed objects."""
    # the check registry, imported on first use so that `import chainalg`
    # does not also load the report module
    from .report import CHECKS, DEFAULT_CHECKS

    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as e:
            raise SchemaError("$", f"invalid JSON: line {e.lineno} column {e.colno}")
        except ValueError as e:   # an integer beyond int's digit limit
            raise SchemaError("$", f"invalid JSON: {e}")
    _expect(isinstance(data, dict), "$", "scenario must be a JSON object")
    version = _get(data, "schema_version", "$", typ=int)
    _expect(version == 1, "$.schema_version", f"unsupported version {version}")
    kind = _get(data, "kind", "$", typ=str)
    _expect(kind in DEFAULT_CHECKS, "$.kind",
            f"unknown kind {kind!r}; expected one of {sorted(DEFAULT_CHECKS)}")
    name = _get(data, "name", "$", required=False, typ=str) or ""
    try:
        ring = ring_from_name(_get(data, "ring", "$", typ=str))
    except ValueError as e:
        raise SchemaError("$.ring", str(e))
    module = _parse_module(_get(data, "module", "$", typ=dict), ring, "$.module")
    checks = data.get("checks")
    if checks is None:
        checks = DEFAULT_CHECKS[kind]
    else:
        _expect(isinstance(checks, list), "$.checks", "expected a list")
        known = sorted(c for c, (k, _, _) in CHECKS.items() if k == kind)
        for i, c in enumerate(checks):
            _expect(isinstance(c, str) and c in known, f"$.checks[{i}]",
                    f"unknown check {c!r} for kind {kind!r}; known: {known}")
        checks = tuple(checks)

    safe = data.get("safe")
    if safe is not None:
        _expect(isinstance(safe, list), "$.safe", "expected a list of names")
        _cap(safe, MAX_SAFE, "$.safe", "safe names")
        seen = set()
        for i, nm in enumerate(safe):
            _expect(isinstance(nm, str) and module.has(nm), f"$.safe[{i}]",
                    f"unknown basis name {nm!r}")
            _expect(nm not in seen, f"$.safe[{i}]", f"duplicate basis name {nm!r}")
            seen.add(nm)

    reverse_bivector = None
    if kind == "complex":
        payload = _ingest_complex(data, module, ring)
    else:
        payload, reverse_bivector = _ingest_operations(data, kind, module,
                                                       safe, name)
    for check in checks:
        need = CHECKS[check][1]
        _expect(need is None or data.get(need) is not None, "$.checks",
                f"{check} needs a {need} field")
    return Scenario(kind, name, ring, payload, checks, None, data,
                    reverse_bivector)


def _ingest_operations(data, kind, module, safe, name):
    """The BialgebraData or ConeProductData of a bialgebra or cone
    scenario, and its reverse_bivector (None without one)."""
    if safe is None:   # the whole basis is the quantifier window
        _cap(module.basis(), MAX_SAFE, "$.module.basis",
             "basis elements and no safe list")
    A2 = tensor(module, module)
    mu = _parse_operation(_get(data, "mu", "$", typ=dict), A2, module, "$.mu")
    lam = _parse_operation(_get(data, "lambda", "$", typ=dict), module, A2,
                           "$.lambda")
    eta = _parse_combo(_get(data, "eta", "$", typ=list), module, "$.eta",
                       degree=0)
    differential = None
    if "differential" in data:
        # mu is then checked as a chain map on all of A (x) A
        _cap(module.basis(), MAX_SAFE, "$.differential",
             "basis elements with a differential")
        differential = _parse_operation(data["differential"], module, module,
                                        "$.differential")
        _expect(differential.degree == -1, "$.differential.degree",
                "differentials have degree -1")
    try:
        inst = BialgebraData(module, mu, lam, eta, safe_names=safe,
                             differential=differential, name=name)
    except ValueError as e:
        raise SchemaError("$", str(e))

    reverse_bivector = None
    if "reverse_bivector" in data:
        reverse_bivector = _parse_combo(data["reverse_bivector"], module,
                                        "$.reverse_bivector", arity=2)
    if kind == "bialgebra":
        return inst, reverse_bivector

    n = _get(data, "n", "$", typ=int)
    A3 = tensor(module, module, module)
    c0 = (_parse_combo(data["c0"], module, "$.c0", arity=2, degree=-2 * n)
          if "c0" in data else A2.zero())
    Q0 = (_parse_combo(data["Q0"], module, "$.Q0", arity=2, degree=1 - 2 * n)
          if "Q0" in data else A2.zero())
    B = (_parse_combo(data["B"], module, "$.B", arity=3, degree=2 - 4 * n)
         if "B" in data else A3.zero())
    try:
        return ConeProductData(
            ChainComplex(module, differential), mu, lam, c0, Q0, B, n,
            safe_names=safe, name=name), reverse_bivector
    except ValueError as e:
        raise SchemaError("$", str(e))


def _ingest_complex(data, module, ring) -> ComplexBundle:
    differential = _parse_operation(_get(data, "differential", "$", typ=dict),
                                    module, module, "$.differential")
    _expect(differential.degree == -1, "$.differential.degree",
            "differentials have degree -1")
    try:
        cx = ChainComplex(module, differential)
    except ValueError as e:
        raise SchemaError("$.differential", str(e))
    top = data.get("top")
    if top is not None:
        _expect(_is_int(top), "$.top", "expected an integer")
        degs = cx.degrees()
        _expect(not degs or (degs[0] >= 0 and degs[-1] <= top), "$.top",
                f"support {degs} outside [0, {top}]")
    pair_map = None
    secondary = None
    if "pair" in data:
        p = data["pair"]
        _expect(isinstance(p, dict), "$.pair", "expected an object")
        pmod = _parse_module(_get(p, "module", "$.pair", typ=dict), ring,
                             "$.pair.module")
        pdiff = _parse_operation(_get(p, "differential", "$.pair", typ=dict),
                                 pmod, pmod, "$.pair.differential")
        try:
            pcx = ChainComplex(pmod, pdiff)
        except ValueError as e:
            raise SchemaError("$.pair.differential", str(e))
        fmap = _parse_operation(_get(p, "map", "$.pair", typ=dict), pmod,
                                module, "$.pair.map")
        _expect(fmap.degree == 0, "$.pair.map.degree", "chain maps have degree 0")
        try:
            pair_map = ChainMap(pcx, cx, fmap)
        except ValueError as e:
            raise SchemaError("$.pair.map", str(e))
        if "secondary" in p:
            secondary = _parse_operation(p["secondary"], pmod, module,
                                         "$.pair.secondary")
            _expect(secondary.degree == 1, "$.pair.secondary.degree",
                    "secondary maps have degree +1")
            try:
                _require_chain_map(
                    secondary, pdiff, differential,
                    "secondary is not a chain map: [d, secondary] != 0 on {}")
            except ValueError as e:
                raise SchemaError("$.pair.secondary", str(e))
    return ComplexBundle(cx, top, pair_map, secondary)


def load(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return ingest(text)


# ---------------------------------------------------------------------------
# Export (fixtures and instances back to scenario JSON)
# ---------------------------------------------------------------------------

def _combo_to_json(v: Vector):
    fmt, split = v.module.ring.format, v.module.arity > 1
    return [[fmt(c), name.split(TENSOR_SEP) if split else name]
            for name, c in sorted(v.coeffs.items())]


def _operation_to_json(m: GradedMap):
    """An operation table of `m`: one entry per basis element with a
    nonzero value, as `_parse_operation` reads it back."""
    values = ((e.name, m.eval_basis(e.name)) for e in m.source.basis())
    return {"degree": m.degree, "entries": [
        {"in": list(m.source.parts_of(n)), "out": _combo_to_json(v)}
        for n, v in values if not v.is_zero()]}


def _module_to_json(module: GradedModule):
    return {"basis": [{"name": e.name, "degree": e.degree}
                      for e in module.basis()]}


def export_bialgebra(inst: BialgebraData, ring_name: str = None) -> dict:
    """Scenario dict reproducing the instance (drop semantics included)."""
    module = inst.module
    doc = {"schema_version": 1, "kind": "bialgebra", "name": inst.name,
           "ring": ring_name or repr(module.ring),
           "module": _module_to_json(module),
           "mu": _operation_to_json(inst.mu),
           "lambda": _operation_to_json(inst.lam),
           "eta": _combo_to_json(inst.eta)}
    if inst.safe_names != module.basis_names():
        doc["safe"] = list(inst.safe_names)
    if inst.differential is not None:
        doc["differential"] = _operation_to_json(inst.differential)
    return doc


def export_complex(bundle: ComplexBundle, name: str, checks) -> dict:
    """Complex scenario dict reproducing the bundle (its differential, top
    and pair: module, differential, chain map and secondary map), named
    `name` and running `checks`."""
    cx = bundle.complex
    doc = {"schema_version": 1, "kind": "complex", "name": name,
           "ring": repr(cx.ring), "module": _module_to_json(cx.module),
           "differential": _operation_to_json(cx.d), "checks": list(checks)}
    if bundle.top is not None:
        doc["top"] = bundle.top
    c = bundle.pair_map
    if c is not None:
        doc["pair"] = {"module": _module_to_json(c.source.module),
                       "differential": _operation_to_json(c.source.d),
                       "map": _operation_to_json(c.f)}
        if bundle.secondary is not None:
            doc["pair"]["secondary"] = _operation_to_json(bundle.secondary)
    return doc


def structurally_equal(a: BialgebraData, b: BialgebraData) -> bool:
    """Same basis, degrees, unit, window, and full operation tables."""
    if a.module != b.module or a.eta != b.eta:
        return False
    if tuple(a.safe_names) != tuple(b.safe_names):
        return False
    if a.mu.degree != b.mu.degree or a.lam.degree != b.lam.degree:
        return False
    A2 = tensor(a.module, a.module)
    return (all(a.mu.eval_basis(e.name) == b.mu.eval_basis(e.name)
                for e in A2.basis())
            and all(a.lam.eval_basis(e.name) == b.lam.eval_basis(e.name)
                    for e in a.module.basis()))
