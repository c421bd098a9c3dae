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
    checks           optional list of distinct check ids (defaults per kind)

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
from operator import getitem, itemgetter

from .rings import Ring, ring_from_name
from .graded import (
    BasisElement,
    GradedModule,
    GradedMap,
    basis_keys,
    names_of,
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
    reverse_bivector: tuple = None   # optional claimed lam(eta), as a row


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
        name = degree = None
        if isinstance(b, dict):
            name, degree = b.get("name"), b.get("degree")
        if not (isinstance(name, str) and name and TENSOR_SEP not in name
                and isinstance(degree, int)
                and not isinstance(degree, bool)):
            raise _basis_error(b, f"{path}.basis[{i}]")
        basis.append(BasisElement(name, degree))
    try:
        return GradedModule(ring, basis)
    except ValueError as e:
        raise SchemaError(path + ".basis", str(e))


def _basis_error(b, path) -> SchemaError:
    """The error of a basis element at `path` that `_parse_module` refused:
    its first fault, in the order object, name, degree, the name's form."""
    if not isinstance(b, dict):
        return SchemaError(path, "expected an object")
    try:
        _get(b, "name", path, typ=str)
        _get(b, "degree", path, typ=int)
    except SchemaError as e:
        return e
    return SchemaError(path + ".name",
                       "names must be nonempty and free of the tensor separator")


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


def _name_error(name, arity, pos) -> str:
    """The message for a term's `name`, a name or a list of `arity` names,
    that is not all in `pos`."""
    if arity == 1:
        return (f"unknown basis name {name!r}" if isinstance(name, str) else
                "expected a name")
    name = next(nm for nm in name if not (isinstance(nm, str) and nm in pos))
    return f"unknown basis name {name!r}"


_MISSING = object()


def _parse_rows(entries, ins, target, degree, path, combo=False) -> dict:
    """The rows of the operation table `entries` at `path`, by input.

    An input's key is the tuple of its names' positions in the `BasisIndex`
    of each input factor, `ins`; its row is in the form of `GradedMap.row`,
    on positions of the atomic `target` or of the atomic factor of a tensor
    power `target`.  A repeated input is refused.  A combination is the
    one entry {"in": [], "out": terms}, with no inputs and `combo` set, and
    its field paths are those of the terms at `path`.

    One loop reads every entry and term, with no Python-level call on a
    well-formed entry: names become positions by lookup, each distinct
    coefficient text is parsed once, and each term's degree is compared
    with the entry's (`degree` plus the inputs' degrees) as it is read.
    Only an entry with a term of another degree is judged, on the terms
    left after repeated outputs are summed: terms that cancel leave a zero
    value, which has no degree.  With `degree` None nothing is judged.
    Field paths are built only for an error."""
    parse, add = target.ring.parse, target.ring.add
    out = target.factors[0].index()
    out_pos, out_deg, arity = out.pos, out.degree, target.arity
    degree_of = out_deg.__getitem__ if arity == 1 else (
        lambda k: sum(map(out_deg.__getitem__, k)))
    n_in = len(ins)
    (pos1, deg1), (pos2, deg2) = [(f.pos, f.degree) for f in ins] + [
        (None, None)] * (2 - n_in)

    def error(i, field, message):
        if combo:   # the terms of a combination: `field` is ".out..."
            return SchemaError(path + field[len(".out"):], message)
        return SchemaError(f"{path}.entries[{i}]{field}", message)

    def term_error(i, terms, term, field, message):
        # a term's fault depends on its value alone and every earlier term
        # passed, so the first term equal to `term` is the one that failed
        return error(i, f".out[{terms.index(term)}]{field}", message)

    parsed = {}     # each distinct coefficient text is parsed once
    zero = False    # some text parsed to zero: rows drop zero coefficients
    rows = {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise error(i, "", "expected an object")
        in_raw = entry.get("in", _MISSING)
        if not isinstance(in_raw, list):
            raise error(i, ".in", "missing required field"
                        if in_raw is _MISSING else
                        f"expected list, got {type(in_raw).__name__}")
        if len(in_raw) != n_in:
            raise error(i, ".in", f"expected {n_in} input name(s)")
        try:
            if n_in == 2:
                a, b = in_raw
                a, b = pos1[a], pos2[b]
                key, expected = (a, b), degree + deg1[a] + deg2[b]
            elif n_in:
                a = pos1[in_raw[0]]
                key, expected = (a,), degree + deg1[a]
            else:
                key, expected = (), degree
        except (KeyError, TypeError):   # a list or dict name is unhashable
            name = next(nm for nm, pos in zip(in_raw, (pos1, pos2))
                        if not (isinstance(nm, str) and nm in pos))
            raise error(i, ".in", f"unknown basis name {name!r}") from None
        if key in rows:
            raise error(i, ".in", "duplicate entry for this input")
        out_raw = entry.get("out", _MISSING)
        if not isinstance(out_raw, list):
            raise error(i, ".out", "missing required field"
                        if out_raw is _MISSING else
                        "expected a list of [coeff, name] pairs")
        acc = {}
        mixed = False
        for term in out_raw:
            if not (isinstance(term, list) and len(term) == 2):
                raise term_error(i, out_raw, term, "",
                                 "expected [coefficient, name]")
            text, name = term
            try:
                c = parsed[text]
            except (KeyError, TypeError):
                if not isinstance(text, str):
                    raise term_error(i, out_raw, term, "[0]",
                                     "coefficients are strings") from None
                try:
                    c = parsed[text] = parse(text)
                except (ValueError, ZeroDivisionError) as e:
                    raise term_error(i, out_raw, term, "[0]",
                                     f"bad coefficient: {e}") from None
                zero = zero or c == 0
            try:
                if arity == 1:
                    k = out_pos[name]
                    d = out_deg[k]
                elif arity == 2 and isinstance(name, list) and len(name) == 2:
                    x, y = name
                    x, y = out_pos[x], out_pos[y]
                    k, d = (x, y), out_deg[x] + out_deg[y]
                elif isinstance(name, list) and len(name) == arity:
                    k = tuple(map(out_pos.__getitem__, name))
                    d = degree_of(k)
                else:
                    raise term_error(i, out_raw, term, "[1]",
                                     f"expected a list of {arity} names")
            except (KeyError, TypeError):   # unhashable names included
                raise term_error(i, out_raw, term, "[1]", _name_error(
                    name, arity, out_pos)) from None
            if d != expected:
                mixed = True
            if k in acc:
                acc[k] = add(acc[k], c)
            else:
                acc[k] = c
        if mixed and expected is not None:
            message = _degree_error(acc, degree_of, expected)
            if message:
                raise error(i, ".out", message)
        rows[key] = (tuple(acc.items()) if len(acc) == len(out_raw) and not zero
                     else tuple((k, c) for k, c in acc.items() if c != 0))
    return rows


def _parse_combo(raw, module, path, arity=1, degree=None) -> tuple:
    """[[coeff, name-or-names], ...] into the row of an element of module
    (tensor power), whose nonzero terms must all have `degree` when it is
    given: the one row of a table with no inputs.  At most MAX_ENTRIES
    terms are read; a value that is not a list is refused by `_parse_rows`."""
    if isinstance(raw, list):
        _cap(raw, MAX_ENTRIES, path, "terms")
    target = tensor(*([module] * arity))
    (row,) = _parse_rows([{"in": [], "out": raw}], (), target, degree, path,
                         combo=True).values()
    return row


def _parse_operation(obj, source, target, path) -> GradedMap:
    """An operation table from `source` (an atomic module or a tensor power
    of one) to `target` (likewise); each input lists one name per factor.
    The entries are parsed in one pass (`_parse_rows`) straight into the
    rows of a row map keyed by input positions."""
    _expect(isinstance(obj, dict), path, "expected an object")
    degree = _get(obj, "degree", path, typ=int)
    entries = _get(obj, "entries", path, typ=list)
    _cap(entries, MAX_ENTRIES, path + ".entries", "entries")
    rows = _parse_rows(entries, [f.index() for f in source.factors], target,
                       degree, path)
    return GradedMap(source, target, degree, lambda *ij: rows.get(ij, ()))


def ingest(data) -> Scenario:
    """Validate a scenario (dict or JSON text) into typed objects."""
    # the check registry, imported on first use: report imports fixtures,
    # which imports this module
    from .report import CHECKS, DEFAULT_CHECKS

    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as e:
            raise SchemaError("$", f"invalid JSON: line {e.lineno} column {e.colno}")
        except ValueError as e:   # an integer beyond int's digit limit
            raise SchemaError("$", f"invalid JSON: {e}")
        except RecursionError:   # nesting beyond the decoder's depth limit
            raise SchemaError("$", "invalid JSON: nested too deeply")
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
            _expect(c not in checks[:i], f"$.checks[{i}]",
                    f"duplicate check {c!r}")
        checks = tuple(checks)

    safe = data.get("safe")
    if safe is not None:
        _expect(isinstance(safe, list), "$.safe", "expected a list of names")
        _expect(safe, "$.safe", "expected at least one basis name")
        _cap(safe, MAX_SAFE, "$.safe", "safe names")
        seen = set()
        for i, nm in enumerate(safe):
            _expect(isinstance(nm, str) and nm in module.index().pos,
                    f"$.safe[{i}]",
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
    c0 = (_parse_combo(data["c0"], module, "$.c0", arity=2, degree=-2 * n)
          if "c0" in data else ())
    Q0 = (_parse_combo(data["Q0"], module, "$.Q0", arity=2, degree=1 - 2 * n)
          if "Q0" in data else ())
    B = (_parse_combo(data["B"], module, "$.B", arity=3, degree=2 - 4 * n)
         if "B" in data else ())
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

def _combo_writer(module: GradedModule):
    """The function that writes a row of an element of `module`, (key,
    coefficient) pairs as a map's row holds them, as `_parse_combo` and an
    operation entry's "out" read it back: [coefficient, name] per term, or
    [coefficient, [name, ...]] in a tensor power, the factors' names at the
    key's positions, sorted by the name (`names_of`, joined in a tensor
    power)."""
    fmt, name = module.ring.format, names_of(module)
    if module.arity == 1:
        return lambda terms: sorted([[fmt(c), name(k)] for k, c in terms],
                                    key=itemgetter(1))
    parts = [f.index().names for f in module.factors]
    return lambda terms: [term for _, term in sorted([
        (name(k), [fmt(c), list(map(getitem, parts, k))]) for k, c in terms])]


def _operation_to_json(m: GradedMap):
    """An operation table of `m`, as `_parse_operation` reads it back: one
    entry per source basis element with a nonzero row, in the source's
    canonical order (`basis_keys`), each value written by
    `_combo_writer`.  Rows are read by position from `m`; only the
    nonzero ones are named and sorted."""
    src, write = m.source, _combo_writer(m.target)
    a, *b = [f.index().names for f in src.factors]
    if b:
        b, = b
        rows = {(i, j): row for i in range(len(a)) for j in range(len(b))
                if (row := m.row(i, j))}
        entries = [{"in": [a[i], b[j]], "out": write(rows[i, j])}
                   for i, j in basis_keys(src, rows)]
    else:
        rows = {i: row for i in range(len(a)) if (row := m.row(i))}
        entries = [{"in": [a[i]], "out": write(rows[i])}
                   for i in basis_keys(src, rows)]
    return {"degree": m.degree, "entries": entries}


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
           "eta": _combo_writer(module)(inst.eta)}
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

