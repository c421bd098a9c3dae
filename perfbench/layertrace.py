"""Per-layer tracing of chainalg, done from outside the library.

`Tracer.install()` replaces the public functions of every chainalg module
(and a few named methods) with wrappers, and rebinds every name that refers
to the original: `chainalg.complexes.smith_normal_form` and
`chainalg.smith_normal_form` get the same wrapper as
`chainalg.matrices.smith_normal_form`.  `Tracer.uninstall()` puts every
original back.

Two kinds of wrapper:

* span wrappers record (id, parent, name, start, end) in memory; the
  parent is the innermost open span, so self time is a span's duration
  minus the durations of its direct children;
* count wrappers only bump a counter.  They sit on functions that run
  hundreds of thousands of times per verdict (ring arithmetic, `Vector`
  construction, `GradedMap.eval_basis`, sparse tensor helpers), where a
  stored span each would cost more memory and time than the work itself.

Spans stay in memory and are written out once, by `write_spans`, when the
run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("rings", "matrices", "graded", "complexes", "bialgebra",
          "cone_product", "fixtures", "scenario", "report", "cli")

# Functions and methods that get a counter instead of spans.
COUNT_ONLY = {
    "rings.Ring.canon", "rings.Ring.add", "rings.Ring.sub", "rings.Ring.mul",
    "rings.Ring.neg", "rings.Ring.inv", "rings.Ring.div",
    "graded.Vector.__init__", "graded.TensorModule.__init__",
    "graded.GradedMap.eval_basis",
    "graded.tensor", "graded.dual_pair", "graded.pair_two",
    "graded.contract_first", "graded.contract_last",
    "graded.contract_last_signed", "graded.twist_vector",
    "graded.format_vector",
}

# Methods wrapped besides the module-level public functions.
METHODS = {
    "rings": ("Ring.canon", "Ring.add", "Ring.sub", "Ring.mul", "Ring.neg",
              "Ring.inv", "Ring.div"),
    "matrices": ("ExactMatrix.__init__", "ExactMatrix.__mul__",
                 "ExactMatrix.apply", "ExactMatrix.transpose"),
    "graded": ("Vector.__init__", "TensorModule.__init__",
               "GradedMap.eval_basis", "GradedMap.block"),
    "complexes": ("ChainComplex.__init__", "ChainMap.__init__"),
}

ARITH = ("rings.Ring.add", "rings.Ring.sub", "rings.Ring.mul",
         "rings.Ring.neg", "rings.Ring.inv", "rings.Ring.div")


def _max_entry_bits(matrices) -> int:
    return max((abs(x).bit_length() for m in matrices for x in m.entries),
               default=0)


def _entries_in(doc) -> int:
    """Number of operation-table entries in a raw scenario document."""
    if isinstance(doc, dict):
        own = len(doc["entries"]) if isinstance(doc.get("entries"), list) else 0
        return own + sum(_entries_in(v) for k, v in doc.items()
                         if k != "entries")
    if isinstance(doc, list):
        return sum(_entries_in(v) for v in doc)
    return 0


class Tracer:
    """Span and counter recorder for one traced phase of a run."""

    def __init__(self):
        self.spans = []          # (id, parent, name, start, end)
        self.counts = Counter()
        self.max_entry_bits = 0
        self._stack = []
        self._restore = []       # (owner, attribute, original)
        # per-function hooks that read a wrapped call's result
        self._on_result = {
            "matrices.smith_normal_form": self._snf_result,
            "bialgebra.check_axioms": self._axioms_result,
            "scenario.ingest": self._ingest_result,
        }

    # -- recording ----------------------------------------------------------

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, parent, name, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter()
        self._stack.pop()

    def _snf_result(self, result):
        self.max_entry_bits = max(self.max_entry_bits, _max_entry_bits(result))

    def _axioms_result(self, report):
        self.counts["bialgebra.inputs_checked"] += sum(
            r.inputs_checked for r in report.results)

    def _ingest_result(self, scenario):
        self.counts["scenario.entries_parsed"] += _entries_in(scenario.raw)

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, fn, name):
        hook = self._on_result.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            self.counts[name] += 1
            if hook is not None:
                hook(result)
            return result
        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _eval_basis_wrapper(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def eval_basis(self_map, basis_name):
            counts[name] += 1
            # the memo is the map's own cache; a name not in it is a miss
            if basis_name not in self_map._memo:
                counts["graded.eval_basis_misses"] += 1
            return fn(self_map, basis_name)
        return eval_basis

    def _wrap(self, fn, name):
        if name == "graded.GradedMap.eval_basis":
            return self._eval_basis_wrapper(fn, name)
        if name in COUNT_ONLY:
            return self._count_wrapper(fn, name)
        return self._span_wrapper(fn, name)

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        wrappers = {}             # id(original) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"chainalg.{layer}")
            for attr, obj in sorted(vars(mod).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
            for dotted in METHODS.get(layer, ()):
                cls_name, meth = dotted.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, f"{layer}.{dotted}"))
        # rebind every module-level name that refers to a wrapped function
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "chainalg"
                                   or mod_name.startswith("chainalg.")):
                continue
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, entry[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    # -- analysis ---------------------------------------------------------------

    def layer_spans(self) -> Counter:
        """Number of spans recorded per layer."""
        return Counter(name.split(".", 1)[0] for _, _, name, _, _ in self.spans)

    def layer_counts(self) -> Counter:
        """Number of counted calls per layer (count wrappers included)."""
        out = Counter()
        for name, n in self.counts.items():
            out[name.split(".", 1)[0]] += n
        return out

    def _durations(self):
        dur = [end - start for _, _, _, start, end in self.spans]
        child = [0.0] * len(self.spans)
        for sid, parent, _, _, _ in self.spans:
            if parent >= 0:
                child[parent] += dur[sid]
        return dur, child

    def _has_ancestor(self, sid, names) -> bool:
        parent = self.spans[sid][1]
        while parent >= 0:
            if self.spans[parent][2] in names:
                return True
            parent = self.spans[parent][1]
        return False

    def inclusive_s(self, names, under=None, not_under=None) -> float:
        """Summed duration of the outermost spans named in `names`.

        `under` keeps only spans with an ancestor in that set, `not_under`
        drops spans with one.
        """
        names = set(names)
        total = 0.0
        for sid, _, name, start, end in self.spans:
            if name not in names or self._has_ancestor(sid, names):
                continue
            if under is not None and not self._has_ancestor(sid, under):
                continue
            if not_under is not None and self._has_ancestor(sid, not_under):
                continue
            total += end - start
        return total

    def self_s(self, predicate) -> float:
        """Summed self time of the spans whose name satisfies `predicate`."""
        dur, child = self._durations()
        return sum(dur[sid] - child[sid]
                   for sid, _, name, _, _ in self.spans if predicate(name))

    def layer_metrics(self, verdicts: int) -> dict:
        """The per-layer metrics, normalised per traced verdict."""
        n = max(verdicts, 1)
        c = self.counts
        ai = {"cone_product.check_assoc_implies_infinitesimal"}
        axioms_s = self.inclusive_s({"bialgebra.check_axioms"})
        inputs = c["bialgebra.inputs_checked"]
        eval_calls = c["graded.GradedMap.eval_basis"]
        return {
            "rings.canon_calls": c["rings.Ring.canon"] / n,
            "rings.arith_calls": sum(c[a] for a in ARITH) / n,
            "matrices.self_s":
                self.self_s(lambda name: name.startswith("matrices.")) / n,
            "matrices.snf_calls": c["matrices.smith_normal_form"] / n,
            "matrices.solve_in_image_calls":
                c["matrices.solve_in_image"] / n,
            "matrices.max_entry_bits": self.max_entry_bits,
            "graded.vectors_built": c["graded.Vector.__init__"] / n,
            "graded.tensor_modules_built":
                c["graded.TensorModule.__init__"] / n,
            "graded.eval_basis_calls": eval_calls / n,
            "graded.eval_basis_miss_ratio":
                c["graded.eval_basis_misses"] / eval_calls if eval_calls else 0.0,
            "graded.block_s": self.inclusive_s({"graded.GradedMap.block"}) / n,
            "complexes.homology_self_s":
                self.self_s(lambda name: name == "complexes.homology") / n,
            "complexes.chain_complex_init_s":
                self.inclusive_s({"complexes.ChainComplex.__init__"}) / n,
            "bialgebra.check_axioms_s": axioms_s / n,
            "bialgebra.inputs_checked": inputs / n,
            "bialgebra.s_per_input": axioms_s / inputs if inputs else 0.0,
            "cone_product.components_s":
                self.inclusive_s({"cone_product.cross_check_components"}) / n,
            "cone_product.associativity_s":
                self.inclusive_s({"cone_product.check_cone_associativity"},
                                 not_under=ai) / n,
            "cone_product.assoc_infinitesimal_self_s":
                self.self_s(lambda name: name in ai) / n,
            "cone_product.assoc_rerun_s":
                self.inclusive_s({"cone_product.derive_secondary_ops",
                                  "cone_product.check_cone_associativity"},
                                 under=ai) / n,
            "fixtures.build_s": self.inclusive_s(
                {name for _, _, name, _, _ in self.spans
                 if name.startswith("fixtures.make_")}) / n,
            "scenario.ingest_s":
                self.inclusive_s({"scenario.load", "scenario.ingest"}) / n,
            "scenario.entries_parsed": c["scenario.entries_parsed"] / n,
            "report.render_s": self.inclusive_s(
                {"report.render_json", "report.render_markdown"}) / n,
            "cli.self_s": self.self_s(lambda name: name.startswith("cli.")) / n,
        }

    def write_spans(self, path) -> None:
        """Write every span as one JSON line: id, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
