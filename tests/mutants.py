"""A checked-in mutation gate for the pair kernel, the shared expansions, the
cone package's construction check, kept intermediates and dual side, the
scenario parser and exporter, the sparse elimination's pivot search and
the length counts it reads, the d*d = 0 check, the sign decisions and
structural checks of the row maps, the status and detail of each check's
`Outcome`, an axiom's input count and the time a record reads from its
Outcome, the closed forms of the loop fixtures, the sign normalisation of
the extended gcd, the extreme degree at which the induced quotient
homotopy vanishes, the signs and the subtraction of the change of
coproduct, the cone's changed coproducts, the order in which a
safe window is kept, the refusal to package a bialgebra with a
differential as a cone with d = 0, the per-input tables, gathers,
count and witness of the associativity-type checks' shared quantifier,
the lattice test of `induces_zero`, the torsion of `ImageSolver`, the one
solver per block of a complex, the graded rotation of the cone package's
cubic vector, the comparison of the lam(eta) gate, the one check of a
combination's keys and homogeneity, the loop fixtures' unit, the order
of an exported combination, and at the name boundary the row writer's name
order and parentheses and the one name reader's count of parts.

Each mutant is (file under src/chainalg, a snippet that occurs exactly once
in it, its replacement, the test that must kill it: a pytest node id under
tests/).  `python tests/mutants.py` applies each mutant in turn to a
temporary copy of src/, runs its test there in a subprocess with that copy
first on PYTHONPATH, and prints one line per mutant: its outcome, its
snippet, its replacement and its test.  The subprocess
runs without pytest's hypothesis plugin, whose import is most of a short
run's start-up (a killing test that uses hypothesis imports it itself), and
without the pytest-benchmark plugin, whose fixture no test uses.  It exits
1 when a mutant survives (its test passes), when its test cannot run
(pytest exits with neither 0 nor 1), or when a snippet no longer occurs
exactly once.
`python tests/mutants.py 3 7` runs the mutants at those indices only.

Only the standard library is used; the subprocess runs pytest with the
interpreter that runs this script.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

PIECES = "tests/test_pair_pieces.py::test_one_pass_difference_matches_the_reference"
QUANTIFIER = ("tests/test_pair_pieces.py::"
              "test_fixture_mutants_match_the_reference_quantifier")
ROW_IDS = "tests/test_shared_expansion.py::test_side_ids_intern_a_row_as_its_terms"
NEG_IDS = "tests/test_shared_expansion.py::test_negated_side_ids_negate_every_coefficient"
ASSOC = "tests/test_shared_expansion.py::test_associativity_kernel_matches_the_loop"
GATHER = ("tests/test_shared_expansion.py::"
          "test_associativity_gather_matches_the_loop")
LAST_F = ("tests/test_shared_expansion.py::"
          "test_assoc_infinitesimal_fails_at_its_last_f")
INF_CASES = ("tests/test_shared_expansion.py::"
             "test_assoc_infinitesimal_cases_reach_their_verdicts")
MINUS_ONE_ROW = (
    "tests/test_shared_expansion.py::"
    "test_associativity_kernel_negates_a_product_row_of_minus_one")
ONCE = "tests/test_report.py::test_demo_forms_each_pair_defect_once"
ONE_KERNEL = ("tests/test_report.py::"
              "test_demo_builds_one_pair_kernel_per_package")
KEPT_PAIRS = ("tests/test_pair_pieces.py::"
              "test_first_failure_over_other_pairs_is_computed_anew")
GF_ROWS = ("tests/test_pair_pieces.py::"
           "test_a_row_reads_its_sums_mod_p")
LAST_B = ("tests/test_pair_pieces.py::"
          "test_the_witness_is_the_first_failing_b_of_its_row")
LODAY = "tests/test_bialgebra.py::test_loday_ronco_on_based_circle"
CONE_ONCE = ("tests/test_report.py::"
             "test_cone_records_derive_and_check_associativity_once")
PINNED = "tests/test_report.py::test_each_outcome_check_keeps_its_failing_record"
AXIOM_OUTCOMES = ("tests/test_bialgebra.py::"
                  "test_check_axioms_gives_one_outcome_per_axiom_in_order")
CONTINUATION = ("tests/test_cone_product.py::"
                "test_a_continuation_that_is_not_a_chain_map_is_refused")
CLOSED_FORM = ("tests/test_cone_product.py::"
               "test_components_witness_names_a_patched_closed_form_block")
TABLE_ERRORS = ("tests/test_scenario.py::"
                "test_operation_table_errors_keep_path_and_message")
COMBO_ERRORS = ("tests/test_scenario.py::"
                "test_combination_errors_keep_path_and_message")
BASIS_ERRORS = ("tests/test_scenario.py::"
                "test_module_basis_errors_keep_path_and_message")
CANCEL = "tests/test_scenario.py::test_cancelling_terms_give_an_empty_row"
FIRST_TERM = ("tests/test_scenario.py::"
              "test_a_term_error_names_the_first_failing_term")
EXPORT_ORDER = ("tests/test_export.py::"
                "test_export_sorts_tensor_inputs_and_terms_by_joined_name")
FLOOR = "tests/test_matrices.py::test_pivot_search_stops_at_the_floor"
SAME_PIVOTS = ("tests/test_matrices.py::"
               "test_pivot_search_matches_the_full_scan_on_random_matrices")
COUNTS = "tests/test_matrices.py::test_elimination_keeps_its_length_counts"
BOUND = ("tests/test_matrices.py::"
         "test_pivot_search_skips_a_column_that_cannot_beat_the_best")
UNIT = "tests/test_matrices.py::test_unit_pivots_over_a_field_skip_the_inverse"
XGCD = "tests/test_matrices.py::test_xgcd_is_positive_on_mixed_signs_and_zeros"
CANON = "tests/test_matrices.py::test_image_solver_canonicalises_its_entries"
TORSION_ONES = "tests/test_matrices.py::test_image_solver_places_q_on_first_use"
INDUCES_ZERO = "tests/test_complexes.py::test_induces_zero_with_torsion"
F_DEGREE = ("tests/test_complexes.py::"
            "test_induces_zero_reads_f_in_the_degree_of_each_cycle")
ONE_SOLVER = ("tests/test_complexes.py::"
              "test_a_complex_factors_each_block_once")
TWIST = "tests/test_bialgebra.py::test_lambda_eta_twist_symmetry_all_fixtures"
FORMAT_ROW = ("tests/test_graded.py::"
              "test_format_row_writes_a_row_as_the_named_vector_text")
CYCLIC = ("tests/test_cone_product.py::"
          "test_the_cubic_vector_is_symmetric_with_the_koszul_sign")
LAMBDA_ETA_GATE = "tests/test_bialgebra.py::test_continuation_bivector_gate"
DUAL_SHIFT = ("tests/test_row_checks.py::"
              "test_dual_and_shift_rows_match_the_name_formulas")
CHAIN_MAPS = ("tests/test_row_checks.py::"
              "test_chain_map_conditions_match_the_name_formulas")
CONE_MAPS = "tests/test_row_checks.py::test_cone_maps_match_the_name_formulas"
COASSOC = ("tests/test_row_checks.py::"
           "test_coassociativity_sides_match_the_composites")
DEGREES = ("tests/test_cone_product.py::"
           "test_closed_form_components_preserve_degree")
DUAL_ONCE = ("tests/test_cone_product.py::"
             "test_a_package_builds_its_dual_side_once")
OPTIMIZED = "tests/test_graded.py::test_correctness_checks_survive_python_O"
PRODUCT = ("tests/test_cone_product.py::"
           "test_compiled_product_matches_the_string_keyed_assembly")
CUBIC = ("tests/test_cone_product.py::"
         "test_the_closed_form_covers_the_cubic_vector")
SECONDARY = ("tests/test_row_checks.py::"
             "test_secondary_relation_matches_the_composites")
TERMS_DEGREE = ("tests/test_graded.py::"
                "test_terms_degree_reads_each_key_off_its_positions")
COMBINATIONS = ("tests/test_cone_product.py::"
                "test_each_combination_is_checked_on_its_positions")

# (file, snippet, replacement, killing test)
MUTANTS = [
    # every sign decision of the pieces
    ("bialgebra.py", "+ x1 * (p + tau * (x2 + b + p))\n",
     "+ x1 * (tau * (x2 + b + p))\n", PIECES),
    ("bialgebra.py", "+ x1 * (p + tau * (x2 + b + p))\n",
     "+ x1 * (p + tau * (x2 + p))\n", PIECES),
    ("bialgebra.py", "((sign < 0) + dl * a + tau",
     "((sign < 0) + tau", PIECES),
    ("bialgebra.py", "+ tau * x2 * (a + x1 + p)\n",
     "+ tau * x2 * (x1 + p)\n", PIECES),
    ("bialgebra.py", "if ((sign < 0) + dv * a + p * (a + odd[v1])",
     "if ((sign < 0) + p * (a + odd[v1])", PIECES),
    ("bialgebra.py", "if ((sign < 0) + dv * a + p * (a + odd[v1])",
     "if ((sign < 0) + dv * a + p * a", PIECES),
    ("bialgebra.py", "+ tau * (a + odd[v1] + p) * (odd[v2] + b + p)\n",
     "+ tau * (a + odd[v1] + p) * (odd[v2] + p)\n", PIECES),
    ("bialgebra.py", "-c if (negate + twist", "-c if (1 - negate + twist",
     PIECES),
    # the a/b parity choice of a hoisted coefficient
    ("bialgebra.py", "(cs[b] * m, a1, keys)", "(cs[0] * m, a1, keys)", PIECES),
    ("bialgebra.py", "tables[js, odd[i] if by_a else 0]",
     "tables[js, odd[js[0]] if by_a else 0]", PIECES),
    ("bialgebra.py", "(es[b] * m * q, z1 * z1_scale, keys)",
     "(es[0] * m * q, z1 * z1_scale, keys)", PIECES),
    # the rhs subtraction
    ("bialgebra.py", "self._piece((kind, -sign, *args)) for kind, sign",
     "self._piece((kind, sign, *args)) for kind, sign", PIECES),
    # the witness re-expansion
    ("bialgebra.py",
     "return count, (i, js[t]), *self.sides(identity, i, js[t])",
     "return count, (i, js[t]), parts[t], {}",
     QUANTIFIER),
    # defect reuse when |mu| is odd, and for the wrong identity
    ("bialgebra.py",
     "self._defects = {} if mu.degree % 2 == 0 else None",
     "self._defects = {}", PIECES),
    ("bialgebra.py",
     'keep = (self._defects if identity == "unital infinitesimal"',
     'keep = (self._defects if identity == "unital anti-symmetry"', PIECES),
    # SideIds.row on a summed side, and without its repeated-pair guard
    ("graded.py",
     "return self((t, mul(c, v)) for k, c in terms for t, v in at(k))",
     "return self.row(tuple((t, mul(c, v)) for k, c in terms "
     "for t, v in at(k)))", ASSOC),
    ("graded.py",
     "self._by_row[r] = self(r) if len(key) < len(r) else self._id(key)",
     "self._by_row[r] = self._id(key)", ROW_IDS),
    # one kernel per package: a quantifier's verdict kept per (identity,
    # pairs), the instance's kernel handed to its cone package, and the
    # identity-coproduct form of the sign of lam eta
    ("bialgebra.py", "found = self._failures.get(key)", "found = None", ONCE),
    ("bialgebra.py", "key = identity, tuple(pairs)", "key = identity",
     KEPT_PAIRS),
    ("cone_product.py", "    data.kernel = inst.kernel\n", "", ONE_KERNEL),
    ("bialgebra.py", 'first_failure(f"identity-coproduct form {sign:+d}"',
     'first_failure(f"identity-coproduct form {-sign:+d}"', LODAY),
    # the cone package: its continuation map built without the chain-map
    # check, and its associativity verdict and closed forms computed anew
    # instead of read from the package
    ("cone_product.py", "        self.continuation = ChainMap(\n",
     "        self.continuation = type(\"Unchecked\", (), {\"__init__\": "
     "lambda m, *a: vars(m).update(zip((\"source\", \"target\", \"f\"), "
     "a))})(\n", CONTINUATION),
    ("cone_product.py", "if (assoc := data.associativity).status",
     "if (assoc := check_cone_associativity(data)).status", CONE_ONCE),
    ("cone_product.py", "    comps = data.components\n",
     "    comps = closed_form_components(data)\n", CLOSED_FORM),
    # the one-pass table parser: a repeated input, the degree of each
    # input and output factor, homogeneity judged after summing, zero
    # coefficients, the coefficient cache, and the field paths
    ("scenario.py", "        if key in rows:\n", "        if False:\n",
     "tests/test_scenario.py::test_repeated_cross_map_input_rejected"),
    ("scenario.py", "degree + deg1[a] + deg2[b]", "degree + deg1[a]",
     TABLE_ERRORS),
    ("scenario.py", "out_deg[x] + out_deg[y]", "out_deg[x] + out_deg[x]",
     "tests/test_scenario.py::"
     "test_a_tensor_term_has_the_degree_of_both_factors"),
    ("scenario.py", "            if d != expected:\n                mixed = True",
     "            if d != expected:\n"
     "                raise error(i, \".out\", \"inhomogeneous value\")",
     CANCEL),
    ("scenario.py", "tuple((k, c) for k, c in acc.items() if c != 0)",
     "tuple(acc.items())", CANCEL),
    ("scenario.py", "zero = zero or c == 0", "zero = False",
     "tests/test_scenario.py::test_zero_coefficients_leave_no_term"),
    ("scenario.py", "    parsed = {}     # each distinct coefficient text",
     "    parsed = _parse_rows.__dict__.setdefault(\"parsed\", {})  #",
     "tests/test_scenario.py::test_coefficients_are_parsed_per_ring"),
    ("scenario.py", "for i, entry in enumerate(entries):",
     "for i, entry in enumerate(entries, 1):", TABLE_ERRORS),
    ("scenario.py", "terms.index(term)", "len(terms) - 1", FIRST_TERM),
    ("scenario.py", "path + field[len(\".out\"):]", "path + field",
     COMBO_ERRORS),
    ("scenario.py", "and not isinstance(degree, bool)", "", BASIS_ERRORS),
    ("scenario.py", "        _get(b, \"name\", path, typ=str)\n"
     "        _get(b, \"degree\", path, typ=int)\n",
     "        _get(b, \"degree\", path, typ=int)\n"
     "        _get(b, \"name\", path, typ=str)\n", BASIS_ERRORS),
    # the exporter: inputs and terms of a tensor in joined-name order
    ("scenario.py", "(name(k), [fmt(c), list(map(getitem, parts, k))])",
     "(list(map(getitem, parts, k)), [fmt(c), list(map(getitem, parts, k))])",
     EXPORT_ORDER),
    ("graded.py", "keyed = [(a[k[0]] + b[k[1]], name(k), k) for k in keys]",
     "keyed = [(a[k[0]] + b[k[1]], k, k) for k in keys]", EXPORT_ORDER),
    # the pivot search's floor, read from the length counts: each factor
    # too low (never attained, so the search only slows down) and too high
    # (not a lower bound), and the comparison that stops the search
    ("matrices.py", "    n = 1\n", "    n = 0\n", FLOOR),
    ("matrices.py", "row_floor = _least(row_counts) - 1",
     "row_floor = _least(row_counts)", SAME_PIVOTS),
    ("matrices.py", "floor = (_least(col_counts) - 1)",
     "floor = (_least(col_counts) - 2)", FLOOR),
    ("matrices.py", "floor = (_least(col_counts) - 1)",
     "floor = (max(map(len, cols.values())) - 1)", SAME_PIVOTS),
    ("matrices.py", "if cost == floor:", "if cost == 0:", FLOOR),
    ("matrices.py", "if cost == floor:", "if cost >= floor:", SAME_PIVOTS),
    # the unit inverse, and the entries' canonical form and row check
    ("matrices.py", "f = a if a == 1 or a == -1 else R.inv(a)",
     "f = a if a == 1 else R.inv(a)", UNIT),
    ("matrices.py", "f = a if a == 1 or a == -1 else R.inv(a)", "f = a", UNIT),
    ("matrices.py", "c = canon(x)", "c = x", CANON),
    ("matrices.py", "                if i not in positions:\n",
     "                if False:\n",
     "tests/test_matrices.py::test_image_solver_rejects_rows_outside_the_matrix"),
    # the sign decisions of the row maps: the twist, the dual, a shifted
    # map, an operation shift and d (x) 1 + 1 (x) d
    ("graded.py", "return {(k2, k1): neg(c) if odd[k1] and odd[k2] else c",
     "return {(k2, k1): neg(c) if odd[k1] else c", TWIST),
    ("graded.py", "flip = f.degree % 2 and odd[p]", "flip = f.degree % 2",
     DUAL_SHIFT),
    ("graded.py", "if f.degree % 2 and k % 2:", "if k % 2:", DUAL_SHIFT),
    ("graded.py", "return [bool(j % 2 and o) for o in odd]",
     "return [bool(o) for o in odd]",
     "tests/test_cone_product.py::test_shift_sign_table"),
    ("graded.py", "flip = d.degree % 2 and odd[i]",
     "flip = d.degree % 2 and odd[j]", CHAIN_MAPS),
    # the cone's differential, and csec in the transition automorphism
    ("complexes.py", "(minus[k], neg(x)) for k, x in d_M(p)",
     "(minus[k], x) for k, x in d_M(p)", CONE_MAPS),
    ("complexes.py", "((plus[k], c) for k, c in csec_row(p))",
     "((plus[k], R.neg(c)) for k, c in csec_row(p))",
     "tests/test_complexes.py::"
     "test_transition_automorphism_matches_the_name_keyed_reference"),
    # both signs of coassociativity
    ("bialgebra.py", "left = neg(c) if lam_odd and odd[a1] else c",
     "left = neg(c) if lam_odd else c", COASSOC),
    ("bialgebra.py", "right = neg(c) if lam_odd else c", "right = c",
     COASSOC),
    # the one test of [d, h] = 0, and of d*d = 0, skipped
    ("complexes.py",
     "        raise ValueError(message.format(names_of(h.source)(x)))\n",
     "        pass\n",
     "tests/test_complexes.py::test_cone_rejects_non_chain_map"),
    ("complexes.py", "if any(dd.values()):", "if False:",
     "tests/test_complexes.py::test_d_squared_enforced"),
    # SideIds keyed by the hash of a side instead of the side
    ("graded.py", "        i = self._ids.get(key)\n        if i is None:\n"
     "            i = self._ids[key] = len(self.sides)",
     "        i = self._ids.get(hash(key))\n        if i is None:\n"
     "            i = self._ids[hash(key)] = len(self.sides)",
     "tests/test_shared_expansion.py::"
     "test_side_ids_never_key_on_the_hash_alone"),
    # the registry's check that a scenario has the field a check needs
    ("scenario.py", "_expect(need is None or data.get(need) is not None,",
     "_expect(True,",
     "tests/test_scenario.py::test_continuation_vanishes_needs_a_pair"),
    # a map's rows read at a key through the wrong arity's branch
    ("graded.py", "        if self._binary:\n            i, j = key",
     "        if not self._binary:\n            i, j = key",
     "tests/test_graded.py::test_from_table_rows_are_the_terms_of_the_values"),
    # the status and detail each check gives its Outcome: a skip where the
    # hypotheses fail, a fail on a witness, the components' first five
    # mismatches and the precondition's prefix
    ("bialgebra.py", 'return Outcome("skip", "hypotheses not met: "',
     'return Outcome("fail", "hypotheses not met: "', PINNED),
    ("bialgebra.py", 'return Outcome("skip", "unital infinitesimal relation',
     'return Outcome("fail", "unital infinitesimal relation', PINNED),
    ("bialgebra.py", 'return Outcome("fail", detail + "; twist symmetry',
     'return Outcome("pass", detail + "; twist symmetry', PINNED),
    ("bialgebra.py", 'return Outcome("fail", "bivector differs from',
     'return Outcome("pass", "bivector differs from', PINNED),
    ("cone_product.py", 'return Outcome("fail", "; ".join(failures[:5])',
     'return Outcome("pass", "; ".join(failures[:5])', PINNED),
    ("cone_product.py", 'return Outcome("fail", "; ".join(failures[:5])',
     'return Outcome("fail", "; ".join(failures[:6])', PINNED),
    ("cone_product.py", 'return Outcome("fail", f"{u}(x){v}(x){w}: ',
     'return Outcome("pass", f"{u}(x){v}(x){w}: ', PINNED),
    ("cone_product.py", 'return Outcome("fail", "precondition: cone product',
     'return Outcome("fail", "cone product', PINNED),
    ("cone_product.py", 'if (assoc := data.associativity).status != "pass":',
     'if False:', PINNED),
    ("complexes.py",
     'return Outcome("fail", f"fails on {names_of(f.source.module)(x)}: "',
     'return Outcome("pass", f"fails on {names_of(f.source.module)(x)}: "',
     "tests/test_complexes.py::"
     "test_a_map_that_is_not_a_homotopy_names_the_failing_element"),
    # the one verdict type: an axiom's pass without its input count, a
    # record's time taken by its own timer over the Outcome's, and the
    # witness's sides read in the wrong order by cc-antisymmetry's skip
    ("bialgebra.py", 'return Outcome("pass", f"{count} inputs", count)',
     'return Outcome("pass", f"{count} inputs")', AXIOM_OUTCOMES),
    ("report.py", "        rec.elapsed_ms = out.elapsed_ms\n",
     "        rec.elapsed_ms = None\n",
     "tests/test_report.py::"
     "test_axiom_records_carry_the_time_check_axioms_measured"),
    ("bialgebra.py", "x, lhs, rhs = uir.witness", "x, rhs, lhs = uir.witness",
     PINNED),
    # the package's dual side: Mbar shifted the wrong way or left unbarred
    # in the closed form, M and Mbar built anew by a check, and the dual
    # positions of the safe names read through the inverse permutation
    ("cone_product.py", "self.M, self.Mbar = M, shift(M, -1)",
     "self.M, self.Mbar = M, shift(M, 1)", DEGREES),
    ("cone_product.py", "M, Mbar, at = data.M, data.Mbar, data.layout",
     "M, Mbar, at = data.M, data.M, data.layout", DEGREES),
    ("cone_product.py", "    A, M, at = data.A, data.M, data.layout\n",
     "    A, at = data.A, data.layout\n    M = dual_side(A, data.n)\n",
     DUAL_ONCE),
    ("cone_product.py", "+ tuple([minus[dual[x]] for x in self.safe]))",
     "+ tuple([minus[self.layout.base[x]] for x in self.safe]))",
     CLOSED_FORM),
    ("cone_product.py", "duals = [data.layout.dual[i] for i in safe]",
     "duals = [data.layout.base[i] for i in safe]", OPTIMIZED),
    # the cone product's rows: each part's folded sign, its operation's
    # sign times its [i,j;k] unshift's, the side of mu's fixed factor in
    # m_L's and m_R's transposes, and the placement of the blocks
    ("cone_product.py", "[(plus[w], neg(c) if s else c)",
     "[(plus[w], c)", PRODUCT),
    ("cone_product.py", "mu_columns(b, deg[y] - deg[b], False)",
     "mu_columns(b, deg[y] - deg[b], True)", PRODUCT),
    ("cone_product.py", "(plus[w], c if odd_M[f] else neg(c))",
     "(plus[w], neg(c) if odd_M[f] else c)", PRODUCT),
    ("cone_product.py", "mu_columns(a, deg[y] - deg[a], True)",
     "mu_columns(a, deg[y] - deg[a], False)", PRODUCT),
    ("cone_product.py", "s_p = s != (odd_M[g] and odd_M[f])",
     "s_p = odd_M[g] and odd_M[f]", PRODUCT),
    ("cone_product.py", "s_m = s != (odd_M[f] == odd_M[g])",
     "s_m = odd_M[f] == odd_M[g]", PRODUCT),
    ("cone_product.py",
     "blocks = ((plus_plus, plus_minus), (minus_plus, minus_minus))",
     "blocks = ((plus_plus, minus_plus), (plus_minus, minus_minus))",
     PRODUCT),
    # the closed form's cubic component: its sign, and B's terms dropped
    ("cone_product.py", "neg(c) if odd[b1] and not odd[b2] else c)",
     "c if odd[b1] and not odd[b2] else neg(c))", CUBIC),
    ("cone_product.py", "for (b1, b2, b3), c in data.B:",
     "for (b1, b2, b3), c in ():", CUBIC),
    # SideIds' negation, and the -1 branch of the row expansion not
    # negating, seen by assoc-infinitesimal's rhs and by associativity's
    # lhs, each of one row times -1
    ("graded.py", "frozenset((k, neg(c)) for k, c in self.sides[i]))",
     "self.sides[i])", NEG_IDS),
    ("graded.py", "return tuple(map(neg_id, rows(x)))", "return rows(x)",
     "tests/test_shared_expansion.py::"
     "test_assoc_infinitesimal_kernel_matches_the_loop"),
    ("graded.py", "return tuple(map(neg_id, rows(x)))", "return rows(x)",
     MINUS_ONE_ROW),
    # the product's transposes of mu kept without the side of the fixed
    # factor, so that m_L and m_R read one table
    ("cone_product.py", "out = transposes.get((fixed, d, left))\n"
     "        if out is None:\n            out = transposes[fixed, d, left]",
     "out = transposes.get((fixed, d))\n"
     "        if out is None:\n            out = transposes[fixed, d]",
     PRODUCT),
    # the components' term-by-term comparison passing rows of equal length
    ("cone_product.py", "if got == tuple([(plus[k], c)",
     "if len(got) == len([(plus[k], c)",
     "tests/test_cone_product.py::test_components_compare_each_coefficient"),
    # a repeated check id accepted
    ("scenario.py", "_expect(c not in checks[:i],", "_expect(True,",
     "tests/test_scenario.py::test_repeated_check_rejected_with_path"),
    # the loop fixtures' closed forms: the sphere's index pairs, the minus
    # circle's index range, and the based-loop coproduct's degree
    ("fixtures.py", "(1, i, k - 1 - i)", "(1, i, k - i)",
     "tests/test_fixtures.py::test_sphere_product_and_coproduct_values"),
    ("fixtures.py", "rng = range(1, k) if k > 0", "rng = range(0, k) if k > 0",
     "tests/test_fixtures.py::test_circle_coproduct_branch_values"),
    ("fixtures.py", "1 - n if based", "1 - 2 * n if based",
     "tests/test_fixtures.py::test_based_loop_values"),
    # the sign normalisation of the extended gcd, each sign dropped in turn
    ("matrices.py", "return (a, x, y) if a > 0 else (-a, -x, -y)",
     "return (a, x, y) if a > 0 else (a, -x, -y)", XGCD),
    ("matrices.py", "return (a, x, y) if a > 0 else (-a, -x, -y)",
     "return (a, x, y) if a > 0 else (-a, x, -y)", XGCD),
    ("matrices.py", "return (a, x, y) if a > 0 else (-a, -x, -y)",
     "return (a, x, y) if a > 0 else (-a, -x, y)", XGCD),
    # the induced quotient homotopy zeroed at degree top instead of -top
    ("complexes.py", "[0] == -top else h_row(*k)", "[0] == top else h_row(*k)",
     "tests/test_complexes.py::test_induced_quotient_homotopy_nontrivial"),
    # the elimination's length counts not kept: a row that loses the pivot
    # column, the pivot row leaving, a row gaining or losing a fill-in
    # entry, a column that keeps entries; and the search's column bound
    # read from the shortest column instead of the column's own length
    ("matrices.py", "                row_counts[n] -= 1\n"
     "                row_counts[n - 1] += 1\n                row.discard(j)\n",
     "                row.discard(j)\n", COUNTS),
    ("matrices.py", "            row_counts[len(others)] -= 1\n", "", COUNTS),
    ("matrices.py", "                        row_counts[n + 1] += 1\n", "",
     COUNTS),
    ("matrices.py", "                        row_counts[n - 1] += 1\n", "",
     COUNTS),
    ("matrices.py", "                if c2:\n"
     "                    col_counts[len(c2)] += 1\n                else:\n",
     "                if not c2:\n", COUNTS),
    ("matrices.py", "cost_j * row_floor >= best_cost",
     "(_least(col_counts) - 1) * row_floor >= best_cost", BOUND),
    # the pair kernel's rows: an output key packed with its factors
    # swapped, the row's nonzero test skipped or read without reducing mod
    # p, the witness taken as the last failing b of its row, and a kept
    # defect unpacked with its factors swapped
    ("bialgebra.py", "k2 * n + k1 if twist else k1 * n + k2",
     "k2 * n + k1 if twist else k2 * n + k1", PIECES),
    ("bialgebra.py",
     "if not any(values if not p else (c % p for c in values)):",
     "if True:", QUANTIFIER),
    ("bialgebra.py",
     "if not any(values if not p else (c % p for c in values)):",
     "if not any(values):", GF_ROWS),
    ("bialgebra.py",
     "t = next(t for t, part in enumerate(parts) if part)",
     "t = max(t for t, part in enumerate(parts) if part)", LAST_B),
    ("bialgebra.py", "out[t][divmod(k, n)] = c", "out[t][divmod(k, n)[::-1]] = c",
     PIECES),
    # the cone's lam_rev without Q0's forward term, which drops Q0's right
    # correction from sigma; the safe window's positions sorted instead of
    # kept in the given order; and a bialgebra with a nonzero differential
    # packaged as a cone with d = 0
    ("cone_product.py",
     "lam_rev = secondary_relation_apply(data.mu, data.lam, data.Q0,",
     "lam_rev = secondary_relation_apply(data.mu, data.lam, zero,",
     PRODUCT),
    ("bialgebra.py", "return names, tuple(positions.values())",
     "return names, tuple(sorted(positions.values()))",
     "tests/test_window_order.py::"
     "test_a_window_out_of_canonical_order_is_walked_in_its_order"),
    ("cone_product.py",
     "if d is not None and any(map(d.row, range(len(A.index().names)))):",
     "if False:",
     "tests/test_cone_product.py::"
     "test_a_bialgebra_with_a_differential_is_not_packaged"),
    # the gather of associativity_witness: a's table without its
    # (-1)^{|mu||a|} sign, its 1 and -1 reads swapped, a summed row's
    # negation dropped, the pair (a, b) read through the next b's tuple,
    # and a window of one position read as an entry, not a 1-tuple
    ("graded.py", "negate = bool(odd_mu and idx.odd[i])",
     "negate = not (odd_mu and idx.odd[i])", GATHER),
    ("graded.py",
     "else neg_id(intern(at(y))) if rest != negate else intern(at(y))",
     "else intern(at(y)) if rest != negate else neg_id(intern(at(y)))",
     GATHER),
    ("graded.py", "(terms, _signed_row(terms, True, neg))", "(terms, terms)",
     GATHER),
    ("graded.py", "[_gather(t) for t in T]",
     "[_gather(t) for t in T[1:] + T[:1]]", GATHER),
    ("graded.py", "    if len(keys) == 1:\n", "    if False:\n", GATHER),
    # assoc-infinitesimal's table of a's left sides without m_pm_p(a, Q),
    # and a pair read through a's slots instead of b's
    ("cone_product.py",
     "\n                    + [(t, mul(c, v))"
     " for g, c in Q for t, v in pm_p(i, g)])", ")", LAST_F),
    ("graded.py", "got, want = gather(table), other(a, b)",
     "got, want = gathers[a](table), other(a, b)",
     "tests/test_shared_expansion.py::"
     "test_assoc_infinitesimal_matches_the_loop"),
    # the shared quantifier's count without its + 1 and its failing
    # triple's sides swapped; the row expansion's -1 branch not negating,
    # and assoc-infinitesimal's pairs read through the next b's slots, on
    # its fixed cases
    ("graded.py", "(a * n + b) * m + c + 1,", "(a * n + b) * m + c,",
     "tests/test_shared_expansion.py::test_gather_cases_reach_their_verdicts"),
    ("graded.py", "(a, b, c), left, right", "(a, b, c), right, left", LAST_F),
    ("graded.py", "return tuple(map(neg_id, rows(x)))", "return rows(x)",
     INF_CASES),
    ("cone_product.py", "               for j in safe]",
     "               for j in safe[1:] + safe[:1]]", INF_CASES),
    # the change of coproduct: 1 (x) mu's (-1)^{|mu||c1|} dropped, moving c
    # past x without its (-1)^{|c||x|}, and c_op's term added instead of
    # subtracted, each killed by one of the property's fixed draws
    ("bialgebra.py",
     "            v = neg(v) if mu.degree % 2 and odd[c1] else v\n", "",
     SECONDARY),
    ("bialgebra.py",
     "            v = neg(v) if odd[x] and odd[c1] != odd[c2] else v\n", "",
     SECONDARY),
    ("bialgebra.py", "_signed_row(term2(x), True, neg)", "term2(x)",
     SECONDARY),
    # the twist folded into the pieces: tau lam's sign dropped in each piece
    # that reads it, mu tau's added parity dropped in each piece that reads
    # it, and mu tau read at mu's key
    ("bialgebra.py", "+ x2 * (tl * x1 + tm * b)) & 1",
     "+ x2 * tm * b) & 1", PIECES),
    ("bialgebra.py", "+ x1 * (tl * x2 + tm * a)) & 1",
     "+ x1 * tm * a) & 1", PIECES),
    ("bialgebra.py", " + twist * odd[k1] * odd[k2]) & 1", ") & 1", PIECES),
    ("bialgebra.py", "+ x2 * (tl * x1 + tm * b)) & 1",
     "+ x2 * tl * x1) & 1", PIECES),
    ("bialgebra.py", "+ x1 * (tl * x2 + tm * a)) & 1",
     "+ x1 * tl * x2) & 1", PIECES),
    ("bialgebra.py", "+ tp * a * odd[v1] + tq", "+ tq", PIECES),
    ("bialgebra.py", "+ tq * odd[v2] * b) & 1", ") & 1", PIECES),
    ("bialgebra.py", "x_scale, b_scale = (1, stride) if tm else (stride, 1)",
     "x_scale, b_scale = (stride, 1) if tm else (stride, 1)", PIECES),
    # induces_zero: the target's solver read at k instead of k + 1,
    # membership in the image lattice negated, the first cycle skipped, and
    # f's block read one degree up; and the torsion keeping the invariant
    # factors 1
    ("complexes.py", "up = f.target.solver(k + 1)",
     "up = f.target.solver(k)", INDUCES_ZERO),
    ("complexes.py", "if up.coordinates(fz) is None:",
     "if up.coordinates(fz) is not None:", INDUCES_ZERO),
    ("complexes.py", "for z in kernel:", "for z in kernel[1:]:", INDUCES_ZERO),
    ("complexes.py", "cols = block(k)[1]", "cols = block(k + 1)[1]", F_DEGREE),
    ("matrices.py", "self.torsion = tuple(d[self._ones:])",
     "self.torsion = tuple(d)", TORSION_ONES),
    # a complex's solver not kept, so homology and induces_zero factor its
    # blocks again; the B invariant's rotation without its Koszul sign and
    # with z in the middle slot; and the lam(eta) gate's comparison negated
    ("complexes.py", "s = self._solvers[k] = ImageSolver(",
     "s = ImageSolver(", ONE_SOLVER),
    ("cone_product.py", "neg(c) if odd[z] and odd[x] != odd[y] else c", "c",
     CYCLIC),
    ("cone_product.py", "return {(z, x, y):", "return {(x, z, y):", CYCLIC),
    ("bialgebra.py", "if got == want:", "if got != want:", LAMBDA_ETA_GATE),
    # the one check of a combination's terms without its homogeneity test,
    # and reading a tensor key's degree off its first factor only; the loop
    # fixtures' unit at the position of U instead of 1; and an exported
    # combination left in the order of its row
    ("graded.py", "    if len(found) > 1:\n", "    if False:\n", COMBINATIONS),
    ("graded.py", "found.add(sum(d[x] for x, d in zip(ks, degrees)))",
     "found.add(degrees[0][ks[0]])", TERMS_DEGREE),
    ("fixtures.py", "eta = ((loops[1][0, 0], ring.one()),)",
     "eta = ((loops[1][0, 1], ring.one()),)",
     "tests/test_fixtures.py::test_loop_unit_is_the_row_of_one"),
    ("scenario.py", "return lambda terms: sorted([[fmt(c), name(k)] "
     "for k, c in terms],\n                                    "
     "key=itemgetter(1))",
     "return lambda terms: [[fmt(c), name(k)] for k, c in terms]",
     "tests/test_export.py::test_export_sorts_a_combination_by_name"),
    # the name boundary: the row writer's name order and its parentheses
    # around a "-" name, and the strict reader's count of parts
    ("graded.py",
     "for n, c in sorted((name(k), c) for k, c in terms if c != 0):",
     "for _, n, c in sorted((k, name(k), c) for k, c in terms if c != 0):",
     FORMAT_ROW),
    ("graded.py", '            n = f"({n})"', "            n = n", FORMAT_ROW),
    ("graded.py", "if len(parts) == len(module.factors):",
     "if len(parts) <= len(module.factors):",
     "tests/test_graded_properties.py::"
     "test_positions_is_the_one_strict_reader"),
    # the pair rows' blocks: one piece left out of the row's sum, and the
    # place offset t * nn left out of the product columns
    ("bialgebra.py", "    for piece in pieces:\n",
     "    for piece in pieces[1:]:\n", QUANTIFIER),
    ("bialgebra.py", "tuple((t * nn, j * b_scale", "tuple((0, j * b_scale",
     QUANTIFIER),
]


def mutated(mutant) -> str | None:
    """The mutated text of the mutant's file, or None when its snippet does
    not occur exactly once."""
    name, snippet, replacement, _ = mutant
    text = (SRC / "chainalg" / name).read_text(encoding="utf-8")
    if text.count(snippet) != 1:
        return None
    return text.replace(snippet, replacement)


def run(mutant) -> str:
    """"killed", "survived", "unmatched" or "broken" (the test could not
    run: pytest exited with neither 0 nor 1)."""
    text = mutated(mutant)
    if text is None:
        return "unmatched"
    with tempfile.TemporaryDirectory(prefix="chainalg-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        (src / "chainalg" / mutant[0]).write_text(text, encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(src),
               "PYTHONDONTWRITEBYTECODE": "1"}
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", "-p", "no:hypothesispytest", "-p",
             "no:benchmark", str(ROOT / mutant[3])],
            cwd=tmp, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL).returncode
    return {0: "survived", 1: "killed"}.get(code, "broken")


def main(argv) -> int:
    indices = [int(a) for a in argv] or range(len(MUTANTS))
    outcomes = []
    for k in indices:
        outcome = run(MUTANTS[k])
        outcomes.append(outcome)
        name, snippet, replacement, test = MUTANTS[k]
        print(f"{k:2d} {outcome:9s} {name}: {snippet.strip()[:60]!r} -> "
              f"{replacement.strip()[:60]!r} ({test.split('::')[-1]})",
              flush=True)
    killed = outcomes.count("killed")
    print(f"{killed} of {len(outcomes)} mutants killed")
    return 0 if killed == len(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
