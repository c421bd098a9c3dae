"""Compare what chainalg produced with a verdict's known answer.

A verdict has one of three outcomes:

* "failed": the call raised, exited 2 (schema or usage error), or produced
  a record with status "error" -- no answer was given;
* "wrong": an answer was given and differs from the expected one;
* "ok".
"""

from __future__ import annotations

import re

from workloads import matmul

_TERM = re.compile(r"^R(?:\^(\d+))?$|^R/(\d+)$")


def parse_homology(text: str) -> dict:
    """'H_0 = R, H_1 = R + R/2' -> {0: (1, ()), 1: (1, (2,))}; '0' -> {}."""
    if text == "0":
        return {}
    out = {}
    for part in text.split(", "):
        lhs, rhs = part.split(" = ")
        if not lhs.startswith("H_"):
            raise ValueError(f"unreadable homology {text!r}")
        free, torsion = 0, []
        for term in rhs.split(" + "):
            m = _TERM.match(term)
            if m is None:
                raise ValueError(f"unreadable homology term {term!r}")
            if m.group(2) is not None:
                torsion.append(int(m.group(2)))
            else:
                free += int(m.group(1) or 1)
        out[int(lhs[2:])] = (free, tuple(torsion))
    return out


def judge_report(doc: dict, exit_code: int, expected) -> tuple:
    """(outcome, reason) for one CLI verdict's JSON report."""
    records = {r["id"]: r for r in doc["records"]}
    errors = [r["id"] for r in doc["records"] if r["status"] == "error"]
    if exit_code == 2 or errors:
        return "failed", f"exit {exit_code}, error records {errors}"
    if exit_code != expected.exit_code:
        return "wrong", f"exit {exit_code}, expected {expected.exit_code}"
    for rid in expected.pass_ids:
        status = records.get(rid, {}).get("status")
        if status != "pass":
            return "wrong", f"{rid}: status {status}, expected pass"
    fails = [r["id"] for r in doc["records"] if r["status"] == "fail"]
    if expected.must_fail and not fails:
        return "wrong", "no check failed on a mutated instance"
    if not expected.must_fail and fails:
        return "wrong", f"unexpected failures {fails}"
    for rid, want in expected.homology.items():
        rec = records.get(rid)
        if rec is None:
            return "wrong", f"{rid}: missing"
        try:
            got = parse_homology(rec["detail"])
        except ValueError as e:
            return "wrong", f"{rid}: {e}"
        if got != want:
            return "wrong", f"{rid}: {got}, expected {want}"
    return "ok", ""


def judge_snf(rows, result, expected) -> tuple:
    """(outcome, reason) for a direct smith_normal_form call: U*M*V must
    equal D, and D must be diag(d)."""
    U, D, V = (m.to_rows() for m in result)
    n, m = len(rows), len(rows[0])
    want = [[expected.diagonal[i] if i == j else 0 for j in range(m)]
            for i in range(n)]
    if D != want:
        return "wrong", f"diagonal {[D[i][i] for i in range(min(n, m))]}"
    if matmul(matmul(U, rows), V) != D:
        return "wrong", "U*M*V != D"
    return "ok", ""
