"""Self-tests of the benchmark: the known-answer oracle and the tracer.

Run with `python -m pytest perfbench` from the root of the checkout.
"""

import json
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import chainalg  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layertrace import Tracer  # noqa: E402
from workloads import Expected, Verdict  # noqa: E402


def _torus(expected_h1_rank):
    doc = workloads.surface_scenario("torus", 4, "Z", random.Random(7))
    homology = {0: (1, ()), 1: (expected_h1_rank, ()), 2: (1, ())}
    return Verdict("torus", Expected(0, homology={"torus4.homology": homology}),
                   argv=("homology", "torus.json"),
                   files={"torus.json": json.dumps(doc)})


def test_one_wrong_expectation_gives_one_wrong_verdict():
    rows, d = workloads.snf_input(8, random.Random(3))
    verdicts = [_torus(2), _torus(3),
                Verdict("snf", Expected(diagonal=tuple(d)), matrix=rows)]
    ctx = run.Context(verdicts, "selftest")
    try:
        results = run.run_pass(ctx)
    finally:
        ctx.close()
    attempted, failed, wrong = run.tally(results)
    assert (attempted, failed, wrong) == (3, 0, 1)
    assert [r.outcome for r in results] == ["ok", "wrong", "ok"]


def test_parse_homology():
    assert oracle.parse_homology("H_0 = R, H_1 = R + R/2") == {
        0: (1, ()), 1: (1, (2,))}
    assert oracle.parse_homology("H_-1 = R^2") == {-1: (2, ())}
    assert oracle.parse_homology("0") == {}


def test_tracer_patches_every_binding_and_restores_them():
    from chainalg import bialgebra, complexes, matrices, report

    originals = (matrices.smith_normal_form, bialgebra.check_axioms)
    tracer = Tracer()
    tracer.install()
    try:
        assert matrices.smith_normal_form is not originals[0]
        assert complexes.smith_normal_form is matrices.smith_normal_form
        assert chainalg.smith_normal_form is matrices.smith_normal_form
        assert report.check_axioms is bialgebra.check_axioms
        assert report.check_axioms is not originals[1]
        ring = chainalg.ZZ
        m = chainalg.ExactMatrix.from_rows(ring, [[2, 4], [6, 8]])
        chainalg.image_rank(m)
    finally:
        tracer.uninstall()
    assert (matrices.smith_normal_form, bialgebra.check_axioms) == originals
    assert complexes.smith_normal_form is originals[0]
    names = [s[2] for s in tracer.spans]
    assert "matrices.image_rank" in names
    assert "matrices.smith_normal_form" in names
    snf = names.index("matrices.smith_normal_form")
    assert tracer.spans[snf][1] == names.index("matrices.image_rank")
    assert tracer.counts["rings.Ring.canon"] > 0
    assert tracer.max_entry_bits > 0
    assert 0 <= tracer.self_s(lambda n: n == "matrices.image_rank") <= \
        tracer.inclusive_s({"matrices.image_rank"})


def test_pacer_scales_a_call_and_disarms_its_timer():
    import signal

    import pace

    pacer = pace.Pacer()
    pacer.start()
    end = time.perf_counter() + 0.12
    while time.perf_counter() < end:
        pass
    sampled = pacer.stop()
    assert len(pacer.during) >= 1
    assert sampled == sum(pacer.during) > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert pacer.scale() > 0
