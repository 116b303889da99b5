"""Acceptance gate.

One test per shipped guarantee.  Every test prints exactly one
``criterion NN: PASS/FAIL`` line outside the capture machinery (via
``capsys.disabled()``) so the verdict column survives ``pytest -v | tee``.
The Monte-Carlo criteria (3-5) are the slow ones; the rest run in seconds.
"""
import os

from formaldisk import (
    MaurerCartanData,
    PolyVectorField,
    TruncatedSeries,
    closed_form_map,
    gamma0,
    mc_weight,
    opposite_wheel,
    run_suite,
    twisted_first_taylor,
)

SEED = 0


def _line(capture, num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capture.disabled():
        print("\ncriterion %02d: %s - %s" % (num, verdict, detail), flush=True)
    return ok


def _suite_line(capture, num, detail, name, **kwargs):
    rep = run_suite(name, **kwargs)
    failed = [c["name"] for c in rep["checks"] if not c["pass"]]
    extra = "" if not failed else " (failing: %s)" % "; ".join(failed)
    assert _line(capture, num, rep["passed"], detail + extra)


def test_criterion_01_first_taylor_is_hkr(capsys):
    _suite_line(capsys, 1, "u_1 equals HKR on all basis wedges, d <= 3",
                "hkr")


def test_criterion_02_wheel_weights_closed_form(capsys):
    _suite_line(capsys, 2,
                "W_1..W_4 = 0, 1/24, 0, 1/1440 from the Bernoulli numbers",
                "weights-closed")


def _mc_line(capture, num, graph, samples, target, floor, workers=1):
    est = mc_weight(graph, samples, seed=SEED, workers=workers)
    err = abs(est.integral - target)
    tol = max(3 * est.stderr, floor)
    detail = ("integral %.6f vs %.6f, err %.2e, tol %.2e, %d samples"
              % (est.integral, target, err, tol, est.samples))
    assert est.samples >= samples
    assert _line(capture, num, err <= tol, detail)


def test_criterion_03_mc_weight_one_ground_corolla(capsys):
    _mc_line(capsys, 3, gamma0(1), 100_000, 1.0, 0.01)


def test_criterion_04_mc_weight_two_ground_corolla(capsys):
    _mc_line(capsys, 4, gamma0(2), 1_000_000, 0.5, 0.01)


def test_criterion_05_mc_weight_two_wheel(capsys):
    _mc_line(capsys, 5, opposite_wheel(2), 10_000_000, 1.0 / 24.0,
             0.02 / 24.0, workers=os.cpu_count() or 1)


def test_criterion_06_wheel_classification(capsys):
    _suite_line(capsys, 6, "brute-force survivors match wheel families, j,p <= 3",
                "wheels")


def test_criterion_07_twisted_taylor_against_closed_form(capsys):
    cap = 8
    dim = 3
    t1 = TruncatedSeries.variable(dim, 1, cap)
    t2 = TruncatedSeries.variable(dim, 2, cap)
    t3 = TruncatedSeries.variable(dim, 3, cap)
    omega1 = PolyVectorField(dim, 0, {(1,): t2 * t3})
    omega2 = PolyVectorField(dim, 0, {(2,): t1 * t3})
    mc = MaurerCartanData([omega1, omega2])
    ok = True
    for idx in ((1, 2), (1, 2, 3)):
        gamma = PolyVectorField.from_wedge(dim, idx)
        lhs = twisted_first_taylor(mc, gamma)
        rhs = closed_form_map(mc, gamma)
        ok = ok and lhs.agrees_with(rhs, cap - 3)
    assert _line(capsys, 7, ok,
                 "graph sum equals det(e^Theta) closed form, d=3, s=2")


def test_criterion_08_gerstenhaber_suite(capsys):
    _suite_line(capsys, 8, "graded algebra identities, 200 random instances",
                "gerstenhaber", trials=200)


def test_criterion_09_twisting_suite(capsys):
    _suite_line(capsys, 9, "Maurer-Cartan twisting identities, exact",
                "twisting")


def test_criterion_10_todd_identities(capsys):
    _suite_line(capsys, 10, "Todd series, matrix exponential, linear degeneration",
                "todd")


def test_criterion_11_contraction_derivation(capsys):
    _suite_line(capsys, 11, "exact-form contraction derives the bracket, 100 trials",
                "derivation", trials=100)
