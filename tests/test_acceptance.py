"""End-to-end acceptance criteria, one test per criterion.

Each test prints a PASS line with the measured figures; run with ``pytest -s``
to see them.  Expected values are frozen from residue-calculus derivations and
closed forms evaluated independently of the code under test.
"""

import numpy as np
import pytest

import whfactor as wh
from whfactor import (DEFAULT_GRID, DEFAULT_QUAD, PROBE_GRID, boundary_values,
                      moment, omega, weighted_integral)
from whfactor.cli import main as cli_main
from whfactor.gallery import (example_solvable, example_unsolvable, gk_diagonal,
                              gk_singular, oracle_first_step, step1_constants,
                              unsolvable_cross_residual)

ABS = DEFAULT_QUAD.abs_tol


def bf(fn, decay=1.0, osc=0.0, label="f"):
    return wh.BoundaryFunction(fn, decay_order=decay, label=label, osc_scale=osc)


FAMILY = [
    bf(lambda t: 1.0 / (t * t + 1.0), 2, 0, "1/(t^2+1)"),
    bf(lambda t: 1.0 / (t + 1j), 1, 0, "1/(t+i)"),
    bf(lambda t: t / (t * t + 1.0) ** 2, 3, 0, "t/(t^2+1)^2"),
    bf(lambda t: 1.0 / (t - 1j), 1, 0, "1/(t-i)"),
    bf(lambda t: (t + 2.0) / (t * t + 2.0 * t + 5.0), 1, 0, "shifted"),
    bf(lambda t: t * 1j * (2 - np.exp(0.5j * t) - np.exp(-0.5j * t)) / (t * t + 1.0),
       1, 0.5, "osc"),
]


def make_fact(eps, policy=wh.ZERO_POLICY, order=1):
    entry = example_solvable(eps)
    return entry, wh.factorize(entry.base, entry.perturbation(eps), order=order,
                               policy=policy)


def test_criterion_1_cauchy_oracles():
    f = FAMILY[1]  # 1/(t+i)
    assert abs(omega(f, "plus", 2j) - 1j / 6) < 1e-7
    assert abs(omega(f, "minus", -2j) - (-1j / 2)) < 1e-7
    assert abs(boundary_values(f, "plus", 0.0) - (-1j / 2)) < 1e-7
    assert abs(weighted_integral(FAMILY[0]) - 0.5) < 1e-7
    assert abs(weighted_integral(f) - (-1j / 2)) < 1e-7
    assert abs(moment(f, -1j, 1)) < 1e-7
    assert abs(moment(FAMILY[3], -1j, 1) - (-1j * np.pi / 2)) < 1e-7
    xs = np.linspace(-25.0, 25.0, 21)
    worst_sum = 0.0
    for g in FAMILY:
        plus = boundary_values(g, "plus", xs)
        minus = boundary_values(g, "minus", xs)
        worst_sum = max(worst_sum, float(np.max(np.abs(plus + minus - g(xs)))))
        assert omega(g, "plus", 1j) == 0.0
    assert worst_sum < 5 * ABS
    print(f"\nACCEPTANCE 1 PASS: cauchy oracles to 1e-7; "
          f"plemelj sum residual {worst_sum:.2e} across 6 functions")


def test_criterion_2_constants_reproduction():
    entry, fact = make_fact(0.1)
    C = fact.steps[0].constants
    # frozen: -4(1-e^-0.1) - 0.4 e^-0.1 and 6(1-e^-0.1) + 0.6 e^-0.1
    assert abs(C[0, 0] - (-0.742585)) < 1e-5
    assert abs(C[1, 1] - 0.742585) < 1e-5
    assert abs(C[0, 1] - 1.113878) < 1e-5
    cc = step1_constants(0.1)
    assert abs(C[0, 0] - cc["c11"]) < 1e-9
    print(f"\nACCEPTANCE 2 PASS: pinned constants at eps=0.1: "
          f"c11={C[0, 0].real:+.6f} c22={C[1, 1].real:+.6f} c12={C[0, 1].real:+.6f}")


def test_criterion_3_solvability_dichotomy():
    entry, fact = make_fact(0.1)
    cross = [r for r in fact.steps[0].report.residuals if r.kind == "cond5_cross"][0]
    assert abs(cross.value) < 1e-7
    values = {}
    for eps in (1.0, 0.1, 0.01):
        bad = example_unsolvable(eps)
        rep = wh.check_solvability(wh.reduce_rhs(bad.base, bad.perturbation(eps)),
                                   bad.base.indices)
        assert not rep.passed
        rho = [r for r in rep.residuals if r.kind == "cond5_cross"][0].value
        # closed form 4 eps e^{-eps}, verified by residue calculus and by
        # anchor limits of the displayed split (see decisions ledger on sign)
        assert abs(rho - unsolvable_cross_residual(eps)) < 1e-5
        values[eps] = rho
    assert abs(values[0.1].real - 0.361935) < 1e-5
    bad0 = example_unsolvable(0.0)
    rep0 = wh.check_solvability(wh.reduce_rhs(bad0.base, bad0.perturbation(0.0)),
                                bad0.base.indices)
    assert rep0.passed
    print(f"\nACCEPTANCE 3 PASS: solvable |rho|<1e-7; unsolvable rho(0.1)="
          f"{values[0.1].real:+.6f} (4 eps e^-eps), passes at eps=0")


def test_criterion_4_oracle_vs_numeric_first_step():
    xs = PROBE_GRID.points()
    worst = 0.0
    for eps in (0.1, 0.01):
        for policy in (wh.ZERO_POLICY, wh.MATCH_INFINITY_POLICY):
            entry, fact = make_fact(eps, policy)
            step = fact.steps[0]
            om, op = oracle_first_step(eps, step.constants[1, 0])
            err = max(np.max(np.abs(step.n_minus.eval_grid(xs) - om.eval_grid(xs))),
                      np.max(np.abs(step.n_plus.eval_grid(xs) - op.eval_grid(xs))))
            worst = max(worst, float(err))
    assert worst <= 1e-6
    print(f"\nACCEPTANCE 4 PASS: step-1 corrections match closed forms, "
          f"sup err {worst:.2e} <= 1e-6 (eps in {{0.1, 0.01}}, both c21 choices)")


def test_criterion_5_remainder_order():
    ratios = {}
    for eps in (0.1, 0.05, 0.025):
        entry, fact = make_fact(eps)
        _, sup = wh.remainder(entry.builder(eps), fact, 1, DEFAULT_GRID)
        ratios[eps] = sup / eps ** 2
    lo, hi = min(ratios.values()), max(ratios.values())
    assert hi / lo < 2.0
    assert all(0.1 <= r <= 100.0 for r in ratios.values())
    # exact identity dK1 = -N1- N1+ for identity outer factors
    entry, fact = make_fact(0.1)
    samples, _ = wh.remainder(entry.builder(0.1), fact, 1, PROBE_GRID)
    xs = PROBE_GRID.points()
    prod = np.einsum("kij,kjl->kil", fact.steps[0].n_minus.eval_grid(xs),
                     fact.steps[0].n_plus.eval_grid(xs))
    ident = float(np.max(np.abs(samples + prod)))
    assert ident < 5 * ABS
    print(f"\nACCEPTANCE 5 PASS: sup|dK1|/eps^2 in [{lo:.3f}, {hi:.3f}] "
          f"(spread {hi / lo:.3f}x < 2); identity residual {ident:.2e} < 5e-9")


def test_criterion_5_remainder_order_two():
    # the order-N claim at N = 2: sup|dK2| scales like eps^3
    ratios = {}
    for eps in (0.1, 0.05, 0.025):
        entry, fact = make_fact(eps, order=2)
        assert fact.achieved_order == 2
        _, sup = wh.remainder(entry.builder(eps), fact, 2, PROBE_GRID)
        ratios[eps] = sup / eps ** 3
    lo, hi = min(ratios.values()), max(ratios.values())
    assert hi / lo <= 2.0
    print(f"\nACCEPTANCE 5 (order 2) PASS: sup|dK2|/eps^3 in [{lo:.1f}, {hi:.1f}] "
          f"(spread {hi / lo:.3f}x <= 2)")


def test_criterion_6_remainder_at_infinity():
    vals = {}
    for eps in (0.1, 0.05):
        entry, fact = make_fact(eps)
        dk = wh.remainder_at_infinity(fact)
        E = np.exp(-eps)
        want = 16.0 * (1.0 - E + eps * E) ** 2
        assert abs(dk[0, 0] - want) < 1e-3
        assert abs(dk[1, 1] - want) < 1e-3
        vals[eps] = dk[0, 0].real
    assert abs(vals[0.1] - 0.551433) < 1e-3
    # small-eps series: the gap to 64 eps^2 - 96 eps^3 shrinks like eps^4
    gap = {eps: abs(vals[eps] - (64 * eps ** 2 - 96 * eps ** 3)) / eps ** 4
           for eps in vals}
    assert 0.5 < gap[0.1] / gap[0.05] < 2.0
    entry, fact = make_fact(0.1, wh.MATCH_INFINITY_POLICY)
    zero = float(np.max(np.abs(wh.remainder_at_infinity(fact))))
    assert zero < 1e-6
    print(f"\nACCEPTANCE 6 PASS: dK(inf) diag {vals[0.1]:.6f} (exp 0.551433); "
          f"series coeff ratio {gap[0.1] / gap[0.05]:.3f}; tuned c21 gives {zero:.2e}")


def test_criterion_7_index_bookkeeping():
    for kappa in ((1, -1), (2, -2), (0, 0), (3, 1, -1)):
        idx = wh.PartialIndices(kappa)
        lam = wh.build_lambda(idx, "full")
        det = wh.BoundaryFunction(
            lambda x, lam=lam: np.linalg.det(lam.eval_grid(np.atleast_1d(x))))
        assert wh.winding_number(det) == sum(kappa)
        assert wh.is_stable(idx) == (kappa[0] - kappa[-1] <= 1)
    assert wh.count_conditions(wh.PartialIndices((1, -1))).solvability_count == 1
    assert wh.count_conditions(wh.PartialIndices((2, -2))).solvability_count == 5
    print("\nACCEPTANCE 7 PASS: winding = index sum for 4 vectors; stability rule; "
          "condition counts 1 and 5")


def test_criterion_8_singular_witness():
    entry, fac = gk_singular(0.1)
    xs = PROBE_GRID.points()
    prod = np.einsum("kij,kjl->kil", fac.minus.eval_grid(xs), fac.plus.eval_grid(xs))
    err = float(np.max(np.abs(prod - entry.matrix.eval_grid(xs))))
    assert err < 1e-12
    diff = wh.combine(entry.matrix, gk_diagonal().matrix, "sub")
    assert abs(wh.sup_norm(diff, PROBE_GRID) - 0.1) < 1e-12
    norms = {}
    for eps in (0.1, 0.01):
        _, f2 = gk_singular(eps)
        norms[eps] = max(wh.sup_norm(f2.minus, PROBE_GRID),
                         wh.sup_norm(f2.plus, PROBE_GRID))
    growth = norms[0.01] / norms[0.1]
    assert growth >= 5.0
    print(f"\nACCEPTANCE 8 PASS: canonical factors multiply back ({err:.1e} < 1e-12); "
          f"distance = eps; factor norm grew {growth:.1f}x for 10x smaller eps")


def test_criterion_9_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--example", "solvable", "--eps-list", "0.1,0.05,0.025",
            "--grid-points", "401"]
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    print("\nACCEPTANCE 9 PASS: repeated sweep runs are byte-identical")
