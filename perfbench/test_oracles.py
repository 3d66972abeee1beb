"""Self-checks of the benchmark's oracles and input generators.

Run from the repository root: ``python3 -m pytest -q perfbench/test_oracles.py``.
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import oracles  # noqa: E402
import whfactor as wh  # noqa: E402
from whfactor import gallery  # noqa: E402
from workloads import WORKLOADS, Screen, _stratified  # noqa: E402

EPS = (0.01, 0.05, 0.1, 0.3, 1.0)


@pytest.mark.parametrize("eps", EPS)
def test_cross_formula_reproduces_unsolvable_example(eps):
    # the unsolvable example's (1,2) entry has (a, b, c) = (24, -16, -8)
    assert oracles.cross_residual(-16, -8, eps) == pytest.approx(
        gallery.unsolvable_cross_residual(eps), rel=1e-14)


@pytest.mark.parametrize("b,c", [(-16, -8), (3, -7), (0, 5), (8, 8)])
def test_residues_agree_with_cross_formula(b, c):
    for eps in EPS:
        rho, _ = oracles.split_anchors((-(b + c), b, c), eps)
        assert abs(rho - oracles.cross_residual(b, c, eps)) < 1e-13


@pytest.mark.parametrize("eps", EPS)
def test_step1_constants_match_gallery(eps):
    want = gallery.step1_constants(eps)
    got = oracles.step1_constants(eps)
    assert all(abs(got[k] - want[k]) < 1e-15 for k in want)


def test_remainder_at_infinity_frozen_value():
    # acceptance criterion 6: 16 (1 - E + eps E)^2 = 0.551433 at eps = 0.1
    assert oracles.remainder_at_infinity(0.1, "zero")[0, 0] == pytest.approx(0.551433, abs=1e-6)
    assert not oracles.remainder_at_infinity(0.1, "match-infinity").any()


def test_residues_agree_with_library_quadrature():
    coef, eps = (5, -8, 3), 0.2
    f = Screen._entry(wh, coef, eps)
    rho, s = oracles.split_anchors(coef, eps)
    upper, lower = wh.decaying_split_anchors(f)
    assert abs(upper - (s + rho / 2)) < 1e-8
    assert abs(lower - (rho / 2 - s)) < 1e-8
    for pole in (1j, -1j):
        for r in (1, 2):
            assert abs(wh.moment(f, pole, r) - oracles.moment(coef, eps, pole, r)) < 1e-8


@pytest.mark.parametrize("kappa", [(1, -1), (2, 0, -2), (3, 1, -1)])
def test_winding_of_unperturbed_problem_is_index_sum(kappa):
    n = len(kappa)
    zero = [[(0, 0, 0)] * n for _ in range(n)]
    wind, gap = oracles.winding(kappa, zero, 0.1)
    assert wind == sum(kappa) and gap < 1e-12


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_only_on_seed_and_index(name):
    work = WORKLOADS[name]
    assert [work.inputs(3, k) for k in range(8)] == [work.inputs(3, k) for k in range(8)]
    assert work.inputs(3, 0) != work.inputs(4, 0)


def test_eps_positions_are_mirrored_and_stratified():
    for seed in (0, 1, 2):
        u = [_stratified(seed, 0, k) for k in range(16)]
        assert all(abs(u[k] + u[k + 1] - 1.0) < 1e-15 for k in range(0, 16, 2))
        assert sorted(int(16 * v) for v in u[0::2]) == list(range(8))
