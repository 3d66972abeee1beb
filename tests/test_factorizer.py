import numpy as np
import pytest
from types import SimpleNamespace

from whfactor import (BaseFactorization, BoundaryFunction, ConstantPolicy,
                      MatrixFunction, MATCH_INFINITY_POLICY, NotSolvable,
                      OrderExceeded, PartialIndices, PolicyConflict, PROBE_GRID,
                      ZERO_POLICY, assemble, check_solvability, combine,
                      factorize, next_rhs, reduce_rhs, remainder,
                      remainder_at_infinity, solve_step, winding_number)
from whfactor.gallery import (example_solvable, example_unsolvable, gk_diagonal,
                              oracle_first_step, step1_constants,
                              unsolvable_cross_residual)

IDX = PartialIndices((1, -1))
SPARSE = PROBE_GRID.points()[::20]


def solvable_setup(eps):
    entry = example_solvable(eps)
    return entry, reduce_rhs(entry.base, entry.perturbation(eps))


class TestReduceRhs:
    def test_identity_base_passthrough(self):
        entry, M = solvable_setup(0.1)
        N = entry.perturbation(0.1)
        assert np.allclose(M.eval_grid(SPARSE), N.eval_grid(SPARSE))

    def test_zero(self):
        base = BaseFactorization.with_identity_outer(IDX)
        M = reduce_rhs(base, MatrixFunction.zero(2))
        assert np.max(np.abs(M.eval_grid(SPARSE))) == 0.0

    def test_cancellation(self):
        # with outer factors g-, g+, reducing g- E g+ recovers E
        lam_like = BoundaryFunction(lambda x: (x - 1j) / (x + 1j), tail_limit=1.0)
        inv_like = BoundaryFunction(lambda x: (x + 1j) / (x - 1j), tail_limit=1.0)
        one = BoundaryFunction(lambda x: np.ones_like(x, dtype=complex), tail_limit=1.0)
        zero = BoundaryFunction(lambda x: np.zeros_like(x, dtype=complex), tail_limit=0.0)
        g = MatrixFunction.from_rows([[lam_like, zero], [one, inv_like]], invertible=True)
        g_inv_rows = [[inv_like, zero],
                      [BoundaryFunction(lambda x: -np.ones_like(x, dtype=complex),
                                        tail_limit=-1.0) * one, lam_like]]
        # explicit inverse of [[a,0],[1,1/a]]: [[1/a, 0],[-1, a]]
        g_inv = MatrixFunction.from_rows(
            [[inv_like, zero],
             [BoundaryFunction(lambda x: -np.ones_like(x, dtype=complex), tail_limit=-1.0),
              lam_like]], invertible=True)
        base = BaseFactorization(g_minus=g, g_plus=g, indices=IDX,
                                 g_minus_inv=g_inv, g_plus_inv=g_inv)
        E = MatrixFunction.from_array([[0.3, -1j], [2.0, 0.7]])
        sandwich = combine(combine(g, E, "mul"), g, "mul")
        M = reduce_rhs(base, sandwich)
        assert np.max(np.abs(M.eval_grid(SPARSE) - E.eval_grid(SPARSE))) < 1e-12


def test_constant_outer_factors():
    # N = A N_solv B with constant non-identity outer factors: the reduced
    # problem is the gallery's, so the constants keep their closed forms, the
    # remainder is A dK_solv B, and dK(inf) = 16 (1 - E + eps E)^2 A B
    eps = 0.1
    A = np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex)
    B = np.array([[1.0, 0.0], [0.3j, 1.0]])
    entry = example_solvable(eps)
    Am = MatrixFunction.from_array(A, invertible=True, label="A")
    Bm = MatrixFunction.from_array(B, invertible=True, label="B")
    base = BaseFactorization(g_minus=Am, g_plus=Bm, indices=IDX,
                             g_minus_inv=MatrixFunction.from_array(np.linalg.inv(A)),
                             g_plus_inv=MatrixFunction.from_array(np.linalg.inv(B)))
    G = combine(combine(Am, entry.builder(eps), "mul"), Bm, "mul")
    N = combine(combine(Am, entry.perturbation(eps), "mul"), Bm, "mul")
    fact = factorize(base, N, order=1)
    C = fact.steps[0].constants
    cc = step1_constants(eps)
    assert abs(C[0, 0] - cc["c11"]) < 1e-12 and abs(C[1, 1] - cc["c22"]) < 1e-12
    assert abs(C[0, 1] - cc["c12"]) < 1e-12 and C[1, 0] == 0.0
    E = np.exp(-eps)
    want = 16.0 * (1.0 - E + eps * E) ** 2 * A @ B
    assert np.max(np.abs(remainder_at_infinity(fact) - want)) < 1e-12
    samples, _ = remainder(G, fact, 1, PROBE_GRID)
    plain = factorize(entry.base, entry.perturbation(eps), order=1)
    inner, _ = remainder(entry.builder(eps), plain, 1, PROBE_GRID)
    assert np.max(np.abs(samples - A @ inner @ B)) < 1e-12


class TestCheckSolvability:
    def test_solvable_passes(self):
        _, M = solvable_setup(0.1)
        report = check_solvability(M, IDX)
        assert report.passed
        cross = [r for r in report.residuals if r.kind == "cond5_cross"]
        assert len(cross) == 1 and abs(cross[0].value) < 1e-7

    def test_unsolvable_fails_with_known_residual(self):
        entry = example_unsolvable(0.1)
        M = reduce_rhs(entry.base, entry.perturbation(0.1))
        report = check_solvability(M, IDX)
        assert not report.passed
        cross = [r for r in report.residuals if r.kind == "cond5_cross"][0]
        assert abs(cross.value - unsolvable_cross_residual(0.1)) < 1e-6

    def test_constant_bump_is_not_solvable(self):
        # the index-changing direction: a constant entry in the cross block
        # violates the cross condition by exactly its own size
        from whfactor.gallery import gk_singular
        entry, _ = gk_singular(0.25)
        report = check_solvability(reduce_rhs(entry.base, entry.perturbation(0.25)), IDX)
        assert not report.passed
        cross = [r for r in report.residuals if r.kind == "cond5_cross"][0]
        assert abs(cross.value - 0.25) < 1e-9

    def test_zero_rhs(self):
        report = check_solvability(MatrixFunction.zero(2), IDX)
        assert report.passed
        assert all(abs(r.value) == 0.0 for r in report.residuals)
        assert all(abs(v) == 0.0 for v in report.pinned_constants.values())

    def test_pinned_constants_match_closed_forms(self):
        _, M = solvable_setup(0.1)
        report = check_solvability(M, IDX)
        cc = step1_constants(0.1)
        assert abs(report.pinned_constants[(0, 0)] - cc["c11"]) < 1e-9
        assert abs(report.pinned_constants[(1, 1)] - cc["c22"]) < 1e-9
        assert abs(report.pinned_constants[(0, 1)] - cc["c12"]) < 1e-9
        assert (1, 0) not in report.pinned_constants

    def test_moment_conditions_for_wide_gap(self):
        # indices (2, -2): 5 conditions; a decaying rhs that is not special
        idx = PartialIndices((2, -2))
        f = BoundaryFunction(lambda x: 1.0 / (x * x + 1.0), decay_order=2)
        M = MatrixFunction.from_rows([[f, f], [f, f]])
        report = check_solvability(M, idx)
        kinds = sorted(r.kind for r in report.residuals)
        assert kinds.count("cond2_moment") == 2
        assert kinds.count("cond4_moment") == 2
        assert kinds.count("cond5_cross") == 1


class TestSolveStep:
    def test_zero_rhs_gives_zero_corrections(self):
        step = solve_step(MatrixFunction.zero(2), IDX, ZERO_POLICY)
        assert np.max(np.abs(step.n_minus.eval_grid(SPARSE))) < 1e-12
        assert np.max(np.abs(step.n_plus.eval_grid(SPARSE))) < 1e-12

    def test_not_solvable_raises(self):
        entry = example_unsolvable(0.1)
        M = reduce_rhs(entry.base, entry.perturbation(0.1))
        with pytest.raises(NotSolvable):
            solve_step(M, IDX)

    def test_free_slot_policies(self):
        _, M = solvable_setup(0.1)
        report = check_solvability(M, IDX)
        s_zero = solve_step(M, IDX, ZERO_POLICY, report=report)
        assert s_zero.constants[1, 0] == 0.0
        s_inf = solve_step(M, IDX, MATCH_INFINITY_POLICY, report=report)
        c = s_inf.constants
        assert abs(c[0, 0] ** 2 + c[0, 1] * c[1, 0]) < 1e-10
        s_exp = solve_step(M, IDX, ConstantPolicy("explicit", {(1, 0): 2.0 - 1j}),
                           report=report)
        assert s_exp.constants[1, 0] == 2.0 - 1j

    def test_policy_conflict_on_pinned_target(self):
        _, M = solvable_setup(0.1)
        report = check_solvability(M, IDX)
        with pytest.raises(PolicyConflict):
            solve_step(M, IDX, ConstantPolicy("explicit", {(0, 0): 1.0}), report=report)

    def test_match_infinity_needs_2x2(self):
        idx = PartialIndices((0, 0, 0))
        M = MatrixFunction.zero(3)
        with pytest.raises(PolicyConflict):
            solve_step(M, idx, MATCH_INFINITY_POLICY)

    def test_boundary_identity(self):
        _, M = solvable_setup(0.1)
        step = solve_step(M, IDX)
        assert step.boundary_residual(SPARSE) < 5e-9

    def test_matches_oracle_entrywise(self):
        for eps in (0.1, 0.01):
            _, M = solvable_setup(eps)
            step = solve_step(M, IDX)
            om, op = oracle_first_step(eps, 0.0)
            xs = PROBE_GRID.points()
            assert np.max(np.abs(step.n_minus.eval_grid(xs) - om.eval_grid(xs))) < 1e-6
            assert np.max(np.abs(step.n_plus.eval_grid(xs) - op.eval_grid(xs))) < 1e-6

    def test_half_plane_evaluators(self):
        eps = 0.1
        _, M = solvable_setup(eps)
        step = solve_step(M, IDX)
        om, op = oracle_first_step(eps, 0.0)

        def oracle_at(F, z):
            out = np.empty((2, 2), dtype=complex)
            for i in range(2):
                for j in range(2):
                    out[i, j] = F.entries[i][j].evaluator(z)
            return out

        # away from the poles and near them (series branch), both half-planes
        for z in (-2j, 0.5 - 3j, -1j + 0.05, -1j + 0.02j):
            got = step.minus_tilde_at(z)
            assert np.max(np.abs(got - oracle_at(om, z))) < 1e-5, z
        for z in (2j, -0.5 + 3j, 1j + 0.05, 1j - 0.02j):
            got = step.plus_tilde_at(z)
            assert np.max(np.abs(got - oracle_at(op, z))) < 1e-5, z


class TestNextRhs:
    def _fake_step(self, n_minus, n_plus):
        return SimpleNamespace(n_minus=n_minus, n_plus=n_plus)

    def test_zero_step(self):
        base = BaseFactorization.with_identity_outer(IDX)
        M = next_rhs(base, [self._fake_step(MatrixFunction.zero(2),
                                            MatrixFunction.zero(2))])
        assert np.max(np.abs(M.eval_grid(SPARSE))) == 0.0

    def test_single_cross_term(self):
        base = BaseFactorization.with_identity_outer(IDX)
        A = MatrixFunction.from_array([[1.0, 2.0], [0.0, 1j]])
        B = MatrixFunction.from_array([[0.5, 0.0], [1.0, -1.0]])
        M = next_rhs(base, [self._fake_step(A, B)])
        want = -(A(0.0) @ B(0.0))
        assert np.allclose(M(0.0), want)

    def test_two_cross_terms(self):
        base = BaseFactorization.with_identity_outer(IDX)
        A1 = MatrixFunction.from_array([[1.0, 0.0], [1.0, 1.0]])
        B1 = MatrixFunction.from_array([[0.0, 1.0], [2.0, 0.0]])
        A2 = MatrixFunction.from_array([[1j, 0.0], [0.0, -1j]])
        B2 = MatrixFunction.from_array([[3.0, 0.0], [0.0, 3.0]])
        M = next_rhs(base, [self._fake_step(A1, B1), self._fake_step(A2, B2)])
        want = -(A1(0.0) @ B2(0.0) + A2(0.0) @ B1(0.0))
        assert np.allclose(M(0.0), want)


class TestFactorize:
    def test_solvable_achieves_order_one(self):
        entry = example_solvable(0.1)
        fact = factorize(entry.base, entry.perturbation(0.1), order=1)
        assert fact.achieved_order == 1
        assert fact.failure is None

    def test_unsolvable_stops_with_failure_data(self):
        entry = example_unsolvable(0.1)
        fact = factorize(entry.base, entry.perturbation(0.1), order=1)
        assert fact.achieved_order == 0
        cross = [r for r in fact.failure.residuals if r.kind == "cond5_cross"][0]
        assert abs(cross.value - unsolvable_cross_residual(0.1)) < 1e-5

    def test_zero_perturbation_any_order(self):
        base = BaseFactorization.with_identity_outer(IDX)
        fact = factorize(base, MatrixFunction.zero(2), order=3)
        assert fact.achieved_order == 3
        for step in fact.steps:
            assert np.max(np.abs(step.constants)) == 0.0

    def test_report_independent_of_policy(self):
        entry = example_solvable(0.1)
        f1 = factorize(entry.base, entry.perturbation(0.1), order=1, policy=ZERO_POLICY)
        f2 = factorize(entry.base, entry.perturbation(0.1), order=1,
                       policy=MATCH_INFINITY_POLICY)
        p1 = f1.steps[0].report.pinned_constants
        p2 = f2.steps[0].report.pinned_constants
        assert p1.keys() == p2.keys()
        assert all(p1[k] == p2[k] for k in p1)


@pytest.fixture(scope="module")
def solved():
    entry = example_solvable(0.1)
    fact = factorize(entry.base, entry.perturbation(0.1), order=1)
    return entry, fact


class TestAssembleAndRemainder:

    def test_zero_corrections_reproduce_base(self):
        base = BaseFactorization.with_identity_outer(IDX)
        fact = factorize(base, MatrixFunction.zero(2), order=1)
        _, _, _, prod = assemble(fact, 1, SPARSE)
        assert np.max(np.abs(prod - base.product_grid(SPARSE))) < 1e-12

    def test_product_matches_closed_form(self, solved):
        entry, fact = solved
        om, op = oracle_first_step(0.1, 0.0)
        lam0 = np.diag([-1.0 + 0j, -1.0 + 0j])
        lamp_inv = np.diag([-1.0 + 0j, 1.0])
        lamm_inv = np.diag([1.0, -1.0 + 0j])
        want = ((np.eye(2) + om(0.0) @ lamp_inv) @ lam0
                @ (np.eye(2) + lamm_inv @ op(0.0)))
        _, _, _, prod = assemble(fact, 1, 0.0)
        assert np.max(np.abs(prod - want)) < 1e-6

    def test_corrected_minus_factor_invertible(self, solved):
        entry, fact = solved
        minus, _, _, _ = assemble(fact, 1, SPARSE)
        assert np.min(np.abs(np.linalg.det(minus))) > 0.0

    def test_order_exceeded(self, solved):
        _, fact = solved
        with pytest.raises(OrderExceeded):
            assemble(fact, 2, 0.0)
        with pytest.raises(OrderExceeded):
            assemble(fact, 0, 0.0)

    def test_remainder_of_own_product_vanishes(self, solved):
        entry, fact = solved

        def prod_entry(i, j):
            def ev(x, i=i, j=j):
                xs = np.atleast_1d(np.asarray(x, dtype=float))
                return assemble(fact, 1, xs)[3][:, i, j]
            return ev

        prod_fn = MatrixFunction.from_rows(
            [[BoundaryFunction(prod_entry(i, j), osc_scale=0.1) for j in range(2)]
             for i in range(2)])
        _, sup = remainder(prod_fn, fact, 1, PROBE_GRID)
        assert sup < 1e-12

    def test_exact_first_step_identity(self, solved):
        entry, fact = solved
        samples, _ = remainder(entry.builder(0.1), fact, 1, PROBE_GRID)
        xs = PROBE_GRID.points()
        n1m = fact.steps[0].n_minus.eval_grid(xs)
        n1p = fact.steps[0].n_plus.eval_grid(xs)
        resid = samples + np.einsum("kij,kjl->kil", n1m, n1p)
        assert np.max(np.abs(resid)) < 5e-9

    def test_index_preservation(self, solved):
        _, fact = solved
        det = BoundaryFunction(
            lambda x: np.linalg.det(assemble(fact, 1, np.atleast_1d(x))[3]),
            osc_scale=0.1)
        assert winding_number(det, PROBE_GRID) == 0  # sum of (1, -1)


class TestWideGap:
    """Indices (2, -2): manufactured right-hand side that is solvable by
    construction (assembled from hand-chosen half-plane-analytic solutions)."""

    IDX2 = PartialIndices((2, -2))

    @staticmethod
    def _rhs():
        def lam(t):
            return (t - 1j) / (t + 1j)

        def m11(t):
            return 1.0 / (t - 1j) + lam(t) ** 2 / (t + 1j)

        def m12(t):
            return (t + 1j) ** 2 / (t - 1j) ** 4 + (t - 1j) ** 2 / (t + 1j) ** 4

        def m21(t):
            return 2.0 / (t - 1j)

        def m22(t):
            return 1j * (t + 1j) ** 2 / (t - 1j) ** 4 + 3.0 / (t + 1j)

        rows = [[BoundaryFunction(m11, decay_order=1), BoundaryFunction(m12, decay_order=2)],
                [BoundaryFunction(m21, decay_order=1), BoundaryFunction(m22, decay_order=1)]]
        return MatrixFunction.from_rows(rows)

    def test_condition_battery_passes(self):
        report = check_solvability(self._rhs(), self.IDX2)
        assert len(report.residuals) == 5
        assert report.passed

    def test_step_solves_the_boundary_problem(self):
        M = self._rhs()
        step = solve_step(M, self.IDX2, ZERO_POLICY)
        assert step.boundary_residual(SPARSE) < 5e-8
        # the double-order bracket makes the minus column analytic at -i:
        # probe just below the removable point through the series branch
        v = step.minus_tilde_at(-1j + 0.03)
        assert np.all(np.isfinite(v))

    def test_random_rhs_fails(self):
        f = BoundaryFunction(lambda t: 1.0 / (t * t + 2.0), decay_order=2)
        M = MatrixFunction.from_rows([[f, f], [f, f]])
        report = check_solvability(M, self.IDX2)
        assert not report.passed


def test_remainder_limit_n3_fallback():
    # for n > 2 the infinity remainder is read from the step-1 limits as well
    idx3 = PartialIndices((1, 0, -1))
    base = BaseFactorization.with_identity_outer(idx3)
    fact = factorize(base, MatrixFunction.zero(3), order=1)
    assert np.max(np.abs(remainder_at_infinity(fact))) < 1e-10


def test_remainder_limit_by_tail_extrapolation(solved):
    # the dyadic-tail limit of the remainder function agrees with the
    # squared-constants closed form
    from whfactor import limit_at_infinity
    entry, fact = solved
    dk = fact.delta_function(entry.builder(0.1), 1)
    lim = limit_at_infinity(dk)
    E = np.exp(-0.1)
    want = 16.0 * (1.0 - E + 0.1 * E) ** 2 * np.eye(2)
    assert np.max(np.abs(lim - want)) < 1e-3


def test_second_step_with_lean_quadrature():
    # the worked example passes its second-step conditions as well; the lean
    # spec keeps this fast while the step-1 constants stay accurate
    from whfactor.cauchy import QuadratureSpec
    lean = QuadratureSpec(nodes_per_panel=16, num_panels=32, deep_window_min=3e3,
                          deep_scale=4e6, window_min=1e3, phase_per_panel=24.0)
    entry = example_solvable(0.1)
    fact = factorize(entry.base, entry.perturbation(0.1), order=2, quad=lean)
    assert fact.achieved_order == 2
    cc = step1_constants(0.1)
    assert abs(fact.steps[0].constants[0, 0] - cc["c11"]) < 1e-7
    sparse = PROBE_GRID.points()[::40]
    assert fact.steps[1].boundary_residual(sparse) < 1e-7


class TestRemainderAtInfinity:
    def test_zero_constants(self):
        base = BaseFactorization.with_identity_outer(IDX)
        fact = factorize(base, MatrixFunction.zero(2), order=1)
        assert np.max(np.abs(remainder_at_infinity(fact))) == 0.0

    def test_squared_constants_with_free_slot_zero(self):
        eps = 0.1
        entry = example_solvable(eps)
        fact = factorize(entry.base, entry.perturbation(eps), order=1)
        got = remainder_at_infinity(fact)
        E = np.exp(-eps)
        want = 16.0 * (1.0 - E + eps * E) ** 2
        assert abs(got[0, 0] - want) < 1e-4
        assert abs(got[1, 1] - want) < 1e-4
        assert abs(got[0, 1]) < 1e-8 and abs(got[1, 0]) < 1e-8

    def test_tuned_free_slot_kills_the_limit(self):
        entry = example_solvable(0.1)
        fact = factorize(entry.base, entry.perturbation(0.1), order=1,
                         policy=MATCH_INFINITY_POLICY)
        assert np.max(np.abs(remainder_at_infinity(fact))) < 1e-6

    def test_requires_a_completed_step(self):
        entry = example_unsolvable(0.1)
        fact = factorize(entry.base, entry.perturbation(0.1), order=1)
        with pytest.raises(OrderExceeded):
            remainder_at_infinity(fact)
