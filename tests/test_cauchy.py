"""Half-plane projection machinery against residue-calculus oracles.

Every expected value here was derived by closing the contour in the
appropriate half-plane and summing residues; the quadrature path under test
never enters those derivations.
"""

import tracemalloc

import numpy as np
import pytest

from whfactor import (BoundaryFunction, DEFAULT_GRID, DEFAULT_QUAD, MatrixFunction,
                      QuadratureSpec, QuadratureNotConverged, TooCloseToAxis, boundary_values,
                      integral, moment, omega, plemelj_split, weighted_integral)
from whfactor import cauchy

ABS_TOL = DEFAULT_QUAD.abs_tol


def bf(fn, decay=1.0, osc=0.0, label="f"):
    return BoundaryFunction(fn, decay_order=decay, label=label, osc_scale=osc)


F_RATIONAL = bf(lambda t: 1.0 / (t * t + 1.0), decay=2, label="1/(t^2+1)")
F_PLUS_TYPE = bf(lambda t: 1.0 / (t + 1j), decay=1, label="1/(t+i)")
F_ODD = bf(lambda t: t / (t * t + 1.0) ** 2, decay=3, label="t/(t^2+1)^2")
F_MINUS_TYPE = bf(lambda t: 1.0 / (t - 1j), decay=1, label="1/(t-i)")
F_SHIFTED = bf(lambda t: (t + 2.0) / (t * t + 2.0 * t + 5.0), decay=1, label="shifted")
F_OSC = bf(lambda t: t * 1j * (2.0 - np.exp(0.5j * t) - np.exp(-0.5j * t)) / (t * t + 1.0),
           decay=1, osc=0.5, label="osc")

FAMILY = [F_RATIONAL, F_PLUS_TYPE, F_ODD, F_MINUS_TYPE, F_SHIFTED, F_OSC]


class TestOmega:
    def test_plus_type_at_2i(self):
        # residues: C f(2i) = f(2i) = 1/(3i), C f(i) = 1/(2i)
        assert abs(omega(F_PLUS_TYPE, "plus", 2j) - 1j / 6) < 1e-8

    def test_plus_type_minus_side_is_constant(self):
        assert abs(omega(F_PLUS_TYPE, "minus", -2j) - (-1j / 2)) < 1e-8
        for z in (-1j, -5j, 3.0 - 2j):
            assert abs(omega(F_PLUS_TYPE, "minus", z) - (-1j / 2)) < 5 * ABS_TOL

    def test_normalization_at_i(self):
        for f in FAMILY:
            assert omega(f, "plus", 1j) == 0.0
            assert abs(omega(f, "plus", 1j + 1e-4j)) < 1e-3

    def test_too_close_to_axis(self):
        with pytest.raises(TooCloseToAxis):
            omega(F_RATIONAL, "plus", 0.5 + 1e-9j)
        with pytest.raises(TooCloseToAxis):
            omega(F_RATIONAL, "minus", 2j)

    def test_cross_identity_with_weighted_integral(self):
        for f in FAMILY:
            lhs = omega(f, "minus", -1j)
            rhs = weighted_integral(f)
            assert abs(lhs - rhs) < 5 * ABS_TOL, f.label

    def test_analyticity_stencil(self):
        h = 1e-3
        for f in (F_RATIONAL, F_PLUS_TYPE, F_ODD):
            for z in (1.0 + 1j, 2j, -1.0 + 1j):
                fx = (omega(f, "plus", z + h) - omega(f, "plus", z - h)) / (2 * h)
                fy = (omega(f, "plus", z + 1j * h) - omega(f, "plus", z - 1j * h)) / (2 * h)
                assert abs(fx + 1j * fy) / 2 < 1e-5

    def test_pure_part_fixed_points(self):
        # plus-type sources have constant minus parts and vice versa
        for k in (1, 2, 3):
            f = bf(lambda t, k=k: 1.0 / (t + 1j) ** k, decay=k)
            vals = [omega(f, "minus", z) for z in (-2j, -1.0 - 1j, -5j)]
            assert max(abs(v - vals[0]) for v in vals) < 5 * ABS_TOL
            g = bf(lambda t, k=k: 1.0 / (t - 1j) ** k, decay=k)
            wals = [omega(g, "plus", z) for z in (2j, 1.0 + 1j, 5j)]
            assert max(abs(w - wals[0]) for w in wals) < 5 * ABS_TOL


class TestBoundaryValues:
    def test_plus_type_oracle(self):
        assert abs(boundary_values(F_PLUS_TYPE, "plus", 0.0) - (-1j / 2)) < 1e-7
        assert abs(boundary_values(F_PLUS_TYPE, "minus", 0.0) - (-1j / 2)) < 1e-7

    def test_plus_side_matches_off_axis_closed_form(self):
        # for a plus-type source: plus part = f(x) - C f(i)
        for x in (0.0, 1.3, -4.0, 20.0):
            want = F_PLUS_TYPE(x) + 1j / 2
            assert abs(boundary_values(F_PLUS_TYPE, "plus", x) - want) < 1e-7

    def test_plemelj_sum_identity(self):
        xs = np.linspace(-30.0, 30.0, 41)
        for f in FAMILY:
            plus = boundary_values(f, "plus", xs)
            minus = boundary_values(f, "minus", xs)
            assert np.max(np.abs(plus + minus - f(xs))) < 5 * ABS_TOL, f.label

    def test_agrees_with_omega_near_axis(self):
        for f in (F_RATIONAL, F_PLUS_TYPE):
            for x in (0.7, -2.2):
                bv = boundary_values(f, "plus", x)
                just_above = omega(f, "plus", x + 1e-5j)
                assert abs(bv - just_above) < 1e-4


class TestPlemeljSplit:
    def test_plus_part_vanishes_at_i(self):
        f_minus, f_plus = plemelj_split(F_RATIONAL)
        assert abs(f_plus(1j)) < ABS_TOL

    def test_minus_part_at_minus_i(self):
        # (1/pi) int dt/(t^2+1)^2 = 1/2
        f_minus, _ = plemelj_split(F_RATIONAL)
        assert abs(f_minus(-1j) - 0.5) < 1e-8

    def test_zero_function(self):
        zero = bf(lambda t: np.zeros_like(t, dtype=complex), decay=5, label="0")
        f_minus, f_plus = plemelj_split(zero)
        assert abs(f_minus(-2j)) < ABS_TOL
        assert abs(f_plus(2j)) < ABS_TOL
        assert abs(f_plus(0.3)) < ABS_TOL

    def test_boundary_sum_recovers_source(self):
        f_minus, f_plus = plemelj_split(F_SHIFTED)
        for x in (0.0, 2.5, -7.0):
            total = f_minus.boundary(x) + f_plus.boundary(x)
            assert abs(total - F_SHIFTED(x)) < 5 * ABS_TOL

    def test_wrong_half_plane_rejected(self):
        f_minus, f_plus = plemelj_split(F_RATIONAL)
        with pytest.raises(ValueError):
            f_plus(-2j)
        with pytest.raises(ValueError):
            f_minus(2j)


class TestWeightedIntegral:
    def test_rational(self):
        # int dt/(t^2+1)^2 = pi/2
        assert abs(weighted_integral(F_RATIONAL) - 0.5) < 1e-9

    def test_plus_type(self):
        assert abs(weighted_integral(F_PLUS_TYPE) - (-1j / 2)) < 1e-9

    def test_odd(self):
        assert abs(weighted_integral(F_ODD)) < 1e-12


class TestMoment:
    def test_no_singularity_above(self):
        assert abs(moment(F_PLUS_TYPE, -1j, 1)) < 1e-9

    def test_double_pole(self):
        assert abs(moment(F_MINUS_TYPE, -1j, 1) - (-1j * np.pi / 2)) < 1e-9

    def test_zero(self):
        zero = bf(lambda t: np.zeros_like(t, dtype=complex), decay=5)
        assert moment(zero, 1j, 2) == 0.0

    def test_order_validation(self):
        with pytest.raises(ValueError):
            moment(F_RATIONAL, -1j, 0)
        with pytest.raises(ValueError):
            moment(F_RATIONAL, 2j, 1)


class TestRandomRationalFamily:
    """Property checks over randomly generated rational functions with poles
    off the axis: the split identities must hold for all of them."""

    from hypothesis import given, settings, strategies as st

    pole = st.complex_numbers(min_magnitude=0.3, max_magnitude=4.0,
                              allow_nan=False, allow_infinity=False).filter(
        lambda p: abs(p.imag) > 0.3)
    coef = st.complex_numbers(min_magnitude=0.0, max_magnitude=2.0,
                              allow_nan=False, allow_infinity=False)

    @staticmethod
    def _make(c1, p1, c2, p2):
        def ev(t):
            return c1 / (t - p1) + c2 / (t - p2) ** 2
        return BoundaryFunction(ev, decay_order=1, label="random rational")

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(coef, pole, coef, pole)
    def test_plemelj_and_cross_identity(self, c1, p1, c2, p2):
        f = self._make(c1, p1, c2, p2)
        xs = np.array([-7.3, -1.1, 0.0, 0.4, 5.9])
        plus = boundary_values(f, "plus", xs)
        minus = boundary_values(f, "minus", xs)
        assert np.max(np.abs(plus + minus - f(xs))) < 5 * ABS_TOL
        assert abs(omega(f, "minus", -1j) - weighted_integral(f)) < 5 * ABS_TOL

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(coef, pole, coef, pole)
    def test_split_against_residue_oracle(self, c1, p1, c2, p2):
        # terms whose pole lies below the axis make up the zero-at-infinity
        # upper part; the plus projection is that part minus its value at i
        f = self._make(c1, p1, c2, p2)

        def upper_part(z):
            total = 0.0 + 0.0j
            if p1.imag < 0:
                total += c1 / (z - p1)
            if p2.imag < 0:
                total += c2 / (z - p2) ** 2
            return total

        for x in (1.7, -0.3):
            want = upper_part(x) - upper_part(1j)
            assert abs(boundary_values(f, "plus", x) - want) < 1e-7
        assert abs(omega(f, "plus", 2.5j) - (upper_part(2.5j) - upper_part(1j))) < 1e-7


class TestQuadratureSpec:
    def test_base_node_count(self):
        spec = QuadratureSpec()
        assert spec.base_node_count == 32 * 64 == 2048

    def test_panel_doubling_invariant(self):
        # doubling the panels moves the self-test integrals by < abs_tol
        for f in (F_RATIONAL, F_PLUS_TYPE, F_ODD):
            integral(f, verify=True)

    def test_doubling_catches_misdeclared_oscillation(self):
        liar = BoundaryFunction(lambda t: np.exp(40j * t) / (t * t + 1.0),
                                decay_order=2, osc_scale=0.0, label="liar")
        with pytest.raises(QuadratureNotConverged):
            integral(liar, verify=True)

    def test_oscillatory_with_hint_converges(self):
        honest = BoundaryFunction(lambda t: np.exp(40j * t) / (t * t + 1.0),
                                  decay_order=2, osc_scale=40.0, label="honest")
        # residue oracle: 2 pi i * e^{40 i i} / (2i) = pi e^{-40}
        assert abs(integral(honest, verify=True) - np.pi * np.exp(-40.0)) < 1e-9

    def test_omega_verify_path(self):
        f = BoundaryFunction(lambda t: 1.0 / (t + 1j), decay_order=1)
        assert abs(omega(f, "plus", 2j, verify=True) - 1j / 6) < 1e-8
        liar = BoundaryFunction(lambda t: np.exp(60j * t) * t / (t * t + 1.0) ** 2,
                                decay_order=3, osc_scale=0.0, label="liar")
        with pytest.raises(QuadratureNotConverged):
            omega(liar, "plus", 2j, verify=True)


class TestNodeBudget:
    def test_oversized_tables_raise_before_allocating(self):
        # osc 0.1 at |x| ~ 1e9 would need 16.0M nodes, the tan spec 33.5M
        tracemalloc.start()
        try:
            with pytest.raises(QuadratureNotConverged):
                cauchy._table(DEFAULT_QUAD, osc=0.1, xmax=1e9)
            with pytest.raises(QuadratureNotConverged):
                cauchy._table(QuadratureSpec(num_panels=1 << 20))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6


class TestTailWeights:
    """Plain-integral weights of the oscillation tables against closed forms,
    with the taper and tail model carrying the part beyond the window."""

    @pytest.mark.parametrize("deep, tol", [(True, 1e-13), (False, 1e-7)])
    @pytest.mark.parametrize("a", [0.01, 0.05, 0.3, 1.5])
    def test_closed_forms(self, a, deep, tol):
        t = cauchy._table(DEFAULT_QUAD, osc=a, deep=deep)
        tau = t.tau
        e = np.exp(1j * a * tau)
        cases = ((1.0 / (tau * tau + 1.0), np.pi),
                 (e / (tau * tau + 1.0), np.pi * np.exp(-a)),
                 (tau * tau * e / (tau * tau + 1.0) ** 2, np.pi * (1.0 - a) * np.exp(-a) / 2.0))
        for fv, want in cases:
            assert abs(fv @ t.w - want) < tol


class TestMemo:
    def test_only_integrand_values_are_memoised(self):
        # one entry per (integrand, table): the rational one on the tan
        # table, the oscillating one on its plain and its deep table
        osc = bf(lambda t: t * 1j * (2.0 - np.exp(0.1j * t) - np.exp(-0.1j * t)) / (t * t + 1.0),
                 decay=1, osc=0.1, label="osc 0.1")
        cauchy.clear_caches()
        sizes = []
        for _ in range(3):
            for f in (F_RATIONAL, osc):
                weighted_integral(f)
                cauchy.decaying_split_anchors(f)
                moment(f, 1j, 2)
            sizes.append(len(cauchy._EVAL_CACHE))
        assert sizes == [3, 3, 3]
        deep = [t for key, t in cauchy._TABLE_CACHE.items() if key[1] == "osc" and key[-1]]
        assert deep
        for t in deep:
            assert t.fit is None and t.raw_w is None and t.ext_tau is None

    def test_split_memo_keys_on_target_values(self):
        # an in-place edit away from any sampled index, and a new array on
        # the same buffer, must not hit the split memoised for the old values
        f = bf(lambda t: np.exp(0.3j * t) / (t + 1j) ** 2, decay=2, osc=0.3)

        def fresh(xs):
            cauchy.clear_caches()
            return boundary_values(f, "plus", xs)

        xs = np.linspace(-10.0, 10.0, 301)
        boundary_values(f, "plus", xs)
        xs[5] += 0.01
        got = boundary_values(f, "plus", xs)
        assert np.max(np.abs(got - fresh(xs.copy()))) < 1e-13

        raw = bytearray(301 * 8)
        a = np.frombuffer(raw)
        a[:] = np.linspace(-10.0, 10.0, 301)
        boundary_values(f, "plus", a)
        del a
        b = np.frombuffer(raw)
        b[1:100] += 0.05  # indices 0, 100, 200 and 300 keep their values
        b[201:300] -= 0.05
        got = boundary_values(f, "plus", b)
        assert np.max(np.abs(got - fresh(b.copy()))) < 1e-13

    def test_split_results_do_not_alias_the_memo(self):
        xs = np.linspace(-10.0, 10.0, 301)
        want = [boundary_values(F_SHIFTED, side, xs) for side in ("plus", "minus")]
        for side in ("plus", "minus"):
            boundary_values(F_SHIFTED, side, xs)[0] = 99.0
        for side, w in zip(("plus", "minus"), want):
            assert np.array_equal(boundary_values(F_SHIFTED, side, xs), w)

    def test_table_arrays_are_read_only(self):
        for t in (cauchy._table(DEFAULT_QUAD), cauchy._table(DEFAULT_QUAD, osc=0.5)):
            for a in (t.tau, t.w, t.raw_w, t.fit, t.ext_tau, t.ext_w, t.ext_basis):
                if a is not None:
                    with pytest.raises(ValueError):
                        a[0] = 1.0


def _dense_kernel_sum(f, zeta, spec, sgn):
    """Per-entry dense sum of f(tau)/((tau-i)(tau-zeta)), one target at a time.

    Subtracts f(x0)(x0+i)/(tau+i) pointwise before dividing, uses the fitted
    tail model on the extension nodes of an oscillation table, replaces the
    integrand on a node that coincides with the target by its centred
    difference quotient, and adds the subtracted part by residues.
    """
    x0 = zeta.real
    t = cauchy._table(spec, osc=f.osc_scale, xmax=float(np.max(np.abs(x0))))
    fv = f(t.tau)
    out = np.empty(zeta.size, dtype=complex)
    for k, (z, x) in enumerate(zip(zeta, x0)):
        fx = f(x)
        num = fv - fx * (x + 1j) / (t.tau + 1j)
        den = t.tau - z
        if sgn == 0:
            for c in np.nonzero(np.abs(den) < 1e-8 * (1.0 + abs(x)))[0]:
                h = 1e-5 * (1.0 + abs(x))
                num[c] = ((f(x + h) - fx * (x + 1j) / (x + h + 1j))
                          - (f(x - h) - fx * (x + 1j) / (x - h + 1j))) / (2.0 * h)
                den[c] = 1.0
        acc = np.sum(t.raw_w * num / ((t.tau - 1j) * den))
        if t.kind == "osc":
            model = t.ext_basis @ (t.fit @ fv)
            enum = model - fx * (x + 1j) / (t.ext_tau + 1j)
            acc += np.sum(t.ext_w * enum / ((t.ext_tau - 1j) * (t.ext_tau - z)))
        # integral of (x0+i)/((tau+i)(tau-i)(tau-zeta)) by residues
        if sgn > 0:
            closed = -np.pi * (x + 1j) / (z + 1j)
        elif sgn < 0:
            closed = -np.pi * (x + 1j) / (z - 1j)
        else:
            closed = -np.pi * x / (x - 1j)
        out[k] = acc + fx * closed
    return out


class TestBatchedKernel:
    """The one-kernel-per-table sum against the per-entry dense sum."""

    SPEC = QuadratureSpec(nodes_per_panel=16, num_panels=32, window_min=1e3,
                          phase_per_panel=24.0)
    # two tan-table entries and two entries on each of two oscillation tables
    ENTRIES = [F_RATIONAL, F_SHIFTED, F_OSC,
               bf(lambda t: np.exp(0.5j * t) / (t + 1j) ** 2, decay=2, osc=0.5),
               bf(lambda t: np.exp(-0.3j * t) * t / (t * t + 4.0), decay=1, osc=0.3),
               bf(lambda t: np.exp(0.3j * t) / (t - 2j), decay=1, osc=0.3)]

    def _targets(self, sgn):
        xs = np.linspace(-40.0, 40.0, 33)
        if sgn != 0:
            return xs + sgn * 0.5j
        # targets on the nodes of every table in use trigger the coincidence patch
        tables = {id(t): t for t in (cauchy._table(self.SPEC, osc=f.osc_scale, xmax=40.0)
                                     for f in self.ENTRIES)}
        on_nodes = [t.tau[np.abs(t.tau) < 40.0][::9] for t in tables.values()]
        assert len(tables) == 3
        for t, x in zip(tables.values(), on_nodes):
            assert cauchy._coincident(t.tau, x)[0].size == x.size
        return np.concatenate([xs] + on_nodes).astype(complex)

    @pytest.mark.parametrize("sgn", [-1, 0, 1])
    def test_matches_per_entry_dense_sum(self, sgn):
        zeta = self._targets(sgn)
        fx0 = np.stack([f(zeta.real) for f in self.ENTRIES], axis=1)
        got = cauchy._kernel_integral(self.ENTRIES, zeta, fx0, self.SPEC, sgn)
        assert got.shape == (zeta.size, len(self.ENTRIES))
        for e, f in enumerate(self.ENTRIES):
            want = _dense_kernel_sum(f, zeta, self.SPEC, sgn)
            assert np.max(np.abs(got[:, e] - want)) <= 1e-12 * np.max(np.abs(want)), e

    def test_matrix_split_matches_entrywise(self):
        F = MatrixFunction.from_rows([self.ENTRIES[:2], self.ENTRIES[2:4]])
        xs = np.linspace(-20.0, 20.0, 41)
        for side in ("plus", "minus"):
            got = boundary_values(F, side, xs, self.SPEC)
            assert got.shape == (xs.size, 2, 2)
            at = boundary_values(F, side, 1.5, self.SPEC)
            assert at.shape == (2, 2)
            for i in range(2):
                for j in range(2):
                    want = boundary_values(F.entry(i, j), side, xs, self.SPEC)
                    assert np.max(np.abs(got[:, i, j] - want)) < 1e-13
                    one = boundary_values(F.entry(i, j), side, 1.5, self.SPEC)
                    assert abs(at[i, j] - one) < 1e-13


class TestChebyshevTree:
    """On-axis sums through the target-side Chebyshev tree against the
    per-entry dense sum."""

    LEAN = TestBatchedKernel.SPEC
    TINY = QuadratureSpec(nodes_per_panel=4, num_panels=4)  # 16 nodes, under one leaf

    @staticmethod
    def _check(f, x, spec):
        zeta = np.asarray(x, dtype=complex)
        got = cauchy._kernel_integral([f], zeta, f(zeta.real)[:, None], spec, 0)[:, 0]
        want = _dense_kernel_sum(f, zeta, spec, 0)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("f, spec", [
        (F_RATIONAL, DEFAULT_QUAD),
        (bf(lambda t: np.exp(0.1j * t) / (t + 1j) ** 2, decay=2, osc=0.1), LEAN)])
    def test_default_grid(self, f, spec):
        self._check(f, DEFAULT_GRID.points(), spec)

    @pytest.mark.parametrize("f", [F_RATIONAL, F_OSC])
    def test_targets_on_nodes_repeated_and_odd_counts(self, f):
        t = cauchy._table(self.LEAN, osc=f.osc_scale, xmax=40.0)
        on_nodes = t.tau[np.abs(t.tau) < 40.0][::3]
        assert cauchy._coincident(t.tau, on_nodes)[0].size == on_nodes.size
        grid = np.linspace(-40.0, 40.0, 1007)
        for x in (np.concatenate([grid, on_nodes]),
                  np.repeat(on_nodes[:50], 3),
                  np.concatenate([np.full(100, on_nodes[7]), np.full(70, 2.5), grid[::10]]),
                  np.array([on_nodes[3]]), np.array([0.7]), grid[:45]):
            self._check(f, x, self.LEAN)

    def test_no_targets(self):
        assert boundary_values(F_OSC, "plus", np.array([])).shape == (0,)

    def test_table_smaller_than_one_leaf(self):
        t = cauchy._table(self.TINY)
        assert t.tau.size < cauchy._LEAF
        self._check(F_SHIFTED, np.concatenate([np.linspace(-30.0, 30.0, 1001), t.tau]),
                    self.TINY)

    def test_memory_stays_bounded(self):
        # 2001 targets on a 117k-node table, where a dense (X, T) kernel
        # would take 1.9 GB
        f = bf(lambda t: np.exp(0.7j * t) / (t + 1j) ** 2, decay=2, osc=0.7)
        xs = DEFAULT_GRID.points()
        boundary_values(f, "plus", xs[:4])  # table and integrand values
        assert cauchy._table(DEFAULT_QUAD, osc=0.7, xmax=float(np.max(np.abs(xs)))).tau.size >= 1e5
        tracemalloc.start()
        try:
            boundary_values(f, "plus", xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
