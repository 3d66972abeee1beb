import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from whfactor import (BoundaryFunction, GridSpec, MatrixFunction, NearSingular,
                      NoLimit, PROBE_GRID, combine, constant, eval, eval_matrix,
                      invert_at, limit_at_infinity, sup_norm)
from whfactor.funcspace import ZERO
from whfactor.gallery import example_solvable, gk_diagonal, gk_singular


def lam(x):
    x = np.asarray(x, dtype=float)
    return (x - 1j) / (x + 1j)


def test_eval_constant():
    assert eval(constant(1.0), 5.0) == 1.0


def test_eval_blaschke_at_zero():
    f = BoundaryFunction(lam, label="lam")
    assert abs(eval(f, 0.0) - (-1.0)) < 1e-14


def test_eval_gallery_entry():
    entry = example_solvable(0.1)
    assert abs(entry.matrix.entry(0, 0)(0.0) - (-1.0)) < 1e-14


def test_eval_matrix_base_and_identity():
    gk = gk_diagonal()
    assert np.allclose(eval_matrix(gk.matrix, 0.0), np.diag([-1.0, -1.0]))
    ident = MatrixFunction.identity(3)
    assert np.allclose(eval_matrix(ident, 17.3), np.eye(3))


def test_eval_matrix_perturbed_constant_entry():
    entry, _ = gk_singular(0.5)
    assert np.allclose(eval_matrix(entry.matrix, 0.0),
                       np.array([[-1.0, 0.5], [0.0, -1.0]]))


def test_combine_add_sub_identities():
    entry = example_solvable(0.1)
    F = entry.matrix
    zero = MatrixFunction.zero(2)
    xs = PROBE_GRID.points()[::20]
    assert np.allclose(combine(F, zero, "add").eval_grid(xs), F.eval_grid(xs))
    ident = MatrixFunction.identity(2)
    assert np.allclose(combine(ident, F, "mul").eval_grid(xs), F.eval_grid(xs))


def test_combine_recovers_perturbation():
    entry = example_solvable(0.1)
    G0 = gk_diagonal().matrix
    diff = combine(entry.matrix, G0, "sub")
    want = entry.perturbation(0.1)
    assert abs(diff.entry(0, 1)(1.0) - want.entry(0, 1)(1.0)) < 1e-13


def test_combine_dimension_mismatch():
    with pytest.raises(ValueError):
        combine(MatrixFunction.identity(2), MatrixFunction.identity(3), "add")


def test_invert_at_diagonal():
    gk = gk_diagonal()
    inv = invert_at(gk.matrix, 0.0)
    assert np.allclose(inv, np.diag([-1.0, -1.0]))


def test_invert_at_identity_and_consistency():
    entry = example_solvable(0.2)
    for x in (0.0, 1.7, -3.0):
        prod = invert_at(entry.matrix, x) @ eval_matrix(entry.matrix, x)
        assert np.max(np.abs(prod - np.eye(2))) < 1e-12


def test_invert_at_singular():
    deg = MatrixFunction.from_rows([[constant(1.0), constant(1.0)],
                                    [constant(1.0), constant(1.0)]])
    with pytest.raises(NearSingular):
        invert_at(deg, 0.3)


def test_sup_norm_examples():
    assert sup_norm(MatrixFunction.zero(2), PROBE_GRID) == 0.0
    assert abs(sup_norm(gk_diagonal().matrix, PROBE_GRID) - 1.0) < 1e-12
    entry, _ = gk_singular(0.25)
    diff = combine(entry.matrix, gk_diagonal().matrix, "sub")
    assert abs(sup_norm(diff, PROBE_GRID) - 0.25) < 1e-14


def test_sup_norm_monotone_under_domination():
    f = BoundaryFunction(lambda x: 1.0 / (x * x + 1.0), decay_order=2)
    F = MatrixFunction.from_rows([[f]])
    G = MatrixFunction.from_rows([[f * 3.0]])
    assert sup_norm(F, PROBE_GRID) <= sup_norm(G, PROBE_GRID)


def test_limit_at_infinity_constant():
    C = MatrixFunction.from_array([[2.0 + 1j, 0.0], [0.5, -3.0]])
    lim, err = limit_at_infinity(C)
    assert np.max(np.abs(lim - np.array([[2.0 + 1j, 0.0], [0.5, -3.0]]))) < 1e-12


def test_limit_at_infinity_diagonal_factor():
    lim, err = limit_at_infinity(gk_diagonal().matrix)
    assert np.max(np.abs(lim - np.eye(2))) < 1e-4


def test_mul_propagates_known_limits():
    # the exact limit of a product agrees with the dyadic-tail estimate
    lam = gk_diagonal().matrix
    F = MatrixFunction.from_rows(
        [[lam.entry(0, 0), constant(0.5 - 1j)],
         [BoundaryFunction(lambda x: 2.0 + 1.0 / (x + 1j), tail_limit=2.0), lam.entry(1, 1)]])
    P = combine(F, combine(F, lam, "add"), "mul")
    known = np.array([[P.entry(i, j).known_limit() for j in range(2)] for i in range(2)])
    est, _err = limit_at_infinity(P)
    assert np.max(np.abs(known - est)) < 1e-4
    # an unknown factor limit leaves the product limit unknown
    G = MatrixFunction.from_rows([[BoundaryFunction(lam.entry(0, 0).evaluator), ZERO],
                                  [ZERO, ZERO]])
    assert combine(G, F, "mul").entry(0, 0).known_limit() is None
    assert combine(G, F, "mul").entry(1, 0).known_limit() == 0.0


def test_limit_at_infinity_no_limit():
    osc = MatrixFunction.from_rows(
        [[BoundaryFunction(lambda x: np.cos(x) + 0j, label="cos")]])
    with pytest.raises(NoLimit):
        limit_at_infinity(osc)


def test_invertible_flag_guards_grids():
    deg = MatrixFunction.from_rows([[constant(1.0), constant(1.0)],
                                    [constant(1.0), constant(1.0)]],
                                   invertible=True)
    with pytest.raises(NearSingular):
        deg.eval_grid(PROBE_GRID.points()[:5])
    ok = gk_diagonal().matrix
    ok.eval_grid(PROBE_GRID.points()[:5])


def test_decay_check():
    ok = BoundaryFunction(lambda x: 1.0 / (x * x + 1.0), decay_order=2.0)
    assert ok.check_decay()
    optimistic = BoundaryFunction(lambda x: 1.0 / (np.abs(x) + 1.0), decay_order=2.0)
    assert not optimistic.check_decay()
    zero = BoundaryFunction(lambda x: np.zeros_like(x, dtype=complex), decay_order=3.0)
    assert zero.check_decay()


def test_grid_spec_shape():
    g = GridSpec(num_points=101, delta=1e-3)
    xs = g.points()
    assert xs.size == 101
    assert np.all(np.diff(xs) > 0)
    assert abs(xs[0] + xs[-1]) < 1e-9
    with pytest.raises(ValueError):
        GridSpec(num_points=2).points()


# -- property tests ----------------------------------------------------------

coeff = st.complex_numbers(min_magnitude=0.0, max_magnitude=3.0,
                           allow_nan=False, allow_infinity=False)


def rational(c0, c1, c2):
    def ev(x):
        x = np.asarray(x, dtype=float)
        return c0 + c1 / (x - 2j) + c2 * x / (x * x + 4.0)
    return BoundaryFunction(ev, decay_order=0.0, tail_limit=c0)


@st.composite
def matrices(draw, n=2):
    rows = [[rational(draw(coeff), draw(coeff), draw(coeff)) for _ in range(n)]
            for _ in range(n)]
    return MatrixFunction.from_rows(rows)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(matrices(), matrices())
def test_add_then_sub_recovers(F, G):
    xs = PROBE_GRID.points()[::40]
    back = combine(combine(F, G, "add"), G, "sub")
    assert np.max(np.abs(back.eval_grid(xs) - F.eval_grid(xs))) < 1e-12


@settings(max_examples=25, deadline=None, derandomize=True)
@given(matrices())
def test_inverse_consistency(F):
    x = 0.7
    try:
        inv = invert_at(F, x)
    except NearSingular:
        return
    assert np.max(np.abs(inv @ F(x) - np.eye(2))) < 1e-10
