"""Step-by-step construction of order-N approximate factorizations.

Each step solves the additive boundary problem
``Ntilde_minus * Lambda_minus + Lambda_plus * Ntilde_plus = M`` by splitting
every entry of ``M`` into half-plane parts, checking the moment and cross
conditions that make the diagonal-factor division bounded, choosing the
constant matrix, and assembling the corrected outer factors.  A failed check
stops the iteration and is recorded as data, not raised.

Constants are reported in the gauge of the zero-at-infinity split (the split
whose parts both vanish as ``x -> oo`` for a decaying right-hand side): the
row-pinned constant is the upper part at ``i``, the column-pinned constant is
minus the lower part at ``-i``, and the cross-block residual is their sum,
which equals the weighted integral of the entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NotSolvable, OrderExceeded, PolicyConflict
from .funcspace import (BoundaryFunction, GridSpec, MatrixFunction, PROBE_GRID,
                        combine, limit_at_infinity, sup_norm)
from .cauchy import (_MEMO_MIN_POINTS, DEFAULT_QUAD, QuadratureSpec,
                     boundary_values, decaying_split_anchors, moment, omega)
from .indices import PartialIndices, free_entries, lambda_entry_values

SOLVABILITY_TOL_DEFAULT = 1e-6


@dataclass(frozen=True)
class BaseFactorization:
    """Known factorization of the unperturbed matrix: G0 = g_minus * Lambda * g_plus."""

    g_minus: MatrixFunction
    g_plus: MatrixFunction
    indices: PartialIndices
    g_minus_inv: MatrixFunction
    g_plus_inv: MatrixFunction

    @property
    def dim(self) -> int:
        return self.indices.n

    @property
    def trivial_outer(self) -> bool:
        return self.g_minus.label == "I" and self.g_plus.label == "I"

    @staticmethod
    def with_identity_outer(indices: PartialIndices) -> "BaseFactorization":
        n = indices.n
        ident = MatrixFunction.identity(n)
        return BaseFactorization(g_minus=ident, g_plus=ident, indices=indices,
                                 g_minus_inv=ident, g_plus_inv=ident)

    def product_grid(self, xs) -> np.ndarray:
        """G0 evaluated on an array of points."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        lam = lambda_entry_values(self.indices, "full", xs)
        gm = self.g_minus.eval_grid(xs)
        gp = self.g_plus.eval_grid(xs)
        return np.einsum("kij,kj,kjl->kil", gm, lam, gp)

    def validate(self, grid: GridSpec = PROBE_GRID, tol: float = 1e-10) -> float:
        """Max residual of g * g_inv = I over the grid for both factors."""
        xs = grid.points()
        eye = np.eye(self.dim)
        r1 = np.max(np.abs(np.einsum("kij,kjl->kil", self.g_minus.eval_grid(xs),
                                     self.g_minus_inv.eval_grid(xs)) - eye))
        r2 = np.max(np.abs(np.einsum("kij,kjl->kil", self.g_plus.eval_grid(xs),
                                     self.g_plus_inv.eval_grid(xs)) - eye))
        worst = float(max(r1, r2))
        if worst > tol:
            raise ValueError(f"base factor inverses off by {worst:.3e}")
        return worst


@dataclass(frozen=True)
class ConstantPolicy:
    """How the free constants are chosen at each step.

    ``zero`` sets them to 0, ``match_infinity`` (2x2 only) tunes the single
    free slot so the diagonal of the squared constant matrix vanishes, and
    ``explicit`` takes values from a map keyed by zero-based (row, col)
    restricted to the free block.
    """

    mode: str = "zero"
    explicit_values: Optional[dict] = None


ZERO_POLICY = ConstantPolicy("zero")
MATCH_INFINITY_POLICY = ConstantPolicy("match_infinity")


@dataclass(frozen=True)
class ConditionResidual:
    kind: str  # cond2_moment | cond4_moment | cond5_cross
    row: int
    col: int
    order: int
    value: complex


@dataclass(frozen=True)
class SolvabilityReport:
    residuals: tuple
    pinned_constants: dict  # zero-based (row, col) -> complex
    passed: bool
    tolerance: float
    scale: float
    # anchor data reused by solve_step; gamma is the upper split part at i
    gamma: np.ndarray = field(repr=False, default=None)
    rho: np.ndarray = field(repr=False, default=None)
    rhs_limits: np.ndarray = field(repr=False, default=None)

    def worst(self) -> float:
        if not self.residuals:
            return 0.0
        return max(abs(r.value) for r in self.residuals)


def reduce_rhs(base: BaseFactorization, N: MatrixFunction) -> MatrixFunction:
    """M = g_minus^-1 * N * g_plus^-1, the right-hand side of the step problem."""
    if N.dim != base.dim:
        raise ValueError("dimension mismatch between base and perturbation")
    if base.trivial_outer:
        return N
    return combine(combine(base.g_minus_inv, N, "mul"), base.g_plus_inv, "mul")


def check_solvability(M: MatrixFunction, indices: PartialIndices,
                      quad: QuadratureSpec = DEFAULT_QUAD,
                      tol: float = SOLVABILITY_TOL_DEFAULT) -> SolvabilityReport:
    """Evaluate the full battery of step conditions for the right-hand side M.

    Pinned constants: rows 1..p take the upper split part at i, columns
    q+1..n take minus the lower split part at -i, and entries in both blocks
    take the midpoint while their consistency mismatch (the weighted integral
    of the entry) is reported as a cross residual.  Indices with |kappa| > 1
    additionally require vanishing moments at the matching pole.
    """
    n, p, q = indices.n, indices.p, indices.q
    if M.dim != n:
        raise ValueError("dimension mismatch between M and indices")
    gamma = np.zeros((n, n), dtype=complex)   # upper part at i
    minus_anchor = np.zeros((n, n), dtype=complex)  # lower part at -i
    rho = np.zeros((n, n), dtype=complex)
    for l in range(n):
        for j in range(n):
            gam, man = decaying_split_anchors(M.entry(l, j), quad)
            gamma[l, j] = gam
            minus_anchor[l, j] = man
            rho[l, j] = gam + man

    pinned: dict = {}
    residuals: list = []
    for l in range(n):
        for j in range(n):
            row_pin = l < p
            col_pin = j >= q
            if row_pin and col_pin:
                pinned[(l, j)] = 0.5 * (gamma[l, j] - minus_anchor[l, j])
                residuals.append(ConditionResidual("cond5_cross", l, j, 0,
                                                   complex(rho[l, j])))
            elif row_pin:
                pinned[(l, j)] = complex(gamma[l, j])
            elif col_pin:
                pinned[(l, j)] = complex(-minus_anchor[l, j])

    for j in range(q, n):
        kj = indices.kappa[j]
        for r in range(1, -kj):
            for l in range(n):
                residuals.append(ConditionResidual(
                    "cond2_moment", l, j, r, complex(moment(M.entry(l, j), -1j, r, quad))))
    for l in range(p):
        kl = indices.kappa[l]
        for r in range(1, kl):
            for j in range(n):
                residuals.append(ConditionResidual(
                    "cond4_moment", l, j, r, complex(moment(M.entry(l, j), 1j, r, quad))))

    scale = max(1.0, sup_norm(M, PROBE_GRID))
    passed = all(abs(r.value) <= tol * scale for r in residuals)
    return SolvabilityReport(residuals=tuple(residuals), pinned_constants=pinned,
                             passed=passed, tolerance=tol, scale=scale,
                             gamma=gamma, rho=rho, rhs_limits=limit_at_infinity(M))


def _resolve_constants(report: SolvabilityReport, indices: PartialIndices,
                       policy: ConstantPolicy) -> np.ndarray:
    n = indices.n
    C = np.zeros((n, n), dtype=complex)
    for (l, j), v in report.pinned_constants.items():
        C[l, j] = v
    free = free_entries(indices)
    if policy.mode == "zero":
        pass
    elif policy.mode == "match_infinity":
        if n != 2:
            raise PolicyConflict("match_infinity tuning is defined for 2x2 only")
        if (1, 0) not in free:
            raise PolicyConflict("match_infinity needs the (2,1) slot to be free")
        if abs(C[0, 1]) > 1e-14 * max(1.0, report.scale):
            C[1, 0] = -C[0, 0] ** 2 / C[0, 1]
    elif policy.mode == "explicit":
        vals = policy.explicit_values or {}
        extra = set(vals) - free
        if extra:
            raise PolicyConflict(f"explicit values target pinned entries {sorted(extra)}")
        for (l, j), v in vals.items():
            C[l, j] = complex(v)
    else:
        raise PolicyConflict(f"unknown policy mode {policy.mode!r}")
    return C


@dataclass(frozen=True)
class FactorizationStep:
    """One solved correction step: the pair N_r -/+ with its constants."""

    order: int
    n_minus: MatrixFunction
    n_plus: MatrixFunction
    constants: np.ndarray
    report: SolvabilityReport
    rhs: MatrixFunction = field(repr=False, default=None)
    n_minus_tilde: MatrixFunction = field(repr=False, default=None)
    n_plus_tilde: MatrixFunction = field(repr=False, default=None)
    _diff: np.ndarray = field(repr=False, default=None)  # report.gamma - constants
    _quad: QuadratureSpec = field(repr=False, default=DEFAULT_QUAD)
    _indices: PartialIndices = field(repr=False, default=None)
    _moments: dict = field(repr=False, default_factory=dict)

    def boundary_residual(self, xs) -> float:
        """Max residual of the step boundary identity on the given points."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        lam_m = lambda_entry_values(self._indices, "minus", xs)
        lam_p = lambda_entry_values(self._indices, "plus", xs)
        nm = self.n_minus_tilde.eval_grid(xs)
        npl = self.n_plus_tilde.eval_grid(xs)
        lhs = nm * lam_m[:, None, :] + lam_p[:, :, None] * npl
        rhs = self.rhs.eval_grid(xs)
        return float(np.max(np.abs(lhs - rhs)))

    def _tilde_at(self, z: complex, side: str) -> np.ndarray:
        z = complex(z)
        n = self._indices.n
        kappa = self._indices.kappa
        sign = 1 if side == "plus" else -1
        out = np.empty((n, n), dtype=complex)
        series_radius = 0.1
        on_axis = abs(z.imag) < self._quad.min_imag_distance
        if on_axis:
            part = boundary_values(self.rhs, side, z.real, self._quad)
        for l in range(n):
            for j in range(n):
                a = max(kappa[l], 0) if sign > 0 else -min(kappa[j], 0)
                if a > 0 and abs(z - sign * 1j) < series_radius:
                    out[l, j] = self._series_value(l, j, z, side, a)
                    continue
                if on_axis:
                    br = part[l, j]
                else:
                    br = omega(self.rhs.entry(l, j), side, z, self._quad)
                br = br + sign * self._diff[l, j]
                out[l, j] = br * ((z + sign * 1j) / (z - sign * 1j)) ** a
        return out

    def _series_value(self, l: int, j: int, z: complex, side: str, a: int) -> complex:
        m_lj = self.rhs.entry(l, j)
        terms = a + 12
        key = (l, j, side, terms)
        if key not in self._moments:
            if side == "minus":
                # b0 is the lower split part at -i plus the chosen constant
                b = [complex(self.constants[l, j]
                             + (self.report.rho[l, j] - self.report.gamma[l, j]))]
                for k in range(1, terms + 1):
                    b.append(-moment(m_lj, -1j, k, self._quad) / (2j * np.pi))
            else:
                b = [complex(self.report.gamma[l, j] - self.constants[l, j])]
                for k in range(1, terms + 1):
                    b.append(moment(m_lj, 1j, k, self._quad) / (2j * np.pi))
            self._moments[key] = np.array(b, dtype=complex)
        b = self._moments[key]
        if side == "minus":
            u = z + 1j
            pref = (z - 1j) ** a
        else:
            u = z - 1j
            pref = (z + 1j) ** a
        powers = u ** (np.arange(b.size) - a)
        return complex(pref * np.sum(b * powers))

    def minus_tilde_at(self, z: complex) -> np.ndarray:
        """Reduced minus correction at a point of the closed lower half-plane."""
        return self._tilde_at(z, "minus")

    def plus_tilde_at(self, z: complex) -> np.ndarray:
        """Reduced plus correction at a point of the closed upper half-plane."""
        return self._tilde_at(z, "plus")


def solve_step(M: MatrixFunction, indices: PartialIndices,
               policy: ConstantPolicy = ZERO_POLICY,
               quad: QuadratureSpec = DEFAULT_QUAD,
               report: SolvabilityReport | None = None,
               order: int = 1,
               base: BaseFactorization | None = None) -> FactorizationStep:
    """Solve one correction step for a right-hand side that passed the checks.

    The reduced factors are realised entrywise: brackets (half-plane part plus
    constant) multiplied by the inverse diagonal pieces, with the pinned
    constants taken from the report and the free ones from the policy.
    Raises :class:`NotSolvable` when the report failed.
    """
    if report is None:
        report = check_solvability(M, indices, quad)
    if not report.passed:
        raise NotSolvable(
            f"step {order}: worst residual {report.worst():.6g} exceeds "
            f"{report.tolerance:.1e} * {report.scale:.3g}")
    C = _resolve_constants(report, indices, policy)
    n = indices.n
    kappa = indices.kappa

    diff = report.gamma - C

    def split(side, xs, l, j):
        # on a grid every entry's brackets index into one memoised split of
        # M; below the memo threshold nothing is shared between the entries,
        # so only the requested one is split
        if xs.size < _MEMO_MIN_POINTS:
            return boundary_values(M.entry(l, j), side, xs, quad)
        return boundary_values(M, side, xs, quad)[..., l, j]

    minus_rows = []
    plus_rows = []
    for l in range(n):
        mrow = []
        prow = []
        for j in range(n):
            m_lj = M.entry(l, j)

            def minus_entry(x, l=l, j=j, e=-min(kappa[j], 0)):
                xs = np.asarray(x, dtype=float)
                br = split("minus", xs, l, j) - diff[l, j]
                if e:
                    br = br * ((xs - 1j) / (xs + 1j)) ** e
                return br

            def plus_entry(x, l=l, j=j, e=max(kappa[l], 0)):
                xs = np.asarray(x, dtype=float)
                br = split("plus", xs, l, j) + diff[l, j]
                if e:
                    br = br * ((xs + 1j) / (xs - 1j)) ** e
                return br

            mrow.append(BoundaryFunction(minus_entry, decay_order=0.0,
                                         osc_scale=m_lj.osc_scale,
                                         label=f"Ntil-[{l}{j}]",
                                         tail_limit=complex(report.rhs_limits[l, j] + C[l, j])))
            prow.append(BoundaryFunction(plus_entry, decay_order=0.0,
                                         osc_scale=m_lj.osc_scale,
                                         label=f"Ntil+[{l}{j}]",
                                         tail_limit=complex(-C[l, j])))
        minus_rows.append(mrow)
        plus_rows.append(prow)

    tilde_minus = MatrixFunction.from_rows(minus_rows, label=f"Ntil-[{order}]")
    tilde_plus = MatrixFunction.from_rows(plus_rows, label=f"Ntil+[{order}]")
    if base is not None and not base.trivial_outer:
        n_minus = combine(base.g_minus, tilde_minus, "mul")
        n_plus = combine(tilde_plus, base.g_plus, "mul")
    else:
        n_minus, n_plus = tilde_minus, tilde_plus
    return FactorizationStep(order=order, n_minus=n_minus, n_plus=n_plus,
                             constants=C, report=report, rhs=M,
                             n_minus_tilde=tilde_minus, n_plus_tilde=tilde_plus,
                             _diff=diff, _quad=quad,
                             _indices=indices)


def next_rhs(base: BaseFactorization, steps: list) -> MatrixFunction:
    """Right-hand side for the next step: the convolution sum of the
    corrections found so far, reduced by the base factors and negated."""
    if not steps:
        raise ValueError("need at least one completed step")
    r = len(steps) + 1
    acc = None
    for s in range(1, r):
        term = combine(steps[s - 1].n_minus, steps[r - s - 1].n_plus, "mul")
        acc = term if acc is None else combine(acc, term, "add")
    neg_rows = [[acc.entries[i][j] * (-1.0) for j in range(acc.dim)] for i in range(acc.dim)]
    neg = MatrixFunction.from_rows(neg_rows, label=f"-(sum N-N+)[{r}]")
    return reduce_rhs(base, neg)


@dataclass(frozen=True)
class AsymptoticFactorization:
    """Base factors plus the ordered list of correction steps that passed."""

    base: BaseFactorization
    steps: tuple
    achieved_order: int
    failure: SolvabilityReport | None = None

    def delta_function(self, G_eps: MatrixFunction, m: int) -> MatrixFunction:
        """The remainder G_eps - assembled(m) as a matrix function."""
        n = self.base.dim
        fact = self

        def entry_fn(i, j):
            def ev(x, i=i, j=j):
                xs = np.atleast_1d(np.asarray(x, dtype=float))
                prod = assemble(fact, m, xs)[3]
                return G_eps.eval_grid(xs)[:, i, j] - prod[:, i, j]
            return ev

        osc = max(G_eps.osc_scale,
                  max((s.n_minus.osc_scale + s.n_plus.osc_scale for s in self.steps),
                      default=0.0))
        rows = [[BoundaryFunction(entry_fn(i, j), decay_order=0.0, osc_scale=osc,
                                  label=f"dK[{i}{j}]")
                 for j in range(n)] for i in range(n)]
        return MatrixFunction.from_rows(rows, label="deltaK")


def factorize(base: BaseFactorization, N_eps: MatrixFunction, order: int,
              policy: ConstantPolicy = ZERO_POLICY,
              quad: QuadratureSpec = DEFAULT_QUAD,
              tol: float = SOLVABILITY_TOL_DEFAULT) -> AsymptoticFactorization:
    """Run the correction loop up to the requested order.

    Stops early at the first failed solvability check; the failing report is
    recorded on the result and no exception is raised.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    steps: list = []
    failure = None
    M = reduce_rhs(base, N_eps)
    for r in range(1, order + 1):
        if r == 1:
            step_quad = quad
        else:
            # later right-hand sides are quadrature-valued, so far-field
            # anchor effort is reduced to the solvability tolerance scale
            from dataclasses import replace
            step_quad = replace(quad, deep_scale=min(quad.deep_scale, 4e6),
                                phase_per_panel=max(quad.phase_per_panel, 24.0))
        report = check_solvability(M, base.indices, step_quad, tol)
        if not report.passed:
            failure = report
            break
        steps.append(solve_step(M, base.indices, policy, step_quad, report=report,
                                order=r, base=base))
        if r < order:
            M = next_rhs(base, steps)
    return AsymptoticFactorization(base=base, steps=tuple(steps),
                                   achieved_order=len(steps), failure=failure)


def assemble(fact: AsymptoticFactorization, m: int, x):
    """Evaluate the order-m factors and their product.

    Returns ``(minus_factor, lam, plus_factor, product)``.  For scalar ``x``
    each is an (n, n) array; for array input each gains a leading axis.
    """
    if m < 1 or m > fact.achieved_order:
        raise OrderExceeded(f"m={m} outside 1..{fact.achieved_order}")
    scalar = np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    idx = fact.base.indices
    lam = lambda_entry_values(idx, "full", xs)
    lam_p = lambda_entry_values(idx, "plus", xs)
    lam_m = lambda_entry_values(idx, "minus", xs)
    minus = fact.base.g_minus.eval_grid(xs).copy()
    plus = fact.base.g_plus.eval_grid(xs).copy()
    for step in fact.steps[:m]:
        nm = step.n_minus.eval_grid(xs)
        npl = step.n_plus.eval_grid(xs)
        minus += nm / lam_p[:, None, :]      # columns scaled by (Lambda+)^-1
        plus += npl / lam_m[:, :, None]      # rows scaled by (Lambda-)^-1
    lam_mat = np.zeros((xs.size, idx.n, idx.n), dtype=complex)
    for j in range(idx.n):
        lam_mat[:, j, j] = lam[:, j]
    product = np.einsum("kij,kj,kjl->kil", minus, lam, plus)
    if scalar:
        return minus[0], lam_mat[0], plus[0], product[0]
    return minus, lam_mat, plus, product


def remainder(G_eps: MatrixFunction, fact: AsymptoticFactorization, m: int,
              grid: GridSpec = PROBE_GRID):
    """Sample the remainder G_eps - assembled(m) on the grid.

    Returns ``(samples, sup)`` with samples of shape (num_points, n, n).
    """
    if m > fact.achieved_order:
        raise OrderExceeded(f"m={m} outside 1..{fact.achieved_order}")
    xs = grid.points()
    prod = assemble(fact, m, xs)[3]
    samples = G_eps.eval_grid(xs) - prod
    return samples, float(np.max(np.abs(samples)))


def remainder_at_infinity(fact: AsymptoticFactorization) -> np.ndarray:
    """Limit of the first-order remainder ``-N1_minus * N1_plus`` at infinity."""
    if fact.achieved_order < 1:
        raise OrderExceeded("no completed steps")
    step = fact.steps[0]
    return -limit_at_infinity(combine(step.n_minus, step.n_plus, "mul"))
