"""Regularised Cauchy-type integrals, Plemelj boundary values and moments.

Two quadrature lanes share one interface.  Non-oscillatory integrands use
composite Gauss-Legendre panels on the tan-mapped line, which is spectrally
accurate for rational decay.  Oscillatory integrands (``osc_scale > 0``) use
Gauss panels placed directly in ``tau`` with a bounded phase span per panel,
a taper window ``W`` beyond a resolved radius ``r1``, and a rational tail
model fitted through oscillation-averaging windows; the model tail is
integrated in closed form.  The whole correction folds into a single
effective weight vector, so every integral is a plain dot product against
tabulated nodes.  Only the window nodes ``r1 < |tau| < r2 = 2 r1`` enter the
tail terms.

Deep tables (the slow ``1/tau`` tail integral of
:func:`decaying_split_anchors`) carry these plain weights only.  Their taper
and averaging windows are C-infinity (the windowed-Green-function truncation
of Bruno, Lyon, Perez-Arancibia and Turc), so the truncation error falls
super-algebraically in the number of wavelengths across the window, and the
model has the four terms ``(r1/|tau|)^m``, m = 2..5.  Their radius is about
150 wavelengths (see :class:`QuadratureSpec`), so a deep table does not grow
with ``osc`` until the ``deep_window_min`` floor is reached.  The other
oscillation tables keep a ``cos^2`` taper with ``sin^2`` averaging windows
and the two-term ``c2/tau^2 + c3/|tau|^3`` model, and also carry the kernel
path's tail fit and its extension nodes.  A table above ``_MAX_TABLE_NODES``
nodes raises :class:`~whfactor.errors.QuadratureNotConverged` before any node
array exists.

Only an integrand's own values on a table are memoised: weighted integrals,
moments and split anchors apply their weights to those values.  The memo keys
them on the table object, whose arrays are read-only, and keys the grid splits
of :func:`boundary_values` on the target values themselves.

Principal values never appear explicitly: the kernel ``1/((tau-i)(tau-z))`` is
regularised by subtracting ``f(x0) * (x0+i)/(tau+i)``, whose weighted integral
is known in closed form for both half-planes and for the on-axis limit.

The Cauchy kernel ``w/((tau-i)(tau-z))`` does not depend on the integrand, so
every entry on a node table is summed against it together, with the
subtraction column ``1/(tau+i)``.  :func:`boundary_values` accepts a whole
:class:`~whfactor.funcspace.MatrixFunction` and splits all its entries this
way.  Off the axis (one point per :func:`omega` call) the kernel is one dense
row.  On the axis the sum runs through a target-side Chebyshev tree: the
sorted targets are split into clusters of at most 32, the field of the nodes
beyond three half-widths of a cluster is interpolated at 20 Chebyshev points
(error about (3 + sqrt 8)^-20 ~ 5e-16 of their contribution), and only the
near nodes are summed directly, so no (targets x nodes) kernel is formed and
no temporary exceeds 2^20 entries.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import QuadratureNotConverged, TooCloseToAxis
from .funcspace import BoundaryFunction, MatrixFunction, limit_at_infinity

_GAUSS_CACHE: dict = {}
_TABLE_CACHE: dict = {}
_EVAL_CACHE: dict = {}
# a table above this many nodes raises QuadratureNotConverged before any node
# array exists; 3.3x the refined osc-40 table (1 282 112 nodes)
_MAX_TABLE_NODES = 1 << 22
# a deep window spans this many wavelengths of the fastest oscillation: on the
# closed forms of the tests 75 leak up to 1.3e-12, 100 leave 3e-15, and 150
# keeps a margin
_DEEP_WAVELENGTHS = 150.0


def _gauss(n: int):
    if n not in _GAUSS_CACHE:
        _GAUSS_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GAUSS_CACHE[n]


def clear_caches() -> None:
    """Drop memoised node tables and function evaluations."""
    _TABLE_CACHE.clear()
    _EVAL_CACHE.clear()


def _memo(key, pin, compute):
    # ``pin`` holds the objects whose ids are in ``key``, so the ids stay valid
    hit = _EVAL_CACHE.get(key)
    if hit is None:
        hit = (pin, compute())
        _EVAL_CACHE[key] = hit
    return hit[1]


def _memo_vals(f, t: "_Table") -> np.ndarray:
    # table arrays are read-only, so the table object identifies its nodes
    return _memo(("val", id(f), id(t)), (f, t), lambda: np.asarray(f(t.tau), dtype=complex))


@dataclass(frozen=True)
class QuadratureSpec:
    """Knobs for the line quadrature.

    ``nodes_per_panel * num_panels`` is the base node count of the
    non-oscillatory table.  ``min_imag_distance`` separates off-axis
    evaluation from boundary-value mode.  The remaining fields control the
    oscillation-aware tables: panels span at most ``phase_per_panel`` radians
    of the fastest oscillation, and panel widths grow geometrically with
    ratio ``geom_ratio`` where oscillation permits.  The resolved window of
    the kernel tables never shrinks below ``window_min``.  The window of the
    deep tables (slow ``1/tau^2`` integrands) spans about 150 wavelengths,
    capped at ``sqrt(deep_scale / osc)``, which bounds the effort of a coarse
    spec, and then floored at ``deep_window_min``.  ``window_max`` caps both
    kinds.
    """

    nodes_per_panel: int = 32
    num_panels: int = 64
    abs_tol: float = 1e-9
    min_imag_distance: float = 1e-6
    phase_per_panel: float = 16.0
    geom_ratio: float = 1.35
    window_min: float = 2e3
    deep_window_min: float = 3e3
    deep_scale: float = 4e9
    window_max: float = 2e7

    @property
    def base_node_count(self) -> int:
        return self.nodes_per_panel * self.num_panels

    def refined(self) -> "QuadratureSpec":
        """The verification spec: twice the panels, half the phase per panel."""
        return replace(self, num_panels=2 * self.num_panels,
                       phase_per_panel=self.phase_per_panel / 2.0)


DEFAULT_QUAD = QuadratureSpec()


@dataclass(frozen=True)
class _Table:
    tau: np.ndarray
    w: np.ndarray       # effective weights for plain integrals (taper + tail fit)
    kind: str
    # kernel-path fields; None on deep tables, which serve plain integrals only
    raw_w: np.ndarray = None        # plain panel weights
    fit: np.ndarray = None          # (6, N): tail-coefficient extraction rows
    ext_tau: np.ndarray = None      # model-only nodes beyond the resolved range, ascending
    ext_w: np.ndarray = None
    ext_basis: np.ndarray = None    # (N_ext, 6): model basis on extension nodes

    def __post_init__(self):
        for a in (self.tau, self.w, self.raw_w, self.fit, self.ext_tau, self.ext_w,
                  self.ext_basis):
            if a is not None:
                a.flags.writeable = False


def _panels_to_nodes(edges: np.ndarray, nodes: int):
    xi, wi = _gauss(nodes)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    pts = (mid[:, None] + half[:, None] * xi[None, :]).ravel()
    wts = (half[:, None] * wi[None, :]).ravel()
    return pts, wts


def _check_budget(nodes: int, what: str) -> None:
    if nodes > _MAX_TABLE_NODES:
        raise QuadratureNotConverged(
            f"{what} needs {nodes} nodes, over the budget of {_MAX_TABLE_NODES}")


def _tan_table(spec: QuadratureSpec) -> _Table:
    _check_budget(spec.base_node_count, "the tan-mapped table")
    edges = np.linspace(-np.pi / 2, np.pi / 2, spec.num_panels + 1)
    th, wth = _panels_to_nodes(edges, spec.nodes_per_panel)
    tau = np.tan(th)
    w = wth * (1.0 + tau * tau)
    return _Table(tau=tau, w=w, kind="tan", raw_w=w)


def _osc_window(spec: QuadratureSpec, osc: float, xmax: float, deep: bool) -> float:
    if deep:
        # a fixed number of wavelengths suffices for the C-infinity taper;
        # deep_scale caps the effort of a coarse spec
        r1 = min(np.sqrt(spec.deep_scale / osc), _DEEP_WAVELENGTHS * 2.0 * np.pi / osc)
        r1 = max(r1, spec.deep_window_min, 1.25 * xmax)
    else:
        r1 = (8e9 / osc) ** (1.0 / 3.0)
        # evaluation points must stay well inside the resolved window; the
        # tail model keeps the exact kernel, so a small margin suffices
        r1 = max(r1, spec.window_min, 30.0 * 2.0 * np.pi / osc, 1.25 * xmax)
    return min(r1, spec.window_max)


def _deep_window_weights(ws: np.ndarray, a: np.ndarray, r1: float) -> np.ndarray:
    """Plain-integral weights of a deep table on one window r1 < |tau| < 2 r1.

    The integrand is tapered by the C-infinity step W = 1 - S(u),
    u = |tau|/r1 - 1, whose truncation error falls super-algebraically in the
    number of wavelengths across the window.  The part S(u) beyond r1 is
    carried by a model in the span of (r1/|tau|)^m, m = 2..5, fitted through
    windows psi(u) times the span of (r1/|tau|)^k, k = 0..3, with
    psi = exp(-1/(u(1-u))); psi vanishes to every order at both ends, so the
    oscillating part of the integrand averages out of the fit.  The model
    tail beyond 2 r1 is closed exactly.
    """
    u = a / r1 - 1.0
    e0, e1 = np.exp(-1.0 / u), np.exp(-1.0 / (1.0 - u))
    S = e0 / (e0 + e1)
    W = e1 / (e0 + e1)
    psi = np.exp(-1.0 / (u * (1.0 - u)))
    # both spans in powers of x = 4v - 3 in [-1, 1], v = r1/|tau|, which keeps
    # the Gram matrix well conditioned: model v^2 x^j, windows psi x^k
    v = r1 / a
    xp = (4.0 * v - 3.0)[:, None] ** np.arange(4)
    model = (v * v)[:, None] * xp
    gram = (ws * psi * xp.T) @ model
    # integral of v^2 x^j over |tau| > 2 r1: r1 * int_0^(1/2) (4v - 3)^j dv
    j1 = np.arange(1, 5)  # j + 1
    beyond = r1 * ((-1.0) ** j1 - (-3.0) ** j1) / (4.0 * j1)
    alpha = np.linalg.solve(gram.T, (ws * S) @ model + beyond)
    return ws * W + ws * psi * (xp @ alpha)


def _osc_table(spec: QuadratureSpec, osc: float, xmax: float, deep: bool) -> _Table:
    r1 = _osc_window(spec, osc, xmax, deep)
    r2 = 2.0 * r1
    d = spec.phase_per_panel / osc
    k = max(int(np.ceil(r2 / d)), 4)
    # geometric edges resolve the rational structure near the origin
    tau0 = 0.25
    ng = int(np.ceil(np.log(r2 / tau0) / np.log(spec.geom_ratio)))
    _check_budget((2 * k + 2 * ng) * spec.nodes_per_panel, f"the oscillation table (osc {osc})")
    uniform = np.linspace(-r2, r2, 2 * k + 1)
    geo = tau0 * spec.geom_ratio ** np.arange(ng + 1)
    geo = geo[geo <= r2]
    edges = np.union1d(np.union1d(uniform, np.concatenate([-geo[::-1], [0.0], geo])),
                       np.array([-r2, -r1, r1, r2]))
    keep = np.concatenate([[True], np.diff(edges) > 1e-9 * np.maximum(np.abs(edges[1:]), 1.0)])
    edges = edges[keep]
    tau, w = _panels_to_nodes(edges, spec.nodes_per_panel)

    # every tail term lives on the windows r1 < |tau| < r2: no node lies
    # beyond r2, where the taper W has reached 0
    L = r2 - r1
    w_eff = w.copy()
    fit_rows = None if deep else np.zeros((6, tau.size))
    for si, (lo, hi) in enumerate((np.searchsorted(tau, (r1, r2)),
                                   np.searchsorted(tau, (-r2, -r1)))):
        sl = slice(lo, hi)
        ts, ws = tau[sl], w[sl]
        a = np.abs(ts)
        if deep:  # deep tables serve plain integrals only
            w_eff[sl] = _deep_window_weights(ws, a, r1)
            continue
        inv_a = 1.0 / a
        W = np.cos(0.5 * np.pi * (a - r1) / L) ** 2
        phi1 = np.sin(np.pi * (a - r1) / L) ** 2
        phi2 = phi1 * (r1 * inv_a)
        # plain-integral correction: integrand model {1/tau^2, 1/|tau|^3}
        b2 = inv_a * inv_a
        b3 = b2 * inv_a
        gram = np.array([[np.sum(ws * phi1), np.sum(ws * phi1 * inv_a)],
                         [np.sum(ws * phi2), np.sum(ws * phi2 * inv_a)]])
        s2 = np.sum(ws * (1.0 - W) * b2) + 1.0 / r2
        s3 = np.sum(ws * (1.0 - W) * b3) + 1.0 / (2.0 * r2 * r2)
        alpha = np.linalg.solve(gram.T, np.array([s2, s3]))
        w_eff[sl] = ws * W + ws * ts * ts * (alpha[0] * phi1 + alpha[1] * phi2)
        # kernel-path fit: function model {c0, c1*(r1/tau), c2*(r1/tau)^2} per
        # side, extracted through three oscillation-averaging windows; the r1
        # scaling keeps the Gram matrix well conditioned
        phis = (phi1, phi2, phi1 * (r1 * inv_a) ** 2)
        basis = (np.ones_like(ts), r1 / ts, (r1 / ts) ** 2)
        gram3 = np.array([[np.sum(ws * ph * bs) for bs in basis] for ph in phis])
        rows = np.stack([ws * ph for ph in phis])
        fit_rows[3 * si:3 * si + 3, sl] = np.linalg.solve(gram3, np.eye(3)) @ rows
    if deep:
        return _Table(tau=tau, w=w_eff, kind="osc")

    # model-only extension beyond r2, tan-mapped (the model is smooth there)
    th_edges = np.linspace(np.arctan(r2), np.pi / 2, 9)
    ext_list = []
    extw_list = []
    for side in (-1.0, +1.0):
        th, wth = _panels_to_nodes(side * th_edges if side > 0 else -th_edges[::-1], 16)
        et = np.tan(th)
        ew = wth * (1.0 + et * et)
        ext_list.append(et)
        extw_list.append(np.abs(ew))
    ext_tau = np.concatenate(ext_list)
    ext_w = np.concatenate(extw_list)
    pos = ext_tau > 0
    ext_basis = np.zeros((ext_tau.size, 6))
    ext_basis[pos, 0] = 1.0
    ext_basis[pos, 1] = r1 / ext_tau[pos]
    ext_basis[pos, 2] = (r1 / ext_tau[pos]) ** 2
    ext_basis[~pos, 3] = 1.0
    ext_basis[~pos, 4] = r1 / ext_tau[~pos]
    ext_basis[~pos, 5] = (r1 / ext_tau[~pos]) ** 2
    return _Table(tau=tau, w=w_eff, kind="osc", raw_w=w, fit=fit_rows,
                  ext_tau=ext_tau, ext_w=ext_w, ext_basis=ext_basis)


def _bucket_osc(osc: float) -> float:
    return float(f"{osc:.3g}")


def _bucket_xmax(xmax: float) -> float:
    return float(2.0 ** np.ceil(np.log2(max(xmax, 1024.0))))


def _table(spec: QuadratureSpec, osc: float = 0.0, xmax: float = 0.0,
           deep: bool = False) -> _Table:
    if osc <= 1e-12:
        key = (spec, "tan")
        if key not in _TABLE_CACHE:
            _TABLE_CACHE[key] = _tan_table(spec)
        return _TABLE_CACHE[key]
    key = (spec, "osc", _bucket_osc(osc), _bucket_xmax(xmax), deep)
    if key not in _TABLE_CACHE:
        _TABLE_CACHE[key] = _osc_table(spec, _bucket_osc(osc), _bucket_xmax(xmax), deep)
    return _TABLE_CACHE[key]


def _osc_of(f) -> float:
    return getattr(f, "osc_scale", 0.0)


def _dot(f, spec: QuadratureSpec, deep: bool, weigh, verify: bool = False) -> complex:
    # the memoised values of f on its table, times an optional weight
    # ``weigh(fv, tau)``, dotted with the table's plain-integral weights; the
    # weighted values are not memoised, so the memo holds f's own values only
    def on(s: QuadratureSpec) -> complex:
        t = _table(s, osc=_osc_of(f), deep=deep)
        fv = _memo_vals(f, t)
        return complex((fv if weigh is None else weigh(fv, t.tau)) @ t.w)

    val = on(spec)
    if verify:
        _check_refined(val, on(spec.refined()), spec, "the integral")
    return val


def integral(f, spec: QuadratureSpec = DEFAULT_QUAD, deep: bool = False,
             verify: bool = False) -> complex:
    """Integral of ``f`` over the real line.

    ``f`` must decay at least like ``1/tau^2`` (with an optional oscillatory
    component) for the tables to apply.  With ``verify=True`` the integral
    is repeated on the :meth:`QuadratureSpec.refined` tables and disagreement
    beyond ``10 * abs_tol`` raises :class:`QuadratureNotConverged`.
    """
    return _dot(f, spec, deep, None, verify)


def _check_refined(val: complex, val2: complex, spec: QuadratureSpec, what: str) -> None:
    if abs(val - val2) > 10.0 * spec.abs_tol:
        raise QuadratureNotConverged(
            f"panel doubling moved {what} by {abs(val - val2):.3e}")


def weighted_integral(f, spec: QuadratureSpec = DEFAULT_QUAD,
                      verify: bool = False) -> complex:
    """(1/pi) * integral of f(tau)/(tau^2+1) over the real line."""
    return _dot(f, spec, False, lambda fv, t: fv / (t * t + 1.0), verify) / np.pi


def moment(f, pole: complex, r: int, spec: QuadratureSpec = DEFAULT_QUAD,
           verify: bool = False) -> complex:
    """Integral of f(tau)/(tau - pole)^(r+1) for pole = +-i and r >= 1."""
    pole = complex(pole)
    if pole not in (1j, -1j):
        raise ValueError("pole must be +i or -i")
    if r < 1:
        raise ValueError("moment order r must be >= 1")
    return _dot(f, spec, False, lambda fv, t: fv / (t - pole) ** (r + 1), verify)


def _closed_subtraction_term(fx0: np.ndarray, x0: np.ndarray, zeta: np.ndarray,
                             sgn: int) -> np.ndarray:
    # integral of (x0+i)/((tau+i)(tau-i)(tau-zeta)) dtau, PV for sgn == 0
    if sgn > 0:
        return fx0 * (x0 + 1j) * (-np.pi) / (zeta + 1j)
    if sgn < 0:
        return fx0 * (x0 + 1j) * (-np.pi) / (zeta - 1j)
    return fx0 * (-np.pi) * x0 / (x0 - 1j)


_COINCIDENCE_EPS = 1e-8
_MEMO_MIN_POINTS = 8  # boundary_values memoises splits on at least this many points

# target-side Chebyshev tree for on-axis kernel sums: a cluster's far field is
# interpolated at _CHEB_N Chebyshev points; sources farther than _SEPARATION
# half-widths from its midpoint are far, which bounds the interpolation error
# by about (3 + sqrt 8)^-20 ~ 5e-16 of their contribution
_LEAF = 32
_CHEB_N = 20
_SEPARATION = 3.0
_BLOCK = 1 << 20  # entries per kernel block
_CHEB_X = np.cos(np.pi * (np.arange(_CHEB_N) + 0.5) / _CHEB_N)


def _cheb_basis(u: np.ndarray) -> np.ndarray:
    # T_0 .. T_{_CHEB_N - 1} at u in [-1, 1], along a new trailing axis
    t = np.empty(u.shape + (_CHEB_N,))
    t[..., 0] = 1.0
    t[..., 1] = u
    for n in range(2, _CHEB_N):
        t[..., n] = 2.0 * u * t[..., n - 1] - t[..., n - 2]
    return t


# values at _CHEB_X -> Chebyshev coefficients
_CHEB_FIT = np.linalg.inv(_cheb_basis(_CHEB_X))


def _coincident(tau: np.ndarray, x: np.ndarray):
    """(target, node) index pairs where ``x[row]`` sits on ``tau[col]``.

    Table nodes ascend, so only the two neighbours of each target can
    coincide with it.
    """
    k = np.searchsorted(tau, x)
    rows, cols = [], []
    for c, ok in ((k - 1, k > 0), (k, k < tau.size)):
        c = np.where(ok, c, 0)
        hit = ok & (np.abs(tau[c] - x) < _COINCIDENCE_EPS * (1.0 + np.abs(x)))
        rows.append(np.nonzero(hit)[0])
        cols.append(c[hit])
    return np.concatenate(rows), np.concatenate(cols)


def _block_sum(nodes: np.ndarray, cols: np.ndarray, pts: np.ndarray, lo: int, hi: int,
               drop=None) -> np.ndarray:
    # sum over sources lo <= j < hi of cols[j] / (nodes[j] - pts), in blocks
    # of at most _BLOCK kernel entries; ``drop`` = (rows, js) leaves out the
    # pairs (pts[row], nodes[j])
    acc = np.zeros((pts.size, cols.shape[1]))
    step = max(1, _BLOCK // max(pts.size, 1))
    for c0 in range(lo, hi, step):
        c1 = min(c0 + step, hi)
        den = nodes[None, c0:c1] - pts[:, None]
        if drop is not None:
            sel = (drop[1] >= c0) & (drop[1] < c1)
            den[drop[0][sel], drop[1][sel] - c0] = np.inf  # 1/inf drops the term
        acc += np.reciprocal(den, out=den) @ cols[c0:c1]
        del den  # before the next block is allocated
    return acc


def _axis_sums(nodes: np.ndarray, cols: np.ndarray, x: np.ndarray, rows: np.ndarray,
               near: np.ndarray) -> np.ndarray:
    """sum_j cols[j] / (nodes[j] - x[k]) for every target x[k], without the
    pairs (x[rows], nodes[near]); ``nodes`` ascend.  Returns (X, K).

    The sorted targets are split into a binary tree balanced by count, with
    at most _LEAF targets per leaf.  A cluster with midpoint m and
    half-width h owns the sources with |tau - m| <= 3h + d, where
    d = _COINCIDENCE_EPS * (1 + max|x|) keeps every coincident node in the
    leaf that sums it directly.  The sources its parent owns but it does not
    (at most two slices of ``nodes``) are far: their field is sampled at the
    cluster's Chebyshev points and added to the parent's polynomial
    re-interpolated there.  A leaf evaluates its polynomial at its targets
    and sums its own sources directly.  The tree is built one level at a
    time.
    """
    order = np.argsort(x, kind="stable")
    xs = x[order]
    pos = np.empty_like(order)
    pos[order] = np.arange(x.size)
    prow = pos[rows]
    by_row = np.argsort(prow, kind="stable")
    prow, pcol = prow[by_row], near[by_row]
    depth = (max(x.size - 1, 0) // _LEAF).bit_length()
    if depth == 0:  # a single leaf owns every source
        res = _block_sum(nodes, cols, xs, 0, nodes.size, (prow, pcol))
    else:
        plo, phi = np.zeros(1, dtype=int), np.full(1, nodes.size)
        for level in range(depth + 1):
            bounds = np.arange((1 << level) + 1) * x.size >> level
            a, b = bounds[:-1], bounds[1:]
            x_lo, x_hi = xs[a], xs[b - 1]
            m, h = 0.5 * (x_lo + x_hi), 0.5 * (x_hi - x_lo)
            reach = _SEPARATION * h + _COINCIDENCE_EPS * (
                1.0 + np.maximum(np.abs(x_lo), np.abs(x_hi)))
            up = np.arange(a.size) // 2
            # clamped to the parent's sources, which rounding could overstep
            lo = np.maximum(np.searchsorted(nodes, m - reach, side="left"), plo[up])
            hi = np.minimum(np.searchsorted(nodes, m + reach, side="right"), phi[up])
            pts = m[:, None] + h[:, None] * _CHEB_X
            if level == 0:
                vals = np.zeros((1, _CHEB_N, cols.shape[1]))
            else:
                u = np.divide(pts - pm[up, None], ph[up, None], out=np.zeros_like(pts),
                              where=ph[up, None] > 0.0)
                vals = _cheb_basis(u) @ coef[up]
            for i, (s0, s1, s2, s3) in enumerate(zip(plo[up].tolist(), lo.tolist(),
                                                     hi.tolist(), phi[up].tolist())):
                for j0, j1 in ((s0, s1), (s2, s3)):
                    if j1 > j0:
                        vals[i] += _block_sum(nodes, cols, pts[i], j0, j1)
            coef = _CHEB_FIT @ vals
            plo, phi, pm, ph = lo, hi, m, h
        leaf = np.repeat(np.arange(a.size), b - a)
        basis = _cheb_basis(np.divide(xs - m[leaf], h[leaf], out=np.zeros_like(xs),
                                      where=h[leaf] > 0.0))
        k0, k1 = np.searchsorted(prow, a).tolist(), np.searchsorted(prow, b).tolist()
        res = np.empty((x.size, cols.shape[1]))
        for i, (ai, bi, j0, j1) in enumerate(zip(a.tolist(), b.tolist(), lo.tolist(),
                                                 hi.tolist())):
            drop = (prow[k0[i]:k1[i]] - ai, pcol[k0[i]:k1[i]]) if k1[i] > k0[i] else None
            res[ai:bi] = basis[ai:bi] @ coef[i] + _block_sum(nodes, cols, xs[ai:bi], j0, j1,
                                                            drop)
    out = np.empty_like(res)
    out[order] = res
    return out


def _table_sums(t: _Table, fs: list, zeta: np.ndarray, fx0: np.ndarray,
                sgn: int) -> np.ndarray:
    # kernel sums of the entries ``fs`` that share table ``t``; see
    # _kernel_integral.  Returns (X, E) without the closed subtraction term.
    x0 = zeta.real
    fv = np.stack([_memo_vals(f, t) for f in fs], axis=1)
    nodes, w = t.tau, t.raw_w
    if t.kind == "osc":
        # the unresolved tail is replaced by its fitted model on extension
        # nodes, which lie beyond both ends of the table: splicing them in
        # keeps the nodes ascending
        k = np.searchsorted(t.ext_tau, 0.0)
        ext_fv = t.ext_basis @ (t.fit @ fv)
        nodes = np.concatenate([t.ext_tau[:k], nodes, t.ext_tau[k:]])
        w = np.concatenate([t.ext_w[:k], w, t.ext_w[k:]])
        fv = np.concatenate([ext_fv[:k], fv, ext_fv[k:]])
    wk = w / (nodes - 1j)
    # one column per entry plus the pole-subtraction column 1/(tau+i)
    cols = np.concatenate([fv, 1.0 / (nodes + 1j)[:, None]], axis=1)
    del fv, w  # only the nodes and the columns stay alive through the sums
    cols *= wk[:, None]
    ncol = cols.shape[1]
    if sgn != 0:
        # off-axis targets come one at a time (omega): one dense kernel row each
        acc = (1.0 / (nodes[None, :] - zeta[:, None])) @ cols
        return acc[:, :-1] - fx0 * (x0 + 1j)[:, None] * acc[:, -1:]
    rows, near = _coincident(nodes, x0)
    wk = wk[near]
    # real targets give a real kernel 1/(tau-x): sum the real and imaginary
    # parts together
    cols = np.concatenate([cols.real, cols.imag], axis=1)
    part = _axis_sums(nodes, cols, x0, rows, near)
    acc = part[:, :ncol] + 1j * part[:, ncol:]
    out = acc[:, :-1] - fx0 * (x0 + 1j)[:, None] * acc[:, -1:]
    if rows.size:
        # a target on a node: the kernel term there was dropped above and is
        # replaced by the centred difference quotient of the subtracted integrand
        xr = x0[rows]
        h = 1e-5 * (1.0 + np.abs(xr))
        sub = fx0[rows] * (xr + 1j)[:, None]
        for e, f in enumerate(fs):
            hplus = np.asarray(f(xr + h), dtype=complex) - sub[:, e] / (xr + h + 1j)
            hminus = np.asarray(f(xr - h), dtype=complex) - sub[:, e] / (xr - h + 1j)
            np.add.at(out[:, e], rows, (hplus - hminus) / (2.0 * h) * wk)
    return out


def _kernel_integral(fs: list, zeta: np.ndarray, fx0: np.ndarray, spec: QuadratureSpec,
                     sgn: int) -> np.ndarray:
    """integral of f(tau)/((tau-i)(tau-zeta)) dtau for each entry f of ``fs``
    and each point zeta; returns an (X, E) array.

    ``fx0`` (X, E) holds the entries at Re(zeta), and ``sgn`` is the sign of
    Im(zeta) (0 selects the on-axis principal value).  The subtraction
    ``f(x0)(x0+i)/(tau+i)`` removes the on-axis pole.  The kernel
    ``w/((tau-i)(tau-zeta))`` does not depend on f, so entries sharing a node
    table are summed together with the subtraction column: as one dense
    kernel row per point off the axis, and through the Chebyshev tree of
    :func:`_axis_sums` on the axis.  On the oscillation tables the unresolved
    tail of f is replaced by its fitted non-oscillatory model on dedicated
    extension nodes, so the exact kernel is kept for every evaluation point.
    """
    zeta = np.asarray(zeta, dtype=complex)
    x0 = zeta.real
    xmax = float(np.max(np.abs(x0))) if x0.size else 0.0
    groups: dict = {}
    for e, f in enumerate(fs):
        t = _table(spec, osc=_osc_of(f), xmax=xmax)
        groups.setdefault(id(t), (t, []))[1].append(e)
    out = np.empty((zeta.size, len(fs)), dtype=complex)
    for t, idx in groups.values():
        out[:, idx] = _table_sums(t, [fs[e] for e in idx], zeta, fx0[:, idx], sgn)
    return out + _closed_subtraction_term(fx0, x0[:, None], zeta[:, None], sgn)


def omega(f, side: str, z: complex, spec: QuadratureSpec = DEFAULT_QUAD,
          verify: bool = False) -> complex:
    """Regularised Cauchy-type integral of ``f`` at an off-axis point.

    ``omega(f, "plus", z)`` is analytic for Im z > 0 and vanishes at ``z = i``;
    ``omega(f, "minus", z)`` is analytic for Im z < 0.  Their boundary values
    (see :func:`boundary_values`) add up to ``f`` on the axis.  ``verify``
    works as in :func:`integral`.
    """
    z = complex(z)
    delta = spec.min_imag_distance
    if side == "plus":
        if z.imag < delta:
            raise TooCloseToAxis(f"plus side needs Im z >= {delta}, got {z.imag}")
        if z == 1j:
            return 0.0
        sgn = 1
        pref = (z - 1j) / (2j * np.pi)
    elif side == "minus":
        if z.imag > -delta:
            raise TooCloseToAxis(f"minus side needs Im z <= -{delta}, got {z.imag}")
        sgn = -1
        pref = -(z - 1j) / (2j * np.pi)
    else:
        raise ValueError("side must be 'plus' or 'minus'")
    zeta = np.array([z])
    fx0 = np.array([[f(z.real)]], dtype=complex)
    val = complex(pref * _kernel_integral([f], zeta, fx0, spec, sgn)[0, 0])
    if verify:
        _check_refined(val, omega(f, side, z, spec.refined()), spec, "omega")
    return val


def boundary_values(f, side: str, x, spec: QuadratureSpec = DEFAULT_QUAD):
    """Non-tangential boundary limit of :func:`omega` on the real axis.

    Computed as ``(f(x) +- Htilde f(x)) / 2`` with the weighted-kernel Hilbert
    transform evaluated through the pole-removing subtraction; the plus and
    minus values sum to ``f(x)`` by construction.  Accepts scalars or arrays.
    ``f`` is a :class:`BoundaryFunction`, or a :class:`MatrixFunction` whose
    entries are split together (one kernel per node table); its values then
    gain trailing (n, n) axes.
    """
    if side not in ("plus", "minus"):
        raise ValueError("side must be 'plus' or 'minus'")
    fs = [g for row in f.entries for g in row] if isinstance(f, MatrixFunction) else [f]
    xs = np.atleast_1d(np.asarray(x, dtype=float))

    def split():
        fx = np.stack([np.asarray(g(xs), dtype=complex) for g in fs], axis=1)
        core = _kernel_integral(fs, xs.astype(complex), fx, spec, 0)
        return fx, 0.5 * fx + (xs - 1j)[:, None] / (2j * np.pi) * core

    if xs.size >= _MEMO_MIN_POINTS:
        fx, plus = _memo(("bv", spec, id(f), xs.tobytes()), (f,), split)
    else:
        fx, plus = split()
    res = plus.copy() if side == "plus" else fx - plus  # never a view of the memo
    if isinstance(f, MatrixFunction):
        res = res.reshape(xs.size, f.dim, f.dim)
    else:
        res = res[:, 0]
    if np.ndim(x) == 0:
        return complex(res[0]) if res.ndim == 1 else res[0]
    return res


@dataclass(frozen=True)
class HalfPlaneFunction:
    """One half-plane part of a split boundary function.

    The plus part is analytic for Im z > 0 and vanishes at ``z = i``; the
    minus part is analytic for Im z < 0.  Within ``min_imag_distance`` of the
    axis the continuous boundary extension is returned.
    """

    side: str
    source: BoundaryFunction
    spec: QuadratureSpec = DEFAULT_QUAD

    def __call__(self, z: complex) -> complex:
        z = complex(z)
        delta = self.spec.min_imag_distance
        if abs(z.imag) < delta:
            return boundary_values(self.source, self.side, z.real, self.spec)
        if self.side == "plus" and z.imag < 0:
            raise ValueError("plus part is only defined for Im z >= 0")
        if self.side == "minus" and z.imag > 0:
            raise ValueError("minus part is only defined for Im z <= 0")
        return omega(self.source, self.side, z, self.spec)

    def boundary(self, x):
        return boundary_values(self.source, self.side, x, self.spec)


def plemelj_split(f, spec: QuadratureSpec = DEFAULT_QUAD):
    """Split ``f`` into (minus, plus) half-plane parts with plus(i) = 0."""
    return (HalfPlaneFunction("minus", f, spec), HalfPlaneFunction("plus", f, spec))


def decaying_split_anchors(f, spec: QuadratureSpec = DEFAULT_QUAD) -> tuple[complex, complex]:
    """Anchor values of the canonical additive split of ``f``.

    Returns ``(p, m)`` where ``p`` is the upper part evaluated at ``i`` and
    ``m`` is the lower part evaluated at ``-i``.  For decaying ``f`` the split
    is the unique one whose parts both vanish at infinity; a nonzero limit at
    infinity (see :func:`~whfactor.funcspace.limit_at_infinity`) is carried
    by the lower part.
    The sum ``p + m`` always equals :func:`weighted_integral` of ``f``; the
    difference requires one slow-tail integral, taken on the deep table.
    """
    linf = limit_at_infinity(f)
    rho = weighted_integral(f, spec)
    s = _dot(f, spec, True, lambda fv, t: fv * t / (t * t + 1.0)) / (2j * np.pi)
    return s + 0.5 * (rho - linf), 0.5 * (rho + linf) - s
