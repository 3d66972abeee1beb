"""Regularised Cauchy-type integrals, Plemelj boundary values and moments.

Two quadrature lanes share one interface.  Non-oscillatory integrands use
composite Gauss-Legendre panels on the tan-mapped line, which is spectrally
accurate for rational decay.  Oscillatory integrands (``osc_scale > 0``) use
Gauss panels placed directly in ``tau`` with a bounded phase span per panel,
a smooth taper window ``W`` beyond a resolved radius, and a two-term
``c2/tau^2 + c3/|tau|^3`` tail model fitted through oscillation-averaging
windows; the model tail is integrated in closed form.  The whole correction
folds into a single effective weight vector, so every integral is a plain dot
product against tabulated nodes.

Principal values never appear explicitly: the kernel ``1/((tau-i)(tau-z))`` is
regularised by subtracting ``f(x0) * (x0+i)/(tau+i)``, whose weighted integral
is known in closed form for both half-planes and for the on-axis limit.

The Cauchy kernel ``w/((tau-i)(tau-z))`` does not depend on the integrand, so
it is built once per (node table, targets) and applied with one matrix
product to every entry on that table plus the subtraction column
``1/(tau+i)``.  :func:`boundary_values` accepts a whole
:class:`~whfactor.funcspace.MatrixFunction` and splits all its entries this way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import QuadratureNotConverged, TooCloseToAxis
from .funcspace import BoundaryFunction, MatrixFunction, limit_at_infinity

_GAUSS_CACHE: dict = {}
_TABLE_CACHE: dict = {}
_EVAL_CACHE: dict = {}


def _gauss(n: int):
    if n not in _GAUSS_CACHE:
        _GAUSS_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GAUSS_CACHE[n]


def clear_caches() -> None:
    """Drop memoised node tables and function evaluations."""
    _TABLE_CACHE.clear()
    _EVAL_CACHE.clear()


def _fingerprint(arr: np.ndarray):
    # node arrays are immutable; identify by address, size and a few samples
    n = arr.size
    return (arr.ctypes.data, n, float(arr.flat[0]), float(arr.flat[n // 3]),
            float(arr.flat[(2 * n) // 3]), float(arr.flat[n - 1]))


def _memo(tag, f, arr: np.ndarray, compute):
    key = (tag, id(f), _fingerprint(arr))
    hit = _EVAL_CACHE.get(key)
    if hit is None:
        hit = (f, compute())  # pin f so its id stays valid
        _EVAL_CACHE[key] = hit
    return hit[1]


def _memo_vals(f, arr: np.ndarray) -> np.ndarray:
    return _memo("val", f, arr, lambda: np.asarray(f(arr), dtype=complex))


@dataclass(frozen=True)
class QuadratureSpec:
    """Knobs for the line quadrature.

    ``nodes_per_panel * num_panels`` is the base node count of the
    non-oscillatory table.  ``min_imag_distance`` separates off-axis
    evaluation from boundary-value mode.  The remaining fields control the
    oscillation-aware tables: panels span at most ``phase_per_panel`` radians
    of the fastest oscillation, the resolved window never shrinks below
    ``window_min`` (``deep_window_min`` for slow ``1/tau^2`` integrands), and
    panel widths grow geometrically with ratio ``geom_ratio`` where
    oscillation permits.
    """

    nodes_per_panel: int = 32
    num_panels: int = 64
    abs_tol: float = 1e-9
    min_imag_distance: float = 1e-6
    phase_per_panel: float = 16.0
    geom_ratio: float = 1.35
    window_min: float = 2e3
    deep_window_min: float = 3e4
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
    raw_w: np.ndarray = None        # plain panel weights (kernel path)
    fit: np.ndarray = None          # (6, N): tail-coefficient extraction rows
    ext_tau: np.ndarray = None      # model-only nodes beyond the resolved range
    ext_w: np.ndarray = None
    ext_basis: np.ndarray = None    # (N_ext, 6): model basis on extension nodes


def _panels_to_nodes(edges: np.ndarray, nodes: int):
    xi, wi = _gauss(nodes)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    pts = (mid[:, None] + half[:, None] * xi[None, :]).ravel()
    wts = (half[:, None] * wi[None, :]).ravel()
    return pts, wts


def _tan_table(spec: QuadratureSpec) -> _Table:
    edges = np.linspace(-np.pi / 2, np.pi / 2, spec.num_panels + 1)
    th, wth = _panels_to_nodes(edges, spec.nodes_per_panel)
    tau = np.tan(th)
    w = wth * (1.0 + tau * tau)
    return _Table(tau=tau, w=w, kind="tan", raw_w=w)


def _osc_window(spec: QuadratureSpec, osc: float, xmax: float, deep: bool) -> float:
    if deep:
        r1 = np.sqrt(spec.deep_scale / osc)
        r1 = max(r1, spec.deep_window_min)
    else:
        r1 = (8e9 / osc) ** (1.0 / 3.0)
        r1 = max(r1, spec.window_min)
    # evaluation points must stay well inside the resolved window; the tail
    # model keeps the exact kernel, so a small margin suffices
    r1 = max(r1, 30.0 * 2.0 * np.pi / osc, 1.25 * xmax)
    return min(r1, spec.window_max)


def _osc_table(spec: QuadratureSpec, osc: float, xmax: float, deep: bool) -> _Table:
    r1 = _osc_window(spec, osc, xmax, deep)
    r2 = 2.0 * r1
    d = spec.phase_per_panel / osc
    k = max(int(np.ceil(r2 / d)), 4)
    uniform = np.linspace(-r2, r2, 2 * k + 1)
    # geometric edges resolve the rational structure near the origin
    tau0 = 0.25
    ng = int(np.ceil(np.log(r2 / tau0) / np.log(spec.geom_ratio)))
    geo = tau0 * spec.geom_ratio ** np.arange(ng + 1)
    geo = geo[geo <= r2]
    edges = np.union1d(np.union1d(uniform, np.concatenate([-geo[::-1], [0.0], geo])),
                       np.array([-r2, -r1, r1, r2]))
    keep = np.concatenate([[True], np.diff(edges) > 1e-9 * np.maximum(np.abs(edges[1:]), 1.0)])
    edges = edges[keep]
    tau, w = _panels_to_nodes(edges, spec.nodes_per_panel)

    a = np.abs(tau)
    L = r2 - r1
    W = np.ones_like(tau)
    ramp = a > r1
    W[ramp] = np.cos(0.5 * np.pi * (a[ramp] - r1) / L) ** 2

    w_eff = w * W
    fit_rows = np.zeros((6, tau.size))
    for si, side in enumerate((+1.0, -1.0)):
        in_win = (side * tau > r1) & (side * tau < r2)
        phi1 = np.where(in_win, np.sin(np.pi * (side * tau - r1) / L) ** 2, 0.0)
        inv_a = np.where(in_win, 1.0 / a, 0.0)
        phi2 = phi1 * (r1 * inv_a)
        # plain-integral correction: integrand model {1/tau^2, 1/|tau|^3}
        b2 = np.where(in_win | (side * tau >= r2), 1.0 / np.maximum(a, 1.0) ** 2, 0.0)
        b3 = b2 * np.where(a > 0, 1.0 / np.maximum(a, 1.0), 0.0)
        g11 = np.sum(w * phi1)
        g12 = np.sum(w * phi1 * inv_a)
        g21 = np.sum(w * phi2)
        g22 = np.sum(w * phi2 * inv_a)
        gram = np.array([[g11, g12], [g21, g22]])
        outside = side * tau > r1
        s2 = np.sum(w * np.where(outside, (1.0 - W), 0.0) * b2) + 1.0 / r2
        s3 = np.sum(w * np.where(outside, (1.0 - W), 0.0) * b3) + 1.0 / (2.0 * r2 * r2)
        alpha = np.linalg.solve(gram.T, np.array([s2, s3]))
        w_eff = w_eff + w * tau * tau * (alpha[0] * phi1 + alpha[1] * phi2)
        # kernel-path fit: function model {c0, c1*(r1/tau), c2*(r1/tau)^2} per
        # side, extracted through three oscillation-averaging windows; the r1
        # scaling keeps the Gram matrix well conditioned
        phi3 = phi1 * (r1 * inv_a) ** 2
        phis = (phi1, phi2, phi3)
        basis = (np.ones_like(tau), np.where(in_win, r1 / tau, 0.0),
                 np.where(in_win, (r1 / tau) ** 2, 0.0))
        gram3 = np.array([[np.sum(w * ph * bs) for bs in basis] for ph in phis])
        rows = np.stack([w * ph for ph in phis])
        fit_rows[3 * si:3 * si + 3, :] = np.linalg.solve(gram3, rows)

    # model-only extension beyond r2, tan-mapped (the model is smooth there)
    th_edges = np.linspace(np.arctan(r2), np.pi / 2, 9)
    ext_list = []
    extw_list = []
    for side in (+1.0, -1.0):
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


def integral(f, spec: QuadratureSpec = DEFAULT_QUAD, deep: bool = False,
             verify: bool = False) -> complex:
    """Integral of ``f`` over the real line.

    ``f`` must decay at least like ``1/tau^2`` (with an optional oscillatory
    component) for the tables to apply.  With ``verify=True`` the integral
    is repeated on the :meth:`QuadratureSpec.refined` tables and disagreement
    beyond ``10 * abs_tol`` raises :class:`QuadratureNotConverged`.
    """
    t = _table(spec, osc=_osc_of(f), deep=deep)
    fv = _memo("val", f, t.tau, lambda: np.asarray(f(t.tau), dtype=complex))
    val = complex(fv @ t.w)
    if verify:
        _check_refined(val, integral(f, spec.refined(), deep), spec, "the integral")
    return val


def _check_refined(val: complex, val2: complex, spec: QuadratureSpec, what: str) -> None:
    if abs(val - val2) > 10.0 * spec.abs_tol:
        raise QuadratureNotConverged(
            f"panel doubling moved {what} by {abs(val - val2):.3e}")


def weighted_integral(f, spec: QuadratureSpec = DEFAULT_QUAD,
                      verify: bool = False) -> complex:
    """(1/pi) * integral of f(tau)/(tau^2+1) over the real line."""
    g = BoundaryFunction(lambda t, f=f: _memo_vals(f, t) / (t * t + 1.0),
                         osc_scale=_osc_of(f))
    return integral(g, spec, verify=verify) / np.pi


def moment(f, pole: complex, r: int, spec: QuadratureSpec = DEFAULT_QUAD,
           verify: bool = False) -> complex:
    """Integral of f(tau)/(tau - pole)^(r+1) for pole = +-i and r >= 1."""
    pole = complex(pole)
    if pole not in (1j, -1j):
        raise ValueError("pole must be +i or -i")
    if r < 1:
        raise ValueError("moment order r must be >= 1")
    g = BoundaryFunction(lambda t, f=f: _memo_vals(f, t) / (t - pole) ** (r + 1),
                         osc_scale=_osc_of(f))
    return integral(g, spec, verify=verify)


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
_CHUNK_ENTRIES = 4_000_000


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


def _table_sums(t: _Table, fs: list, zeta: np.ndarray, fx0: np.ndarray,
                sgn: int) -> np.ndarray:
    # kernel sums of the entries ``fs`` that share table ``t``; see
    # _kernel_integral.  Returns (X, E) without the closed subtraction term.
    x0 = zeta.real
    fv = np.stack([_memo("val", f, t.tau, lambda f=f: np.asarray(f(t.tau), dtype=complex))
                   for f in fs], axis=1)
    nodes, w = t.tau, t.raw_w
    if t.kind == "osc":
        # the unresolved tail is replaced by its fitted model on extension nodes
        nodes = np.concatenate([nodes, t.ext_tau])
        w = np.concatenate([w, t.ext_w])
        fv = np.concatenate([fv, t.ext_basis @ (t.fit @ fv)])
    wk = w / (nodes - 1j)
    # one column per entry plus the pole-subtraction column 1/(tau+i)
    cols = np.concatenate([fv, 1.0 / (nodes + 1j)[:, None]], axis=1) * wk[:, None]
    ncol = cols.shape[1]
    on_axis = sgn == 0
    if on_axis:
        # real targets give a real kernel 1/(tau-x): apply it to the real
        # and imaginary parts with one real product
        cols = np.concatenate([cols.real, cols.imag], axis=1)
        rows, near = _coincident(t.tau, x0)
    acc = np.empty((zeta.size, ncol), dtype=complex)
    chunk = max(1, _CHUNK_ENTRIES // nodes.size)
    for k0 in range(0, zeta.size, chunk):
        sl = slice(k0, min(k0 + chunk, zeta.size))
        if not on_axis:
            acc[sl] = (1.0 / (nodes[None, :] - zeta[sl, None])) @ cols
            continue
        den = nodes[None, :] - x0[sl, None]
        hit = (rows >= sl.start) & (rows < sl.stop)
        den[rows[hit] - sl.start, near[hit]] = np.inf  # 1/inf drops the term
        part = np.reciprocal(den, out=den) @ cols
        acc[sl] = part[:, :ncol] + 1j * part[:, ncol:]
    out = acc[:, :-1] - fx0 * (x0 + 1j)[:, None] * acc[:, -1:]
    if on_axis and rows.size:
        # a target on a node: the kernel term there was dropped above and is
        # replaced by the centred difference quotient of the subtracted integrand
        xr = x0[rows]
        h = 1e-5 * (1.0 + np.abs(xr))
        sub = fx0[rows] * (xr + 1j)[:, None]
        for e, f in enumerate(fs):
            hplus = np.asarray(f(xr + h), dtype=complex) - sub[:, e] / (xr + h + 1j)
            hminus = np.asarray(f(xr - h), dtype=complex) - sub[:, e] / (xr - h + 1j)
            np.add.at(out[:, e], rows, (hplus - hminus) / (2.0 * h) * wk[near])
    return out


def _kernel_integral(fs: list, zeta: np.ndarray, fx0: np.ndarray, spec: QuadratureSpec,
                     sgn: int) -> np.ndarray:
    """integral of f(tau)/((tau-i)(tau-zeta)) dtau for each entry f of ``fs``
    and each point zeta; returns an (X, E) array.

    ``fx0`` (X, E) holds the entries at Re(zeta), and ``sgn`` is the sign of
    Im(zeta) (0 selects the on-axis principal value).  The subtraction
    ``f(x0)(x0+i)/(tau+i)`` removes the on-axis pole.  The kernel
    ``w/((tau-i)(tau-zeta))`` does not depend on f, so entries sharing a node
    table share one kernel, applied to all their tabulated values and the
    subtraction column in a single matrix product per chunk of points.  On
    the oscillation tables the unresolved tail of f is replaced by its
    fitted non-oscillatory model on dedicated extension nodes, so the exact
    kernel is kept for every evaluation point.
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

    fx, plus = _memo(("bv", spec), f, xs, split) if xs.size >= _MEMO_MIN_POINTS else split()
    res = plus if side == "plus" else fx - plus
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
    g = BoundaryFunction(lambda t, f=f: _memo_vals(f, t) * t / (t * t + 1.0),
                         osc_scale=_osc_of(f))
    s = integral(g, spec, deep=True) / (2j * np.pi)
    return s + 0.5 * (rho - linf), 0.5 * (rho + linf) - s
