"""Scalar and matrix functions on the real line.

A :class:`BoundaryFunction` is a black-box evaluator ``x -> complex`` (vectorised
over numpy arrays) carrying decay and oscillation metadata; a
:class:`MatrixFunction` is a square array of them with pointwise algebra.  All
objects are immutable and safe to evaluate concurrently.  Norms and limits are
taken on explicit grids (:class:`GridSpec`), never symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NearSingular, NoLimit

DET_FLOOR_DEFAULT = 1e-10


def _vec_eval(evaluator: Callable, x) -> np.ndarray:
    xs = np.asarray(x, dtype=float)
    out = np.asarray(evaluator(xs), dtype=complex)
    if out.shape != xs.shape:
        out = np.broadcast_to(out, xs.shape).copy()
    return out


@dataclass(frozen=True)
class BoundaryFunction:
    """A complex-valued function on the extended real line.

    Parameters
    ----------
    evaluator : callable
        Vectorised map from real ``x`` to complex values.  Must be total on
        finite reals (no poles on the axis).
    decay_order : float
        Claimed ``|f(x)| = O(|x|**-decay_order)`` as ``|x| -> oo``; ``0`` means
        bounded only.
    label : str
        Diagnostic name.
    osc_scale : float
        Largest ``|a|`` among ``exp(i*a*x)`` factors present in the function
        (``0`` for non-oscillatory).  Used only as a quadrature refinement
        hint; it never changes values.
    """

    evaluator: Callable
    decay_order: float = 0.0
    label: str = "f"
    osc_scale: float = 0.0
    tail_limit: complex | None = None  # exact limit at +-infinity when known

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        if xs.ndim == 0:
            return complex(_vec_eval(self.evaluator, xs.reshape(1))[0])
        return _vec_eval(self.evaluator, xs)

    def known_limit(self) -> complex | None:
        if self.tail_limit is not None:
            return complex(self.tail_limit)
        if self.decay_order > 0:
            return 0.0
        return None

    @staticmethod
    def _merge_limit(a, b, op):
        la, lb = a.known_limit(), b.known_limit()
        if la is None or lb is None:
            return None
        return la + lb if op == "+" else (la - lb if op == "-" else la * lb)

    def __add__(self, other: "BoundaryFunction") -> "BoundaryFunction":
        return BoundaryFunction(
            lambda x, a=self, b=other: a(x) + b(x),
            decay_order=min(self.decay_order, other.decay_order),
            label=f"({self.label}+{other.label})",
            osc_scale=max(self.osc_scale, other.osc_scale),
            tail_limit=self._merge_limit(self, other, "+"),
        )

    def __sub__(self, other: "BoundaryFunction") -> "BoundaryFunction":
        return BoundaryFunction(
            lambda x, a=self, b=other: a(x) - b(x),
            decay_order=min(self.decay_order, other.decay_order),
            label=f"({self.label}-{other.label})",
            osc_scale=max(self.osc_scale, other.osc_scale),
            tail_limit=self._merge_limit(self, other, "-"),
        )

    def __mul__(self, other) -> "BoundaryFunction":
        if isinstance(other, BoundaryFunction):
            return BoundaryFunction(
                lambda x, a=self, b=other: a(x) * b(x),
                decay_order=self.decay_order + other.decay_order,
                label=f"({self.label}*{other.label})",
                osc_scale=self.osc_scale + other.osc_scale,
                tail_limit=self._merge_limit(self, other, "*"),
            )
        c = complex(other)
        lim = self.known_limit()
        return BoundaryFunction(
            lambda x, a=self: a(x) * c,
            decay_order=self.decay_order,
            label=f"({c!r}*{self.label})",
            osc_scale=self.osc_scale,
            tail_limit=None if lim is None else lim * c,
        )

    __rmul__ = __mul__

    def check_decay(self, k_min: int = 8, k_max: int = 16, factor: float = 10.0) -> bool:
        """Probe the claimed decay order on the dyadic tail grid x = +-2**k.

        The measured ratio ``|f(x)| * |x|**decay_order`` must stay below
        ``factor`` times its median across the tail samples.
        """
        ks = np.arange(k_min, k_max + 1, dtype=float)
        xs = np.concatenate([2.0 ** ks, -(2.0 ** ks)])
        vals = np.abs(self(xs)) * np.abs(xs) ** self.decay_order
        med = np.median(vals)
        if med == 0.0:
            return bool(np.max(vals) == 0.0)
        return bool(np.max(vals) <= factor * med)


def constant(value: complex, label: str | None = None) -> BoundaryFunction:
    c = complex(value)
    return BoundaryFunction(
        lambda x: np.full(np.shape(x), c, dtype=complex),
        decay_order=0.0,
        label=label if label is not None else repr(c),
        tail_limit=c,
    )


ZERO = constant(0.0, "0")
ONE = constant(1.0, "1")


_GRID_CACHE: dict = {}


@dataclass(frozen=True)
class GridSpec:
    """Tan-mapped symmetric evaluation grid: x = tan(theta), theta uniform on
    (-pi/2 + delta, pi/2 - delta)."""

    num_points: int = 2001
    delta: float = 1e-4

    def points(self) -> np.ndarray:
        if self.num_points < 3:
            raise ValueError("grid needs at least 3 points")
        if self not in _GRID_CACHE:
            th = np.linspace(-np.pi / 2 + self.delta, np.pi / 2 - self.delta,
                             self.num_points)
            pts = np.tan(th)
            pts.flags.writeable = False
            _GRID_CACHE[self] = pts
        return _GRID_CACHE[self]


DEFAULT_GRID = GridSpec()
PROBE_GRID = GridSpec(num_points=201, delta=1e-3)


@dataclass(frozen=True)
class MatrixFunction:
    """An n x n array of boundary functions with pointwise matrix algebra."""

    entries: tuple  # tuple of tuples of BoundaryFunction
    invertible: bool = False
    det_floor: float = DET_FLOOR_DEFAULT
    label: str = "F"

    @property
    def dim(self) -> int:
        return len(self.entries)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[BoundaryFunction]], **kw) -> "MatrixFunction":
        n = len(rows)
        for r in rows:
            if len(r) != n:
                raise ValueError("matrix must be square")
        return MatrixFunction(entries=tuple(tuple(r) for r in rows), **kw)

    @staticmethod
    def identity(n: int) -> "MatrixFunction":
        rows = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        return MatrixFunction.from_rows(rows, invertible=True, label="I")

    @staticmethod
    def zero(n: int) -> "MatrixFunction":
        rows = [[ZERO for _ in range(n)] for _ in range(n)]
        return MatrixFunction.from_rows(rows, label="0")

    @staticmethod
    def from_array(arr, **kw) -> "MatrixFunction":
        a = np.asarray(arr, dtype=complex)
        rows = [[constant(a[i, j]) for j in range(a.shape[1])] for i in range(a.shape[0])]
        return MatrixFunction.from_rows(rows, **kw)

    @property
    def osc_scale(self) -> float:
        return max(f.osc_scale for row in self.entries for f in row)

    @property
    def min_decay(self) -> float:
        return min(f.decay_order for row in self.entries for f in row)

    def entry(self, i: int, j: int) -> BoundaryFunction:
        return self.entries[i][j]

    def eval_grid(self, xs) -> np.ndarray:
        """Evaluate on an array of points; returns shape (len(xs), n, n)."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        n = self.dim
        out = np.empty((xs.size, n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                out[:, i, j] = self.entries[i][j](xs)
        if self.invertible:
            dets = np.abs(np.linalg.det(out))
            k = int(np.argmin(dets))
            if dets[k] < self.det_floor:
                raise NearSingular(float(xs[k]), float(dets[k]), self.det_floor)
        return out

    def __call__(self, x) -> np.ndarray:
        return self.eval_grid([float(x)])[0]


def eval(f: BoundaryFunction, x: float) -> complex:
    """Point evaluation of a boundary function."""
    return complex(f(float(x)))


def eval_matrix(F: MatrixFunction, x: float) -> np.ndarray:
    """Point evaluation of a matrix function; returns an (n, n) complex array."""
    return F(x)


def combine(F: MatrixFunction, G: MatrixFunction, op: str) -> MatrixFunction:
    """Pointwise matrix algebra: ``op`` is one of ``add``, ``sub``, ``mul``.

    Decay metadata propagates as the min over entries (add/sub) or the min over
    the product terms of summed decays (mul); oscillation hints as max / sum.
    Known limits at infinity propagate when every factor's limit is known.
    """
    if F.dim != G.dim:
        raise ValueError(f"dimension mismatch: {F.dim} vs {G.dim}")
    n = F.dim
    if op == "add":
        rows = [[F.entries[i][j] + G.entries[i][j] for j in range(n)] for i in range(n)]
    elif op == "sub":
        rows = [[F.entries[i][j] - G.entries[i][j] for j in range(n)] for i in range(n)]
    elif op == "mul":
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                def prod_ij(x, i=i, j=j, A=F, B=G):
                    acc = A.entries[i][0](x) * B.entries[0][j](x)
                    for k in range(1, A.dim):
                        acc = acc + A.entries[i][k](x) * B.entries[k][j](x)
                    return acc

                decay = min(
                    F.entries[i][k].decay_order + G.entries[k][j].decay_order for k in range(n)
                )
                osc = max(
                    F.entries[i][k].osc_scale + G.entries[k][j].osc_scale for k in range(n)
                )
                lims = [BoundaryFunction._merge_limit(F.entries[i][k], G.entries[k][j], "*")
                        for k in range(n)]
                limit = None if None in lims else sum(lims)
                row.append(
                    BoundaryFunction(prod_ij, decay_order=decay, osc_scale=osc,
                                     label=f"({F.label}.{G.label})[{i}{j}]",
                                     tail_limit=limit)
                )
            rows.append(row)
    else:
        raise ValueError(f"unknown op {op!r}")
    return MatrixFunction.from_rows(rows, label=f"({F.label} {op} {G.label})")


def invert_at(F: MatrixFunction, x: float, det_floor: float | None = None) -> np.ndarray:
    """Pointwise matrix inverse, guarded by the determinant floor."""
    floor = F.det_floor if det_floor is None else det_floor
    a = F(x)
    d = abs(np.linalg.det(a))
    if d < floor:
        raise NearSingular(float(x), float(d), floor)
    return np.linalg.inv(a)


def invert_grid(F: MatrixFunction, xs, det_floor: float | None = None) -> np.ndarray:
    floor = F.det_floor if det_floor is None else det_floor
    a = F.eval_grid(xs)
    dets = np.abs(np.linalg.det(a))
    k = int(np.argmin(dets))
    if dets[k] < floor:
        raise NearSingular(float(np.atleast_1d(xs)[k]), float(dets[k]), floor)
    return np.linalg.inv(a)


def sup_norm(F: MatrixFunction, grid: GridSpec = DEFAULT_GRID) -> float:
    """Max modulus over grid points and entries (the entrywise sup norm)."""
    vals = F.eval_grid(grid.points())
    return float(np.max(np.abs(vals)))


def limit_at_infinity(F: MatrixFunction, tail: GridSpec | None = None,
                      tol: float = 1e-2) -> tuple[np.ndarray, float]:
    """Two-sided dyadic-tail limit with one Richardson sweep.

    Samples ``x = +-2**k`` with the top ``k`` taken from the tail grid's reach
    (``k`` up to ``log2`` of its largest point, at least 16), averages the two
    sides to cancel odd ``1/x`` parts, removes the leading even ``1/x`` part by
    extrapolation, and reports the spread of the last extrapolants as the error
    estimate.  Raises :class:`NoLimit` when the spread exceeds ``tol``.
    """
    if tail is None:
        k_max = 18
    else:
        k_max = max(16, int(np.floor(np.log2(np.tan(np.pi / 2 - tail.delta)))))
    ks = np.arange(8, k_max + 1)
    xs = 2.0 ** ks
    up = F.eval_grid(xs)
    dn = F.eval_grid(-xs)
    s = 0.5 * (up + dn)  # (K, n, n)
    r = 2.0 * s[1:] - s[:-1]  # kills the residual 1/x term
    last = r[-3:]
    est = last.mean(axis=0)
    spread = float(np.max(np.abs(last - est[None, :, :])))
    if spread > tol:
        raise NoLimit(f"tail oscillation {spread:.3e} exceeds tolerance {tol:.3e}")
    return est, spread
