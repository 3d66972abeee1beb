"""Scalar and matrix functions on the real line.

A :class:`BoundaryFunction` is a black-box evaluator ``x -> complex`` (vectorised
over numpy arrays) carrying decay and oscillation metadata; a
:class:`MatrixFunction` is a square array of them with pointwise algebra.  All
objects are immutable and safe to evaluate concurrently.  Norms are taken on
explicit grids (:class:`GridSpec`), never symbolically; the limit at infinity
is exact metadata where known and otherwise read off one dyadic tail
(:func:`limit_at_infinity`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from .errors import NearSingular, NoLimit

DET_FLOOR_DEFAULT = 1e-10

# the dyadic tail |x| = 2**k, k = 8..18 in steps of 1/4, sampled on both
# sides: the one place where functions are probed for their behaviour at
# infinity.  Points in between powers of two keep an oscillating amplitude
# from repeating along the doubling map.
_PER_OCTAVE = 4
_TAIL = 2.0 ** (8.0 + np.arange(10 * _PER_OCTAVE + 1) / _PER_OCTAVE)
_TAIL_X = np.concatenate([_TAIL, -_TAIL])


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

    def check_decay(self, factor: float = 10.0) -> bool:
        """Probe the claimed decay order on the dyadic tail x = +-2**k.

        The measured ratio ``|f(x)| * |x|**decay_order`` must stay below
        ``factor`` times its median across the tail samples.
        """
        vals = np.abs(self(_TAIL_X)) * np.abs(_TAIL_X) ** self.decay_order
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
        rows = [[replace(reduce(operator.add, (F.entries[i][k] * G.entries[k][j]
                                               for k in range(n))),
                         label=f"({F.label}.{G.label})[{i}{j}]")
                 for j in range(n)] for i in range(n)]
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


def sup_norm(F: MatrixFunction, grid: GridSpec = DEFAULT_GRID) -> float:
    """Max modulus over grid points and entries (the entrywise sup norm)."""
    vals = F.eval_grid(grid.points())
    return float(np.max(np.abs(vals)))


_ROUNDING = 1e-14  # |f - v| below this (relative to 1 + |v|) counts as settled


def _settles(up: np.ndarray, dn: np.ndarray, v) -> np.ndarray:
    # |f - v| decays: its sup over the last two octaves is at most half its
    # sup over the two octaves that end two octaves earlier (1/x gives 1/16,
    # so an oscillating amplitude may vary eightfold), or it is rounding
    # noise; NaN or inf samples never settle
    a = np.maximum(np.abs(up - v), np.abs(dn - v))
    w = 2 * _PER_OCTAVE
    last, before = np.max(a[-w:], axis=0), np.max(a[-3 * w:-2 * w], axis=0)
    return np.isfinite(before) & (last <= np.maximum(0.5 * before,
                                                     _ROUNDING * (1.0 + np.abs(v))))


def _tail_limit(up: np.ndarray, dn: np.ndarray) -> np.ndarray:
    """Limits from samples at x = +_TAIL (``up``) and x = -_TAIL (``dn``), axis 0.

    Averaging the two sides cancels the odd 1/x parts and one Richardson step
    between x and 2x removes the even 1/x**2 part; the extrapolants of the
    top octave give the estimate L and their spread its noise.  A function
    whose modulus decays has limit exactly 0, unless L stands clear of its
    noise and f - L decays too (a small limit plus a decaying part).  NaN
    marks a function without a limit: neither f nor f - L decays.
    """
    with np.errstate(all="ignore"):
        s = 0.5 * (up + dn)
        h = _PER_OCTAVE
        r = s[h:] + (s[h:] - s[:-h]) / 3.0
        est = r[-h - 1:].mean(axis=0)
        noise = np.max(np.abs(r[-h - 1:] - est), axis=0)
        to_est = _settles(up, dn, est)
        clear = np.abs(est) > 4.0 * noise + _ROUNDING
        to_zero = _settles(up, dn, 0.0) & ~(to_est & clear)
        return np.where(to_zero, 0.0, np.where(to_est, est, np.nan))


def limit_at_infinity(F):
    """Limit at +-infinity of a boundary function (a complex number) or of a
    matrix function (an (n, n) array).

    Entries whose limit is known from metadata (see
    :meth:`BoundaryFunction.known_limit`) return it exactly; the others are
    estimated on the dyadic tail ``|x| = 2**k``, ``8 <= k <= 18`` (see
    :func:`_tail_limit`).  Raises :class:`NoLimit` for an entry that neither
    decays nor settles to a limit there.
    """
    matrix = isinstance(F, MatrixFunction)
    fs = [f for row in F.entries for f in row] if matrix else [F]
    known = [f.known_limit() if isinstance(f, BoundaryFunction) else None for f in fs]
    out = np.array([0.0 if v is None else v for v in known], dtype=complex)
    todo = [k for k, v in enumerate(known) if v is None]
    if todo:
        vals = np.stack([np.asarray(fs[k](_TAIL_X), dtype=complex) for k in todo], axis=1)
        est = _tail_limit(vals[:_TAIL.size], vals[_TAIL.size:])
        for k, v in zip(todo, est):
            if np.isnan(v):
                raise NoLimit(f"{getattr(fs[k], 'label', 'f')} has no limit at infinity: "
                              "it neither decays nor settles on the dyadic tail")
        out[todo] = est
    return out.reshape(F.dim, F.dim) if matrix else complex(out[0])
