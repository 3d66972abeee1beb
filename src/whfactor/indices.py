"""Partial-index bookkeeping: the diagonal factor, winding numbers, stability
and condition counting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ArgumentJump, NearZero
from .funcspace import BoundaryFunction, GridSpec, MatrixFunction, DEFAULT_GRID, ZERO


@dataclass(frozen=True)
class PartialIndices:
    """A descending integer vector kappa_1 >= ... >= kappa_n.

    ``p`` counts the strictly positive entries and ``q = n - #negative``, so
    entries 1..p are >= 1, entries p+1..q vanish and entries q+1..n are <= -1.
    """

    kappa: tuple

    def __post_init__(self):
        k = tuple(int(v) for v in self.kappa)
        if len(k) == 0:
            raise ValueError("need at least one index")
        if any(k[i] < k[i + 1] for i in range(len(k) - 1)):
            raise ValueError("indices must be sorted descending")
        object.__setattr__(self, "kappa", k)

    @property
    def n(self) -> int:
        return len(self.kappa)

    @property
    def p(self) -> int:
        return sum(1 for v in self.kappa if v > 0)

    @property
    def q(self) -> int:
        return self.n - sum(1 for v in self.kappa if v < 0)

    @property
    def total(self) -> int:
        return sum(self.kappa)


def _lambda_entry(exponent: int) -> BoundaryFunction:
    e = int(exponent)
    if e == 0:
        return BoundaryFunction(lambda x: np.ones(np.shape(x), dtype=complex),
                                decay_order=0.0, label="1", tail_limit=1.0)

    def ev(x, e=e):
        x = np.asarray(x, dtype=float)
        return ((x - 1j) / (x + 1j)) ** e

    return BoundaryFunction(ev, decay_order=0.0, label=f"lam^{e}", tail_limit=1.0)


def _exponents(indices: PartialIndices, variant: str) -> tuple:
    if variant == "full":
        return indices.kappa
    if variant == "plus":
        return tuple(max(k, 0) for k in indices.kappa)
    if variant == "minus":
        return tuple(min(k, 0) for k in indices.kappa)
    raise ValueError("variant must be full, plus or minus")


def build_lambda(indices: PartialIndices, variant: str = "full") -> MatrixFunction:
    """Diagonal factor with entries ((x-i)/(x+i))**e.

    ``variant`` picks the exponent per index kappa: the full factor uses
    kappa itself, the plus factor max(kappa, 0) (analytic and bounded in the
    upper half-plane) and the minus factor min(kappa, 0) (lower half-plane),
    so that plus * minus = full pointwise on the axis.
    """
    exps = _exponents(indices, variant)
    n = indices.n
    rows = [[_lambda_entry(exps[i]) if i == j else ZERO for j in range(n)] for i in range(n)]
    return MatrixFunction.from_rows(rows, invertible=True, label=f"Lambda[{variant}]")


def lambda_entry_values(indices: PartialIndices, variant: str, x) -> np.ndarray:
    """Diagonal entries of the requested variant at an array of points;
    returns shape (len(x), n)."""
    exps = _exponents(indices, variant)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    base = (xs - 1j) / (xs + 1j)
    return np.stack([base ** e for e in exps], axis=-1)


def winding_number(f: BoundaryFunction, grid: GridSpec = DEFAULT_GRID,
                   det_floor: float = 1e-10, max_refine: int = 24) -> int:
    """Winding number of ``f`` along the real line by phase unwrapping.

    The grid is refined adaptively wherever the phase step reaches pi/2; the
    rounded total increment over 2*pi is returned and its rounding residual
    must stay below 0.1.
    """
    xs = grid.points()
    vals = f(xs)
    for _ in range(max_refine):
        mags = np.abs(vals)
        if np.min(mags) < det_floor:
            k = int(np.argmin(mags))
            raise NearZero(f"|f({xs[k]:.6g})| = {mags[k]:.3e} below floor {det_floor:.1e}")
        dphi = np.angle(vals[1:] / vals[:-1])
        bad = np.abs(dphi) >= np.pi / 2
        if not np.any(bad):
            total = float(np.sum(dphi))
            wind = int(round(total / (2 * np.pi)))
            residual = abs(total / (2 * np.pi) - wind)
            if residual >= 0.1:
                raise ArgumentJump(
                    f"winding residual {residual:.3f} >= 0.1; grid too coarse or no limit")
            return wind
        mid = 0.5 * (xs[:-1][bad] + xs[1:][bad])
        xs = np.sort(np.concatenate([xs, mid]))
        vals = f(xs)
    raise ArgumentJump("phase jumps persisted after maximum refinement")


def is_stable(indices: PartialIndices) -> bool:
    """A set of partial indices is stable iff kappa_1 - kappa_n <= 1."""
    return indices.kappa[0] - indices.kappa[-1] <= 1


class ConditionCounts(NamedTuple):
    solvability_count: int
    pinned_constants: int
    free_constants: int


def count_conditions(indices: PartialIndices) -> ConditionCounts:
    """Counts of solvability conditions, pinned constants and free constants.

    Solvability: sum over negative indices of (-kappa_j - 1) * n, plus the sum
    over positive indices of (kappa_i - 1) * n, plus the (n - q) * p cross
    block.  Pinned counts the union of the two pinned blocks once; the free
    count reports the n * (n - p + q) figure of the source formula, which
    intentionally exceeds n^2 minus the pinned count (the cross block is
    pinned with a consistency requirement, not freely choosable).
    """
    n, p, q = indices.n, indices.p, indices.q
    solv = (sum((-k - 1) * n for k in indices.kappa if k < 0)
            + sum((k - 1) * n for k in indices.kappa if k > 0)
            + (n - q) * p)
    pinned = (n - q) * n + n * p - (n - q) * p
    free = n * (n - p + q)
    return ConditionCounts(solv, pinned, free)


def free_entries(indices: PartialIndices) -> set:
    """Zero-based (row, col) pairs pinned by neither the row nor column rule."""
    n, p, q = indices.n, indices.p, indices.q
    return {(l, j) for l in range(p, n) for j in range(0, q)}
