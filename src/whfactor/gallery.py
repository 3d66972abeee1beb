"""Named example matrices with known base factorizations and step-1 oracles.

Every entry ships the perturbed matrix builder, its unperturbed base
factorization, and (where available) typed-in closed forms for the first
correction step, so the numerical pipeline can be cross-checked end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import NoUnstablePair
from .funcspace import BoundaryFunction, MatrixFunction, constant
from .factorizer import BaseFactorization
from .indices import PartialIndices, build_lambda


@dataclass(frozen=True)
class GalleryEntry:
    name: str
    eps: float
    builder: Callable  # eps -> MatrixFunction
    base: BaseFactorization
    perturbation: Callable  # eps -> MatrixFunction (builder(eps) - base product)
    oracle: Optional[Callable] = None  # c21 -> (n1_minus, n1_plus)

    @property
    def matrix(self) -> MatrixFunction:
        return self.builder(self.eps)


class CanonicalFactors(NamedTuple):
    minus: MatrixFunction
    middle: MatrixFunction
    plus: MatrixFunction


def _bf(fn, decay=0.0, osc=0.0, label="f", limit=None):
    return BoundaryFunction(fn, decay_order=decay, label=label, osc_scale=osc,
                            tail_limit=limit)


def _lam(x):
    return (x - 1j) / (x + 1j)


_GK_INDICES = PartialIndices((1, -1))


def gk_diagonal() -> GalleryEntry:
    """The diagonal unstable showcase: indices (1, -1), identity outer factors."""
    base = BaseFactorization.with_identity_outer(_GK_INDICES)

    def builder(eps: float) -> MatrixFunction:
        return build_lambda(_GK_INDICES, "full")

    def perturbation(eps: float) -> MatrixFunction:
        return MatrixFunction.zero(2)

    return GalleryEntry(name="gk0", eps=0.0, builder=builder, base=base,
                        perturbation=perturbation)


def gk_singular(eps: float):
    """The constant-entry perturbation whose factorization degenerates as eps -> 0.

    Returns the gallery entry together with its explicit canonical
    factorization (all indices zero), whose factors carry 1/eps entries.
    """
    if eps <= 0:
        raise ValueError("gk_singular needs eps > 0: the canonical factorization "
                         "degenerates at eps = 0")
    base = BaseFactorization.with_identity_outer(_GK_INDICES)

    def builder(e: float) -> MatrixFunction:
        rows = [
            [_bf(lambda x: _lam(x), label="lam", limit=1.0), constant(e)],
            [constant(0.0), _bf(lambda x: 1.0 / _lam(x), label="lam^-1", limit=1.0)],
        ]
        return MatrixFunction.from_rows(rows, invertible=True, label="GK1")

    def perturbation(e: float) -> MatrixFunction:
        rows = [[constant(0.0), constant(e)], [constant(0.0), constant(0.0)]]
        return MatrixFunction.from_rows(rows, label="GK1-GK0")

    f_minus = MatrixFunction.from_rows(
        [[constant(1.0), constant(0.0)],
         [_bf(lambda x, e=eps: (1.0 / e) * (x + 1j) / (x - 1j), label="(1/e)lam^-1",
              limit=1.0 / eps),
          constant(1.0)]],
        invertible=True, label="GK2-")
    f_plus = MatrixFunction.from_rows(
        [[_bf(lambda x: _lam(x), label="lam", limit=1.0), constant(eps)],
         [constant(-1.0 / eps), constant(0.0)]],
        invertible=True, label="GK2+")
    middle = MatrixFunction.identity(2)
    entry = GalleryEntry(name="gk-singular", eps=eps, builder=builder, base=base,
                         perturbation=perturbation)
    return entry, CanonicalFactors(f_minus, middle, f_plus)


def _trig_entry(coef0: float, coef_p: float, coef_m: float, eps: float, label: str):
    """x*i*(coef0 + coef_p e^{i eps x} + coef_m e^{-i eps x}) / (x^2+1)."""

    def ev(x, a=coef0, b=coef_p, c=coef_m, e=eps):
        x = np.asarray(x, dtype=float)
        p = np.exp(1j * e * x)  # on real x, exp(-i e x) is its conjugate
        osc = a + b * p + c * np.conj(p)
        return x * 1j * osc / (x * x + 1.0)

    return _bf(ev, decay=1.0, osc=abs(eps), label=label)


def _solvable_like_builder(c12_p: float, c12_m: float, tag: str):
    """Matrix family sharing the structure of the worked trigonometric example;
    only the (1,2) oscillatory coefficients differ between the two variants."""

    def builder(eps: float) -> MatrixFunction:
        def g11(x, e=eps):
            x = np.asarray(x, dtype=float)
            osc = -18.0 + 8.0 * np.exp(1j * e * x) + 8.0 * np.exp(-1j * e * x)
            return (x * x + x * 1j * osc - 1.0) / (x * x + 1.0)

        def g22(x, e=eps):
            x = np.asarray(x, dtype=float)
            osc = 18.0 - 8.0 * np.exp(1j * e * x) - 8.0 * np.exp(-1j * e * x)
            return (x * x + x * 1j * osc - 1.0) / (x * x + 1.0)

        rows = [
            [_bf(g11, osc=abs(eps), label=f"{tag}11", limit=1.0),
             _trig_entry(24.0, -c12_p, -c12_m, eps, f"{tag}12")],
            [_trig_entry(-12.0, 4.0, 8.0, eps, f"{tag}21"),
             _bf(g22, osc=abs(eps), label=f"{tag}22", limit=1.0)],
        ]
        return MatrixFunction.from_rows(rows, invertible=True, label=tag)

    def perturbation(eps: float) -> MatrixFunction:
        rows = [
            [_trig_entry(-16.0, 8.0, 8.0, eps, f"n{tag}11"),
             _trig_entry(24.0, -c12_p, -c12_m, eps, f"n{tag}12")],
            [_trig_entry(-12.0, 4.0, 8.0, eps, f"n{tag}21"),
             _trig_entry(16.0, -8.0, -8.0, eps, f"n{tag}22")],
        ]
        return MatrixFunction.from_rows(rows, label=f"N_{tag}")

    return builder, perturbation


def step1_constants(eps: float) -> dict:
    """Closed-form pinned constants of the solvable example's first step."""
    E = np.exp(-eps)
    c11 = -4.0 * (1.0 - E) - 4.0 * eps * E
    return {"c11": c11, "c22": -c11, "c12": 6.0 * (1.0 - E) + 6.0 * eps * E}


def oracle_first_step(eps: float, c21: complex = 0.0):
    """Closed-form step-1 correction pair for the solvable example.

    The free constant in the (2,1) slot is passed in; the pinned constants use
    their closed forms.  At eps = 0 both matrices vanish identically.
    """
    E = np.exp(-eps)
    one = 1.0 - E
    cc = step1_constants(eps)
    c11, c22, c12 = cc["c11"], cc["c22"], cc["c12"]
    c21 = complex(c21)

    def fp(x, e=eps, E=E):
        return np.exp(1j * e * np.asarray(x)) - E

    def fm(x, e=eps, E=E):
        return np.exp(-1j * e * np.asarray(x)) - E

    def plus00(x):
        x = np.asarray(x)
        inner = -8j * one / (x + 1j) + 8j * x * fp(x) / (x * x + 1) - c11
        return (x + 1j) / (x - 1j) * inner

    def plus01(x):
        x = np.asarray(x)
        inner = 12j * one / (x + 1j) - 12j * x * fp(x) / (x * x + 1) - c12
        return (x + 1j) / (x - 1j) * inner

    def plus10(x):
        x = np.asarray(x)
        return -6j * one / (x + 1j) + 4j * x * fp(x) / (x * x + 1) - c21

    def plus11(x):
        x = np.asarray(x)
        return 8j * one / (x + 1j) - 8j * x * fp(x) / (x * x + 1) - c22

    def minus00(x):
        x = np.asarray(x)
        return -8j * one / (x - 1j) + 8j * x * fm(x) / (x * x + 1) + c11

    def minus01(x):
        x = np.asarray(x)
        inner = 12j * one / (x - 1j) - 12j * x * fm(x) / (x * x + 1) + c12
        return (x - 1j) / (x + 1j) * inner

    def minus10(x):
        x = np.asarray(x)
        return -6j * one / (x - 1j) + 8j * x * fm(x) / (x * x + 1) + c21

    def minus11(x):
        x = np.asarray(x)
        inner = 8j * one / (x - 1j) - 8j * x * fm(x) / (x * x + 1) + c22
        return (x - 1j) / (x + 1j) * inner

    n1_minus = MatrixFunction.from_rows(
        [[_bf(minus00, osc=eps, label="N1-00", limit=c11),
          _bf(minus01, osc=eps, label="N1-01", limit=c12)],
         [_bf(minus10, osc=eps, label="N1-10", limit=c21),
          _bf(minus11, osc=eps, label="N1-11", limit=c22)]],
        label="N1-oracle")
    n1_plus = MatrixFunction.from_rows(
        [[_bf(plus00, osc=eps, label="N1+00", limit=-c11),
          _bf(plus01, osc=eps, label="N1+01", limit=-c12)],
         [_bf(plus10, osc=eps, label="N1+10", limit=-c21),
          _bf(plus11, osc=eps, label="N1+11", limit=-c22)]],
        label="N1+oracle")
    return n1_minus, n1_plus


def example_solvable(eps: float = 0.1) -> GalleryEntry:
    """The trigonometric-rational perturbation whose first step succeeds."""
    builder, perturbation = _solvable_like_builder(12.0, 12.0, "Gsolv")
    base = BaseFactorization.with_identity_outer(_GK_INDICES)
    return GalleryEntry(name="solvable", eps=eps, builder=builder, base=base,
                        perturbation=perturbation,
                        oracle=lambda c21, e=eps: oracle_first_step(e, c21))


def example_unsolvable(eps: float = 0.1) -> GalleryEntry:
    """The single-entry modification that violates the cross condition for eps > 0."""
    builder, perturbation = _solvable_like_builder(16.0, 8.0, "Gunsolv")
    base = BaseFactorization.with_identity_outer(_GK_INDICES)
    return GalleryEntry(name="unsolvable", eps=eps, builder=builder, base=base,
                        perturbation=perturbation)


def unsolvable_cross_residual(eps: float) -> float:
    """Closed form of the failing cross residual: 4 eps e^{-eps}.

    Verified three ways: residue calculus on the weighted integral of the
    (1,2) entry, brute-force quadrature, and anchor limits of the displayed
    half-plane split.
    """
    return 4.0 * eps * float(np.exp(-eps))


def singular_perturbation(base: BaseFactorization, eps: float, k: int = 1) -> MatrixFunction:
    """Sandwich an eps**k constant-entry bump between the base factors.

    Places the bump at the (most positive, most negative) index pair, which
    must differ by at least 2; the result stays within O(eps**k) of the base
    product while its canonical-type factorizations blow up as eps -> 0.
    """
    idx = base.indices
    if idx.kappa[0] - idx.kappa[-1] < 2:
        raise NoUnstablePair(f"indices {idx.kappa} have no pair with gap >= 2")
    if eps <= 0 or k < 1:
        raise ValueError("need eps > 0 and k >= 1")
    from .funcspace import combine

    bump = float(eps) ** int(k)
    lam = build_lambda(idx, "full")
    rows = [[lam.entries[i][j] if i == j else
             (constant(bump) if (i, j) == (0, idx.n - 1) else constant(0.0))
             for j in range(idx.n)] for i in range(idx.n)]
    lam_bumped = MatrixFunction.from_rows(rows, invertible=True, label="Lambda+bump")
    if base.trivial_outer:
        return lam_bumped
    return combine(combine(base.g_minus, lam_bumped, "mul"), base.g_plus, "mul")


GALLERY_NAMES = ("gk0", "gk-singular", "solvable", "unsolvable")


def by_name(name: str, eps: float) -> GalleryEntry:
    if name == "gk0":
        return gk_diagonal()
    if name == "gk-singular":
        entry, _ = gk_singular(eps if eps > 0 else 0.1)
        return entry
    if name == "solvable":
        return example_solvable(eps)
    if name == "unsolvable":
        return example_unsolvable(eps)
    raise KeyError(name)
