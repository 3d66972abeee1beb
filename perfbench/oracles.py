"""Closed-form oracles for the benchmark's workloads.

Every figure here comes from residue calculus or from the paper's worked
example, evaluated without calling the library under test.
"""

from __future__ import annotations

import math

import numpy as np

def _taylor_power(x0: complex, k: int, d: complex, n: int) -> np.ndarray:
    """Taylor coefficients in u of (x0 + u - d)**(-k) about u = 0."""
    base = x0 - d
    out = np.empty(n, dtype=complex)
    coef = 1.0 + 0j
    for j in range(n):
        out[j] = coef * base ** (-k - j)
        coef *= (-k - j) / (j + 1)
    return out


def _residue(x0: complex, deg: int, omega: float, m: int, k: int) -> complex:
    """Residue at ``x0`` of tau**deg e^{i omega tau} / ((tau-x0)**m (tau+x0)**k):
    the coefficient of u**(m-1) in the Taylor series of the regular part."""
    poly = np.zeros(m, dtype=complex)  # tau**deg = (x0 + u)**deg
    for j in range(min(deg, m - 1) + 1):
        poly[j] = math.comb(deg, j) * x0 ** (deg - j)
    expo = np.array([np.exp(1j * omega * x0) * (1j * omega) ** j / math.factorial(j)
                     for j in range(m)])
    other = _taylor_power(x0, k, -x0, m)
    series = np.convolve(np.convolve(poly, expo)[:m], other)[:m]
    return complex(series[m - 1])


def trig_integral(coef: tuple, eps: float, deg: int, m: int, k: int) -> complex:
    """Integral over the line of
    ``i tau**deg (a + b e^{i eps tau} + c e^{-i eps tau}) / ((tau-i)**m (tau+i)**k)``.

    Each exponential is closed in the half-plane where it decays; the
    non-oscillating part decays like ``tau**-2`` or faster for every call
    made here, so it is closed upward.
    """
    a, b, c = coef
    up = a * _residue(1j, deg, 0.0, m, k) + b * _residue(1j, deg, eps, m, k)
    down = c * _residue(-1j, deg, -eps, k, m)
    return 1j * 2j * np.pi * (up - down)


def cross_residual(b: int, c: int, eps: float) -> float:
    """``(1/pi) * integral of f / (tau^2+1)`` for the entry
    ``f = i tau (a + b e^{i eps tau} + c e^{-i eps tau}) / (tau^2+1)`` with
    ``a = -(b+c)``: the residue at ``tau = i`` gives ``-(b-c) eps e^{-eps} / 2``."""
    return -(b - c) * eps * math.exp(-eps) / 2.0


def split_anchors(coef: tuple, eps: float) -> tuple[complex, complex]:
    """``(rho, s)`` for one trigonometric entry: ``rho`` is its weighted
    integral (the cross residual) and ``s`` is the slow-tail term
    ``(1/2 pi i) * integral of f tau / (tau^2+1)``.  The upper split part at
    ``i`` is ``s + rho/2`` and the lower part at ``-i`` is ``rho/2 - s``."""
    rho = trig_integral(coef, eps, 1, 2, 2) / np.pi
    s = trig_integral(coef, eps, 2, 2, 2) / (2j * np.pi)
    return rho, s


def moment(coef: tuple, eps: float, pole: complex, r: int) -> complex:
    """Integral of the entry over ``(tau - pole)**(r+1)`` for ``pole = +-i``."""
    if pole == -1j:
        return trig_integral(coef, eps, 1, 1, r + 2)
    return trig_integral(coef, eps, 1, r + 2, 1)


def step1_constants(eps: float) -> dict:
    """Pinned step-1 constants of the paper's worked (solvable) example."""
    E = math.exp(-eps)
    c11 = -4.0 * (1.0 - E) - 4.0 * eps * E
    return {"c11": c11, "c22": -c11, "c12": 6.0 * (1.0 - E) + 6.0 * eps * E}


def remainder_at_infinity(eps: float, policy: str) -> np.ndarray:
    """Limit of the first-order remainder of the worked example: the square of
    the step-1 constant matrix, ``16 (1 - E + eps E)^2 I`` when the free slot
    is zero and 0 when it is tuned to match infinity."""
    if policy == "match-infinity":
        return np.zeros((2, 2))
    E = math.exp(-eps)
    return 16.0 * (1.0 - E + eps * E) ** 2 * np.eye(2)


def _det_values(kappa: tuple, coefs, eps: float, x: np.ndarray) -> np.ndarray:
    n = len(kappa)
    lam = (x - 1j) / (x + 1j)
    G = np.zeros((x.size, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            a, b, c = coefs[i][j]
            g = a + b * np.exp(1j * eps * x) + c * np.exp(-1j * eps * x)
            G[:, i, j] = 1j * x * g / (x * x + 1.0)
        G[:, i, i] += lam ** kappa[i]
    return np.linalg.det(G)


def winding(kappa: tuple, coefs, eps: float) -> tuple[int, float]:
    """Winding number of ``det(Lambda + N)`` along the line, by dense
    phase counting on a tan-mapped grid that is doubled until no phase step
    exceeds pi/8.  Also returns the largest ``|det(Lambda + N) - det Lambda|``
    on the grid: below 1 (= ``|det Lambda|``), Rouche's argument on the line
    makes the winding equal ``sum(kappa)``."""
    pts = 1 << 14
    while True:
        x = np.tan(np.linspace(-np.pi / 2 + 1e-7, np.pi / 2 - 1e-7, pts))
        d = _det_values(kappa, coefs, eps, x)
        step = np.angle(d[1:] / d[:-1])
        if np.max(np.abs(step)) < np.pi / 8 or pts >= 1 << 18:
            gap = np.max(np.abs(d - ((x - 1j) / (x + 1j)) ** sum(kappa)))
            return int(round(float(np.sum(step)) / (2.0 * np.pi))), float(gap)
        pts *= 2
