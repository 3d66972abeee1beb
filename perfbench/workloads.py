"""The benchmark's workloads: seeded inputs, the timed operation and the
untimed output checks.

Each workload turns ``(seed, k)`` into the inputs of operation ``k``, so a
run's inputs do not depend on how its operations are split across worker
processes.  Operation cost depends mostly on eps, so eps is stratified (see
:func:`_stratified`) and a run measures whole blocks of ``block`` operations,
each made of mirrored pairs: runs with different seeds do the same mix of
cheap and expensive operations on different inputs.
"""

from __future__ import annotations

import os

import numpy as np

import oracles

# accuracy figures an operation's check may return, next to its misses
ACC_FIGURES = ("acc.const_err", "acc.dkinf_err", "acc.dk1_over_eps2", "acc.cross_err",
               "acc.dk2_over_dk1", "acc.step2_boundary_residual")

def van_der_corput(k: int) -> float:
    """Base-2 radical inverse of ``k``."""
    out, scale = 0.0, 0.5
    while k:
        if k & 1:
            out += scale
        k >>= 1
        scale *= 0.5
    return out


def _stratified(seed: int, stream: int, k: int) -> float:
    """Position in [0, 1) of operation ``k``'s eps within its log range.

    Operations come in mirrored pairs ``(v, 1 - v)``, so every even prefix is
    centred on the middle of the range; ``v`` walks the lower half in van der
    Corput order, one point per eighth of it for the first eight pairs, moved
    within its eighth by a seeded jitter.
    """
    pair, mirrored = divmod(k, 2)
    jitter = float(np.random.default_rng([seed, stream, pair]).random()) / 8.0
    v = (van_der_corput(pair) + jitter) / 2.0
    return 1.0 - v if mirrored else v


def _log_uniform(lo: float, hi: float, u: float) -> float:
    return float(f"{lo * (hi / lo) ** u:.6g}")


class SweepO1:
    """``whfactor sweep`` at one eps: the paper's order-1 convergence study."""

    name = "sweep-o1"
    block = 4
    session_ops = 8
    repeat_first = True  # the determinism guard, see worker.py
    warmup_input = {"eps": 0.01, "c21": "zero"}

    def inputs(self, seed: int, k: int) -> dict:
        # each mirrored pair runs both free-constant policies
        flip = int(np.random.default_rng([seed, 0]).integers(2))
        c21 = ("zero", "match-infinity")[(k & 1) ^ ((k >> 1) & 1) ^ flip]
        return {"eps": _log_uniform(0.02, 0.1, _stratified(seed, 0, k)), "c21": c21}

    def run(self, wh, inp: dict, workdir: str):
        out = os.path.join(workdir, "sweep.csv")
        rc = wh.cli.main(["sweep", "--example", "solvable", "--eps-list", repr(inp["eps"]),
                          "--c21", inp["c21"], "--out", out])
        with open(out, "rb") as fh:
            return rc, fh.read()

    def check(self, wh, inp: dict, output) -> tuple[list, dict]:
        rc, data = output
        if rc != 0:
            return [f"exit code {rc}"], {}
        lines = data.decode().splitlines()
        if len(lines) != 3:
            return [f"expected 3 CSV lines, got {len(lines)}"], {}
        row = dict(zip(lines[1].split(","), (float(v) for v in lines[2].split(","))))
        eps = inp["eps"]
        miss = []
        if row["eps"] != eps or row["passed"] != 1.0:
            miss.append(f"row eps={row['eps']} passed={row['passed']}")
        cc = oracles.step1_constants(eps)
        c21 = -cc["c11"] ** 2 / cc["c12"] if inp["c21"] == "match-infinity" else 0.0
        want = {"c11": cc["c11"], "c12": cc["c12"], "c21": c21, "c22": cc["c22"]}
        const_err = max(abs(complex(row[f"{k}_re"], row[f"{k}_im"]) - v)
                        for k, v in want.items())
        if const_err > 1e-7:
            miss.append(f"step-1 constants off by {const_err:.3e}")
        dk_want = oracles.remainder_at_infinity(eps, inp["c21"])
        dkinf_err = max(abs(complex(row[f"dkinf{i + 1}{j + 1}_re"], row[f"dkinf{i + 1}{j + 1}_im"])
                            - dk_want[i, j]) for i in range(2) for j in range(2))
        if dkinf_err > 1e-6:
            miss.append(f"dK(inf) off by {dkinf_err:.3e}")
        ratio = row["sup_dk_over_eps2"]
        # band of acceptance criterion 5
        if not 0.1 <= ratio <= 100.0 or abs(ratio - row["sup_dk"] / eps ** 2) > 1e-9 * ratio:
            miss.append(f"sup_dk_over_eps2 = {ratio:.6g}: outside [0.1, 100] or not sup_dk/eps^2")
        return miss, {"acc.const_err": const_err, "acc.dkinf_err": dkinf_err,
                      "acc.dk1_over_eps2": ratio}


KAPPAS = ((1, -1), (2, -2), (2, 0, -2), (3, 1, -1))


class Screen:
    """Index bookkeeping plus the solvability battery on random problems."""

    name = "screen"
    block = 32
    session_ops = 16
    repeat_first = False
    warmup_input = {"kappa": [1, -1], "eps": 0.005,
                    "coefs": [[[-16, 8, 8], [24, -12, -12]], [[4, -4, 0], [16, -8, -8]]]}

    def inputs(self, seed: int, k: int) -> dict:
        j = k % len(KAPPAS)
        kappa = KAPPAS[j]
        u = _stratified(seed, 1 + j, k // len(KAPPAS))
        n = len(kappa)
        bc = np.random.default_rng([seed, k]).integers(-8, 9, size=(n, n, 2))
        coefs = [[[-int(bc[l, m, 0] + bc[l, m, 1]), int(bc[l, m, 0]), int(bc[l, m, 1])]
                  for m in range(n)] for l in range(n)]
        return {"kappa": list(kappa), "eps": _log_uniform(0.01, 0.3, u), "coefs": coefs}

    @staticmethod
    def _entry(wh, coef, eps):
        a, b, c = coef

        def ev(x, a=a, b=b, c=c, e=eps):
            return 1j * x * (a + b * np.exp(1j * e * x) + c * np.exp(-1j * e * x)) / (x * x + 1.0)

        return wh.BoundaryFunction(ev, decay_order=1.0, osc_scale=eps, label=f"{a},{b},{c}")

    def run(self, wh, inp: dict, workdir: str):
        idx = wh.PartialIndices(tuple(inp["kappa"]))
        N = wh.MatrixFunction.from_rows([[self._entry(wh, co, inp["eps"]) for co in row]
                                         for row in inp["coefs"]])
        G = wh.funcspace.combine(wh.indices.build_lambda(idx, "full"), N, "add")
        det = wh.BoundaryFunction(lambda x, G=G: np.linalg.det(G.eval_grid(np.atleast_1d(x))),
                                  label="det G")
        wind = wh.indices.winding_number(det, wh.DEFAULT_GRID)
        report = wh.factorizer.check_solvability(N, idx, wh.DEFAULT_QUAD)
        return wind, report

    def check(self, wh, inp: dict, output) -> tuple[list, dict]:
        wind, report = output
        kappa, eps, coefs = tuple(inp["kappa"]), inp["eps"], inp["coefs"]
        n = len(kappa)
        p = sum(1 for v in kappa if v > 0)
        q = n - sum(1 for v in kappa if v < 0)
        miss = []
        want_wind, gap = oracles.winding(kappa, coefs, eps)
        if wind != want_wind:
            miss.append(f"winding {wind} != {want_wind}")
        if gap < 1.0 and want_wind != sum(kappa):
            miss.append(f"winding {want_wind} != sum(kappa) under a small perturbation")
        want = {}
        for l in range(n):
            for j in range(n):
                rho, s = oracles.split_anchors(tuple(coefs[l][j]), eps)
                if l < p and j >= q:
                    want[("pin", l, j, 0)] = s
                    want[("cond5_cross", l, j, 0)] = rho
                elif l < p:
                    want[("pin", l, j, 0)] = s + rho / 2
                elif j >= q:
                    want[("pin", l, j, 0)] = s - rho / 2
        for j in range(q, n):
            for r in range(1, -kappa[j]):
                for l in range(n):
                    want[("cond2_moment", l, j, r)] = oracles.moment(tuple(coefs[l][j]), eps, -1j, r)
        for l in range(p):
            for r in range(1, kappa[l]):
                for j in range(n):
                    want[("cond4_moment", l, j, r)] = oracles.moment(tuple(coefs[l][j]), eps, 1j, r)
        got = {(r.kind, r.row, r.col, r.order): r.value for r in report.residuals}
        got.update({("pin", l, j, 0): v for (l, j), v in report.pinned_constants.items()})
        if set(got) != set(want):
            return miss + [f"residual set {sorted(got)} != {sorted(want)}"], {}
        errs = {key: abs(got[key] - want[key]) for key in want}
        worst = max(errs.values())
        if worst > 1e-7:
            miss.append(f"solvability figures off by {worst:.3e} at {max(errs, key=errs.get)}")
        resid = [abs(v) for key, v in want.items() if key[0] != "pin"]
        expect_pass = all(v <= report.tolerance * report.scale for v in resid)
        if report.passed != expect_pass:
            miss.append(f"passed={report.passed}, oracle says {expect_pass}")
        cross = [e for key, e in errs.items() if key[0] == "cond5_cross"]
        pins = [e for key, e in errs.items() if key[0] == "pin"]
        return miss, {"acc.const_err": max(pins), "acc.cross_err": max(cross)}


class Order2:
    """Two correction steps of the worked example, then both remainders."""

    name = "order2"
    block = 4
    session_ops = 8
    repeat_first = False
    warmup_input = {"eps": 0.01}

    def inputs(self, seed: int, k: int) -> dict:
        return {"eps": _log_uniform(0.02, 0.05, _stratified(seed, 9, k))}

    @staticmethod
    def quad(wh):
        # the lean spec of the order-2 unit test: with DEFAULT_QUAD one
        # operation takes 11-21 s on a 2-vCPU x86-64 VM, too few operations
        # per run for a steady median
        return wh.QuadratureSpec(nodes_per_panel=16, num_panels=32, deep_window_min=3e3,
                                 deep_scale=4e6, window_min=1e3, phase_per_panel=24.0)

    def run(self, wh, inp: dict, workdir: str):
        eps = inp["eps"]
        entry = wh.gallery.example_solvable(eps)
        fact = wh.factorizer.factorize(entry.base, entry.perturbation(eps), 2,
                                       wh.ZERO_POLICY, self.quad(wh))
        G = entry.builder(eps)
        _, sup1 = wh.factorizer.remainder(G, fact, 1, wh.PROBE_GRID)
        _, sup2 = wh.factorizer.remainder(G, fact, 2, wh.PROBE_GRID)
        return fact, sup1, sup2

    def check(self, wh, inp: dict, output) -> tuple[list, dict]:
        fact, sup1, sup2 = output
        eps = inp["eps"]
        if fact.achieved_order != 2:
            return [f"achieved order {fact.achieved_order}"], {}
        miss = []
        cc = oracles.step1_constants(eps)
        C = fact.steps[0].constants
        const_err = max(abs(C[0, 0] - cc["c11"]), abs(C[0, 1] - cc["c12"]),
                        abs(C[1, 1] - cc["c22"]), abs(C[1, 0]))
        if const_err > 1e-7:
            miss.append(f"step-1 constants off by {const_err:.3e}")
        cross = max(abs(r.value) for r in fact.steps[0].report.residuals
                    if r.kind == "cond5_cross")
        if cross > 1e-7:
            miss.append(f"step-1 cross residual {cross:.3e} should vanish")
        resid = fact.steps[1].boundary_residual(wh.PROBE_GRID.points()[::40])
        if not resid < 1e-7:
            miss.append(f"step-2 boundary residual {resid:.3e}")
        if not sup2 < sup1:
            miss.append(f"sup|dK2| = {sup2:.3e} not below sup|dK1| = {sup1:.3e}")
        return miss, {"acc.const_err": const_err, "acc.cross_err": cross,
                      "acc.dk1_over_eps2": sup1 / eps ** 2, "acc.dk2_over_dk1": sup2 / sup1,
                      "acc.step2_boundary_residual": resid}


WORKLOADS = {w.name: w for w in (SweepO1(), Screen(), Order2())}
