"""Command-line front end: index bookkeeping, solvability checks,
factorization runs and eps sweeps, with CSV/JSON emission for plot data.

Exit codes: 0 success (a recorded solvability failure is a valid result),
2 configuration error, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (ArgumentJump, NearSingular, NearZero, NoLimit,
                     QuadratureNotConverged, WHFactorError)
from .funcspace import BoundaryFunction, GridSpec, MatrixFunction, combine
from .cauchy import QuadratureSpec
from .factorizer import (BaseFactorization, ConstantPolicy, assemble,
                         check_solvability, factorize, reduce_rhs, remainder,
                         remainder_at_infinity)
from .indices import (PartialIndices, build_lambda, count_conditions, is_stable,
                      winding_number)
from . import gallery

FMT = "%.17e"


def _fmt(v: float) -> str:
    return FMT % float(v)


# ---------------------------------------------------------------------------
# user-supplied matrices: a minimal expression grammar over x
# ---------------------------------------------------------------------------

_ALLOWED_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant, ast.Name,
                  ast.Call, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow,
                  ast.USub, ast.UAdd, ast.Load)


def parse_entry_expression(text: str) -> BoundaryFunction:
    """Compile an entry expression into a boundary function.

    Grammar: numbers, ``x``, the imaginary unit ``i`` (or ``1j``), the four
    arithmetic operations, ``**``, parentheses and ``exp(...)``.  The
    oscillation hint is read from the ``exp(...)`` arguments of the parsed
    tree; the limit at infinity is estimated when it is first needed (see
    :func:`~whfactor.funcspace.limit_at_infinity`).
    """
    tree = ast.parse(text, mode="eval")
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ValueError(f"disallowed syntax in entry {text!r}: {type(node).__name__}")
        if isinstance(node, ast.Call):
            if not (isinstance(node.func, ast.Name) and node.func.id == "exp"
                    and len(node.args) == 1 and not node.keywords):
                raise ValueError(f"only exp(...) calls are allowed, got {text!r}")
        if isinstance(node, ast.Name) and node.id not in ("x", "i", "exp"):
            raise ValueError(f"unknown name {node.id!r} in entry {text!r}")
    return BoundaryFunction(_compile(tree.body), label=text,
                            osc_scale=_estimate_osc(tree.body))


def _compile(node):
    """Vectorised callable of x for a checked expression (sub)tree."""
    code = compile(ast.fix_missing_locations(ast.Expression(body=node)), "<entry>", "eval")
    env = {"exp": np.exp, "i": 1j}

    def ev(x, code=code, env=env):
        xs = np.asarray(x, dtype=float)
        out = eval(code, {"__builtins__": {}}, dict(env, x=xs + 0j))
        return np.broadcast_to(np.asarray(out, dtype=complex), xs.shape)

    return ev


_FAR = np.linspace(1e5, 1e5 + 200.0, 4001)


def _far_values(node) -> np.ndarray:
    # a subtree sampled far out on both sides, shape (2, len(_FAR))
    with np.errstate(all="ignore"):
        return _compile(node)(np.stack([-_FAR, _FAR]))


def _far_slope(v: np.ndarray) -> float:
    return float(np.max(np.abs(np.diff(v, axis=1)))) / (_FAR[1] - _FAR[0])


def _osc_rate(node) -> float:
    """Far-field oscillation rate of an expression (sub)tree.

    Only ``exp(a)`` oscillates in the grammar: it turns at the slope of
    ``Im a`` at large |x|, so a rational factor that merely winds its phase
    near the origin, like (x-i)/(x+i), contributes nothing, and a term that
    decays faster than the rest of the entry keeps its own rate.  Rates add
    under products, quotients and constant powers and take the max under
    sums; an oscillating exponent or argument adds its own rate.
    """
    if isinstance(node, ast.Call):
        arg = node.args[0]
        return _far_slope(_far_values(arg).imag) + _osc_rate(arg)
    if isinstance(node, ast.UnaryOp):
        return _osc_rate(node.operand)
    if not isinstance(node, ast.BinOp):
        return 0.0
    a, b = _osc_rate(node.left), _osc_rate(node.right)
    if isinstance(node.op, (ast.Add, ast.Sub)):
        return max(a, b)
    if isinstance(node.op, ast.Pow):
        k = _far_values(node.right)
        if b == 0.0 and np.all(k == k.flat[0]):
            return abs(k.flat[0]) * a
        # a varying exponent: exp(b log a) turns with the phase of the power
        return _far_slope(np.unwrap(np.angle(_far_values(node)), axis=1)) + a + b
    return a + b


def _estimate_osc(node) -> float:
    # osc_scale hint with a 1.5x margin; NaN from overflowing samples counts
    # as the fastest rate
    rate = _osc_rate(node)
    if not rate < np.inf:
        rate = np.inf
    return float(0.0 if rate < 1e-6 else min(rate * 1.5, 64.0))


def load_user_spec(path: str):
    """Load a user matrix description.

    JSON schema: ``{"dim": n, "indices": [...], "entries": [[expr, ...], ...]}``
    where entries describe the perturbed matrix; the base factorization is the
    diagonal factor of the given indices with identity outer factors.
    """
    with open(path) as fh:
        doc = json.load(fh)
    n = int(doc["dim"])
    idx = PartialIndices(tuple(doc["indices"]))
    if idx.n != n:
        raise ValueError("indices length must equal dim")
    rows = doc["entries"]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError("entries must be an n x n array of expressions")
    entries = [[parse_entry_expression(str(e)) for e in row] for row in rows]
    G = MatrixFunction.from_rows(entries, label=os.path.basename(path))
    base = BaseFactorization.with_identity_outer(idx)
    pert = combine(G, build_lambda(idx, "full"), "sub")
    return G, base, pert


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    example: str
    eps: float
    eps_list: list
    order: int
    c21: object  # "zero" | "match-infinity" | complex
    grid: GridSpec
    quad: QuadratureSpec
    tol: float
    out: str | None
    format: str


def _build_config(args) -> RunConfig:
    if args.eps < 0:
        raise ValueError("--eps must be >= 0")
    if args.order < 1:
        raise ValueError("--order must be >= 1")
    if args.grid_points < 3:
        raise ValueError("--grid-points must be >= 3")
    panels = args.panels
    env = os.environ.get("WHFACTOR_QUAD_PANELS")
    if panels is None:
        panels = int(env) if env else 64
    quad = QuadratureSpec(nodes_per_panel=args.nodes, num_panels=panels)
    c21 = args.c21
    if c21 not in ("zero", "match-infinity"):
        try:
            c21 = complex(float(c21))
        except ValueError:
            raise ValueError("--c21 must be 'zero', 'match-infinity' or a number")
    eps_list = []
    if args.eps_list:
        eps_list = [float(s) for s in args.eps_list.split(",") if s.strip()]
        if any(e < 0 for e in eps_list):
            raise ValueError("--eps-list values must be >= 0")
    return RunConfig(example=args.example, eps=args.eps, eps_list=eps_list,
                     order=args.order, c21=c21,
                     grid=GridSpec(num_points=args.grid_points),
                     quad=quad, tol=args.tol, out=args.out, format=args.format)


def _resolve_example(cfg: RunConfig, eps: float):
    """Returns (matrix, base, perturbation) for a gallery name or a spec file."""
    name = cfg.example
    if name in gallery.GALLERY_NAMES:
        entry = gallery.by_name(name, eps)
        return entry.builder(eps), entry.base, entry.perturbation(eps)
    if os.path.exists(name):
        return load_user_spec(name)
    raise KeyError(f"unknown example {name!r} (gallery: {', '.join(gallery.GALLERY_NAMES)}; "
                   "or pass a JSON spec path)")


def _policy(cfg: RunConfig) -> ConstantPolicy:
    if cfg.c21 == "zero":
        return ConstantPolicy("zero")
    if cfg.c21 == "match-infinity":
        return ConstantPolicy("match_infinity")
    return ConstantPolicy("explicit", {(1, 0): complex(cfg.c21)})


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_indices(cfg: RunConfig) -> int:
    G, base, _ = _resolve_example(cfg, cfg.eps)
    idx = base.indices
    det = BoundaryFunction(
        lambda x, G=G: np.linalg.det(G.eval_grid(np.atleast_1d(x))),
        label="det G")
    wind = winding_number(det, cfg.grid)
    counts = count_conditions(idx)
    doc = {
        "example": cfg.example,
        "eps": cfg.eps,
        "winding_det": wind,
        "indices": list(idx.kappa),
        "indices_sum": idx.total,
        "stable": is_stable(idx),
        "solvability_count": counts.solvability_count,
        "pinned_constants": counts.pinned_constants,
        "free_constants": counts.free_constants,
    }
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", cfg.out)
    return 0


def _report_doc(report) -> dict:
    return {
        "passed": report.passed,
        "tolerance": report.tolerance,
        "scale": report.scale,
        "rho": [
            {"kind": r.kind, "row": r.row + 1, "col": r.col + 1, "order": r.order,
             "value": {"re": r.value.real, "im": r.value.imag}}
            for r in report.residuals
        ],
        "pinned": {
            f"c{l + 1}{j + 1}": {"re": v.real, "im": v.imag}
            for (l, j), v in sorted(report.pinned_constants.items())
        },
    }


def cmd_check(cfg: RunConfig) -> int:
    _, base, N = _resolve_example(cfg, cfg.eps)
    M = reduce_rhs(base, N)
    report = check_solvability(M, base.indices, cfg.quad, cfg.tol)
    doc = {"example": cfg.example, "eps": cfg.eps}
    doc.update(_report_doc(report))
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", cfg.out)
    return 0


def _factorize_rows(cfg: RunConfig, eps: float):
    G, base, N = _resolve_example(cfg, eps)
    fact = factorize(base, N, cfg.order, _policy(cfg), cfg.quad, cfg.tol)
    xs = cfg.grid.points()
    n = base.dim
    header = ["x"]
    for tag in ("minus", "plus", "prod", "dk"):
        for i in range(n):
            for j in range(n):
                header += [f"{tag}{i + 1}{j + 1}_re", f"{tag}{i + 1}{j + 1}_im"]
    rows = []
    if fact.achieved_order >= 1:
        m = min(cfg.order, fact.achieved_order)
        minus, _, plus, prod = assemble(fact, m, xs)
        dk = G.eval_grid(xs) - prod
    else:
        minus = base.g_minus.eval_grid(xs)
        plus = base.g_plus.eval_grid(xs)
        prod = base.product_grid(xs)
        dk = G.eval_grid(xs) - prod
    for k in range(xs.size):
        row = [xs[k]]
        for block in (minus, plus, prod, dk):
            for i in range(n):
                for j in range(n):
                    row += [block[k, i, j].real, block[k, i, j].imag]
        rows.append(row)
    return fact, header, rows, float(np.max(np.abs(dk)))


def cmd_factorize(cfg: RunConfig) -> int:
    fact, header, rows, sup_dk = _factorize_rows(cfg, cfg.eps)
    meta = {
        "example": cfg.example, "eps": cfg.eps, "order": cfg.order,
        "c21": str(cfg.c21), "achieved_order": fact.achieved_order,
        "sup_dk": sup_dk,
    }
    if cfg.format == "json":
        doc = dict(meta)
        doc["columns"] = header
        doc["rows"] = [[v if isinstance(v, str) else float(v) for v in r] for r in rows]
        if fact.failure is not None:
            doc["failure"] = _report_doc(fact.failure)
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        lines = ["# " + json.dumps(meta, sort_keys=True)]
        if fact.failure is not None:
            lines.append("# FAILED " + json.dumps(_report_doc(fact.failure), sort_keys=True))
        lines.append(",".join(header))
        for r in rows:
            lines.append(",".join(_fmt(v) for v in r))
        text = "\n".join(lines) + "\n"
    out = cfg.out or f"whfactor_factorize_{cfg.example}.{cfg.format}"
    _emit(text, out)
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    eps_values = cfg.eps_list or [cfg.eps]
    n = None
    lines_meta = {"example": cfg.example, "order": 1, "c21": str(cfg.c21)}
    rows = []
    for eps in eps_values:
        G, base, N = _resolve_example(cfg, eps)
        if n is None:
            n = base.dim
        fact = factorize(base, N, 1, _policy(cfg), cfg.quad, cfg.tol)
        if fact.achieved_order >= 1:
            _, sup_dk = remainder(G, fact, 1, cfg.grid)
            dk_inf = remainder_at_infinity(fact)
            C = fact.steps[0].constants
            rows.append((eps, True, sup_dk, dk_inf, C))
        else:
            rows.append((eps, False, None, None, None))
    header = ["eps", "passed", "sup_dk", "sup_dk_over_eps2"]
    for i in range(n):
        for j in range(n):
            header += [f"dkinf{i + 1}{j + 1}_re", f"dkinf{i + 1}{j + 1}_im"]
    for i in range(n):
        for j in range(n):
            header += [f"c{i + 1}{j + 1}_re", f"c{i + 1}{j + 1}_im"]
    out_lines = ["# " + json.dumps(lines_meta, sort_keys=True), ",".join(header)]
    json_rows = []
    for eps, ok, sup_dk, dk_inf, C in rows:
        if ok:
            vals = [eps, 1.0, sup_dk, sup_dk / eps**2 if eps > 0 else 0.0]
            for i in range(n):
                for j in range(n):
                    vals += [dk_inf[i, j].real, dk_inf[i, j].imag]
            for i in range(n):
                for j in range(n):
                    vals += [C[i, j].real, C[i, j].imag]
            out_lines.append(",".join(_fmt(v) for v in vals))
            json_rows.append(dict(zip(header, [float(v) for v in vals])))
        else:
            vals = [_fmt(eps), _fmt(0.0)] + [""] * (len(header) - 2)
            out_lines.append(",".join(vals))
            json_rows.append({"eps": eps, "passed": 0.0})
    if cfg.format == "json":
        text = json.dumps(dict(lines_meta, rows=json_rows), indent=2, sort_keys=True) + "\n"
    else:
        text = "\n".join(out_lines) + "\n"
    out = cfg.out or f"whfactor_sweep_{cfg.example}.{cfg.format}"
    _emit(text, out)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="whfactor",
        description="Asymptotic factorization of perturbed matrix functions "
                    "with an unstable set of partial indices.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn in (("indices", cmd_indices), ("check", cmd_check),
                     ("factorize", cmd_factorize), ("sweep", cmd_sweep)):
        p = sub.add_parser(name)
        p.set_defaults(func=fn)
        p.add_argument("--example", required=True,
                       help="gallery name (gk0, gk-singular, solvable, unsolvable) "
                            "or path to a JSON matrix spec")
        p.add_argument("--eps", type=float, default=0.1)
        p.add_argument("--eps-list", default="",
                       help="comma-separated eps values (sweep)")
        p.add_argument("--order", type=int, default=1)
        p.add_argument("--c21", default="zero",
                       help="free-constant policy: zero, match-infinity, or a number")
        p.add_argument("--grid-points", type=int, default=2001)
        p.add_argument("--panels", type=int, default=None,
                       help="quadrature panels (default 64; env WHFACTOR_QUAD_PANELS)")
        p.add_argument("--nodes", type=int, default=32)
        p.add_argument("--tol", type=float, default=1e-6)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = _build_config(args)
        return args.func(cfg)
    except (KeyError, ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureNotConverged, NoLimit, ArgumentJump, NearZero, NearSingular) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except WHFactorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
