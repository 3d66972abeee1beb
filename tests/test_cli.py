import json
import os

import numpy as np
import pytest

from whfactor import assemble, factorize, gallery, remainder_at_infinity
from whfactor.cli import load_user_spec, main, parse_entry_expression


def run(args):
    return main(args)


class TestIndicesCommand:
    def test_gk0(self, tmp_path, capsys):
        out = tmp_path / "idx.json"
        assert run(["indices", "--example", "gk0", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["winding_det"] == 0
        assert doc["indices"] == [1, -1]
        assert doc["stable"] is False
        assert doc["solvability_count"] == 1

    def test_unknown_example_exits_2(self, capsys):
        assert run(["indices", "--example", "nope"]) == 2

    def test_bad_flag_exits_2(self):
        assert run(["indices", "--example", "gk0", "--order", "0"]) == 2
        assert run(["indices", "--example", "gk0", "--grid-points", "2"]) == 2
        assert run(["indices", "--example", "gk0", "--eps", "-1"]) == 2


class TestCheckCommand:
    def test_solvable_passes(self, tmp_path):
        out = tmp_path / "check.json"
        assert run(["check", "--example", "solvable", "--eps", "0.1",
                    "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] is True

    def test_unsolvable_residual(self, tmp_path):
        out = tmp_path / "check.json"
        assert run(["check", "--example", "unsolvable", "--eps", "0.1",
                    "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] is False
        rho = [r for r in doc["rho"] if r["kind"] == "cond5_cross"][0]
        want = 4 * 0.1 * np.exp(-0.1)
        assert abs(rho["value"]["re"] - want) < 1e-5
        assert abs(rho["value"]["im"]) < 1e-7

    def test_unsolvable_at_zero_passes(self, tmp_path):
        out = tmp_path / "check.json"
        assert run(["check", "--example", "unsolvable", "--eps", "0",
                    "--out", str(out)]) == 0
        assert json.loads(out.read_text())["passed"] is True


class TestFactorizeCommand:
    def test_solvable_file_layout(self, tmp_path):
        out = tmp_path / "fact.csv"
        assert run(["factorize", "--example", "solvable", "--eps", "0.1",
                    "--order", "1", "--grid-points", "101", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        meta = json.loads(lines[0][2:])
        assert meta["achieved_order"] == 1
        header = lines[1].split(",")
        assert header[0] == "x"
        assert "dk11_re" in header
        assert len(lines) == 2 + 101

    def test_eps_zero_remainder_negligible(self, tmp_path):
        out = tmp_path / "fact0.csv"
        assert run(["factorize", "--example", "solvable", "--eps", "0",
                    "--grid-points", "51", "--out", str(out)]) == 0
        meta = json.loads(out.read_text().splitlines()[0][2:])
        assert meta["sup_dk"] < 1e-8

    def test_unsolvable_embeds_failure(self, tmp_path):
        out = tmp_path / "factu.csv"
        assert run(["factorize", "--example", "unsolvable", "--eps", "0.1",
                    "--grid-points", "51", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        meta = json.loads(lines[0][2:])
        assert meta["achieved_order"] == 0
        assert lines[1].startswith("# FAILED")

    def test_json_format(self, tmp_path):
        out = tmp_path / "fact.json"
        assert run(["factorize", "--example", "solvable", "--eps", "0.1",
                    "--grid-points", "21", "--format", "json",
                    "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["achieved_order"] == 1
        assert len(doc["rows"]) == 21


class TestSweepCommand:
    def test_deterministic_outputs(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["sweep", "--example", "solvable", "--eps-list", "0.1,0.05",
                "--grid-points", "201"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_limit_column_matches_closed_form(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--example", "solvable", "--eps-list", "0.1",
                    "--grid-points", "201", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        header = lines[1].split(",")
        row = [v for v in lines[2].split(",")]
        val = float(row[header.index("dkinf11_re")])
        E = np.exp(-0.1)
        assert abs(val - 16 * (1 - E + 0.1 * E) ** 2) < 1e-3

    def test_match_infinity_policy_column(self, tmp_path):
        out = tmp_path / "sweepz.csv"
        assert run(["sweep", "--example", "solvable", "--eps-list", "0.1",
                    "--c21", "match-infinity", "--grid-points", "201",
                    "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        header = lines[1].split(",")
        row = lines[2].split(",")
        for col in ("dkinf11_re", "dkinf22_re", "dkinf11_im"):
            assert abs(float(row[header.index(col)])) < 1e-6

    def test_json_format(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert run(["sweep", "--example", "solvable", "--eps-list", "0.1",
                    "--grid-points", "101", "--format", "json",
                    "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["rows"][0]["passed"] == 1.0
        assert "dkinf11_re" in doc["rows"][0]

    def test_unsolvable_row_marked_failed(self, tmp_path):
        out = tmp_path / "sweepu.csv"
        assert run(["sweep", "--example", "unsolvable", "--eps-list", "0.1",
                    "--grid-points", "51", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        header = lines[1].split(",")
        row = lines[2].split(",")
        assert float(row[header.index("passed")]) == 0.0


class TestUserSpec:
    def test_expression_grammar(self):
        f = parse_entry_expression("(x-i)/(x+i)")
        assert abs(f(0.0) + 1.0) < 1e-12
        g = parse_entry_expression("exp(i*0.5*x)*x/(x**2+1)")
        assert g.osc_scale >= 0.5
        assert abs(g(2.0) - np.exp(1j) * 2 / 5) < 1e-12

    def test_oscillation_estimate_ignores_phase_winding(self):
        # rational entries wind their phase near the origin but do not oscillate
        for text in ("(x-i)/(x+i) + 1/(x+i)", "(x+i)/(x-i)", "0.25", "1/(x+i)**3",
                     "(x**3+2*x+i)/((x+2*i)**2*(x-3*i)**2)"):
            assert parse_entry_expression(text).osc_scale == 0.0, text
        assert parse_entry_expression("exp(2*i*x)/(x+i)").osc_scale >= 2.0
        # an oscillating term that decays faster than the rest of the entry
        perturbed = "(x-i)/(x+i) + 0.1*exp(i*x)/(x**2+1)"
        assert parse_entry_expression(perturbed).osc_scale >= 1.0
        # cosine amplitudes have no phase rate and real zeros, yet get their
        # own rate, not the cap
        for text, rate in (("x*i*(2-exp(0.1*i*x)-exp(-0.1*i*x))/(x**2+1)", 0.1),
                           ("(exp(i*x)+exp(-i*x))/(x**2+1)", 1.0)):
            assert rate <= parse_entry_expression(text).osc_scale <= 2.0 * rate, text
        assert parse_entry_expression("exp(i*x)**3/(x**2+1)").osc_scale >= 3.0

    def test_rejects_unsafe_syntax(self):
        for bad in ("__import__('os')", "x.real", "sin(x)", "lambda y: y"):
            with pytest.raises(Exception):
                parse_entry_expression(bad)

    def test_user_matrix_roundtrip(self, tmp_path):
        spec = {
            "dim": 2,
            "indices": [1, -1],
            "entries": [["(x-i)/(x+i)", "0.25"], ["0", "(x+i)/(x-i)"]],
        }
        path = tmp_path / "user.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "idx.json"
        assert run(["indices", "--example", str(path), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["indices"] == [1, -1]
        assert doc["winding_det"] == 0

    def test_remainder_at_infinity_of_non_decaying_rhs(self, tmp_path):
        # the (2,1) entry of N = G - Lambda tends to 0.25, so the limit of the
        # remainder is not the square of the constant matrix
        spec = {"dim": 2, "indices": [1, -1],
                "entries": [["(x-i)/(x+i) + 1/(x+i)", "0"], ["0.25", "(x+i)/(x-i)"]]}
        path = tmp_path / "tail.json"
        path.write_text(json.dumps(spec))
        G, base, N = load_user_spec(str(path))
        fact = factorize(base, N, 1)
        dk_inf = remainder_at_infinity(fact)
        assert abs(dk_inf[1, 0] - (-0.125j)) < 1e-6
        for x in (1e2, 1e3, 4e3, -4e3):
            measured = G(x) - assemble(fact, 1, x)[3]
            assert np.max(np.abs(measured - dk_inf)) < 1e-6

    def test_user_spec_matches_gallery(self, tmp_path):
        # the solvable example typed in as expressions: its decaying entries
        # get limit 0 from the tail estimator, as the gallery's metadata says
        osc = "{} {:+}*exp(0.1*i*x) {:+}*exp(-0.1*i*x)"

        def trig(a, b, c):
            return f"x*i*({osc.format(a, b, c)})/(x**2+1)"

        def diag(a, b, c):
            return f"(x**2 + x*i*({osc.format(a, b, c)}) - 1)/(x**2+1)"

        spec = {"dim": 2, "indices": [1, -1],
                "entries": [[diag(-18, 8, 8), trig(24, -12, -12)],
                            [trig(-12, 4, 8), diag(18, -8, -8)]]}
        path = tmp_path / "solvable.json"
        path.write_text(json.dumps(spec))
        _, base, N = load_user_spec(str(path))
        user = factorize(base, N, 1)
        entry = gallery.example_solvable(0.1)
        ref = factorize(entry.base, entry.perturbation(0.1), 1)
        assert np.max(np.abs(user.steps[0].constants - ref.steps[0].constants)) < 1e-12
        assert np.max(np.abs(remainder_at_infinity(user) - remainder_at_infinity(ref))) < 1e-12

    def test_entry_without_limit_exits_3(self, tmp_path, capsys):
        # an oscillating part that never decays leaves no limit at infinity
        spec = {"dim": 2, "indices": [1, -1],
                "entries": [["(x-i)/(x+i) + 0.1*exp(0.5*i*x)", "0"], ["0", "(x+i)/(x-i)"]]}
        path = tmp_path / "nolimit.json"
        path.write_text(json.dumps(spec))
        assert run(["check", "--example", str(path), "--out", str(tmp_path / "c.json")]) == 3
        assert "no limit at infinity" in capsys.readouterr().err

    def test_fast_oscillation_passes(self, tmp_path):
        # osc_scale 30: the deep table of the split anchors is 0.72M nodes
        spec = {"dim": 2, "indices": [1, -1],
                "entries": [["(x-i)/(x+i) + 0.1*exp(20*i*x)/(x**2+1)", "0"],
                            ["0", "(x+i)/(x-i)"]]}
        path = tmp_path / "osc20.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "c.json"
        assert run(["check", "--example", str(path), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] is True
        # M11 = 0.1 e^{20ix}/(x^2+1): by residues at x = i the upper part at i
        # is s + rho/2 = 0.5 e^-20 + 0.525 e^-20
        c11 = complex(doc["pinned"]["c11"]["re"], doc["pinned"]["c11"]["im"])
        assert abs(c11 - 1.025 * np.exp(-20.0)) < 1e-15

    def test_identity_base_is_stable(self, tmp_path):
        spec = {"dim": 2, "indices": [0, 0], "entries": [["1", "0"], ["0", "1"]]}
        path = tmp_path / "ident.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "idx.json"
        assert run(["indices", "--example", str(path), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["winding_det"] == 0
        assert doc["stable"] is True
        assert doc["solvability_count"] == 0

    def test_degenerate_matrix_exits_3(self, tmp_path):
        spec = {"dim": 1, "indices": [0], "entries": [["x/(x**2+1)"]]}
        path = tmp_path / "dip.json"
        path.write_text(json.dumps(spec))
        # the determinant dips through zero, so the winding number is undefined
        assert run(["indices", "--example", str(path)]) == 3

    def test_env_var_panel_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WHFACTOR_QUAD_PANELS", "32")
        out = tmp_path / "check.json"
        assert run(["check", "--example", "solvable", "--eps", "0.1",
                    "--out", str(out)]) == 0
        assert json.loads(out.read_text())["passed"] is True

    def test_table_over_node_budget_exits_3(self, tmp_path, capsys):
        # 2^20 panels of 32 nodes: a 33.5M-node tan table, over the budget
        out = tmp_path / "check.json"
        assert run(["check", "--example", "gk0", "--panels", str(1 << 20),
                    "--out", str(out)]) == 3
        assert "over the budget" in capsys.readouterr().err
        assert not out.exists()
