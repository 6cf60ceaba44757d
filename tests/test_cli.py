import json
import subprocess
import sys

import pytest

from conestab import cli

CLI = [sys.executable, "-m", "conestab.cli"]

UNSTABLE_QUINTIC = {"coeffs": [5, 14, 12.5, 7.2, 3, 1]}
STABLE_QUINTIC = {"coeffs": [5, 25, 50, 30, 10, 3]}
E2_FORM = {"n": 3, "d": 2, "terms": [{"exp": [1, 1, 0], "coef": 1},
                                     {"exp": [1, 0, 1], "coef": 1},
                                     {"exp": [0, 1, 1], "coef": 1}]}


def run_cli(args, payload=None):
    data = json.dumps(payload) if payload is not None else ""
    return subprocess.run(CLI + args, input=data, capture_output=True,
                          text=True)


def run_json(args, payload=None):
    proc = run_cli(args, payload)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestUnipolyCommand:
    def test_unstable_quintic_report(self):
        rep = run_json(["unipoly"], UNSTABLE_QUINTIC)
        assert rep["clc"]["non_strict"]["status"] == "holds"
        assert rep["deciders"]["routh_hurwitz"]["status"] == "fails"
        assert rep["consistent"] is True

    def test_stable_quintic_report(self):
        rep = run_json(["unipoly"], STABLE_QUINTIC)
        assert rep["deciders"]["routh_hurwitz"]["status"] == "holds"
        assert rep["clc"]["non_strict"]["status"] == "fails"
        assert rep["criteria"]["quintic"]["status"] == "fails-hypothesis"

    def test_non_clc_quadratic_witness(self):
        rep = run_json(["unipoly"], {"coeffs": [1, 1, 1]})
        assert rep["clc"]["non_strict"]["status"] == "fails"
        assert rep["clc"]["non_strict"]["witness"] == ["weighted-newton", 1]

    def test_criteria_gating_labels(self):
        rep = run_json(["unipoly"], {"coeffs": [1, 1, 1]})
        assert rep["criteria"]["quintic"]["status"] == "not-applicable"
        assert rep["criteria"]["clc_d_le_4"]["status"] == "fails-hypothesis"

    def test_degree_zero_is_input_error(self):
        proc = run_cli(["unipoly"], {"coeffs": [4]})
        assert proc.returncode == 2

    def test_parse_error_exit_code(self):
        proc = subprocess.run(CLI + ["unipoly"], input="not json",
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert "error" in proc.stderr

    @pytest.mark.parametrize("coeffs", [[1e300, 1e300, 1],
                                        [1, 1e200, 1e200, 1]])
    def test_huge_coefficients_keep_exact_verdicts(self, coeffs):
        # exact minors past the float range still give float margins; the
        # companion roots of these fail their residual check, so the root
        # oracle is unknown and no roots are listed
        proc = run_cli(["unipoly"], {"coeffs": coeffs})
        assert proc.returncode == 0
        assert proc.stderr == ""
        rep = json.loads(proc.stdout)
        assert rep["deciders"]["routh_hurwitz"]["status"] == "holds"
        assert all(abs(m) <= 1 for m in rep["minor_margins"])
        oracle = rep["deciders"]["root_oracle"]
        assert oracle["status"] == "unknown"
        assert oracle["note"].startswith("root solver did not converge")
        assert rep["roots"] is None

    def test_float_mode_minor_overflow_prints_no_warning(self):
        # float minors past the float range read inf, without a numpy warning
        proc = run_cli(["unipoly", "--mode", "float"],
                       {"coeffs": [1, 1e200, 1e200, 1]})
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["config"]["mode"] == "float"

    def test_exact_coefficients_beyond_float_range_decide(self):
        # 1 + 10^400 t + t^2 is stable; no float of 10^400 exists, so only
        # the root oracle, which needs floats, cannot answer
        proc = run_cli(["unipoly"], {"coeffs": [1, "1" + "0" * 400 + "/1", 1]})
        assert proc.returncode == 0
        assert proc.stderr == ""
        rep = json.loads(proc.stdout)
        for name, verdict in rep["deciders"].items():
            assert verdict["status"] == ("unknown" if name == "root_oracle"
                                         else "holds"), name
        assert "beyond the float range" in rep["deciders"]["root_oracle"]["note"]
        assert rep["roots"] is None
        assert rep["consistent"] is True

    def test_overflow_is_numeric_failure(self, monkeypatch, tmp_path, capsys):
        def overflow(*args, **kwargs):
            raise OverflowError("int too large to convert to float")

        monkeypatch.setattr(cli, "stability_report", overflow)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(STABLE_QUINTIC))
        assert cli.main(["unipoly", str(path)]) == 3
        err = capsys.readouterr().err
        assert json.loads(err.splitlines()[-1]) == {
            "error": "int too large to convert to float"}


class TestFormCommand:
    def test_elementary_symmetric_all_pass(self):
        rep = run_json(["form", "--trials", "25"], E2_FORM)
        checks = rep["checks"]
        assert checks["lorentzian_sampled"]["verdict"]["status"] == "holds"
        assert checks["clc_necessary"]["verdict"]["status"] == "holds-sampled"
        assert checks["hessian_signature"]["verdict"]["status"] == "holds-sampled"
        assert checks["hurwitz_over_cone"]["verdict"]["status"] == "holds-sampled"

    def test_sum_of_squares_lorentzian_witness(self):
        payload = {"n": 2, "d": 2, "terms": [{"exp": [2, 0], "coef": 1},
                                             {"exp": [0, 2], "coef": 1}]}
        rep = run_json(["form", "--trials", "10"], payload)
        verdict = rep["checks"]["lorentzian_sampled"]["verdict"]
        assert verdict["status"] == "fails"
        assert verdict["witness"] == ["positive-eigenvalues", 2]

    def test_second_order_cone_sampled_labels(self, tmp_path):
        cone_file = tmp_path / "cone.json"
        cone_file.write_text(json.dumps({"type": "second_order", "n": 2}))
        payload = {"n": 2, "d": 2, "terms": [{"exp": [1, 1], "coef": 1}]}
        rep = run_json(["form", "--cone", str(cone_file), "--trials", "20"],
                       payload)
        status = rep["checks"]["lorentzian_sampled"]["verdict"]["status"]
        assert status.endswith("-sampled") or status in ("fails", "unknown")

    def test_dimension_mismatch_is_input_error(self, tmp_path):
        cone_file = tmp_path / "cone.json"
        cone_file.write_text(json.dumps({"type": "orthant", "n": 5}))
        proc = run_cli(["form", "--cone", str(cone_file)], E2_FORM)
        assert proc.returncode == 2


class TestMatrixCommand:
    def test_lti_route(self):
        rep = run_json(["matrix"], {"rows": [[-1, 0], [0, -2]]})
        assert rep["lti_report"]["conclusion"] == "stable"
        assert rep["lti_report"]["clc_d_le_4"]["status"] == "holds"

    def test_huge_exact_entries_decide_exactly(self):
        # exact slacks near 1e600 are compared with 0, never cast to float
        rep = run_json(["matrix"], {"rows": [[1e300, 1e300], [1e300, 1e300]]})
        rh = rep["lti_report"]["routh_hurwitz"]
        assert rh["status"] == "fails"
        assert rh["witness"] == ["coefficient", 0]
        assert rep["lti_report"]["conclusion"] == "unstable"

    def test_cone_route_irreducible_permutation(self, tmp_path):
        cone_file = tmp_path / "cone.json"
        cone_file.write_text(json.dumps({"type": "orthant", "n": 3}))
        rep = run_json(["matrix", "--cone", str(cone_file)],
                       {"rows": [[0, 1, 0], [0, 0, 1], [1, 0, 0]]})
        cm = rep["cone_matrix_report"]
        assert cm["k_irreducible"]["status"] == "holds"
        assert cm["perron"]["eigenvector_interior"] is True

    def test_cone_route_block_diagonal_reducible(self, tmp_path):
        cone_file = tmp_path / "cone.json"
        cone_file.write_text(json.dumps({"type": "orthant", "n": 3}))
        rep = run_json(["matrix", "--cone", str(cone_file)],
                       {"rows": [[1, 1, 0], [1, 1, 0], [0, 0, 1]]})
        assert rep["cone_matrix_report"]["k_irreducible"]["status"] == "fails"


class TestRestrictCommand:
    def test_prints_restriction_coefficients(self):
        payload = {"form": {"n": 2, "d": 2,
                            "terms": [{"exp": [2, 0], "coef": 1},
                                      {"exp": [1, 1], "coef": 2},
                                      {"exp": [0, 2], "coef": 1}]},
                   "x": [1, 1], "v": [1, 1]}
        rep = run_json(["restrict"], payload)
        assert rep["restriction"]["coeffs"] == [4, 8, 4]


class TestDeterminismAndConfig:
    @pytest.mark.parametrize("args,payload", [
        (["unipoly", "--seed", "11"], STABLE_QUINTIC),
        (["form", "--seed", "11", "--trials", "40"], E2_FORM),
        (["matrix", "--seed", "11"], {"rows": [[-1, 0], [0, -2]]}),
    ])
    def test_byte_identical_reruns(self, args, payload):
        out1 = run_cli(args, payload)
        out2 = run_cli(args, payload)
        assert out1.returncode == out2.returncode == 0
        assert out1.stdout == out2.stdout

    def test_config_echoed(self):
        rep = run_json(["unipoly", "--seed", "3", "--trials", "7",
                        "--tol-abs", "1e-8", "--mode", "exact"],
                       STABLE_QUINTIC)
        assert rep["config"] == {"tol_abs": 1e-8, "tol_rel": 1e-9,
                                 "trials": 7, "seed": 3, "mode": "exact"}

    def test_float_mode_changes_arithmetic(self):
        rep = run_json(["unipoly", "--mode", "float"], UNSTABLE_QUINTIC)
        # the equality at the binding index sits inside the float band
        assert rep["clc"]["non_strict"]["status"] == "unknown"

    def test_out_file(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli(["unipoly", "--out", str(out)], STABLE_QUINTIC)
        assert proc.returncode == 0 and proc.stdout == ""
        assert json.loads(out.read_text())["consistent"] is True

    def test_input_from_file(self, tmp_path):
        src = tmp_path / "poly.json"
        src.write_text(json.dumps(STABLE_QUINTIC))
        proc = subprocess.run(CLI + ["unipoly", str(src)],
                              capture_output=True, text=True)
        assert proc.returncode == 0
