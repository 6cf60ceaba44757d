import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from conestab import cli
from conestab.numerics import all_roots
from conestab.unipoly import unipoly_from_json
from conestab.verdict import Verdict

CLI = [sys.executable, "-m", "conestab.cli"]
ROOT = Path(__file__).resolve().parents[1]

UNSTABLE_QUINTIC = {"coeffs": [5, 14, 12.5, 7.2, 3, 1]}
STABLE_QUINTIC = {"coeffs": [5, 25, 50, 30, 10, 3]}
E2_FORM = {"n": 3, "d": 2, "terms": [{"exp": [1, 1, 0], "coef": 1},
                                     {"exp": [1, 0, 1], "coef": 1},
                                     {"exp": [0, 1, 1], "coef": 1}]}


# float entries whose characteristic polynomial overflows to nan
# coefficients in float mode
OVERFLOW_MATRIX = {"rows": [[1e200, 1e200, 0], [1e200, 1e200, 1e200],
                            [0, 1e200, 1e200]]}


def reject(token):
    """A ``parse_constant`` for strict JSON: NaN and Infinity are errors."""
    raise ValueError(f"non-standard JSON token {token}")


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

    def test_float_mode_overflow_writes_strict_json(self):
        # JSON has no NaN or Infinity: the inf minors and their nan margins
        # are written as null, and the finite margin as computed (its float
        # bound rounds just below the minor, so it reads a hair above 1)
        proc = run_cli(["unipoly", "--mode", "float"],
                       {"coeffs": [1, 1e200, 1e200, 1]})
        assert proc.returncode == 0
        rep = json.loads(proc.stdout, parse_constant=reject)
        assert rep["minors"][1:] == [None, None]
        assert rep["minor_margins"][1:] == [None, None]
        assert rep["minor_margins"][0] == pytest.approx(1.0, abs=1e-12)

    def test_jsonable_writes_non_finite_floats_as_null(self):
        nan, inf = float("nan"), float("inf")
        assert cli.jsonable([1.5, nan, -inf]) == [1.5, None, None]
        assert cli.jsonable(complex(inf, 2.0)) == [None, 2.0]
        assert cli.jsonable(Verdict("unknown", margin=nan)) == {
            "status": "unknown", "margin": None}

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

    def test_roots_are_the_oracle_roots_of_p(self):
        # the report's roots come from the root oracle's solve on -p, and
        # equal the companion roots of p itself
        payload = {"coeffs": [-5, -14, "-25/2", "-36/5", -3, -1]}
        rep = cli.cmd_unipoly(payload, cli.RunConfig())
        p = unipoly_from_json(payload)
        assert rep["roots"] == cli.jsonable(all_roots(p))
        assert rep["deciders"]["root_oracle"]["status"] == "fails"

    def test_roots_null_when_the_oracle_is_unknown(self):
        rep = cli.cmd_unipoly({"coeffs": [1, 10 ** 400, 1]}, cli.RunConfig())
        assert rep["roots"] is None
        assert rep["deciders"]["root_oracle"]["status"] == "unknown"
        assert rep["deciders"]["routh_hurwitz"]["status"] == "holds"

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

    @pytest.mark.parametrize("cone", [
        None, {"type": "polyhedral", "generators": [[1, 0, 1], [0, 1, 1],
                                                    [-1, 0, 1], [0, -1, 1]]}],
        ids=["orthant", "pyramid"])
    def test_zero_form_holds_by_convention(self, tmp_path, cone):
        # 0 is in the Lorentzian class: the three necessary checks take
        # the zero polynomial convention of is_univariate_clc and sample
        # nothing; Hurwitz stability does not apply to the zero form
        args = ["form", "--trials", "10"]
        if cone is not None:
            (tmp_path / "cone.json").write_text(json.dumps(cone))
            args += ["--cone", str(tmp_path / "cone.json")]
        checks = run_json(args, {"n": 3, "d": 4, "terms": []})["checks"]
        for name, check in (("clc_necessary", "clc-necessary"),
                            ("lorentzian_sampled", "lorentzian-sampled"),
                            ("hessian_signature", "hessian-signature")):
            assert checks[name] == {
                "check": check, "details": {"trials_run": 0},
                "verdict": {"note": "zero polynomial convention",
                            "status": "holds"}}
        assert checks["hurwitz_over_cone"] == {
            "check": "hurwitz-over-cone", "details": {"trials_run": 0},
            "verdict": {"note": "every restriction of the zero form is 0",
                        "status": "not-applicable"}}

    @pytest.mark.parametrize("cone", [
        {"type": "orthant", "n": 2},
        {"type": "polyhedral", "generators": [[1, 0], [1, 1], [0, 1]]},
        {"type": "second_order", "n": 2}],
        ids=["orthant", "polyhedral", "second_order"])
    @pytest.mark.parametrize("mode", ["auto", "exact"])
    def test_exact_coefficients_past_the_float_range(self, tmp_path, cone,
                                                      mode):
        # 10^400 x1^2 + x1 x2 + x2^2: the Hessian has no float, so the
        # eigenvalue checks read unknown; the line checks stay exact
        (tmp_path / "cone.json").write_text(json.dumps(cone))
        payload = {"n": 2, "d": 2,
                   "terms": [{"exp": [2, 0], "coef": 10 ** 400},
                             {"exp": [1, 1], "coef": 1},
                             {"exp": [0, 2], "coef": 1}]}
        proc = run_cli(["form", "--mode", mode, "--trials", "5", "--cone",
                        str(tmp_path / "cone.json")], payload)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stderr == ""
        checks = json.loads(proc.stdout, parse_constant=reject)["checks"]
        assert checks["lorentzian_sampled"]["verdict"] == {
            "note": "entries beyond the float range", "status": "unknown"}
        assert checks["lorentzian_sampled"]["details"] == {"eigenvalues": None}
        assert checks["hessian_signature"]["verdict"] == {
            "note": "5/5 points indeterminate", "status": "unknown"}
        for name in ("clc_necessary", "hurwitz_over_cone"):
            assert checks[name]["verdict"]["status"] in ("holds-sampled",
                                                         "fails")

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

    def test_float_mode_char_poly_overflow_writes_strict_json(self):
        proc = run_cli(["matrix", "--mode", "float"], OVERFLOW_MATRIX)
        assert proc.returncode == 0, proc.stderr
        rep = json.loads(proc.stdout, parse_constant=reject)
        assert rep["lti_report"]["char_poly"] == {
            "coeffs": [None, None, -3e200, 1]}

    @pytest.mark.parametrize("rows,coeffs", [
        # det = 1e600 - 1e600 is inf - inf
        ([[-1e300, 1e300], [1e300, -1e300]], [None, 2e300, 1]),
        # the trace overflows too
        ([[1e308, 1e308], [1e308, 1e308]], [None, None, 1]),
    ], ids=["cancelling", "saturating"])
    def test_float_mode_nonfinite_char_poly_is_not_an_input_error(
            self, rows, coeffs):
        # finite entries whose float coefficients are nan or -inf, with no
        # coefficient definitely negative: the coefficient rows stay
        # indeterminate and no Hurwitz matrix is built from them
        proc = run_cli(["matrix", "--mode", "float"], {"rows": rows})
        assert proc.returncode == 0, proc.stderr
        rep = json.loads(proc.stdout, parse_constant=reject)["lti_report"]
        assert rep["char_poly"] == {"coeffs": coeffs}
        assert rep["routh_hurwitz"]["status"] == "unknown"
        assert rep["routh_hurwitz"]["witness"] == ["coefficient", 0]
        assert rep["conclusion"] == "criterion-inconclusive"

    def test_huge_exact_entries_decide_exactly(self):
        # exact slacks near 1e600 are compared with 0, never cast to float
        rep = run_json(["matrix"], {"rows": [[1e300, 1e300], [1e300, 1e300]]})
        rh = rep["lti_report"]["routh_hurwitz"]
        assert rh["status"] == "fails"
        assert rh["witness"] == ["coefficient", 0]
        assert rep["lti_report"]["conclusion"] == "unstable"

    def test_exact_entries_beyond_float_range_decide(self):
        # det(tI - A) = t^2 + 2t + (10^400 - 1) / 3: the exact minor test
        # decides, the eigenvalues have no float input
        proc = run_cli(["matrix"], {"rows": [["1/3", "1" + "0" * 400],
                                             [-1, -1]]})
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        rep = json.loads(proc.stdout)["lti_report"]
        assert rep["conclusion"] == "stable"
        assert rep["routh_hurwitz"]["status"] == "holds"
        assert rep["eigen_stable"] == {
            "note": "entries beyond the float range", "status": "unknown"}
        assert rep["eigenvalues"] is None and rep["spectral_abscissa"] is None

    @pytest.mark.parametrize("cone, positive", [
        ({"type": "orthant", "n": 2}, "holds"),
        # A (1, 0) = (1, 1) lies on the facet x1 = x2
        ({"type": "polyhedral", "generators": [[1, 0], [1, 1]]}, "fails"),
        # A x leaves the cone at sampled boundary points x
        ({"type": "second_order", "n": 2}, "fails")])
    @pytest.mark.parametrize("mode", ["auto", "exact"])
    def test_cone_route_exact_entries_beyond_float_range(self, tmp_path, cone,
                                                         positive, mode):
        cone_file = tmp_path / "cone.json"
        cone_file.write_text(json.dumps(cone))
        proc = run_cli(["matrix", "--mode", mode, "--cone", str(cone_file)],
                       {"rows": [[1, int("1" + "0" * 400)], [1, 1]]})
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        cm = json.loads(proc.stdout, parse_constant=reject)["cone_matrix_report"]
        # over the second-order cone A is not K-nonnegative, so its
        # irreducibility is inapplicable
        expected = (["fails", "fails", "unknown"]
                    if cone["type"] == "second_order"
                    else ["holds", positive, "holds"])
        assert [cm[key]["status"] for key in
                ("k_nonnegative", "k_positive", "k_irreducible")] == expected
        assert cm["perron"]["note"] == "entries beyond the float range"
        assert cm["perron"]["rho"] is None

    @pytest.mark.parametrize("mode", ["auto", "float", "exact"])
    def test_cone_route_facet_norms_beyond_float_range(self, tmp_path, mode):
        # the facet (1, -10^200) has no float norm; its scale falls back to
        # inf, then to the exact 1-norms, and the identity maps K onto K
        cone_file = tmp_path / "cone.json"
        cone_file.write_text(json.dumps({
            "type": "polyhedral", "n": 2,
            "generators": [[1, 0], [10 ** 200, 1]]}))
        proc = run_cli(["matrix", "--mode", mode, "--cone", str(cone_file)],
                       {"rows": [[1, 0], [0, 1]]})
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stderr == ""
        cm = json.loads(proc.stdout, parse_constant=reject)["cone_matrix_report"]
        assert [cm[key]["status"] for key in
                ("k_nonnegative", "k_positive", "k_irreducible")] == [
                    "holds", "fails", "fails"]

    @pytest.mark.parametrize("rows, cone", [
        ([[1e120] * 4] * 4, {"type": "orthant", "n": 4}),
        ([[1e120 * (i == j) for j in range(4)] for i in range(4)],
         {"type": "second_order", "n": 4})],
        ids=["orthant", "second_order"])
    def test_cone_route_float_power_past_the_float_range(self, tmp_path,
                                                         rows, cone):
        # finite float entries whose (I + A)^3 overflows: the power's
        # non-finite comparisons leave K-irreducibility undecided
        cone_file = tmp_path / "cone.json"
        cone_file.write_text(json.dumps(cone))
        proc = run_cli(["matrix", "--mode", "float", "--cone",
                        str(cone_file)], {"rows": rows})
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stderr == ""
        cm = json.loads(proc.stdout, parse_constant=reject)["cone_matrix_report"]
        assert cm["k_nonnegative"]["status"] in ("holds", "holds-sampled")
        assert cm["k_irreducible"]["status"] == "unknown"

    def test_cone_route_irreducible_permutation(self, tmp_path):
        cone_file = tmp_path / "cone.json"
        cone_file.write_text(json.dumps({"type": "orthant", "n": 3}))
        rep = run_json(["matrix", "--cone", str(cone_file)],
                       {"rows": [[0, 1, 0], [0, 0, 1], [1, 0, 0]]})
        cm = rep["cone_matrix_report"]
        assert cm["k_irreducible"]["status"] == "holds"
        assert cm["perron"]["eigenvector_interior"] is True

    def test_float_mode_reads_cone_data_exactly(self, tmp_path):
        # float mode governs the matrix, not the cone: the float literal
        # generator is read exactly, so the rays and facets are decided
        # exactly and the verdicts are those of auto mode
        cone_file = tmp_path / "cone.json"
        cone_file.write_text(json.dumps({
            "type": "polyhedral", "generators": [[1.0, 0.0], [0, 2], [2, 2]]}))
        reports = [run_json(["matrix", "--mode", mode, "--cone", str(cone_file)],
                            {"rows": [[3, 0], [3, 2]]})["cone_matrix_report"]
                   for mode in ("float", "auto")]
        for key in ("k_nonnegative", "k_positive", "k_irreducible"):
            assert reports[0][key] == reports[1][key]
        assert reports[0]["k_nonnegative"]["status"] == "holds"
        assert reports[0]["k_positive"]["status"] == "fails"
        assert reports[0]["k_positive"]["witness"] == ["ray", [0, 1],
                                                       "facet", [1, 0]]

    def test_cone_route_honours_trials_and_seed(self):
        # the second-order probes run at the given trials and seed
        payload = {"rows": [[2, 0.3], [0.1, 2]]}
        cone = {"type": "second_order", "n": 2}
        A = cli.matrix_from_json(payload, True)
        reports = []
        for trials, seed in ((1, 0), (200, 0), (7, 5)):
            rep = cli.cmd_matrix(payload, cone, cli.RunConfig(
                trials=trials, seed=seed))["cone_matrix_report"]
            assert rep == cli.jsonable(cli.perron_frobenius_check(
                A, cli.cone_from_json(cone), trials=trials, seed=seed))
            reports.append(rep["k_nonnegative"]["witness"])
        assert len({json.dumps(w) for w in reports}) == 3

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


LINEAR_FORM = {"n": 2, "d": 1, "terms": [{"exp": [1, 0], "coef": 1}]}


@pytest.mark.parametrize("command,payload,cone", [
    ("form", {"n": 2, "d": 1, "terms": 5}, None),
    ("form", LINEAR_FORM, {"type": "orthant"}),
    ("form", LINEAR_FORM, {"type": "second_order", "n": None}),
    ("form", LINEAR_FORM, {"type": "polyhedral", "generators": [1, 2]}),
    ("form", LINEAR_FORM, {"type": "polyhedral", "generators": [[1, 0], [1]]}),
    ("form", LINEAR_FORM, {"type": "polyhedral", "facets": 3,
                           "generators": [[1, 0], [0, 1]]}),
    ("matrix", {"rows": [1, 2]}, None),
    ("matrix", {"rows": [1, 2]}, {"type": "orthant", "n": 2}),
    ("matrix", {"n": None, "rows": [[1]]}, None),
    ("restrict", {"form": LINEAR_FORM, "x": 1, "v": [1, 0]}, None),
    # descriptor integers are JSON integers, and a polyhedral "n" is the
    # generator length
    ("form", {**LINEAR_FORM, "n": 2.9}, None),
    ("form", {**LINEAR_FORM, "d": True}, None),
    ("form", {**LINEAR_FORM, "n": "2"}, None),
    ("form", {"n": 2, "d": 1, "terms": [{"exp": [1.5, 0.9], "coef": 1}]},
     None),
    ("form", {"n": 2, "d": 1, "terms": [{"exp": 10, "coef": 1}]}, None),
    ("matrix", {"n": 2.7, "rows": [[1, 0], [0, 1]]}, None),
    ("form", LINEAR_FORM, {"type": "orthant", "n": 2.5}),
    ("form", LINEAR_FORM, {"type": "polyhedral", "n": 5,
                           "generators": [[1, 0], [0, 1]]}),
    ("form", LINEAR_FORM, {"type": "polyhedral", "n": 2.0,
                           "generators": [[1, 0], [0, 1]]}),
], ids=["terms-not-a-list", "cone-without-n", "cone-null-n", "generators-not-vectors",
        "generators-mixed-dimension", "facets-not-a-list", "rows-not-vectors",
        "rows-not-vectors-with-cone", "null-n", "restrict-x-not-a-vector",
        "form-float-n", "form-bool-d", "form-string-n", "form-float-exp",
        "form-exp-not-a-list", "matrix-float-n", "orthant-float-n",
        "polyhedral-n-not-generator-length",
        "polyhedral-float-n"])
def test_malformed_input_shapes_are_input_errors(tmp_path, command, payload,
                                                 cone):
    args = [command]
    if cone is not None:
        cone_file = tmp_path / "cone.json"
        cone_file.write_text(json.dumps(cone))
        args += ["--cone", str(cone_file)]
    proc = run_cli(args, payload)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert set(json.loads(proc.stderr)) == {"error"}


@pytest.mark.parametrize("command,payload", [
    ("unipoly", {"coeffs": ["1e400", 1, 1]}),
    ("matrix", {"rows": [[1, "-1e400"], [0, 1]]}),
    ("form", {"n": 2, "d": 1, "terms": [{"exp": [1, 0], "coef": "1e400"}]}),
    ("restrict", {"form": LINEAR_FORM, "x": ["1e400", 0], "v": [1, 0]}),
])
def test_float_mode_string_past_the_float_range_is_input_error(command,
                                                               payload):
    proc = run_cli([command, "--mode", "float"], payload)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "1e400" in json.loads(proc.stderr)["error"]


@pytest.mark.parametrize("command,degree", [("form", -1), ("restrict", -2)])
def test_negative_form_degree_is_input_error(command, degree):
    form = {"n": 2, "d": degree, "terms": []}
    payload = form if command == "form" else {"form": form, "x": [1, 1],
                                              "v": [1, 1]}
    proc = run_cli([command], payload)
    assert proc.returncode == 2, proc.stdout
    assert proc.stdout == ""
    error = json.loads(proc.stderr)["error"]
    assert "degree" in error and str(degree) in error


def test_overflow_inputs_never_exit_3(monkeypatch, tmp_path):
    # every overflow/ group of the digest corpus: exact data past the float
    # range is decided or reported, in exact and auto mode, never a
    # numeric failure
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    digests = importlib.import_module("report_digests")
    commands = set()
    for name, command, payload, cone, extra in digests.corpus():
        if "/overflow/" not in name or "float" in extra:
            continue
        commands.add(command)
        code, _, err = digests.run_report(tmp_path, command, payload, cone,
                                          extra)
        assert code != 3, (name, err)
    assert commands == {"unipoly", "form", "matrix", "restrict"}


class TestDeterminismAndConfig:
    @pytest.mark.parametrize("flag", ["--tol-abs", "--tol-rel"])
    @pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
    def test_non_finite_tolerance_is_input_error(self, flag, value):
        # the report would echo NaN or Infinity, which is not standard JSON
        proc = run_cli(["unipoly", flag, value], STABLE_QUINTIC)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "finite" in json.loads(proc.stderr)["error"]

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

    @pytest.mark.parametrize("where", ["input", "cone", "out"])
    def test_unreadable_or_unwritable_file_is_input_error(self, tmp_path,
                                                          where):
        # a directory cannot be read as input or cone; --out into a
        # missing directory cannot be written
        src = tmp_path / "m.json"
        src.write_text(json.dumps({"rows": [[1, 0], [0, 1]]}))
        cone = tmp_path / "cone.json"
        cone.write_text(json.dumps({"type": "orthant", "n": 2}))
        args = {"input": [str(tmp_path)],
                "cone": [str(src), "--cone", str(tmp_path)],
                "out": [str(src), "--cone", str(cone),
                        "--out", str(tmp_path / "missing" / "o.json")]}[where]
        proc = run_cli(["matrix", *args])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert set(json.loads(proc.stderr)) == {"error"}

    def test_input_and_cone_files_are_closed(self, tmp_path):
        src = tmp_path / "m.json"
        src.write_text(json.dumps({"rows": [[1, 0], [0, 1]]}))
        cone = tmp_path / "cone.json"
        cone.write_text(json.dumps({"type": "orthant", "n": 2}))
        proc = subprocess.run(
            [sys.executable, "-W", "error::ResourceWarning", *CLI[1:],
             "matrix", str(src), "--cone", str(cone)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_input_from_file(self, tmp_path):
        src = tmp_path / "poly.json"
        src.write_text(json.dumps(STABLE_QUINTIC))
        proc = subprocess.run(CLI + ["unipoly", str(src)],
                              capture_output=True, text=True)
        assert proc.returncode == 0
