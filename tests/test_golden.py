"""Golden CLI reports: the README's examples, plus a form and a matrix over
second-order cones and over polyhedral cones.

Every exact field (ints, strings, booleans, nulls, the shape of the
report) must match the checked-in output exactly; every float field must
match within 1e-9 relative to max(1, |value|).  After a deliberate change
of output, regenerate the fixtures it moves by name, or all of them with
no name:

    PYTHONPATH=src python tests/test_golden.py form_lorentz_soc4 ...
    PYTHONPATH=src python tests/test_golden.py

Regenerating all of them can also rewrite the last bits of floats that
the change did not move (the eigenvalues of ``form_e2`` differ between
machines), so name the cases where you can.
"""

import json
import sys
from pathlib import Path

import pytest

from conestab import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
FLOAT_TOL = 1e-9

E2_FORM = {"n": 3, "d": 2, "terms": [{"exp": [1, 1, 0], "coef": 1},
                                     {"exp": [1, 0, 1], "coef": 1},
                                     {"exp": [0, 1, 1], "coef": 1}]}
LORENTZ_FORM = {"n": 4, "d": 2, "terms": [{"exp": [2, 0, 0, 0], "coef": -1},
                                          {"exp": [0, 2, 0, 0], "coef": -1},
                                          {"exp": [0, 0, 2, 0], "coef": -1},
                                          {"exp": [0, 0, 0, 2], "coef": 1}]}
E3_4_FORM = {"n": 4, "d": 3,
             "terms": [{"exp": [0 if i == j else 1 for i in range(4)],
                        "coef": 1} for j in range(4)]}
# the orthant of R^4 given by redundant generators, so the facets and the
# extreme rays are computed
REDUNDANT_ORTHANT = {"type": "polyhedral", "n": 4,
                     "generators": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                                    [0, 0, 0, 1], [1, 1, 0, 0], [0, 1, 1, 1]]}
WEDGE_3 = {"type": "polyhedral", "n": 3,
           "generators": [[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1],
                          [1, 1, 2]]}
# x1^3 - 3 x1 x2^2: lorentzian_sampled refutes it exactly by its negative
# coefficient, and each sampled check at its first refuting trial
CUBIC_FORM = {"n": 2, "d": 3, "terms": [{"exp": [3, 0], "coef": 1},
                                        {"exp": [1, 2], "coef": -3}]}
SQUARE_FORM = {"n": 2, "d": 2, "terms": [{"exp": [2, 0], "coef": 1},
                                         {"exp": [1, 1], "coef": 2},
                                         {"exp": [0, 2], "coef": 1}]}
# a dense rational matrix, entries k/q with q in 2..9 and the diagonal
# shifted by -3: stable, although both alpha criteria fail
RATIONAL_LTI_7 = [
    ["-22/9", 1, "-4/9", "-4/3", "5/6", "-5/3", 4],
    ["1/3", -5, "7/3", -4, "-3/5", -1, "1/9"],
    ["9/5", "7/5", -3, -3, "5/6", "4/3", "-1/7"],
    ["-1/3", -3, 3, -2, 0, "-7/2", "-9/5"],
    ["-3/2", "3/4", "3/8", "-7/5", "-22/7", "-7/6", "1/2"],
    ["4/3", -1, -3, "-8/9", "3/2", "-7/5", 1],
    ["-5/8", 1, "3/8", "-3/2", "-1/6", "-9/5", "-7/2"],
]

# name -> (CLI arguments, input, cone or None)
CASES = {
    "unipoly_quintic": (["unipoly"], {"coeffs": [5, 14, 12.5, 7.2, 3, 1]},
                        None),
    "form_e2": (["form", "--trials", "100", "--seed", "7"], E2_FORM, None),
    "matrix_lti": (["matrix"], {"rows": [[-1, 0], [0, -2]]}, None),
    "matrix_lti_rational": (["matrix"], {"rows": RATIONAL_LTI_7}, None),
    "matrix_cone_orthant": (["matrix"], {"rows": [[0, 1, 0], [0, 0, 1],
                                                  [1, 0, 0]]},
                            {"type": "orthant", "n": 3}),
    "restrict": (["restrict"], {"form": SQUARE_FORM, "x": [1, 1],
                                "v": [1, 1]}, None),
    "form_lorentz_soc4": (["form", "--trials", "20"], LORENTZ_FORM,
                          {"type": "second_order", "n": 4}),
    "matrix_cone_soc3": (["matrix"], {"rows": [[2, 0, 1], [0, 2, 0],
                                               [0, 0, 3]]},
                         {"type": "second_order", "n": 3}),
    "form_e3_4_polyhedral": (["form", "--trials", "20"], E3_4_FORM,
                             REDUNDANT_ORTHANT),
    "matrix_cone_polyhedral": (["matrix"], {"rows": [[2, 1, 0], [1, 2, 0],
                                                     [0, 0, 3]]},
                               WEDGE_3),
    # random signs: every coefficient decider fails at a coefficient witness
    "unipoly_coefficient_witness": (["unipoly"],
                                    {"coeffs": [2, 3, -1, 4, 1]}, None),
    # Delta_2 = a1 a2 - a0 a3 = 0: exact margins of exactly 0
    "unipoly_zero_minor": (["unipoly"], {"coeffs": [1, 1, 1, 1]}, None),
    # decimal and "p/q" coefficients read exactly: Fraction margins
    "unipoly_rational": (["unipoly"], {"coeffs": ["1/3", 2.5, "7/4", 1]},
                         None),
    "unipoly_float_mode": (["unipoly", "--mode", "float"],
                           {"coeffs": [2, 5, 4, 1]}, None),
    "form_cubic_refuted": (["form", "--trials", "20", "--seed", "3"],
                           CUBIC_FORM, {"type": "orthant", "n": 2}),
}


def run_case(name, tmp: Path) -> str:
    args, payload, cone = CASES[name]
    inp = tmp / f"{name}.input.json"
    inp.write_text(json.dumps(payload))
    out = tmp / f"{name}.out.json"
    argv = args + [str(inp), "--out", str(out)]
    if cone is not None:
        cone_path = tmp / f"{name}.cone.json"
        cone_path.write_text(json.dumps(cone))
        argv += ["--cone", str(cone_path)]
    assert cli.main(argv) == 0
    return out.read_text()


def assert_matches(got, want, path="$"):
    if isinstance(want, float):
        assert isinstance(got, float), f"{path}: {got!r} is not a float"
        assert abs(got - want) <= FLOAT_TOL * max(1.0, abs(want)), (
            f"{path}: {got!r} != {want!r}")
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), (
            f"{path}: keys {list(got) if isinstance(got, dict) else got!r}")
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), (
            f"{path}: {got!r} != {want!r}")
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (
            f"{path}: {got!r} != {want!r}")


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    assert_matches(json.loads(run_case(name, tmp_path)), want)


def test_tolerance_is_enforced():
    assert_matches({"a": [1, 0.5 + 1e-12]}, {"a": [1, 0.5]})
    for got in ({"a": [1, 0.5 + 1e-6]}, {"a": [1.0, 0.5]}, {"b": [1, 0.5]}):
        with pytest.raises(AssertionError):
            assert_matches(got, {"a": [1, 0.5]})


if __name__ == "__main__":
    import tempfile

    names = sys.argv[1:] or sorted(CASES)
    unknown = [name for name in names if name not in CASES]
    if unknown:
        sys.exit(f"no golden case named {', '.join(unknown)}; "
                 f"the cases are {', '.join(sorted(CASES))}")
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in names:
            (GOLDEN / f"{case}.json").write_text(run_case(case, Path(tmp)))
            print(f"wrote {GOLDEN / case}.json", file=sys.stderr)
