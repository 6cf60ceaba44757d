#!/usr/bin/env python3
"""Print one ``name sha256`` line per CLI report over a fixed corpus.

The corpus is drawn from fixed seeds, so every run prints the same names
in the same order.  It covers every subcommand:

* ``forms/``       a catalogue of 9 forms over the three cone kinds,
                   seeds 0-9;
* ``form/``        300 random forms, 100 per cone kind, in auto and float
                   mode; the orthant forms also without ``--cone``;
* ``matrix-cone/`` 300 random matrices, 100 per cone kind, in auto and
                   float mode;
* ``lti/``         112 matrices without a cone, in auto and float mode;
* ``unipoly/``     300 integer polynomials, and 50 with float literals in
                   float mode;
* ``restrict/``    30 line restrictions;
* ``cone-facets/`` 40 float-mode ``matrix --cone`` runs over polyhedral
                   cones given by float-literal generators and explicit
                   facets, and a matrix that maps the second-order cone
                   into its interior, in auto and float mode (under
                   float, into the float band of its boundary);
* ``lti/overflow/`` a matrix whose float characteristic polynomial
                   overflows to nan coefficients, in auto and float mode;
* ``unipoly/newton/`` 40 products of 4-10 factors t + r, r in 1..9, whose
                   Newton families all have rows to check;
* ``matrix-cone/overflow/`` a matrix with an entry past the float range
                   over an orthant, a polyhedral and a second-order cone,
                   in auto and exact mode;
* ``unipoly/rational/`` 40 exact polynomials with ``"p/q"`` coefficients:
                   products of linear factors and of stable quadratics,
                   positive and signed coefficients;
* ``lti/rational/`` 20 matrices of dimension 6-12 with entries of
                   denominator at most 4, in auto mode;
* ``unipoly/stall/`` 10 exact polynomials with a zero Hurwitz minor
                   Delta_k, k < d, which stalls the fraction-free minor
                   recurrence, each with ``"p/q"`` coefficients and as
                   the ints of its coefficients times their common
                   denominator;
* ``lti/overflow/float-nonfinite/`` two float-mode matrices of finite
                   entries whose characteristic polynomials overflow
                   to nan or -inf coefficients;
* ``matrix-cone/overflow/polyhedral-facets/`` the identity over a
                   polyhedral cone with a facet normal whose float norm
                   overflows, in auto and exact mode;
* ``form/zero/``   the zero form of degree 4 in 3 variables over the
                   orthant and over a square pyramid;
* ``matrix-cone/overflow/float-power/`` float-mode matrices of finite
                   entries whose (I + A)^(n-1) overflows: all 1e120 over
                   an orthant, and 1e120 I over a second-order cone;
* ``form/overflow/`` 10^400 x1^2 + x1 x2 + x2^2, whose Hessian has no
                   float, over an orthant, a polyhedral and a
                   second-order cone, in auto and exact mode;
* ``unipoly/overflow/`` 1 + 10^400 t + t^2 and 10^400 + 3t + 2t^2 + t^3,
                   and ``restrict/overflow/`` the ``form/overflow/``
                   form from (1, 2) along (10^400, 1), in auto, exact
                   and float mode.

Each digest covers the exit code, stdout and stderr of ``conestab.cli``
run in this process.  Every report of a run that exits 0 must be standard
JSON (no NaN or Infinity); the script stops with exit 1 at the first one
that is not, naming it.  Diff the output of two commits to check that a
change keeps the reports byte-identical, or of two ``PYTHONHASHSEED``
values to check that identical input and seed give identical bytes:

    PYTHONPATH=src python scripts/report_digests.py > digests.txt
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from conestab import cli

CONE_KINDS = ("orthant", "polyhedral", "second_order")


def elementary_symmetric(n, k, coef=1):
    return {"n": n, "d": k,
            "terms": [{"exp": [int(i in S) for i in range(n)], "coef": coef}
                      for S in itertools.combinations(range(n), k)]}


def product_of_linear_forms(forms):
    poly = {(0,) * len(forms[0]): 1}
    for lin in forms:
        nxt = {}
        for exp, c in poly.items():
            for i, a in enumerate(lin):
                e = list(exp)
                e[i] += 1
                nxt[tuple(e)] = nxt.get(tuple(e), 0) + c * a
        poly = nxt
    return {"n": len(forms[0]), "d": len(forms),
            "terms": [{"exp": list(e), "coef": c} for e, c in sorted(poly.items())]}


def diagonal_form(coefs):
    n = len(coefs)
    return {"n": n, "d": 2,
            "terms": [{"exp": [2 * (j == i) for j in range(n)], "coef": c}
                      for i, c in enumerate(coefs)]}


# name -> (form, cone or None for the default orthant, mode)
CATALOGUE = {
    "e2_4": (elementary_symmetric(4, 2), None, "auto"),
    "e3_4": (elementary_symmetric(4, 3), None, "auto"),
    "e3_5": (elementary_symmetric(5, 3), None, "auto"),
    "e4_5": (elementary_symmetric(5, 4), None, "auto"),
    "e2_4_float": (elementary_symmetric(4, 2, 1.0), None, "float"),
    "linear_product": (product_of_linear_forms(
        [[1, 2, 1], [2, 1, 3], [1, 1, 1]]), None, "auto"),
    "sum_of_squares": (diagonal_form([1, 1, 1]), None, "auto"),
    "e3_4_polyhedral": (elementary_symmetric(4, 3),
                        {"type": "polyhedral", "n": 4,
                         "generators": [[1, 0, 0, 0], [0, 1, 0, 0],
                                        [0, 0, 1, 0], [0, 0, 0, 1],
                                        [1, 1, 0, 0], [0, 1, 1, 1]]}, "auto"),
    "lorentz_soc4": (diagonal_form([-1, -1, -1, 1]),
                     {"type": "second_order", "n": 4}, "auto"),
}


def scalar(rng, lo, hi):
    """A small integer, or in a quarter of draws a float literal with a
    binary fraction (exact in auto mode, a float in float mode)."""
    v = rng.randint(lo, hi)
    return v + rng.choice([0.25, 0.5, -0.5]) if rng.random() < 0.25 else v


def random_form(rng, n):
    d = rng.randint(1, 3)
    family = rng.randrange(4)
    if family == 0:
        return elementary_symmetric(n, min(d, n), rng.choice([1, 2, 1.5]))
    if family == 1:
        return product_of_linear_forms(
            [[rng.randint(0, 3) + (i == j) for i in range(n)] for j in range(d)])
    if family == 2:
        return diagonal_form([-1] * (n - 1) + [rng.choice([1, 2, 0.5])])
    terms = {}
    for _ in range(rng.randint(1, 5)):
        cuts = sorted(rng.randint(0, d) for _ in range(n - 1))
        exp = tuple(b - a for a, b in zip([0] + cuts, cuts + [d]))
        terms[exp] = scalar(rng, -3, 5)
    return {"n": n, "d": d,
            "terms": [{"exp": list(e), "coef": c} for e, c in terms.items()]}


def random_cone(rng, kind, n):
    if kind != "polyhedral":
        return {"type": kind, "n": n}
    # a simplicial cone (triangular rows with a positive diagonal are
    # independent), plus a redundant positive combination of two rows
    gens = [[rng.randint(-1, 3) if i > j else 2 * (i == j) for i in range(n)]
            for j in range(n)]
    a, b = rng.sample(range(n), 2)
    gens.append([x + y for x, y in zip(gens[a], gens[b])])
    if rng.random() < 0.3:
        # the same ray, written with float literals
        gens[0] = [x * 0.5 for x in gens[0]]
    return {"type": "polyhedral", "n": n, "generators": gens}


def cone_with_facets(rng, n):
    """A simplicial cone written with float literals: its generators are
    the columns of a unit lower-triangular integer matrix L, halved, plus a
    redundant sum of two of them; its facet normals are the rows of L^-1,
    which is integer too, halved or as written."""
    L = [[1 if i == j else rng.randint(-2, 2) if i > j else 0
          for j in range(n)] for i in range(n)]
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):  # forward substitution: row i of L^-1
        for j in range(i):
            inv[i] = [a - L[i][j] * b for a, b in zip(inv[i], inv[j])]
    gens = [[L[i][j] * 0.5 for i in range(n)] for j in range(n)]
    a, b = rng.sample(range(n), 2)
    gens.append([x + y for x, y in zip(gens[a], gens[b])])
    scale = rng.choice([0.5, 1.0])
    return {"type": "polyhedral", "n": n, "generators": gens,
            "facets": [[x * scale for x in h] for h in inv]}


def random_matrix(rng, n, lo, hi, shift=0):
    return {"n": n, "rows": [[scalar(rng, lo, hi) - shift * (i == j)
                              for j in range(n)] for i in range(n)]}


def fraction_string(a) -> str:
    a = Fraction(a)
    return f"{a.numerator}/{a.denominator}"


def rational_poly(rng, kind):
    """Ascending rational coefficients: for ``kind`` 0 a product of 2-8
    factors t + r, whose Newton families have rows to check; 1 a product of
    1-5 stable quadratics t^2 + b t + c, which runs every reduction round;
    2 positive coefficients; 3 signed coefficients with zeros."""
    def q():
        return Fraction(rng.randint(1, 60), rng.choice((1, 2, 3, 7, 12, 97)))

    if kind in (0, 1):
        coeffs = [Fraction(1)]
        for _ in range(rng.randint(2, 8) if kind == 0 else rng.randint(1, 5)):
            factor = [q(), 1] if kind == 0 else [q(), q(), 1]
            out = [Fraction(0)] * (len(coeffs) + len(factor) - 1)
            for j, a in enumerate(coeffs):
                for k, b in enumerate(factor):
                    out[j + k] += a * b
            coeffs = out
        return coeffs
    d = rng.randint(1, 12)
    if kind == 2:
        return [q() for _ in range(d + 1)]
    return [rng.choice((0, 1, 1, -1)) * q() for _ in range(d)] + [q()]


def stalled_poly(rng, kind):
    """Ascending rational coefficients, the leading one positive, with a
    zero Hurwitz minor Delta_k, k < d: for ``kind`` 0 (t^2 + w) q(t) and
    for 1 (t^2 - w) q(t), q of degree 1-6 with positive coefficients, whose
    opposite roots make Delta_{d-1} = 0; for 2 degree 3-10 with
    a_1 a_2 = a_0 a_3, so Delta_2 = 0; for 3 degree 2-10 with a_1 = 0, so
    Delta_1 = 0."""
    def q():
        return Fraction(rng.randint(1, 30), rng.choice((1, 2, 3, 5, 8)))

    if kind in (0, 1):
        w = q() if kind == 0 else -q()
        factor = [q() for _ in range(rng.randint(1, 6))] + [q()]
        return [w * a + b for a, b in zip(factor + [0, 0], [0, 0] + factor)]
    d = rng.randint(3 if kind == 2 else 2, 10)
    coeffs = [q() for _ in range(d + 1)]
    if kind == 2:
        coeffs[3] = coeffs[1] * coeffs[2] / coeffs[0]
    else:
        coeffs[1] = Fraction(0)
    return coeffs


def corpus():
    """(name, subcommand, payload, cone, extra CLI arguments)."""
    for seed in range(10):
        for name, (form, cone, mode) in CATALOGUE.items():
            yield (f"forms/{name}/seed{seed}", "form", form, cone,
                   ["--mode", mode, "--seed", str(seed), "--trials", "50"])
    rng = random.Random("report_digests/form")
    for kind in CONE_KINDS:
        for i in range(100):
            n = rng.randint(2, 4)
            form, cone = random_form(rng, n), random_cone(rng, kind, n)
            for mode in ("auto", "float"):
                args = ["--mode", mode, "--seed", str(i), "--trials", "20"]
                yield f"form/{kind}/{i:03d}/{mode}", "form", form, cone, args
                if kind == "orthant":
                    yield (f"form/{kind}/{i:03d}/{mode}/no-cone", "form",
                           form, None, args)
    rng = random.Random("report_digests/matrix-cone")
    for kind in CONE_KINDS:
        for i in range(100):
            n = rng.randint(2, 4)
            A = random_matrix(rng, n, -1, 3, shift=-rng.randint(0, 3))
            cone = random_cone(rng, kind, n)
            for mode in ("auto", "float"):
                yield (f"matrix-cone/{kind}/{i:03d}/{mode}", "matrix", A, cone,
                       ["--mode", mode])
    rng = random.Random("report_digests/lti")
    for i in range(112):
        n = 2 + i % 8
        A = random_matrix(rng, n, -3, 3, shift=rng.randint(0, n))
        for mode in ("auto", "float"):
            yield f"lti/{i:03d}/{mode}", "matrix", A, None, ["--mode", mode]
    rng = random.Random("report_digests/unipoly")
    for i in range(300):
        d = rng.randint(1, 10)
        coeffs = [rng.randint(1, 9) if rng.random() < 0.6 else rng.randint(-9, 9)
                  for _ in range(d)] + [rng.randint(1, 9)]
        yield f"unipoly/{i:03d}", "unipoly", {"coeffs": coeffs}, None, []
    for i in range(50):
        coeffs = [scalar(rng, 1, 9) for _ in range(rng.randint(2, 8))]
        yield (f"unipoly/float/{i:03d}", "unipoly", {"coeffs": coeffs}, None,
               ["--mode", "float"])
    rng = random.Random("report_digests/restrict")
    for i in range(30):
        n = rng.randint(2, 4)
        payload = {"form": random_form(rng, n),
                   "x": [scalar(rng, 0, 3) for _ in range(n)],
                   "v": [scalar(rng, -2, 2) for _ in range(n)]}
        yield f"restrict/{i:03d}", "restrict", payload, None, []
    rng = random.Random("report_digests/cone-facets")
    for i in range(40):
        n = rng.randint(2, 4)
        A = random_matrix(rng, n, -1, 3, shift=-rng.randint(0, 3))
        yield (f"cone-facets/{i:03d}", "matrix", A, cone_with_facets(rng, n),
               ["--mode", "float"])
    # diag(1, 1 + 10^-12) maps the second-order cone into its interior;
    # in float mode the images of sampled boundary points land in the
    # float band, and in auto mode their exact images are decided
    band = {"rows": [[1, 0], [0, "1000000000001/1000000000000"]]}
    for mode in ("auto", "float"):
        yield (f"cone-facets/second-order-band/{mode}", "matrix", band,
               {"type": "second_order", "n": 2}, ["--mode", mode])
    overflow = {"rows": [[1e200, 1e200, 0], [1e200, 1e200, 1e200],
                         [0, 1e200, 1e200]]}
    for mode in ("float", "auto"):
        yield f"lti/overflow/{mode}", "matrix", overflow, None, ["--mode", mode]
    rng = random.Random("report_digests/newton")
    for i in range(40):
        coeffs = [1]
        for _ in range(rng.randint(4, 10)):  # times (t + r)
            r = rng.randint(1, 9)
            coeffs = [r * a + b for a, b in zip(coeffs + [0], [0] + coeffs)]
        yield (f"unipoly/newton/{i:03d}", "unipoly", {"coeffs": coeffs}, None,
               [])
    huge = {"rows": [[1, 10 ** 400], [1, 1]]}
    for name, cone in (("orthant", {"type": "orthant", "n": 2}),
                       ("polyhedral", {"type": "polyhedral",
                                       "generators": [[1, 0], [1, 1]]}),
                       ("second_order", {"type": "second_order", "n": 2})):
        for mode in ("auto", "exact"):
            yield (f"matrix-cone/overflow/{name}/{mode}", "matrix", huge, cone,
                   ["--mode", mode])
    rng = random.Random("report_digests/unipoly-rational")
    for i in range(40):
        yield (f"unipoly/rational/{i:03d}", "unipoly",
               {"coeffs": [fraction_string(a)
                           for a in rational_poly(rng, i % 4)]}, None, [])
    rng = random.Random("report_digests/lti-rational")
    for i in range(20):
        n = 6 + i % 7
        shift = Fraction(rng.randint(0, 4 * n), 4)
        rows = [[fraction_string(Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                                 - shift * (r == c)) for c in range(n)]
                for r in range(n)]
        yield f"lti/rational/{i:03d}", "matrix", {"rows": rows}, None, []
    rng = random.Random("report_digests/unipoly-stall")
    for i in range(10):
        coeffs = stalled_poly(rng, i % 4)
        den = math.lcm(*(a.denominator for a in coeffs))
        yield (f"unipoly/stall/{i:03d}/rational", "unipoly",
               {"coeffs": [fraction_string(a) for a in coeffs]}, None, [])
        yield (f"unipoly/stall/{i:03d}/int", "unipoly",
               {"coeffs": [int(a * den) for a in coeffs]}, None, [])
    for i, rows in enumerate(([[-1e300, 1e300], [1e300, -1e300]],
                              [[1e308, 1e308], [1e308, 1e308]])):
        yield (f"lti/overflow/float-nonfinite/{i}", "matrix", {"rows": rows},
               None, ["--mode", "float"])
    facets = {"type": "polyhedral", "n": 2,
              "generators": [[1, 0], [10 ** 200, 1]]}
    for mode in ("auto", "exact"):
        yield (f"matrix-cone/overflow/polyhedral-facets/{mode}", "matrix",
               {"rows": [[1, 0], [0, 1]]}, facets, ["--mode", mode])
    pyramid = {"type": "polyhedral",
               "generators": [[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]]}
    for name, cone in (("orthant", None), ("pyramid", pyramid)):
        yield (f"form/zero/{name}", "form", {"n": 3, "d": 4, "terms": []},
               cone, ["--trials", "10"])
    for name, rows, cone in (
            ("orthant", [[1e120] * 4] * 4, {"type": "orthant", "n": 4}),
            ("second_order", [[1e120 * (i == j) for j in range(4)]
                              for i in range(4)],
             {"type": "second_order", "n": 4})):
        yield (f"matrix-cone/overflow/float-power/{name}", "matrix",
               {"rows": rows}, cone, ["--mode", "float"])
    huge_form = {"n": 2, "d": 2,
                 "terms": [{"exp": [2, 0], "coef": 10 ** 400},
                           {"exp": [1, 1], "coef": 1},
                           {"exp": [0, 2], "coef": 1}]}
    for name, cone in (("orthant", {"type": "orthant", "n": 2}),
                       ("polyhedral", {"type": "polyhedral",
                                       "generators": [[1, 0], [1, 1],
                                                      [0, 1]]}),
                       ("second_order", {"type": "second_order", "n": 2})):
        for mode in ("auto", "exact"):
            yield (f"form/overflow/{name}/{mode}", "form", huge_form, cone,
                   ["--mode", mode, "--trials", "5"])
    modes = ("auto", "exact", "float")
    for i, coeffs in enumerate(([1, 10 ** 400, 1], [10 ** 400, 3, 2, 1])):
        for mode in modes:
            yield (f"unipoly/overflow/{i}/{mode}", "unipoly",
                   {"coeffs": coeffs}, None, ["--mode", mode])
    for mode in modes:
        yield (f"restrict/overflow/{mode}", "restrict",
               {"form": huge_form, "x": [1, 2], "v": [10 ** 400, 1]}, None,
               ["--mode", mode])


def run_report(workdir: Path, command, payload, cone, extra) -> tuple:
    """Exit code, stdout and stderr of one in-process CLI run."""
    (workdir / "input.json").write_text(json.dumps(payload))
    argv = [command, str(workdir / "input.json"), *extra]
    if cone is not None:
        (workdir / "cone.json").write_text(json.dumps(cone))
        argv += ["--cone", str(workdir / "cone.json")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as e:  # a crash is digested like any other output
            code = f"raised {type(e).__name__}: {e}"
    return code, out.getvalue(), err.getvalue()


def reject(token):
    raise ValueError(f"non-standard JSON token {token}")


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for name, command, payload, cone, extra in corpus():
            code, out, err = run_report(Path(tmp), command, payload, cone,
                                        extra)
            if code == 0:
                try:
                    json.loads(out, parse_constant=reject)
                except ValueError as e:
                    print(f"{name}: report is not standard JSON: {e}",
                          file=sys.stderr)
                    return 1
            digest = hashlib.sha256(f"{code}\n{out}{err}".encode()).hexdigest()
            print(name, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
