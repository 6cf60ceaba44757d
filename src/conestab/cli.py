"""Command-line front end: one subcommand per object kind, JSON in and out.

Every report echoes the tolerance, seed, trial count and arithmetic mode
that produced it, so any verdict can be reproduced from the report alone.
Identical input plus identical seed gives byte-identical output.

Exit codes: 0 = ran to completion (verdicts are inside the JSON),
2 = input/parse error (an unreadable input or cone file and an unwritable
``--out`` included), 3 = internal numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction

from .cones import Cone, cone_from_json, perron_frobenius_check
from .errors import (DimensionMismatch, Inapplicable, NonConvergence,
                     ParseError, WrongDegree, ZeroPolynomial)
from .forms import (clc_necessary_check, form_from_json,
                    hessian_signature_check, hurwitz_over_cone_check,
                    lorentzian_sample_check, restrict_line)
from .hurwitz import stability_report
from .lti import lti_report
# all_roots is unused here but stays bound: perfbench/tracing.py wraps it
# by this module's name.
from .numerics import (SquareMatrix, Tolerance, all_roots,  # noqa: F401
                       int_from_json, scalar_to_json, vector_from_json)
from .sequences import is_univariate_clc, newton_chain_report
from .unipoly import unipoly_from_json
from .verdict import FAILS, Verdict


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Reproducibility envelope for one CLI invocation."""

    tol_abs: float = 1e-9
    tol_rel: float = 1e-9
    trials: int = 200
    seed: int = 0
    mode: str = "auto"

    def __post_init__(self):
        if self.trials < 1:
            raise ParseError("trials must be a positive integer")
        if self.mode not in ("exact", "float", "auto"):
            raise ParseError("mode must be exact | float | auto")

    @property
    def tol(self) -> Tolerance:
        return Tolerance(self.tol_abs, self.tol_rel)

    @property
    def exact(self) -> bool:
        # auto reads JSON numerals as exact decimals; float mode opts out
        # for form, matrix and polynomial data (cone data is always exact)
        return self.mode in ("exact", "auto")

    def echo(self) -> dict:
        return {"tol_abs": self.tol_abs, "tol_rel": self.tol_rel,
                "trials": self.trials, "seed": self.seed, "mode": self.mode}


def jsonable(obj):
    """Recursively convert reports/verdicts/scalars into JSON-fit values;
    a type with no JSON form raises TypeError rather than reach a report."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (float, Fraction)):
        return scalar_to_json(obj)
    if isinstance(obj, complex):
        return [scalar_to_json(obj.real), scalar_to_json(obj.imag)]
    if isinstance(obj, Verdict):
        out = {"status": obj.status}
        if obj.margin is not None:
            out["margin"] = scalar_to_json(float(obj.margin))
        if obj.witness is not None:
            out["witness"] = jsonable(obj.witness)
        if obj.note:
            out["note"] = obj.note
        return out
    if dataclasses.is_dataclass(obj):
        return {f.name: jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    raise TypeError(f"no JSON form for {type(obj).__name__}")


def _criterion_entries(report) -> dict:
    """The four degree-gated criteria of a stability or LTI report.
    Criteria report about their own hypotheses: a failed hypothesis is
    labeled as such, never as instability."""
    out = {}
    for key in ("clc_d_le_4", "quintic", "alpha_product", "alpha_square"):
        verdict = getattr(report, key)
        if verdict is None:
            out[key] = {"status": "not-applicable"}
        else:
            out[key] = jsonable(verdict)
            if verdict.status == FAILS:
                out[key]["status"] = "fails-hypothesis"
    return out


def cmd_unipoly(payload, cfg: RunConfig) -> dict:
    p = unipoly_from_json(payload, cfg.exact)
    if p.is_zero or p.degree == 0:
        raise ParseError("degree-0 input: stability analysis needs degree >= 1")
    report = stability_report(p, cfg.tol)
    clc = {"non_strict": jsonable(is_univariate_clc(p, False, cfg.tol)),
           "strict": jsonable(is_univariate_clc(p, True, cfg.tol))}
    try:
        chains = newton_chain_report(list(p.coeffs), cfg.tol)
        newton = {"status": "applicable",
                  "hypothesis": jsonable(chains.hypothesis),
                  "families": {k: jsonable(v)
                               for k, v in chains.families.items()}}
    except Inapplicable as e:
        newton = {"status": "inapplicable", "witness": jsonable(e.witness)}
    return {
        "input": jsonable(p),
        "config": cfg.echo(),
        "clc": clc,
        "newton_chains": newton,
        "deciders": {
            "routh_hurwitz": jsonable(report.routh_hurwitz),
            "lienard_chipart_1": jsonable(report.lienard_chipart[1]),
            "lienard_chipart_2": jsonable(report.lienard_chipart[2]),
            "lienard_chipart_3": jsonable(report.lienard_chipart[3]),
            "lienard_chipart_4": jsonable(report.lienard_chipart[4]),
            "hermite_biehler": jsonable(report.hermite_biehler),
            "degree_reduction": jsonable(report.degree_reduction),
            "root_oracle": jsonable(report.root_oracle),
        },
        "criteria": _criterion_entries(report),
        "minors": [jsonable(m) for m in report.minors],
        "minor_margins": jsonable(report.minor_margins),
        # the oracle's roots of p or -p, which have the same monic floats;
        # None when the solver did not converge, and root_oracle says why
        "roots": jsonable(report.roots),
        "consistent": report.consistent,
    }


def cmd_form(payload, cone_payload, cfg: RunConfig) -> dict:
    f = form_from_json(payload, cfg.exact)
    K = (cone_from_json(cone_payload) if cone_payload is not None
         else Cone.orthant(f.n))
    if K.n != f.n:
        raise ParseError(f"form in {f.n} variables but cone in R^{K.n}")
    checks = {}
    checks["lorentzian_sampled"] = lorentzian_sample_check(
        f, K, trials=cfg.trials, seed=[cfg.seed, 1], tol=cfg.tol)
    checks["clc_necessary"] = clc_necessary_check(
        f, K, trials=cfg.trials, seed=[cfg.seed, 2], tol=cfg.tol)
    if f.d >= 2:
        checks["hessian_signature"] = hessian_signature_check(
            f, K, trials=cfg.trials, seed=[cfg.seed, 3], tol=cfg.tol)
    if f.d >= 1:
        checks["hurwitz_over_cone"] = hurwitz_over_cone_check(
            f, K, trials=cfg.trials, seed=[cfg.seed, 4], tol=cfg.tol)
    return {
        "input": jsonable(payload),
        "cone": {"type": K.kind, "n": K.n},
        "config": cfg.echo(),
        "checks": {name: jsonable(rep) for name, rep in checks.items()},
    }


def matrix_from_json(payload, exact: bool) -> SquareMatrix:
    if not isinstance(payload, dict) or "rows" not in payload:
        raise ParseError('expected {"n": ..., "rows": [[...]]}')
    rows = payload["rows"]
    if not isinstance(rows, list) or not rows:
        raise ParseError('"rows" must be a nonempty list of lists')
    parsed = [vector_from_json(r, exact, "a matrix row") for r in rows]
    n = int_from_json(payload.get("n", len(parsed)), '"n" of a matrix')
    if n != len(parsed):
        raise ParseError('"n" does not match the number of rows')
    try:
        return SquareMatrix.from_rows(parsed)
    except DimensionMismatch as e:
        raise ParseError(str(e)) from e


def cmd_matrix(payload, cone_payload, cfg: RunConfig) -> dict:
    A = matrix_from_json(payload, cfg.exact)
    if cone_payload is not None:
        K = cone_from_json(cone_payload)
        if K.n != A.n:
            raise ParseError(f"matrix is {A.n}x{A.n} but cone is in R^{K.n}")
        report = perron_frobenius_check(A, K, cfg.tol, trials=cfg.trials,
                                        seed=cfg.seed)
        return {"input": jsonable(payload), "cone": {"type": K.kind, "n": K.n},
                "config": cfg.echo(), "cone_matrix_report": jsonable(report)}
    report = lti_report(A, cfg.tol)
    return {"input": jsonable(payload), "config": cfg.echo(),
            "lti_report": jsonable(report) | _criterion_entries(report)}


def cmd_restrict(payload, cfg: RunConfig) -> dict:
    if not isinstance(payload, dict):
        raise ParseError("expected an object with form/x/v")
    try:
        f = form_from_json(payload["form"], cfg.exact)
        x = vector_from_json(payload["x"], cfg.exact, '"x"')
        v = vector_from_json(payload["v"], cfg.exact, '"v"')
    except KeyError as e:
        raise ParseError(f"missing field {e}") from e
    try:
        p = restrict_line(f, x, v)
    except DimensionMismatch as e:
        raise ParseError(str(e)) from e
    return {"input": jsonable(payload), "config": cfg.echo(),
            "restriction": jsonable(p)}


def _read_payload(path: str | None):
    if path in (None, "-"):
        text = sys.stdin.read()
    else:
        with open(path) as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from e


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol-abs", type=float, default=1e-9)
    common.add_argument("--tol-rel", type=float, default=1e-9)
    common.add_argument("--trials", type=int, default=200)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--mode", choices=["exact", "float", "auto"],
                        default="auto")
    common.add_argument("--out", metavar="FILE", default=None,
                        help="write the JSON report here instead of stdout")
    parser = argparse.ArgumentParser(
        prog="conestab",
        description="Log-concavity, cone-positivity and Hurwitz-stability checks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_cone in (("unipoly", False), ("form", True),
                             ("matrix", True), ("restrict", False)):
        sp = sub.add_parser(name, parents=[common])
        sp.add_argument("input", nargs="?", default=None,
                        help="input JSON file (default: stdin)")
        if needs_cone:
            sp.add_argument("--cone", metavar="FILE", default=None,
                            help="cone descriptor JSON file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig(tol_abs=args.tol_abs, tol_rel=args.tol_rel,
                        trials=args.trials, seed=args.seed, mode=args.mode)
        payload = _read_payload(args.input)
        cone_payload = None
        if getattr(args, "cone", None):
            cone_payload = _read_payload(args.cone)
        if args.command == "unipoly":
            report = cmd_unipoly(payload, cfg)
        elif args.command == "form":
            report = cmd_form(payload, cone_payload, cfg)
        elif args.command == "matrix":
            report = cmd_matrix(payload, cone_payload, cfg)
        else:
            report = cmd_restrict(payload, cfg)
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
    except (ParseError, ZeroPolynomial, WrongDegree, OSError,
            ValueError) as e:
        print(json.dumps({"error": str(e)}, sort_keys=True), file=sys.stderr)
        return 2
    except (NonConvergence, OverflowError) as e:
        print(json.dumps({"error": str(e)}, sort_keys=True), file=sys.stderr)
        return 3
    if not args.out:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
