"""Workload definitions: seeded inputs, the timed operation, and the
correctness labels each output is checked against.

Every workload drives conestab only through its public entry points
(``conestab.cli.cmd_unipoly``, ``cmd_form``, ``cmd_matrix``, and the
``conestab.cli`` module run as a subprocess).  Inputs come from the seed
alone; the program under test never sees the seed of the benchmark, only
the generated inputs.

Labels come from theory or from the independent root/eigenvalue oracle,
never from the output of the code under test.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

STATUSES = {"holds", "holds-sampled", "fails", "unknown", "fails-hypothesis",
            "not-applicable"}

# Decider/oracle comparisons inside this normalized minor-margin band are
# not labelled (same filter as scripts/decider_agreement.py).
MARGIN_FILTER = 1e-7

FORM_TRIALS = 50

# Wrong verdicts the benchmark expects at the commit that defined it: the
# false refutations of Lorentzian forms described in ROADMAP item 1
# (float sample points turn the structural zeros of a square-free Hessian
# into indeterminate comparisons, and "not K-nonnegative" is then reported
# as "fails").  They are counted in wrong_verdict_share like every other
# wrong verdict, but do not clear the `correct` flag.  A record also says
# when one of them no longer reproduces, so that the entry can be dropped.
OPEN_DEFECTS = frozenset({
    ("e3_4", "hessian_signature"),
    ("e3_5", "hessian_signature"),
    ("e4_5", "hessian_signature"),
    ("e2_4_float", "hessian_signature"),
})


def dumps(report) -> str:
    """The serializer every in-process operation ends with."""
    return json.dumps(report, sort_keys=True)


class Tally:
    """Correctness counts of one run.  Nothing here aborts the run."""

    def __init__(self, open_defects=frozenset()):
        self.open_defects = open_defects
        self.ops = 0
        self.failed = 0
        self.verdicts = 0
        self.labelled = 0
        self.wrong = 0
        self.open_defect_wrong = 0
        self.unknown = 0
        self.malformed = 0
        self.examples = []
        self.open_defects_seen = set()

    def status(self, status):
        self.verdicts += 1
        if status not in STATUSES:
            self.malformed += 1
            self._note(("malformed-status", status))
        if status == "unknown":
            self.unknown += 1

    def label(self, ok, where, open_defect=None):
        """Count one labelled verdict; ``ok`` False means it contradicts
        the label."""
        self.labelled += 1
        if ok:
            return
        self.wrong += 1
        if open_defect is not None:
            self.open_defect_wrong += 1
            self.open_defects_seen.add(open_defect)
        else:
            self._note(("wrong-verdict", where))

    def error(self, what):
        self.failed += 1
        self._note(("error", what))

    def _note(self, item):
        if len(self.examples) < 5:
            self.examples.append(repr(item)[:300])

    @property
    def correct(self) -> bool:
        return self.malformed == 0 and self.wrong == self.open_defect_wrong

    def summary(self) -> dict:
        def share(k, n):
            return k / n if n else 0.0
        return {
            "wrong_verdict_share": share(self.wrong, self.labelled),
            "unknown_share": share(self.unknown, self.verdicts),
            "error_share": share(self.failed, self.ops),
            "ops": self.ops, "failed": self.failed,
            "verdicts": self.verdicts, "labelled": self.labelled,
            "wrong": self.wrong, "unknown": self.unknown,
            "open_defect_wrong": self.open_defect_wrong,
            "open_defects_not_reproduced": sorted(
                "/".join(d) for d in self.open_defects - self.open_defects_seen),
            "malformed": self.malformed,
            "examples": self.examples,
        }


# ---------------------------------------------------------------- sweep

MAX_DEGREE = 12
# One pass of the sweep, as (kind, size) pairs: the mix of
# scripts/decider_agreement.py in exact proportions, 40% random signs with
# uniform degree, 40% stable products of a uniform number of quadratics,
# 20% all-positive coefficients with uniform degree.  A fixed mix per pass
# keeps the work per pass the same from seed to seed.
SWEEP_PASS = ([("random_sign", d) for d in range(1, MAX_DEGREE + 1)] * 2
              + [("quadratics", k) for k in range(1, MAX_DEGREE // 2 + 1)] * 4
              + [("positive", d) for d in range(1, MAX_DEGREE + 1)])


def sweep_instance(rng: random.Random, kind: str, size: int) -> list:
    """One integer polynomial, ascending coefficients: degree ``size``, or
    the product of ``size`` quadratics."""
    if kind == "random_sign":
        head = rng.choice([k for k in range(-9, 10) if k])
        return ([head] + [rng.randint(-9, 9) for _ in range(size - 1)]
                + [rng.randint(1, 9)])
    if kind == "quadratics":
        p = [1]
        for _ in range(size):
            q = [rng.randint(1, 9), rng.randint(1, 9), 1]
            out = [0] * (len(p) + 2)
            for i, a in enumerate(p):
                for j, b in enumerate(q):
                    out[i + j] += a * b
            p = out
        return p
    return [rng.randint(1, 20) for _ in range(size + 1)]


class Sweep:
    """Full unipoly report, serialized, over a fresh seeded stream."""

    name = "sweep"
    open_defects = frozenset()

    def __init__(self, seed: int):
        self.rng = random.Random(f"sweep/{seed}")
        self.degrees = Counter()
        self.same_sign = 0
        self.in_band = 0
        self.oracle_stable = 0

    def setup(self):
        from conestab.cli import RunConfig, cmd_unipoly
        self.cfg = RunConfig()
        self.cmd = cmd_unipoly
        warm = random.Random("sweep/warm-up")
        for kind, size in SWEEP_PASS[::3]:
            self.run({"coeffs": sweep_instance(warm, kind, size)})

    def inputs(self):
        while True:
            for kind, size in self.rng.sample(SWEEP_PASS, len(SWEEP_PASS)):
                yield {"coeffs": sweep_instance(self.rng, kind, size)}

    @staticmethod
    def pass_size() -> int:
        return len(SWEEP_PASS)

    def run(self, payload):
        report = self.cmd(payload, self.cfg)
        return report, dumps(report)

    def check(self, payload, out, tally: Tally):
        report, _ = out
        coeffs = payload["coeffs"]
        d = len(coeffs) - 1
        self.degrees[d] += 1
        if all(c > 0 for c in coeffs) or all(c < 0 for c in coeffs):
            self.same_sign += 1
        deciders = report["deciders"]
        oracle = deciders["root_oracle"]["status"]
        self.oracle_stable += oracle == "holds"
        for v in deciders.values():
            tally.status(v["status"])
        margins = report["minor_margins"][:d - 1]
        if margins and min(abs(m) for m in margins) <= MARGIN_FILTER:
            self.in_band += 1
            return
        for name, v in deciders.items():
            if name != "root_oracle":
                tally.label(v["status"] == oracle, (coeffs, name))

    def properties(self, n_ops) -> dict:
        n = max(n_ops, 1)
        return {"same_sign_share": self.same_sign / n,
                "in_filter_band_share": self.in_band / n,
                "oracle_stable_share": self.oracle_stable / n,
                "degree_histogram": {str(k): self.degrees[k]
                                     for k in sorted(self.degrees)}}


# ---------------------------------------------------------------- forms

def elementary_symmetric(n: int, k: int, coef=1) -> dict:
    terms = [{"exp": [1 if i in S else 0 for i in range(n)], "coef": coef}
             for S in itertools.combinations(range(n), k)]
    return {"n": n, "d": k, "terms": terms}


def product_of_linear_forms(forms) -> dict:
    poly = {(0,) * len(forms[0]): 1}
    for lin in forms:
        nxt = Counter()
        for exp, c in poly.items():
            for i, a in enumerate(lin):
                e = list(exp)
                e[i] += 1
                nxt[tuple(e)] += c * a
        poly = nxt
    return {"n": len(forms[0]), "d": len(forms),
            "terms": [{"exp": list(e), "coef": c}
                      for e, c in sorted(poly.items())]}


def diagonal_form(coefs) -> dict:
    n = len(coefs)
    return {"n": n, "d": 2,
            "terms": [{"exp": [2 if j == i else 0 for j in range(n)], "coef": c}
                      for i, c in enumerate(coefs)]}


ALL_CHECKS = ("lorentzian_sampled", "clc_necessary", "hessian_signature",
              "hurwitz_over_cone")

# name -> (form, cone or None for the orthant, mode, {check: label}).
# "holds" means the check must not return "fails"; "fails" means it must.
# e_k are Lorentzian and real stable (Branden-Huh, arXiv:1902.03719), so
# are products of positive linear forms; the Lorentz quadratic is
# Lorentzian on the second-order cone; the polyhedral cone is the orthant
# given by redundant generators; a sum of squares has more than one
# positive Hessian eigenvalue and must be refuted.
POSITIVE = {c: "holds" for c in ALL_CHECKS}
CATALOGUE = {
    "e2_4": (elementary_symmetric(4, 2), None, "exact", POSITIVE),
    "e3_4": (elementary_symmetric(4, 3), None, "exact", POSITIVE),
    "e3_5": (elementary_symmetric(5, 3), None, "exact", POSITIVE),
    "e4_5": (elementary_symmetric(5, 4), None, "exact", POSITIVE),
    "e2_4_float": (elementary_symmetric(4, 2, 1.0), None, "float", POSITIVE),
    "linear_product": (product_of_linear_forms(
        [[1, 2, 1], [2, 1, 3], [1, 1, 1]]), None, "exact", POSITIVE),
    "sum_of_squares": (diagonal_form([1, 1, 1]), None, "exact",
                       {"lorentzian_sampled": "fails",
                        "hessian_signature": "fails"}),
    "e3_4_polyhedral": (elementary_symmetric(4, 3),
                        {"type": "polyhedral", "n": 4,
                         "generators": [[1, 0, 0, 0], [0, 1, 0, 0],
                                        [0, 0, 1, 0], [0, 0, 0, 1],
                                        [1, 1, 0, 0], [0, 1, 1, 1]]},
                        "exact", POSITIVE),
    "lorentz_soc4": (diagonal_form([-1, -1, -1, 1]),
                     {"type": "second_order", "n": 4}, "exact", POSITIVE),
}


class Forms:
    """Every check of cmd_form over a fixed catalogue at a fixed trial
    count; one operation is one catalogue record, and each pass over the
    catalogue uses a fresh seed drawn from the workload seed."""

    name = "forms"
    open_defects = OPEN_DEFECTS

    def __init__(self, seed: int):
        self.rng = random.Random(f"forms/{seed}")
        self.trials_run = 0
        self.checks = 0
        self.early = 0

    def setup(self):
        from conestab.cli import RunConfig, cmd_form
        self.cmd = cmd_form
        self.config = RunConfig
        for name in CATALOGUE:
            self.run((name, 2**31 + 1, 2))

    def inputs(self):
        while True:
            pass_seed = self.rng.randrange(2**31)
            for name in CATALOGUE:
                yield (name, pass_seed, FORM_TRIALS)

    @staticmethod
    def pass_size() -> int:
        return len(CATALOGUE)

    def run(self, item):
        name, seed, trials = item
        form, cone, mode, _ = CATALOGUE[name]
        report = self.cmd(form, cone, self.config(trials=trials, seed=seed,
                                                  mode=mode))
        return report, dumps(report)

    def trials_of(self, out) -> int:
        report, _ = out
        trials = report["config"]["trials"]
        return sum(c.get("details", {}).get("trials_run", trials)
                   for c in report["checks"].values())

    def check(self, item, out, tally: Tally):
        name, _, trials = item
        report, _ = out
        labels = CATALOGUE[name][3]
        for check, rep in report["checks"].items():
            status = rep["verdict"]["status"]
            tally.status(status)
            run = rep.get("details", {}).get("trials_run", trials)
            self.trials_run += run
            self.checks += 1
            self.early += run < trials
            want = labels.get(check)
            if want is None:
                continue
            ok = (status == "fails") if want == "fails" else status != "fails"
            key = (name, check)
            tally.label(ok, key, key if key in self.open_defects else None)

    def properties(self, n_ops) -> dict:
        return {"trials_run": self.trials_run, "checks": self.checks,
                "early_exit_share": self.early / max(self.checks, 1),
                "trials_per_check": FORM_TRIALS,
                "catalogue": sorted(CATALOGUE)}


# ---------------------------------------------------------------- lti

# One pass: every dimension 6..12, once with integer and once with
# rational entries, so that every run sees the same mix of sizes.
LTI_SCHEDULE = [(n, rational) for n in range(6, 13) for rational in (False, True)]


def lti_matrix(rng: random.Random, n: int, rational: bool) -> dict:
    """An exact n x n matrix with rational entries of denominator <= 4 or
    with integer entries, shifted by a multiple of the identity so that
    both stable and unstable systems occur."""
    shift = Fraction(rng.randint(0, 4 * n), 4) if rational else rng.randint(0, n)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            v = (Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if rational
                 else rng.randint(-3, 3))
            if i == j:
                v -= shift
            row.append(v)
        rows.append(row)
    return {"n": n, "rows": [[_scalar(v) for v in r] for r in rows]}


def _scalar(v):
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    return v


def _bits(text) -> int:
    frac = Fraction(text)
    return max(abs(frac.numerator).bit_length(), frac.denominator.bit_length())


class LTI:
    """cmd_matrix without a cone over a fresh seeded stream of matrices."""

    name = "lti"
    open_defects = frozenset()

    def __init__(self, seed: int):
        self.rng = random.Random(f"lti/{seed}")
        self.dims = Counter()
        self.rational = 0
        self.stable = 0
        self.bits_max = 0

    def setup(self):
        from conestab.cli import RunConfig, cmd_matrix
        self.cfg = RunConfig()
        self.cmd = cmd_matrix
        warm = random.Random("lti/warm-up")
        for rational in (False, True):
            self.run(lti_matrix(warm, 6, rational))

    def inputs(self):
        while True:
            for n, rational in self.rng.sample(LTI_SCHEDULE, len(LTI_SCHEDULE)):
                yield lti_matrix(self.rng, n, rational)

    @staticmethod
    def pass_size() -> int:
        return len(LTI_SCHEDULE)

    def run(self, payload):
        report = self.cmd(payload, None, self.cfg)
        return report, dumps(report)

    def check(self, payload, out, tally: Tally):
        report, _ = out
        rep = report["lti_report"]
        self.dims[payload["n"]] += 1
        self.rational += any(isinstance(v, str) for r in payload["rows"] for v in r)
        self.bits_max = max(self.bits_max, *(_bits(str(c)) for c in
                                             rep["char_poly"]["coeffs"]))
        eigen = rep["eigen_stable"]["status"]
        for v in (rep["routh_hurwitz"], rep["eigen_stable"]):
            tally.status(v["status"])
        conclusion = rep["conclusion"]
        self.stable += conclusion == "stable"
        if eigen in ("holds", "fails"):
            want = "stable" if eigen == "holds" else "unstable"
            tally.label(conclusion == want, (payload, conclusion, eigen))

    def properties(self, n_ops) -> dict:
        n = max(n_ops, 1)
        return {"dimension_histogram": {str(k): self.dims[k]
                                        for k in sorted(self.dims)},
                "rational_share": self.rational / n,
                "stable_share": self.stable / n,
                "coeff_bits_max": self.bits_max}


# ---------------------------------------------------------------- cli

# The README examples, in README order.
CONE_FILE = "orthant3.json"
CLI_EXAMPLES = {
    "unipoly": (["unipoly"], {"coeffs": [5, 14, 12.5, 7.2, 3, 1]}),
    "form": (["form", "--trials", "100"],
             {"n": 3, "d": 2, "terms": [{"exp": [1, 1, 0], "coef": 1},
                                        {"exp": [1, 0, 1], "coef": 1},
                                        {"exp": [0, 1, 1], "coef": 1}]}),
    "matrix": (["matrix"], {"rows": [[-1, 0], [0, -2]]}),
    "matrix_cone": (["matrix", "--cone", CONE_FILE],
                    {"rows": [[0, 1, 0], [0, 0, 1], [1, 0, 0]]}),
    "restrict": (["restrict"],
                 {"form": {"n": 2, "d": 2,
                           "terms": [{"exp": [2, 0], "coef": 1},
                                     {"exp": [1, 1], "coef": 2},
                                     {"exp": [0, 2], "coef": 1}]},
                  "x": [1, 1], "v": [1, 1]}),
}


class CLI:
    """One-shot ``python -m conestab.cli`` invocations of the README
    examples, one after another.  Each invocation runs twice in a row and
    the two outputs must be byte-identical."""

    name = "cli"
    open_defects = frozenset()

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.rng = random.Random(f"cli/{seed}")
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        PYTHONHASHSEED="0")
        self.counts = Counter()
        self.previous = None
        self.tracer_argv = None

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        (self.workdir / CONE_FILE).write_text(
            json.dumps({"type": "orthant", "n": 3}))
        self.run(("unipoly", 0, 0))

    def inputs(self):
        """(example, cli --seed, repeat) triples: a seeded order of the
        examples per round, each example immediately run a second time."""
        while True:
            order = list(CLI_EXAMPLES)
            self.rng.shuffle(order)
            cli_seed = self.rng.randrange(1000)
            for name in order:
                yield (name, cli_seed, 0)
                yield (name, cli_seed, 1)

    @staticmethod
    def pass_size() -> int:
        return 2 * len(CLI_EXAMPLES)

    def argv(self, item) -> list:
        name, cli_seed, _ = item
        args, _ = CLI_EXAMPLES[name]
        prefix = self.tracer_argv or ["-m", "conestab.cli"]
        return [sys.executable, *prefix, *args, "--seed", str(cli_seed)]

    def run(self, item):
        name = item[0]
        proc = subprocess.run(self.argv(item),
                              input=json.dumps(CLI_EXAMPLES[name][1]),
                              capture_output=True, text=True,
                              cwd=self.workdir, env=self.env, timeout=120)
        return proc

    def check(self, item, proc, tally: Tally):
        name, _, repeat = item
        self.counts[name] += 1
        previous, self.previous = self.previous, proc.stdout
        if proc.returncode != 0:
            tally.error((name, proc.returncode, proc.stderr[-200:]))
            return
        if repeat == 1 and proc.stdout != previous:
            tally.error((name, "rerun output differs"))
            return
        report = json.loads(proc.stdout)
        for status in cli_verdicts(name, report):
            tally.status(status)
        if repeat == 1:
            return
        for ok, where in cli_labels(name, report):
            tally.label(ok, (name, where))

    def properties(self, n_ops) -> dict:
        return {"invocations": dict(sorted(self.counts.items()))}


def cli_verdicts(name, report):
    """Statuses of the verdicts in one README example's report."""
    if name == "unipoly":
        return [v["status"] for v in report["deciders"].values()]
    if name == "form":
        return [v["verdict"]["status"] for v in report["checks"].values()]
    if name == "matrix":
        rep = report["lti_report"]
        return [rep["routh_hurwitz"]["status"], rep["eigen_stable"]["status"]]
    if name == "matrix_cone":
        rep = report["cone_matrix_report"]
        return [rep[k]["status"] for k in
                ("k_nonnegative", "k_positive", "k_irreducible")]
    return []


def cli_labels(name, report):
    """(ok, what) pairs for one README example's report, from theory."""
    if name == "unipoly":
        # 5 + 14t + 12.5t^2 + 7.2t^3 + 3t^4 + t^5, compared with its oracle
        dec = report["deciders"]
        oracle = dec["root_oracle"]["status"]
        for k, v in dec.items():
            yield v["status"] == oracle, k
    elif name == "form":
        # e2(x1, x2, x3) is Lorentzian on the orthant
        for k, v in report["checks"].items():
            yield v["verdict"]["status"] != "fails", k
    elif name == "matrix":
        yield report["lti_report"]["conclusion"] == "stable", "conclusion"
    elif name == "matrix_cone":
        # a cyclic permutation is orthant-nonnegative and irreducible but
        # not orthant-positive
        rep = report["cone_matrix_report"]
        yield rep["k_nonnegative"]["status"] == "holds", "k_nonnegative"
        yield rep["k_irreducible"]["status"] == "holds", "k_irreducible"
        yield rep["k_positive"]["status"] == "fails", "k_positive"
    elif name == "restrict":
        # (x + y)^2 at x = v = (1, 1) is (2 + 2t)^2
        yield report["restriction"]["coeffs"] == [4, 8, 4], "coeffs"
