#!/usr/bin/env python3
"""Break one decision rule at a time and check that the named tests fail.

Each entry of ``MUTANTS`` names a file under ``src/conestab``, an exact
snippet that must occur in it once, its replacement, and the pytest node
ids that must fail on the mutant.  Every mutant runs in a temporary copy
of ``src/`` (with ``tests/`` and ``pyproject.toml`` beside it, so that
pytest and hypothesis write nothing into the checkout); only its own
nodes run against it.  Before any mutant runs, the nodes of all entries
must pass on the unmutated copy, so a failure can only come from the
mutant.  Each entry names a test with fixed inputs that kills it, and
hypothesis runs with a fixed seed, so the result does not change from run
to run.

    python scripts/mutation_gate.py

Exits 0 when every mutant is killed, and 1 when one survives, when a
snippet no longer occurs exactly once in its file (so the table follows
the code), when the nodes fail unmutated or when a pytest run takes
longer than ``TIMEOUT`` seconds.  A mutant that survives needs a test
that kills it, not the removal of its entry.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 600  # seconds for one pytest run


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/conestab
    snippet: str
    replacement: str
    tests: tuple  # pytest node ids, relative to the repository root


HURWITZ_MINORS = (
    "tests/test_hurwitz.py::TestHurwitzMinorsFromCoefficients")
SHAPED_MINORS = ("tests/test_numerics.py::TestBareissKernel::"
                 "test_hurwitz_shaped_minors_match_cofactor_oracle")
RAY_WITNESSES = "tests/test_lorentzian_rays.py::TestWitnesses::"
IMPLIED_CHECKS = "tests/test_lorentzian_rays.py::TestImpliedChecks::"

MUTANTS = (
    Mutant("routh-divisor", "numerics.py",
           "[(pivot * u - upper[0] * v) // div",
           "[(pivot * u - upper[0] * v) // next_div",
           (HURWITZ_MINORS,)),
    Mutant("hurwitz-shape-without-zero-column", "numerics.py",
           "all(r[0] == 0 and r[1:] == s[:-1]",
           "all(r[1:] == s[:-1]",
           (SHAPED_MINORS,)),
    Mutant("stall-padded-with-zeros", "numerics.py",
           "minors += [ring(determinant(M.leading_block(k)))",
           "minors += [ring(0)",
           (HURWITZ_MINORS,)),
    Mutant("ring-from-top-rows", "numerics.py",
           "ring = (int if all(isinstance(v, int) for r in rows for v in r)",
           "ring = (int if all(isinstance(v, int) for r in rows[:2]"
           " for v in r)",
           (SHAPED_MINORS,)),
    Mutant("bareiss-swap-keeps-sign", "numerics.py",
           "            a[k], a[i] = a[i], a[k]\n            sign = -sign\n",
           "            a[k], a[i] = a[i], a[k]\n",
           ("tests/test_numerics.py::TestBareissKernel::"
            "test_zero_pivot_swap_flips_the_sign",
            "tests/test_numerics.py::TestBareissKernel::"
            "test_determinant_matches_cofactor_oracle")),
    Mutant("weighted-newton-floor", "sequences.py",
           'witness=("weighted-newton", i), floor=den * den)',
           'witness=("weighted-newton", i), floor=den)',
           ("tests/test_sequences.py::TestIntRowsMatchFractionReferences::"
            "test_weighted_newton_rows_keep_the_square_floor",
            "tests/test_sequences.py::TestIntRowsMatchFractionReferences")),
    Mutant("ledger-strict-admits-zero", "verdict.py",
           "violated = slack <= 0 if strict else slack < 0",
           "violated = slack < 0 if strict else slack < 0",
           ("tests/test_verdict.py::test_strict_zero_slack_is_a_violation",
            "tests/test_verdict.py::test_lazy_ledger_matches_eager_oracle")),
    Mutant("minor-chain-coefficient-floor", "hurwitz.py",
           'witness=("coefficient", k), strict=True,\n'
           "                    floor=den)",
           'witness=("coefficient", k), strict=True)',
           ("tests/test_hurwitz.py::TestOneLedgerPerVerdict::"
            "test_minor_chains_keep_the_coefficient_floor",
            "tests/test_hurwitz.py::TestOneLedgerPerVerdict::"
            "test_minor_chains_match_the_separate_loops")),
    Mutant("soc-boundary-identity", "cones.py",
           "head = [2 * m * c for c in u] + [sign * (m * m - s)]",
           "head = [2 * m * c for c in u] + [sign * (m * m + s)]",
           ("tests/test_cones.py::TestSampling::"
            "test_second_order_points_are_int_and_in_the_cone",)),
    Mutant("soc-interior-admits-boundary", "cones.py",
           "if Sign.NEG in signs or (interior and Sign.ZERO in signs):",
           "if Sign.NEG in signs:",
           ("tests/test_cones.py::TestMatrixKPositive::"
            "test_soc_exact_boundary_image_refutes",)),
    Mutant("ledger-band-decides", "verdict.py",
           "undecided = sign is Sign.INDETERMINATE",
           "undecided = False",
           ("tests/test_verdict.py::"
            "test_float_slack_in_the_band_is_indeterminate",
            "tests/test_verdict.py::test_lazy_ledger_matches_eager_oracle")),
    Mutant("berkowitz-toeplitz-sign", "numerics.py",
           "c = [1, -a[r][r]]",
           "c = [1, a[r][r]]",
           ("tests/test_numerics.py::TestCharPoly::test_diagonal",)),
    Mutant("char-poly-whole-fractions-give-ints", "numerics.py",
           "    if D is not None:\n        c = [Fraction(ck, D ** (n - k))",
           "    if D not in (None, 1):\n        c = [Fraction(ck, D ** (n - k))",
           ("tests/test_numerics.py::TestCharPoly::"
            "test_coefficient_types_of_rational_matrices[whole-fractions]",)),
    Mutant("p-over-q-swapped", "numerics.py",
           "frac = Fraction(int(num), int(den))",
           "frac = Fraction(int(den), int(num))",
           ("tests/test_numerics.py::TestToleranceAndSigns::"
            "test_p_over_q_spellings_match_the_fraction_parser[plain]",)),
    Mutant("realization-coefficient-shift", "lti.py",
           "a, b = report.char_poly.coeff(k), normalized.coeff(k)",
           "a, b = report.char_poly.coeff(k), normalized.coeff(k + 1)",
           ("tests/test_lti.py::TestRealizationCheck::"
            "test_square_of_sum_realization",
            "tests/test_lti.py::TestRealizationCheck::"
            "test_coefficient_mismatch_carries_index")),
    Mutant("pairing-without-transpose", "forms.py",
           "return _object_dot(G, _object_dot(Q2.to_objects(), G.T))",
           "return _object_dot(G, _object_dot(Q2.to_objects(), G))",
           ("tests/test_forms.py::TestQuadraticPairingProducts::"
            "test_simplicial_pairing_is_g_q_g_transpose",)),
    Mutant("dichotomy-reused-on-second-order", "forms.py",
           "        if K.kind != SECOND_ORDER:\n"
           "            dichotomy = _first_call(dichotomy)",
           "        if True:\n"
           "            dichotomy = _first_call(dichotomy)",
           ("tests/test_forms.py::TestQuadraticHessianOnce::"
            "test_call_counts[second_order]",)),
    Mutant("linear-factor-swapped", "forms.py",
           "linear = [(xi * vi ** 0, xi ** 0 * vi) for xi, vi in zip(x, v)]",
           "linear = [(vi * xi ** 0, vi ** 0 * xi) for xi, vi in zip(x, v)]",
           ("tests/test_forms.py::TestRestrictLineLinearFactors::"
            "test_float_direction_makes_the_constant_term_a_float",)),
    Mutant("routh-rule-without-coefficients", "hurwitz.py",
           "(all(c > 0 for c in p.cleared[0])\n            and all(m > 0",
           "(all(m > 0",
           ("tests/test_sign_rules.py::TestRouth::"
            "test_coefficient_test_refutes_a_negative_constant",)),
    Mutant("k-positivity-rule-admits-zero", "cones.py",
           "(values > 0).all() if interior",
           "(values >= 0).all() if interior",
           ("tests/test_sign_rules.py::TestConeMatrices::"
            "test_identity_is_not_k_positive",)),
    Mutant("second-order-rule-without-tail", "cones.py",
           "return images, np.array([tails, slacks])",
           "return images, np.array([slacks, slacks])",
           ("tests/test_sign_rules.py::TestConeMatrices::"
            "test_minus_identity_reverses_the_second_order_tail",)),
    Mutant("irreducibility-power-short", "cones.py",
           "return _object_power(np.identity(n, dtype=object) + M, n - 1)",
           "return _object_power(np.identity(n, dtype=object) + M, n - 2)",
           ("tests/test_cones.py::TestMatrixKIrreducible::"
            "test_cyclic_permutation",)),
    Mutant("lorentzian-without-sign-test", "forms.py",
           "        if terms[exp] < 0:\n",
           "        if False:\n",
           (RAY_WITNESSES + "test_negative_coefficient",)),
    Mutant("lorentzian-without-exchange", "forms.py",
           "exchange = _exchange_failure(support)",
           "exchange = None",
           (RAY_WITNESSES + "test_support_without_the_exchange_property",)),
    Mutant("lorentzian-admits-no-positive-eigenvalue", "forms.py",
           "if k > 1:",
           "if k > 0:",
           (RAY_WITNESSES + "test_elementary_symmetric_forms_hold",)),
    Mutant("implied-by-any-ray-verdict", "forms.py",
           'if lorentzian.verdict.status != HOLDS or "rays" not in details:',
           'if "rays" not in details:',
           (IMPLIED_CHECKS + "test_a_ray_fails_implies_nothing",)),
    Mutant("implied-hurwitz-without-strictness", "forms.py",
           'if details["strict"] and f.d <= 4:',
           "if f.d <= 4:",
           (IMPLIED_CHECKS
            + "test_e3_4_is_not_strict_so_hurwitz_is_sampled",)),
    Mutant("implied-hurwitz-past-degree-4", "forms.py",
           'if details["strict"] and f.d <= 4:',
           'if details["strict"]:',
           (IMPLIED_CHECKS + "test_strict_degree_5_samples_hurwitz",)),
    Mutant("strict-without-full-support", "forms.py",
           "strict = len(support) == math.comb(len(rays) + f.d - 1, f.d)",
           "strict = True",
           (IMPLIED_CHECKS
            + "test_e3_4_is_not_strict_so_hurwitz_is_sampled",)),
    Mutant("strict-admits-a-zero-eigenvalue", "forms.py",
           "strict = strict and not zero",
           "strict = strict",
           (IMPLIED_CHECKS + "test_a_singular_alpha_hessian_is_not_strict",)),
    Mutant("inertia-without-zero-count", "numerics.py",
           "zero = len(chi) - 1 - max(k for k, c in enumerate(chi) if c != 0)",
           "zero = 0",
           ("tests/test_lorentzian_rays.py::TestProperties::"
            "test_inertia_counts_zero_eigenvalues_as_zero",)),
    Mutant("margin-inverted", "verdict.py",
           "self._margin = Fraction(self._slack, self._scale)",
           "self._margin = Fraction(self._scale, self._slack)",
           ("tests/test_verdict.py::test_ties_go_to_the_first_witness",)),
)


def _stale() -> list:
    """The entries whose snippet does not occur exactly once, as messages."""
    out = []
    for m in MUTANTS:
        count = (ROOT / "src" / "conestab" / m.file).read_text().count(
            m.snippet)
        if count != 1:
            out.append(f"{m.name}: snippet occurs {count} times in {m.file}")
    return out


def _pytest(tree: Path, nodes) -> int | None:
    """Run the nodes against the copy in ``tree``; pytest's exit code, or
    None when the run takes longer than ``TIMEOUT``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", "--hypothesis-seed=0", *nodes],
            cwd=tree, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        return None


def _copy(tree: Path, mutant: Mutant | None = None) -> None:
    ignore = shutil.ignore_patterns("__pycache__")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, tree / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", tree)
    if mutant is not None:
        path = tree / "src" / "conestab" / mutant.file
        path.write_text(path.read_text().replace(mutant.snippet,
                                                 mutant.replacement))


def main() -> int:
    stale = _stale()
    if stale:
        print("\n".join(stale), file=sys.stderr)
        return 1
    nodes = list(dict.fromkeys(n for m in MUTANTS for n in m.tests))
    with tempfile.TemporaryDirectory() as tmp:
        _copy(Path(tmp))
        if _pytest(Path(tmp), nodes) != 0:
            print("the named tests fail or time out on the unmutated tree",
                  file=sys.stderr)
            return 1
    survivors = []
    for m in MUTANTS:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            _copy(Path(tmp), m)
            # 1 is a test failure; a collection or usage error is not a
            # kill, nor is a run that hangs
            code = _pytest(Path(tmp), m.tests)
        status = ("killed" if code == 1 else
                  f"SURVIVED (timed out after {TIMEOUT} s)" if code is None
                  else f"SURVIVED (pytest exit {code})")
        print(f"{m.name}: {status} in {time.perf_counter() - start:.1f} s",
              flush=True)
        if code != 1:
            survivors.append(m.name)
    if survivors:
        print(f"surviving mutants: {', '.join(survivors)}", file=sys.stderr)
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
