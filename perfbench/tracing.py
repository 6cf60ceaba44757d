"""Span recording around conestab's layer boundaries.

The tracer swaps wrappers in for public functions at the names the calling
modules bind (``conestab.hurwitz.leading_minors``, ``conestab.lti.char_poly``,
``InequalityLedger.require``, ...).  A span is (name, start_ns, end_ns,
parent index, operation index); spans stay in memory until the run writes
them out.  A layer's self time is its span time minus the time covered by
its child spans.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from fractions import Fraction

# (module, attribute, span name).  A dotted attribute names a method.
TARGETS = [
    ("conestab.verdict", "InequalityLedger.require", "verdict.require"),
    ("conestab.hurwitz", "leading_minors", "numerics.leading_minors"),
    ("conestab.lti", "char_poly", "numerics.char_poly"),
    ("conestab.hurwitz", "all_roots", "numerics.all_roots"),
    ("conestab.cli", "all_roots", "numerics.all_roots"),
    ("conestab.forms", "sym_eigs", "numerics.sym_eigs"),
    ("conestab.cones", "sample_interior", "cones.sample"),
    ("conestab.cones", "sample_cone", "cones.sample"),
    ("conestab.forms", "sample_interior", "cones.sample"),
    ("conestab.forms", "sample_cone", "cones.sample"),
    ("conestab.cones", "matrix_k_nonnegative", "cones.matrix_k"),
    ("conestab.cones", "matrix_k_positive", "cones.matrix_k"),
    ("conestab.cones", "matrix_k_irreducible", "cones.matrix_k"),
    ("conestab.forms", "matrix_k_nonnegative", "cones.matrix_k"),
    ("conestab.forms", "matrix_k_irreducible", "cones.matrix_k"),
    ("conestab.forms", "perron_frobenius_check", "cones.perron_frobenius_check"),
    ("conestab.cli", "perron_frobenius_check", "cones.perron_frobenius_check"),
    ("conestab.cones", "Cone.polyhedral", "cones.polyhedral"),
    ("conestab.cones", "extreme_ray_reps", "cones.polyhedral"),
    ("conestab.forms", "extreme_ray_reps", "cones.polyhedral"),
    ("conestab.forms", "restrict_line", "forms.restrict_line"),
    ("conestab.cli", "restrict_line", "forms.restrict_line"),
    ("conestab.lti", "restrict_line", "forms.restrict_line"),
    ("conestab.forms", "MultiForm.dir_derivative", "forms.dir_derivative"),
    ("conestab.forms", "MultiForm.hessian_at", "forms.hessian_at"),
    ("conestab.cli", "lorentzian_sample_check", "forms.check"),
    ("conestab.cli", "clc_necessary_check", "forms.check"),
    ("conestab.cli", "hessian_signature_check", "forms.check"),
    ("conestab.cli", "hurwitz_over_cone_check", "forms.check"),
    ("conestab.cli", "stability_report", "hurwitz.stability_report"),
    ("conestab.hurwitz", "hermite_biehler_stable", "hurwitz.hermite_biehler_stable"),
    ("conestab.hurwitz", "degree_reduction_stable", "hurwitz.degree_reduction_stable"),
    ("conestab.hurwitz", "alpha_criterion", "hurwitz.alpha_criterion"),
    ("conestab.lti", "alpha_criterion", "hurwitz.alpha_criterion"),
    ("conestab.cli", "newton_chain_report", "sequences.newton_chain_report"),
    ("conestab.cli", "is_univariate_clc", "sequences.is_univariate_clc"),
    ("conestab.cli", "lti_report", "lti.lti_report"),
    ("conestab.cli", "unipoly_from_json", "cli.parse"),
    ("conestab.cli", "form_from_json", "cli.parse"),
    ("conestab.cli", "cone_from_json", "cli.parse"),
    ("conestab.cli", "matrix_from_json", "cli.parse"),
]

# Per-layer metrics: name -> (unit, better).  A "<span>.calls" or
# "<span>.self_ms" metric is read from the span aggregate of that name.
LAYER_METRICS = {}
for _span, _stats in [
        ("verdict.require", ("calls", "self_ms", "exact_share")),
        ("numerics.leading_minors", ("calls", "self_ms", "stall_share")),
        ("numerics.char_poly", ("calls", "self_ms", "coeff_bits_max")),
        ("numerics.all_roots", ("calls", "self_ms")),
        ("numerics.sym_eigs", ("calls", "self_ms")),
        ("cones.sample", ("calls", "self_ms")),
        ("cones.matrix_k", ("calls", "self_ms")),
        ("cones.perron_frobenius_check", ("calls", "self_ms")),
        ("cones.polyhedral", ("self_ms",)),
        ("forms.restrict_line", ("calls", "self_ms")),
        ("forms.dir_derivative", ("calls", "self_ms")),
        ("forms.hessian_at", ("calls", "self_ms")),
        ("forms.check", ("trials_run", "early_exit_share")),
        ("hurwitz.stability_report", ("self_ms",)),
        ("hurwitz.hermite_biehler_stable", ("self_ms",)),
        ("hurwitz.degree_reduction_stable", ("self_ms",)),
        ("hurwitz.alpha_criterion", ("self_ms",)),
        ("sequences.newton_chain_report", ("self_ms",)),
        ("sequences.is_univariate_clc", ("self_ms",)),
        ("lti.lti_report", ("self_ms",)),
        ("cli.parse", ("self_ms",)),
        ("cli.jsonable", ("calls", "self_ms")),
        ("cli.dumps", ("self_ms",))]:
    for _stat in _stats:
        LAYER_METRICS[f"{_span}.{_stat}"] = {
            "calls": ("count", "lower"), "self_ms": ("ms", "lower"),
            "exact_share": ("share", "lower"), "stall_share": ("share", "lower"),
            "coeff_bits_max": ("bits", "lower"), "trials_run": ("count", "higher"),
            "early_exit_share": ("share", "lower")}[_stat]
LAYER_METRICS.update({
    "cli.interpreter_ms": ("ms", "lower"),
    "cli.import_ms": ("ms", "lower"),
    "cli.numpy_import_ms": ("ms", "lower"),
    "trace.overhead_share": ("share", "lower"),
})

SHARE_STATS = {"exact_share": "exact", "stall_share": "stall",
               "early_exit_share": "early_exit"}


def _is_exact(x) -> bool:
    return type(x) is int or type(x) is Fraction


class Tracer:
    """Records spans for one process; ``install`` patches conestab and
    ``uninstall`` restores every original binding."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.counters = defaultdict(lambda: defaultdict(int))
        self._undo = []

    # -- recording

    def wrap(self, name, fn, post=None, pre=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, tracer.op)
            if post is not None:
                post(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_outermost(self, name, fn):
        """Span only the outermost call of a recursive function."""
        traced = self.wrap(name, fn)
        depth = [0]

        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            try:
                return traced(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapper

    def span(self, name, fn, *args):
        """Run fn(*args) inside one span, e.g. a whole operation."""
        return self.wrap(name, fn)(*args)

    # -- per-layer counters kept beside the spans

    def _count(self, span, key, hit):
        c = self.counters[span]
        c[key + "_n"] += 1
        c[key] += bool(hit)

    def _require_pre(self, args, kwargs):
        lhs = args[1]
        rhs = args[2] if len(args) > 2 else kwargs.get("rhs", 0)
        scale = kwargs.get("scale")
        self._count("verdict.require", "exact", _is_exact(lhs) and _is_exact(rhs)
                    and (scale is None or _is_exact(scale)))

    def _minors_post(self, args, kwargs, minors):
        self._count("numerics.leading_minors", "stall",
                    any(m == 0 for m in minors[:-1]))

    def _char_poly_post(self, args, kwargs, chi):
        c = self.counters["numerics.char_poly"]
        for v in chi.coeffs:
            if _is_exact(v):
                v = Fraction(v)
                bits = max(abs(v.numerator).bit_length(),
                           v.denominator.bit_length())
                c["coeff_bits_max"] = max(c["coeff_bits_max"], bits)

    def _check_post(self, args, kwargs, report):
        trials = kwargs.get("trials", 200)
        run = report.details.get("trials_run", trials)
        c = self.counters["forms.check"]
        c["trials_run"] += run
        self._count("forms.check", "early_exit", run < trials)

    # -- patching

    def install(self):
        hooks = {
            "verdict.require": {"pre": self._require_pre},
            "numerics.leading_minors": {"post": self._minors_post},
            "numerics.char_poly": {"post": self._char_poly_post},
            "forms.check": {"post": self._check_post},
        }
        for modname, attr, name in TARGETS:
            mod = importlib.import_module(modname)
            owner, _, leaf = attr.rpartition(".")
            target = getattr(mod, owner) if owner else mod
            original = target.__dict__[leaf] if owner else getattr(mod, leaf)
            if isinstance(original, classmethod):
                new = classmethod(self.wrap(name, original.__func__,
                                            **hooks.get(name, {})))
            else:
                new = self.wrap(name, original, **hooks.get(name, {}))
            setattr(target, leaf, new)
            self._undo.append((target, leaf, original))
        cli = importlib.import_module("conestab.cli")
        self._undo.append((cli, "jsonable", cli.jsonable))
        cli.jsonable = self.wrap_outermost("cli.jsonable", cli.jsonable)

    def uninstall(self):
        while self._undo:
            target, leaf, original = self._undo.pop()
            setattr(target, leaf, original)

    # -- aggregation

    def aggregate(self) -> dict:
        """name -> {"calls", "total_ns", "self_ns"} over recorded spans."""
        child_ns = [0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        out = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            a = out[name]
            a["calls"] += 1
            a["total_ns"] += t1 - t0
            a["self_ns"] += t1 - t0 - child_ns[i]
        return dict(out)

    def dump_spans(self, fh):
        for i, (name, t0, t1, parent, op) in enumerate(self.spans):
            fh.write(json.dumps([i, parent, op, name, t0, t1]) + "\n")


def merge_counters(dst: dict, src: dict):
    """Add the per-layer counters of src into dst (maxima stay maxima)."""
    for span, c in src.items():
        d = dst.setdefault(span, {})
        for k, v in c.items():
            d[k] = max(d.get(k, 0), v) if k == "coeff_bits_max" else d.get(k, 0) + v


def layer_metrics(agg: dict, counters: dict, ops_passes: int) -> dict:
    """Per-layer metric values, per pass over the traced input set."""
    out = {}
    for metric in LAYER_METRICS:
        span, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = agg.get(span, {}).get("calls", 0) / ops_passes
        elif stat == "self_ms":
            out[metric] = agg.get(span, {}).get("self_ns", 0) / 1e6 / ops_passes
        elif stat in SHARE_STATS:
            c = counters.get(span, {})
            key = SHARE_STATS[stat]
            out[metric] = c.get(key, 0) / c[key + "_n"] if c.get(key + "_n") else 0.0
        elif stat == "coeff_bits_max":
            out[metric] = counters.get(span, {}).get("coeff_bits_max", 0)
        elif stat == "trials_run":
            out[metric] = counters.get(span, {}).get("trials_run", 0) / ops_passes
    return out
