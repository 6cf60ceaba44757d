"""Importing conestab loads OpenBLAS single-threaded unless the caller chose
a thread count, and leaves os.environ as it was; its ``__all__`` names the
public API and nothing more.

Every thread-count case runs a fresh interpreter, because this process may
have imported numpy already, and then the import of conestab changes
nothing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# the OpenBLAS worker pool has one thread fewer than the CPUs it may use,
# so with one CPU a count of 1 shows nothing
COUNTS_THREADS = (sys.platform.startswith("linux")
                  and (os.cpu_count() or 1) >= 2)
# only the pthreads OpenBLAS of numpy's wheels starts its workers when it
# loads; an OpenMP OpenBLAS or MKL starts none at import
POOL_AT_LOAD = "scipy-openblas"

PROBE = """
import json, os
before = dict(os.environ)
import {module}
print(json.dumps({{"environ_kept": dict(os.environ) == before,
                  "environ": dict(os.environ),
                  "tasks": len(os.listdir("/proc/self/task"))
                  if os.path.isdir("/proc/self/task") else None}}))
import numpy
print(json.dumps(numpy.__config__.CONFIG["Build Dependencies"]["blas"]["name"]))
"""


def child_env(**thread_vars) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    path = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return dict(env, **thread_vars)


def probe(module="conestab", **thread_vars) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", PROBE.format(module=module)],
        env=child_env(**thread_vars), capture_output=True, text=True,
        check=True)
    seen, blas = map(json.loads, out.stdout.splitlines())
    seen["counts_threads"] = COUNTS_THREADS and blas == POOL_AT_LOAD
    return seen


@pytest.mark.parametrize("module", ["conestab", "conestab.numerics"])
def test_import_loads_one_thread_and_keeps_the_environment(module):
    seen = probe(module)
    assert seen["environ_kept"]
    assert not set(THREAD_VARS) & seen["environ"].keys()
    if seen["counts_threads"]:
        assert seen["tasks"] == 1


def test_caller_openblas_count_is_kept():
    seen = probe(OPENBLAS_NUM_THREADS="2")
    assert seen["environ_kept"]
    assert seen["environ"]["OPENBLAS_NUM_THREADS"] == "2"
    if seen["counts_threads"]:
        assert seen["tasks"] == 2


def test_caller_omp_count_alone_is_respected():
    seen = probe(OMP_NUM_THREADS="2")
    assert seen["environ_kept"]
    assert "OPENBLAS_NUM_THREADS" not in seen["environ"]
    assert seen["environ"]["OMP_NUM_THREADS"] == "2"
    if seen["counts_threads"]:
        assert seen["tasks"] == 2


def test_reports_do_not_depend_on_the_thread_count(tmp_path):
    # the README examples of `conestab unipoly` and `conestab matrix --cone`
    cone = tmp_path / "cone.json"
    cone.write_text('{"type": "orthant", "n": 3}')
    runs = [(["unipoly"], '{"coeffs": [5, 14, 12.5, 7.2, 3, 1]}'),
            (["matrix", "--cone", str(cone)],
             '{"rows": [[0,1,0],[0,0,1],[1,0,0]]}')]
    for args, payload in runs:
        outs = [subprocess.run(
            [sys.executable, "-m", "conestab.cli", *args], input=payload,
            env=child_env(**thread_vars), capture_output=True, text=True,
            check=True
        ).stdout for thread_vars in ({}, {"OPENBLAS_NUM_THREADS": "2"})]
        assert outs[0] and outs[0] == outs[1]


# names deleted because no command, script or benchmark used them
REMOVED = ("dual_contains", "dual_contained_in", "extreme_rays",
           "matrix_k_copositive_refute", "quadratic_matrix",
           "verify_sum_condition", "even_odd_parts")


def test_all_names_resolve_once_and_removed_names_are_gone():
    import conestab

    assert len(set(conestab.__all__)) == len(conestab.__all__)
    for name in conestab.__all__:
        assert hasattr(conestab, name), name
    for name in REMOVED:
        assert name not in conestab.__all__
        with pytest.raises(ImportError):
            exec(f"from conestab import {name}", {})
    assert not hasattr(conestab.SquareMatrix, "symmetrized")
    assert not hasattr(conestab.NewtonChainReport, "all_hold")
