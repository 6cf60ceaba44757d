"""The paper scripts draw the same inputs in every process."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# A small sufficiency sweep that prints the coefficients it hands to the
# root oracle.
SWEEP = """
import json
import sufficiency_sweep as sweep

drawn = []
oracle = sweep.root_oracle_verdict


def recording(p, *args, **kwargs):
    drawn.append([str(c) for c in p.coeffs])
    return oracle(p, *args, **kwargs)


sweep.root_oracle_verdict = recording
sweep.main(["--count", "3"])
print(json.dumps(drawn))
"""


def drawn_under(hash_seed: int) -> list:
    path = [str(ROOT / "src"), str(ROOT / "scripts")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-c", SWEEP], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_sufficiency_sweep_draws_the_same_polynomials_in_every_process():
    # str hashes are salted per process, so a seed taken from hash() would
    # draw other polynomials under another PYTHONHASHSEED
    first = drawn_under(1)
    assert len(first) == 9
    assert drawn_under(2) == first
