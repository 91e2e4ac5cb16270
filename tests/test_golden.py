"""Golden-file checks: canonical CLI output locked byte-for-byte.

Regenerate after an intentional format change with
REGEN_GOLDENS=1 pytest tests/test_golden.py
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

CASES = [
    ("words_compact_6.txt", ["words", "--n", "6", "--mode", "compact"]),
    ("words_paper_2.txt", ["words", "--n", "2", "--mode", "paper"]),
    ("embed_f2.txt", ["embed", str(INPUTS / "f2.poly")]),
    ("embed_circuit.txt", ["embed", str(INPUTS / "f.ncc")]),
    ("recover_circuit.txt", ["recover", str(GOLDEN / "embed_circuit.txt"),
                             "--nvars", "2"]),
    ("embed_circuit_paper.txt", ["embed", str(INPUTS / "f.ncc"), "--mode", "paper",
                                 "--nvars", "8"]),
    ("recover_circuit_paper.txt", ["recover", str(GOLDEN / "embed_circuit_paper.txt"),
                                   "--nvars", "8", "--mode", "paper"]),
    ("reduce_f2.txt", ["reduce", str(INPUTS / "f2.poly")]),
    ("factor_dense_xyx.txt", ["factor-dense", str(INPUTS / "xyx.poly")]),
    ("eval_circuit.txt", ["eval", str(INPUTS / "f.ncc"), "--dim", "2",
                          "--seed", "42"]),
    ("quaternion_build_9_5.txt", ["quaternion-build", "--alpha", "9",
                                  "--beta", "5"]),
    ("zdiv2fact_9_5.txt", ["quaternion-zdiv2fact", "--alpha", "9", "--beta", "5",
                           "--z", "3,-1,0,0"]),
    ("fact2zdiv_9_5.txt", ["quaternion-fact2zdiv", "--alpha", "9", "--beta", "5",
                           str(GOLDEN / "zdiv2fact_9_5.txt")]),
    ("factor_linmat3_scalar.txt", ["factor-linmat3", str(INPUTS / "scalar.lm")]),
    ("factor_linmat3_companion.txt", ["factor-linmat3",
                                      str(INPUTS / "companion.lm")]),
]


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "ncfactor.cli", *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, (args, proc.stderr)
    return proc.stdout


@pytest.mark.parametrize("name,args", CASES, ids=[c[0] for c in CASES])
def test_golden(name, args):
    out = run_cli(args)
    path = GOLDEN / name
    if os.environ.get("REGEN_GOLDENS"):
        path.write_text(out)
    assert path.exists(), "golden file missing; run with REGEN_GOLDENS=1"
    assert out == path.read_text()
