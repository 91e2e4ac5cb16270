"""Seeded mutation fuzzing of the text readers through the CLI.

Each seed file (every golden input, one ABP, and the golden certificate
with its linear matrix) is mutated by deleting, duplicating, truncating
and swapping tokens and lines, and every mutant runs in-process through
a cheap subcommand.  Whatever the mutant, the exit code must be 0, 1 or
2, a malformed file must be reported as `error: format:`, and no
exception may escape `cli.main`.

Sizes that once exhausted memory run as named probes in a child process
with a capped address space and a timeout; each must end in
`error: budget:` with exit 2.  Seeded size mutations of the fields a
reader allocates from (`layers=`, `alphabet=x1..x<n>`, gate and node
indices) run the same way and must exit 0, 1 or 2 with no traceback.
Files over wide alphabets, whose parsing and printing once cost time in
the alphabet size for every line, must round-trip through a capped
child process in a few seconds.
"""

import contextlib
import io
import random
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ncfactor import cli

GOLDEN = Path(__file__).parent / "golden"
CERT = GOLDEN / "zdiv2fact_9_5.txt"
LINMAT = GOLDEN / "quaternion_build_9_5.txt"
MUTANTS_PER_SEED = 150

ABP = """\
ncabp field=Q alphabet=x1..x2 layers=3
layer 0
edge 0 0 2 + 1*x1
edge 0 1 1*x2
layer 1
edge 0 0 1*x2
edge 1 0 -1/2 + 1*x1
"""

EVAL = ["eval", "{}", "--dim", "1", "--seed", "0"]


def _seeds():
    """(name, seed text, arguments with "{}" for the mutant's path)."""
    out = []
    for path in sorted((GOLDEN / "inputs").iterdir()):
        args = ["factor-linmat3", "{}"] if path.suffix == ".lm" else EVAL
        out.append((path.name, path.read_text(), args))
    out.append(("p.ncabp", ABP, EVAL))
    out.append((CERT.name, CERT.read_text(), ["verify-cert", "{}", str(LINMAT)]))
    out.append((LINMAT.name, LINMAT.read_text(), ["verify-cert", str(CERT), "{}"]))
    return out


SEEDS = _seeds()


def mutate(text, rng):
    """One to three random edits of the text's lines and tokens."""
    lines = [ln.split() for ln in text.splitlines()]
    for _ in range(rng.randint(1, 3)):
        slots = [(i, j) for i, toks in enumerate(lines) for j, tok in enumerate(toks) if tok]
        op = rng.randrange(8)
        if (op < 4 and not lines) or (op >= 4 and not slots):
            continue
        if op == 0:
            del lines[rng.randrange(len(lines))]
        elif op == 1:
            i = rng.randrange(len(lines))
            lines.insert(i, list(lines[i]))
        elif op == 2:
            i, k = rng.randrange(len(lines)), rng.randrange(len(lines))
            lines[i], lines[k] = lines[k], lines[i]
        elif op == 3:
            del lines[rng.randrange(len(lines)):]
        elif op == 4:
            i, j = rng.choice(slots)
            del lines[i][j]
        elif op == 5:
            i, j = rng.choice(slots)
            lines[i].insert(j, lines[i][j])
        elif op == 6:
            (i, j), (k, m) = rng.choice(slots), rng.choice(slots)
            lines[i][j], lines[k][m] = lines[k][m], lines[i][j]
        else:
            i, j = rng.choice(slots)
            lines[i][j] = lines[i][j][:rng.randrange(len(lines[i][j]))]
    return "".join(" ".join(toks) + "\n" for toks in lines)


def run(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, err.getvalue()


@pytest.mark.parametrize("text,args", [s[1:] for s in SEEDS], ids=[s[0] for s in SEEDS])
def test_mutants_exit_0_1_or_2(tmp_path, text, args):
    path = tmp_path / "mutant.txt"
    argv = [a.format(path) for a in args]
    path.write_text(text)
    assert run(argv)[0] == 0, "the unmutated seed must run cleanly"
    rng = random.Random(20230310)
    for _ in range(MUTANTS_PER_SEED):
        mutant = mutate(text, rng)
        path.write_text(mutant)
        try:
            code, err = run(argv)
        except Exception as exc:
            pytest.fail("%r escaped cli.main on:\n%s" % (exc, mutant))
        assert code in (0, 1, 2), mutant
        if code == 1:
            assert err.startswith("error: format:"), (err, mutant)


MEMORY_CAP = 1536 << 20  # bytes of address space for each probe's process
HUGE_SIZES = [
    ("words-n", ["words", "--n", "2000000000"]),
    ("recover-nvars", ["recover", str(GOLDEN / "embed_circuit.txt"), "--nvars", "100000000"]),
    ("embed-nvars", ["embed", str(GOLDEN / "inputs" / "f.ncc"), "--nvars", "100000000000"]),
    ("eval-dim", ["eval", str(GOLDEN / "inputs" / "xyx.poly"), "--dim", "4000", "--seed", "0"]),
]


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


@pytest.mark.parametrize("args", [c[1] for c in HUGE_SIZES], ids=[c[0] for c in HUGE_SIZES])
def test_huge_sizes_end_in_a_budget_error(args):
    proc = subprocess.run([sys.executable, "-m", "ncfactor.cli", *args], capture_output=True,
                          text=True, timeout=60, preexec_fn=_cap_memory)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: budget:"), proc.stderr
    assert "Traceback" not in proc.stderr


F_NCC = (GOLDEN / "inputs" / "f.ncc").read_text()
OVERSIZES = (10 ** 6, 3 * 10 ** 6, 10 ** 9, 10 ** 12)


def _layers(size, rng):
    return ABP.replace("layers=3", "layers=%d" % size)


def _alphabet(size, rng):
    return rng.choice((ABP, F_NCC)).replace("alphabet=x1..x2", "alphabet=x1..x%d" % size)


def _gate_index(size, rng):
    ref = rng.choice(list(re.finditer(r"\bg\d+\b", F_NCC)))
    return F_NCC[:ref.start()] + "g%d" % size + F_NCC[ref.end():]


def _node_index(size, rng):
    """Renumber the middle-layer end of one edge (the seed has three layers)."""
    lines = ABP.splitlines()
    i = rng.choice([i for i, ln in enumerate(lines) if ln.startswith("edge ")])
    parts = lines[i].split(" ", 3)
    parts[2 if i < lines.index("layer 1") else 1] = str(size)
    lines[i] = " ".join(parts)
    return "\n".join(lines) + "\n"


SIZE_MUTATIONS = {"layers": _layers, "alphabet": _alphabet, "gate-index": _gate_index,
                  "node-index": _node_index}


@pytest.mark.parametrize("kind", sorted(SIZE_MUTATIONS))
def test_oversized_fields_exit_cleanly(tmp_path, kind):
    rng = random.Random(sorted(SIZE_MUTATIONS).index(kind))
    path = tmp_path / "mutant.txt"
    for trial in range(4):
        path.write_text(SIZE_MUTATIONS[kind](rng.choice(OVERSIZES) + rng.randrange(100), rng))
        args = EVAL if trial % 2 else ["embed", "{}"]
        proc = subprocess.run([sys.executable, "-m", "ncfactor.cli", *(a.format(path) for a in args)],
                              capture_output=True, text=True, timeout=60, preexec_fn=_cap_memory)
        assert proc.returncode in (0, 1, 2), (path.read_text(), proc.stderr)
        assert "Traceback" not in proc.stderr, (path.read_text(), proc.stderr)


def _wide_abp():
    """2000 edges over x1..x20000, two variables on each first-layer edge."""
    lines = ["ncabp field=Q alphabet=x1..x20000 layers=3", "layer 0"]
    lines += ["edge 0 %d 1*x%d + 3*x%d" % (v, v + 1, 20000 - v) for v in range(1000)]
    lines.append("layer 1")
    lines += ["edge %d 0 -1/2 + 1*x%d" % (v, 10000 + v) for v in range(1000)]
    return "\n".join(lines) + "\n"


def _wide_poly():
    """2000 quadratic terms over x1..x100000, largest first."""
    lines = ["ncpoly field=Q alphabet=x1..x100000"]
    lines += ["%d x%d.x%d" % (t % 5 + 1, 50 * t + 1, 100000 - 37 * t) for t in range(2000)]
    return "\n".join(lines) + "\n"


ROUND_TRIP = ("import sys; from ncfactor import textio; from ncfactor.circuits import Abp; "
              "from ncfactor.ncpoly import NcPoly; "
              "sys.stdout.write(textio.read(sys.stdin.read(), NcPoly, Abp).to_text())")


@pytest.mark.parametrize("text", [_wide_abp(), _wide_poly()], ids=["abp-x20000", "ncpoly-x100000"])
def test_wide_alphabets_round_trip_quickly(text):
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", ROUND_TRIP], input=text, capture_output=True,
                          text=True, timeout=60, preexec_fn=_cap_memory)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == text
    assert elapsed < 3.0, elapsed


def _circuit(field, alphabet, a, b):
    return ("ncc field=%s alphabet=%s\ng0 = VAR %s\ng1 = VAR %s\ng2 = MUL g0 g1\n"
            "g3 = CONST 1\ng4 = ADD g2 g3\noutput g4\n" % (field, alphabet, a, b))


def _abp(field, alphabet, a, b):
    return ("ncabp field=%s alphabet=%s layers=3\nlayer 0\nedge 0 0 1*%s\nedge 0 1 1\n"
            "layer 1\nedge 0 0 1*%s\nedge 1 0 1*%s\n" % (field, alphabet, a, b, b))


# One file of every kind the subcommands read: polynomials, circuits and
# ABPs over xy and over x1..x3, each over F2 and Q, then a zero
# polynomial, a circuit over x1..x2, a linear matrix, a certificate and
# an empty file.
CROSS_FILES = {
    "%s-%s-%s" % (kind, name, field): make(field, alphabet, a, b)
    for kind, make in (("poly", lambda f, al, a, b: "ncpoly field=%s alphabet=%s\n1 %s\n1 %s\n"
                        % (f, al, a + ("" if al == "xy" else ".") + b, b)),
                       ("circuit", _circuit), ("abp", _abp))
    for name, alphabet, a, b in (("xy", "xy", "x", "y"), ("x1..x3", "x1..x3", "x1", "x3"))
    for field in ("F2", "Q")
}
CROSS_FILES.update({
    "zero-poly": "ncpoly field=Q alphabet=x1..x2\n",
    "circuit-x1..x2": F_NCC,
    "linmat": (GOLDEN / "inputs" / "companion.lm").read_text(),
    "cert": CERT.read_text(),
    "empty": "",
})
CROSS_COMMANDS = [
    ["embed", "{}"], ["embed", "--mode", "paper", "{}"], ["recover", "{}", "--nvars", "3"],
    ["reduce", "{}"], ["reduce", "--mode", "paper", "{}"], ["factor-dense", "{}"],
    ["eval", "{}", "--dim", "2", "--seed", "1"], ["factor-linmat3", "{}"],
    ["quaternion-fact2zdiv", "--alpha", "9", "--beta", "5", "{}"],
    ["verify-cert", "{}", str(LINMAT)], ["verify-cert", str(CERT), "{}"],
]


def test_every_command_on_every_file_kind_exits_0_1_or_2(tmp_path):
    """The exit-code contract, crossed: each subcommand that reads a file
    runs on each kind of file, and no exception escapes `cli.main`."""
    path = tmp_path / "input.txt"
    codes = set()
    for name, text in CROSS_FILES.items():
        path.write_text(text)
        for args in CROSS_COMMANDS:
            argv = [a.format(path) for a in args]
            try:
                code, err = run(argv)
            except Exception as exc:
                pytest.fail("%r escaped cli.main on %s: %s" % (exc, name, " ".join(args)))
            assert code in (0, 1, 2), (name, args)
            if code == 1:
                assert err.startswith("error: format:"), (name, args, err)
            codes.add(code)
    assert codes == {0, 1, 2}


IMAGE_ABP = """\
ncabp field=Q alphabet=xy layers=3
layer 0
edge 0 0 1 + 2*x
edge 0 1 1*y
layer 1
edge 0 0 -1/2 + 1*y
edge 1 0 1*x
"""

# Edits that make a gate line malformed, given its tokens `gK = OP ...`
# and K: tabs for spaces, numbering, op, arity, references (forward ones
# among them) and operands
GATE_EDITS = (
    lambda t, k: ["\t".join(t)],
    lambda t, k: ["g%d" % (k + 1)] + t[1:],
    lambda t, k: t[:2] + ["SUB"] + t[3:],
    lambda t, k: t[:3],
    lambda t, k: t[:2] + ["ADD", "g0"],
    lambda t, k: t[:2] + ["MUL", "g%d" % k, "g0"],
    lambda t, k: t[:2] + ["ADD", "g0", "g%d" % (k + 3)],
    lambda t, k: t[:2] + ["MUL", "h0", "g0"],
    lambda t, k: t[:2] + ["ADD", "g0", "g"],
    lambda t, k: t[:2] + ["VAR", "z"],
    lambda t, k: t[:2] + ["VAR", "x1"],
    lambda t, k: t[:2] + ["CONST", "1/0"],
    lambda t, k: t[:2] + ["CONST", "x"],
)
# Edits that make an edge line or its label malformed
EDGE_EDITS = (
    lambda t: t[:2],
    lambda t: t[:3],
    lambda t: ["edge", "a"] + t[2:],
    lambda t: ["edge", "-1"] + t[2:],
    lambda t: t[:3] + ["1*z"],
    lambda t: t[:3] + ["2*"],
    lambda t: t[:3] + ["*x"],
    lambda t: t[:3] + ["1", "+", "+", "1*x"],
    lambda t: t[:3] + ["x"],
    lambda t: t[:3] + ["1/0"],
    lambda t: t[:3] + ["1*xy"],
    lambda t: t[:3] + ["1*x1"],
)


def _malformed(text):
    """Each gate, output and edge line of text replaced in turn by each
    malformed version of it."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        toks = line.split()
        if line.startswith("g"):
            edits = [edit(toks, int(toks[0][1:])) for edit in GATE_EDITS]
        elif line.startswith("output"):
            edits = [[], ["output", "g%d" % (i - 1)], ["output", "x"]]
        elif line.startswith("edge"):
            edits = [edit(toks) for edit in EDGE_EDITS]
        else:
            continue
        for toks in edits:
            yield "\n".join(lines[:i] + [" ".join(toks)] + lines[i + 1:]) + "\n"


@pytest.mark.parametrize("text", [(GOLDEN / "embed_circuit.txt").read_text(), IMAGE_ABP],
                         ids=["circuit", "abp"])
def test_malformed_lines_exit_1_in_embed_and_recover(tmp_path, text):
    """Malformed gate, output, edge and label lines are format errors for
    `recover` and `embed`: exit 1 with `error: format:`, never exit 2 or
    a traceback.  A forward reference is refused by the checks on parsed
    text, after the reader has read it."""
    path = tmp_path / "image.txt"
    commands = (["recover", str(path), "--nvars", "2"],
                ["recover", str(path), "--nvars", "2", "--mode", "paper"],
                ["embed", str(path)])
    path.write_text(text)
    assert [run(argv)[0] for argv in commands] == [0, 0, 0]
    mutants = 0
    for mutant in _malformed(text):
        path.write_text(mutant)
        for argv in commands:
            code, err = run(argv)
            assert (code, err[:14]) == (1, "error: format:"), (argv[0], mutant, err)
        mutants += 1
    assert mutants >= 40
