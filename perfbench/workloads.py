"""Seeded workloads for the ncfactor benchmark.

Each workload turns a seed into a fixed list of ops.  An op is either an
in-process `ncfactor.cli.main([...])` call that writes its answer to a
file in the benchmark's work directory, or the library call a user
script would make where no subcommand exists.  Ops that depend on each
other (a certificate and its verification, an embedding and its
recovery) form a unit; units are shuffled with the seed so that every
stretch of a pass mixes all kinds of op.

Every op carries a check that inspects its output bytes with explicit
comparisons (never `assert`, which `python -O` strips).  A check returns
None when the output is right and a short reason otherwise.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction
from itertools import product

QQ_SMALL = (-3, -2, -1, 1, 2, 3)


class Op:
    """One timed operation: a CLI argv or a library call, plus its check."""

    __slots__ = ("kind", "argv", "out", "call", "check")

    def __init__(self, kind, check, argv=None, out=None, call=None):
        self.kind = kind
        self.check = check
        self.argv = argv
        self.out = out
        self.call = call


class Builder:
    """Collects units of ops and the input files they read.  `probe`, when
    set, is called with every assignment a black-box op's inner box
    receives (the tracer counts its nonzero blocks)."""

    def __init__(self, nc, rng, workdir, probe=None):
        self.nc = nc
        self.rng = rng
        self.workdir = workdir
        self.probe = probe
        self.units = []
        self._files = 0

    def path(self, stem):
        self._files += 1
        return os.path.join(self.workdir, "%05d_%s" % (self._files, stem))

    def write(self, stem, text):
        path = self.path(stem)
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def unit(self, *ops):
        self.units.append(list(ops))

    def ops(self):
        units = list(self.units)
        self.rng.shuffle(units)
        return [op for unit in units for op in unit]

    def warmups(self):
        """The first op of each kind in generation order.  Workloads that
        vary sizes within a kind generate them in ascending order, so the
        warm-up op is the smallest of its kind for every seed."""
        first = {}
        for unit in self.units:
            for op in unit:
                first.setdefault(op.kind, op)
        return list(first.values())


# -- independent arithmetic used by the checks ----------------------------

def _parse_ncpoly_blocks(lines):
    """Split canonical F_p ncpoly text blocks: [(p, bivariate, {word: int})];
    lines of the enclosing `factor...` format are skipped."""
    blocks = []
    for ln in lines:
        if ln.startswith("ncpoly "):
            head = dict(tok.split("=", 1) for tok in ln.split()[1:])
            p = int(head["field"].split(":")[-1].lstrip("F"))
            blocks.append((p, head["alphabet"] == "xy", {}))
        elif blocks and ln and not ln.startswith("factor"):
            coeff, word = ln.split()
            _p, bivariate, terms = blocks[-1]
            if word == "1":
                key = ()
            elif bivariate:
                key = tuple(word)
            else:
                key = tuple(word.split("."))
            terms[key] = int(coeff)
    return blocks


def _poly_mul(f, g, p):
    out = {}
    for w1, c1 in f.items():
        for w2, c2 in g.items():
            w = w1 + w2
            out[w] = (out.get(w, 0) + c1 * c2) % p
    return {w: c for w, c in out.items() if c}


def _product_is(factors, target, p, scalar=1):
    acc = {(): scalar % p}
    for f in factors:
        acc = _poly_mul(acc, f, p)
    return acc == {w: c % p for w, c in target.items() if c % p}


def _hmul(alpha, beta, a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 + alpha * a1 * b1 + beta * a2 * b2 - alpha * beta * a3 * b3,
            a0 * b1 + a1 * b0 - beta * a2 * b3 + beta * a3 * b2,
            a0 * b2 + a2 * b0 + alpha * a1 * b3 - alpha * a3 * b1,
            a0 * b3 + a3 * b0 + a1 * b2 - a2 * b1)


def _text(out):
    return out.decode("ascii")


def format_matrix(field, m):
    return "".join(" ".join(field.format(x) for x in row) + "\n" for row in m.rows)


# -- instance generators -------------------------------------------------

def random_poly(nc, rng, alphabet, field, degree, nterms):
    """Random polynomial with a full-degree leading word and nonzero
    coefficients on `nterms` random lower words."""
    p = field.p
    lead = tuple(rng.randrange(alphabet.size) for _ in range(degree))
    terms = [(lead, field.from_int(rng.randrange(1, p)))]
    lower = [w for length in range(degree)
             for w in product(range(alphabet.size), repeat=length)]
    for w in rng.sample(lower, min(nterms, len(lower))):
        terms.append((w, field.from_int(rng.randrange(1, p))))
    return nc.ncpoly.NcPoly(alphabet, field, terms)


def random_formula(nc, rng, nvars, leaves):
    """Q circuit: a random bracketing of `leaves` variables drawn from
    x1..x_nvars, joined by MUL or by ADD with a small constant weight, plus
    a nonzero constant term (recovery reads it from its own block)."""
    QQ = nc.fields.QQ
    b = nc.circuits.CircuitBuilder(nc.ncpoly.Alphabet.nvars(nvars), QQ)
    nodes = [b.var(rng.randrange(nvars)) for _ in range(leaves)]
    while len(nodes) > 1:
        i = rng.randrange(len(nodes) - 1)
        left, right = nodes[i], nodes[i + 1]
        if rng.random() < 0.6:
            gate = b.mul(left, right)
        else:
            gate = b.add(left, b.mul(b.const(QQ.from_int(rng.choice(QQ_SMALL))), right))
        nodes[i:i + 2] = [gate]
    return b.build(b.add(nodes[0], b.const(QQ.from_int(rng.choice(QQ_SMALL)))))


def random_abp(nc, rng, nvars, sizes):
    """Q ABP with every edge between adjacent layers present and labelled
    c0 + c*x_i for a random variable x_i."""
    QQ = nc.fields.QQ
    alphabet = nc.ncpoly.Alphabet.nvars(nvars)
    edges = []
    for k in range(len(sizes) - 1):
        block = {}
        for u in range(sizes[k]):
            for v in range(sizes[k + 1]):
                terms = [((), QQ.from_int(rng.randint(-2, 2))),
                         ((rng.randrange(nvars),), QQ.from_int(rng.choice(QQ_SMALL)))]
                block[(u, v)] = nc.ncpoly.NcPoly(alphabet, QQ, terms)
        edges.append(block)
    return nc.circuits.Abp(alphabet, QQ, sizes, edges)


# -- oracle-fp family ----------------------------------------------------

# (prime, deg g, deg h, lower terms per factor, count); degree falls as p rises
DENSE_MIX = ((2, 3, 3, 4, 30), (3, 3, 2, 3, 30), (5, 2, 2, 3, 30))
# (variables, deg g, deg h, count) for `reduce` over F2 in compact mode
REDUCE_MIX = ((1, 1, 2, 15), (2, 1, 1, 15))


def oracle_fp(b, tiny):
    """CLI factor-dense on products over F2/F3/F5 and CLI reduce on
    products of 1-2-variable polynomials over F2."""
    nc, rng = b.nc, b.rng
    biv = nc.ncpoly.Alphabet.bivariate()
    for p, dg, dh, nterms, count in DENSE_MIX:
        field = nc.fields.PrimeField(p)
        for _ in range(2 if tiny else count):
            f = (random_poly(nc, rng, biv, field, dg, nterms)
                 * random_poly(nc, rng, biv, field, dh, nterms))
            src = b.write("f.poly", f.to_text())
            out = b.path("factors.txt")
            b.unit(Op("factor-dense-F%d" % p, _check_dense(f.to_text()),
                      argv=["factor-dense", src, "-o", out], out=out))
    field = nc.fields.PrimeField(2)
    for nvars, dg, dh, count in REDUCE_MIX:
        alphabet = nc.ncpoly.Alphabet.nvars(nvars)
        for _ in range(2 if tiny else count):
            f = (random_poly(nc, rng, alphabet, field, dg, 2)
                 * random_poly(nc, rng, alphabet, field, dh, 2))
            src = b.write("f.poly", f.to_text())
            out = b.path("reduced.txt")
            b.unit(Op("reduce-n%d" % nvars, _check_reduce(f.to_text()),
                      argv=["reduce", src, "--mode", "compact", "-o", out], out=out))


def _check_dense(source):
    (p, _biv, target), = _parse_ncpoly_blocks(source.splitlines())

    def check(out):
        lines = _text(out).splitlines()
        total = int(lines[0].split()[1])
        if total < 1:
            return "no factorization"
        heads = [i for i, ln in enumerate(lines) if ln.startswith("factorization ")]
        if len(heads) != total:
            return "factorization count mismatch"
        for start, end in zip(heads, heads[1:] + [len(lines)]):
            scalar = int(lines[start].split("scalar=")[1])
            factors = [t for _p, _b, t in _parse_ncpoly_blocks(lines[start + 1:end])]
            if len(factors) < 2:
                return "a product of two nonconstants has at least two factors"
            if not _product_is(factors, target, p, scalar):
                return "factorization does not multiply back"
        return None

    return check


def _check_reduce(source):
    (p, _biv, target), = _parse_ncpoly_blocks(source.splitlines())

    def check(out):
        lines = _text(out).splitlines()
        factors = [t for _p, _b, t in _parse_ncpoly_blocks(lines[1:])]
        if len(factors) != int(lines[0].split()[1]) or len(factors) < 2:
            return "expected at least two recovered factors"
        if not _product_is(factors, target, p):
            return "recovered factors do not multiply back"
        return None

    return check


# -- linmat-q family -----------------------------------------------------

SPLIT_COUNT = 40
COMPANION_COUNT = 10
ROUND_TRIP_COUNT = 12
SEARCH_COUNT = 4
SEARCH_BOUND = 2


def linmat_q(b, tiny):
    """3x3 linear matrix factorization with certificate checks, quaternion
    gadget round trips and exhaustive zero-divisor searches, all over Q."""
    nc, rng = b.nc, b.rng
    QQ, Matrix, linmat = nc.fields.QQ, nc.matrix.Matrix, nc.linmat
    i3 = Matrix.identity(QQ, 3)
    for _ in range(1 if tiny else SPLIT_COUNT):
        lin = _reducible_3x3(nc, rng)
        src = b.write("L.lm", lin.to_text())
        cert = b.path("L.cert")
        b.unit(Op("factor-linmat3", _check_cert(nc, lin),
                  argv=["factor-linmat3", src, "-o", cert], out=cert),
               Op("verify-cert", _expect(b"ok\n"), argv=["verify-cert", cert, src]))
    for _ in range(1 if tiny else COMPANION_COUNT):
        src = b.write("C.lm", linmat.LinearMatrix([i3, _companion(nc, rng)]).to_text())
        out = b.path("C.txt")
        b.unit(Op("factor-linmat3-companion", _expect(b"irreducible charpoly-irreducible\n"),
                  argv=["factor-linmat3", src, "-o", out], out=out))
    for _ in range(1 if tiny else ROUND_TRIP_COUNT):
        alpha, beta, z = _split_quaternion(rng)
        params = ["--alpha=%s" % alpha, "--beta=%s" % beta]
        cert = b.path("Q.cert")
        pair = b.path("Q.zdiv")
        b.unit(Op("quaternion-zdiv2fact",
                  _check_cert(nc, linmat.quaternion_linmat(alpha, beta)),
                  argv=["quaternion-zdiv2fact", *params,
                        "--z=" + ",".join(str(c) for c in z), "-o", cert], out=cert),
               Op("quaternion-fact2zdiv", _check_zdiv_pair(alpha, beta),
                  argv=["quaternion-fact2zdiv", *params, cert, "-o", pair], out=pair))
    for _ in range(1 if tiny else SEARCH_COUNT):
        # alpha, beta < 0: the reduced norm is positive definite, so
        # H(alpha, beta) is a division algebra and the search is exhaustive.
        alpha, beta = Fraction(-rng.randint(1, 9)), Fraction(-rng.randint(1, 9))
        search = nc.quaternion.search_zero_divisor
        b.unit(Op("search-zero-divisor", _expect(b"none\n"),
                  call=lambda a=alpha, c=beta: _format_search(search(a, c, SEARCH_BOUND))))


def _format_search(z):
    return b"none\n" if z is None else (",".join(str(c) for c in z.coords) + "\n").encode()


def _reducible_3x3(nc, rng):
    """A conjugated block-triangular 3x3 linear matrix whose diagonal blocks
    are not units, so it has at least two nontrivial factors."""
    QQ, Matrix, linmat = nc.fields.QQ, nc.matrix.Matrix, nc.linmat
    while True:
        p = Matrix(QQ, [[QQ.from_int(rng.randint(-3, 3)) for _ in range(3)]
                        for _ in range(3)])
        pinv = p.inverse()
        if pinv is None:
            continue
        split = rng.choice([1, 2])
        seeds = []
        for _ in range(rng.randint(1, 3)):
            rows = [[QQ.from_int(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
            for r in range(split):
                for c in range(split, 3):
                    rows[r][c] = QQ.zero
            seeds.append(Matrix(QQ, rows))
        blocks = [linmat.LinearMatrix([Matrix.identity(QQ, hi - lo)]
                                      + [s.submatrix(range(lo, hi), range(lo, hi))
                                         for s in seeds])
                  for lo, hi in ((0, split), (split, 3))]
        if any(block.is_unit() for block in blocks):
            continue
        return linmat.LinearMatrix([Matrix.identity(QQ, 3)] + [pinv * s * p for s in seeds])


def _companion(nc, rng):
    """Companion matrix of a random monic cubic with no rational root."""
    QQ, Matrix = nc.fields.QQ, nc.matrix.Matrix
    while True:
        a0, a1, a2 = (rng.choice((-7, -5, -3, -2, 2, 3, 5, 7)), rng.randint(-4, 4),
                      rng.randint(-4, 4))
        if nc.matrix.rational_roots((QQ.from_int(a0), QQ.from_int(a1),
                                     QQ.from_int(a2), QQ.one)):
            continue
        return Matrix.from_ints(QQ, [[0, 0, -a0], [1, 0, -a1], [0, 1, -a2]])


def _split_quaternion(rng):
    """(alpha, beta, z) with z a zero divisor of H(alpha, beta): choosing
    beta = (a0^2 - alpha*a1^2) / a2^2 makes the reduced norm of
    z = a0 + a1*u + a2*v vanish."""
    while True:
        alpha = rng.choice([a for a in range(-9, 10) if a])
        a0, a1, a2 = rng.randint(-4, 4), rng.randint(-3, 3), rng.choice((-2, -1, 1, 2))
        beta = Fraction(a0 * a0 - alpha * a1 * a1, a2 * a2)
        if beta:
            return Fraction(alpha), beta, (a0, a1, a2, 0)


def _expect(expected):
    def check(out):
        return None if out == expected else "expected %r" % expected
    return check


def _check_cert(nc, lin):
    def check(out):
        cert = nc.linmat.FactorizationCert.from_text(_text(out))
        if not nc.linmat.verify_cert(cert, lin):
            return "certificate does not verify"
        if cert.nontrivial_count() < 2:
            return "fewer than two nontrivial factors"
        return None
    return check


def _check_zdiv_pair(alpha, beta):
    def check(out):
        lines = _text(out).splitlines()
        if len(lines) != 2 or not lines[0].startswith("z1 ") or not lines[1].startswith("z2 "):
            return "malformed zero-divisor pair"
        z1, z2 = (tuple(Fraction(c) for c in ln.split()[1].split(",")) for ln in lines)
        if not any(z1) or not any(z2):
            return "zero-divisor pair contains zero"
        if any(_hmul(alpha, beta, z1, z2)):
            return "z1 * z2 != 0"
        return None
    return check


# -- blackbox-q family ---------------------------------------------------

# (variables n, matrix size N, fewest leaves, most leaves, count).  Leaf
# counts are stratified over their range, so op costs spread out evenly
# instead of sitting at one value; the rare large cases keep the tail
# honest.  At 60-500 ms an op, 32 ops take about as long as the rest of
# the matrix-q pass.
BLACKBOX_MIX = ((2, 2, 2, 6, 30), (3, 2, 4, 4, 1), (2, 3, 4, 4, 1))


def blackbox_q(b, tiny):
    """Library recover_blackbox(phi_blackbox(bb)) at seeded rational points,
    compact mode, where bb evaluates a seeded circuit."""
    nc, rng = b.nc, b.rng
    QQ = nc.fields.QQ
    for nvars, dim, fewest, most, count in BLACKBOX_MIX:
        count = 1 if tiny else count
        for i in range(count):
            circuit = random_formula(nc, rng, nvars, fewest + (most - fewest + 1) * i // count)
            point = nc.circuits.MatrixAssignment.random(
                nc.ncpoly.Alphabet.nvars(nvars), QQ, dim, rng)
            b.unit(Op("blackbox-n%d-N%d" % (nvars, dim), _check_blackbox(nc, circuit, point),
                      call=_blackbox_call(nc, circuit, point, b.probe)))


def _blackbox_call(nc, circuit, point, probe):
    QQ = nc.fields.QQ
    dim = point.dim

    def bb(assignment):
        if probe is not None:
            probe(assignment, dim)
        return circuit.evaluate(assignment)

    def call():
        embedding = nc.embedding.Embedding.for_variables(circuit.alphabet.size, "compact")
        automaton = nc.automaton.build_automaton(embedding.wordset)
        recovered = nc.automaton.recover_blackbox(
            nc.embedding.phi_blackbox(bb, embedding, QQ), automaton, QQ)
        return format_matrix(QQ, recovered(point)).encode()

    return call


def _check_blackbox(nc, circuit, point):
    def check(out):
        direct = format_matrix(nc.fields.QQ, circuit.evaluate(point)).encode()
        return None if out == direct else "recovered value differs from bb evaluated directly"
    return check


# -- symbolic-wide family ------------------------------------------------

WORDS_COUNT = 16
WORDS_RANGE = (300, 600)
# every (width, mode) pair gets one circuit per leaf count
CIRCUIT_WIDTHS = (4, 8, 16, 32, 64)
CIRCUIT_LEAVES = (6, 8, 10, 12)
# (mode, variables, layer sizes, count); a paper-mode ABP round trip costs
# 0.4 s even at n=2, so ABPs run in compact mode only
ABP_MIX = (("compact", 2, (1, 2, 2, 1), 4), ("compact", 3, (1, 2, 2, 1), 3),
           ("compact", 3, (1, 3, 1), 3))
EXPAND_MAX_SIZE = 2000
CHECK_DIM = 2


def symbolic_wide(b, tiny):
    """CLI words --mode paper for wide n, and CLI embed -> recover round
    trips of seeded Q circuits and ABPs; nothing is expanded."""
    nc, rng = b.nc, b.rng
    # Sizes are stratified, not drawn freely: op costs grow quadratically
    # with n, and a fixed spread of sizes keeps a pass's total cost, and
    # so ops_per_s, steady from seed to seed.
    count = 1 if tiny else WORDS_COUNT
    lo, hi = WORDS_RANGE
    for i in range(count):
        n = int(lo + (hi - lo) * (i + rng.random()) / count) // (10 if tiny else 1)
        out = b.path("words.txt")
        b.unit(Op("words-paper", _check_paper_words(n),
                  argv=["words", "--n", str(n), "--mode", "paper", "-o", out], out=out))
    widths = CIRCUIT_WIDTHS[:1] if tiny else CIRCUIT_WIDTHS
    leaves = CIRCUIT_LEAVES[:1] if tiny else CIRCUIT_LEAVES
    for nvars, mode, nleaves in product(widths, ("compact", "paper"), leaves):
        circuit = random_formula(nc, rng, nvars, nleaves)
        _round_trip(b, "circuit", circuit, nvars, mode, rng.randrange(1 << 30))
    for mode, nvars, sizes, count in ABP_MIX:
        for _ in range(1 if tiny else count):
            _round_trip(b, "abp", random_abp(nc, rng, nvars, sizes), nvars, mode,
                        rng.randrange(1 << 30))


def _round_trip(b, what, obj, nvars, mode, seed):
    src = b.write("g." + ("ncc" if what == "circuit" else "ncabp"), obj.to_text())
    biv = b.path("g2")
    back = b.path("g_back")
    b.unit(Op("embed-%s-%s" % (what, mode), _check_embedded(b.nc, obj, nvars, mode, seed),
              argv=["embed", src, "--mode", mode, "-o", biv], out=biv),
           Op("recover-%s-%s" % (what, mode), _check_recovered(b.nc, obj, seed),
              argv=["recover", biv, "--nvars", str(nvars), "--mode", mode, "-o", back],
              out=back))


def _load(nc, out):
    text = _text(out)
    kind = nc.circuits.Circuit if text.startswith("ncc ") else nc.circuits.Abp
    return kind.from_text(text)


def _check_embedded(nc, original, nvars, mode, seed):
    """phi(g) at (T_x, T_y) must equal g at x_i = v_i(T) + bar(v_i)(T)."""
    def check(out):
        QQ, circuits = nc.fields.QQ, nc.circuits
        image = _load(nc, out)
        point = circuits.MatrixAssignment.random(nc.ncpoly.Alphabet.bivariate(), QQ,
                                                 CHECK_DIM, random.Random(seed))
        words = nc.words.enumerate_words(nvars, mode)
        mats = [circuits.eval_word(w, point) + circuits.eval_word(nc.ncpoly.bar(w), point)
                for w in words]
        inner = circuits.MatrixAssignment(original.alphabet, QQ, mats)
        if image.evaluate(point) != original.evaluate(inner):
            return "embedded image disagrees with the substitution"
        return None
    return check


def _check_recovered(nc, original, seed):
    def check(out):
        recovered = _load(nc, out)
        point = nc.circuits.MatrixAssignment.random(original.alphabet, nc.fields.QQ,
                                                    CHECK_DIM, random.Random(seed))
        if recovered.evaluate(point) != original.evaluate(point):
            return "recovered object differs at the check point"
        if recovered.size <= EXPAND_MAX_SIZE and recovered.expand() != original.expand():
            return "recovered object expands differently"
        return None
    return check


def _check_paper_words(n):
    expected = "".join(w + "\n" for w in _paper_words(n)).encode()

    def check(out):
        return None if out == expected else "not the first %d paper-family words" % n

    return check


def _paper_words(n):
    """The first n words xx*d*yy, d Dyck, of length 2*max(ceil(log2(4n)), 7),
    ascending with y below x: an enumeration independent of ncfactor's."""
    half = max((4 * n - 1).bit_length(), 7) - 2
    out = []

    def rec(prefix, xs, ys):
        if len(out) == n:
            return
        if xs == ys == half:
            out.append("xx" + prefix + "yy")
            return
        if ys < xs:
            rec(prefix + "y", xs, ys + 1)
        if xs < half:
            rec(prefix + "x", xs + 1, ys)

    rec("", 0, 0)
    return out


# -- workloads -----------------------------------------------------------
#
# Two workloads, each two op families whose units are shuffled together.
# Host speed on a shared machine drifts over tens of seconds, so a run has
# to last about a minute to average it out; two workloads of that length
# take no longer than four of half of it.


def paper_pipeline(b, tiny):
    """The paper's pipeline: the dense F_p oracle (oracle-fp family) and
    words, embed and recover without expanding (symbolic-wide family)."""
    oracle_fp(b, tiny)
    symbolic_wide(b, tiny)


def matrix_q(b, tiny):
    """Fraction matrices: elimination in 3x3 and quaternion linear-matrix
    factorization (linmat-q family) and dense products in black-box
    recovery (blackbox-q family)."""
    linmat_q(b, tiny)
    blackbox_q(b, tiny)


WORKLOADS = {
    "paper-pipeline": paper_pipeline,
    "matrix-q": matrix_q,
}
