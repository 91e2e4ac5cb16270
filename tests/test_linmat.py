import hashlib
import random
import time
from fractions import Fraction
from math import lcm

import pytest

from ncfactor import linmat
from ncfactor.fields import QQ
from ncfactor.linmat import (FactorizationCert, Irreducible, LinearMatrix,
                             common_eigenlines, factor_3x3,
                             factorization_to_zdiv, is_monic, product_linear,
                             quaternion_linmat, verify_cert,
                             zdiv_to_factorization)
from ncfactor.matrix import Matrix, rational_roots
from ncfactor.ncpoly import Alphabet, NcPoly
from ncfactor.quaternion import Quaternion, hmul, is_zero_divisor

I2 = Matrix.identity(QQ, 2)
I3 = Matrix.identity(QQ, 3)
I4 = Matrix.identity(QQ, 4)


def rand_invertible(rng, d):
    while True:
        m = Matrix(QQ, [[Fraction(rng.randint(-3, 3)) for _ in range(d)]
                        for _ in range(d)])
        if m.inverse() is not None:
            return m


def test_verify_cert_identity():
    lin = LinearMatrix([I3, Matrix.from_ints(QQ, [[1, 2, 0], [0, 1, 0], [0, 0, 3]])])
    cert = FactorizationCert(I3, I3, [lin], [False])
    assert verify_cert(cert, lin)


def test_verify_cert_rejects_swapped_noncommuting_factors():
    z = Quaternion(1, 2, (1, -1, 0, 0))
    cert = zdiv_to_factorization(1, 2, z)
    lin = quaternion_linmat(1, 2)
    assert verify_cert(cert, lin)
    swapped = FactorizationCert(cert.p, cert.q,
                                tuple(reversed(cert.factors)),
                                tuple(reversed(cert.unit_flags)))
    assert not verify_cert(swapped, lin)


def test_verify_cert_three_factor_quaternion():
    z = Quaternion(1, 1, (1, -1, 0, 0))
    cert = zdiv_to_factorization(1, 1, z)
    assert verify_cert(cert, quaternion_linmat(1, 1))
    assert len(cert.factors) >= 2
    assert cert.unit_flags[1] is True  # the middle block is the unipotent unit


def test_is_monic():
    assert is_monic(quaternion_linmat(1, 1))
    assert is_monic(quaternion_linmat(Fraction(9), Fraction(5)))
    z22 = Matrix.zeros(QQ, 2, 2)
    assert not is_monic(LinearMatrix([I2, z22]))
    e11 = Matrix.from_ints(QQ, [[1, 0], [0, 0]])
    assert not is_monic(LinearMatrix([I2, e11]))


def test_common_eigenvector_identity_pair():
    w, lams = common_eigenlines([I2, I2], side="right")[0]
    assert lams == (1, 1)


def test_common_eigenvector_diagonal():
    a = Matrix.from_ints(QQ, [[1, 0], [0, 2]])
    b = Matrix.from_ints(QQ, [[3, 0], [0, 4]])
    lines = common_eigenlines([a, b], side="right")
    assert len(lines) == 2
    as_sets = {(tuple(w), lams) for w, lams in lines}
    assert ((Fraction(1), Fraction(0)), (Fraction(1), Fraction(3))) in as_sets
    assert ((Fraction(0), Fraction(1)), (Fraction(2), Fraction(4))) in as_sets


def test_common_eigenvector_none_for_irrational_spectrum():
    companion = Matrix.from_ints(QQ, [[0, -1], [1, 0]])  # t^2 + 1
    assert common_eigenlines([companion], side="right") == []


def test_common_eigenvector_dimension_cap():
    with pytest.raises(ValueError):
        common_eigenlines([Matrix.identity(QQ, 4)], side="right")


def test_common_eigenvector_left_side():
    a = Matrix.from_ints(QQ, [[2, 0], [5, 3]])
    w, lams = common_eigenlines([a], side="left")[0]
    lam = lams[0]
    prod = tuple(sum(w[i] * a[i][j] for i in range(2)) for j in range(2))
    assert prod == tuple(lam * x for x in w)


def test_common_eigenvector_verifies_all_matrices():
    rng = random.Random(90)
    for _ in range(20):
        d = rng.randint(2, 3)
        p = rand_invertible(rng, d)
        pinv = p.inverse()
        mats = []
        for _ in range(rng.randint(1, 3)):
            diag = Matrix(QQ, [[Fraction(rng.randint(-2, 2)) if i == j else Fraction(0)
                                for j in range(d)] for i in range(d)])
            mats.append(pinv * diag * p)
        w, lams = common_eigenlines(mats, side="right")[0]
        for m, lam in zip(mats, lams):
            assert (m * Matrix.from_cols(QQ, [w])).col(0) == tuple(lam * x for x in w)


def test_factor_3x3_scalar_family():
    lin = LinearMatrix([I3, I3.scale(Fraction(2)), I3.scale(Fraction(-1))])
    cert = factor_3x3(lin)
    assert isinstance(cert, FactorizationCert)
    assert len(cert.factors) == 3
    assert cert.nontrivial_count() == 3
    assert verify_cert(cert, lin)
    # diagonal two-factor shape at each position: factor j has the
    # eigen-line polynomial on diagonal position j and 1 elsewhere
    for j, factor in enumerate(cert.factors):
        for i in range(1, factor.n + 1):
            coeff = factor.coeff(i)
            for r in range(3):
                for c in range(3):
                    if (r, c) != (j, j):
                        assert coeff[r][c] == 0


def test_factor_3x3_companion_irreducible():
    """The companion matrices of t^3 - 2 and of t^3 + t + P, P the
    product of the primes below 1000: the second has the root 0 modulo
    each of them but no rational root."""
    big = 1
    for q in range(2, 1000):
        if all(q % d for d in range(2, q)):
            big *= q
    for companion in (Matrix.from_ints(QQ, [[0, 0, 2], [1, 0, 0], [0, 1, 0]]),
                      Matrix.from_ints(QQ, [[0, 0, -big], [1, 0, -1], [0, 1, 0]])):
        res = factor_3x3(LinearMatrix([I3, companion]))
        assert isinstance(res, Irreducible)
        assert res.reason == "charpoly-irreducible"


def test_factor_3x3_unit_input():
    n = Matrix.from_ints(QQ, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    res = factor_3x3(LinearMatrix([I3, n]))
    assert isinstance(res, Irreducible)
    assert res.reason == "unit-linear-matrix"


def test_factor_3x3_normalizes_invertible_constant():
    rng = random.Random(91)
    a0 = rand_invertible(rng, 3)
    lin = LinearMatrix([a0, a0.scale(Fraction(2))])  # A0^{-1} L = I + 2I x: scalar family
    cert = factor_3x3(lin)
    assert isinstance(cert, FactorizationCert)
    assert verify_cert(cert, lin)


def test_factor_3x3_rejects_singular_constant():
    singular = Matrix.from_ints(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    with pytest.raises(ValueError):
        factor_3x3(LinearMatrix([singular, I3]))


def _block_lin(mats, lo, hi):
    d = hi - lo
    blocks = [Matrix.identity(QQ, d)]
    for m in mats:
        blocks.append(Matrix(QQ, [[m[i][j] for j in range(lo, hi)]
                                  for i in range(lo, hi)]))
    return LinearMatrix(blocks)


def test_factor_3x3_construct_then_verify():
    rng = random.Random(92)
    verified = 0
    for _ in range(60):
        p = rand_invertible(rng, 3)
        pinv = p.inverse()
        n = rng.randint(1, 3)
        split = rng.choice([1, 2])
        seeds = []
        for _ in range(n):
            rows = [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
            for r in range(split):
                for c in range(split, 3):
                    rows[r][c] = Fraction(0)
            seeds.append(Matrix(QQ, rows))
        # genuinely reducible needs both diagonal blocks to be non-units
        if _block_lin(seeds, 0, split).is_unit() or _block_lin(seeds, split, 3).is_unit():
            continue
        lin = LinearMatrix([I3] + [pinv * s * p for s in seeds])
        res = factor_3x3(lin)
        assert isinstance(res, FactorizationCert), (split, seeds)
        assert verify_cert(res, lin)
        assert res.nontrivial_count() >= 2
        verified += 1
    assert verified >= 25


def test_factor_3x3_with_separate_p_and_q():
    rng = random.Random(2211)
    ok = 0
    attempts = 0
    while ok < 15 and attempts < 200:
        attempts += 1
        p = rand_invertible(rng, 3)
        q = rand_invertible(rng, 3)
        split = rng.choice([1, 2])
        n = rng.randint(1, 2)
        seeds = []
        for _ in range(n):
            rows = [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
            for r in range(split):
                for c in range(split, 3):
                    rows[r][c] = Fraction(0)
            seeds.append(Matrix(QQ, rows))
        if _block_lin(seeds, 0, split).is_unit() or _block_lin(seeds, split, 3).is_unit():
            continue
        pinv, qinv = p.inverse(), q.inverse()
        lin = LinearMatrix([pinv * qinv] + [pinv * s * qinv for s in seeds])
        res = factor_3x3(lin)
        assert isinstance(res, FactorizationCert)
        assert verify_cert(res, lin)
        assert res.nontrivial_count() >= 2
        ok += 1
    assert ok == 15


def test_factor_3x3_keeps_atomic_2x2_block_whole():
    """One coefficient with two distinct rational eigenvalues whose
    eigenvectors the other coefficient does not share: that block is an
    atom and must survive as a single nontrivial factor."""
    rng = random.Random(2212)
    i3 = Matrix.identity(QQ, 3)
    b1 = Matrix.from_ints(QQ, [[1, 0], [0, 2]])
    b2 = Matrix.from_ints(QQ, [[0, 1], [1, 0]])
    seeds = []
    for scalar, block in ((1, b1), (2, b2)):
        seeds.append(Matrix(QQ, [
            [Fraction(scalar), Fraction(0), Fraction(0)],
            [Fraction(0)] + list(block.rows[0]),
            [Fraction(0)] + list(block.rows[1])]))
    p = rand_invertible(rng, 3)
    pinv = p.inverse()
    lin = LinearMatrix([i3] + [pinv * s * p for s in seeds])
    res = factor_3x3(lin)
    assert isinstance(res, FactorizationCert)
    assert verify_cert(res, lin)
    assert res.nontrivial_count() == 2


def test_split_assembles_certificates_when_both_sides_split():
    """`_split` with `_factor_small` on both diagonal blocks, so the basis
    changes of the 2x2 side enter the unipotent factor from the left
    (k = 1) or the right (k = 2)."""
    rng = random.Random(93)
    moved = set()
    for _ in range(40):
        k = rng.choice([1, 2])
        seeds = []
        for _ in range(rng.randint(1, 2)):
            rows = [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
            for r in range(k):
                for c in range(k, 3):
                    rows[r][c] = Fraction(0)
            seeds.append(Matrix(QQ, rows))
        p = rand_invertible(rng, 3)
        pinv = p.inverse()
        lin = LinearMatrix([I3] + [pinv * s * p for s in seeds])
        big_p, big_q, factors, flags = linmat._split(lin, p, pinv, k, linmat._factor_small,
                                                     linmat._factor_small)
        assert verify_cert(FactorizationCert(big_p, big_q, factors, flags), lin)
        side = big_p * pinv if k == 1 else p * big_q
        if True in flags and side != I3:
            moved.add(k)
    assert moved == {1, 2}


# sha256 of the joined outputs below, recorded before the block-split
# assembly of `factor_3x3` and `zdiv_to_factorization` was shared.
LINMAT_OUTPUT_SHA256 = "d76dedbc31820482a06237220d17565af8241208e167f960c1acd5486bad8640"


def _pinned_3x3_inputs(rng):
    """The 3x3 inputs of `test_linmat_outputs_are_pinned`, in order: 40
    reducible ones with identity constant term (the inputs of acceptance
    8), then 10 companions with Q-irreducible charpoly."""
    for _ in range(40):
        yield LinearMatrix([I3] + list(_reducible_3x3(rng).mats[1:]))
    companions = 0
    while companions < 10:
        a0, a1, a2 = rng.choice((-5, -3, -2, 2, 3, 5)), rng.randint(-4, 4), rng.randint(-4, 4)
        companion = Matrix.from_ints(QQ, [[0, 0, -a0], [1, 0, -a1], [0, 1, -a2]])
        if rational_roots(companion.charpoly()):
            continue
        yield LinearMatrix([I3, companion])
        companions += 1


def test_linmat_outputs_are_pinned():
    """Certificates are part of the CLI output: 40 reducible inputs, 10
    Q-irreducible companions and 12 split quaternions, byte for byte."""
    rng = random.Random(808)
    out = []
    for i, lin in enumerate(_pinned_3x3_inputs(rng)):
        res = factor_3x3(lin)
        if i < 40:
            assert isinstance(res, FactorizationCert)
            out.append(res.to_text())
        else:
            out.append("irreducible %s\n" % res.reason)
    for alpha, beta, z in _pinned_quaternions(rng):
        out.append(zdiv_to_factorization(alpha, beta, z).to_text())
    assert len(out) == 62
    digest = hashlib.sha256("".join(out).encode()).hexdigest()
    assert digest == LINMAT_OUTPUT_SHA256


def _pinned_quaternions(rng):
    """The 12 split quaternions (alpha, beta, z) of
    `test_linmat_outputs_are_pinned`, drawn after its 3x3 inputs."""
    found = 0
    while found < 12:
        # beta = (a0^2 - alpha*a1^2) / a2^2 makes the norm of a0 + a1*u + a2*v vanish
        alpha = rng.choice([a for a in range(-9, 10) if a])
        a0, a1, a2 = rng.randint(-4, 4), rng.randint(-3, 3), rng.choice((-2, -1, 1, 2))
        beta = Fraction(a0 * a0 - alpha * a1 * a1, a2 * a2)
        if beta:
            yield alpha, beta, Quaternion(alpha, beta, (a0, a1, a2, 0))
            found += 1


# sha256 of the joined outputs of `test_fact2zdiv_outputs_are_pinned`,
# recorded before the certificate layer moved onto integer rows.
FACT2ZDIV_SHA256 = "ab6124691fa720a5998eba16aae22a85d3e6180c6d9299c871a4bcf112db4c1a"


def test_fact2zdiv_outputs_are_pinned():
    """The zero-divisor pairs that `quaternion-fact2zdiv` prints for the 12
    certificates of `test_linmat_outputs_are_pinned`, byte for byte: each
    certificate is read back from its text, P and Q are undone as the
    subcommand does, and `factorization_to_zdiv` runs on the result."""
    rng = random.Random(808)
    for _lin in _pinned_3x3_inputs(rng):
        pass
    out = []
    for alpha, beta, z in _pinned_quaternions(rng):
        text = zdiv_to_factorization(alpha, beta, z).to_text()
        f, g = _split_cert_to_two_factors(FactorizationCert.from_text(text))
        z1, z2 = factorization_to_zdiv(alpha, beta, f, g)
        assert hmul(z1, z2).is_zero()
        out.append("z1 %s\nz2 %s\n" % (",".join(str(c) for c in z1.coords),
                                       ",".join(str(c) for c in z2.coords)))
    assert len(out) == 12
    digest = hashlib.sha256("".join(out).encode()).hexdigest()
    assert digest == FACT2ZDIV_SHA256


def test_factor_3x3_with_eigenvalues_of_20_to_60_digits():
    """Seeded conjugated lower-triangular inputs I + A x (+ B y) whose
    eigenvalues have 20-60 digits, some repeated: each factors into at
    least two nontrivial factors, its certificate verifies, and both take
    under a second."""
    rng = random.Random(2060)

    def big():
        return rng.choice((1, -1)) * rng.randrange(10 ** 19, 10 ** 60)

    for _ in range(10):
        p = rand_invertible(rng, 3)
        pinv = p.inverse()
        seeds = []
        for _ in range(rng.randint(1, 2)):
            diag = [big() for _ in range(3)]
            if rng.random() < 0.3:
                diag[1] = diag[0]
            rows = [[diag[i] if i == j else rng.randint(-2, 2) if j < i else 0
                     for j in range(3)] for i in range(3)]
            seeds.append(Matrix.from_ints(QQ, rows))
        lin = LinearMatrix([I3] + [pinv * s * p for s in seeds])
        start = time.perf_counter()
        cert = factor_3x3(lin)
        assert isinstance(cert, FactorizationCert) and cert.nontrivial_count() >= 2
        assert verify_cert(cert, lin)
        assert time.perf_counter() - start < 1.0


def test_factor_3x3_computes_each_charpoly_once(monkeypatch):
    """Within one `factor_3x3` call no matrix has its charpoly computed
    twice, nor its transpose (the left-line search reuses the right
    one's), on the reducible inputs and companions pinned above."""
    seen = []
    charpoly = Matrix.int_charpoly

    def counted(self):
        seen.append(self)
        return charpoly(self)

    monkeypatch.setattr(Matrix, "int_charpoly", counted)

    def distinct_up_to_transpose(lin):
        seen.clear()
        factor_3x3(lin)
        keys = [min(m.rows, m.transpose().rows) for m in seen]
        assert len(keys) == len(set(keys)), keys
        return len(keys)

    counts = [distinct_up_to_transpose(lin) for lin in _pinned_3x3_inputs(random.Random(808))]
    # a companion stops at its own charpoly, which has no rational root
    assert counts[40:] == [1] * 10
    assert sum(counts[:40]) > 80


# sha256 of the joined outputs of `test_eigen_search_outputs_are_pinned`,
# recorded before the eigenline search became one recursion.
EIGEN_SEARCH_SHA256 = "4c521e3fbf7ad456fd8f4a56e5025548fdf758ecd946edfc58974a22577ea238"


def _conjugated_family(rng, d):
    """One to three matrices p^-1 * T * p for one invertible p, each T
    diagonal with entries in {-1, 0, 1} (so many are scalar on an
    eigenspace of the others), upper triangular, or a scalar."""
    p = rand_invertible(rng, d)
    pinv = p.inverse()
    mats = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("diag", "diag", "triangular", "scalar"))
        if kind == "scalar":
            t = Matrix.identity(QQ, d).scale(Fraction(rng.randint(-2, 2)))
        else:
            kept = lambda i, j: i == j or (kind == "triangular" and j > i)
            t = Matrix(QQ, [[Fraction(rng.randint(-1, 1)) if kept(i, j) else Fraction(0)
                             for j in range(d)] for i in range(d)])
        mats.append(pinv * t * p)
    return mats


def _eigen_search_inputs(rng):
    """(name, input) pairs: 120 eigenline searches at d = 2 and 3, then 80
    3x3 linear matrices with non-identity constant terms."""
    for k in range(120):
        d = 2 + k % 2
        if k % 5 == 4:
            mats = [Matrix(QQ, [[Fraction(rng.randint(-2, 2)) for _ in range(d)] for _ in range(d)])
                    for _ in range(rng.randint(1, 3))]
        else:
            mats = _conjugated_family(rng, d)
        yield "lines", mats
    for k in range(80):
        a0 = rand_invertible(rng, 3)
        kind = k % 4
        if kind == 0:
            coeffs = _reducible_3x3(rng).mats[1:]
        elif kind == 1:
            coeffs = _conjugated_family(rng, 3)
        elif kind == 2:
            # one family conjugated by unrelated bases: rarely a common line
            coeffs = [_conjugated_family(rng, 3)[0] for _ in range(rng.randint(1, 2))]
        else:
            # strictly upper triangular (a unit) or a companion matrix
            p = rand_invertible(rng, 3)
            if rng.random() < 0.5:
                upper = Matrix(QQ, [[Fraction(rng.randint(-2, 2)) if j > i else Fraction(0)
                                     for j in range(3)] for i in range(3)])
                coeffs = [p.inverse() * upper * p]
            else:
                c0, c1, c2 = rng.choice((-3, 2, 5)), rng.randint(-2, 2), rng.randint(-2, 2)
                coeffs = [Matrix.from_ints(QQ, [[0, 0, c0], [1, 0, c1], [0, 1, c2]])]
        yield "factor", LinearMatrix([a0] + [a0 * m for m in coeffs])


def test_eigen_search_outputs_are_pinned():
    """The right and left common eigenlines with their eigenvalues, and
    every `factor_3x3` verdict, byte for byte on 200 seeded inputs."""
    out, verdicts = [], set()
    for name, x in _eigen_search_inputs(random.Random(1616)):
        if name == "lines":
            for side in ("right", "left"):
                out.append("%s %r\n" % (side, common_eigenlines(x, side)))
            continue
        res = factor_3x3(x)
        if isinstance(res, FactorizationCert):
            assert verify_cert(res, x)
            verdicts.add("cert")
            out.append(res.to_text())
        else:
            verdicts.add(res.reason)
            out.append("irreducible %s\n" % res.reason)
    assert verdicts == {"cert", "unit-linear-matrix", "charpoly-irreducible",
                        "exhausted-eigen-search"}
    digest = hashlib.sha256("".join(out).encode()).hexdigest()
    assert digest == EIGEN_SEARCH_SHA256


def test_product_linear():
    z = Quaternion(1, 2, (1, -1, 0, 0))
    cert = zdiv_to_factorization(1, 2, z)
    merged = product_linear(cert.factors)
    conj = quaternion_linmat(1, 2).conjugate(cert.p)
    assert merged == conj
    with pytest.raises(ValueError):
        product_linear([LinearMatrix([I2, Matrix.from_ints(QQ, [[0, 1], [0, 0]])]),
                        LinearMatrix([I2, Matrix.from_ints(QQ, [[0, 0], [1, 0]])])])


def ref_product_linear(factors):
    """The pairwise product on Matrix operations: each step pads both
    factors with zero coefficients to the longer one, refuses any nonzero
    F_a * G_b, and keeps F0*G0 + sum (F0*G_i + F_i*G0) x_i."""
    factors = list(factors)
    if not factors:
        raise ValueError("empty product")
    acc = factors[0]
    for nxt in factors[1:]:
        if acc.d != nxt.d:
            raise ValueError("factor dimension mismatch")
        n = max(acc.n, nxt.n)
        zero = Matrix.zeros(QQ, acc.d, acc.d)
        a = list(acc.mats[1:]) + [zero] * (n - acc.n)
        b = list(nxt.mats[1:]) + [zero] * (n - nxt.n)
        for ai in a:
            for bj in b:
                if not (ai * bj).is_zero():
                    raise ValueError("product of factors is not linear")
        mats = [acc.constant * nxt.constant]
        for i in range(n):
            mats.append(acc.constant * b[i] + a[i] * nxt.constant)
        acc = LinearMatrix(mats)
    return acc


def _refused_at(product, chain):
    """The length of the first prefix of the chain that `product` refuses
    as not linear, or None when it multiplies the whole chain."""
    for k in range(2, len(chain) + 1):
        try:
            product(chain[:k])
        except ValueError as exc:
            assert "not linear" in str(exc)
            return k
    return None


def _product_chains(rng):
    """Chains of 2-4 factors: runs of consecutive factors of seeded
    `factor_3x3` and `zdiv_to_factorization` certificates (with integer and
    with fractional basis changes threaded through), some with a constant
    factor (n = 0) put in, and the same runs reversed, which mostly have
    a nonzero F_a * G_b at some step."""
    certs = []
    while len(certs) < 8:
        res = factor_3x3(_reducible_3x3(rng))
        if isinstance(res, FactorizationCert) and len(res.factors) >= 2:
            certs.append(res)
    for alpha, beta, coords in [(1, 1, (1, -1, 0, 0)), (1, 2, (1, -1, 0, 0)),
                                (4, 3, (0, 0, 2, 1)), (9, 5, (3, -1, 0, 0))]:
        certs.append(zdiv_to_factorization(alpha, beta, Quaternion(alpha, beta, coords)))
    certs += [_fractional_cert(cert, rng) for cert in certs]
    for cert in certs:
        factors = list(cert.factors)
        d = cert.p.nrows
        runs = [factors[i:j] for i in range(len(factors))
                for j in range(i + 2, min(i + 4, len(factors)) + 1)]
        for run in runs:
            yield run
            yield run[::-1]
            if len(run) < 4:
                constant = LinearMatrix([_rand_fractional_invertible(rng, d)])
                k = rng.randrange(len(run) + 1)
                yield run[:k] + [constant] + run[k:]


def test_product_linear_matches_matrix_reference():
    """`product_linear` against the pairwise Matrix-op product: the same
    linear matrix for every chain the reference multiplies, and a refusal
    at the same step for every chain it refuses."""
    rng = random.Random(2424)
    multiplied = refused = late = 0
    for chain in _product_chains(rng):
        step = _refused_at(ref_product_linear, chain)
        assert _refused_at(product_linear, chain) == step
        if step is None:
            got, want = product_linear(chain), ref_product_linear(chain)
            assert got.n == want.n and got == want
            multiplied += 1
        else:
            refused += 1
            late += step > 2
    assert multiplied >= 40 and refused >= 10 and late >= 2


def test_quaternion_linmat_entries():
    lin = quaternion_linmat(1, -1)
    mu, mv = lin.coeff(1), lin.coeff(2)
    assert mu[1][0] == 1 and mu[0][1] == 1 and mu[2][3] == 1 and mu[3][2] == 1
    assert mv[2][0] == -1 and mv[0][2] == 1 and mv[1][3] == -1 and mv[3][1] == 1
    lin2 = quaternion_linmat(Fraction(4), Fraction(3))
    assert lin2.coeff(1)[1][0] == 4
    assert is_monic(lin2)
    with pytest.raises(ValueError):
        quaternion_linmat(0, 1)


def test_zdiv_to_factorization_families():
    cases = [(1, 1, (1, -1, 0, 0)), (1, 2, (1, -1, 0, 0)), (1, 3, (1, -1, 0, 0)),
             (4, 3, (2, -1, 0, 0)), (9, 5, (3, -1, 0, 0))]
    for alpha, beta, coords in cases:
        z = Quaternion(alpha, beta, coords)
        cert = zdiv_to_factorization(alpha, beta, z)
        assert verify_cert(cert, quaternion_linmat(alpha, beta))
    with pytest.raises(ValueError):
        zdiv_to_factorization(-1, -1, Quaternion(-1, -1, (1, 0, 0, 0)))


def test_zdiv_left_ideal_dimension():
    z = Quaternion(1, 1, (1, -1, 0, 0))
    basis = Quaternion.basis(1, 1)
    rows = [hmul(b, z).coords for b in basis]
    assert Matrix(QQ, rows).rank() == 2


def _split_cert_to_two_factors(cert):
    pinv = cert.p.inverse()
    qinv = cert.q.inverse()
    front = product_linear(cert.factors[:-1])
    return front.lmul(pinv), cert.factors[-1].rmul(qinv)


def test_factorization_to_zdiv_round_trip():
    for alpha, beta, coords in [(1, 1, (1, -1, 0, 0)), (1, 2, (1, -1, 0, 0)),
                                (1, 3, (1, -1, 0, 0)), (4, 3, (2, -1, 0, 0)),
                                (9, 5, (3, -1, 0, 0))]:
        cert = zdiv_to_factorization(alpha, beta, Quaternion(alpha, beta, coords))
        f, g = _split_cert_to_two_factors(cert)
        z1, z2 = factorization_to_zdiv(alpha, beta, f, g)
        assert not z1.is_zero() and not z2.is_zero()
        assert hmul(z1, z2).is_zero()
        assert is_zero_divisor(z1) and is_zero_divisor(z2)


def test_factorization_to_zdiv_invariant_subspace():
    alpha, beta = 1, 2
    cert = zdiv_to_factorization(alpha, beta, Quaternion(alpha, beta, (1, -1, 0, 0)))
    f, g = _split_cert_to_two_factors(cert)
    # the invariance check is asserted inside; also confirm externally
    g0inv = g.constant.inverse()
    gn = g.lmul(g0inv)
    from ncfactor.quaternion import mu_matrix, mv_matrix
    cols = []
    for m in (gn.coeff(1), gn.coeff(2)):
        for j in range(4):
            c = m.col(j)
            if any(x != 0 for x in c):
                cols.append(c)
    w = Matrix.from_cols(QQ, cols)
    r = w.rank()
    for big in (mu_matrix(alpha), mv_matrix(beta)):
        assert w.hstack(big * w).rank() == r


def test_factorization_to_zdiv_from_other_zero_divisors():
    # seeds other than the 1-u family
    for alpha, beta, coords in [(1, 1, (0, 0, 1, 1)), (4, 3, (0, 0, 2, 1))]:
        z = Quaternion(alpha, beta, coords)
        assert is_zero_divisor(z)
        cert = zdiv_to_factorization(alpha, beta, z)
        f, g = _split_cert_to_two_factors(cert)
        z1, z2 = factorization_to_zdiv(alpha, beta, f, g)
        assert hmul(z1, z2).is_zero()
        assert not z1.is_zero() and not z2.is_zero()


def test_factorization_to_zdiv_rejects_units_and_mismatches():
    lin = quaternion_linmat(1, 1)
    ident_lin = LinearMatrix([I4, Matrix.zeros(QQ, 4, 4), Matrix.zeros(QQ, 4, 4)])
    with pytest.raises(ValueError):
        factorization_to_zdiv(1, 1, lin, ident_lin)
    with pytest.raises(ValueError):
        factorization_to_zdiv(1, 1, ident_lin, ident_lin)


def test_linmat_text_round_trip():
    lin = quaternion_linmat(Fraction(9), Fraction(5))
    text = lin.to_text()
    assert LinearMatrix.from_text(text).to_text() == text
    z = Quaternion(9, 5, (3, -1, 0, 0))
    cert = zdiv_to_factorization(9, 5, z)
    ct = cert.to_text()
    back = FactorizationCert.from_text(ct)
    assert back.to_text() == ct
    assert verify_cert(back, lin)


# -- references for the certificate and unit checks ---------------------

def _nc_matrix(lin, alphabet):
    """Entries of a linear matrix as degree<=1 free-algebra polynomials."""
    return tuple(tuple(NcPoly(alphabet, QQ, [((), lin.mats[0][i][j])]
                              + [((k - 1,), lin.mats[k][i][j]) for k in range(1, lin.n + 1)])
                       for j in range(lin.d)) for i in range(lin.d))


def _nc_matmul(a, b):
    size = len(a)
    out = []
    for i in range(size):
        row = []
        for j in range(size):
            acc = a[i][0] * b[0][j]
            for k in range(1, size):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def ref_verify_cert(cert, L):
    """The symbolic check: P*L*Q and the product of the factors multiplied
    out as d x d matrices of free-algebra polynomials."""
    if cert.p.inverse() is None or cert.q.inverse() is None:
        return False
    n = max([L.n] + [f.n for f in cert.factors])
    alphabet = Alphabet.nvars(max(n, 1))
    const = lambda m: _nc_matrix(LinearMatrix([m]), alphabet)
    lhs = _nc_matmul(const(cert.p), _nc_matmul(_nc_matrix(L, alphabet), const(cert.q)))
    rhs = const(Matrix.identity(QQ, L.d))
    for factor in cert.factors:
        rhs = _nc_matmul(rhs, _nc_matrix(factor, alphabet))
    return lhs == rhs


def _perturb(m, rng):
    rows = [list(r) for r in m.rows]
    i, j = rng.randrange(m.nrows), rng.randrange(m.ncols)
    rows[i][j] += rng.choice((-1, 1, Fraction(1, 2)))
    return Matrix(QQ, rows)


def _corruptions(cert, rng):
    """One entry of P, Q or a factor perturbed; two factors swapped; a
    factor given a coefficient for one extra variable."""
    factors = list(cert.factors)
    flags = cert.unit_flags
    d = cert.p.nrows
    out = [FactorizationCert(_perturb(cert.p, rng), cert.q, factors, flags),
           FactorizationCert(cert.p, _perturb(cert.q, rng), factors, flags)]
    k = rng.randrange(len(factors))
    mats = list(factors[k].mats)
    b = rng.randrange(len(mats))
    mats[b] = _perturb(mats[b], rng)
    out.append(FactorizationCert(cert.p, cert.q, factors[:k] + [LinearMatrix(mats)]
                                 + factors[k + 1:], flags))
    if len(factors) >= 2:
        i = rng.randrange(len(factors) - 1)
        swapped = factors[:i] + [factors[i + 1], factors[i]] + factors[i + 2:]
        out.append(FactorizationCert(cert.p, cert.q, swapped, flags))
    n = max(f.n for f in factors)
    pad = [Matrix.zeros(QQ, d, d)] * (n - factors[k].n)
    extra = LinearMatrix(list(factors[k].mats) + pad + [_perturb(Matrix.zeros(QQ, d, d), rng)])
    out.append(FactorizationCert(cert.p, cert.q, factors[:k] + [extra] + factors[k + 1:], flags))
    return out


def _reducible_3x3(rng):
    while True:
        p = rand_invertible(rng, 3)
        split = rng.choice([1, 2])
        seeds = []
        for _ in range(rng.randint(1, 3)):
            rows = [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
            for r in range(split):
                for c in range(split, 3):
                    rows[r][c] = Fraction(0)
            seeds.append(Matrix(QQ, rows))
        if _block_lin(seeds, 0, split).is_unit() or _block_lin(seeds, split, 3).is_unit():
            continue
        pinv = p.inverse()
        return LinearMatrix([rand_invertible(rng, 3)] + [pinv * s * p for s in seeds])


def test_verify_cert_matches_symbolic_reference():
    rng = random.Random(5150)
    cases = []
    while len(cases) < 8:
        lin = _reducible_3x3(rng)
        res = factor_3x3(lin)
        if isinstance(res, FactorizationCert):
            cases.append((res, lin))
    for alpha, beta, coords in [(1, 1, (1, -1, 0, 0)), (1, 2, (1, -1, 0, 0)),
                                (4, 3, (0, 0, 2, 1)), (9, 5, (3, -1, 0, 0))]:
        cert = zdiv_to_factorization(alpha, beta, Quaternion(alpha, beta, coords))
        cases.append((cert, quaternion_linmat(alpha, beta)))
    rejected = 0
    for cert, lin in cases:
        assert verify_cert(cert, lin) and ref_verify_cert(cert, lin)
        for bad in _corruptions(cert, rng):
            got = verify_cert(bad, lin)
            assert got == ref_verify_cert(bad, lin)
            rejected += not got
    assert rejected >= 4 * len(cases)


def test_verify_cert_dimension_errors():
    lin = quaternion_linmat(1, 1)
    cert = zdiv_to_factorization(1, 1, Quaternion(1, 1, (1, -1, 0, 0)))
    with pytest.raises(ValueError):
        verify_cert(FactorizationCert(I3, I3, cert.factors, cert.unit_flags), lin)
    small = LinearMatrix([I3, Matrix.zeros(QQ, 3, 3)])
    with pytest.raises(ValueError):
        verify_cert(FactorizationCert(I4, I4, [small], [False]), lin)
    singular = Matrix.zeros(QQ, 4, 4)
    assert not verify_cert(FactorizationCert(singular, I4, cert.factors, cert.unit_flags), lin)


FRACTIONAL = (0, 0, 1, -1, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 7), Fraction(-3, 7),
              Fraction(5, 11), Fraction(-4, 11))


def _rand_fractional_invertible(rng, d):
    while True:
        m = Matrix(QQ, [[Fraction(rng.choice(FRACTIONAL)) for _ in range(d)] for _ in range(d)])
        if m.det() != 0:
            return m


def _fractional_cert(cert, rng):
    """The same certificate with fractional basis changes threaded through:
    P' = D*P, Q' = Q*E_k and factors D*F_1*E_1, E_1^-1*F_2*E_2, ...,
    E_(k-1)^-1*F_k*E_k, whose product is D*P*L*Q*E_k = P'*L*Q'."""
    d = cert.p.nrows
    rights = [_rand_fractional_invertible(rng, d) for _ in cert.factors]
    lefts = [_rand_fractional_invertible(rng, d)] + [m.inverse() for m in rights[:-1]]
    factors = [f.lmul(a).rmul(b) for f, a, b in zip(cert.factors, lefts, rights)]
    return FactorizationCert(lefts[0] * cert.p, cert.q * rights[-1], factors, cert.unit_flags)


def _common_denominator(mats):
    return lcm(*(x.denominator for m in mats for r in m.rows for x in r))


def test_verify_cert_tracks_scales():
    """The integer check scales each group of matrices by its own lcm of
    denominators: scales that cancel between P and Q still verify, and
    scales that do not are rejected, as by the symbolic reference."""
    rng = random.Random(6011)
    certs = []
    while len(certs) < 3:
        lin = _reducible_3x3(rng)
        res = factor_3x3(lin)
        if isinstance(res, FactorizationCert):
            certs.append((_fractional_cert(res, rng), lin))
    cert = zdiv_to_factorization(4, 3, Quaternion(4, 3, (0, 0, 2, 1)))
    certs.append((_fractional_cert(cert, rng), quaternion_linmat(4, 3)))
    third = Fraction(1, 3)
    for cert, lin in certs:
        groups = [[cert.p], [cert.q]] + [f.mats for f in cert.factors]
        scales = [_common_denominator(g) for g in groups]
        assert all(s % 2 == 0 or s % 7 == 0 or s % 11 == 0 for s in scales)
        assert lcm(*scales) % (2 * 7 * 11) == 0
        assert verify_cert(cert, lin) and ref_verify_cert(cert, lin)
        balanced = FactorizationCert(cert.p.scale(third), cert.q.scale(3), cert.factors,
                                     cert.unit_flags)
        assert verify_cert(balanced, lin)
        lopsided = FactorizationCert(cert.p.scale(third), cert.q, cert.factors,
                                     cert.unit_flags)
        assert not verify_cert(lopsided, lin)
        k = rng.randrange(len(cert.factors))
        mats = list(cert.factors[k].mats)
        mats[0] = mats[0].scale(Fraction(2, 7))
        factors = list(cert.factors)
        factors[k] = LinearMatrix(mats)
        shrunk = FactorizationCert(cert.p, cert.q, factors, cert.unit_flags)
        assert not verify_cert(shrunk, lin)
        for bad in _corruptions(cert, rng):
            assert verify_cert(bad, lin) == ref_verify_cert(bad, lin)


def ref_is_unit(lin):
    """Invertible constant and every product of d normalized coefficients zero."""
    a0inv = lin.constant.inverse()
    if a0inv is None:
        return False
    gens = [a0inv * m for m in lin.mats[1:]]
    words = list(gens)
    for _ in range(lin.d - 1):
        words = [w * g for w in words for g in gens]
    return all(w.is_zero() for w in words)


def test_is_unit_matches_product_enumeration():
    rng = random.Random(4711)
    small = lambda: Fraction(rng.choice((0, 0, 0, 1, -1, 2)))
    outcomes = set()
    for d in range(1, 5):
        for n in range(4):
            for trial in range(12):
                a0 = rand_invertible(rng, d) if trial % 4 else Matrix(
                    QQ, [[small() for _ in range(d)] for _ in range(d)])
                if trial % 2:
                    # a0 * P^-1 N_i P with N_i strictly upper triangular: a unit
                    p = rand_invertible(rng, d)
                    pinv = p.inverse()
                    coeffs = [a0 * pinv * Matrix(QQ, [[small() if j > i else Fraction(0)
                                                       for j in range(d)] for i in range(d)]) * p
                              for _ in range(n)]
                else:
                    coeffs = [Matrix(QQ, [[small() for _ in range(d)] for _ in range(d)])
                              for _ in range(n)]
                lin = LinearMatrix([a0] + coeffs)
                got = lin.is_unit()
                assert got == ref_is_unit(lin), (d, n, trial)
                outcomes.add((d, got))
    assert outcomes == {(d, flag) for d in range(1, 5) for flag in (False, True)}


def test_matrix_entries_read_as_fraction_reads_them():
    """The integer fast path of the matrix reader accepts and refuses
    exactly what Fraction(token) does."""
    from ncfactor.textio import _ratios
    for token in ("3", "-3", "+3", "007", "-0", "1/2", "-4/6", "1.5", "2e3", "٣"):
        (num,), (den,) = _ratios([token])
        assert den > 0 and Fraction(num, den) == Fraction(token)
    for token in ("", "+", "-+3", "3/", "1/0x", "abc", "3_0/", "1/0"):
        with pytest.raises((ValueError, ZeroDivisionError)):
            Fraction(token)
        with pytest.raises((ValueError, ZeroDivisionError)):
            _ratios([token])


# Tokens the matrix-block reader accepts, each as `Fraction(token)` reads it.
MATRIX_TOKENS = ("0", "3", "-3", "+3", "007", "-0", "12345678901234567890", "1/2", "-4/6",
                 "+2/4", "10/5", "-0/7", "1.5", "-0.25", ".5", "2.", "2e3", "1E-2",
                 "-3.5e1", "1_0", "٣", "٣/٤", "１２")


def test_read_matrix_matches_fraction_entries():
    """Seeded blocks of integers, signs, reducible ratios, decimals,
    exponents and non-ASCII digits read into the matrix whose entries are
    `Fraction(token)`, alone and inside a linear matrix."""
    from ncfactor import textio
    rng = random.Random(3141)
    for _ in range(200):
        d = rng.randint(1, 4)
        n = rng.randint(0, 2)
        blocks = [[[rng.choice(MATRIX_TOKENS) for _ in range(d)] for _ in range(d)]
                  for _ in range(n + 1)]
        expected = [Matrix(QQ, [[Fraction(t) for t in row] for row in block])
                    for block in blocks]
        lines = [" ".join(row) for block in blocks for row in block]
        assert [textio.read_matrix(lines, b * d, d) for b in range(n + 1)] == expected
        text = "linmat d=%d n=%d field=Q\n%s\n" % (d, n, "\n".join(lines))
        assert list(LinearMatrix.from_text(text).mats) == expected


def test_read_matrix_refuses_malformed_blocks():
    """A bad entry or a short or long row is a format error."""
    from ncfactor.errors import FormatError
    for bad in ("3/", "1/0", "+-3", "--3", "1/-2", "1/+2", "3/4/5", "/3", "0x1", "1e",
                "nan", "½", "²", "", "1 2"):
        rows = ["1 0", "%s 1" % bad if bad else "1"]
        with pytest.raises(FormatError):
            LinearMatrix.from_text("linmat d=2 n=0 field=Q\n%s\n" % "\n".join(rows))
