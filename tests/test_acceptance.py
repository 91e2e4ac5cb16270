"""Acceptance suite: one test per criterion, every check exact.

Each test prints a single PASS line on success (visible with -s or in
captured output summaries); pytest's own failure reporting marks FAIL.
"""

import random
import subprocess
import sys
from itertools import product

from ncfactor.automaton import (build_automaton, recover_abp, recover_blackbox,
                                recover_circuit, reduce_and_recover)
from ncfactor.circuits import Abp, MatrixAssignment, circuit_from_poly
from ncfactor.embedding import (Embedding, naive_substitution, phi_abp,
                                phi_blackbox, phi_circuit, phi_inverse_poly,
                                phi_poly)
from ncfactor.factoring import complete_factorizations, is_irreducible, left_factors
from ncfactor.fields import GF2, QQ
from ncfactor.linmat import (FactorizationCert, Irreducible, LinearMatrix,
                             factor_3x3, factorization_to_zdiv, product_linear,
                             quaternion_linmat, verify_cert, zdiv_to_factorization)
from ncfactor.matrix import Matrix
from ncfactor.ncpoly import Alphabet, NcPoly, imbalance
from ncfactor.quaternion import (Quaternion, hmul, is_zero_divisor,
                                 search_zero_divisor)
from ncfactor.words import catalan, enumerate_words

AB = Alphabet.bivariate()


def report(n, name):
    print("ACCEPTANCE %d %s: PASS" % (n, name))


def rand_poly(rng, n, field, max_deg, max_terms, nonzero=False):
    alphabet = Alphabet.nvars(n)
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        w = tuple(rng.randrange(n) for _ in range(rng.randint(0, max_deg)))
        if field is QQ:
            c = QQ.from_int(rng.randint(-3, 3))
        else:
            c = field.from_int(rng.randrange(field.p))
        terms.append((w, c))
    f = NcPoly(alphabet, field, terms)
    if nonzero and f.is_zero():
        return NcPoly.one(alphabet, field)
    return f


def test_criterion_1_embedding_laws():
    rng = random.Random(1001)
    pairs_per_combo = 50
    for field in (GF2, QQ):
        for mode in ("compact", "paper"):
            embedding = Embedding.for_variables(4, mode)
            for _ in range(pairs_per_combo):
                f = rand_poly(rng, 4, field, max_deg=4, max_terms=6)
                g = rand_poly(rng, 4, field, max_deg=4, max_terms=6)
                pf, pg = phi_poly(f, embedding), phi_poly(g, embedding)
                assert phi_poly(f * g, embedding) == pf * pg
                if f != g:
                    assert pf != pg
                for word in pf.terms:
                    assert imbalance(word) == 0
    report(1, "embedding laws (homomorphism, injectivity, balance)")


def test_criterion_2_recovery_round_trip():
    rng = random.Random(1002)
    # 100 random circuits, constant-term cases included
    for trial in range(100):
        n = rng.randint(1, 3)
        mode = "paper" if trial % 20 == 0 else "compact"
        embedding = Embedding.for_variables(n, mode)
        automaton = build_automaton(embedding.wordset)
        f = rand_poly(rng, n, QQ, max_deg=3, max_terms=4)
        if trial % 3 == 0:
            f = f + NcPoly.constant(Alphabet.nvars(n), QQ, QQ.from_int(rng.randint(1, 3)))
        c = circuit_from_poly(f)
        assert recover_circuit(phi_circuit(c, embedding), automaton).expand() == f

    # ABP variant agrees on seeded random matrix assignments
    ab2 = Alphabet.nvars(2)
    embedding = Embedding.for_variables(2, "compact")
    automaton = build_automaton(embedding.wordset)
    for trial in range(10):
        lbl = lambda: NcPoly(ab2, QQ, [((), QQ.from_int(rng.randint(0, 2))),
                                       ((0,), QQ.from_int(rng.randint(-2, 2))),
                                       ((1,), QQ.from_int(rng.randint(-2, 2)))])
        p = Abp(ab2, QQ, (1, 2, 1), [{(0, 0): lbl(), (0, 1): lbl()},
                                     {(0, 0): lbl(), (1, 0): lbl()}])
        back = recover_abp(phi_abp(p, embedding), automaton)
        assert back.expand() == p.expand()
        assignment = MatrixAssignment.random(ab2, QQ, 2, rng)
        assert back.evaluate(assignment) == p.evaluate(assignment)

    # black-box variant agrees on seeded random matrix assignments
    for trial in range(10):
        n = rng.randint(1, 2)
        f = rand_poly(rng, n, QQ, max_deg=2, max_terms=3)
        f = f + NcPoly.one(Alphabet.nvars(n), QQ)
        embedding = Embedding.for_variables(n, "compact")
        automaton = build_automaton(embedding.wordset)
        c = circuit_from_poly(f)
        bb = lambda assign: c.evaluate(assign)
        rec = recover_blackbox(phi_blackbox(bb, embedding, QQ), automaton, QQ)
        assignment = MatrixAssignment.random(Alphabet.nvars(n), QQ, 2, rng)
        assert rec(assignment) == bb(assignment)
    report(2, "recovery round-trips (circuit, ABP, black-box)")


def test_criterion_3_naive_substitution_counterexample():
    ab5 = Alphabet.nvars(5)
    f = NcPoly(ab5, GF2, [((2, 0), GF2.one), ((3, 1), GF2.one),
                          ((3, 0), GF2.one), ((4, 1), GF2.one)])
    # irreducibility witness 1: quadratic coefficient matrix has rank 2 > 1
    rows = sorted({w[0] for w in f.terms})
    cols = sorted({w[1] for w in f.terms})
    cmatrix = Matrix(GF2, [[f.coeff((i, j)) for j in cols] for i in rows])
    assert cmatrix.rank() == 2
    # irreducibility witness 2: exhaustive left-factor scan over F2
    assert left_factors(f, 1) == []
    assert is_irreducible(f)
    # yet the naive substitution image factors
    fq = NcPoly(Alphabet.nvars(5), QQ,
                [(w, QQ.one) for w in f.terms])
    image = naive_substitution(fq)
    g1 = NcPoly(AB, QQ, [((0, 1, 1), QQ.one), ((0, 1, 1, 1), QQ.one)])
    g2 = NcPoly(AB, QQ, [((1, 0, 1), QQ.one), ((1, 1, 0, 1, 1), QQ.one)])
    assert image == g1 * g2
    report(3, "naive substitution counterexample")


def test_criterion_4_embedding_preserves_factorizations():
    rng = random.Random(1004)
    embedding = Embedding.for_variables(2, "compact")
    checked = 0
    trials = 0
    while checked < 50:
        trials += 1
        assert trials < 500
        f = rand_poly(rng, 2, GF2, max_deg=2, max_terms=3)
        if f.degree < 1:
            continue
        image = phi_poly(f, embedding)
        tree_f = complete_factorizations(f)
        tree_img = complete_factorizations(image)
        pulled = set()
        for _scalar, factors in tree_img:
            back = []
            for factor in factors:
                pre = phi_inverse_poly(factor, embedding)
                assert pre is not None, "every bivariate factor lies in the image"
                back.append(pre)
            pulled.add(tuple(back))
        assert pulled == {tuple(factors) for _s, factors in tree_f}
        assert len(tree_img) == len(tree_f)
        checked += 1
    report(4, "embedding preserves complete factorizations (50 instances)")


def test_criterion_5_non_ufd_witness():
    x = NcPoly.variable(AB, GF2, 0)
    y = NcPoly.variable(AB, GF2, 1)
    one = NcPoly.one(AB, GF2)
    tree = complete_factorizations(x + x * y * x)
    got = {tuple(factors) for _scalar, factors in tree}
    assert got == {(x, one + y * x), (one + x * y, x)}
    assert len(tree) == 2
    report(5, "non-UFD witness x + xyx")


def test_criterion_6_catalan_bounds():
    # counts by exhaustive enumeration up to length 16
    for ell in range(1, 9):
        count = 0
        for word in product((0, 1), repeat=2 * ell):
            run = 0
            ok = True
            for i, c in enumerate(word):
                run += 1 if c == 0 else -1
                if i < 2 * ell - 1 and run <= 0:
                    ok = False
                    break
            if ok and run == 0:
                count += 1
        assert count == catalan(ell - 1)
    for k in range(5, 13):
        assert catalan(k) > 2 ** k
    for n in range(1, 65):
        ws = enumerate_words(n, "paper")
        ell = max((4 * n - 1).bit_length(), 7)
        assert len(ws.words) == n
        assert all(len(w) == 2 * ell for w in ws.words)
    report(6, "Catalan counts and paper-mode enumeration")


def test_criterion_7_end_to_end_reduction():
    oracle = lambda poly: complete_factorizations(poly)
    ab2 = Alphabet.nvars(2)
    x1 = NcPoly.variable(ab2, GF2, 0)
    x2 = NcPoly.variable(ab2, GF2, 1)
    embedding = Embedding.for_variables(2, "compact")
    factors = reduce_and_recover(circuit_from_poly(x1 * x2 + x1), embedding, oracle)
    prod = NcPoly.one(ab2, GF2)
    for g in factors:
        prod = prod * g
        assert is_irreducible(g)
    assert prod == x1 * x2 + x1

    rng = random.Random(1007)
    done = 0
    trials = 0
    while done < 20:
        trials += 1
        assert trials < 200
        n = rng.randint(1, 2)
        abn = Alphabet.nvars(n)
        g = rand_poly(rng, n, GF2, max_deg=1, max_terms=3, nonzero=True)
        h = rand_poly(rng, n, GF2, max_deg=2, max_terms=3, nonzero=True)
        if g.degree < 1 or h.degree < 1:
            continue
        f = g * h
        embedding = Embedding.for_variables(n, "compact")
        factors = reduce_and_recover(circuit_from_poly(f), embedding, oracle)
        prod = NcPoly.one(abn, GF2)
        for part in factors:
            assert is_irreducible(part)
            prod = prod * part
        assert prod == f
        done += 1
    report(7, "end-to-end reduction (1 + 20 instances)")


def _rand_invertible(rng, d):
    while True:
        m = Matrix(QQ, [[QQ.from_int(rng.randint(-3, 3)) for _ in range(d)]
                        for _ in range(d)])
        if m.inverse() is not None:
            return m


def _block_lin(mats, lo, hi):
    d = hi - lo
    blocks = [Matrix.identity(QQ, d)]
    for m in mats:
        blocks.append(Matrix(QQ, [[m[i][j] for j in range(lo, hi)]
                                  for i in range(lo, hi)]))
    return LinearMatrix(blocks)


def test_criterion_8_factor_3x3():
    rng = random.Random(1008)
    i3 = Matrix.identity(QQ, 3)
    verified = 0
    attempts = 0
    while verified < 200:
        attempts += 1
        assert attempts < 2000
        p = _rand_invertible(rng, 3)
        pinv = p.inverse()
        n = rng.randint(1, 3)
        split = rng.choice([1, 2])
        seeds = []
        for _ in range(n):
            rows = [[QQ.from_int(rng.randint(-2, 2)) for _ in range(3)]
                    for _ in range(3)]
            for r in range(split):
                for c in range(split, 3):
                    rows[r][c] = QQ.zero
            seeds.append(Matrix(QQ, rows))
        if _block_lin(seeds, 0, split).is_unit() or _block_lin(seeds, split, 3).is_unit():
            continue
        lin = LinearMatrix([i3] + [pinv * s * p for s in seeds])
        res = factor_3x3(lin)
        assert isinstance(res, FactorizationCert)
        assert verify_cert(res, lin)
        assert res.nontrivial_count() >= 2
        verified += 1

    # 20 companion-matrix instances with irreducible cubic char polys,
    # t^3 - 2 first
    from ncfactor.matrix import rational_roots

    companions = 0
    cubics = [(-2, 0, 0)]
    cubics.extend((a0, a1, a2)
                  for a0, a1, a2 in product((2, 3, 5, -2, 7, 11, 4), repeat=3))
    for a0, a1, a2 in cubics:
        # t^3 + a2 t^2 + a1 t + a0, keep only Q-irreducible ones
        coeffs = (QQ.from_int(a0), QQ.from_int(a1), QQ.from_int(a2), QQ.one)
        if rational_roots(coeffs):
            continue
        companion = Matrix(QQ, [[QQ.zero, QQ.zero, QQ.from_int(-a0)],
                                [QQ.one, QQ.zero, QQ.from_int(-a1)],
                                [QQ.zero, QQ.one, QQ.from_int(-a2)]])
        res = factor_3x3(LinearMatrix([i3, companion]))
        assert isinstance(res, Irreducible)
        assert res.reason == "charpoly-irreducible"
        companions += 1
        if companions == 20:
            break
    assert companions == 20

    # scalar family reproduces the diagonal two-factor shape at 2x2 and 3x3
    lin = LinearMatrix([i3, i3.scale(QQ.from_int(3)), i3.scale(QQ.from_int(-2))])
    cert = factor_3x3(lin)
    assert isinstance(cert, FactorizationCert)
    assert len(cert.factors) == 3 and verify_cert(cert, lin)
    for j, factor in enumerate(cert.factors):
        for i in range(1, factor.n + 1):
            coeff = factor.coeff(i)
            assert all(coeff[r][c] == 0 for r in range(3) for c in range(3)
                       if (r, c) != (j, j))
    report(8, "3x3 algorithm (200 reducible, 20 companion, scalar family)")


def test_criterion_9_quaternion_gadget():
    seeds = {(1, 1): (1, -1, 0, 0), (1, 2): (1, -1, 0, 0), (1, 3): (1, -1, 0, 0),
             (4, 3): (2, -1, 0, 0), (9, 5): (3, -1, 0, 0)}
    for (alpha, beta), coords in seeds.items():
        z = Quaternion(alpha, beta, coords)
        cert = zdiv_to_factorization(alpha, beta, z)
        assert verify_cert(cert, quaternion_linmat(alpha, beta))
        pinv = cert.p.inverse()
        qinv = cert.q.inverse()
        f = product_linear(cert.factors[:-1]).lmul(pinv)
        g = cert.factors[-1].rmul(qinv)
        z1, z2 = factorization_to_zdiv(alpha, beta, f, g)
        assert not z1.is_zero() and not z2.is_zero()
        assert hmul(z1, z2).is_zero()

    rng = random.Random(1009)
    for alpha, beta in ((-1, -1), (-1, -3)):
        assert search_zero_divisor(alpha, beta, 3) is None
        rejected = 0
        while rejected < 1000:
            coords = tuple(QQ.from_int(rng.randint(-9, 9)) for _ in range(4))
            if all(c == 0 for c in coords):
                continue
            assert not is_zero_divisor(Quaternion(alpha, beta, coords))
            rejected += 1
    report(9, "quaternion gadget (5 parameter pairs + division algebras)")


def test_criterion_10_cli_determinism(tmp_path):
    ab2 = Alphabet.nvars(2)
    f = NcPoly(ab2, GF2, [((0, 1), GF2.one), ((0,), GF2.one)])
    poly_path = tmp_path / "f.poly"
    poly_path.write_text(f.to_text())
    circ_path = tmp_path / "f.ncc"
    circ_path.write_text(circuit_from_poly(f).to_text())
    biv_path = tmp_path / "f2.ncc"

    def run(args):
        proc = subprocess.run([sys.executable, "-m", "ncfactor.cli", *args],
                              capture_output=True, text=True)
        assert proc.returncode == 0, (args, proc.stderr)
        return proc.stdout

    run(["embed", str(circ_path), "-o", str(biv_path)])
    commands = [
        ["words", "--n", "8", "--mode", "paper"],
        ["words", "--n", "8", "--mode", "compact"],
        ["embed", str(poly_path)],
        ["recover", str(biv_path), "--nvars", "2"],
        ["reduce", str(poly_path)],
        ["factor-dense", str(poly_path)],
        ["eval", str(circ_path), "--dim", "3", "--seed", "77"],
        ["quaternion-build", "--alpha", "9", "--beta", "5"],
        ["quaternion-zdiv2fact", "--alpha", "9", "--beta", "5", "--z", "3,-1,0,0"],
    ]
    for args in commands:
        first = run(args)
        second = run(args)
        assert first == second and first
    report(10, "CLI determinism (byte-identical reruns)")
