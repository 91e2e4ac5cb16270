import hashlib
import random
import subprocess
import sys
from pathlib import Path

import pytest

from ncfactor import cli
from ncfactor.circuits import Circuit, circuit_from_poly
from ncfactor.fields import GF2, QQ, PrimeField
from ncfactor.ncpoly import Alphabet, NcPoly

AB = Alphabet.bivariate()


def run_cli(args, cwd=None, timeout=None):
    proc = subprocess.run([sys.executable, "-m", "ncfactor.cli", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


def test_words_compact():
    code, out, err = run_cli(["words", "--n", "4", "--mode", "compact"])
    assert code == 0 and err == ""
    assert out == "xy\nxxyy\nxxyxyy\nxxxyyy\n"


def test_words_paper():
    code, out, _ = run_cli(["words", "--n", "2", "--mode", "paper"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert all(len(w) == 14 for w in lines)


def test_factor_dense_non_ufd(tmp_path):
    x = NcPoly.variable(AB, GF2, 0)
    y = NcPoly.variable(AB, GF2, 1)
    f = x + x * y * x
    path = tmp_path / "f.poly"
    path.write_text(f.to_text())
    code, out, _ = run_cli(["factor-dense", str(path)])
    assert code == 0
    assert out.startswith("factorizations 2\n")
    assert out.count("factorization ") == 2


def test_reduce_pipeline(tmp_path):
    ab2 = Alphabet.nvars(2)
    x1 = NcPoly.variable(ab2, GF2, 0)
    x2 = NcPoly.variable(ab2, GF2, 1)
    path = tmp_path / "g.poly"
    path.write_text((x1 * x2 + x1).to_text())
    code, out, _ = run_cli(["reduce", str(path)])
    assert code == 0
    assert out.splitlines()[0] == "factors 2"
    assert "1 x1" in out and "1 x2" in out


def test_reduce_expands_each_recovered_factor_once(tmp_path, capsys, monkeypatch):
    """One `reduce` of x1*x2 + x1 over F2 expands the bivariate image, the
    input for the end-to-end check and each of the two recovered factors
    once; the printed factors are the check's expansions."""
    ab2 = Alphabet.nvars(2)
    x1 = NcPoly.variable(ab2, GF2, 0)
    x2 = NcPoly.variable(ab2, GF2, 1)
    path = tmp_path / "g.poly"
    path.write_text((x1 * x2 + x1).to_text())
    calls = []
    expand = Circuit.expand

    def counted(self, *args, **kwargs):
        calls.append(self.alphabet)
        return expand(self, *args, **kwargs)

    monkeypatch.setattr(Circuit, "expand", counted)
    assert cli.main(["reduce", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "factors 2"
    assert calls.count(AB) == 1 and calls.count(ab2) == 3


def test_embed_recover_round_trip(tmp_path):
    ab2 = Alphabet.nvars(2)
    f = NcPoly(ab2, QQ, [((0, 1), QQ.one), ((), QQ.from_int(3))])
    circ = tmp_path / "f.ncc"
    circ.write_text(circuit_from_poly(f).to_text())
    emb = tmp_path / "emb.ncc"
    code, _, _ = run_cli(["embed", str(circ), "-o", str(emb)])
    assert code == 0
    back = tmp_path / "back.ncc"
    code, _, _ = run_cli(["recover", str(emb), "--nvars", "2", "-o", str(back)])
    assert code == 0
    code1, out1, _ = run_cli(["eval", str(circ), "--dim", "2", "--seed", "9"])
    code2, out2, _ = run_cli(["eval", str(back), "--dim", "2", "--seed", "9"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_quaternion_pipeline(tmp_path):
    lm = tmp_path / "L.lm"
    code, _, _ = run_cli(["quaternion-build", "--alpha", "1", "--beta", "1",
                          "-o", str(lm)])
    assert code == 0
    cert = tmp_path / "c.cert"
    code, _, _ = run_cli(["quaternion-zdiv2fact", "--alpha", "1", "--beta", "1",
                          "--z", "1,-1,0,0", "-o", str(cert)])
    assert code == 0
    code, out, _ = run_cli(["verify-cert", str(cert), str(lm)])
    assert code == 0 and out == "ok\n"
    code, out, _ = run_cli(["quaternion-fact2zdiv", "--alpha", "1", "--beta", "1",
                            str(cert)])
    assert code == 0
    assert out.startswith("z1 ") and "z2 " in out


def test_factor_linmat3(tmp_path):
    lm = tmp_path / "companion.lm"
    lm.write_text("linmat d=3 n=1 field=Q\n"
                  "1 0 0\n0 1 0\n0 0 1\n"
                  "0 0 2\n1 0 0\n0 1 0\n")
    code, out, _ = run_cli(["factor-linmat3", str(lm)])
    assert code == 0
    assert out == "irreducible charpoly-irreducible\n"

    scal = tmp_path / "scalar.lm"
    scal.write_text("linmat d=3 n=1 field=Q\n"
                    "1 0 0\n0 1 0\n0 0 1\n"
                    "2 0 0\n0 2 0\n0 0 2\n")
    cert_path = tmp_path / "scalar.cert"
    code, _, _ = run_cli(["factor-linmat3", str(scal), "-o", str(cert_path)])
    assert code == 0
    code, out, _ = run_cli(["verify-cert", str(cert_path), str(scal)])
    assert code == 0 and out == "ok\n"


def _factor_large_entry(tmp_path, a):
    """factor-linmat3 on I + A x, A = [[a,0,0],[1,2,0],[0,0,3]], whose
    charpoly has the constant 6a."""
    lm = tmp_path / "large.lm"
    lm.write_text("linmat d=3 n=1 field=Q\n1 0 0\n0 1 0\n0 0 1\n"
                  "%d 0 0\n1 2 0\n0 0 3\n" % a)
    return run_cli(["factor-linmat3", str(lm)], timeout=20)


def test_factor_linmat3_large_entry_within_the_trial_limit(tmp_path):
    code, out, err = _factor_large_entry(tmp_path, 10 ** 12 + 39)
    ident = "1 0 0\n0 1 0\n0 0 1\n"
    assert code == 0 and err == ""
    assert out == ("cert d=3 n=1 field=Q\nP\n" + ident + "Q\n" + ident
                   + "factor unit=0\n" + ident + "1000000000039 0 0\n0 0 0\n0 0 0\n"
                   + "factor unit=1\n" + ident + "0 0 0\n1 0 0\n0 0 0\n"
                   + "factor unit=0\n" + ident + "0 0 0\n0 2 0\n0 0 0\n"
                   + "factor unit=0\n" + ident + "0 0 0\n0 0 0\n0 0 3\n")


def test_factor_linmat3_21_digit_entry_factors_and_verifies(tmp_path):
    """Far past where trial division of 6a gives out, the eigenvalue
    10^20 + 39 is found, and verify-cert accepts the certificate."""
    code, out, err = _factor_large_entry(tmp_path, 10 ** 20 + 39)
    ident = "1 0 0\n0 1 0\n0 0 1\n"
    assert code == 0 and err == ""
    assert out == ("cert d=3 n=1 field=Q\nP\n" + ident + "Q\n" + ident
                   + "factor unit=0\n" + ident + "100000000000000000039 0 0\n0 0 0\n0 0 0\n"
                   + "factor unit=1\n" + ident + "0 0 0\n1 0 0\n0 0 0\n"
                   + "factor unit=0\n" + ident + "0 0 0\n0 2 0\n0 0 0\n"
                   + "factor unit=0\n" + ident + "0 0 0\n0 0 0\n0 0 3\n")
    cert = tmp_path / "large.cert"
    cert.write_text(out)
    code, out, _ = run_cli(["verify-cert", str(cert), str(tmp_path / "large.lm")])
    assert code == 0 and out == "ok\n"


def test_determinism_byte_identical(tmp_path):
    ab2 = Alphabet.nvars(2)
    f = NcPoly(ab2, GF2, [((0, 1), GF2.one), ((0,), GF2.one)])
    path = tmp_path / "f.poly"
    path.write_text(f.to_text())
    commands = [
        ["words", "--n", "6", "--mode", "paper"],
        ["reduce", str(path)],
        ["eval", str(path), "--dim", "3", "--seed", "123"],
        ["quaternion-build", "--alpha", "4", "--beta", "3"],
        ["quaternion-zdiv2fact", "--alpha", "4", "--beta", "3", "--z", "2,-1,0,0"],
    ]
    for args in commands:
        code1, out1, _ = run_cli(args)
        code2, out2, _ = run_cli(args)
        assert code1 == code2 == 0
        assert out1 == out2 and out1


def test_embed_recover_abp_round_trip(tmp_path):
    from ncfactor.circuits import Abp

    ab2 = Alphabet.nvars(2)
    lbl1 = NcPoly(ab2, QQ, [((0,), QQ.one), ((), QQ.from_int(2))])
    lbl2 = NcPoly(ab2, QQ, [((1,), QQ.one)])
    p = Abp(ab2, QQ, (1, 2, 1), [{(0, 0): lbl1, (0, 1): lbl2},
                                 {(0, 0): lbl2, (1, 0): lbl1}])
    src = tmp_path / "p.ncabp"
    src.write_text(p.to_text())
    emb = tmp_path / "p_emb.ncabp"
    code, _, err = run_cli(["embed", str(src), "-o", str(emb)])
    assert code == 0, err
    back = tmp_path / "p_back.ncabp"
    code, _, err = run_cli(["recover", str(emb), "--nvars", "2", "-o", str(back)])
    assert code == 0, err
    code1, out1, _ = run_cli(["eval", str(src), "--dim", "2", "--seed", "11"])
    code2, out2, _ = run_cli(["eval", str(back), "--dim", "2", "--seed", "11"])
    assert code1 == code2 == 0 and out1 == out2


def test_embed_nvars_override(tmp_path):
    f = NcPoly.variable(Alphabet.nvars(1), QQ, 0)
    path = tmp_path / "x.poly"
    path.write_text(f.to_text())
    code, narrow, _ = run_cli(["embed", str(path)])
    assert code == 0
    code, wide, _ = run_cli(["embed", str(path), "--nvars", "3"])
    assert code == 0
    assert narrow == wide  # x1's image only depends on the first word
    code, _, err = run_cli(["embed", str(path), "--nvars", "0"])
    assert code == 1 and err.startswith("error: format:")


def test_error_exit_codes(tmp_path):
    bad = tmp_path / "bad.poly"
    bad.write_text("garbage\n")
    code, out, err = run_cli(["factor-dense", str(bad)])
    assert code == 1
    assert err.startswith("error: format:")

    qpoly = tmp_path / "q.poly"
    qpoly.write_text(NcPoly.variable(AB, QQ, 0).to_text())
    code, _, err = run_cli(["factor-dense", str(qpoly)])
    assert code == 2
    assert err.startswith("error: domain:")

    f2 = tmp_path / "deep.poly"
    x = NcPoly.variable(AB, GF2, 0)
    y = NcPoly.variable(AB, GF2, 1)
    f = x
    for _ in range(5):
        f = f * (y * x + NcPoly.one(AB, GF2))
    f2.write_text(f.to_text())
    code, _, err = run_cli(["factor-dense", str(f2), "--budget", "4"])
    assert code == 2
    assert err.startswith("error: budget:")


@pytest.mark.parametrize("terms, factors", [
    ("1 x1.x2\n1 x2.x1\n", 1),
    ("1 x1.x1.x2\n1 x1.x2.x1\n1 x2.x1.x2\n1 x2.x2.x1\n", 2)])
def test_reduce_paper_mode_factors_homogeneous_images(tmp_path, terms, factors):
    """x1x2 + x2x1 and (x1 + x2)(x1x2 + x2x1) over F2 have paper-mode
    images of degree 28 and 42.  A search there reads at most
    min(k, d - k) prefix coefficients and visits only the words the image
    can reach, so both fit the default budget and factor as in compact
    mode."""
    path = tmp_path / "homog.poly"
    path.write_text("ncpoly field=F2 alphabet=x1..x2\n" + terms)
    paper = run_cli(["reduce", "--mode", "paper", str(path)], timeout=60)
    assert paper == run_cli(["reduce", str(path)], timeout=60)
    assert paper[0] == 0 and paper[1].startswith("factors %d\n" % factors)


def _dense_product(rng, alphabet, field, degrees, nterms):
    """A product of random polynomials of the given degrees, each with a
    full-degree leading word and up to nterms lower terms."""
    f = NcPoly.one(alphabet, field)
    for deg in degrees:
        terms = [(tuple(rng.randrange(alphabet.size) for _ in range(deg)),
                  field.from_int(rng.randrange(1, field.p)))]
        for _ in range(nterms):
            terms.append((tuple(rng.randrange(alphabet.size) for _ in range(rng.randrange(deg))),
                          field.from_int(rng.randrange(1, field.p))))
        f = f * NcPoly(alphabet, field, terms)
    return f


ORACLE_PINS = {
    "factor-dense": "adb1dc12caba91881c5ee4161d9a2d8f54e5ba6061a0e000dbafcaf440eb18bb",
    "reduce": "86719bfe76cc292c0955e6f5f949955650891b25ce94dd082371cb2362954ad5",
}


@pytest.mark.parametrize("command", sorted(ORACLE_PINS))
def test_oracle_cli_output_is_pinned(tmp_path, command):
    """The F_p oracle's answers, byte for byte, as the CLI prints them:
    factor-dense on 30 bivariate products over F2, F3 and F5, and reduce
    on 12 products over F2 in one and two variables."""
    rng = random.Random(1313)
    if command == "factor-dense":
        cases = [(AB, PrimeField(p), degrees, nterms)
                 for p, degrees, nterms in ((2, (3, 3), 4), (3, (3, 2), 3), (5, (2, 2), 3))
                 for _ in range(10)]
    else:
        cases = [(Alphabet.nvars(n), GF2, degrees, 2)
                 for n, degrees in ((1, (1, 2)), (2, (1, 1))) for _ in range(6)]
    digest = hashlib.sha256()
    for i, (alphabet, field, degrees, nterms) in enumerate(cases):
        src, out = tmp_path / ("%d.poly" % i), tmp_path / ("%d.txt" % i)
        src.write_text(_dense_product(rng, alphabet, field, degrees, nterms).to_text())
        assert cli.main([command, str(src), "-o", str(out)]) == 0
        digest.update(out.read_bytes())
    assert digest.hexdigest() == ORACLE_PINS[command]


GOLDEN = Path(__file__).parent / "golden"
CERT_LINES = (GOLDEN / "zdiv2fact_9_5.txt").read_text().splitlines(keepends=True)
NCC = "ncc field=Q alphabet=x1..x2\n"
ABP = "ncabp field=Q alphabet=x1..x2 layers=3\n"
EVAL = ["eval", "{}", "--dim", "1", "--seed", "0"]
VERIFY = ["verify-cert", "{}", str(GOLDEN / "quaternion_build_9_5.txt")]

# Each file is malformed; "{}" in the arguments stands for its path.
MALFORMED_FILES = [
    ("var-without-operand", NCC + "g0 = VAR\noutput g0\n", EVAL),
    ("add-with-one-operand", NCC + "g0 = VAR x1\ng1 = ADD g0\noutput g1\n", EVAL),
    ("abp-edge-without-label", ABP + "layer 0\nedge 0 0\n", EVAL),
    ("cert-cut-after-P", "".join(CERT_LINES[:2]), VERIFY),
    ("cert-cut-after-factor-line", "".join(CERT_LINES[:12]), VERIFY),
    ("header-token-without-equals", "ncpoly field=Q alphabet\n1 x\n", EVAL),
    ("layer-not-a-number", ABP + "layer a\n", EVAL),
    ("linmat-entry-not-a-number", "linmat d=1 n=1 field=Q\n1\nx\n", ["factor-linmat3", "{}"]),
    ("gate-forward-reference", NCC + "g0 = VAR x1\ng1 = ADD g0 g5\noutput g1\n", EVAL),
    ("output-past-last-gate", NCC + "g0 = VAR x1\noutput g7\n", EVAL),
    ("abp-edge-past-sink", ABP + "layer 0\nedge 0 0 1*x1\nlayer 1\nedge 0 3 1*x2\n", EVAL),
    ("cert-unit-flag-not-0-or-1",
     "".join(CERT_LINES).replace("factor unit=0", "factor unit=2", 1), VERIFY),
    ("cert-field-not-Q", "".join(CERT_LINES).replace("field=Q", "field=F7", 1), VERIFY),
]

BAD_LITERALS = [
    ("alpha-not-rational", ["quaternion-build", "--alpha", "foo", "--beta", "1"]),
    ("z-not-rational", ["quaternion-zdiv2fact", "--alpha", "1", "--beta", "1",
                        "--z", "1,x,0,0"]),
]


@pytest.mark.parametrize("text,args", [c[1:] for c in MALFORMED_FILES],
                         ids=[c[0] for c in MALFORMED_FILES])
def test_malformed_file_exits_1(tmp_path, capsys, text, args):
    path = tmp_path / "input.txt"
    path.write_text(text)
    code = cli.main([a.format(path) for a in args])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: format:")


@pytest.mark.parametrize("args", [c[1] for c in BAD_LITERALS],
                         ids=[c[0] for c in BAD_LITERALS])
def test_malformed_literal_exits_1(capsys, args):
    assert cli.main(args) == 1
    assert capsys.readouterr().err.startswith("error: format:")


def test_zero_alpha_is_a_domain_error(capsys):
    assert cli.main(["quaternion-build", "--alpha", "0", "--beta", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: domain:")


def test_parsed_values_do_not_leak_between_calls(tmp_path, capsys, monkeypatch):
    """main reuses one parser per process; a flag given to one call must
    not become the default of the next."""
    ab2 = Alphabet.nvars(2)
    x1 = NcPoly.variable(ab2, GF2, 0)
    x2 = NcPoly.variable(ab2, GF2, 1)
    path = tmp_path / "g.poly"
    path.write_text((x1 * x2 + x1).to_text())
    budgets = []
    real = cli.complete_factorizations

    def spy(poly, budget):
        budgets.append(budget)
        return real(poly, budget)

    monkeypatch.setattr(cli, "complete_factorizations", spy)
    assert cli.main(["reduce", "--budget", "5", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: budget:")
    assert cli.main(["reduce", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "factors 2"
    assert budgets[0] == 5 and set(budgets[1:]) == {cli.DEFAULT_BUDGET}
    assert cli.build_parser() is cli.build_parser()


# `recover` reads only the letters x and y: any other alphabet is well
# formed but has no preimage, so it is a domain error.
NON_BIVARIATE = [
    ("circuit-x1..x3", "ncc field=Q alphabet=x1..x3\ng0 = VAR x3\noutput g0\n"),
    ("circuit-x1..x2", (GOLDEN / "inputs" / "f.ncc").read_text()),
    ("abp-x1..x3", "ncabp field=Q alphabet=x1..x3 layers=2\nlayer 0\nedge 0 0 1 + 2*x3 + 1*x1\n"),
]


@pytest.mark.parametrize("text", [c[1] for c in NON_BIVARIATE], ids=[c[0] for c in NON_BIVARIATE])
def test_recover_refuses_non_bivariate_input(tmp_path, capsys, text):
    path = tmp_path / "input.txt"
    path.write_text(text)
    assert cli.main(["recover", str(path), "--nvars", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: domain:")


@pytest.mark.parametrize("mode", ["compact", "paper"])
def test_reduce_of_an_abp_equals_reduce_of_its_expansion(tmp_path, capsys, mode):
    """(x1 + 1)*x2 over F2 as a two-path ABP: reduce embeds it by
    phi_abp and prints what it prints for the expanded polynomial."""
    from ncfactor.circuits import Abp

    ab2 = Alphabet.nvars(2)
    x1, x2 = NcPoly.variable(ab2, GF2, 0), NcPoly.variable(ab2, GF2, 1)
    one = NcPoly.one(ab2, GF2)
    p = Abp(ab2, GF2, (1, 2, 1), [{(0, 0): x1, (0, 1): one}, {(0, 0): x2, (1, 0): x2}])
    abp, poly = tmp_path / "p.ncabp", tmp_path / "p.poly"
    abp.write_text(p.to_text())
    poly.write_text(p.expand().to_text())
    outs = []
    for path in (abp, poly):
        assert cli.main(["reduce", "--mode", mode, str(path)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert outs[0].startswith("factors 2\n")


def test_reduce_prints_factors_over_the_input_alphabet(tmp_path, capsys):
    """xy + y = (x + 1)*y over F2: a file over xy gets its factors over xy."""
    path = tmp_path / "xy.poly"
    path.write_text("ncpoly field=F2 alphabet=xy\n1 xy\n1 y\n")
    assert cli.main(["reduce", str(path)]) == 0
    assert capsys.readouterr().out == (
        "factors 2\n"
        "factor 1\nncpoly field=F2 alphabet=xy\n1 x\n1 1\n"
        "factor 2\nncpoly field=F2 alphabet=xy\n1 y\n")
