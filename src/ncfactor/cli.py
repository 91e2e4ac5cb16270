"""Command-line entry point.

Every subcommand is deterministic given its flags and input files, and
all output formats are canonical, so runs are byte-reproducible; that is
what the golden-file tests key on.  Domain failures (budgets,
preconditions) and answers that fail their own check exit 2 with a
single machine-parsable line `error: <code>: <detail>` on stderr;
malformed input files exit 1.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import sys

from ncfactor import textio
from ncfactor.automaton import (build_automaton, recover_abp, recover_circuit, recover_poly,
                                reduce_and_recover)
from ncfactor.circuits import Abp, Circuit, MatrixAssignment, circuit_from_poly, eval_word
from ncfactor.embedding import Embedding, phi_abp, phi_circuit, phi_poly
from ncfactor.errors import BudgetExceededError, FormatError, SoundnessError
from ncfactor.factoring import DEFAULT_BUDGET, complete_factorizations
from ncfactor.fields import QQ
from ncfactor.linmat import (FactorizationCert, LinearMatrix, factor_3x3,
                             Irreducible, product_linear, quaternion_linmat,
                             verify_cert, zdiv_to_factorization,
                             factorization_to_zdiv)
from ncfactor.matrix import Matrix
from ncfactor.ncpoly import X, Y, NcPoly
from ncfactor.quaternion import Quaternion
from ncfactor.words import enumerate_words


def _write_out(text, path):
    if path is None:
        sys.stdout.write(text)
        return
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError("cannot read %s: %s" % (path, exc)) from exc


def _load_any(path):
    return textio.read(_read(path), NcPoly, Circuit, Abp)


def _alpha_beta(args):
    return QQ.parse(args.alpha), QQ.parse(args.beta)


# letter bytes -> names on the bivariate alphabet; the newline byte maps to itself
_XY_NAMES = bytes.maketrans(bytes((X, Y)), b"xy")


def cmd_words(args):
    """One word a line, as `Alphabet.word_to_str` spells it: the words are
    nonempty, so none is "1", and all of them go through one translation."""
    ws = enumerate_words(args.n, args.mode)
    text = b"\n".join(map(bytes, ws)) + b"\n"
    _write_out(text.translate(_XY_NAMES).decode(), args.output)
    return 0


def cmd_embed(args):
    obj = _load_any(args.input)
    nvars = args.nvars if args.nvars is not None else obj.alphabet.size
    if nvars < obj.alphabet.size:
        raise FormatError("--nvars smaller than the input alphabet")
    embedding = Embedding.for_variables(nvars, args.mode)
    if isinstance(obj, NcPoly):
        out = phi_poly(obj, embedding).to_text()
    elif isinstance(obj, Circuit):
        out = phi_circuit(obj, embedding).to_text()
    else:
        out = phi_abp(obj, embedding).to_text()
    _write_out(out, args.output)
    return 0


def cmd_recover(args):
    obj = _load_any(args.input)
    automaton = build_automaton(enumerate_words(args.nvars, args.mode))
    if isinstance(obj, NcPoly):
        out = recover_poly(obj, automaton).to_text()
    elif isinstance(obj, Circuit):
        out = recover_circuit(obj, automaton).to_text()
    else:
        out = recover_abp(obj, automaton).to_text()
    _write_out(out, args.output)
    return 0


def cmd_reduce(args):
    obj = _load_any(args.input)
    if isinstance(obj, NcPoly):
        obj = circuit_from_poly(obj)
    embedding = Embedding.for_variables(obj.alphabet.size, args.mode)
    oracle = lambda poly: complete_factorizations(poly, args.budget)
    factors = reduce_and_recover(obj, embedding, oracle)
    lines = ["factors %d" % len(factors)]
    for i, factor in enumerate(factors, 1):
        lines.append("factor %d" % i)
        lines.append(factor.to_text().rstrip("\n"))
    _write_out("\n".join(lines) + "\n", args.output)
    return 0


def cmd_factor_dense(args):
    poly = NcPoly.from_text(_read(args.input))
    tree = complete_factorizations(poly, args.budget)
    lines = ["factorizations %d" % len(tree)]
    for i, (scalar, factors) in enumerate(tree, 1):
        lines.append("factorization %d scalar=%s" % (i, poly.field.format(scalar)))
        for j, factor in enumerate(factors, 1):
            lines.append("factor %d" % j)
            lines.append(factor.to_text().rstrip("\n"))
    _write_out("\n".join(lines) + "\n", args.output)
    return 0


def cmd_eval(args):
    obj = _load_any(args.input)
    rng = random.Random(args.seed)
    assignment = MatrixAssignment.random(obj.alphabet, obj.field, args.dim, rng)
    if isinstance(obj, NcPoly):
        value = Matrix.zeros(obj.field, args.dim, args.dim)
        for word, coeff in sorted(obj.terms.items()):
            value = value + eval_word(word, assignment).scale(coeff)
    else:
        value = obj.evaluate(assignment)
    out = "".join(" ".join(obj.field.format(x) for x in row) + "\n"
                  for row in value.rows)
    _write_out(out, args.output)
    return 0


def cmd_factor_linmat3(args):
    lin = LinearMatrix.from_text(_read(args.input))
    result = factor_3x3(lin)
    if isinstance(result, Irreducible):
        _write_out("irreducible %s\n" % result.reason, args.output)
        return 0
    _write_out(result.to_text(), args.output)
    return 0


def cmd_quaternion_build(args):
    lin = quaternion_linmat(*_alpha_beta(args))
    _write_out(lin.to_text(), args.output)
    return 0


def cmd_quaternion_zdiv2fact(args):
    alpha, beta = _alpha_beta(args)
    parts = args.z.split(",")
    if len(parts) != 4:
        raise FormatError("quaternion literal needs four comma-separated rationals")
    z = Quaternion(alpha, beta, tuple(QQ.parse(p.strip()) for p in parts))
    cert = zdiv_to_factorization(alpha, beta, z)
    _write_out(cert.to_text(), args.output)
    return 0


def cmd_quaternion_fact2zdiv(args):
    cert = FactorizationCert.from_text(_read(args.input))
    if len(cert.factors) < 2:
        raise FormatError("need at least two factors in the certificate")
    pinv = cert.p.inverse()
    qinv = cert.q.inverse()
    if pinv is None or qinv is None:
        raise FormatError("certificate P and Q must be invertible")
    front = product_linear(cert.factors[:-1])
    f = front.lmul(pinv)
    g = cert.factors[-1].rmul(qinv)
    z1, z2 = factorization_to_zdiv(*_alpha_beta(args), f, g)
    out = "z1 %s\nz2 %s\n" % (",".join(str(c) for c in z1.coords),
                              ",".join(str(c) for c in z2.coords))
    _write_out(out, args.output)
    return 0


def cmd_verify_cert(args):
    cert = FactorizationCert.from_text(_read(args.cert))
    lin = LinearMatrix.from_text(_read(args.linmat))
    if verify_cert(cert, lin):
        _write_out("ok\n", None)
        return 0
    _write_out("FAIL\n", None)
    return 2


def _add_io(p, output_only=False):
    if not output_only:
        p.add_argument("input", help="input file")
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")


@functools.lru_cache(maxsize=None)
def build_parser():
    parser = argparse.ArgumentParser(
        prog="ncfactor",
        description="noncommutative polynomial factorization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("words", help="print an embedding word set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("paper", "compact"), default="compact")
    _add_io(p, output_only=True)
    p.set_defaults(func=cmd_words)

    p = sub.add_parser("embed", help="embed a polynomial/circuit/ABP into two variables")
    p.add_argument("--mode", choices=("paper", "compact"), default="compact")
    p.add_argument("--nvars", type=int, default=None,
                   help="embedding width (default: the input alphabet size)")
    _add_io(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("recover", help="recover the preimage of an embedded circuit/ABP")
    p.add_argument("--nvars", type=int, required=True)
    p.add_argument("--mode", choices=("paper", "compact"), default="compact")
    _add_io(p)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("reduce", help="factor an n-variate input through the bivariate reduction")
    p.add_argument("--mode", choices=("paper", "compact"), default="compact")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    _add_io(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("factor-dense", help="all complete factorizations of a dense polynomial")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    _add_io(p)
    p.set_defaults(func=cmd_factor_dense)

    p = sub.add_parser("eval", help="evaluate at a seeded random matrix assignment")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    _add_io(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("factor-linmat3", help="factor a 3x3 linear matrix over Q")
    _add_io(p)
    p.set_defaults(func=cmd_factor_linmat3)

    p = sub.add_parser("quaternion-build", help="write the quaternion linear matrix")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    _add_io(p, output_only=True)
    p.set_defaults(func=cmd_quaternion_build)

    p = sub.add_parser("quaternion-zdiv2fact", help="zero divisor to factorization certificate")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--z", required=True, help="coordinates a0,a1,a2,a3")
    _add_io(p, output_only=True)
    p.set_defaults(func=cmd_quaternion_zdiv2fact)

    p = sub.add_parser("quaternion-fact2zdiv", help="factorization certificate to zero divisor")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    _add_io(p)
    p.set_defaults(func=cmd_quaternion_fact2zdiv)

    p = sub.add_parser("verify-cert", help="check a factorization certificate")
    p.add_argument("cert")
    p.add_argument("linmat")
    p.set_defaults(func=cmd_verify_cert)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print("error: format: %s" % exc, file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print("error: budget: %s" % exc, file=sys.stderr)
        return 2
    except SoundnessError as exc:
        print("error: soundness: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError, AssertionError) as exc:
        print("error: domain: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
