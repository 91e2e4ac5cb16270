"""Answer-guarding checks raise SoundnessError, also under `python -O`."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from ncfactor import automaton, cli, factoring, linmat, words
from ncfactor.automaton import build_automaton
from ncfactor.circuits import circuit_from_poly
from ncfactor.errors import SoundnessError
from ncfactor.factoring import complete_factorizations, left_factors
from ncfactor.fields import GF2, QQ
from ncfactor.linmat import LinearMatrix, factor_3x3
from ncfactor.matrix import Matrix
from ncfactor.ncpoly import Alphabet, NcPoly
from ncfactor.words import WordSet, enumerate_words

ROOT = Path(__file__).resolve().parents[1]

# I + A x with A block-lower-triangular: the certificate for it carries a
# unipotent factor [[I,0],[D,I]] with D != 0.
SPLIT = LinearMatrix([Matrix.identity(QQ, 3),
                      Matrix.from_ints(QQ, [[1, 0, 0], [0, 2, 0], [1, 1, 3]])])


def _unip_without_coefficients(ds, d, k):
    return LinearMatrix([Matrix.identity(QQ, d)] + [Matrix.zeros(QQ, d, d) for _ in ds])


def test_corrupted_certificate_raises_soundness_error(monkeypatch):
    factor_3x3(SPLIT)
    monkeypatch.setattr(linmat, "_unip_factor", _unip_without_coefficients)
    with pytest.raises(SoundnessError):
        factor_3x3(SPLIT)


def test_missed_rational_root_raises_soundness_error(monkeypatch):
    """A cubic charpoly found without rational roots is searched again
    by bisection.  SPLIT's coefficient has the roots 1, 2 and 3, so a
    root finder that misses them ends in SoundnessError, not in the
    verdict charpoly-irreducible."""
    assert factor_3x3(SPLIT).nontrivial_count() >= 2
    monkeypatch.setattr(linmat, "integer_roots", lambda coeffs: [])
    with pytest.raises(SoundnessError):
        factor_3x3(SPLIT)


def test_cli_reports_soundness_error_with_exit_2(monkeypatch, tmp_path, capsys):
    path = tmp_path / "split.lm"
    path.write_text(SPLIT.to_text())
    monkeypatch.setattr(linmat, "_unip_factor", _unip_without_coefficients)
    assert cli.main(["factor-linmat3", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: soundness:")


X = NcPoly.variable(Alphabet.bivariate(), GF2, 0)
XY = X * NcPoly.variable(Alphabet.bivariate(), GF2, 1)


def _plus_one(divide):
    """`divide` with 1 added to its quotient: still monic of the same
    degree, but no longer a factor."""
    def wrong(f, g):
        q = divide(f, g)
        return None if q is None else q + NcPoly.one(q.alphabet, q.field)
    return wrong


def _plus_one_terms(divide):
    """The dict-level `divide` with 1 added to its int quotient mod p."""
    def wrong(f, g, left, p):
        q = divide(f, g, left, p)
        if q is not None:
            q[()] = (q.get((), 0) + 1) % p
        return q
    return wrong


def test_oracle_left_factor_check_raises_soundness_error(monkeypatch):
    assert left_factors(XY, 1) == [X]
    monkeypatch.setattr(factoring, "_divide_terms", _plus_one_terms(factoring._divide_terms))
    with pytest.raises(SoundnessError):
        left_factors(XY, 1)


def test_oracle_multiply_back_raises_soundness_error(monkeypatch):
    assert len(complete_factorizations(XY)) == 1
    monkeypatch.setattr(factoring, "left_divide", _plus_one(factoring.left_divide))
    with pytest.raises(SoundnessError):
        complete_factorizations(XY)


def test_cli_reports_oracle_soundness_error_with_exit_2(monkeypatch, tmp_path, capsys):
    path = tmp_path / "xy.poly"
    path.write_text(XY.to_text())
    monkeypatch.setattr(factoring, "_divide_terms", _plus_one_terms(factoring._divide_terms))
    assert cli.main(["factor-dense", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: soundness:")


def test_automaton_guards_raise_soundness_error(monkeypatch):
    """Word sets that no enumeration produces break the automaton's
    invariants: the checks must name them, not build a wrong automaton."""
    bi = Alphabet.bivariate()
    shared_middle = WordSet([bi.word_from_str("xxyy"), bi.word_from_str("yxyx")], "compact")
    with pytest.raises(SoundnessError):
        build_automaton(shared_middle)
    y_past_accept = WordSet([bi.word_from_str("xy"), bi.word_from_str("xyxy")], "compact")
    with pytest.raises(SoundnessError):
        build_automaton(y_past_accept)
    monkeypatch.setattr(words, "catalan", lambda k: 0)
    with pytest.raises(SoundnessError):
        enumerate_words(1, "paper")


def _recover_as(polys):
    """A `recover_circuit` that returns circuits for `polys`, one per call."""
    polys = iter(polys)
    return lambda circuit, automaton: circuit_from_poly(next(polys))


def test_reduce_checks_the_recovered_factors(monkeypatch, tmp_path, capsys):
    """x1*x2 + x1 = x1*(x2 + 1) over F2.  Recovered factors that do not
    multiply back, or a nonconstant factor recovered as a constant (even
    with the product right), end in exit 2."""
    ab2 = Alphabet.nvars(2)
    x1, x2, one = NcPoly.variable(ab2, GF2, 0), NcPoly.variable(ab2, GF2, 1), NcPoly.one(ab2, GF2)
    f = x1 * x2 + x1
    path = tmp_path / "f.poly"
    path.write_text(f.to_text())
    assert cli.main(["reduce", str(path)]) == 0
    capsys.readouterr()
    for recovered in ([x1 + one, x2 + one], [one, f]):
        monkeypatch.setattr(automaton, "recover_circuit", _recover_as(recovered))
        assert cli.main(["reduce", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: soundness:")


def test_answer_checks_survive_python_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_acceptance.py::test_criterion_8_factor_3x3",
         "tests/test_acceptance.py::test_criterion_9_quaternion_gadget",
         "tests/test_linmat.py::test_verify_cert_tracks_scales",
         "tests/test_linmat.py::test_linmat_outputs_are_pinned",
         "tests/test_linmat.py::test_eigen_search_outputs_are_pinned",
         "tests/test_soundness.py::test_corrupted_certificate_raises_soundness_error",
         "tests/test_soundness.py::test_missed_rational_root_raises_soundness_error",
         "tests/test_soundness.py::test_cli_reports_soundness_error_with_exit_2",
         "tests/test_soundness.py::test_oracle_left_factor_check_raises_soundness_error",
         "tests/test_soundness.py::test_oracle_multiply_back_raises_soundness_error",
         "tests/test_soundness.py::test_cli_reports_oracle_soundness_error_with_exit_2",
         "tests/test_soundness.py::test_automaton_guards_raise_soundness_error",
         "tests/test_soundness.py::test_reduce_checks_the_recovered_factors",
         "tests/test_matrix.py::test_matrix_ops_match_naive_reference",
         "tests/test_matrix.py::test_integer_roots_keeps_only_exact_roots",
         "tests/test_circuits.py::test_circuit_reader_matches_reference",
         "tests/test_automaton.py::test_recover_circuit_matches_reference",
         "tests/test_factoring.py::test_top_component_filter_keeps_every_answer"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "19 passed" in proc.stdout
