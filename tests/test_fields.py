import random
from fractions import Fraction

import pytest

from ncfactor.errors import FormatError
from ncfactor.fields import GF2, GF3, PrimeField, PrimeFieldElement, QQ, field_spec, parse_field


def test_rational_canonical_form():
    assert QQ.parse("6/4") == Fraction(3, 2)
    assert QQ.parse("-10/4") == Fraction(-5, 2)
    assert QQ.format(Fraction(-5, 2)) == "-5/2"
    assert QQ.format(Fraction(7)) == "7"


def test_prime_field_basics():
    a = PrimeFieldElement(7, 5)
    assert a == 2
    assert (a + PrimeFieldElement(4, 5)) == 1
    assert (a * PrimeFieldElement(3, 5)) == 1
    assert (PrimeFieldElement(1, 5) / PrimeFieldElement(3, 5)) == 2  # 3*2 = 6 = 1 mod 5
    assert -PrimeFieldElement(2, 5) == 3
    assert bool(PrimeFieldElement(0, 5)) is False


def test_prime_field_elements_are_residues():
    """Over F_p an element is the int in [0, p): `from_int` and `parse`
    reduce, and `format` writes the residue."""
    five = PrimeField(5)
    assert (five.zero, five.one) == (0, 1)
    for k in (-11, -5, -1, 0, 1, 4, 5, 7, 10 ** 20 + 3):
        x = five.from_int(k)
        assert type(x) is int and x == k % 5
        y = five.parse(str(k))
        assert type(y) is int and y == k % 5
        assert five.format(x) == str(k % 5)
    assert five.format(five.parse("-1")) == "4"
    with pytest.raises(FormatError):
        five.parse("1/2")


def test_prime_field_rejects_bad_modulus():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1 << 32)


def test_mixed_prime_fields_rejected():
    with pytest.raises(ValueError):
        PrimeFieldElement(1, 2) + PrimeFieldElement(1, 3)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        PrimeFieldElement(1, 3) / PrimeFieldElement(0, 3)


@pytest.mark.parametrize("field", [QQ, GF2, GF3, PrimeField(101)])
def test_field_axioms_on_random_triples(field):
    rng = random.Random(2024)
    for _ in range(50):
        if field is QQ:
            a, b, c = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
        else:
            a, b, c = (PrimeFieldElement(rng.randrange(100), field.p) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + field.zero == a
        assert a * field.one == a
        if a != field.zero:
            assert a * (field.one / a) == field.one


def test_field_spec_round_trip():
    for field in (QQ, GF2, GF3, PrimeField(7)):
        assert parse_field(field_spec(field)) == field
    assert field_spec(PrimeField(7)) == "Fp:7"
    with pytest.raises(FormatError):
        parse_field("R")
