import random
from fractions import Fraction

import pytest

from ncfactor.errors import FormatError
from ncfactor.fields import GF2, GF3, PrimeField, QQ, field_spec, parse_field


def test_rational_canonical_form():
    assert QQ.parse("6/4") == Fraction(3, 2)
    assert QQ.parse("-10/4") == Fraction(-5, 2)
    assert QQ.format(Fraction(-5, 2)) == "-5/2"
    assert QQ.format(Fraction(7)) == "7"


def test_prime_field_basics():
    five = PrimeField(5)
    a = five.from_int(7)
    assert a == 2
    assert (a + five.from_int(4)) == 1
    assert (a * five.from_int(3)) == 1
    assert (five.one / five.from_int(3)) == 2  # 3*2 = 6 = 1 mod 5
    assert -five.from_int(2) == 3
    assert bool(five.zero) is False


def test_prime_field_rejects_bad_modulus():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1 << 32)


def test_mixed_prime_fields_rejected():
    with pytest.raises(ValueError):
        GF2.one + GF3.one


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GF3.one / GF3.zero


@pytest.mark.parametrize("field", [QQ, GF2, GF3, PrimeField(101)])
def test_field_axioms_on_random_triples(field):
    rng = random.Random(2024)
    for _ in range(50):
        if field is QQ:
            a, b, c = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
        else:
            a, b, c = (field.from_int(rng.randrange(100)) for _ in range(3))
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
