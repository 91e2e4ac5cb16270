from itertools import product

import pytest

from ncfactor import words
from ncfactor.errors import BudgetExceededError
from ncfactor.ncpoly import Alphabet, word_key
from ncfactor.words import (catalan, dyck_words, enumerate_words,
                            is_minimally_balanced, minimally_balanced_up_to,
                            paper_family_words)

AB = Alphabet.bivariate()


def w(text):
    return AB.word_from_str(text)


def all_words(length):
    return product((0, 1), repeat=length)


def brute_minimally_balanced(length):
    """Independent oracle: scan every word of the given length."""
    out = []
    for cand in all_words(length):
        run = 0
        ok = len(cand) > 0
        for i, c in enumerate(cand):
            run += 1 if c == 0 else -1
            if i < len(cand) - 1 and run <= 0:
                ok = False
                break
        if ok and run == 0:
            out.append(cand)
    return sorted(out, key=word_key)


def test_is_minimally_balanced_examples():
    assert is_minimally_balanced(w("xy"))
    assert not is_minimally_balanced(w("xyxy"))  # prefix xy already balanced
    assert is_minimally_balanced(w("xxyy"))
    assert not is_minimally_balanced(())
    assert not is_minimally_balanced(w("xx"))
    assert not is_minimally_balanced(w("yx"))


def test_is_minimally_balanced_matches_brute_force():
    for length in range(1, 11):
        brute = set(brute_minimally_balanced(length))
        for cand in all_words(length):
            assert is_minimally_balanced(cand) == (cand in brute)


def test_enumerate_compact_examples():
    assert [AB.word_to_str(v) for v in enumerate_words(2, "compact")] == ["xy", "xxyy"]
    # derived by exhaustive scan of words of length <= 6
    expected = brute_minimally_balanced(2) + brute_minimally_balanced(4) + \
        brute_minimally_balanced(6)
    assert list(enumerate_words(4, "compact").words) == expected[:4]
    assert [AB.word_to_str(v) for v in enumerate_words(4, "compact")] == [
        "xy", "xxyy", "xxyxyy", "xxxyyy"]


def test_enumerate_paper_mode():
    ws = enumerate_words(1, "paper")
    assert len(ws.words) == 1
    v = ws.words[0]
    assert len(v) == 14  # l = max(ceil(log2 4), 7) = 7
    assert v[:2] == (0, 0) and v[-2:] == (1, 1)
    for n in (2, 5, 16, 64):
        ws = enumerate_words(n, "paper")
        lengths = {len(u) for u in ws.words}
        assert len(lengths) == 1
        assert all(is_minimally_balanced(u) for u in ws.words)
        assert len(set(ws.words)) == n


def test_paper_mode_words_ascending():
    ws = enumerate_words(8, "paper")
    keys = [word_key(u) for u in ws.words]
    assert keys == sorted(keys)


def test_catalan_values():
    assert catalan(0) == 1
    assert [catalan(k) for k in range(1, 6)] == [1, 2, 5, 14, 42]
    assert catalan(5) == 42 and 42 > 2 ** 5
    # number of Dyck words of length 6, by exhaustive enumeration
    assert catalan(3) == len(list(dyck_words(3))) == 5


def test_catalan_exceeds_powers_of_two():
    for k in range(5, 13):
        assert catalan(k) > 2 ** k


def test_count_laws_by_exhaustive_enumeration():
    for ell in range(2, 7):
        assert len(brute_minimally_balanced(2 * ell)) == catalan(ell - 1)
        assert len(list(paper_family_words(2 * ell))) == (
            catalan(ell - 2) if ell >= 2 else 0)


def test_dyck_generator_sorted_and_valid():
    for m in range(0, 8):
        words = list(dyck_words(m))
        assert len(words) == len(set(words)) == catalan(m)
        keys = [word_key(d) for d in words]
        assert keys == sorted(keys)
        for d in words:
            run = 0
            for c in d:
                run += 1 if c == 0 else -1
                assert run >= 0
            assert run == 0


def test_wordset_prefix_free():
    for n, mode in ((6, "compact"), (6, "paper")):
        ws = enumerate_words(n, mode)
        for i, a in enumerate(ws.words):
            for j, b in enumerate(ws.words):
                if i != j and len(a) <= len(b):
                    assert b[:len(a)] != a


def test_wordset_validation():
    with pytest.raises(ValueError):
        enumerate_words(0, "compact")
    with pytest.raises(ValueError):
        enumerate_words(3, "fancy")


def test_minimally_balanced_up_to():
    words = minimally_balanced_up_to(6)
    assert words == brute_minimally_balanced(2) + brute_minimally_balanced(4) + \
        brute_minimally_balanced(6)


@pytest.mark.parametrize("mode", ["compact", "paper"])
def test_enumerate_words_refuses_more_than_the_limit(monkeypatch, mode):
    monkeypatch.setattr(words, "WORDS_MAX", 5)
    assert len(enumerate_words(5, mode)) == 5
    with pytest.raises(BudgetExceededError):
        enumerate_words(6, mode)
