"""Presentation grammar and free-word utilities."""

import pytest
from hypothesis import given, settings, strategies as st

from qrlab.errors import ParseError
from qrlab.presentation import (
    exponent_vector,
    free_reduce,
    is_prime,
    parse_presentation,
    word_text,
)

ROUND_TRIP = [
    "gens: a; relators: a^2; prime: 2",
    "gens: a, b; relators: a^2*b^-2, b*a*b^-1*a; prime: 2",
    "gens: a, b; relators: a^4, b^2, b*a*b*a; prime: 2",
    "gens: x, y, z; relators: x*y*z^-1, z^3; prime: 3",
    "gens: a; relators: a^6; prime: 2, 3",
]


@pytest.mark.parametrize("text", ROUND_TRIP)
def test_round_trip(text):
    pres = parse_presentation(text)
    again = parse_presentation(pres.text())
    assert again.generator_names == pres.generator_names
    assert again.relators == pres.relators
    assert again.primes == pres.primes


def test_whitespace_and_newlines_are_free():
    a = parse_presentation("gens: a, b; relators: a^2, b^2; prime: 2")
    b = parse_presentation("gens:\n  a,\n  b;\nrelators:\n  a^2,\n  b^2;\nprime: 2")
    assert a.relators == b.relators and a.generator_names == b.generator_names


def test_relators_are_reduced_letter_words():
    pres = parse_presentation("gens: a, b; relators: a^2*b^-2; prime: 2")
    assert pres.relators == (((0, 1), (0, 1), (1, -1), (1, -1)),)
    pres = parse_presentation("gens: a, b; relators: a*a^-1*b; prime: 2")
    assert pres.relators == (((1, 1),),)


def test_exponent_matrix():
    pres = parse_presentation("gens: a, b; relators: a^2*b^-2, b*a*b^-1*a; prime: 2")
    assert pres.relator_exponent_matrix() == [[2, -2], [2, 0]]


BAD = [
    ("gens: ; relators: a; prime: 2", "expected generator name"),
    ("gens: a; relators: ; prime: 2", "expected generator name"),
    ("gens: a; relators: a^2; prime: 4", "not prime"),
    ("gens: a, a; relators: a^2; prime: 2", "duplicate generator"),
    ("gens: a; relators: a^0; prime: 2", "empty word"),
    ("gens: a; relators: b^2; prime: 2", "unknown generator"),
    ("relators: a; prime: 2", "expected 'gens'"),
    ("gens: a; relators: a^2", "unexpected end of input"),
    ("gens: a b; relators: a^2; prime: 2", "expected ;"),
]


@pytest.mark.parametrize("text,fragment", BAD)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_presentation(text)
    assert fragment in str(exc.value)
    assert "line 1" in str(exc.value)


def test_parse_error_position_is_useful():
    with pytest.raises(ParseError, match=r"column 20"):
        parse_presentation("gens: a; relators: c^2; prime: 2")


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1) and not is_prime(0) and not is_prime(-3)


# free-word algebra: letters are (generator index, +-1)

letters = st.tuples(st.integers(0, 2), st.sampled_from([1, -1]))
words = st.lists(letters, max_size=12).map(tuple)


@given(words)
@settings(deadline=None)
def test_free_reduce_idempotent(w):
    r = free_reduce(w)
    assert free_reduce(r) == r
    assert exponent_vector(r, 3) == exponent_vector(w, 3)


@given(words, words)
@settings(deadline=None)
def test_exponent_vector_additive(u, v):
    eu = exponent_vector(u, 3)
    ev = exponent_vector(v, 3)
    assert exponent_vector(free_reduce(u + v), 3) == tuple(x + y for x, y in zip(eu, ev))


def test_word_text_round_trip():
    pres = parse_presentation("gens: a, b; relators: a^2*b^-2; prime: 2")
    w = pres.relators[0]
    assert word_text(w, pres.generator_names) == "a^2*b^-2"
