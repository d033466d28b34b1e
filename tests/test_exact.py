import math
import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filmlab import exact
from filmlab.exact import (
    RadicalSum,
    radical_sum,
    SQRT3,
)
from filmlab.rationals import format_fraction, parse_fraction

from references import fraction_enclosure, sqrt_enclosure


def test_fraction_round_trip():
    for text in ("0", "3", "-7/2", "22/7"):
        assert format_fraction(parse_fraction(text)) == text


def test_sqrt_canonicalization():
    assert RadicalSum.sqrt(8) == 2 * RadicalSum.sqrt(2)
    assert RadicalSum.sqrt(8).terms() == ((2, Fraction(2)),)
    assert RadicalSum.sqrt(9) == 3
    assert RadicalSum.sqrt(0).is_zero()


def test_products_and_rationality():
    r2 = RadicalSum.sqrt(2)
    assert (r2 * r2).as_fraction() == 2
    assert not (r2 + 1).is_rational()
    with pytest.raises(ValueError):
        (r2 + 1).as_fraction()
    assert (r2 * r2 + Fraction(1, 2)).as_fraction() == Fraction(5, 2)


def test_comparisons_exact():
    assert RadicalSum.sqrt(2) + RadicalSum.sqrt(3) > RadicalSum.sqrt(5)
    assert RadicalSum.sqrt(2) < Fraction(3, 2)
    assert SQRT3 * SQRT3 == 3
    # nested near-ties decided exactly
    assert RadicalSum.sqrt(50) == 5 * RadicalSum.sqrt(2)


def test_enclosure_sound_and_shrinking():
    x = RadicalSum.sqrt(2) + 3 * RadicalSum.sqrt(5)
    lo64, hi64 = x.enclosure(64)
    lo256, hi256 = x.enclosure(256)
    assert lo64 <= lo256 <= hi256 <= hi64
    assert x >= lo256 and x <= hi256
    assert hi256 - lo256 < Fraction(1, 2 ** 200)


def test_sqrt_enclosure_brackets_value():
    for v in (Fraction(2), Fraction(9, 4), Fraction(1, 3), Fraction(0)):
        lo, hi = sqrt_enclosure(v, 64)
        assert lo * lo <= v <= hi * hi
        assert lo >= 0


_ENCLOSURE_CORES = st.one_of(st.just(1), st.integers(2, 10**6), st.integers(2**64 + 1, 2**90))


@settings(max_examples=100, deadline=None)
@given(
    terms=st.lists(
        st.tuples(
            _ENCLOSURE_CORES,
            st.fractions(min_value=-50, max_value=50, max_denominator=10**6).filter(bool),
        ),
        min_size=0,
        max_size=6,
    ),
    bits=st.integers(40, 320),
)
def test_integer_enclosure_equals_the_fraction_sums(terms, bits):
    """exact._enclosure over one common denominator gives the [lo, hi] the
    Fraction sum of one bound per term gave: negative coefficients, core 1
    and cores above 2^64 included, as terms and through RadicalSum."""
    lo, hi, d = exact._enclosure(terms, bits)
    assert d > 0
    assert (Fraction(lo, d), Fraction(hi, d)) == fraction_enclosure(terms, bits)
    x = RadicalSum(terms)
    assert x.enclosure(bits) == fraction_enclosure(x.terms(), bits)


def test_radical_sum_merges_terms():
    total = radical_sum([RadicalSum.sqrt(2), RadicalSum.sqrt(2), RadicalSum.sqrt(3)])
    assert total == 2 * RadicalSum.sqrt(2) + RadicalSum.sqrt(3)


@settings(max_examples=60, deadline=None)
@given(
    a=st.fractions(min_value=0, max_value=20, max_denominator=12),
    b=st.fractions(min_value=0, max_value=20, max_denominator=12),
)
def test_sqrt_multiplicative(a, b):
    left = RadicalSum.sqrt(a) * RadicalSum.sqrt(b)
    assert left == RadicalSum.sqrt(a * b)


@settings(max_examples=60, deadline=None)
@given(
    a=st.fractions(min_value=-8, max_value=8, max_denominator=10),
    b=st.fractions(min_value=-8, max_value=8, max_denominator=10),
)
def test_sign_consistent_with_enclosure(a, b):
    x = a * RadicalSum.sqrt(2) + b * RadicalSum.sqrt(7)
    lo, hi = x.enclosure(128)
    if x.sign() > 0:
        assert hi > 0
    elif x.sign() < 0:
        assert lo < 0
    else:
        assert lo <= 0 <= hi


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.fractions(min_value=0, max_value=50, max_denominator=30), min_size=0, max_size=6
    ),
    signs=st.lists(st.sampled_from((1, -1)), min_size=6, max_size=6),
)
def test_float_is_fsum_of_terms(values, signs):
    """float() is the fsum of float(coeff) * sqrt(core) over the terms, so
    every presentation of one exact value converts to one float."""
    parts = [s * RadicalSum.sqrt(v) for s, v in zip(signs, values)]
    x = radical_sum(parts)
    expected = math.fsum(float(q) * math.sqrt(c) for c, q in x.terms())
    assert float(x) == expected
    assert float(radical_sum(reversed(parts))) == expected
    lo, hi = x.enclosure(64)
    assert abs(float(x) - float((lo + hi) / 2)) <= 1e-12 * (1 + abs(float(hi)))


def test_float_of_a_core_past_the_float_range():
    # the length of (1/p, 1/q, 0) for the Mersenne primes p, q below: trial
    # division leaves p^2 q^2 (p^2 + q^2) unsplit, a core of over 3000 bits
    p, q = 2**521 - 1, 2**607 - 1
    x = RadicalSum.sqrt(Fraction(1, p * p) + Fraction(1, q * q))
    assert max(core for core, _ in x.terms()).bit_length() > 3000
    assert math.isclose(float(x), math.hypot(1 / p, 1 / q), rel_tol=1e-15)


def test_zero_detection_despite_mixed_presentation():
    x = RadicalSum.sqrt(18) - 3 * RadicalSum.sqrt(2)
    assert x.is_zero() and x.sign() == 0


def test_equal_values_with_cores_apart_by_a_large_square():
    """51523265522770 = 284770 * 13451^2, with 13451 past the trial limit,
    so the two sides name one number through different cores; so do
    345085973821133 = 285557 * 34763^2 and 285557.  No enclosure can
    separate them from zero, and sign() merges the cores instead."""
    a = RadicalSum([(284770, Fraction(5, 36822))])
    b = RadicalSum([(51523265522770, Fraction(5, 495292722))])
    assert a == b and not a < b and not b < a
    four = a - b + RadicalSum([(285557, Fraction(772, 1631359))]) - RadicalSum(
        [(345085973821133, Fraction(772, 56710932917))]
    )
    assert len(four.terms()) == 4 and four.sign() == 0
    assert (four + Fraction(1, 10**30)).sign() == 1
    assert (a + b).sign() == 1 and (a - 2 * b).sign() == -1


def test_division_by_rational():
    x = (RadicalSum.sqrt(2) + 4) / 2
    assert x == RadicalSum.sqrt(2) / 2 + 2


def test_parse_fraction_accepts_plain_forms_and_refuses_exponents():
    assert parse_fraction("-3/4") == Fraction(-3, 4)
    assert parse_fraction("0.125") == Fraction(1, 8)
    assert parse_fraction("12") == 12
    for text in ("1e3", "2E-1", "1.5e0", "1e1000000"):
        with pytest.raises(ValueError, match="exponent notation"):
            parse_fraction(text)
    with pytest.raises(ValueError, match="zero denominator"):
        parse_fraction("1/0")


def _trial_division_split(n):
    """Reference: _split_square by plain trial division up to the limit."""
    s, f, m, p = 1, 1, n, 2
    while p <= exact._TRIAL_LIMIT and p * p <= m:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        s *= p ** (e // 2)
        f *= p ** (e % 2)
        p += 1 if p == 2 else 2
    r = isqrt(m)
    return (s * r, f) if r * r == m else (s, f * m)


# primes just below and just above the trial limit of 10 000, and large ones
_BELOW = (9931, 9941, 9949, 9967, 9973)
_ABOVE = (10007, 10009, 10037, 10039)
_LARGE = (999_983, 2**31 - 1, 10**12 + 39)


@settings(max_examples=200, deadline=None)
@given(
    factors=st.lists(st.sampled_from(_BELOW + _ABOVE + _LARGE + (2, 3, 5, 7, 97)), max_size=8),
    squares=st.lists(st.sampled_from(_ABOVE + _LARGE), max_size=2),
    rest=st.integers(1, 10**30),
)
def test_split_square_matches_trial_division(factors, squares, rest):
    n = rest
    for p in factors:
        n *= p
    for p in squares:
        n *= p * p
    got = exact._split_square(n)
    assert got == _trial_division_split(n)
    s, f = got
    assert s * s * f == n


def test_equal_sums_hash_and_convert_alike():
    """51523265522770 = 284770 * 13451^2 hides a square past the trial
    limit; hashes and floats see the core's kernel, so equal sums agree."""
    a = RadicalSum([(284770, Fraction(1))])
    b = RadicalSum.sqrt(51523265522770) / 13451
    assert b.terms() == ((51523265522770, Fraction(1, 13451)),)
    assert a == b and hash(a) == hash(b) and float(a) == float(b)
    c = b + RadicalSum([(284770, Fraction(-1, 2))])
    assert c == a / 2 and hash(c) == hash(a / 2) and float(c) == float(a / 2)
    assert len({a, b, c, a / 2}) == 2
    assert {RadicalSum.sqrt(Fraction(9, 4)), RadicalSum.zero()} == {Fraction(3, 2), 0}
    assert exact._kernel(10007**2 * 999_983**2 * (10**12 + 39) * 7) == (
        10007 * 999_983,
        (10**12 + 39) * 7,
    )


_CORES = (1, 2, 3, 6, 284770, 285557)
# cores apart by a square past the trial limit: (core, its kernel, the root)
_HIDDEN = ((51523265522770, 284770, 13451), (345085973821133, 285557, 34763))


@st.composite
def _radical_pairs(draw):
    """Two sums over a few cores, the second sometimes a re-presentation of
    the first with a kernel's term moved onto its hidden-square core."""
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    a = RadicalSum((draw(st.sampled_from(_CORES)), draw(coeffs)) for _ in range(draw(st.integers(0, 4))))
    kind = draw(st.sampled_from(("free", "same", "nudged")))
    if kind == "free":
        b = RadicalSum((draw(st.sampled_from(_CORES)), draw(coeffs)) for _ in range(draw(st.integers(0, 4))))
    else:
        terms = []
        for core, q in a.terms():
            hidden = [(big, root) for big, kernel, root in _HIDDEN if kernel == core]
            if hidden and draw(st.booleans()):
                big, root = hidden[0]
                terms.append((big, q / root))
            else:
                terms.append((core, q))
        b = RadicalSum(terms)
        if kind == "nudged":
            b = b + Fraction(draw(st.sampled_from((-1, 1))), 10**draw(st.integers(1, 30)))
    return a, b


@settings(max_examples=300, deadline=None)
@given(pair=_radical_pairs(), q=st.fractions(min_value=-5, max_value=5, max_denominator=7))
def test_comparison_agrees_with_the_sign_of_the_difference(pair, q):
    """<, ==, > merge the two term lists once; they decide as
    (a - b).sign() does, also where cores differ by a hidden square."""
    a, b = pair
    for x, y in ((a, b), (b, a), (a, q), (RadicalSum.from_fraction(q), a)):
        s = (x - y).sign()
        assert ((x > y) - (x < y), x == y, x <= y, x >= y) == (s, s == 0, s <= 0, s >= 0)
    if a == b:
        assert hash(a) == hash(b) and float(a) == float(b)
