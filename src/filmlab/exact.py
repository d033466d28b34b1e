"""Exact scalar arithmetic for the chain calculus.

All geometry in this package is carried out over the rationals.  Masses of
simplices are square roots of rational Gram determinants, so chain masses are
finite sums  sum_i  c_i * sqrt(f_i)  with rational c_i and positive integer
radicands.  ``RadicalSum`` represents such sums exactly and decides order
predicates by combining symbolic cancellation (square-free radicands combine
by linearity) with certified rational enclosures of increasing precision.

No floats enter any decision; ``float()`` conversions exist only for
human-facing reports and lossy mesh export.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import fsum, gcd, isqrt, lcm, prod, sqrt
from typing import Iterable, Sequence, Union

from .rationals import UndecidableComparison, format_fraction

Scalar = Union[int, Fraction, "RadicalSum"]

# Trial-division bound for square extraction.  Radicands whose leftover part
# exceeds the square of this bound may keep a hidden square factor; signs
# still decide soundly, and _kernel looks for the square for hashes and floats.
_TRIAL_LIMIT = 10_000

# Default enclosure precision: 2^-40 < 1e-12.
DEFAULT_BITS = 40
_MAX_BITS = 320

# Cores of at most this many bits convert to a float for __float__.
_FLOAT_CORE_BITS = 1000


@lru_cache(maxsize=1)
def _trial_primes() -> tuple[tuple[int, ...], int]:
    """The primes up to _TRIAL_LIMIT and their product."""
    sieve = bytearray([1]) * (_TRIAL_LIMIT + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, isqrt(_TRIAL_LIMIT) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, _TRIAL_LIMIT + 1, p)))
    primes = tuple(p for p, is_prime in enumerate(sieve) if is_prime)
    return primes, prod(primes)


@lru_cache(maxsize=None)
def _split_square(n: int) -> tuple[int, int]:
    """Return (s, f) with n = s*s*f and f square-free up to _TRIAL_LIMIT.

    One gcd with the product of the primes up to the limit finds which of
    them divide n; only those are divided out.
    """
    if n <= 0:
        raise ValueError("radicand must be positive")
    s, f = 1, 1
    m = n
    primes, product = _trial_primes()
    small = gcd(m, product)
    for p in primes:
        if small == 1:
            break
        if small % p:
            continue
        small //= p
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        s *= p ** (e // 2)
        if e % 2:
            f *= p
    # Leftover m has no prime factor <= _TRIAL_LIMIT; it may itself be square.
    r = isqrt(m)
    if r * r == m:
        s *= r
    else:
        f *= m
    return s, f


@lru_cache(maxsize=None)
def _sqrt_floor(core: int, bits: int) -> int:
    """isqrt(core * 4^bits): sqrt(core) lies in [f, f + 1] / 2^bits."""
    return isqrt(core << 2 * bits)


class RadicalSum:
    """An exact number of the form  sum_i coeff_i * sqrt(core_i).

    Cores are positive integers, square-free as far as trial division tells
    (_split_square), and coefficients are nonzero rationals.  Order and
    equality come from the exact sign of a difference; hashes and floats
    read each core's kernel (_kernel), so equal sums hash and convert alike.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[int, Fraction]] = ()):  # internal
        merged: dict[int, Fraction] = {}
        for core, coeff in terms:
            if coeff:
                merged[core] = merged[core] + coeff if core in merged else coeff
        self._terms = tuple(sorted((c, q) for c, q in merged.items() if q != 0))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "RadicalSum":
        return _ZERO

    @staticmethod
    def from_fraction(q) -> "RadicalSum":
        q = Fraction(q)
        if q == 0:
            return _ZERO
        return RadicalSum([(1, q)])

    @staticmethod
    def sqrt(value) -> "RadicalSum":
        """Exact sqrt of a nonnegative rational, as a RadicalSum."""
        value = Fraction(value)
        if value < 0:
            raise ValueError("negative radicand")
        if value == 0:
            return _ZERO
        # sqrt(p/q) = sqrt(p*q)/q with p*q = s^2 * core
        s, core = _split_square(value.numerator * value.denominator)
        return RadicalSum([(core, Fraction(s, value.denominator))])

    # -- coercion -----------------------------------------------------------

    @staticmethod
    def _coerce(x: Scalar) -> "RadicalSum":
        if isinstance(x, RadicalSum):
            return x
        if isinstance(x, (int, Fraction)):
            return RadicalSum.from_fraction(Fraction(x))
        return NotImplemented  # type: ignore[return-value]

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: Scalar) -> "RadicalSum":
        o = RadicalSum._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RadicalSum(self._terms + o._terms)

    __radd__ = __add__

    def __neg__(self) -> "RadicalSum":
        return RadicalSum([(c, -q) for c, q in self._terms])

    def __sub__(self, other: Scalar) -> "RadicalSum":
        o = RadicalSum._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: Scalar) -> "RadicalSum":
        return -(self - other)

    def __mul__(self, other: Scalar) -> "RadicalSum":
        o = RadicalSum._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        out: list[tuple[int, Fraction]] = []
        for c1, q1 in self._terms:
            for c2, q2 in o._terms:
                if c1 == c2:
                    out.append((1, q1 * q2 * c1))
                else:
                    s, core = _split_square(c1 * c2)
                    out.append((core, q1 * q2 * s))
        return RadicalSum(out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RadicalSum":
        # Division only by nonzero rationals; general radical division is not
        # needed anywhere in the package.
        q = Fraction(other)
        if q == 0:
            raise ZeroDivisionError
        return RadicalSum([(c, coeff / q) for c, coeff in self._terms])

    # -- sign and order -----------------------------------------------------

    def sign(self) -> int:
        """Exact sign: -1, 0 or +1."""
        return _sign(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and self._terms[0][0] == 1)

    def as_fraction(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if self.is_rational():
            return self._terms[0][1]
        raise ValueError(f"not rational: {self}")

    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        """(core, coefficient) pairs of the sum of coeff * sqrt(core)."""
        return self._terms

    def enclosure(self, bits: int = DEFAULT_BITS) -> tuple[Fraction, Fraction]:
        """Certified rational enclosure [lo, hi] of the value."""
        lo, hi, d = _enclosure(self._terms, bits)
        return Fraction(lo, d), Fraction(hi, d)

    def _cmp(self, other: Scalar) -> int:
        """sign(self - other), from one merge of the two term lists; two
        rationals compare as Fractions."""
        o = RadicalSum._coerce(other)
        if o is NotImplemented:
            return NotImplemented  # type: ignore[return-value]
        if self.is_rational() and o.is_rational():
            x, y = self.as_fraction(), o.as_fraction()
            return (x > y) - (x < y)
        diff = dict(self._terms)
        for core, coeff in o._terms:
            diff[core] = diff.get(core, 0) - coeff
        return _sign(tuple((c, q) for c, q in diff.items() if q))

    def __eq__(self, other) -> bool:
        c = self._cmp(other)
        return False if c is NotImplemented else c == 0

    def __lt__(self, other) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other) -> bool:
        return self._cmp(other) >= 0

    def __hash__(self):
        # a rational sum hashes as the Fraction it equals
        terms = _canonical(self._terms)
        rational = not terms or (len(terms) == 1 and terms[0][0] == 1)
        return hash(terms[0][1] if terms else 0) if rational else hash(terms)

    def __float__(self) -> float:
        """fsum of float(coeff) * sqrt(core) over the terms on their cores'
        kernels (_canonical), so equal sums give one float wherever _kernel
        finds the squares.  A core past the float range is scaled by a
        power of four into it first."""
        return fsum(_term_float(core, coeff) for core, coeff in _canonical(self._terms))

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for core, coeff in self._terms:
            if core == 1:
                parts.append(format_fraction(coeff))
            else:
                parts.append(f"{format_fraction(coeff)}*sqrt({core})")
        return " + ".join(parts)


def _term_float(core: int, coeff: Fraction) -> float:
    if core.bit_length() <= _FLOAT_CORE_BITS:
        return float(coeff) * sqrt(core)
    shift = (core.bit_length() - _FLOAT_CORE_BITS) // 2 + 1
    return float(coeff * (1 << shift)) * sqrt(core >> (2 * shift))


def _merge_square_ratios(terms) -> tuple:
    """The terms with each core c moved onto the first core c0 for which
    c0 * c is a square m^2, as sqrt(c) = (m / c0) sqrt(c0)."""
    out: list[tuple[int, Fraction]] = []
    for core, coeff in terms:
        c0 = next((c for c, _ in out if isqrt(c * core) ** 2 == c * core), core)
        out.append((c0, coeff * Fraction(isqrt(c0 * core), c0)))
    return RadicalSum(out)._terms


def _enclosure(terms, bits: int) -> tuple[int, int, int]:
    """(lo, hi, d): the sum lies in [lo, hi] / d, d = 2^bits lcm(coefficient
    denominators), with sqrt(core) in [f, f + 1] / 2^bits (_sqrt_floor)."""
    den = lcm(*(q.denominator for _, q in terms))
    lo = hi = 0
    for core, q in terms:
        c = q.numerator * (den // q.denominator)
        if core == 1:
            lo, hi = lo + (c << bits), hi + (c << bits)
        else:
            f = _sqrt_floor(core, bits)
            lo, hi = lo + c * (f + (c < 0)), hi + c * (f + (c > 0))
    return lo, hi, den << bits


def _sign(terms) -> int:
    """Exact sign of the sum of coeff * sqrt(core) over the terms."""
    if not terms:
        return 0
    signs = {1 if q > 0 else -1 for _, q in terms}
    if len(signs) == 1:
        return signs.pop()
    bits = DEFAULT_BITS
    while bits <= _MAX_BITS:
        lo, hi, _ = _enclosure(terms, bits)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        bits *= 2
    # cores apart by a square past _TRIAL_LIMIT name one radical twice
    merged = _merge_square_ratios(terms)
    if len(merged) < len(terms):
        return _sign(merged)
    raise UndecidableComparison(f"sign undecided at 2^-{_MAX_BITS}: {RadicalSum(terms)}")


def _rho(n: int) -> int:
    """A proper factor of the composite n by Pollard's rho, or 0 if none
    turns up within 4096 steps; a batch of steps that meets every factor
    at once starts over with a new map."""
    for c in (1, 2, 3):
        x = y = q = 2
        for i in range(1, 4097):
            x = (x * x + c) % n
            y = (((y * y + c) % n) ** 2 + c) % n
            q = q * (x - y) % n
            if not i % 64 and (g := gcd(q, n)) > 1:
                if g < n:
                    return g
                break
    return 0


@lru_cache(maxsize=None)
def _kernel(core: int) -> tuple[int, int]:
    """(s, c) with core = s*s*c and c square-free as far as can be told.

    Trial division leaves a part m free of the primes up to _TRIAL_LIMIT;
    below _TRIAL_LIMIT**3 it has at most two prime factors and is not a
    square, so only a larger m can hide one.  An m of up to 256 bits is
    factored by rho; a part below _TRIAL_LIMIT**2, a base-2 probable prime
    or one rho cannot split counts as a prime.
    """
    s, core = _split_square(core)
    m = core // gcd(core, _trial_primes()[1])
    parts, primes = ([m] if _TRIAL_LIMIT**3 <= m < 1 << 256 else []), []
    while parts:
        n = parts.pop()
        if (r := isqrt(n)) ** 2 == n:
            parts += [r, r]
        elif n < _TRIAL_LIMIT**2 or pow(2, n - 1, n) == 1 or not (d := _rho(n)):
            primes.append(n)
        else:
            parts += [d, n // d]
    for p in set(primes):
        e = primes.count(p) // 2
        s, core = s * p**e, core // p ** (2 * e)
    return s, core


def _canonical(terms) -> tuple:
    """The terms with every core reduced to its kernel (equal cores merged):
    one tuple per exact value, whenever each kernel is square-free."""
    kernels = [_kernel(core) for core, _ in terms]
    if all(s == 1 for s, _ in kernels):
        return terms
    return RadicalSum((c, q * s) for (s, c), (_, q) in zip(kernels, terms))._terms


_ZERO = RadicalSum.__new__(RadicalSum)
_ZERO._terms = ()


def radical_sum(values: Iterable[RadicalSum]) -> RadicalSum:
    terms: list[tuple[int, Fraction]] = []
    for v in values:
        terms.extend(v._terms)
    return RadicalSum(terms)


# 3 is square-free: built directly, so importing builds no trial-prime table
SQRT3 = RadicalSum([(3, Fraction(1))])


# -- exact linear algebra ---------------------------------------------------

Matrix = Sequence[Sequence[Fraction]]


def mat_vec(a: Matrix, v: Sequence[Fraction]) -> list[Fraction]:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def det3(m: Matrix) -> Fraction:
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def is_psd(matrix: Matrix) -> bool:
    """Exact positive-semidefiniteness test for a rational symmetric matrix.

    Pivoted Schur-complement recursion: a zero diagonal entry forces its row
    and column to vanish, a negative one refutes, and a positive pivot
    reduces the dimension.
    """
    m = [list(map(Fraction, row)) for row in matrix]
    n = len(m)
    idx = list(range(n))
    while idx:
        pivot = None
        for i in idx:
            d = m[i][i]
            if d < 0:
                return False
            if d > 0 and pivot is None:
                pivot = i
        if pivot is None:
            # all remaining diagonal entries are zero
            return all(m[i][j] == 0 for i in idx for j in idx)
        idx.remove(pivot)
        d = m[pivot][pivot]
        for i in idx:
            for j in idx:
                m[i][j] -= m[i][pivot] * m[pivot][j] / d
    return True
