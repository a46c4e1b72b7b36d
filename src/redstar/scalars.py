"""Exact coefficient fields: rationals and Gaussian rationals.

Every algebraic object in the engine stores coefficients as exact field
elements; there is no floating point anywhere.  The rational field is
`fractions.Fraction`.  Scenarios with complex coordinates use Gaussian
rationals (a + b*i)/d, stored as three integers in lowest terms: d > 0 and
gcd(a, b, d) = 1.  Each operation is integer arithmetic followed by one
three-way gcd; the real and imaginary parts a/d and b/d are derived
`Fraction`s, built only when read.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class GaussianRational:
    """A Gaussian rational (a + b*i)/d with integers d > 0, gcd(a, b, d) = 1.

    `re` and `im` are the canonical `Fraction` parts a/d and b/d.
    Immutable.  Supports mixed arithmetic with int and Fraction; equal to an
    int or Fraction of the same value, and hashes like it when `im` is 0.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        (ar, dr), (ai, di) = _ratio(re), _ratio(im)
        d = dr * di // gcd(dr, di)
        # both parts are in lowest terms, so gcd(a, b, lcm) is already 1
        _set_a(self, ar * (d // dr))
        _set_b(self, ai * (d // di))
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        # copy and pickle rebuild from the integer triple, not through __setattr__
        return _canonical, (self._a, self._b, self._d)

    @property
    def re(self):
        return Fraction(self._a, self._d)

    @property
    def im(self):
        return Fraction(self._b, self._d)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        sd = self._d
        if sd == d:
            return _make(self._a + a, self._b + b, d)
        return _make(self._a * d + a * sd, self._b * d + b * sd, sd * d)

    __radd__ = __add__

    def __sub__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        sd = self._d
        if sd == d:
            return _make(self._a - a, self._b - b, d)
        return _make(self._a * d - a * sd, self._b * d - b * sd, sd * d)

    def __rsub__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _make(*o) - self

    def __mul__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        sa, sb = self._a, self._b
        return _make(sa * a - sb * b, sa * b + sb * a, self._d * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        # (sa + sb i)/sd * d (a - b i) / (a^2 + b^2)
        sa, sb = self._a, self._b
        return _make((sa * a + sb * b) * d, (sb * a - sa * b) * d, self._d * n)

    def __rtruediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _make(*o) / self

    def __neg__(self):
        return _canonical(-self._a, -self._b, self._d)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = _ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self):
        return _canonical(self._a, -self._b, self._d)

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return self._a == o[0] and self._b == o[1] and self._d == o[2]

    def __hash__(self):
        if self._b == 0:
            return hash(self._a) if self._d == 1 else hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            if im == 1:
                return "i"
            if im == -1:
                return "-i"
            return f"{im}*i"
        sign = "-" if im < 0 else "+"
        mag = abs(im)
        imag = "i" if mag == 1 else f"{mag}*i"
        return f"({re} {sign} {imag})"


_new = object.__new__
_set_a = GaussianRational._a.__set__
_set_b = GaussianRational._b.__set__
_set_d = GaussianRational._d.__set__


def _canonical(a, b, d):
    """The GaussianRational (a + b*i)/d, for a triple already in lowest terms."""
    z = _new(GaussianRational)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def _make(a, b, d):
    """The GaussianRational (a + b*i)/d in lowest terms; needs d > 0."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _canonical(a, b, d)


def _ratio(x):
    """(numerator, denominator) of x in lowest terms, as a Fraction would hold it."""
    if type(x) is int:
        return x, 1
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator, x.denominator


def _parts(x):
    """The integer triple (a, b, d) of a Gaussian rational, int or Fraction."""
    if type(x) is GaussianRational:
        return x._a, x._b, x._d
    if isinstance(x, int):
        return x, 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    return None


_ONE = _canonical(1, 0, 1)


class Field:
    """A coefficient field: coercion, constants and random sampling.

    `zero` and `one` are one stored (immutable) element per field.
    """

    name = "abstract"

    def coerce(self, x):
        raise NotImplementedError

    def random(self, rng, span=6):
        """A small random nonzero element, for probe generation."""
        raise NotImplementedError

    def __repr__(self):
        return f"<field {self.name}>"

    def __eq__(self, other):
        return type(self) is type(other)

    def __hash__(self):
        return hash(type(self))


class RationalField(Field):
    name = "rational"
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, GaussianRational):
            if x.im != 0:
                raise TypeError("cannot coerce a complex value into the rationals")
            return x.re
        if isinstance(x, str):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into the rationals")

    def random(self, rng, span=6):
        num = rng.randint(-span, span)
        if num == 0:
            num = 1
        den = rng.randint(1, 3)
        return Fraction(num, den)


class GaussianField(Field):
    name = "gaussian"
    zero = _canonical(0, 0, 1)
    one = _ONE

    def coerce(self, x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x, 0)
        if isinstance(x, str):
            return GaussianRational(Fraction(x), 0)
        raise TypeError(f"cannot coerce {x!r} into the Gaussian rationals")

    def random(self, rng, span=6):
        re = rng.randint(-span, span)
        im = rng.randint(-span, span)
        if re == 0 and im == 0:
            re = 1
        return GaussianRational(Fraction(re), Fraction(im, 2) if rng.random() < 0.3 else Fraction(im))


QQ = RationalField()
QQ_I = GaussianField()
