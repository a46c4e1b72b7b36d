"""Exact coefficient fields: rationals and Gaussian rationals.

Every algebraic object in the engine stores coefficients as exact field
elements; there is no floating point anywhere.  Rationals n/d are stored as
two integers in lowest terms with d > 0; Gaussian rationals (a + b*i)/d, for
scenarios with complex coordinates, as three integers in lowest terms: d > 0
and gcd(a, b, d) = 1.  Each operation is integer arithmetic followed by one
gcd (none when both rational denominators are 1).  `fractions.Fraction` is
only an input type: config values, literal constants and the parts `re`
and `im` of a Gaussian rational, built only when read.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd


_new = object.__new__


def _ordering(op):
    """The comparison op(self, other) of a Rational, on cross products."""

    def compare(self, other):
        o = _pair(other)
        if o is None:
            return NotImplemented
        return op(self._n * o[1], o[0] * self._d)

    return compare


class Rational:
    """A rational number n/d with integers d > 0 and gcd(n, d) = 1.

    Immutable.  Supports mixed arithmetic with int and Fraction on either
    side; equal to an int or Fraction of the same value and hashes like it,
    and prints as a Fraction does.  `Rational(numerator, denominator)` takes
    ints, Fractions, Rationals or a string such as "3/4".
    """

    __slots__ = ("_n", "_d")

    def __init__(self, numerator=0, denominator=1):
        n, d = _ratio(numerator)
        if denominator != 1:
            dn, dd = _ratio(denominator)
            if dn == 0:
                raise ZeroDivisionError(f"Rational({numerator}, 0)")
            n, d = n * dd, d * dn
            if d < 0:
                n, d = -n, -d
            g = gcd(n, d)
            n, d = n // g, d // g
        _set_qn(self, n)
        _set_qd(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("Rational is immutable")

    def __reduce__(self):
        # copy and pickle rebuild from the integer pair, not through __setattr__
        return _canonical_q, (self._n, self._d)

    @property
    def numerator(self):
        return self._n

    @property
    def denominator(self):
        return self._d

    # -- arithmetic -------------------------------------------------------
    # + - * unpack a Rational or int operand inline: they are the hot path

    def __add__(self, other):
        if type(other) is Rational:
            n, d = other._n, other._d
        elif type(other) is int:
            n, d = other, 1
        else:
            o = _pair(other)
            if o is None:
                return NotImplemented
            n, d = o
        sd = self._d
        if sd == d:
            return _make_q(self._n + n, d)
        return _make_q(self._n * d + n * sd, sd * d)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is Rational:
            n, d = other._n, other._d
        elif type(other) is int:
            n, d = other, 1
        else:
            o = _pair(other)
            if o is None:
                return NotImplemented
            n, d = o
        sd = self._d
        if sd == d:
            return _make_q(self._n - n, d)
        return _make_q(self._n * d - n * sd, sd * d)

    def __rsub__(self, other):
        o = _pair(other)
        if o is None:
            return NotImplemented
        return _canonical_q(*o) - self

    def __mul__(self, other):
        if type(other) is Rational:
            n, d = other._n, other._d
        elif type(other) is int:
            n, d = other, 1
        else:
            o = _pair(other)
            if o is None:
                return NotImplemented
            n, d = o
        return _make_q(self._n * n, self._d * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _pair(other)
        if o is None:
            return NotImplemented
        n, d = o
        if n == 0:
            raise ZeroDivisionError("division by zero rational")
        if n < 0:
            n, d = -n, -d
        return _make_q(self._n * d, self._d * n)

    def __rtruediv__(self, other):
        o = _pair(other)
        if o is None:
            return NotImplemented
        return _canonical_q(*o) / self

    def __neg__(self):
        return _canonical_q(-self._n, self._d)

    def __pow__(self, k):
        if type(k) is not int:
            return NotImplemented
        n, d = self._n, self._d
        if k < 0:
            if n == 0:
                raise ZeroDivisionError("zero rational to a negative power")
            n, d, k = (d, n, -k) if n > 0 else (-d, -n, -k)
        # coprime n and d have coprime powers
        return _canonical_q(n**k, d**k)

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other):
        if type(other) is Rational:
            return self._n == other._n and self._d == other._d
        o = _pair(other)
        if o is None:
            return NotImplemented
        return self._n == o[0] and self._d == o[1]

    __lt__ = _ordering(operator.lt)
    __le__ = _ordering(operator.le)
    __gt__ = _ordering(operator.gt)
    __ge__ = _ordering(operator.ge)

    def __hash__(self):
        return hash(self._n) if self._d == 1 else hash(Fraction(self._n, self._d))

    def __bool__(self):
        return self._n != 0

    def __repr__(self):
        return f"Rational({self._n}, {self._d})"

    def __str__(self):
        return str(self._n) if self._d == 1 else f"{self._n}/{self._d}"


_set_qn = Rational._n.__set__
_set_qd = Rational._d.__set__


def _canonical_q(n, d):
    """The Rational n/d, for a pair already in lowest terms with d > 0."""
    q = _new(Rational)
    _set_qn(q, n)
    _set_qd(q, d)
    return q


def _make_q(n, d):
    """The Rational n/d in lowest terms; needs d > 0."""
    if d != 1:
        g = gcd(n, d)
        if g != 1:
            n //= g
            d //= g
    q = _new(Rational)  # _canonical_q, inlined
    _set_qn(q, n)
    _set_qd(q, d)
    return q


def _pair(x):
    """The integer pair (n, d) of a Rational, int or Fraction; None otherwise."""
    if type(x) is Rational:
        return x._n, x._d
    if isinstance(x, int):
        return int(x), 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    return None


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
    """(numerator, denominator) of x in lowest terms; text and other input go through Fraction."""
    return _pair(x) or _pair(Fraction(x))


def _parts(x):
    """The integer triple (a, b, d) of a Gaussian rational, Rational, int or Fraction."""
    if type(x) is GaussianRational:
        return x._a, x._b, x._d
    if type(x) is Rational:
        return x._n, 0, x._d
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
    zero = _canonical_q(0, 1)
    one = _canonical_q(1, 1)

    def coerce(self, x):
        if type(x) is Rational:
            return x
        if isinstance(x, int):
            return _canonical_q(int(x), 1)
        if isinstance(x, Fraction):
            return _canonical_q(x.numerator, x.denominator)
        if isinstance(x, GaussianRational):
            if x._b != 0:
                raise TypeError("cannot coerce a complex value into the rationals")
            return _canonical_q(x._a, x._d)
        raise TypeError(f"cannot coerce {x!r} into the rationals")

    def random(self, rng, span=6):
        num = rng.randint(-span, span)
        if num == 0:
            num = 1
        den = rng.randint(1, 3)
        return Rational(num, den)


class GaussianField(Field):
    name = "gaussian"
    zero = _canonical(0, 0, 1)
    one = _ONE

    def coerce(self, x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction, Rational)):
            return GaussianRational(x, 0)
        raise TypeError(f"cannot coerce {x!r} into the Gaussian rationals")

    def random(self, rng, span=6):
        re = rng.randint(-span, span)
        im = rng.randint(-span, span)
        if re == 0 and im == 0:
            re = 1
        return GaussianRational(Fraction(re), Fraction(im, 2) if rng.random() < 0.3 else Fraction(im))


QQ = RationalField()
QQ_I = GaussianField()
