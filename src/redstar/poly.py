"""Sparse multivariate polynomials over an exact field.

A polynomial is a map from exponent tuples to field elements; zero
coefficients are never stored, so equality is dictionary equality.  The
variable context fixes the variable names, the coefficient field and the
integer gradings used to split linear algebra into finite slices.

The monomial order is graded lexicographic on the declared variable list
(total degree first, then exponent tuples with the first variable most
significant).  Normal-form complements and canonical solves all refer to
this one order, which makes every derived operator deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from .errors import ContextError
from .scalars import QQ, Field

Mono = tuple  # exponent tuple, one entry per variable


@dataclass(frozen=True)
class VarContext:
    """Variable names, coefficient field and integer grading rows.

    `gradings` holds extra integer weight rows (one tuple per grading, one
    entry per variable) on top of the implicit total degree.  All moment-map
    components must be homogeneous for every declared row; the graded slice
    machinery keys on (total degree, *row values).
    """

    names: tuple
    field: Field = QQ
    gradings: tuple = ()

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        for row in self.gradings:
            if len(row) != len(self.names):
                raise ValueError("grading row length does not match variable count")

    @property
    def nvars(self):
        return len(self.names)

    def index(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            raise ContextError(f"unknown variable {name!r}") from None

    def grade_of_mono(self, mono):
        """Full grade vector of a monomial: (degree, *weights)."""
        return _grade(self.gradings, mono)

    def torus_weights(self, mono, rows):
        """The weights of a monomial on the grading rows `rows` (indices into `gradings`)."""
        return tuple(sum(w * e for w, e in zip(self.gradings[r], mono)) for r in rows)

    def monomials_of_degree(self, deg):
        return _monomials_of_degree(self.nvars, deg)

    def grades_of_degree(self, deg):
        """The grade vectors that occur among the monomials of one degree."""
        return _grade_buckets(self.nvars, self.gradings, deg).keys()

    def monomials_of_grade(self, grade):
        """All monomials with the given full grade vector, in canonical order.

        A lookup in the per-degree bucket map of `_grade_buckets`; `()` for a
        grade that does not occur or a negative degree.
        """
        return _grade_buckets(self.nvars, self.gradings, grade[0]).get(grade, ())


def _grade(gradings, mono):
    return (sum(mono),) + tuple(sum(w * e for w, e in zip(row, mono)) for row in gradings)


@lru_cache(maxsize=None)
def _monomials_of_degree(nvars, deg):
    """All exponent tuples of the given total degree, descending grlex."""
    if deg < 0:
        return ()

    def gen(rem, k):
        if k == 1:
            yield (rem,)
            return
        for e in range(rem, -1, -1):
            for tail in gen(rem - e, k - 1):
                yield (e,) + tail

    return tuple(gen(deg, nvars))


@lru_cache(maxsize=None)
def _grade_buckets(nvars, gradings, deg):
    """{grade vector: monomials of that grade} over one degree, descending grlex."""
    buckets = {}
    for m in _monomials_of_degree(nvars, deg):
        buckets.setdefault(_grade(gradings, m), []).append(m)
    return {g: tuple(ms) for g, ms in buckets.items()}


def mono_key(mono):
    """Sort key realizing graded lex (bigger key = bigger monomial)."""
    return (sum(mono), mono)


class Poly:
    """Sparse polynomial: dict {exponent tuple: field element}."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms=None, _clean=False):
        self.ctx = ctx
        if terms is None:
            self.terms = {}
        elif _clean:
            self.terms = terms
        else:
            clean = {}
            for m, c in terms.items():
                c = ctx.field.coerce(c)
                if c:
                    clean[tuple(m)] = c
            self.terms = clean

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, {}, _clean=True)

    @classmethod
    def const(cls, ctx, c):
        c = ctx.field.coerce(c)
        if not c:
            return cls.zero(ctx)
        return cls(ctx, {(0,) * ctx.nvars: c}, _clean=True)

    @classmethod
    def variable(cls, ctx, which):
        idx = which if isinstance(which, int) else ctx.index(which)
        exp = [0] * ctx.nvars
        exp[idx] = 1
        return cls(ctx, {tuple(exp): ctx.field.one}, _clean=True)

    @classmethod
    def monomial(cls, ctx, mono, c=1):
        return cls(ctx, {tuple(mono): c})

    # -- basic predicates ---------------------------------------------------

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self):
        grades = {self.ctx.grade_of_mono(m) for m in self.terms}
        return len(grades) <= 1

    def grade(self):
        """The grade vector of a homogeneous polynomial (None if zero)."""
        grades = {self.ctx.grade_of_mono(m) for m in self.terms}
        if not grades:
            return None
        if len(grades) > 1:
            raise ValueError("polynomial is not grade-homogeneous")
        return next(iter(grades))

    def constant_term(self):
        return self.terms.get((0,) * self.ctx.nvars, self.ctx.field.zero)

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other):
        if self.ctx != other.ctx:
            raise ContextError("polynomials live in different variable contexts")

    # + - negation and scale hand back an operand that they leave unchanged,
    # a zero above all, without copying: a Poly is never mutated

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s = s + c
                if s:
                    out[m] = s
                else:
                    del out[m]
        return Poly(self.ctx, out, _clean=True)

    # its own loop, not self + (-other): a negated copy per call is a waste
    # here, on about 7.8k calls (about 20 ms) in one circle benchmark process
    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        if not other.terms:
            return self
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            if s is None:
                out[m] = -c
            else:
                s = s - c
                if s:
                    out[m] = s
                else:
                    del out[m]
        return Poly(self.ctx, out, _clean=True)

    def __neg__(self):
        if not self.terms:
            return self
        return Poly(self.ctx, {m: -c for m, c in self.terms.items()}, _clean=True)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                s = out.get(m)
                out[m] = c1 * c2 if s is None else s + c1 * c2
        return Poly(self.ctx, {m: c for m, c in out.items() if c}, _clean=True)

    def scale(self, c):
        # Koszul signs scale by the ints 1 and -1; sharing self needs no
        # copy and no coerced field element
        if not self.terms:
            return self
        if type(c) is int:
            if c == 1:
                return self
            if c == -1:
                return -self
        c = self.ctx.field.coerce(c)
        if not c:
            return Poly.zero(self.ctx)
        return Poly(self.ctx, {m: c * v for m, v in self.terms.items()}, _clean=True)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        out = Poly.const(self.ctx, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def diff(self, which):
        """Formal partial derivative with respect to one variable."""
        idx = which if isinstance(which, int) else self.ctx.index(which)
        out = {}
        for m, c in self.terms.items():
            e = m[idx]
            if e == 0:
                continue
            dm = list(m)
            dm[idx] = e - 1
            out[tuple(dm)] = c * e
        return Poly(self.ctx, out, _clean=True)

    # -- comparisons / display ------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash((self.ctx, frozenset(self.terms.items())))

    def __str__(self):
        from .parsing import poly_to_text

        return poly_to_text(self)

    def __repr__(self):
        return f"Poly({self})"


def poly_ring(names, field=QQ, gradings=()):
    """Convenience: build a context and its variable polynomials."""
    ctx = VarContext(tuple(names), field, tuple(tuple(r) for r in gradings))
    return ctx, [Poly.variable(ctx, i) for i in range(ctx.nvars)]
