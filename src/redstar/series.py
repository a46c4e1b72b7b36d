"""Truncated formal power series in the deformation parameter nu.

A Series keeps polynomial coefficients c_0 .. c_N for a fixed truncation
order N and never consults anything beyond it.  Division by nu loses one
order of information; the `reliable` attribute tracks how far the
coefficients can honestly be trusted, and zero tests beyond that order
raise instead of guessing.
"""

from __future__ import annotations

from .errors import (
    ContextError,
    DivisibilityError,
    ReliabilityError,
    TruncationError,
)
from .poly import Poly


class Series:
    __slots__ = ("ctx", "order", "coeffs", "reliable")

    def __init__(self, ctx, order, coeffs, reliable=None):
        self.ctx = ctx
        self.order = order
        coeffs = list(coeffs)
        if len(coeffs) < order + 1:
            coeffs += [Poly.zero(ctx)] * (order + 1 - len(coeffs))
        elif len(coeffs) > order + 1:
            raise TruncationError("too many coefficients for the truncation order")
        self.coeffs = tuple(coeffs)
        self.reliable = order if reliable is None else min(reliable, order)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, ctx, order):
        return cls(ctx, order, [])

    @classmethod
    def from_poly(cls, p, order):
        return cls(p.ctx, order, [p])

    @classmethod
    def from_slots(cls, ctx, order, slots, reliable=None):
        """The series whose nu^k coefficient is slots[k], a {monomial: coefficient} dict.

        The slot convention of every sum over nu powers (`star_pass`,
        `add_shifted`): the dicts may keep zero values, which are dropped
        here.  An empty slot is one zero Poly shared by the whole series.  A
        term that vanishes altogether is a zero series that keeps `reliable`;
        `SuperElement` turns it into a lowered floor.
        """
        zero = Poly.zero(ctx)
        coeffs = []
        for t in slots:
            terms = {m: c for m, c in t.items() if c}
            coeffs.append(Poly(ctx, terms, _clean=True) if terms else zero)
        return cls(ctx, order, coeffs, reliable)

    @classmethod
    def const(cls, ctx, c, order):
        return cls(ctx, order, [Poly.const(ctx, c)])

    @classmethod
    def nu(cls, ctx, order, power=1):
        coeffs = [Poly.zero(ctx)] * (order + 1)
        if power <= order:
            coeffs[power] = Poly.const(ctx, 1)
        return cls(ctx, order, coeffs)

    # -- bookkeeping --------------------------------------------------------

    def _check(self, other):
        if self.ctx != other.ctx:
            raise ContextError("series live in different variable contexts")
        if self.order != other.order:
            raise TruncationError(
                f"truncation orders differ: {self.order} vs {other.order}"
            )

    def coefficient(self, k):
        if k > self.order:
            raise TruncationError(f"order {k} beyond truncation {self.order}")
        return self.coeffs[k]

    def classical(self):
        """The nu^0 part."""
        return self.coeffs[0]

    def truncate(self, order):
        if order > self.order:
            raise TruncationError("cannot extend a truncated series")
        return Series(self.ctx, order, self.coeffs[: order + 1], self.reliable)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        self._check(other)
        return Series(
            self.ctx,
            self.order,
            [a + b for a, b in zip(self.coeffs, other.coeffs)],
            min(self.reliable, other.reliable),
        )

    # slot-wise Poly.__sub__, not self + (-other), for the reason given there
    def __sub__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        self._check(other)
        return Series(
            self.ctx,
            self.order,
            [a - b for a, b in zip(self.coeffs, other.coeffs)],
            min(self.reliable, other.reliable),
        )

    def __neg__(self):
        return Series(self.ctx, self.order, [-c for c in self.coeffs], self.reliable)

    def __mul__(self, other):
        """sum_ij c_i d_j nu^(i+j), truncated; a Poly multiplies each slot."""
        if isinstance(other, Poly):
            return Series(
                self.ctx,
                self.order,
                [c * other for c in self.coeffs],
                self.reliable,
            )
        if not isinstance(other, Series):
            return NotImplemented
        self._check(other)
        zero = Poly.zero(self.ctx)
        out = [zero] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if i + j > self.order:
                    break
                if b.is_zero():
                    continue
                out[i + j] = out[i + j] + a * b
        return Series(self.ctx, self.order, out, min(self.reliable, other.reliable))

    __rmul__ = __mul__

    def scale(self, c):
        return Series(
            self.ctx, self.order, [p.scale(c) for p in self.coeffs], self.reliable
        )

    def shift_nu(self, k):
        """Multiply by nu^k (coefficients shift up, top ones drop off)."""
        zero = Poly.zero(self.ctx)
        coeffs = [zero] * min(k, self.order + 1) + list(self.coeffs[: self.order + 1 - k])
        return Series(self.ctx, self.order, coeffs, self.reliable)

    def div_nu(self):
        """Exact division by nu.

        Requires a vanishing constant term.  The top coefficient of the
        result is unknowable at this truncation, so the reliable order
        drops by one.
        """
        if not self.coeffs[0].is_zero():
            raise DivisibilityError(
                "series is not divisible by nu (nonzero constant term): "
                f"{self.coeffs[0]}"
            )
        coeffs = list(self.coeffs[1:]) + [Poly.zero(self.ctx)]
        return Series(self.ctx, self.order, coeffs, self.reliable - 1)

    # -- tests ---------------------------------------------------------------

    def is_zero(self, upto=None):
        """Whether all coefficients vanish through order `upto` (default: reliable).

        Asking beyond the reliable order raises ReliabilityError rather than
        silently claiming more than the computation supports; so does a
        negative order (`upto < 0`, or nothing reliable left after repeated
        `div_nu`), at which the test would evaluate no coefficient at all.
        """
        k = self.reliable if upto is None else upto
        if k < 0:
            raise ReliabilityError(
                f"zero test at order {k} evaluates no coefficient "
                f"(series reliable to {self.reliable})"
            )
        if k > self.reliable:
            raise ReliabilityError(
                f"zero test requested to order {k} but series is reliable only to "
                f"{self.reliable}"
            )
        return all(self.coeffs[j].is_zero() for j in range(0, k + 1))

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (
            self.ctx == other.ctx
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ctx, self.order, self.coeffs))

    def max_degree(self):
        return max((c.degree() for c in self.coeffs), default=-1)

    def nonzero_term_count(self):
        return sum(len(c.terms) for c in self.coeffs)

    def __str__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if k == 0:
                parts.append(str(c))
            else:
                nu = "nu" if k == 1 else f"nu^{k}"
                parts.append(f"{nu}*({c})")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"Series[{self.order}]({self})"


def add_shifted(target, source, k, w):
    """Add w times the slot dicts of source into target, k nu powers up.

    Slots shifted past the end of target are dropped (truncation), and so
    are zero values of source; w = 0 adds nothing.
    """
    if not w:
        return
    for dst, src in zip(target[k:], source):
        for m, v in src.items():
            if v:
                c = dst.get(m)
                dst[m] = v * w if c is None else c + v * w
