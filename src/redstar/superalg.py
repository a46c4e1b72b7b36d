"""The BRST algebra: ghosts, antighosts, graded products and brackets.

Elements are sparse maps from (ghost index set, antighost index set) to
Series coefficients.  Index sets are strictly increasing tuples; the
canonical monomial order puts ghosts e^1 < ... < e^l before antighosts
e_1 < ... < e_l, and all reordering signs are absorbed into coefficients.

Convention notes (pinned by the identity test suite, see tests):
  * i^a is the odd left derivation with i^a(e_b) = delta, i^a(e^b) = 0;
    i_a annihilates ghosts the same way.
  * The Clifford product is mu(exp(c*nu*T)(x (x) y)) with
    T(x (x) y) = sum_a (-1)^{|x|} i^a(x) (x) i_a(y) and c = -2.
  * The even graded Poisson bracket pairs ghosts with antighosts at
    strength 2, the normalization under which the charge bracket equals
    the codifferential plus twice the Koszul differential, and under which
    the bracket is the first-order supercommutator of the graded star
    product.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations
from math import factorial
from typing import NamedTuple

from .errors import ContextError, DivisibilityError, ReliabilityError
from .poisson import poisson_bracket, star_pass
from .poly import Poly, VarContext
from .series import Series, add_shifted


@dataclass(frozen=True)
class LieAlgebraData:
    """The structure constants of the Lie algebra, stored sparse.

    `entries` holds the nonzero (a, b, c, f_ab^c) (0-based) in (a, b, c)
    order, f_ab^c being the coefficient of the c-th basis vector in
    [e_a, e_b]; `traces` has traces[a] = tr(ad e_a) = sum_b f_ab^b, and
    `pairs` groups the entries by a < b.  Build it with `build`, which
    validates it.
    """

    dim: int
    entries: tuple
    traces: tuple

    @classmethod
    def build(cls, dim, f_entries=()):
        """Construct from entries (a, b, c, value), 1-based indices.

        Each entry sets f_ab^c = value and f_ba^c = -value, replacing an
        earlier one.  A nonzero f_aa^c is not antisymmetric; the Jacobi
        identity is checked on the sparse rows [e_a, e_b].
        """
        f = {}
        for a, b, c, v in f_entries:
            v = Fraction(v)
            f[a - 1, b - 1, c - 1] = v
            f[b - 1, a - 1, c - 1] = -v
        if any(v for (a, b, _), v in f.items() if a == b):
            raise ValueError("structure constants are not antisymmetric")
        entries = tuple(sorted((a, b, c, v) for (a, b, c), v in f.items() if v))
        rows = {}
        traces = [Fraction(0)] * dim
        for a, b, c, v in entries:
            rows.setdefault((a, b), []).append((c, v))
            if b == c:
                traces[a] += v
        # [[e_a, e_b], e_c] + cyclic is alternating, so a < b < c suffices
        for a, b, c in combinations(range(dim), 3):
            jac = {}
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                for m, u in rows.get((x, y), ()):
                    for e, w in rows.get((m, z), ()):
                        jac[e] = jac.get(e, 0) + u * w
            if any(jac.values()):
                raise ValueError("structure constants fail the Jacobi identity")
        return cls(dim, entries, tuple(traces))

    @property
    def abelian(self):
        return not self.entries

    @property
    def unimodular(self):
        return not any(self.traces)

    @property
    def pairs(self):
        """((a, b), ((c, f_ab^c), ...)) for every pair a < b, in order."""
        rows = {}
        for a, b, c, v in self.entries:
            rows.setdefault((a, b), []).append((c, v))
        return [((a, b), rows.get((a, b), ())) for a, b in combinations(range(self.dim), 2)]


# -- sign utilities -----------------------------------------------------------


def _merge_sign(seq1, seq2):
    """Koszul sign for concatenating two sorted odd-generator sequences.

    Returns (sign, merged sorted tuple) or (0, None) when a generator repeats.
    """
    if not seq1:
        return 1, tuple(seq2)
    if not seq2:
        return 1, tuple(seq1)
    inversions = 0
    for y in seq2:
        for x in seq1:
            if x == y:
                return 0, None
            if x > y:
                inversions += 1
    return (-1) ** inversions, tuple(sorted(seq1 + seq2))


def term_parity(key):
    ghosts, antighosts = key
    return (len(ghosts) + len(antighosts)) % 2


def term_degree(key):
    ghosts, antighosts = key
    return len(ghosts) - len(antighosts)


def _remove_antighost(key, a):
    """Action of i^a on a canonical term: (sign, new key) or None."""
    ghosts, antighosts = key
    if a not in antighosts:
        return None
    pos = antighosts.index(a)
    sign = (-1) ** (len(ghosts) + pos)
    return sign, (ghosts, antighosts[:pos] + antighosts[pos + 1 :])


def _remove_ghost(key, a):
    """Action of i_a on a canonical term: (sign, new key) or None."""
    ghosts, antighosts = key
    if a not in ghosts:
        return None
    pos = ghosts.index(a)
    sign = (-1) ** pos
    return sign, (ghosts[:pos] + ghosts[pos + 1 :], antighosts)


def _lower(floor, reliable):
    """The floor `floor` (None: no vanished contribution) lowered to `reliable`."""
    return reliable if floor is None or reliable < floor else floor


def _floors(x, y):
    """The lower of the floors of x and y."""
    return x.floor if y.floor is None else _lower(x.floor, y.floor)


class SuperElement:
    """Element of the BRST algebra with Series coefficients.

    A term whose coefficient vanishes in every nu slot is not stored.  Its
    reliable order is not lost: `floor` is the minimum reliable order of
    every contribution that vanished on the way to this element (None if
    none did), as a Series sum keeps the minimum of its summands'.  That
    vanish-to-floor rule lives in the constructor and in `__add__` only; a
    `_clean=True` element stores its terms as given, so one that keeps a
    vanished term hands it to the next `+` (as `_clifford_expansion` does).
    """

    __slots__ = ("ctx", "dim", "order", "terms", "floor")

    def __init__(self, ctx, dim, order, terms=None, _clean=False, floor=None):
        self.ctx = ctx
        self.dim = dim
        self.order = order
        if terms is None:
            self.terms = {}
        elif _clean:
            self.terms = terms
        else:
            clean = {}
            for key, coeff in terms.items():
                if isinstance(coeff, Poly):
                    coeff = Series.from_poly(coeff, order)
                if not all(c.is_zero() for c in coeff.coeffs):
                    clean[key] = coeff
                else:
                    floor = _lower(floor, coeff.reliable)
            self.terms = clean
        self.floor = floor

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, ctx, dim, order):
        return cls(ctx, dim, order, {}, _clean=True)

    @classmethod
    def scalar(cls, coeff, dim):
        """Embed a Poly or Series as a ghost-free element."""
        if isinstance(coeff, Poly):
            raise TypeError("wrap the Poly in a Series first (order is ambiguous)")
        return cls(coeff.ctx, dim, coeff.order, {((), ()): coeff})

    @classmethod
    def from_poly(cls, p, dim, order):
        return cls(p.ctx, dim, order, {((), ()): Series.from_poly(p, order)})

    @classmethod
    def generator(cls, ctx, dim, order, ghosts=(), antighosts=(), coeff=1):
        key = (tuple(ghosts), tuple(antighosts))
        if list(key[0]) != sorted(set(key[0])) or list(key[1]) != sorted(set(key[1])):
            raise ValueError("generator index sets must be strictly increasing")
        series = Series.const(ctx, coeff, order)
        return cls(ctx, dim, order, {key: series})

    def _check(self, other):
        if self.ctx != other.ctx or self.dim != other.dim or self.order != other.order:
            raise ContextError("super elements live in different contexts")

    # -- linear structure ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, SuperElement):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        floor = _floors(self, other)
        for key, coeff in other.terms.items():
            cur = out.get(key)
            s = coeff if cur is None else cur + coeff
            if all(c.is_zero() for c in s.coeffs):
                out.pop(key, None)
                floor = _lower(floor, s.reliable)
            else:
                out[key] = s
        return SuperElement(self.ctx, self.dim, self.order, out, _clean=True, floor=floor)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.map_terms(lambda c: -c)

    def map_terms(self, fn, order=None, drop=0):
        """Apply a Series -> Series map to every term, dropping terms mapped to zero.

        `order` is the truncation order of the result (default: unchanged).
        fn lowers a reliable order by `drop` (1 for a division by nu), and
        the floor moves with it.
        """
        order = self.order if order is None else order
        floor = None if self.floor is None else min(self.floor - drop, order)
        out = {key: fn(coeff) for key, coeff in self.terms.items()}
        return SuperElement(self.ctx, self.dim, order, out, floor=floor)

    def scale(self, c):
        return self.map_terms(lambda coeff: coeff.scale(c))

    def shift_nu(self, k):
        return self.map_terms(lambda c: c.shift_nu(k))

    def div_nu(self):
        return self.map_terms(Series.div_nu, drop=1)

    # -- structure queries ----------------------------------------------------

    def is_zero(self, upto=None):
        """Whether every term vanishes through `upto` (default: each term's reliable order).

        Asking beyond the floor raises ReliabilityError, as the Series of
        a vanished term would.
        """
        if upto is not None and self.floor is not None and upto > self.floor:
            raise ReliabilityError(
                f"zero test requested to order {upto} but a vanished term was "
                f"reliable only to {self.floor}"
            )
        return all(c.is_zero(upto) for c in self.terms.values())

    @property
    def reliable(self):
        floor = self.order if self.floor is None else self.floor
        return min([floor, *(c.reliable for c in self.terms.values())])

    def parity_components(self):
        even = {}
        odd = {}
        for key, coeff in self.terms.items():
            (even if term_parity(key) == 0 else odd)[key] = coeff
        mk = lambda t: SuperElement(
            self.ctx, self.dim, self.order, t, _clean=True, floor=self.floor
        )
        return mk(even), mk(odd)

    def as_series(self):
        """The scalar part of a ghost- and antighost-free element, reliable to at most its floor."""
        if any(k != ((), ()) for k in self.terms):
            raise ValueError("element has ghost or antighost content")
        s = self.terms.get(((), ()), Series.zero(self.ctx, self.order))
        if self.floor is None or s.reliable <= self.floor:
            return s
        return Series(self.ctx, self.order, s.coeffs, self.floor)

    def truncate(self, order):
        return self.map_terms(lambda c: c.truncate(order), order)

    def classical_part(self):
        """The nu^0 part, as an order-0 element."""
        return self.truncate(0)

    def coefficient(self, ghosts=(), antighosts=()):
        key = (tuple(ghosts), tuple(antighosts))
        return self.terms.get(key, Series.zero(self.ctx, self.order))

    def __eq__(self, other):
        if not isinstance(other, SuperElement):
            return NotImplemented
        return (
            self.ctx == other.ctx
            and self.dim == other.dim
            and self.order == other.order
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ctx, self.dim, self.order, frozenset(self.terms)))

    def max_degree(self):
        return max((c.max_degree() for c in self.terms.values()), default=-1)

    def nonzero_term_count(self):
        return sum(c.nonzero_term_count() for c in self.terms.values())

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for key in sorted(self.terms, key=lambda k: (term_degree(k), k)):
            ghosts, antighosts = key
            gens = [f"e^{a}" for a in ghosts] + [f"e_{a}" for a in antighosts]
            body = "*".join(gens) if gens else "1"
            chunks.append(f"({self.terms[key]})*{body}")
        return " + ".join(chunks)

    def __repr__(self):
        return f"SuperElement({self})"


# -- derivations ---------------------------------------------------------------


def _contract(x, remove, a):
    """The odd left derivation whose action on one term is remove(key, a)."""
    out = {}
    for key, coeff in x.terms.items():
        hit = remove(key, a)
        if hit is not None:
            sign, new_key = hit
            out[new_key] = coeff.scale(sign)
    return SuperElement(x.ctx, x.dim, x.order, out, floor=x.floor)


def contract_ghost(x, a):
    """i_a: the odd left derivation dual to the ghost e^a."""
    return _contract(x, _remove_ghost, a)


def contract_antighost(x, a):
    """i^a: the odd left derivation dual to the antighost e_a."""
    return _contract(x, _remove_antighost, a)


# -- products -------------------------------------------------------------------


def _merge_terms(key1, key2):
    """Sign and key of the product of two canonical terms, or (0, None).

    Moving the antighosts a1 past the ghosts g2 costs (-1)^{|a1| |g2|}; the
    ghosts and the antighosts then merge separately.
    """
    (g1, a1), (g2, a2) = key1, key2
    sign_g, ghosts = _merge_sign(g1, g2)
    if sign_g == 0:
        return 0, None
    sign_a, antighosts = _merge_sign(a1, a2)
    if sign_a == 0:
        return 0, None
    return sign_g * sign_a * (-1) ** (len(a1) * len(g2)), (ghosts, antighosts)


def super_mul(x, y):
    """The graded commutative product (coefficients multiply pointwise).

    Unlike the star product, zero products are added in and lower `reliable`.
    """
    x._check(y)
    out = {}
    for k1, c1 in x.terms.items():
        for k2, c2 in y.terms.items():
            sign, key = _merge_terms(k1, k2)
            if sign == 0:
                continue
            s = (c1 * c2).scale(sign)
            cur = out.get(key)
            out[key] = s if cur is None else cur + s
    return SuperElement(x.ctx, x.dim, x.order, out, floor=_floors(x, y))


def canonical_monomial(ghosts=(), antighosts=()):
    """Sign and canonical key of the product e^{g_1} ... e^{g_k} e_{a_1} ... e_{a_m}.

    The generators are merged in from the left by `_merge_terms`; no index
    may repeat within the ghosts or within the antighosts.
    """
    sign, key = 1, ((), ())
    for gen in [((g,), ()) for g in ghosts] + [((), (a,)) for a in antighosts]:
        s, key = _merge_terms(key, gen)
        sign *= s
    return sign, key


def left_monomial(ghosts=(), antighosts=(), coeff=1):
    """The map x -> coeff * e^{g_1} ... e^{g_k} e_{a_1} ... e_{a_m} * x.

    The monomial is put into canonical form once, here; each call builds it
    at the order of x and multiplies with `super_mul`.  `op_sum` applies it
    to one unit term per ghost key, when it builds that key's plan.
    """
    sign, key = canonical_monomial(ghosts, antighosts)
    c = coeff * sign

    def mul(x):
        unit = Series.const(x.ctx, c, x.order)
        return super_mul(SuperElement(x.ctx, x.dim, x.order, {key: unit}, _clean=True), x)

    return mul


def _pairings(kx, ky):
    """One application of T(x (x) y) = sum_a (-1)^{|x|} i^a(x) (x) i_a(y) to two keys.

    Yields (sign, kx without e_a, ky without e^a) for each index a that
    pairs an antighost of kx with a ghost of ky.
    """
    parity_sign = (-1) ** term_parity(kx)
    for a in kx[1]:
        if a in ky[0]:
            s1, kx2 = _remove_antighost(kx, a)
            s2, ky2 = _remove_ghost(ky, a)
            yield parity_sign * s1 * s2, kx2, ky2


@lru_cache(maxsize=None)
def _clifford_ghost_terms(key1, key2, max_k):
    """Contraction expansion of two ghost monomials, up to level max_k.

    The tuple of (k, coefficient, merged key) for mu(T^k(x (x) y)) / k!,
    with T as in `_pairings`, in increasing k.  The coefficient is an int
    for k < 2 (so level 0 scales by the int sign) and a Fraction beyond.
    """
    out = []
    level = [(key1, key2, 1)]
    k = 0
    while level and k <= max_k:
        for kx, ky, c in level:
            sign, merged = _merge_terms(kx, ky)
            if sign != 0:
                out.append((k, c * sign if k < 2 else Fraction(c * sign, factorial(k)), merged))
        level = [(kx2, ky2, c * s) for kx, ky, c in level for s, kx2, ky2 in _pairings(kx, ky)]
        k += 1
    return tuple(out)


def _accumulate(out, key, series, floor):
    """Add `series` into out[key] unless it vanishes in every nu slot.

    A skipped zero leaves the reliable order of out[key] alone and lowers
    the returned floor instead.
    """
    if all(p.is_zero() for p in series.coeffs):
        return _lower(floor, series.reliable)
    cur = out.get(key)
    out[key] = series if cur is None else cur + series
    return floor


@dataclass(frozen=True)
class StarProduct:
    """The graded star product: Moyal on coefficients, Clifford on ghosts.

    A term pair (c1 under key k1, c2 under key k2) gives x y, at each
    Clifford contraction level k of (k1, k2), s c^k nu^k (c1 * c2), with s
    and the merged key from `_clifford_ghost_terms` and c the Clifford
    coefficient.  Both products hand these levels to `_clifford_expansion`
    as weights on the even and odd Moyal orders E and O of c1 * c2.
    """

    lam: object  # PoissonData
    clifford_coeff: Fraction = Fraction(-2)

    def _levels(self, k1, k2, order):
        """(k, key, s c^k) for the contraction levels k <= order of (k1, k2); an int at k = 0."""
        c = self.clifford_coeff
        terms = _clifford_ghost_terms(k1, k2, order)
        return [(k, key, s * c**k if k else s) for k, s, key in terms]

    def star(self, x, y):
        """x y: each level of a term pair weighs E and O alike."""
        levels = lambda k1, k2: [(k, key, w, w) for k, key, w in self._levels(k1, k2, x.order)]
        return _clifford_expansion(x, y, self.lam, [(_terms(x), _terms(y), levels)])

    def commutator(self, x, y):
        """Graded star commutator [x, y] = x y - (-1)^{|x||y|} y x.

        y x takes the levels of (k2, k1) with c2 * c1 = E - O.  At level 0
        both products land on one key: the ghosts are odd, so k2 k1 =
        (-1)^{|k1||k2|} k1 k2, and after the graded sign y x takes s (E - O)
        from the s (E + O) of x y, leaving 2 s O.  So a term pair gives
        2 s O at level 0, s c^k (E + O) at each level k >= 1 of (k1, k2) and
        -(-1)^{|x||y|} s c^k (E - O) at each level k >= 1 of (k2, k1), times
        nu^k.  The four parity blocks (x's even or odd terms against y's)
        are expanded one after another.
        """

        def levels(k1, k2, sign):
            xy, yx = self._levels(k1, k2, x.order), self._levels(k2, k1, x.order)
            return (
                [(0, key, 0, 2 * w) for k, key, w in xy if not k]
                + [(k, key, w, w) for k, key, w in xy if k]
                + [(k, key, -sign * w, sign * w) for k, key, w in yx if k]
            )

        def pieces(z):
            terms = _terms(z)
            return [[t for t in terms if term_parity(t[0]) == p] for p in (0, 1)]

        blocks = [
            (xs, ys, partial(levels, sign=(-1) ** (px * py)))
            for px, xs in enumerate(pieces(x))
            for py, ys in enumerate(pieces(y))
        ]
        return _clifford_expansion(x, y, self.lam, blocks)


def _terms(z):
    """(key, coefficient, lowest nonzero nu slot) for each term of z."""
    return [
        (key, c, next(i for i, p in enumerate(c.coeffs) if p.terms)) for key, c in z.terms.items()
    ]


def _clifford_expansion(x, y, lam, blocks):
    """The sum over `blocks` of the Clifford expansions of their term pairs.

    A block is (xs, ys, levels): xs and ys hold (key, coefficient, lowest
    slot) for terms of x and y, as `_terms` gives them, and levels(k1, k2)
    lists (k, key, e, o) for a term pair: nu^k (e E + o O) goes under key,
    E and O being the even and odd Moyal orders of c1 * c2.  At k = 0 the
    weights are (n, n) or (0, n) for an int n.

    A contribution counts toward its key's reliable order min(c1.reliable,
    c2.reliable) when k <= order - i0 - j0 for the lowest slots i0, j0 and
    (e, o) != (0, 0); each other one lowers the floor to that order.  The
    rule is exact for E + O and E - O, whose lowest slot i0 + j0 holds
    c1_{i0} c2_{j0} != 0.  A pair whose one counted contribution is at
    level 0 runs `star_pass` at the int weight n straight into the key's
    nu slots; any other counted pair runs one pass into scratch slots and
    adds them in at each level (`add_shifted`).  Each block is summed per
    key and added in with `+` as a `_clean=True` element that keeps its
    vanished keys: `SuperElement.__add__` lowers an earlier block's term
    under such a key to its reliable order, or else the floor.
    """
    x._check(y)
    if lam.ctx != x.ctx:
        raise ContextError("star operands live in different contexts")
    order = x.order
    out = SuperElement(x.ctx, x.dim, order, {}, _clean=True, floor=_floors(x, y))
    none = [None] * (order + 1)

    def slots(acc, key, reliable):
        entry = acc.get(key)
        if entry is None:
            entry = acc[key] = [reliable, [{} for _ in range(order + 1)]]
        elif reliable < entry[0]:
            entry[0] = reliable
        return entry[1]

    for xs, ys, levels in blocks:
        acc, floor = {}, None  # key -> [reliable, {monomial: coefficient} per nu power]
        for k1, c1, i0 in xs:
            for k2, c2, j0 in ys:
                reliable, top = min(c1.reliable, c2.reliable), order - i0 - j0
                live = []
                for term in levels(k1, k2):
                    if term[0] <= top and (term[2] or term[3]):
                        live.append(term)
                    else:
                        floor = _lower(floor, reliable)
                if len(live) == 1 and live[0][0] == 0:
                    _, key, e, o = live[0]
                    target = slots(acc, key, reliable)
                    star_pass(c1, c2, lam, target if e else none, target if o else none, o)
                elif live:
                    even, odd = [{} for _ in range(order + 1)], [{} for _ in range(order + 1)]
                    star_pass(c1, c2, lam, even, odd)
                    for k, key, e, o in live:
                        target = slots(acc, key, reliable)
                        add_shifted(target, even, k, e)
                        add_shifted(target, odd, k, o)
        block = {key: Series.from_slots(x.ctx, order, t, r) for key, (r, t) in acc.items()}
        out = out + SuperElement(x.ctx, x.dim, order, block, _clean=True, floor=floor)
    return out


def graded_poisson(x, y, lam):
    """The even graded Poisson bracket.

    Extends the coefficient Poisson bracket; ghosts pair with antighosts at
    strength 2 (see the module docstring).  Bilinear over nu slots.
    """
    x._check(y)
    bracket = lambda a, b: poisson_bracket(a, b, lam)
    out = {}
    floor = _floors(x, y)
    for k1, c1 in x.terms.items():
        p1 = term_parity(k1)
        for k2, c2 in y.terms.items():
            p2 = term_parity(k2)
            # coefficient bracket, ghost parts multiply
            sign, key = _merge_terms(k1, k2)
            if sign != 0:
                floor = _accumulate(out, key, c1.convolve(c2, bracket).scale(sign), floor)
            # ghost pairing at strength 2: antighosts of x with ghosts of y,
            # then antighosts of y with ghosts of x
            prod = None  # c1 * c2, computed on first use
            for pairs, weight in (
                (_pairings(k1, k2), -2),
                (_pairings(k2, k1), 2 * (-1) ** (p1 * p2)),
            ):
                for s, kx, ky in pairs:
                    msign, key2 = _merge_terms(kx, ky)
                    if msign != 0:
                        if prod is None:
                            prod = c1 * c2
                        floor = _accumulate(out, key2, prod.scale(weight * s * msign), floor)
    return SuperElement(x.ctx, x.dim, x.order, out, floor=floor)


# -- operator handles -----------------------------------------------------------


@dataclass
class OperatorHandle:
    """An evaluable linear map with declared degree and filtration data."""

    name: str
    fn: object
    degree: int = 0
    raises_filtration: frozenset = dc_field(default_factory=frozenset)

    def __call__(self, x):
        return self.fn(x)

    def __repr__(self):
        return f"<op {self.name} (degree {self.degree:+d})>"


def op_compose(f, g, name=None):
    """f after g."""
    return OperatorHandle(
        name or f"{f.name}.{g.name}",
        lambda x: f(g(x)),
        f.degree + g.degree,
        f.raises_filtration | g.raises_filtration,
    )


def op_scale(f, c, name=None):
    return OperatorHandle(
        name or f"{c}*{f.name}", lambda x: f(x).scale(c), f.degree, f.raises_filtration
    )


class CoefficientMap(NamedTuple):
    """A map on Series coefficients that writes its kernel leaves into nu slots.

    write(c, n, slots) adds n times the image of the Series c into `slots`,
    one {monomial: coefficient} dict per nu power from 0 up, which may be
    shorter than c (the powers past its end are dropped).  An `exact` map
    sends a nonzero series to one that is nonzero in the same lowest nu
    slot (the identity, x J or * J for J != 0), so its image vanishes only
    by truncation; the evaluator then gives it any weight n and its
    caller's slots.  Any other map is called with n = 1 on scratch slots.
    """

    name: str
    write: object
    exact: bool = False


def _write_scaled(c, n, slots):
    """The identity map's writer: add n c into slots."""
    scaled = n != 1
    for p, slot in zip(c.coeffs, slots):
        for m, v in p.terms.items():
            if scaled:
                v = v * n
            w = slot.get(m)
            slot[m] = v if w is None else w + v


IDENTITY = CoefficientMap("id", _write_scaled, exact=True)


class Piece(NamedTuple):
    """One summand x -> scalar * monomial * coeff(path(x)) * nu^shift of an `op_sum`.

    `path` is a tuple of (`contract_ghost` or `contract_antighost`, index)
    pairs, applied in order; `monomial` is (ghosts, antighosts), multiplied
    on the left; `coeff` acts on the coefficients; `shift` multiplies by
    that power of nu (-1 divides by nu, costing one reliable order).
    """

    path: tuple = ()
    monomial: tuple = ((), ())
    scalar: object = 1
    coeff: CoefficientMap = IDENTITY
    shift: int = 0


_SIGNS = VarContext(())  # no variables: its unit terms carry only a ghost key and a sign


@lru_cache(maxsize=None)
def _ghost_step(path, monomial, key):
    """(sign, output key) of monomial * path(unit term of key), or None if either kills it.

    The path's contractions act on the key alone; `left_monomial` (one
    `super_mul`) then multiplies the signed unit term of the contracted key
    over a context without variables.  Computed once per (path, monomial,
    key) in a process; every `op_sum` plan reads it.
    """
    sign = 1
    for contract, a in path:
        hit = (_remove_ghost if contract is contract_ghost else _remove_antighost)(key, a)
        if hit is None:
            return None
        s, key = hit
        sign *= s
    if not _merge_terms(canonical_monomial(*monomial)[1], key)[0]:
        return None
    y = SuperElement(_SIGNS, 0, 0, {key: Series.const(_SIGNS, sign, 0)}, _clean=True)
    ((out_key, coeff),) = left_monomial(*monomial)(y).terms.items()
    return (1 if coeff.coeffs[0].constant_term() == 1 else -1), out_key


def op_sum(name, degree, pieces, raises_filtration=frozenset()):
    """The operator x -> sum over `pieces` (`Piece`s), evaluated from per-key plans.

    The one sum over contractions behind the Koszul differential, R, q, u,
    koszul_nu, t = koszul_nu - koszul and the codifferentials.  The plan of
    an input ghost key K is built on first use, once per handle, from
    `_ghost_step`: each piece's path acts on K and its monomial multiplies
    the result through `left_monomial`, and the pieces that survive give
    entries (output key, sign times scalar, coefficient map, nu shift).
    Each output key must change `term_degree` by `degree`.
    One pass over the terms of x then writes every entry's image into one
    table of nu slots per output key, and each key becomes one Series.

    Floor rule: the sum starts at x's floor (lowered by one if a piece
    divides by nu).  An entry whose image vanishes (a map's leaves that
    cancel, or an image shifted past the truncation) lowers the floor to
    its reliable order, min(c.reliable, order) less the divisions; any
    other entry lowers its key's reliable order to it, and a key whose
    entries cancel lowers the floor in the SuperElement constructor.  A
    piece whose path or monomial kills a key contributes exactly zero and
    lowers nothing.  A division by nu raises DivisibilityError on a
    nonzero leaf in nu slot 0 rather than drop it.
    """
    pieces = tuple(pieces)
    drop = max([0] + [-p.shift for p in pieces])
    plans = {}  # input key -> ((out key, weight, write, direct, shift), ...)

    def plan(x, key):
        entries = []
        for piece in pieces:
            step = _ghost_step(piece.path, piece.monomial, key)
            if step is None or not piece.scalar:
                continue
            sign, out_key = step
            if term_degree(out_key) - term_degree(key) != degree:
                raise ValueError(f"{name} declares degree {degree:+d} but maps {key} to {out_key}")
            w = sign * piece.scalar
            w = 1 if w == 1 else -1 if w == -1 else x.ctx.field.coerce(w)
            direct = piece.coeff.exact and piece.shift >= 0
            entries.append((out_key, w, piece.coeff.write, direct, piece.shift))
        entries = plans[key] = tuple(entries)
        return entries

    def fn(x):
        order = x.order
        floor = None if x.floor is None else min(x.floor - drop, order)
        acc = {}  # out key -> [reliable, {monomial: coefficient} per nu power]

        def target(key, reliable):
            out = acc.get(key)
            if out is None:
                out = acc[key] = [reliable, [{} for _ in range(order + 1)]]
            elif reliable < out[0]:
                out[0] = reliable
            return out[1]

        for key, c in x.terms.items():
            entries = plans.get(key)
            if entries is None:
                entries = plan(x, key)
            for out_key, w, write, direct, shift in entries:
                reliable = c.reliable + shift if shift < 0 else c.reliable
                if direct:
                    if shift and all(not p.terms for p in c.coeffs[: order + 1 - shift]):
                        floor = _lower(floor, reliable)
                    elif shift:
                        write(c, w, target(out_key, reliable)[shift:])
                    else:
                        write(c, w, target(out_key, reliable))
                    continue
                scratch = [{} for _ in range(order + 1)]
                write(c, 1, scratch)
                if shift < 0 and any(v for s in scratch[:-shift] for v in s.values()):
                    lost = Poly(x.ctx, {m: v for m, v in scratch[0].items() if v}, _clean=True)
                    raise DivisibilityError(
                        f"series is not divisible by nu (nonzero constant term): {lost}"
                    )
                live = scratch[-shift:] if shift < 0 else scratch[: order + 1 - shift]
                if any(v for s in live for v in s.values()):
                    add_shifted(target(out_key, reliable), live, max(shift, 0), w)
                else:
                    floor = _lower(floor, reliable)
        terms = {k: Series.from_slots(x.ctx, order, t, r) for k, (r, t) in acc.items()}
        return SuperElement(x.ctx, x.dim, order, terms, floor=floor)

    return OperatorHandle(name, fn, degree, raises_filtration)


def apply_coefficient_map(x, cmap, shift=0):
    """cmap on every coefficient of x, times nu^shift: a one-piece `op_sum`."""
    return op_sum(cmap.name, 0, [Piece(coeff=cmap, shift=shift)])(x)


@dataclass(frozen=True)
class CoefficientAction:
    """An action (j, x) -> j . x on the coefficients of x, one CoefficientMap per j.

    `make(j)` is the map, applied with `shift` powers of nu (-1 for the
    (1/nu) star commutator).  `piece` puts it into a codifferential.
    """

    make: object
    shift: int = 0

    def piece(self, j, ghosts=()):
        return Piece(monomial=(ghosts, ()), coeff=self.make(j), shift=self.shift)

    def __call__(self, j, x):
        return apply_coefficient_map(x, self.make(j), self.shift)


_UNBOUNDED = float("inf")  # the reliable order of a nu-free column


def op_columns(f, name=None, nu_free=False):
    """A C[[nu]]-linear f evaluated once per basis column.

    The one path that cuts an element into basis columns and reassembles
    it: it serves the Koszul `res` and `h`, the deformed res_nu and the
    classical Phi and H.  A column is f of one basis element m*g (a
    monomial m under a ghost key g) at truncation order N, keyed by
    (N, g, m) and computed on first use.  It is kept as its reliable order,
    the floor of an image without terms (None for a nu-free f) and a flat
    tuple of (out key, nu power, monomial, coefficient) entries.
    Then f(x) is the sum over the terms c * nu^s * m * g of x of
    c * nu^s * f(m g), truncated at x.order.  An output term is reliable to
    the minimum of x.reliable (the whole input's, as the Koszul maps take
    it) and the reliable orders of the columns that feed it.  The slot sums
    keep cancelled entries, which `Series.from_slots` drops; an output term
    that cancels altogether lowers the floor to that order, in the
    SuperElement constructor.  A column whose image has no terms but a
    floor (it vanished) lowers the floor of every image it feeds to that
    floor, as f itself would.

    A `nu_free` f (one that neither reads nor makes nu powers, like the
    Koszul `res` and `h`) has one column per (g, m), filled at order 0 and
    served at every order; it bounds no reliable order, so an output term
    is reliable to x.reliable.
    """
    columns = {}

    def column(x, key, mono):
        ckey = (key, mono) if nu_free else (x.order, key, mono)
        col = columns.get(ckey)
        if col is None:
            order = 0 if nu_free else x.order
            unit = Series(x.ctx, order, [Poly(x.ctx, {mono: x.ctx.field.one}, _clean=True)])
            image = f(SuperElement(x.ctx, x.dim, order, {key: unit}, _clean=True))
            col = columns[ckey] = (
                _UNBOUNDED if nu_free else image.reliable,
                None if nu_free or image.terms else image.floor,
                tuple(
                    (out_key, t, m, c)
                    for out_key, series in image.terms.items()
                    for t, p in enumerate(series.coeffs)
                    for m, c in p.terms.items()
                ),
            )
        return col

    def fn(x):
        order = x.order
        floor = x.floor
        acc = {}  # out key -> [reliable, {monomial: coefficient} per nu power]
        for key, series in x.terms.items():
            for s, p in enumerate(series.coeffs):
                for mono, c in p.terms.items():
                    reliable, vanished, entries = column(x, key, mono)
                    if vanished is not None:
                        floor = _lower(floor, vanished)
                    for out_key, t, m, v in entries:
                        if s + t > order:
                            continue
                        out = acc.get(out_key)
                        if out is None:
                            out = acc[out_key] = [reliable, [{} for _ in range(order + 1)]]
                        elif reliable < out[0]:
                            out[0] = reliable
                        slot = out[1][s + t]
                        w = slot.get(m)
                        slot[m] = c * v if w is None else w + c * v
        cap = x.reliable
        terms = {k: Series.from_slots(x.ctx, order, t, min(r, cap)) for k, (r, t) in acc.items()}
        return SuperElement(x.ctx, x.dim, order, terms, floor=floor)

    return OperatorHandle(name or f"cols({f.name})", fn, f.degree, f.raises_filtration)
