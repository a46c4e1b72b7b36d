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
from functools import lru_cache
from itertools import combinations
from operator import add
from typing import NamedTuple

from .errors import ContextError, DivisibilityError, ReliabilityError
from .poisson import poisson_bracket_into, star_pass
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
    `_clean=True` element stores its terms as given.
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
        # the constructor's vanish rule, inlined: routed through it, every
        # addition (1.4k-3.4k per benchmark workload) re-scans and copies each term
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

    def __eq__(self, other):
        if not isinstance(other, SuperElement):
            return NotImplemented
        return (
            self.ctx == other.ctx
            and self.dim == other.dim
            and self.order == other.order
            and self.terms == other.terms
        )

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


def left_monomial(ghosts=(), antighosts=()):
    """The map x -> e^{g_1} ... e^{g_k} e_{a_1} ... e_{a_m} * x.

    The monomial is put into canonical form once, here; each call builds it
    at the order of x and multiplies with `super_mul`.  `op_sum` applies it
    to one unit term per ghost key, when it builds that key's plan.
    """
    sign, key = canonical_monomial(ghosts, antighosts)

    def mul(x):
        unit = Series.const(x.ctx, sign, x.order)
        return super_mul(SuperElement(x.ctx, x.dim, x.order, {key: unit}, _clean=True), x)

    return mul


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


# -- coefficient maps -------------------------------------------------------------


class CoefficientMap(NamedTuple):
    """A map on Series coefficients that writes its kernel leaves into nu slots.

    write(c, n, slots) adds n times the image of the Series c into `slots`,
    one {monomial: coefficient} dict per nu power from 0 up, which may be
    shorter than c (the powers past its end are dropped); n is an int or a
    field element.  An `exact` map sends a nonzero series to one that is
    nonzero in the same lowest nu slot (the identity, x J, J * x or x * J
    for J != 0), so its image vanishes only by truncation; the evaluator
    then gives it any weight n and its caller's slots.  Any other map is
    called with n = 1 on scratch slots.  A map is its writer and that flag;
    a plan entry keeps both.
    """

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


IDENTITY = CoefficientMap(_write_scaled, exact=True)


def times(j):
    """The coefficient map c -> c J of a polynomial J, written monomial by monomial."""
    jterms = tuple(j.terms.items())

    def write(c, n, slots):
        scaled = n != 1
        for p, slot in zip(c.coeffs, slots):
            for m, v in p.terms.items():
                if scaled:
                    v = v * n
                for mj, vj in jterms:
                    key = tuple(map(add, m, mj))
                    w = slot.get(key)
                    slot[key] = v * vj if w is None else w + v * vj

    return CoefficientMap(write, exact=bool(jterms))


def bracket_with(j, lam):
    """The coefficient map c -> {J, c}, the Poisson bracket slot by slot."""

    def write(c, n, slots):
        for p, slot in zip(c.coeffs, slots):
            if p.terms:
                poisson_bracket_into(slot, j, p, lam, n)

    return CoefficientMap(write)


def left_star(j, lam):
    """The coefficient map c -> J * c, one `star_pass` with J on the left."""
    write = lambda c, n, slots: star_pass(j, c, lam, slots, slots, n)
    return CoefficientMap(write, exact=not j.is_zero())


def star_right_multiply(c, j, lam, slots, n=1):
    """Add n (c * J) into the nu slots `slots`, for a Series c and a polynomial J.

    The one writer of right star multiplication: `right_star` calls it
    through this module's global, for R and for the y x pieces of the
    star commutator.
    """
    star_pass(c, j, lam, slots, slots, n)


def right_star(j, lam):
    """The coefficient map c -> c * J, through `star_right_multiply`."""
    write = lambda c, n, slots: star_right_multiply(c, j, lam, slots, n)
    return CoefficientMap(write, exact=not j.is_zero())


def commutator_with(j, lam):
    """The coefficient map c -> [J, c]_* = J * c - c * J, twice the odd Moyal orders."""
    write = lambda c, n, slots: star_pass(j, c, lam, [None] * len(slots), slots, 2 * n)
    return CoefficientMap(write)


# -- sums over contractions -------------------------------------------------------

_UNBOUNDED = float("inf")  # the reliable order of a nu-free column or an uncapped piece


class Piece(NamedTuple):
    """One summand x -> scalar * monomial * coeff(path(x)) * nu^shift of an `op_sum`.

    `path` is a tuple of (`_remove_ghost` or `_remove_antighost`, index)
    pairs, the derivations i_a and i^a applied in order; `monomial` is
    (ghosts, antighosts), multiplied on the left; `coeff` acts on the
    coefficients; `shift` multiplies by that power of nu (-1 divides by
    nu, costing one reliable order); `reliable` caps the reliable order of
    the piece's image (a product's piece carries its left factor's).
    """

    path: tuple = ()
    monomial: tuple = ((), ())
    scalar: object = 1
    coeff: CoefficientMap = IDENTITY
    shift: int = 0
    reliable: object = _UNBOUNDED


_SIGNS = VarContext(())  # no variables: its unit terms carry only a ghost key and a sign


@lru_cache(maxsize=None)
def _ghost_step(path, monomial, key):
    """(sign, output key) of monomial * path(unit term of key), or None if either kills it.

    The path's contractions act on the key alone; `left_monomial` (one
    `super_mul`) then multiplies the signed unit term of the contracted key
    over a context without variables.  Computed once per (path, monomial,
    key) in a process; every plan reads it.
    """
    sign = 1
    for remove, a in path:
        hit = remove(key, a)
        if hit is None:
            return None
        s, key = hit
        sign *= s
    if not _merge_terms(canonical_monomial(*monomial)[1], key)[0]:
        return None
    y = SuperElement(_SIGNS, 0, 0, {key: Series.const(_SIGNS, sign, 0)}, _clean=True)
    ((out_key, coeff),) = left_monomial(*monomial)(y).terms.items()
    return (1 if coeff.coeffs[0].constant_term() == 1 else -1), out_key


def _plan(pieces, key, field, name=None, degree=None):
    """The plan of one input ghost key: an entry per piece that keeps the key.

    An entry is (output key, sign times scalar in the field, writer,
    direct, shift, reliable cap), the sign and key from `_ghost_step`; a
    piece whose path or monomial kills the key, or whose scalar is zero,
    has none.  With a `degree`, each output key must change `term_degree`
    by it.
    """
    entries = []
    for piece in pieces:
        step = _ghost_step(piece.path, piece.monomial, key) if piece.scalar else None
        if step is None:
            continue
        sign, out_key = step
        if degree is not None and term_degree(out_key) - term_degree(key) != degree:
            raise ValueError(f"{name} declares degree {degree:+d} but maps {key} to {out_key}")
        w = sign * piece.scalar
        w = 1 if w == 1 else -1 if w == -1 else field.coerce(w)
        direct = piece.coeff.exact and piece.shift >= 0
        entries.append((out_key, w, piece.coeff.write, direct, piece.shift, piece.reliable))
    return tuple(entries)


def _evaluate(x, plans, build, floor, drop=0):
    """One pass over the terms of x through the plans of their keys.

    plans maps an input key to its entries (`_plan`); build(key) makes a
    missing one, which is kept.  Every entry's image goes into one table
    of nu slots per output key, and each key becomes one Series.

    Floor rule: the sum starts at `floor` (lowered by `drop`, the number of
    divisions by nu).  An entry is reliable to min(c.reliable, its cap)
    less its division.  An entry whose image vanishes (a map's leaves that
    cancel, or an image shifted past the truncation) lowers the floor to
    that order; any other entry lowers its key's reliable order to it, and
    a key whose entries cancel lowers the floor in the SuperElement
    constructor.  A division by nu raises DivisibilityError on a nonzero
    leaf in nu slot 0 rather than drop it.
    """
    order = x.order
    floor = None if floor is None else min(floor - drop, order)
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
            entries = plans[key] = build(key)
        for out_key, w, write, direct, shift, cap in entries:
            reliable = c.reliable if c.reliable < cap else cap
            if shift < 0:
                reliable += shift
            # exact maps keep their direct write: through the scratch route, a
            # vanished division would lower its key's reliable order instead of
            # the floor (test_plans_match_references[0-so3-QQ] catches that)
            if direct:
                if shift and all(not p.terms for p in c.coeffs[: max(order + 1 - shift, 0)]):
                    floor = _lower(floor, reliable)
                elif shift:
                    write(c, w, target(out_key, reliable)[shift:])
                else:
                    write(c, w, target(out_key, reliable))
                continue
            # the slots below the truncation once shifted, all of them before a division
            scratch = [{} for _ in range(order + 1 - max(shift, 0))]
            if scratch:
                write(c, 1, scratch)
            if shift < 0 and any(v for s in scratch[:-shift] for v in s.values()):
                lost = Poly(x.ctx, {m: v for m, v in scratch[0].items() if v}, _clean=True)
                raise DivisibilityError(
                    f"series is not divisible by nu (nonzero constant term): {lost}"
                )
            live = scratch[-shift:] if shift < 0 else scratch
            if any(v for s in live for v in s.values()):
                add_shifted(target(out_key, reliable), live, max(shift, 0), w)
            else:
                floor = _lower(floor, reliable)
    terms = {k: Series.from_slots(x.ctx, order, t, r) for k, (r, t) in acc.items()}
    return SuperElement(x.ctx, x.dim, order, terms, floor=floor)


def op_sum(name, degree, pieces, raises_filtration=frozenset()):
    """The operator x -> sum over `pieces` (`Piece`s), evaluated from per-key plans.

    The one sum over contractions behind the Koszul differential, R, q, u,
    koszul_nu, t = koszul_nu - koszul, the codifferentials and the BRST
    differentials D and D_nu, whose pieces are read off the charge
    (`bracket_pieces`, `StarProduct.commutator_pieces`).  The plan of an
    input ghost key is built on first use, once per handle (`_plan`), and
    each plan entry must change `term_degree` by `degree`; one pass over
    the terms of x (`_evaluate`) then writes every entry's image, starting
    at x's floor.
    """
    pieces = tuple(pieces)
    drop = max([0] + [-p.shift for p in pieces])
    plans = {}  # input key -> its plan entries

    def fn(x):
        build = lambda key: _plan(pieces, key, x.ctx.field, name, degree)
        return _evaluate(x, plans, build, x.floor, drop)

    return OperatorHandle(name, fn, degree, raises_filtration)


# -- the products, as plans of their left operand ---------------------------------


@lru_cache(maxsize=None)
def _contractions(key, right):
    """(k, path, rest, sign) for each set S of k indices that a term under key contracts.

    With x's term e^key on the left of y (right False), the antighosts S
    of key meet ghosts of y: `path` removes those ghosts from y, in
    increasing order, and the sign is the signs of removing S from key in
    the same order times the (-1)^{|x|} of each Clifford step,
    (-1)^{k |key| + k (k - 1) / 2}.  For y x (right True) the ghosts S of
    key meet antighosts of y, and the removal signs are times
    -(-1)^{k (k - 1) / 2 + k |key| + k}: that folds in the -(-1)^{|x||y|}
    of the supercommutator, the (-1)^{|y|} of each step and the reordering
    of y's rest past key's, in which |y| cancels.  `rest` is key without S.
    """
    ghosts, antighosts = key
    if right:
        own, remove, other = ghosts, _remove_ghost, _remove_antighost
    else:
        own, remove, other = antighosts, _remove_antighost, _remove_ghost
    parity = term_parity(key)
    out = []
    for k in range(len(own) + 1):
        step = (-1) ** (k * parity + k * (k - 1) // 2) * (-((-1) ** k) if right else 1)
        for indices in combinations(own, k):
            sign, rest = step, key
            for a in indices:
                s, rest = remove(rest, a)
                sign *= s
            out.append((k, tuple((other, a) for a in indices), rest, sign))
    return tuple(out)


def _left_pieces(x, top, levels):
    """The pieces of y -> P(x, y), a product read off the terms of x.

    For each term c under a key of x, contraction (k, path, rest, sign) of
    `_contractions` with k <= top, and nonzero nu slot p = c_i,
    levels(k, right) is None or (weight, map of p, nu power s): the piece
    contracts path on y, multiplies by rest and by sign times weight, maps
    y's coefficient by the map of p, shifts by nu^(i + s) and caps the
    reliable order at c's.
    """
    pieces = []
    for key, c in x.terms.items():
        slots = [(i, p) for i, p in enumerate(c.coeffs) if p.terms]
        for right in (False, True):
            for k, path, rest, sign in _contractions(key, right):
                level = levels(k, right) if k <= top else None
                if level and level[0]:
                    w, make, s = level
                    pieces += [
                        Piece(path, rest, sign * w, make(p), i + s, c.reliable) for i, p in slots
                    ]
    return pieces


def _product(x, y, pieces):
    """The pieces read off x, evaluated on y in one plan pass; no handle is built."""
    x._check(y)
    field = x.ctx.field
    return _evaluate(y, {}, lambda key: _plan(pieces, key, field), _floors(x, y))


@dataclass(frozen=True)
class StarProduct:
    """The graded star product: Moyal on coefficients, Clifford on ghosts.

    x y = mu(exp(c nu T)(x (x) y)), T as in the module docstring.  It is
    read off x as left multiplication: for a term c1 e^K1 of x, a nonzero
    nu slot p of c1 and a set S of k antighosts of K1, one piece contracts
    the ghosts S of y, multiplies by K1 without S and by c^k times the
    signs of `_contractions`, maps y's coefficient by p * . and shifts by
    nu^(i + k), i being p's slot.  The supercommutator adds the pieces of
    y x at each level k >= 1 (y's antighosts against K1's ghosts, . * p),
    and at level 0 the two products land on one key, where they leave
    [p, .]* = 2 O (see `poisson`): one piece.
    """

    lam: object  # PoissonData
    clifford_coeff: Fraction = Fraction(-2)

    def _pieces(self, x, commutator):
        if self.lam.ctx != x.ctx:
            raise ContextError("star operands live in different contexts")
        c, lam = self.clifford_coeff, self.lam

        def levels(k, right):
            if not k:
                make = commutator_with if commutator else left_star
                return None if right else (1, lambda p: make(p, lam), 0)
            if right and not commutator:
                return None
            return c**k, lambda p: (right_star if right else left_star)(p, lam), k

        return _left_pieces(x, x.order, levels)

    def commutator_pieces(self, x):
        """The pieces of y -> [x, y] = x y - (-1)^{|x||y|} y x."""
        return self._pieces(x, True)

    def star(self, x, y):
        """x y, from the pieces of x."""
        return _product(x, y, self._pieces(x, False))

    def commutator(self, x, y):
        """The graded star commutator [x, y], from the pieces of x."""
        return _product(x, y, self.commutator_pieces(x))


def bracket_pieces(x, lam):
    """The pieces of y -> {x, y}, the graded Poisson bracket.

    The first order of the supercommutator's pieces: at level 0 the
    coefficient bracket {p, .} under the product of the keys, at level 1
    each ghost pairing at strength 2 (c = -2) with the coefficients
    multiplied; no power of nu beyond p's slot.
    """

    def levels(k, right):
        if not k:
            return None if right else (1, lambda p: bracket_with(p, lam), 0)
        return Fraction(-2), times, 0

    return _left_pieces(x, 1, levels)


def graded_poisson(x, y, lam):
    """The even graded Poisson bracket {x, y}, from the plan of x (`bracket_pieces`).

    Extends the coefficient Poisson bracket; ghosts pair with antighosts at
    strength 2 (see the module docstring).  Bilinear over nu slots.
    """
    return _product(x, y, bracket_pieces(x, lam))


@dataclass(repr=False)
class ColumnMap(OperatorHandle):
    """An `op_columns` handle; `column_sum` is the loop behind its `fn` (see there)."""

    column_sum: object = None


def op_columns(f, name=None, nu_free=False):
    """A C[[nu]]-linear f evaluated once per basis column.

    The one path that cuts an element into basis columns and reassembles
    it: it serves the Koszul `res` and `h`, the deformed res_nu and the
    classical Phi and H.  A column is f of one basis element m*g (a
    monomial m under a ghost key g) at truncation order N, keyed by
    (N, g, m) and computed on first use.  It is kept as its reliable order,
    the floor of an image without terms (None for a nu-free f) and a flat
    tuple of (out key, nu power, monomial, coefficient) entries.

    The handle's `column_sum(ctx, dim, order, items, cap, floor)` is the
    one loop that sums columns: over items (g, slots), slots[s] a
    {monomial: coefficient} dict of nu power s, it adds c * nu^s * f(m g)
    for every nonzero c, truncated at `order`, and returns
    ({out key: [reliable, slot dicts]}, floor).  An output key is reliable
    to the minimum of `cap` and the reliable orders of the columns that
    feed it; a column whose image has no terms but a floor (it vanished)
    lowers `floor` to that floor, as f itself would.  The slot sums keep
    cancelled entries, which `Series.from_slots` drops.  f(x) is that sum
    over the terms of x, capped at x.reliable (the whole input's, as the
    Koszul maps take it) and starting at x's floor; an output term that
    cancels altogether lowers the floor to its order, in the SuperElement
    constructor.  `reduction.reduced_star` runs the same sum on the slots
    of a Moyal product.

    A `nu_free` f (one that neither reads nor makes nu powers, like the
    Koszul `res` and `h`) has one column per (g, m), filled at order 0 and
    served at every order; it bounds no reliable order, so an output term
    is reliable to the cap.
    """
    columns = {}

    def column(ctx, dim, order, key, mono):
        ckey = (key, mono) if nu_free else (order, key, mono)
        col = columns.get(ckey)
        if col is None:
            order = 0 if nu_free else order
            unit = Series(ctx, order, [Poly(ctx, {mono: ctx.field.one}, _clean=True)])
            image = f(SuperElement(ctx, dim, order, {key: unit}, _clean=True))
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

    def column_sum(ctx, dim, order, items, cap, floor):
        acc = {}  # out key -> [reliable, {monomial: coefficient} per nu power]
        for key, slots in items:
            for s, terms in enumerate(slots):
                for mono, c in terms.items():
                    if not c:
                        continue
                    reliable, vanished, entries = column(ctx, dim, order, key, mono)
                    if vanished is not None:
                        floor = _lower(floor, vanished)
                    if cap < reliable:
                        reliable = cap
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
        return acc, floor

    def fn(x):
        items = ((key, [p.terms for p in series.coeffs]) for key, series in x.terms.items())
        acc, floor = column_sum(x.ctx, x.dim, x.order, items, x.reliable, x.floor)
        terms = {k: Series.from_slots(x.ctx, x.order, t, r) for k, (r, t) in acc.items()}
        return SuperElement(x.ctx, x.dim, x.order, terms, floor=floor)

    return ColumnMap(name or f"cols({f.name})", fn, f.degree, f.raises_filtration, column_sum)
