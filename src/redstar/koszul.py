"""Koszul complex machinery at bounded polynomial degree.

The complex lives inside the BRST algebra as the antighost sector; the
differential multiplies by moment-map components.  Restriction, prolongation
and the contracting homotopy are assembled from exact linear algebra on
graded slices: per (homological degree, grade vector) the differential is a
finite matrix, and canonical reduced-row-echelon solves make every operator
deterministic.  When the grade rows include torus weights the homotopy is
equivariant by construction, because each solve stays inside one weight
slice.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations

from .errors import AcyclicityError, ContextError, DegreeOverflowError
from .linalg import SliceSolver
from .poisson import poisson_bracket
from .poly import Poly
from .series import Series
from .superalg import (
    OperatorHandle,
    SuperElement,
    contract_antighost,
    op_compose,
)


@dataclass(frozen=True)
class MomentMapData:
    """Moment-map components with their Lie data and grading bookkeeping."""

    ctx: object
    components: tuple
    lie: object  # LieAlgebraData
    justification: str = ""

    def __post_init__(self):
        if len(self.components) != self.lie.dim:
            raise ValueError("component count does not match the Lie algebra dimension")
        for j in self.components:
            if j.ctx != self.ctx:
                raise ContextError("moment map component in wrong context")

    @property
    def graded(self):
        return all(j.is_homogeneous() and not j.is_zero() for j in self.components)

    def component_grades(self):
        if not self.graded:
            raise DegreeOverflowError(
                "moment map components are not grade-homogeneous; slice machinery unavailable"
            )
        return tuple(j.grade() for j in self.components)

    def check_equivariance(self, lam):
        """Residuals of {J_a, J_b} - sum_c f_ab^c J_c for all pairs."""
        out = []
        d = self.lie.dim
        for a in range(d):
            for b in range(a + 1, d):
                res = poisson_bracket(self.components[a], self.components[b], lam)
                for c in range(d):
                    fc = self.lie.f[a][b][c]
                    if fc:
                        res = res - self.components[c].scale(fc)
                out.append(((a + 1, b + 1), res))
        return out


def koszul_sum(x, moment, multiply):
    """sum_a multiply(i^a x, J_a): a Koszul differential for a coefficient product.

    The product is pointwise for `koszul_diff` and right star multiplication
    for the deformed Koszul differential (`quantum.build_R`).
    """
    out = SuperElement.zero(x.ctx, x.dim, x.order)
    for a in range(1, moment.lie.dim + 1):
        piece = contract_antighost(x, a)
        if piece.terms:
            out = out + multiply(piece, moment.components[a - 1])
    return out


def koszul_diff(x, moment):
    """The Koszul differential: multiply by J_a for each antighost slot."""
    return koszul_sum(x, moment, lambda piece, j: piece.map_coefficients(lambda p: p * j))


def _add_grades(g1, g2):
    return tuple(a + b for a, b in zip(g1, g2))


class KoszulSpace:
    """Graded slice bases, differential matrices and cached solvers."""

    def __init__(self, moment, degree_bound):
        self.moment = moment
        self.ctx = moment.ctx
        self.dim = moment.lie.dim
        self.degree_bound = degree_bound
        self.jgrades = moment.component_grades()
        self._bases = {}
        self._solvers = {}
        self._ideal = {}

    # -- slice bases -------------------------------------------------------

    def antighost_offset(self, aset):
        zero = (0,) * (1 + len(self.ctx.gradings))
        for a in aset:
            zero = _add_grades(zero, self.jgrades[a - 1])
        return zero

    def slice_basis(self, i, grade):
        """Ordered basis [(antighost set, monomial)] of K_i at one grade."""
        key = (i, grade)
        hit = self._bases.get(key)
        if hit is not None:
            return hit
        if grade[0] > self.degree_bound:
            raise DegreeOverflowError(
                f"slice at total degree {grade[0]} exceeds the bound {self.degree_bound}"
            )
        basis = []
        for aset in combinations(range(1, self.dim + 1), i):
            off = self.antighost_offset(aset)
            residual = tuple(g - o for g, o in zip(grade, off))
            if residual[0] < 0:
                continue
            for m in self.ctx.monomials_of_grade(residual):
                basis.append((aset, m))
        basis = tuple(basis)
        self._bases[key] = basis
        return basis

    def vectorize(self, chain_terms, i, grade):
        """Coordinates of {antighost set: Poly} over the slice basis."""
        basis = self.slice_basis(i, grade)
        index = {bm: k for k, bm in enumerate(basis)}
        zero = self.ctx.field.zero
        v = [zero] * len(basis)
        for aset, p in chain_terms.items():
            for m, c in p.terms.items():
                k = index.get((aset, m))
                if k is None:
                    raise DegreeOverflowError("chain term outside the slice basis")
                v[k] = v[k] + c
        return v

    def unvectorize(self, v, i, grade):
        basis = self.slice_basis(i, grade)
        out = {}
        for val, (aset, m) in zip(v, basis):
            if not val:
                continue
            out.setdefault(aset, {})[m] = val
        return {a: Poly(self.ctx, t, _clean=True) for a, t in out.items()}

    def diff_rows(self, i, grade):
        """Matrix rows of the slice map K_i -> K_{i-1} at this grade.

        Rows are indexed by the codomain basis, columns by the domain basis.
        """
        dom = self.slice_basis(i, grade)
        cod = self.slice_basis(i - 1, grade)
        cod_index = {bm: k for k, bm in enumerate(cod)}
        zero = self.ctx.field.zero
        rows = [[zero] * len(dom) for _ in cod]
        for col, (aset, m) in enumerate(dom):
            for pos, a in enumerate(aset):
                sign = (-1) ** pos
                rest = aset[:pos] + aset[pos + 1 :]
                j = self.moment.components[a - 1]
                for jm, jc in j.terms.items():
                    tm = tuple(x + y for x, y in zip(m, jm))
                    r = cod_index.get((rest, tm))
                    if r is None:
                        raise DegreeOverflowError("differential image escapes the slice")
                    rows[r][col] = rows[r][col] + jc * sign
        return rows

    def solver(self, i, grade):
        """Cached canonical solver for the slice map K_i -> K_{i-1}."""
        key = (i, grade)
        hit = self._solvers.get(key)
        if hit is None:
            dom = self.slice_basis(i, grade)
            rows = self.diff_rows(i, grade)
            hit = SliceSolver(rows, len(dom), self.ctx.field)
            self._solvers[key] = hit
        return hit

    # -- quotient model -----------------------------------------------------

    def ideal_data(self, grade):
        """(reduced rows, pivot cols, monomial list) for the ideal slice."""
        hit = self._ideal.get(grade)
        if hit is not None:
            return hit
        if grade[0] > self.degree_bound:
            raise DegreeOverflowError(
                f"ideal slice at degree {grade[0]} exceeds the bound {self.degree_bound}"
            )
        monos = self.ctx.monomials_of_grade(grade)
        index = {m: k for k, m in enumerate(monos)}
        zero = self.ctx.field.zero
        rows = []
        for a, j in enumerate(self.moment.components):
            off = self.jgrades[a]
            residual = tuple(g - o for g, o in zip(grade, off))
            if residual[0] < 0:
                continue
            for m in self.ctx.monomials_of_grade(residual):
                row = [zero] * len(monos)
                for jm, jc in j.terms.items():
                    tm = tuple(x + y for x, y in zip(m, jm))
                    row[index[tm]] = row[index[tm]] + jc
                rows.append(row)
        solver = SliceSolver(rows, len(monos), self.ctx.field)
        reduced = [solver._rows[r] for r, _ in solver.pivots]
        pivots = [c for _, c in solver.pivots]
        hit = (reduced, pivots, monos, index)
        self._ideal[grade] = hit
        return hit

    def normal_form_poly(self, p):
        """Reduce a polynomial to the canonical complement modulo the ideal."""
        if p.is_zero():
            return p
        out = Poly.zero(self.ctx)
        for grade, comp in p.grade_components().items():
            reduced, pivots, monos, index = self.ideal_data(grade)
            v = [self.ctx.field.zero] * len(monos)
            for m, c in comp.terms.items():
                v[index[m]] = c
            for row, pc in zip(reduced, pivots):
                factor = v[pc]
                if not factor:
                    continue
                for k, entry in enumerate(row):
                    if entry:
                        v[k] = v[k] - factor * entry
            out = out + Poly(
                self.ctx, {m: c for m, c in zip(monos, v) if c}, _clean=True
            )
        return out

    def complement_monomials(self, grade):
        """The standard monomials (quotient model basis) at one grade."""
        reduced, pivots, monos, _ = self.ideal_data(grade)
        pivset = set(pivots)
        return tuple(m for k, m in enumerate(monos) if k not in pivset)


class KoszulContraction:
    """The contraction (quotient model, 0) <-> (Koszul complex, diff).

    `res`, `prol` and `h` act on whole BRST elements: ghosts ride along,
    with the usual sign on the odd homotopy; `res` kills every term that
    contains an antighost.
    """

    def __init__(self, moment, degree_bound):
        self.moment = moment
        self.space = KoszulSpace(moment, degree_bound)
        self.ctx = moment.ctx
        self.dim = moment.lie.dim

    # -- chain-level homotopy (ghost-free, Poly coefficients) ------------------

    def _h_chain(self, chain):
        """Homotopy on {antighost set: Poly} dictionaries."""
        buckets = {}
        for aset, p in chain.items():
            if p.is_zero():
                continue
            off = self.space.antighost_offset(aset)
            for grade, comp in p.grade_components().items():
                key = (len(aset), _add_grades(grade, off))
                buckets.setdefault(key, {}).setdefault(aset, [])
                buckets[key][aset].append(comp)
        out = {}
        for (i, grade), groups in buckets.items():
            terms = {
                aset: sum(ps[1:], ps[0]) for aset, ps in groups.items()
            }
            if i == 0:
                p = terms.get((), Poly.zero(self.ctx))
                nf = self.space.normal_form_poly(p)
                rhs_terms = {(): p - nf}
                rhs = self.space.vectorize(rhs_terms, 0, grade)
            else:
                dchain = self._diff_chain(terms)
                hd = self._h_chain(dchain)
                rhs_terms = dict(terms)
                for aset, p in hd.items():
                    rhs_terms[aset] = rhs_terms.get(aset, Poly.zero(self.ctx)) - p
                rhs = self.space.vectorize(rhs_terms, i, grade)
            solver = self.space.solver(i + 1, grade)
            x = solver.solve(rhs)
            if x is None:
                raise AcyclicityError(
                    f"no homotopy preimage in homological degree {i + 1} at grade {grade}; "
                    "the complex is not exact there"
                )
            for aset, p in self.space.unvectorize(x, i + 1, grade).items():
                out[aset] = out.get(aset, Poly.zero(self.ctx)) + p
        return out

    def _diff_chain(self, chain):
        out = {}
        for aset, p in chain.items():
            for pos, a in enumerate(aset):
                rest = aset[:pos] + aset[pos + 1 :]
                term = (p * self.moment.components[a - 1]).scale((-1) ** pos)
                out[rest] = out.get(rest, Poly.zero(self.ctx)) + term
        return {a: p for a, p in out.items() if not p.is_zero()}

    # -- element-level operators ------------------------------------------------

    def _per_ghost_block(self, x, chain_fn, odd):
        """Apply a Koszul-sector map under each ghost block with Koszul signs."""
        out_terms = {}
        blocks = {}
        for (ghosts, antighosts), coeff in x.terms.items():
            blocks.setdefault(ghosts, {})[antighosts] = coeff
        for ghosts, ant_terms in blocks.items():
            sign = (-1) ** len(ghosts) if odd else 1
            for slot in range(x.order + 1):
                chain = {
                    aset: coeff.coeffs[slot]
                    for aset, coeff in ant_terms.items()
                    if not coeff.coeffs[slot].is_zero()
                }
                if not chain:
                    continue
                mapped = chain_fn(chain)
                for aset, p in mapped.items():
                    if p.is_zero():
                        continue
                    key = (ghosts, aset)
                    cur = out_terms.setdefault(
                        key, [Poly.zero(x.ctx)] * (x.order + 1)
                    )
                    cur[slot] = cur[slot] + p.scale(sign)
        reliable = x.reliable
        terms = {
            key: Series(x.ctx, x.order, coeffs, reliable)
            for key, coeffs in out_terms.items()
        }
        return SuperElement(x.ctx, x.dim, x.order, terms)

    def res_fn(self, x):
        def chain(c):
            p = c.get((), None)
            if p is None:
                return {}
            return {(): self.space.normal_form_poly(p)}

        return self._per_ghost_block(x, chain, odd=False)

    def prol_fn(self, x):
        return x

    def h_fn(self, x):
        return self._per_ghost_block(x, self._h_chain, odd=True)

    def diff_fn(self, x):
        return koszul_diff(x, self.moment)

    def operators(self):
        res = OperatorHandle("res", self.res_fn, 0)
        prol = OperatorHandle("prol", self.prol_fn, 0)
        h = OperatorHandle("h", self.h_fn, +1)
        d = OperatorHandle("koszul", self.diff_fn, -1)
        return res, prol, h, d


@dataclass
class Contraction:
    """Contraction data (X, d_X) <-p/i-> (Y, d_Y) with homotopy h on Y."""

    p: OperatorHandle
    i: OperatorHandle
    h: OperatorHandle
    d_X: OperatorHandle
    d_Y: OperatorHandle
    meta: dict = dc_field(default_factory=dict)

    def axiom_residuals(self, probe_X, probe_Y):
        """Named residual elements of the seven contraction axioms on two probes.

        The last three are the side conditions h h = 0, h i = 0 and p h = 0.
        """
        out = {}
        out["p.i=id"] = self.p(self.i(probe_X)) - probe_X
        out["d h+h d=id-i.p"] = (
            self.d_Y(self.h(probe_Y))
            + self.h(self.d_Y(probe_Y))
            - probe_Y
            + self.i(self.p(probe_Y))
        )
        out["p d=d p"] = self.p(self.d_Y(probe_Y)) - self.d_X(self.p(probe_Y))
        out["d i=i d"] = self.d_Y(self.i(probe_X)) - self.i(self.d_X(probe_X))
        out["h h=0"] = self.h(self.h(probe_Y))
        out["h i=0"] = self.h(self.i(probe_X))
        out["p h=0"] = self.p(self.h(probe_Y))
        return out


def build_koszul_contraction(moment, degree_bound):
    """Assemble the Koszul contraction with canonical (deterministic) data.

    The canonical solves satisfy the three side conditions h h = 0,
    h i = 0 and p h = 0, so the homotopy is used as it is.
    `tests/test_koszul.py::test_side_conditions_on_slice_bases`
    certifies all seven axioms on every ghost-free slice-basis element of
    a small scenario; the runner's contraction checks evaluate the side
    conditions on probes of every scenario.
    """
    kc = KoszulContraction(moment, degree_bound)
    res, prol, h, d = kc.operators()
    zero_dx = OperatorHandle("0", lambda x: x.scale(0), +1)
    c = Contraction(
        p=res,
        i=prol,
        h=h,
        d_X=zero_dx,
        d_Y=d,
        meta={"space": kc.space},
    )
    return c


def enforce_side_conditions(c):
    """Normalize the homotopy so the three side conditions hold.

    Uses the algebraic replacements h' = (dh + hd) h (dh + hd) followed by
    h'' = h' d h'; both preserve the contraction axioms and equivariance.
    The pipeline does not use it: `build_koszul_contraction` already meets
    the side conditions, and on such a contraction h'' = h at about ten
    times the cost.  It is kept only for the `perfbench/micro.py`
    microbenchmark until the next benchmark revision (ROADMAP item 4).
    """
    d = c.d_Y
    dh_hd = OperatorHandle(
        "(dh+hd)",
        lambda x: c.d_Y(c.h(x)) + c.h(c.d_Y(x)),
        0,
    )
    h_prime = op_compose(dh_hd, op_compose(c.h, dh_hd), name="h'")
    h_second = OperatorHandle(
        "h''",
        lambda x: h_prime(d(h_prime(x))),
        +1,
        c.h.raises_filtration,
    )
    return Contraction(
        p=c.p,
        i=c.i,
        h=h_second,
        d_X=c.d_X,
        d_Y=c.d_Y,
        meta=dict(c.meta),
    )


@dataclass
class HomologyReport:
    """Per-slice homology dimensions of the Koszul complex."""

    degree_bound: int
    dims: dict  # (i, grade) -> dim H_i
    h0_dims: dict  # grade -> dim H_0 slice
    witness: object = None
    witness_slice: object = None

    @property
    def acyclic(self):
        return all(v == 0 for v in self.dims.values())

    def total(self, i):
        return sum(v for (j, _), v in self.dims.items() if j == i)


def check_acyclicity(moment, degree_bound):
    """Rank check of exactness in homological degrees >= 1, slice by slice."""
    space = KoszulSpace(moment, degree_bound)
    ctx = moment.ctx
    dims = {}
    h0 = {}
    witness = None
    witness_slice = None
    grades = set()
    for deg in range(degree_bound + 1):
        grades.update(ctx.grades_of_degree(deg))
    for grade in sorted(grades):
        h0[grade] = len(space.complement_monomials(grade))
    for i in range(1, moment.lie.dim + 1):
        for grade in sorted(grades):
            dom = space.slice_basis(i, grade)
            if not dom:
                continue
            rank_i = space.solver(i, grade).rank
            dim_ker = len(dom) - rank_i
            up = space.slice_basis(i + 1, grade) if i < moment.lie.dim else ()
            rank_up = space.solver(i + 1, grade).rank if up else 0
            dim_h = dim_ker - rank_up
            if dim_h:
                dims[(i, grade)] = dim_h
                if witness is None:
                    solver_i = space.solver(i, grade)
                    up_solver = space.solver(i + 1, grade) if up else None
                    for k in solver_i.kernel_basis():
                        if up_solver is None or up_solver.solve(k) is None:
                            witness = space.unvectorize(k, i, grade)
                            witness_slice = (i, grade)
                            break
            else:
                dims[(i, grade)] = 0
    return HomologyReport(degree_bound, dims, h0, witness, witness_slice)
