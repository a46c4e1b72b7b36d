"""Koszul complex machinery at bounded polynomial degree.

The complex lives inside the BRST algebra as the antighost sector; the
differential multiplies by moment-map components.  Restriction, prolongation
and the contracting homotopy are assembled from exact linear algebra on
graded slices: per (homological degree, grade vector) the differential is a
finite matrix, and canonical reduced-row-echelon solves make every operator
deterministic.  `res` and `h` map one basis element through the coordinates
of its slice; `superalg.op_columns` evaluates them on whole BRST elements,
one cached column per basis element.  When the grade rows include torus
weights the homotopy is equivariant by construction, because each solve
stays inside one weight slice.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations

from .errors import AcyclicityError, ContextError, DegreeOverflowError
from .linalg import SliceSolver
from .poisson import poisson_bracket
from .poly import Poly
from .series import Series
from .superalg import (
    OperatorHandle,
    Piece,
    SuperElement,
    _remove_antighost,
    op_columns,
    op_compose,
    op_sum,
    times,
)


@dataclass(frozen=True)
class MomentMapData:
    """Moment-map components with their Lie data and grading bookkeeping."""

    ctx: object
    components: tuple
    lie: object  # LieAlgebraData

    def __post_init__(self):
        if len(self.components) != self.lie.dim:
            raise ValueError("component count does not match the Lie algebra dimension")
        for j in self.components:
            if j.ctx != self.ctx:
                raise ContextError("moment map component in wrong context")

    def component_grades(self):
        if not all(j.is_homogeneous() and not j.is_zero() for j in self.components):
            raise DegreeOverflowError(
                "moment map components are not grade-homogeneous; slice machinery unavailable"
            )
        return tuple(j.grade() for j in self.components)

    def check_equivariance(self, lam):
        """Residuals of {J_a, J_b} - sum_c f_ab^c J_c for all pairs."""
        comps = self.components
        out = []
        for (a, b), row in self.lie.pairs:
            res = poisson_bracket(comps[a], comps[b], lam)
            for c, v in row:
                res = res - comps[c].scale(v)
            out.append(((a + 1, b + 1), res))
        return out


def koszul_pieces(moment):
    """The pieces J_a i^a of the Koszul differential, one per component."""
    return [
        Piece(((_remove_antighost, a + 1),), coeff=times(j))
        for a, j in enumerate(moment.components)
    ]


def koszul_operator(moment):
    """The Koszul differential sum_a J_a i^a, of degree +1 (it removes an antighost)."""
    return op_sum("koszul", +1, koszul_pieces(moment))


# The zero differential: d_X of the Koszul contraction and of its BRST
# extension, and the X perturbation of the deformed restriction.
ZERO = OperatorHandle("0", lambda x: x.scale(0), +1)


def _add_grades(g1, g2):
    return tuple(a + b for a, b in zip(g1, g2))


# Shared by every empty slice: 1319 of the 2199 slices that the acyclicity
# check visits on t2-c4 at bound 5, whose space the contraction then keeps.
_EMPTY_SLICE = ((), {})


def _vsub(v, w):
    return [a - b if b else a for a, b in zip(v, w)]


class KoszulSpace:
    """Graded slices of the Koszul complex and the linear algebra on them.

    A slice is K_i at one grade vector.  Each slice's basis and index, its
    differential to K_{i-1} (sparse columns) and its solver are built once;
    `apply_diff` and the homotopy act on slice coordinate vectors.  The
    quotient model H_0 = K_0 / (J) is read off the K_1 -> K_0 solvers: one
    elimination per grade gives the standard monomials, the normal form
    (`normal_form_poly`, the one reader of the model, which `res` calls too)
    and the degree-0 homotopy.
    """

    def __init__(self, moment, degree_bound):
        self.moment = moment
        self.ctx = moment.ctx
        self.dim = moment.lie.dim
        self.degree_bound = degree_bound
        self.jgrades = moment.component_grades()
        self._slices = {}
        self._diffs = {}
        self._solvers = {}

    # -- slice bases -------------------------------------------------------

    def antighost_offset(self, aset):
        zero = (0,) * (1 + len(self.ctx.gradings))
        for a in aset:
            zero = _add_grades(zero, self.jgrades[a - 1])
        return zero

    def _slice(self, i, grade):
        """(basis, {basis element: position}) of K_i at one grade, built once."""
        key = (i, grade)
        hit = self._slices.get(key)
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
        index = {bm: k for k, bm in enumerate(basis)}
        hit = self._slices[key] = (basis, index) if basis else _EMPTY_SLICE
        return hit

    def slice_basis(self, i, grade):
        """Ordered basis [(antighost set, monomial)] of K_i at one grade."""
        return self._slice(i, grade)[0]

    def vectorize(self, chain_terms, i, grade):
        """Coordinates of {(antighost set, monomial): coefficient} over the slice basis."""
        basis, index = self._slice(i, grade)
        v = [self.ctx.field.zero] * len(basis)
        for bm, c in chain_terms.items():
            v[index[bm]] = c
        return v

    def unvectorize(self, v, i, grade):
        basis = self.slice_basis(i, grade)
        out = {}
        for val, (aset, m) in zip(v, basis):
            if not val:
                continue
            out.setdefault(aset, {})[m] = val
        return {a: Poly(self.ctx, t, _clean=True) for a, t in out.items()}

    # -- the differential on a slice ------------------------------------------

    def diff_columns(self, i, grade):
        """Sparse columns of the slice map K_i -> K_{i-1} at this grade, built once.

        Column k holds the (codomain position, entry) pairs of d applied to
        the k-th basis element m e_A, where d(m e_A) is the sum over
        positions pos of (-1)^pos J_{A[pos]} m e_{A without A[pos]}.
        """
        key = (i, grade)
        hit = self._diffs.get(key)
        if hit is not None:
            return hit
        _, cod_index = self._slice(i - 1, grade)
        cols = []
        for aset, m in self.slice_basis(i, grade):
            col = []
            for pos, a in enumerate(aset):
                rest = aset[:pos] + aset[pos + 1 :]
                for jm, jc in self.moment.components[a - 1].terms.items():
                    col.append((cod_index[(rest, _add_grades(m, jm))], -jc if pos % 2 else jc))
            cols.append(tuple(col))
        hit = self._diffs[key] = tuple(cols)
        return hit

    def diff_rows(self, i, grade):
        """Sparse rows of the slice map, one per codomain position.

        The transpose of `diff_columns`, in the row format of `SliceSolver`.
        """
        rows = [[] for _ in self.slice_basis(i - 1, grade)]
        for k, col in enumerate(self.diff_columns(i, grade)):
            for r, entry in col:
                rows[r].append((k, entry))
        return rows

    def apply_diff(self, i, grade, v):
        """The slice map K_i -> K_{i-1} on coordinates."""
        out = [self.ctx.field.zero] * len(self.slice_basis(i - 1, grade))
        for c, col in zip(v, self.diff_columns(i, grade)):
            if c:
                for r, entry in col:
                    out[r] = out[r] + c * entry
        return out

    def solver(self, i, grade):
        """Cached canonical solver for the slice map K_i -> K_{i-1}."""
        key = (i, grade)
        hit = self._solvers.get(key)
        if hit is None:
            ncols = len(self.slice_basis(i, grade))
            hit = self._solvers[key] = SliceSolver(self.diff_rows(i, grade), ncols, self.ctx.field)
        return hit

    # -- quotient model -----------------------------------------------------

    def normal_form_poly(self, p):
        """Reduce a polynomial to the canonical complement modulo the ideal.

        Per grade, the normal form of the K_0 coordinates is their residual
        on the K_1 -> K_0 solver: zero on its pivot rows, and differing from
        them by an element of the ideal slice.  Where K_1 has no basis the
        ideal slice is zero and the coordinates are their own normal form.
        """
        if p.is_zero():
            return p
        chains = {}
        for m, c in p.terms.items():
            chains.setdefault(self.ctx.grade_of_mono(m), {})[((), m)] = c
        out = {}
        for grade, chain in chains.items():
            v = self.vectorize(chain, 0, grade)
            if self.slice_basis(1, grade):
                v = self.solver(1, grade).solve(v)[1]
            out.update((m, c) for c, (_, m) in zip(v, self.slice_basis(0, grade)) if c)
        return Poly(self.ctx, out, _clean=True)

    def complement_monomials(self, grade):
        """The standard monomials (quotient model basis) at one grade.

        The K_0 basis minus the pivot rows of the K_1 -> K_0 solver: the
        monomials that `normal_form_poly` writes its residual on.
        """
        pivots = {r for r, _ in self.solver(1, grade).pivots} if self.slice_basis(1, grade) else ()
        return tuple(m for k, (_, m) in enumerate(self.slice_basis(0, grade)) if k not in pivots)


class KoszulContraction:
    """The contraction (quotient model, 0) <-> (Koszul complex, diff).

    `res_fn` and `h_fn` map one basis element m e_A g, the column input of
    `op_columns`: ghosts ride along, with the usual sign on the odd
    homotopy; `res` kills every term that contains an antighost.  The
    prolongation is the inclusion.
    """

    def __init__(self, space):
        self.space = space

    def _h_vec(self, i, grade, v):
        """The homotopy K_i -> K_{i+1} on slice coordinates.

        The canonical solution of the solve of v in degree 0, and of
        v - h(d v) above; where d v = 0 the recursion is skipped, since
        h(0) = 0.  In degree 0 the residual is the normal form of v, the
        part that the quotient model keeps; above degree 0 a nonzero
        residual means the complex is not exact there.  Where K_{i+1} has
        no basis at this grade the solution is the empty vector, the
        residual is the whole right-hand side, and no solver is built.
        """
        space = self.space
        if i:
            dv = space.apply_diff(i, grade, v)
            if any(dv):
                v = _vsub(v, self._h_vec(i - 1, grade, dv))
        if space.slice_basis(i + 1, grade):
            x, r = space.solver(i + 1, grade).solve(v)
        else:
            x, r = [], v
        if i and any(r):
            raise AcyclicityError(
                f"no homotopy preimage in homological degree {i + 1} at grade {grade}; "
                "the complex is not exact there"
            )
        return x

    def res_fn(self, x):
        """res of one basis element c m e_A g: the normal form of c m, or zero under an antighost."""
        ((ghosts, aset), series), = x.terms.items()
        if aset:
            return SuperElement.zero(x.ctx, x.dim, x.order)
        nf = self.space.normal_form_poly(series.coeffs[0])
        terms = {(ghosts, ()): Series.from_poly(nf, x.order)} if nf.terms else {}
        return SuperElement(x.ctx, x.dim, x.order, terms, _clean=True)

    def h_fn(self, x):
        """h of one basis element c m e_A g, the input `op_columns` builds for one column.

        x is the single term c m under the key (g, A) at nu^0; its
        coordinates on K_i map to coordinates on K_{i+1} at the same grade,
        and the odd homotopy takes the Koszul sign (-1)^|g|.
        """
        space = self.space
        ((ghosts, aset), series), = x.terms.items()
        (m, c), = series.coeffs[0].terms.items()
        i, grade = len(aset), _add_grades(x.ctx.grade_of_mono(m), space.antighost_offset(aset))
        w = self._h_vec(i, grade, space.vectorize({(aset, m): c}, i, grade))
        negate = len(ghosts) % 2
        out = {}
        for v, (a, mono) in zip(w, space.slice_basis(i + 1, grade)):
            if v:
                out.setdefault((ghosts, a), {})[mono] = -v if negate else v
        terms = {key: Series.from_slots(x.ctx, x.order, [t]) for key, t in out.items()}
        return SuperElement(x.ctx, x.dim, x.order, terms, _clean=True)


@dataclass
class Contraction:
    """Contraction data (X, d_X) <-p/i-> (Y, d_Y) with homotopy h on Y."""

    p: OperatorHandle
    i: OperatorHandle
    h: OperatorHandle
    d_X: OperatorHandle
    d_Y: OperatorHandle

    def axiom_residuals(self, probe_X, probe_Y):
        """Named residual elements of the seven contraction axioms on two probes.

        The last three are the side conditions h h = 0, h i = 0 and p h = 0.
        The images that several axioms share, i X, h Y, d_Y Y and p Y, are
        computed once each, so a probe pair costs 16 operator applications.
        """
        ix, hy = self.i(probe_X), self.h(probe_Y)
        dy, py = self.d_Y(probe_Y), self.p(probe_Y)
        out = {}
        out["p.i=id"] = self.p(ix) - probe_X
        out["d h+h d=id-i.p"] = self.d_Y(hy) + self.h(dy) - probe_Y + self.i(py)
        out["p d=d p"] = self.p(dy) - self.d_X(py)
        out["d i=i d"] = self.d_Y(ix) - self.i(self.d_X(probe_X))
        out["h h=0"] = self.h(hy)
        out["h i=0"] = self.h(ix)
        out["p h=0"] = self.p(hy)
        return out


def koszul_contraction(space):
    """The Koszul contraction on the slices of `space`, whose caches it shares.

    `res` and `h` are nu-free column maps (`op_columns`): each basis
    column is computed once, at order 0, kept on the handle and served at
    every truncation order.

    The canonical solves satisfy the three side conditions h h = 0,
    h i = 0 and p h = 0, so the homotopy is used as it is.
    `tests/test_koszul.py::test_side_conditions_on_slice_bases`
    certifies all seven axioms on every ghost-free slice-basis element of
    a small scenario; the runner's contraction checks evaluate the side
    conditions on probes of every scenario.
    """
    kc = KoszulContraction(space)
    return Contraction(
        p=op_columns(OperatorHandle("res", kc.res_fn, 0), name="res", nu_free=True),
        i=OperatorHandle("prol", lambda x: x, 0),
        h=op_columns(OperatorHandle("h", kc.h_fn, -1), name="h", nu_free=True),
        d_X=ZERO,
        d_Y=koszul_operator(space.moment),
    )


def build_koszul_contraction(moment, degree_bound):
    """The Koszul contraction (`koszul_contraction`) on a fresh `KoszulSpace`."""
    return koszul_contraction(KoszulSpace(moment, degree_bound))


def enforce_side_conditions(c):
    """Normalize the homotopy so the three side conditions hold.

    Uses the algebraic replacements h' = (dh + hd) h (dh + hd) followed by
    h'' = h' d h'; both preserve the contraction axioms and equivariance.
    The pipeline does not use it: `build_koszul_contraction` already meets
    the side conditions, and on such a contraction h'' = h at about ten
    times the cost.  It is kept only for the `perfbench/micro.py`
    microbenchmark until the next benchmark revision (ROADMAP item 6).
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
        -1,
        c.h.raises_filtration,
    )
    return replace(c, h=h_second)


@dataclass
class HomologyReport:
    """Per-slice homology dimensions of the Koszul complex."""

    degree_bound: int
    dims: dict  # (i, grade) -> dim H_i
    h0_dims: dict  # grade -> dim H_0 slice
    witness: object = None
    witness_slice: object = None
    space: object = None  # the KoszulSpace whose slices were checked

    @property
    def acyclic(self):
        return all(v == 0 for v in self.dims.values())

    def total(self, i):
        return sum(v for (j, _), v in self.dims.items() if j == i)


def check_acyclicity(moment, degree_bound):
    """Rank check of exactness in homological degrees >= 1, on every graded slice.

    The report carries its space, whose slices and solvers a contraction can reuse.
    """
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
                        if up_solver is None or any(up_solver.solve(k)[1]):
                            witness = space.unvectorize(k, i, grade)
                            witness_slice = (i, grade)
                            break
            else:
                dims[(i, grade)] = 0
    return HomologyReport(degree_bound, dims, h0, witness, witness_slice, space)
