from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from redstar.errors import ShapeError
from redstar.linalg import SliceSolver, mat_vec
from redstar.scalars import QQ, QQ_I, GaussianRational

F = Fraction


def sparse(rows):
    """Sparse rows of a dense matrix: the (column, entry) pairs of its nonzero entries."""
    return [[(k, F(x)) for k, x in enumerate(r) if x] for r in rows]


def solver(rows, ncols):
    return SliceSolver(sparse(rows), ncols, QQ)


class DenseSolver:
    """The dense reduced-row-echelon solver that `SliceSolver` replaced, kept as a reference.

    Rows are dense lists; the pivot row of each column is swapped up to the
    next pivot position, and row operations are recorded and replayed on
    right-hand sides.
    """

    def __init__(self, rows, ncols, field):
        self.field = field
        self.nrows = len(rows)
        self.ncols = ncols
        self._rows = [list(r) for r in rows]
        for r in self._rows:
            if len(r) != ncols:
                raise ShapeError("ragged matrix")
        self._ops = []  # ("swap", i, j) | ("scale", i, c) | ("axpy", i, j, f): row_j += f*row_i
        self.pivots = []  # list of (row, col)
        self._reduce()

    def _reduce(self):
        rows = self._rows
        ops = self._ops
        piv_r = 0
        for col in range(self.ncols):
            pr = None
            for r in range(piv_r, self.nrows):
                if rows[r][col]:
                    pr = r
                    break
            if pr is None:
                continue
            if pr != piv_r:
                rows[piv_r], rows[pr] = rows[pr], rows[piv_r]
                ops.append(("swap", piv_r, pr))
            pv = rows[piv_r][col]
            if pv != 1:
                inv = 1 / pv
                row = rows[piv_r]
                for c in range(col, self.ncols):
                    if row[c]:
                        row[c] = row[c] * inv
                ops.append(("scale", piv_r, inv))
            prow = rows[piv_r]
            for r in range(self.nrows):
                if r == piv_r:
                    continue
                f = rows[r][col]
                if not f:
                    continue
                row = rows[r]
                for c in range(col, self.ncols):
                    if prow[c]:
                        row[c] = row[c] - f * prow[c]
                ops.append(("axpy", piv_r, r, -f))
            self.pivots.append((piv_r, col))
            piv_r += 1
            if piv_r == self.nrows:
                break

    @property
    def rank(self):
        return len(self.pivots)

    def _apply_ops(self, b):
        b = list(b)
        for op in self._ops:
            if op[0] == "swap":
                _, i, j = op
                b[i], b[j] = b[j], b[i]
            elif op[0] == "scale":
                _, i, c = op
                if b[i]:
                    b[i] = b[i] * c
            else:
                _, i, j, f = op
                if b[i]:
                    b[j] = b[j] + f * b[i]
        return b

    def solve(self, b):
        if len(b) != self.nrows:
            raise ShapeError("right-hand side length does not match row count")
        c = self._apply_ops(b)
        pivot_rows = {r for r, _ in self.pivots}
        for r in range(self.nrows):
            if r not in pivot_rows and c[r]:
                return None
        zero = self.field.zero
        x = [zero] * self.ncols
        for r, col in self.pivots:
            x[col] = c[r]
        return x

    def kernel_basis(self):
        pivot_cols = {c for _, c in self.pivots}
        zero = self.field.zero
        one = self.field.one
        basis = []
        for fc in range(self.ncols):
            if fc in pivot_cols:
                continue
            v = [zero] * self.ncols
            v[fc] = one
            for r, c in self.pivots:
                entry = self._rows[r][fc]
                if entry:
                    v[c] = -entry
            basis.append(v)
        return basis


def test_diagonal_solve():
    s = solver([[1, 0], [0, 0]], 2)
    x, r = s.solve([F(3), F(0)])
    assert x == [F(3), F(0)] and not any(r)


def test_outside_span():
    s = solver([[1, 0], [0, 0]], 2)
    _, r = s.solve([F(0), F(1)])
    assert any(r)


def test_koszul_slice_hand_solve():
    # multiplication by q from degree-2 to degree-3 in variables (q, p):
    # domain basis (descending graded lex): q^2, qp, p^2
    # codomain basis: q^3, q^2 p, q p^2, p^3
    rows = [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
        [0, 0, 0],
    ]
    s = solver(rows, 3)
    # b = coefficients of q p^2 -> x = coefficients of p^2  (hand solve q*p^2 = qp^2)
    x, r = s.solve([F(0), F(0), F(1), F(0)])
    assert x == [F(0), F(0), F(1)] and not any(r)
    _, r = s.solve([F(0), F(0), F(0), F(1)])
    assert any(r)  # p^3 not divisible by q


def test_rank_zero_and_identity():
    assert solver([[0] * 3 for _ in range(3)], 3).rank == 0
    eye = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert solver(eye, 4).rank == 4


def test_repeated_constraint_rank_deficit():
    # chain map for two equal constraints (q, q) on the degree-2 slice of
    # homological degree one: columns are (m e_1, m e_2) for m in degree 1;
    # each column is q*m in the degree-2 monomial basis.
    # domain: q e_1, p e_1, q e_2, p e_2; codomain: q^2, qp, p^2
    rows = [
        [1, 0, 1, 0],
        [0, 1, 0, 1],
        [0, 0, 0, 0],
    ]
    s = solver(rows, 4)
    # oracle: brute-force kernel/image comparison. rank 2 < 4 - 0 means a
    # two-dimensional kernel; the boundary space from degree two is only
    # one-dimensional there, exposing nonzero homology.
    assert s.rank == 2
    kernel = s.kernel_basis()
    assert len(kernel) == 2
    for v in kernel:
        assert all(e == 0 for e in mat_vec(sparse(rows), v, QQ))


def test_solution_reproduces_rhs():
    rows = [[2, 1, 0], [0, 1, 1], [2, 2, 1]]
    s = solver(rows, 3)
    b = [F(4), F(3), F(7)]
    x, r = s.solve(b)
    assert not any(r)
    assert mat_vec(sparse(rows), x, QQ) == b


def test_canonical_solution_free_vars_zero():
    # one pivot, two free columns: canonical solution has zeros there
    s = solver([[1, 2, 3]], 3)
    x, r = s.solve([F(6)])
    assert x == [F(6), F(0), F(0)] and not any(r)


def test_shape_errors():
    s = solver([[1, 0]], 2)
    with pytest.raises(ShapeError):
        s.solve([F(1), F(2)])
    for col in (1, -1):
        with pytest.raises(ShapeError):
            SliceSolver([[(0, F(1))], [(col, F(2))]], 1, QQ)


def test_determinism():
    rows = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
    s1 = solver(rows, 3)
    s2 = solver(rows, 3)
    b = [F(1), F(2), F(3)]
    assert s1.solve(b) == s2.solve(b)


def scalars(field):
    small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    if field is QQ:
        return small
    return st.builds(GaussianRational, small, st.integers(-2, 2))


@st.composite
def dense_matrices(draw, field):
    """(rows, ncols) of small dense matrices, about half of whose entries are zero.

    Zero rows and columns, nrows = 0 and ncols = 0 are all drawn; a few
    rows are linear combinations of others, which makes the rank deficient.
    """
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.one_of(st.just(field.zero), scalars(field))
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        a, b = draw(scalars(field)), draw(scalars(field))
        combo = [a * x + b * y for x, y in zip(rows[i], rows[j])]
        rows.insert(draw(st.integers(0, len(rows))), combo)
    return rows, ncols


ORACLE = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    # no shrink phase: a failing example is reported as drawn, in seconds
    phases=(Phase.explicit, Phase.generate),
)


@pytest.mark.parametrize("field", [QQ, QQ_I], ids=["QQ", "QQ_I"])
@ORACLE
@given(data=st.data())
def test_sparse_solver_matches_dense_reference(field, data):
    rows, ncols = data.draw(dense_matrices(field))
    sparse_rows = [[(k, e) for k, e in enumerate(r) if e] for r in rows]
    got, want = SliceSolver(sparse_rows, ncols, field), DenseSolver(rows, ncols, field)
    assert got.rank == want.rank
    assert [c for _, c in got.pivots] == [c for _, c in want.pivots]
    assert got.kernel_basis() == want.kernel_basis()
    for v in got.kernel_basis():
        assert not any(mat_vec(sparse_rows, v, field))
    x = [data.draw(st.one_of(st.just(field.zero), scalars(field))) for _ in range(ncols)]
    image = mat_vec(sparse_rows, x, field)
    anywhere = [data.draw(scalars(field)) for _ in rows]
    for b in (image, anywhere):
        x, r = got.solve(b)
        assert (None if any(r) else x) == want.solve(b)
    solution, r = got.solve(image)
    assert not any(r) and mat_vec(sparse_rows, solution, field) == image


def reduce_by_rref(b, rref):
    """b minus its component along the row space of a reduced `DenseSolver`."""
    b = list(b)
    for r, col in rref.pivots:
        factor = b[col]
        if factor:
            b = [v - factor * e if e else v for v, e in zip(b, rref._rows[r])]
    return b


@pytest.mark.parametrize("field", [QQ, QQ_I], ids=["QQ", "QQ_I"])
@ORACLE
@given(data=st.data())
def test_residual_is_the_normal_form_modulo_the_column_span(field, data):
    # b = A x + r with r zero on the pivot rows; r = 0 exactly when b is in
    # the column span; and r is b reduced by the RREF of the transpose, so
    # the pivot rows are the lex-first row basis
    rows, ncols = data.draw(dense_matrices(field))
    sparse_rows = [[(k, e) for k, e in enumerate(r) if e] for r in rows]
    got, want = SliceSolver(sparse_rows, ncols, field), DenseSolver(rows, ncols, field)
    transposed = [[row[c] for row in rows] for c in range(ncols)]
    rref_t = DenseSolver(transposed, len(rows), field)
    assert {r for r, _ in got.pivots} == {c for _, c in rref_t.pivots}
    x = [data.draw(st.one_of(st.just(field.zero), scalars(field))) for _ in range(ncols)]
    image = mat_vec(sparse_rows, x, field)
    anywhere = [data.draw(st.one_of(st.just(field.zero), scalars(field))) for _ in rows]
    for b in (image, anywhere, [u + v for u, v in zip(image, anywhere)]):
        x, r = got.solve(b)
        assert not any(r[p] for p, _ in got.pivots)
        assert [u + v for u, v in zip(mat_vec(sparse_rows, x, field), r)] == b
        assert (None if any(r) else x) == want.solve(b)
        assert r == reduce_by_rref(b, rref_t)
