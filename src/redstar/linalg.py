"""Exact linear algebra over the coefficient field.

Matrices are sparse rows: a row is a sequence of (column, nonzero entry)
pairs, and entries are Rational or GaussianRational.  Elimination touches
only the stored entries, so the sparse slice matrices stay cheap.

`SliceSolver.solve(b)` returns (x, r) with b = A x + r: the canonical
solution x puts every free variable to zero, which makes all derived
homotopy operators deterministic, and the residual r vanishes on the pivot
rows.  The pivot of each column is the first row without a pivot that holds
it, so the pivot rows are the lex-first basis of the row space, and r is b
reduced to the complement of the column span on the remaining rows.  That
rule fixes the quotient complement: the normal form modulo the ideal is the
residual of the K_1 -> K_0 slice solver (`koszul.KoszulSpace.normal_form_poly`).
"""

from __future__ import annotations

from .errors import ShapeError


class SliceSolver:
    """Reduced row echelon factorization of one graded-slice matrix.

    Built once per slice and reused for every solve against it.  Rows are
    dicts {column: entry} that never move: the pivot row of a column is the
    first row without a pivot that holds it, so each row that ends without
    a pivot is a combination of earlier rows.  Each pivot's row operations
    are recorded once and replayed on right-hand sides.
    """

    def __init__(self, rows, ncols, field):
        self.field = field
        self.nrows = len(rows)
        self.ncols = ncols
        self._rows = []
        for row in rows:
            entries = {}
            for c, e in row:
                if not 0 <= c < ncols:
                    raise ShapeError(f"column {c} outside a matrix of {ncols} columns")
                if e:
                    entries[c] = e
            self._rows.append(entries)
        self._ops = []  # (pivot row, inverse pivot or None, ((row, factor), ...))
        self.pivots = []  # list of (row, col), by increasing column
        self._reduce()

    def _reduce(self):
        rows = self._rows
        free = list(range(self.nrows))  # rows without a pivot, in order
        for col in range(self.ncols):
            pr = next((r for r in free if col in rows[r]), None)
            if pr is None:
                continue
            free.remove(pr)
            prow = rows[pr]
            inv = None
            if prow[col] != 1:
                inv = 1 / prow[col]
                for c in prow:
                    prow[c] = prow[c] * inv
            axpys = []
            for r, row in enumerate(rows):
                f = row.get(col) if r != pr else None
                if not f:
                    continue
                f = -f
                for c, e in prow.items():
                    v = row.get(c)
                    v = f * e if v is None else v + f * e
                    if v:
                        row[c] = v
                    else:
                        del row[c]
                axpys.append((r, f))
            self._ops.append((pr, inv, tuple(axpys)))
            self.pivots.append((pr, col))
            if not free:
                break

    @property
    def rank(self):
        return len(self.pivots)

    def solve(self, b):
        """(x, r) with A x + r = b, from one replay of the row operations on b.

        x is the canonical solution: free variables are set to zero, so it
        is unique and reproducible across runs.  A pivot row only ever
        receives multiples of pivot rows, so x depends on b's pivot rows
        alone, and the residual r = b - A x is zero on the pivot rows and
        holds the replayed b on the others.  r = 0 exactly when b is in the
        column span; otherwise x solves A x = b - r.
        """
        if len(b) != self.nrows:
            raise ShapeError("right-hand side length does not match row count")
        b = list(b)
        for pr, inv, axpys in self._ops:
            v = b[pr]
            if not v:
                continue
            if inv is not None:
                v = b[pr] = v * inv
            for r, f in axpys:
                b[r] = b[r] + f * v
        zero = self.field.zero
        x = [zero] * self.ncols
        for r, col in self.pivots:
            x[col], b[r] = b[r], zero
        return x, b

    def kernel_basis(self):
        """Basis of the null space, one vector per free column."""
        pivot_cols = {c for _, c in self.pivots}
        zero, one = self.field.zero, self.field.one
        basis = {}
        for fc in range(self.ncols):
            if fc not in pivot_cols:
                v = basis[fc] = [zero] * self.ncols
                v[fc] = one
        for r, col in self.pivots:
            for fc, entry in self._rows[r].items():
                if fc != col:
                    basis[fc][col] = -entry
        return list(basis.values())


def mat_vec(rows, x, field):
    """A x for a matrix A of sparse rows and a dense vector x."""
    out = []
    for row in rows:
        s = field.zero
        for c, e in row:
            if x[c]:
                s = s + e * x[c]
        out.append(s)
    return out
