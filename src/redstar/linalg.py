"""Exact linear algebra over the coefficient field.

Matrices are sparse rows: a row is a sequence of (column, nonzero entry)
pairs, and entries are Rational or GaussianRational.  Elimination touches
only the stored entries, so the sparse slice matrices stay cheap.  The
canonical solution of a solvable system puts every free variable to zero,
which makes all derived homotopy operators deterministic.
"""

from __future__ import annotations

from .errors import ShapeError


class SliceSolver:
    """Reduced row echelon factorization of one graded-slice matrix.

    Built once per slice and reused for every solve against it.  Rows are
    dicts {column: entry} that never move: the pivot row of a column is the
    first row without a pivot that holds it.  Each pivot's row operations
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
        self._free = list(range(self.nrows))  # rows without a pivot, in order
        self._reduce()

    def _reduce(self):
        rows, free = self._rows, self._free
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

    def reduced_rows(self):
        """The nonzero rows of the reduced row echelon form, in pivot order, as sparse rows."""
        return tuple(tuple(sorted(self._rows[r].items())) for r, _ in self.pivots)

    def solve(self, b):
        """Canonical solution x of A x = b, or None if b is outside the span.

        Free variables are set to zero, so the result is unique and
        reproducible across runs.
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
        if any(b[r] for r in self._free):
            return None
        x = [self.field.zero] * self.ncols
        for r, col in self.pivots:
            x[col] = b[r]
        return x

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


def matrix_rank(rows, ncols, field):
    """Exact rank of a matrix given as sparse rows."""
    return SliceSolver(rows, ncols, field).rank


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
