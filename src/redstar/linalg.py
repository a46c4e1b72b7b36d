"""Exact linear algebra over the coefficient field.

Matrices are dense lists of rows; entries are Fraction or GaussianRational.
Elimination skips zero entries, so sparse slice matrices stay cheap.  The
canonical solution of a solvable system puts every free variable to zero,
which makes all derived homotopy operators deterministic.
"""

from __future__ import annotations

from .errors import ShapeError


class SliceSolver:
    """Reduced row echelon factorization of one graded-slice matrix.

    Built once per slice and reused for every solve against it.  Row
    operations are recorded and replayed on right-hand sides.
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
        """Canonical solution x of A x = b, or None if b is outside the span.

        Free variables are set to zero, so the result is unique and
        reproducible across runs.
        """
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
        """Basis of the null space, one vector per free column."""
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


def matrix_rank(rows, ncols, field):
    """Exact rank of a dense matrix given as a list of rows."""
    return SliceSolver(rows, ncols, field).rank


def mat_vec(rows, x, field):
    out = []
    for row in rows:
        s = field.zero
        for a, b in zip(row, x):
            if a and b:
                s = s + a * b
        out.append(s)
    return out


def mat_mul(a_rows, b_rows, field):
    if not a_rows:
        return []
    n = len(b_rows[0]) if b_rows else 0
    bt = list(zip(*b_rows)) if b_rows else []
    out = []
    for row in a_rows:
        orow = []
        for j in range(n):
            s = field.zero
            col = bt[j]
            for a, b in zip(row, col):
                if a and b:
                    s = s + a * b
            orow.append(s)
        out.append(orow)
    return out
