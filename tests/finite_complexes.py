"""Random finite filtered complexes with contractions, for the lemma tests.

Elements are graded vectors over the rationals with an auxiliary integer
filtration level attached to every basis vector.  A contraction is built in
split form (retract plus an acyclic double complex), then conjugated by a
random filtration-respecting automorphism so nothing about it looks
special; perturbations come from conjugating the small differential, which
guarantees they square to zero and satisfy both lemmas' compatibility
conditions exactly.
"""

from __future__ import annotations

from fractions import Fraction

from redstar.koszul import Contraction
from redstar.superalg import OperatorHandle

MAX_LEVEL = 3  # filtration levels 0..MAX_LEVEL


class Space:
    """A finite graded vector space with filtration levels per basis vector."""

    def __init__(self, dims, levels):
        self.dims = dims  # {degree: dimension}
        self.levels = levels  # {degree: tuple of ints}

    def zero(self):
        return Vec(self, {d: [Fraction(0)] * n for d, n in self.dims.items()})

    def basis(self, deg, k):
        v = self.zero()
        v.data[deg][k] = Fraction(1)
        return v

    def random_vec(self, rng, span=4):
        v = self.zero()
        for d, n in self.dims.items():
            for k in range(n):
                v.data[d][k] = Fraction(rng.randint(-span, span))
        return v


class Vec:
    def __init__(self, space, data):
        self.space = space
        self.data = data

    def __add__(self, other):
        return Vec(
            self.space,
            {d: [a + b for a, b in zip(self.data[d], other.data[d])] for d in self.data},
        )

    def __sub__(self, other):
        return Vec(
            self.space,
            {d: [a - b for a, b in zip(self.data[d], other.data[d])] for d in self.data},
        )

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        return Vec(self.space, {d: [c * a for a in row] for d, row in self.data.items()})

    def is_zero(self, upto=None):
        return all(all(a == 0 for a in row) for row in self.data.values())

    @property
    def terms(self):
        """The nonzero coordinates, keyed by (degree, index)."""
        return {(d, k): a for d, row in self.data.items() for k, a in enumerate(row) if a}

    def nonzero_term_count(self):
        return sum(1 for row in self.data.values() for a in row if a)

    def max_degree(self):
        return max((d for d, row in self.data.items() if any(row)), default=-1)

    def __eq__(self, other):
        return isinstance(other, Vec) and self.data == other.data

    def __repr__(self):
        return f"Vec({self.data})"


class LinOp:
    """Degree-shifting linear map given by per-degree matrices."""

    def __init__(self, src, dst, shift, blocks):
        self.src = src
        self.dst = dst
        self.shift = shift
        self.blocks = blocks  # {deg: rows matrix mapping src[deg] -> dst[deg+shift]}

    def __call__(self, v):
        out = self.dst.zero()
        for d, rows in self.blocks.items():
            col = v.data.get(d)
            if col is None:
                continue
            td = d + self.shift
            for i, row in enumerate(rows):
                s = Fraction(0)
                for a, b in zip(row, col):
                    if a and b:
                        s += a * b
                out.data[td][i] += s
        return out

    def handle(self, name, raises=frozenset()):
        return OperatorHandle(name, self, self.shift, raises)


def _compose(f, g):
    """Matrix blocks of f after g."""
    blocks = {}
    for d, grows in g.blocks.items():
        frows = f.blocks.get(d + g.shift)
        if frows is None:
            continue
        rows = []
        for frow in frows:
            row = []
            for j in range(len(grows[0]) if grows else 0):
                s = Fraction(0)
                for k, fv in enumerate(frow):
                    gv = grows[k][j] if grows else 0
                    if fv and gv:
                        s += fv * gv
                row.append(s)
            rows.append(row)
        blocks[d] = rows
    return LinOp(g.src, f.dst, f.shift + g.shift, blocks)


def _identity(space):
    blocks = {
        d: [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        for d, n in space.dims.items()
    }
    return LinOp(space, space, 0, blocks)


def _add(f, g, scale=1):
    blocks = {}
    for d in set(f.blocks) | set(g.blocks):
        fb = f.blocks.get(d)
        gb = g.blocks.get(d)
        if fb is None:
            blocks[d] = [[Fraction(scale) * x for x in row] for row in gb]
        elif gb is None:
            blocks[d] = [row[:] for row in fb]
        else:
            blocks[d] = [
                [a + Fraction(scale) * b for a, b in zip(r1, r2)] for r1, r2 in zip(fb, gb)
            ]
    return LinOp(f.src, f.dst, f.shift, blocks)


def _random_raising(space, rng, shift, density=0.5):
    """A random degree-`shift` map that strictly raises the filtration level."""
    blocks = {}
    for d, n in space.dims.items():
        td = d + shift
        m = space.dims.get(td, 0)
        if not n or not m:
            continue
        rows = []
        for i in range(m):
            row = []
            for j in range(n):
                if space.levels[td][i] > space.levels[d][j] and rng.random() < density:
                    row.append(Fraction(rng.randint(-2, 2)))
                else:
                    row.append(Fraction(0))
            rows.append(row)
        blocks[d] = rows
    return LinOp(space, space, shift, blocks)


def _scale(op, c):
    return LinOp(
        op.src,
        op.dst,
        op.shift,
        {d: [[Fraction(c) * x for x in row] for row in rows] for d, rows in op.blocks.items()},
    )


def _neumann_inverse_op(n, space):
    """(id + n)^{-1} for strictly-raising n, as explicit matrices."""
    out = _identity(space)
    term = _identity(space)
    for _ in range(MAX_LEVEL + 2):
        term = _scale(_compose(n, term), -1)
        out = _add(out, term)
    return out


def random_contraction(rng, degrees=(0, 1, 2, 3)):
    """A random contraction with all side conditions, plus compatible data.

    Returns (contraction, X-space, Y-space, m) where m is a perturbation of
    the X differential obtained by conjugation (so (d_X + m)^2 = 0 and the
    transferred initiator t_Y = i m p satisfies both lemmas' hypotheses).
    """
    # X: retract with its own differential d_X built from a shift structure
    xdims = {}
    xlevels = {}
    pair_count = {}
    for d in degrees:
        base = rng.randint(1, 2)
        pairs = rng.randint(0, 1) if d + 1 in degrees else 0
        pair_count[d] = pairs
        xdims[d] = base + pairs
    for d in degrees:
        xdims[d] = xdims.get(d, 0) + pair_count.get(d - 1, 0)
    for d in degrees:
        xlevels[d] = tuple(rng.randint(0, MAX_LEVEL) for _ in range(xdims[d]))
    X = Space(xdims, xlevels)
    # d_X maps the last `pair_count[d]` vectors of degree d onto the last
    # slots of degree d+1 (which were appended for that purpose)
    dx_blocks = {}
    for d in degrees:
        pairs = pair_count.get(d, 0)
        n, m = xdims[d], xdims.get(d + 1, 0)
        if not pairs or not m:
            continue
        rows = [[Fraction(0)] * n for _ in range(m)]
        for k in range(pairs):
            src = n - pair_count.get(d - 1, 0) - pairs + k
            dst = m - pairs + k
            rows[dst][src] = Fraction(1)
            # targets must sit at least as high in the filtration
            lx = list(xlevels[d + 1])
            lx[dst] = max(lx[dst], xlevels[d][src])
            xlevels[d + 1] = tuple(lx)
        dx_blocks[d] = rows
    X.levels = xlevels
    d_X = LinOp(X, X, +1, dx_blocks)

    # Y = X (+) E with E acyclic: one id-pair per degree
    ydims = {}
    ylevels = {}
    esize = {d: rng.randint(0, 2) for d in degrees if d + 1 in degrees}
    for d in degrees:
        ydims[d] = xdims[d] + esize.get(d, 0) + esize.get(d - 1, 0)
        lv = list(xlevels[d])
        lv += [rng.randint(0, MAX_LEVEL) for _ in range(esize.get(d, 0))]
        lv += [0] * esize.get(d - 1, 0)
        ylevels[d] = tuple(lv)
    # make the E-target levels match their sources (filtration preserved)
    for d in degrees:
        if d - 1 in esize and esize[d - 1]:
            src_lv = ylevels[d - 1][xdims[d - 1] : xdims[d - 1] + esize[d - 1]]
            lv = list(ylevels[d])
            lv[-esize[d - 1] :] = src_lv
            ylevels[d] = tuple(lv)
    Y = Space(ydims, ylevels)

    dy_blocks = {}
    for d in degrees:
        n, m = ydims[d], ydims.get(d + 1, 0)
        if not m:
            continue
        rows = [[Fraction(0)] * n for _ in range(m)]
        # X-part of the differential
        for (dd, xrows) in d_X.blocks.items():
            if dd != d:
                continue
            for i, row in enumerate(xrows):
                for j, v in enumerate(row):
                    rows[i][j] = v
        # E-part: a-slot of degree d maps to b-slot of degree d+1
        for k in range(esize.get(d, 0)):
            rows[ydims.get(d + 1, 0) - esize.get(d, 0) + k][xdims[d] + k] = Fraction(1)
        dy_blocks[d] = rows
    d_Y = LinOp(Y, Y, +1, dy_blocks)

    # h: inverse shift on the acyclic part
    h_blocks = {}
    for d in degrees:
        n, m = ydims[d], ydims.get(d - 1, 0)
        if not m:
            continue
        rows = [[Fraction(0)] * n for _ in range(m)]
        for k in range(esize.get(d - 1, 0)):
            rows[xdims[d - 1] + k][n - esize.get(d - 1, 0) + k] = Fraction(1)
        h_blocks[d] = rows
    h = LinOp(Y, Y, -1, h_blocks)

    # p, i: projection and inclusion on the X block
    p_blocks = {}
    i_blocks = {}
    for d in degrees:
        p_rows = [[Fraction(0)] * ydims[d] for _ in range(xdims[d])]
        i_rows = [[Fraction(0)] * xdims[d] for _ in range(ydims[d])]
        for k in range(xdims[d]):
            p_rows[k][k] = Fraction(1)
            i_rows[k][k] = Fraction(1)
        p_blocks[d] = p_rows
        i_blocks[d] = i_rows
    p = LinOp(Y, X, 0, p_blocks)
    i = LinOp(X, Y, 0, i_blocks)

    # conjugate everything on Y by a filtered automorphism psi = id + n
    n_y = _random_raising(Y, rng, 0)
    psi = _add(_identity(Y), n_y)
    psi_inv = _neumann_inverse_op(n_y, Y)
    d_Y = _compose(psi, _compose(d_Y, psi_inv))
    h = _compose(psi, _compose(h, psi_inv))
    p = _compose(p, psi_inv)
    i = _compose(psi, i)

    # perturbation of d_X by conjugation: m = phi d_X phi^{-1} - d_X
    n_x = _random_raising(X, rng, 0)
    phi = _add(_identity(X), n_x)
    phi_inv = _neumann_inverse_op(n_x, X)
    m = _add(_compose(phi, _compose(d_X, phi_inv)), _scale(d_X, -1))

    contraction = Contraction(
        p=p.handle("p"),
        i=i.handle("i"),
        h=h.handle("h"),
        d_X=d_X.handle("d_X"),
        d_Y=d_Y.handle("d_Y"),
    )
    t_x = m.handle("m", raises=frozenset({"aux"}))
    imp = _compose(i, _compose(m, p))
    t_y = imp.handle("i.m.p", raises=frozenset({"aux"}))
    return contraction, X, Y, t_x, t_y
