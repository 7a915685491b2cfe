"""Brute-force reference implementations for cross-checking.

These deliberately share no algorithmic code with the main path.  A lattice
is scanned once, in its reach box prod [0, c_k], as a residue grid: x lies
in N exactly when x . adj = 0 (mod det) in every column of an adjugate found
here by fraction-free elimination, which also gives each axis reach c_k in
closed form; the sum splits by axis, so residue tables per axis, broadcast
and compared, mark every member.  That one scan gives a branch's singular
faces and, by a prefix OR over the grid of hits, its minimal points, in
slabs along the first axis so memory stays flat.  Slow is fine;
independent is the point.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError
from .intlat import Lattice, RatVec, is_index

# Hard ceiling on scanned grid points; the oracle is a checking tool, not a
# production path, and anything bigger than this is a mistake.
MAX_SCAN = 10**8
_CHUNK = 1 << 20


def _adjugate(mat: list[list[int]]) -> tuple[list[list[int]], int]:
    """(det * inverse, det) of an integer matrix, by fraction-free Gauss-Jordan
    elimination on [mat | I] (Bareiss, Math. Comp. 22, 1968): each entry stays
    a minor up to sign, so every division by the previous pivot is exact."""
    d = len(mat)
    rows = [list(row) + [int(i == j) for j in range(d)] for i, row in enumerate(mat)]
    sign, prev = 1, 1
    for k in range(d):
        piv = next(r for r in range(k, d) if rows[r][k])
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        top = rows[k]
        for r in range(d):
            if r != k:
                f = rows[r][k]
                rows[r] = [(top[k] * x - f * y) // prev for x, y in zip(rows[r], top)]
        prev = top[k]
    return [[sign * x for x in row[d:]] for row in rows], sign * prev


class _BoxScanner:
    """Exhaustive membership filter over the reach box of one lattice."""

    def __init__(self, n: Lattice):
        if n.denom != 1:
            raise DomainError("NOT_SUBLATTICE", "oracle expects a sublattice of Z^d")
        self.dim = n.dim
        adj, det = _adjugate([list(row) for row in n.scaled_basis])
        det = self.det = abs(det)
        # t * e_k is a member exactly when t * adj[k] = 0 (mod det) in every
        # column, so the least such t > 0, the axis reach c_k, divides det.
        self.reach = [det // math.gcd(det, *row) for row in adj]
        # Columns of adj that vanish mod det test nothing.
        cols = [[x % det for x in c] for c in zip(*adj)]
        cols = self.cols = [c for c in cols if any(c)]
        # radix[j, k] packs column j into int64 key k below 2**62, in base det.
        width = max(1, 62 // det.bit_length())
        self.radix = np.zeros((len(cols), -(-len(cols) // width) or 1), np.int64)
        for j in range(len(cols)):
            self.radix[j, j // width] = det ** (j % width)

    def grid(self):
        """Membership of the reach box prod [0, c_k], capped at once.

        Slabs of about ``_CHUNK`` cells (at least one row) come as
        ``(offset, mask)``; ``mask[r, ...]`` is row ``offset + r``.  The edge
        lattice lies in N, so det divides prod c_k: every box under the cap
        has det < MAX_SCAN < 2**31, and products of two residues fit int64.
        """
        shape = [c + 1 for c in self.reach]
        total = math.prod(shape)
        if total > MAX_SCAN:
            msg = f"box of {total} points exceeds the oracle cap"
            raise DomainError("LIMIT_EXCEEDED", msg)
        det = self.det
        per_axis = np.array(self.cols, dtype=np.int64).reshape(-1, self.dim).T

        def residues(lo, count, axis):  # v * adj[axis] mod det, a row per v from lo
            return np.arange(lo, lo + count, dtype=np.int64)[:, None] * per_axis[axis] % det

        # A cell is a member when the residues of its later axes, summed and
        # packed into keys, equal the negated residues of its first axis.
        tables = [residues(0, size, k) for k, size in enumerate(shape[1:], 1)]
        tail = np.zeros((self.radix.shape[1], *shape[1:]), dtype=np.int64)
        for j, radix in enumerate(self.radix):
            column = 0
            for table in reversed(tables):
                column = np.add.outer(table[:, j], column)
            tail += np.multiply.outer(radix, column % det)
        step = max(1, _CHUNK * shape[0] // total)
        spread = (slice(None), slice(None)) + (None,) * len(tables)

        def slab(offset):
            rows = residues(offset, min(step, shape[0] - offset), 0)
            head = (-rows % det @ self.radix).T[spread]
            return offset, functools.reduce(np.logical_and, map(np.equal, head, tail))

        return map(slab, range(0, shape[0], step))


def _axes(offset: int, shape) -> list[np.ndarray]:
    """Open-grid coordinates of a slab of [0, ...]^d whose first row is offset."""
    return np.ogrid[(slice(offset, offset + shape[0]), *map(slice, shape[1:]))]


def _support(axes) -> np.ndarray:
    """Bitmask of the nonzero coordinates of each cell, given a slab's :func:`_axes`."""
    bit = np.min_scalar_type((1 << len(axes)) - 1).type
    return sum((x > 0) * bit(1 << a) for a, x in enumerate(axes))


@functools.lru_cache(maxsize=16)
def _face_counts(n: Lattice) -> tuple[int, ...]:
    """Members of the reach box by support bitmask: the cells of support F
    are the edge box of F, so each count is the index of face F."""
    grid = _BoxScanner(n).grid()
    supports = (_support(_axes(o, m.shape))[m] for o, m in grid)
    counts = sum(np.bincount(s, minlength=1 << n.dim) for s in supports)
    return tuple(counts.tolist())


def brute_face_index(n: Lattice, indices) -> int:
    """Count lattice points in the half-open edge box of a face, by its grid.

    Equals the lattice index underlying the face's regularity flag: the face
    is regular exactly when the count is 1.  The counts of every face come
    from one scan of the lattice, kept for the next faces asked about.
    """
    idx = tuple(indices)  # checked before the set, where True would merge with 1
    if not idx or not all(is_index(i, n.dim) for i in idx):
        raise DomainError("BAD_FACE", f"face indices {idx} not within 1..{n.dim}")
    return _face_counts(n)[sum(1 << (i - 1) for i in set(idx))]


def brute_branch(n: Lattice, bound: int) -> tuple[list[tuple[int, ...]], set[tuple[int, ...]]]:
    """(minimal points of the union of singular-face interiors, singular faces).

    One scan of the reach box [0, c_1] x ... x [0, c_d], where c_k is the
    primitive point on axis k.  The cells of support F are the edge box of
    face F, whose far corner sum c_k e_k is a member; F is singular exactly
    when another member lies in that box, below the corner.  So the members
    with a coordinate outside {0, c_k} are the points of the singular faces,
    less their corners, and a corner is never minimal: whatever lies above
    it lies above the other member too.  Such a hit is minimal when the
    prefix OR of hits is clear one cell below it on every axis.  The box
    holds every minimal point, since subtracting c_k e_k from a point beyond
    it stays in the same face interior.  The bound need only reach every c_k
    (the result is then independent of it); otherwise an error is raised.
    """
    if bound < 1:
        raise DomainError("BOUND_TOO_SMALL", "bound must be a positive integer")
    scanner = _BoxScanner(n)
    for k, c in enumerate(scanner.reach):
        if c > bound:
            msg = f"no lattice point on axis {k + 1} within bound {bound}"
            raise DomainError("BOUND_TOO_SMALL", msg)
    slabs = scanner.grid()
    d, reach = n.dim, scanner.reach
    singular = np.zeros(1 << d, dtype=bool)
    # below[1:] marks the cells with a hit at or below them; below[0] carries.
    last = np.zeros([c + 1 for c in reach[1:]], dtype=bool)
    found = []
    for offset, mask in slabs:
        axes = _axes(offset, mask.shape)
        inner = [x % c > 0 for x, c in zip(axes, reach)]
        hits = mask & functools.reduce(np.logical_or, inner)
        singular[_support(axes)[hits]] = True
        below = np.concatenate([last[None], hits])
        for axis in range(d):
            np.logical_or.accumulate(below, axis=axis, out=below)
        free = hits & ~below[:-1]
        for axis in range(1, d):
            lead = (slice(None),) * axis
            free[lead + (slice(1, None),)] &= ~below[1:][lead + (slice(-1),)]
        points = np.argwhere(free)
        points[:, 0] += offset
        found.append(points)
        last = below[-1]
    faces = {tuple(i + 1 for i in range(d) if s >> i & 1) for s in np.flatnonzero(singular)}
    return list(map(tuple, np.concatenate(found).tolist())), faces


def brute_minimal_S(n: Lattice, bound: int) -> list[RatVec]:
    """Minimal points of the union of singular-face interiors, by box search."""
    return [RatVec(x) for x in brute_branch(n, bound)[0]]
