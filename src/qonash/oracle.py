"""Brute-force reference implementations for cross-checking.

These deliberately share no algorithmic code with the main path.  Each box
is scanned as a residue grid: x lies in N exactly when x . adj = 0 (mod det)
in every column of an adjugate found here by fraction-free elimination; the
sum splits by axis, so residue tables per axis, broadcast and compared, mark
every member.  The same adjugate gives each axis reach c_k in closed form,
and a branch is scanned only in its reach box prod [0, c_k].  Faces are
classified by counting members by support, and minimality is a prefix OR
over the grid of hits, in slabs along the first axis so memory stays flat.
Slow is fine; independent is the point.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError
from .intlat import Lattice, RatVec

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
    """Exhaustive membership filter over integer boxes for one lattice."""

    def __init__(self, n: Lattice):
        if n.denom != 1:
            raise DomainError("NOT_SUBLATTICE", "oracle expects a sublattice of Z^d")
        self.dim = n.dim
        self.adj, det = _adjugate([list(row) for row in n.scaled_basis])
        det = self.det = abs(det)
        # Columns of adj that vanish mod det test nothing.
        cols = [[x % det for x in c] for c in zip(*self.adj) if any(x % det for x in c)]
        # int64 while det < 2**31: products of two residues stay below det**2,
        # and radix[j, k] packs column j into key k below 2**62, in base det.
        self.dtype = np.int64 if det.bit_length() <= 31 else object
        self.residues = np.array(cols, dtype=self.dtype).reshape(len(cols), self.dim).T
        width = max(1, 62 // det.bit_length())
        self.radix = np.zeros((len(cols), -(-len(cols) // width) or 1), self.dtype)
        for j in range(len(cols)):
            self.radix[j, j // width] = det ** (j % width)

    def grid(self, lows, highs, columns):
        """Membership of the box lows[i] <= x_i <= highs[i], capped at once.

        ``columns`` maps box axes onto coordinate positions (0-based; others
        stay zero).  Slabs of about ``_CHUNK`` cells (at least one row) come
        as ``(offset, mask)``; ``mask[r, ...]`` is row ``lows[0] + offset + r``.
        """
        shape = [h - l + 1 for l, h in zip(lows, highs)]
        total = math.prod(shape)
        if total > MAX_SCAN:
            msg = f"box of {total} points exceeds the oracle cap"
            raise DomainError("LIMIT_EXCEEDED", msg)

        def residues(lo, count, col):  # v * adj[col] mod det, a row per v from lo
            values = np.arange(lo, lo + count, dtype=self.dtype)[:, None]
            return values % self.det * self.residues[col] % self.det

        # A cell is a member when the residues of its later axes, summed and
        # packed into keys, equal the negated residues of its first axis.
        tables = list(map(residues, lows[1:], shape[1:], columns[1:]))
        tail = np.zeros((self.radix.shape[1], *shape[1:]), dtype=self.dtype)
        for j, radix in enumerate(self.radix):
            column = 0
            for table in reversed(tables):
                column = np.add.outer(table[:, j], column)
            tail += np.multiply.outer(radix, column % self.det)
        step = max(1, _CHUNK * shape[0] // total)
        spread = (slice(None), slice(None)) + (None,) * len(tables)

        def slab(offset):
            rows = residues(lows[0] + offset, min(step, shape[0] - offset), columns[0])
            head = (-rows % self.det @ self.radix).T[spread]
            return offset, functools.reduce(np.logical_and, map(np.equal, head, tail))

        return map(slab, range(0, shape[0], step))

    def blocks(self, lows, highs, columns):
        """Each slab's lattice points, as one ``(m, d)`` int64 array in box order."""
        for offset, mask in self.grid(lows, highs, columns):
            found = np.argwhere(mask)
            found[:, 0] += offset
            pts = np.zeros((len(found), self.dim), dtype=np.int64)
            pts[:, list(columns)] = found + lows
            yield pts

    def scan(self, lows, highs, columns):
        """The points of ``blocks`` one at a time, as tuples of ints."""
        for block in self.blocks(lows, highs, columns):
            yield from map(tuple, block.tolist())


def _axis_reach(scanner: _BoxScanner, bound: int) -> list[int]:
    """Coordinate of the primitive lattice point on each axis, in closed form.

    t * e_k is a member exactly when t * adj[k] = 0 (mod det) in every column,
    so the least such t > 0 is det / gcd(det, adj[k] mod det); it divides det.
    A reach beyond ``bound`` is refused.
    """
    reach = []
    for k, row in enumerate(scanner.residues.tolist()):
        c = scanner.det // math.gcd(scanner.det, *row)
        if c > bound:
            msg = f"no lattice point on axis {k + 1} within bound {bound}"
            raise DomainError("BOUND_TOO_SMALL", msg)
        reach.append(c)
    return reach


def _support(offset: int, shape) -> np.ndarray:
    """Bitmask of the nonzero coordinates of each cell of a slab of [0, ...]^d."""
    axes = np.ogrid[(slice(offset, offset + shape[0]), *map(slice, shape[1:]))]
    bit = np.min_scalar_type((1 << len(shape)) - 1).type
    return sum((x > 0) * bit(1 << a) for a, x in enumerate(axes))


def _count_by_support(scanner: _BoxScanner, reach) -> np.ndarray:
    """Members of [0, reach]^d by support bitmask (support F: the edge box of F)."""
    d = len(reach)
    grid = scanner.grid([0] * d, reach, range(d))
    return sum(np.bincount(_support(o, m.shape)[m], minlength=1 << d) for o, m in grid)


@functools.lru_cache(maxsize=16)
def _face_counts(n: Lattice) -> tuple[int, ...]:
    scanner = _BoxScanner(n)
    return tuple(_count_by_support(scanner, _axis_reach(scanner, scanner.det)).tolist())


def brute_face_index(n: Lattice, indices) -> int:
    """Count lattice points in the half-open edge box of a face, by its grid.

    Equals the lattice index underlying the face's regularity flag: the face
    is regular exactly when the count is 1.  The counts of every face come
    from one scan of the lattice, kept for the next faces asked about.
    """
    idx = tuple(sorted(set(indices)))
    if not idx or any(not 1 <= i <= n.dim for i in idx):
        raise DomainError("BAD_FACE", f"face indices {idx} not within 1..{n.dim}")
    return _face_counts(n)[sum(1 << (i - 1) for i in idx)]


def brute_branch(n: Lattice, bound: int) -> tuple[list[tuple[int, ...]], set[tuple[int, ...]]]:
    """(minimal points of the union of singular-face interiors, singular faces).

    Everything happens in the reach box [0, c_1] x ... x [0, c_d], where c_k
    is the primitive point on axis k: one scanner counts its members by
    support (the cells of support F are the edge box of face F, singular if
    it holds two or more points), then scans it again: a member of singular
    support is minimal when the prefix OR of those hits is clear one cell
    below it on every axis.  The box holds every minimal point, since
    subtracting c_k e_k from a point beyond it stays in the same face
    interior.  The bound need only reach every c_k (the result is then
    independent of it); otherwise an error is raised.
    """
    if bound < 1:
        raise DomainError("BOUND_TOO_SMALL", "bound must be a positive integer")
    d = n.dim
    scanner = _BoxScanner(n)
    reach = _axis_reach(scanner, bound)
    is_singular = _count_by_support(scanner, reach) > 1  # the origin has support 0
    faces = np.flatnonzero(is_singular)
    singular = {tuple(i + 1 for i in range(d) if s >> i & 1) for s in faces}
    # below[1:] marks the cells with a hit at or below them; below[0] carries.
    last = np.zeros([c + 1 for c in reach[1:]], dtype=bool)
    found = []
    for offset, mask in scanner.grid([0] * d, reach, range(d)):
        hits = mask & is_singular[_support(offset, mask.shape)]
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
    return list(map(tuple, np.concatenate(found).tolist())), singular


def brute_minimal_S(n: Lattice, bound: int) -> list[RatVec]:
    """Minimal points of the union of singular-face interiors, by box search."""
    return [RatVec(x) for x in brute_branch(n, bound)[0]]
