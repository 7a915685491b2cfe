"""Brute-force reference implementations for cross-checking.

These deliberately share no algorithmic code with the main path.  N is
given by generators g of its dual M over one modulus det, read off the
characteristic exponents or, for a given N, off an adjugate found here by
fraction-free elimination: x lies in N exactly when x . g = 0 (mod det) for
every g, which gives each axis reach c_k in closed form.  N is scanned once,
in its reach box prod [0, c_k], in slabs along the longest axis, so memory
stays flat whatever the box's shape; each slab is one comparison with one
residue table of the other axes.  That one scan counts a branch's face
indices by support and, by a prefix OR over the hits, finds its minimal
points.
Slow is fine; independent is the point.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .intlat import Lattice, RatVec, face_indices, is_int

# Hard ceiling on scanned box cells; the oracle is a checking tool, not a
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
    """Exhaustive membership filter over the reach box of the lattice
    {x in Z^d : x . g = 0 (mod det) for every generator g}."""

    def __init__(self, dim: int, gens: list, det: int):
        self.dim, self.det = dim, det
        # t * e_k is a member exactly when t * g_k = 0 (mod det) for every
        # g, so the least such t > 0, the axis reach c_k, divides det.
        self.reach = [det // math.gcd(det, *(g[k] for g in gens)) for k in range(dim)]
        # The scan axes, by decreasing reach (ties in index order): slabs cut
        # the longest, so the residue table of the others is smallest.
        self.order = sorted(range(dim), key=lambda k: -self.reach[k])
        # The generators mod det in scan order; those that vanish test nothing.
        columns = ([g[k] % det for k in self.order] for g in gens)
        self.columns = [c for c in columns if any(c)]

    def slabs(self):
        """Membership of the reach box prod [0, c_k], capped before any array.

        Slabs of about ``_CHUNK`` cells (at least one row) along the longest
        axis come as ``(lo, mask)``: ``mask`` marks the members of the slab
        from ``(lo, 0, ..., 0)`` in scan order (``self.order``).  The edge
        lattice lies in N, so det divides prod c_k: every box under the cap
        has det < MAX_SCAN < 2**31, and products of two residues fit int64.
        """
        shape = [self.reach[k] + 1 for k in self.order]
        total = math.prod(shape)
        if total > MAX_SCAN:
            msg = f"box of {total} points exceeds the oracle cap"
            raise DomainError("LIMIT_EXCEEDED", msg)
        det, d = self.det, self.dim
        # Each generator a, coordinate i at coef[..., i], shaped (columns, 1, ..., 1).
        coef = np.array(self.columns, dtype=np.int64).reshape(-1, *[1] * d, d)
        # A cell passes a when x_1 * a_1 = -(x_2 * a_2 + ...) mod det; the
        # right side is one table of the later axes, (columns, 1, c_2 + 1, ...).
        later = np.indices(shape[1:], dtype=np.int64, sparse=True)
        tail = sum(x * coef[..., k] % det for k, x in enumerate(later, 1)) % det
        step = max(1, _CHUNK * shape[0] // total)
        for lo in range(0, shape[0], step):
            first = np.arange(lo, min(lo + step, shape[0]), dtype=np.int64)
            first = first.reshape(-1, *[1] * (d - 1))
            yield lo, (-first * coef[..., 0] % det == tail).all(axis=0)

    def answer(self) -> tuple[list[tuple[int, ...]], list[int], dict[tuple, int]]:
        """(minimal hits, sorted; the axis reaches; the index of every
        nonempty face, keyed by its indices), from one pass over :meth:`slabs`.

        The cells of support F are the edge box of face F, so each count is
        the index of F.  The members less the corners (coordinates in
        {0, c_k}) are the hits: the points of the faces of index above 1,
        less their corners, and a corner is never minimal, since whatever
        lies above it lies above the other member too.  A hit is minimal
        when the prefix OR of hits is clear one cell below it on every axis.
        """
        d, order = self.dim, self.order
        reach = [self.reach[k] for k in order]
        counts = np.zeros(1 << d, dtype=np.int64)
        # Support bitmasks of the later axes; a slab adds the scan axis's bit past row 0.
        bit = np.min_scalar_type((1 << d) - 1).type
        later = np.indices([c + 1 for c in reach[1:]], sparse=True)
        later = sum((x > 0) * bit(1 << order[k]) for k, x in enumerate(later, 1))
        # below[1:] marks the cells with a hit at or below them; below[:1] carries
        # the last row of the slab before, none at first.
        below = np.zeros((1, *(c + 1 for c in reach[1:])), dtype=bool)
        back, found = [order.index(k) for k in range(d)], []
        for lo, hits in self.slabs():
            first = np.arange(lo, lo + len(hits)).reshape(-1, *[1] * (d - 1)) > 0
            counts += np.bincount((later + first * bit(1 << order[0]))[hits], minlength=1 << d)
            # The corners, every coordinate a multiple of c_k, leave the members.
            hits[tuple(slice(-x % c, None, c) for x, c in zip([lo] + [0] * (d - 1), reach))] = False
            below = np.concatenate([below[-1:], hits])
            for axis in range(d):
                np.logical_or.accumulate(below, axis=axis, out=below)
            free = hits & ~below[:-1]
            for axis in range(1, d):
                lead = (slice(None),) * axis
                free[lead + (slice(1, None),)] &= ~below[1:][lead + (slice(-1),)]
            # Back from scan order to coordinates; sorted at the end, as S_min is.
            rows, *cols = np.nonzero(free)
            found += zip(*[(rows + lo, *cols)[i].tolist() for i in back])
        return sorted(found), self.reach, {
            tuple(i + 1 for i in range(d) if s >> i & 1): count
            for s, count in enumerate(counts.tolist()) if s
        }


def _lattice_scanner(n: Lattice) -> _BoxScanner:
    """The scanner of a sublattice N of Z^d: its adjugate's columns over |det|."""
    if n.denom != 1:
        raise DomainError("NOT_SUBLATTICE", "oracle expects a sublattice of Z^d")
    adj, det = _adjugate([list(row) for row in n.scaled_basis])
    return _BoxScanner(n.dim, list(zip(*adj)), abs(det))


def brute_branch(n: Lattice) -> tuple[list[tuple[int, ...]], list[int], dict[tuple, int]]:
    """(minimal points of the union of singular-face interiors, axis reaches
    c_1..c_d, index of every nonempty face keyed by its indices).

    One :meth:`_BoxScanner.answer` over the reach box [0, c_1] x ... x
    [0, c_d], each c_k read off the adjugate; a face is singular when its
    index is above 1.  The box holds every minimal point: subtracting
    c_k e_k from a point beyond it stays in the same face interior.
    """
    return _lattice_scanner(n).answer()


def brute_exponents(dim: int, exponents) -> tuple[list[tuple[int, ...]], list[int], dict[tuple, int]]:
    """:func:`brute_branch` of N, the dual of M = Z^d + sum Z lambda_j, read
    off the characteristic exponents lambda_j with no elimination: det is
    the lcm of their denominators and g = det * lambda_j.  M / Z^d has
    exponent det, so det divides [M : Z^d] = [Z^d : N]."""
    det = math.lcm(*(x.denominator for lam in exponents for x in lam))
    gens = [[x.numerator * (det // x.denominator) for x in lam] for lam in exponents]
    return _BoxScanner(dim, gens, det).answer()


def brute_face_index(n: Lattice, indices) -> int:
    """Count lattice points in the half-open edge box of a face, by box scan.

    Equals the lattice index underlying the face's regularity flag: the face
    is regular exactly when the count is 1.  Read off :func:`brute_branch`,
    the face checked by :func:`intlat.face_indices` before the scan.
    """
    face = face_indices(indices, n.dim)
    return brute_branch(n)[2][face]


def brute_minimal_S(n: Lattice, bound: int) -> list[RatVec]:
    """Minimal points of the union of singular-face interiors, by box search;
    ``bound`` must reach every axis reach c_k, checked before the scan."""
    if not is_int(bound) or bound < 1:
        raise DomainError("BOUND_TOO_SMALL", "bound must be a positive integer")
    scanner = _lattice_scanner(n)
    for k, c in enumerate(scanner.reach):
        if c > bound:
            msg = f"no lattice point on axis {k + 1} within bound {bound}"
            raise DomainError("BOUND_TOO_SMALL", msg)
    return [RatVec(x) for x in scanner.answer()[0]]
