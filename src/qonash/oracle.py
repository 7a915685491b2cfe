"""Brute-force reference implementations for cross-checking.

These deliberately share no algorithmic code with the main path.  N is
given by generators g of its dual M over one modulus det, read off the
characteristic exponents or, for a given N, off an adjugate found here by
fraction-free elimination: x lies in N exactly when x . g = 0 (mod det) for
every g, which gives each axis reach c_k in closed form.  N is scanned once,
in its reach box prod [0, c_k], in slabs of about ``_CHUNK`` cells, so
memory stays flat whatever the box's shape.  A slab is one Python int with
a bit for each cell, and each row of the box takes its members from one
congruence solved in closed form.  That one scan counts a branch's face
indices by support and, by a prefix OR over the hits, finds its minimal
points, each a few big-int operations a slab.
Slow is fine; independent is the point.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .intlat import Lattice, RatVec, face_indices, is_int

# Ceiling on scanned box cells: it bounds the time of --oracle-check and is
# checked before any slab is formed; the slabs keep its memory flat.
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


def _tile(block: int, width: int, total: int) -> int:
    """``block`` repeated every ``width`` bits up to bit ``total``."""
    span = width
    while span < total:
        block |= block << span
        span *= 2
    return block & ((1 << total) - 1)


def _ones(bits: int):
    """The positions of the set bits of ``bits``, in increasing order."""
    text = f"{bits:b}"[::-1]
    at = text.find("1")
    while at >= 0:
        yield at
        at = text.find("1", at + 1)


def _row_keys(entries: list[int], ranges: list[range]) -> list[int]:
    """y . entries over the rows y in the product of ``ranges``, the first
    fastest."""
    keys = [0]
    for span, a in zip(reversed(ranges), reversed(entries)):
        keys = [k + x * a for k in keys for x in span]
    return keys


def _by_support(bits: int, axes) -> dict[int, int]:
    """The set bits of ``bits`` split by support: each ``(bit, nonzero)`` of
    ``axes`` moves the bits in ``nonzero`` to the key with ``bit`` set."""
    parts = {0: bits}
    for bit, nonzero in axes:
        for s, part in list(parts.items()):
            high = part & nonzero
            if high:
                parts[s | bit], parts[s] = high, part ^ high
    return parts


class _BoxScanner:
    """Exhaustive membership filter over the reach box of the lattice
    {x in Z^d : x . g = 0 (mod det) for every generator g}."""

    def __init__(self, dim: int, gens: list, det: int):
        self.dim, self.det = dim, det
        # t * e_k is a member exactly when t * g_k = 0 (mod det) for every
        # g, so the least such t > 0, the axis reach c_k, divides det.
        self.reach = [det // math.gcd(det, *(g[k] for g in gens)) for k in range(dim)]
        # Scan order: rows run along the longest axis, so a box has the
        # fewest rows.  When that axis fits in a slab it comes first, and
        # slabs cut the longest of the others, so the layer between two cuts
        # is smallest; else, and for d = 1, it comes last and slabs cut it.
        longest, *rest = sorted(range(dim), key=lambda k: -self.reach[k])
        if rest and self.reach[longest] < _CHUNK:
            self.order, self.row = [longest, *rest[1:], rest[0]], 0
        else:
            self.order, self.row = [*rest, longest], dim - 1
        self.shape = [self.reach[k] + 1 for k in self.order]
        # The generators mod det in scan order; those that vanish test nothing.
        columns = ([g[k] % det for k in self.order] for g in gens)
        self.columns = [c for c in columns if any(c)]
        # Cells in a layer of the last axis, and layers in a slab: about
        # _CHUNK cells, at least one layer.
        self.layer = math.prod(self.shape[:-1])
        self.step = min(self.shape[-1], max(1, _CHUNK // self.layer))

    def slabs(self):
        """Membership of the reach box prod [0, c_k], capped before any scan.

        Slabs of ``self.step`` layers along the last axis of scan order
        (``self.order``) come as ``(lo, bits)``.  With x in scan order and
        n = ``self.shape``, bit ``x_1 + n_1 (x_2 + ... + n_(d-1) (x_d - lo))``
        of the int ``bits`` is set exactly when x is a member.
        """
        total = math.prod(self.shape)
        if total > MAX_SCAN:
            msg = f"box of {total} points exceeds the oracle cap"
            raise DomainError("LIMIT_EXCEEDED", msg)
        det, a = self.det, self.row
        # Subtracting a multiple of one column from another keeps the
        # lattice, so Euclid on the entries of the row axis leaves one
        # column, the pivot, with a nonzero entry there at most.
        cols = [list(col) for col in self.columns]
        live = [col for col in cols if col[a]]
        while len(live) > 1:
            pivot = min(live, key=lambda col: col[a])
            for col in live:
                if col is not pivot:
                    q = col[a] // pivot[a]
                    col[:] = [(x - q * y) % det for x, y in zip(col, pivot)]
            live = [col for col in cols if col[a]]
        pivot = live[0] if live else [0] * self.dim
        tests = [col for col in cols if col is not pivot and any(col)]
        # A row, the other coordinates y fixed, has members only where
        # y . f = 0 (mod det) for every other column f.  There they are the
        # t in [0, c_a] with t * b = -y . pivot (mod det), b the pivot's row
        # entry: with g = gcd(det, b), c_a = det / g, so none unless g
        # divides y . pivot, else one t below c_a, by the inverse of b / g
        # mod c_a, and c_a too when t = 0.
        g = math.gcd(det, pivot[a])
        c = det // g
        inverse = pow(pivot[a] // g, -1, c)
        # Cell t of row r is bit r * n_1 + t when rows come first, and
        # r + (t - lo) * layer when they come last.
        across, along = (self.shape[0], 1) if a == 0 else (1, self.layer)
        for lo in range(0, self.shape[-1], self.step):
            ranges = [range(m) for m in self.shape[:-1]]
            ranges.append(range(lo, min(lo + self.step, self.shape[-1])))
            span = ranges.pop(a)
            # The rows' values of y . column, the first of the other axes
            # fastest; a row that fails a test gets None.
            keys = _row_keys(pivot[:a] + pivot[a + 1 :], ranges)
            for f in tests:
                ys = _row_keys(f[:a] + f[a + 1 :], ranges)
                keys = [k if y % det == 0 else None for k, y in zip(keys, ys)]
            bits = bytearray((len(keys) * len(span) + 7) // 8)
            for base, k in zip(range(0, len(keys) * across, across), keys):
                if k is not None and k % g == 0:
                    t = -(k // g) * inverse % c
                    if t in span:
                        at = base + (t - span.start) * along
                        bits[at >> 3] |= 1 << (at & 7)
                    if not t and c in span:
                        at = base + (c - span.start) * along
                        bits[at >> 3] |= 1 << (at & 7)
            yield lo, int.from_bytes(bits, "little")

    def answer(self) -> tuple[list[tuple[int, ...]], list[int], dict[tuple, int]]:
        """(minimal hits, sorted; the axis reaches; the index of every
        nonempty face, keyed by its indices), from one pass over :meth:`slabs`.

        The cells of support F are the edge box of face F, so each count is
        the index of F.  The members less the corners (coordinates in
        {0, c_k}) are the hits: the points of the faces of index above 1,
        less their corners, and a corner is never minimal, since whatever
        lies above it lies above the other member too.  A hit is minimal
        when the prefix OR of hits is clear one cell below it on every axis.
        Each step is a few operations on a slab's bits: the axes within a
        layer shift under masks of their nonzero coordinates, and the last
        axis shifts by whole layers.
        """
        d, order, shape, layer = self.dim, self.order, self.shape, self.layer
        # Each axis within a layer: its stride, its mask of x_j > 0, and the
        # (shift, mask of x_j >= h) of a prefix OR by doubling h, all over a
        # slab and the layer carried in below it.
        size = (self.step + 1) * layer
        axes, stride = [], 1
        for m in shape[:-1]:
            nonzero = _tile((1 << m * stride) - (1 << stride), m * stride, size)
            doubling, h, mask = [], 1, nonzero
            while h < m:
                doubling.append((h * stride, mask))
                mask &= mask << h * stride
                h *= 2
            axes.append((stride, nonzero, doubling))
            stride *= m
        # The corners of a layer; each axis's support bit, by coordinate,
        # with its mask of nonzero coordinates (the last axis is zero only
        # in the box's first layer).
        corner = 1
        for m, (stride, _, _) in zip(shape, axes):
            corner |= corner << (m - 1) * stride
        supports = [(1 << k, nonzero) for k, (_, nonzero, _) in zip(order, axes)]
        last = 1 << order[-1]
        counts, found, carry = [0] * (1 << d), [], 0
        back = [order.index(k) for k in range(d)]
        for lo, members in self.slabs():
            hi = min(lo + self.step, shape[-1])
            top = (hi - lo) * layer
            split = _by_support(members, [*supports, (last, -1 if lo else -1 << layer)])
            for s, part in split.items():
                counts[s] += part.bit_count()
            hits = members
            for x in {0, shape[-1] - 1}:
                if lo <= x < hi:
                    hits ^= corner << (x - lo) * layer
            # Prefix OR of the layer carried from the slab before and this slab.
            below = carry | hits << layer
            for _, _, doubling in axes:
                for shift, mask in doubling:
                    below |= below << shift & mask
            h = 1
            while h <= hi - lo:
                below |= below << h * layer
                h *= 2
            below &= (1 << top + layer) - 1
            # A hit is blocked by the prefix OR one layer down, or one stride
            # down on an axis where its coordinate is nonzero.
            blocked, within = below & ((1 << top) - 1), below >> layer
            for stride, nonzero, _ in axes:
                blocked |= within << stride & nonzero
            carry = below >> top
            # Back from bit positions in scan order to coordinates; sorted at
            # the end, as S_min is.
            for at in _ones(hits & ~blocked):
                x = []
                for m in shape[:-1]:
                    at, r = divmod(at, m)
                    x.append(r)
                x.append(at + lo)
                found.append(tuple(x[i] for i in back))
        found.sort()
        return found, self.reach, {
            tuple(i + 1 for i in range(d) if s >> i & 1): count
            for s, count in enumerate(counts) if s
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
