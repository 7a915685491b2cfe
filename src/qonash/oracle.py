"""Brute-force reference implementations for cross-checking.

These deliberately share no algorithmic code with the main path: membership
in the box and axis scans runs through an adjugate computed here by plain
Gauss-Jordan elimination, faces are classified by counting points, and
minimality compares each candidate with every point kept so far, layer by
layer in order of coordinate sum.
The points stay in numpy arrays from the membership mask to the minimal set:
the box scan yields each chunk's lattice points as one array, a point's
support is a bitmask of its nonzero coordinates, and only the minimal points
become tuples.
Slow is fine; independent is the point.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from .errors import DomainError
from .intlat import Lattice, RatVec

# Hard ceiling on scanned grid points; the oracle is a checking tool, not a
# production path, and anything bigger than this is a mistake.
MAX_SCAN = 10**8
_CHUNK = 1 << 20


def _adjugate(mat: list[list[int]]) -> tuple[list[list[int]], int]:
    """(det * inverse, det) of an integer matrix, by Gauss-Jordan."""
    d = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    inv = [[Fraction(1 if i == j else 0) for j in range(d)] for i in range(d)]
    det = Fraction(1)
    for col in range(d):
        piv = next(r for r in range(col, d) if a[r][col] != 0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            inv[col], inv[piv] = inv[piv], inv[col]
            det = -det
        det *= a[col][col]
        f = 1 / a[col][col]
        a[col] = [x * f for x in a[col]]
        inv[col] = [x * f for x in inv[col]]
        for r in range(d):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    det_int = int(det)
    adj = [[x * det_int for x in row] for row in inv]
    assert all(x.denominator == 1 for row in adj for x in row)
    return [[x.numerator for x in row] for row in adj], det_int


def _require_integral(n: Lattice) -> list[list[int]]:
    if n.denom != 1:
        raise DomainError("NOT_SUBLATTICE", "oracle expects a sublattice of Z^d")
    return [list(row) for row in n.scaled_basis]


class _BoxScanner:
    """Exhaustive membership filter over integer boxes for one lattice."""

    def __init__(self, n: Lattice):
        self.dim = n.dim
        self.adj, det = _adjugate(_require_integral(n))
        self.det = abs(det)

    def _mask(self, points: np.ndarray) -> np.ndarray:
        big = (
            int(np.abs(points).max(initial=0))
            * max(abs(x) for row in self.adj for x in row)
            * self.dim
        )
        dtype = object if big >= 2**62 else np.int64
        prods = points.astype(dtype) @ np.array(self.adj, dtype=dtype)
        return np.all(prods % self.det == 0, axis=1)

    def blocks(self, lows, highs, columns):
        """Yield the lattice points x with lows[i] <= x_i <= highs[i].

        ``columns`` maps box axes onto coordinate positions (0-based); the
        remaining coordinates stay zero.  Each chunk's points come as one
        ``(m, d)`` int64 array, in ascending box order; chunked so memory
        stays flat.
        """
        shape = tuple(h - l + 1 for l, h in zip(lows, highs))
        total = 1
        for s in shape:
            total *= s
        if total > MAX_SCAN:
            raise DomainError(
                "LIMIT_EXCEEDED", f"box of {total} points exceeds the oracle cap"
            )
        for start in range(0, total, _CHUNK):
            linear = np.arange(start, min(start + _CHUNK, total))
            coords = np.unravel_index(linear, shape)
            pts = np.zeros((linear.size, self.dim), dtype=np.int64)
            for axis, col in enumerate(columns):
                pts[:, col] = coords[axis] + lows[axis]
            yield pts[self._mask(pts)]

    def scan(self, lows, highs, columns):
        """The points of ``blocks`` one at a time, as tuples of ints."""
        for block in self.blocks(lows, highs, columns):
            yield from map(tuple, block.tolist())


def _axis_reach(scanner: _BoxScanner, bound: int) -> list[int]:
    """Coordinate of the primitive lattice point on each axis, by scanning."""
    reach = []
    for k in range(scanner.dim):
        # The scan yields in ascending order, so the first hit is the least.
        hit = next(scanner.scan([1], [bound], [k]), None)
        if hit is None:
            raise DomainError(
                "BOUND_TOO_SMALL",
                f"no lattice point on axis {k + 1} within bound {bound}",
            )
        reach.append(hit[k])
    return reach


def _face_count(scanner: _BoxScanner, reach: list[int], idx: tuple[int, ...]) -> int:
    lows = [1] * len(idx)
    highs = [reach[i - 1] for i in idx]
    cols = [i - 1 for i in idx]
    return sum(len(block) for block in scanner.blocks(lows, highs, cols))


def _singular_faces(scanner: _BoxScanner, reach: list[int]) -> set[tuple[int, ...]]:
    return {
        idx
        for size in range(1, scanner.dim + 1)
        for idx in itertools.combinations(range(1, scanner.dim + 1), size)
        if _face_count(scanner, reach, idx) > 1
    }


def brute_face_index(n: Lattice, indices) -> int:
    """Count lattice points in the half-open edge box of a face.

    Equals the lattice index underlying the face's regularity flag: the face
    is regular exactly when the count is 1.
    """
    idx = tuple(sorted(set(indices)))
    if not idx or any(not 1 <= i <= n.dim for i in idx):
        raise DomainError("BAD_FACE", f"face indices {idx} not within 1..{n.dim}")
    scanner = _BoxScanner(n)
    # The whole quotient Z^d / N is killed by |det|, so the axis scan is safe.
    return _face_count(scanner, _axis_reach(scanner, scanner.det), idx)


def _minimal_points(hits: np.ndarray) -> list[tuple[int, ...]]:
    """Componentwise-minimal rows of an ``(m, d)`` array of distinct points.

    Scan in order of ascending coordinate sum: a strict dominator always has
    a strictly smaller sum, so comparing against the points already kept is
    exhaustive, and points of equal sum can never dominate one another.
    """
    sums = hits.sum(axis=1)
    order = np.argsort(sums, kind="stable")
    layers = np.split(hits[order], np.flatnonzero(np.diff(sums[order])) + 1)
    kept = hits[:0]
    for layer in layers:
        if len(kept):
            dominated = np.any(np.all(kept[None] <= layer[:, None], axis=2), axis=1)
            layer = layer[~dominated]
        kept = np.concatenate([kept, layer])
    return sorted(map(tuple, kept.tolist()))


def brute_branch(n: Lattice, bound: int) -> tuple[list[RatVec], set[tuple[int, ...]]]:
    """(minimal points of the union of singular-face interiors, singular faces).

    One scanner counts every face's half-open edge box (a face is singular
    when it holds more than one lattice point), then scans every lattice
    point of the box [0, bound]^d, keeps those whose support is a singular
    face, and takes their minimal elements.  The bound must reach the
    primitive point on every axis (the result is then independent of the
    bound); otherwise an error is raised.
    """
    if bound < 1:
        raise DomainError("BOUND_TOO_SMALL", "bound must be a positive integer")
    d = n.dim
    scanner = _BoxScanner(n)
    singular = _singular_faces(scanner, _axis_reach(scanner, bound))
    # A point's support, as a bitmask over its nonzero coordinates, indexes
    # a table marking the singular faces.
    wanted = np.zeros(1 << d, dtype=bool)
    for idx in singular:
        wanted[sum(1 << (i - 1) for i in idx)] = True
    bits = 1 << np.arange(d, dtype=np.int64)
    hits = np.concatenate(
        [
            block[wanted[(block > 0) @ bits]]
            for block in scanner.blocks([0] * d, [bound] * d, range(d))
        ]
    )
    return [RatVec(x) for x in _minimal_points(hits)], singular


def brute_minimal_S(n: Lattice, bound: int) -> list[RatVec]:
    """Minimal points of the union of singular-face interiors, by box search."""
    return brute_branch(n, bound)[0]
