"""Geometry of the nonnegative quadrant relative to a lattice N.

Faces of the quadrant are coordinate subsets; a face is regular when its
primitive edge generators form a basis of the lattice points in its span.
Each face's data is read off the Hermite basis of its section lattice
(:func:`intlat.section`, or :func:`intlat.face_sections` for the whole
table): its axes' generators, its index and its parallelepiped points.  The
lattice points in the relative interiors of the singular faces, and the
barycenters of the regular ones, label the divisors everything downstream
cares about.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction
from itertools import combinations, repeat
from math import prod
from operator import add, and_, le

from . import intlat
from .errors import DomainError
from .intlat import Lattice, RatVec

class Face(namedtuple("Face", "indices primgens reach index section")):
    """A face of the quadrant: coordinate subset, edge generators as the
    integer points c_i e_i (denom times the primitive generators) and their
    reaches c_i, the index of the edge sublattice in the face's lattice
    points (shadowing ``tuple.index``), and the Hermite basis of denom times
    those points (see :func:`intlat.section`)."""

    __slots__ = ()

    @property
    def regular(self) -> bool:
        return self.index == 1

    @property
    def barycenter(self) -> tuple[int, ...]:
        """The sum of the edge generators, an integer point: E's point of
        the face when it is regular."""
        return tuple(map(sum, zip(*self.primgens)))


def leq_sigma(u, v) -> bool:
    """Quadrant order on coordinate sequences of one dimension
    (:func:`intlat.same_dim`): u <= v iff v - u >= 0."""
    intlat.same_dim(len(u), len(v))
    return all(map(le, u, v))


def _classify(n: Lattice, sections, faces) -> list[Face]:
    """Classify the listed faces of N from ``sections``, which maps each of
    them, and each singleton of their axes, to its Hermite section.

    An axis's edge generator is stored as its singleton section's one row,
    c e_k with c the pivot: denom times the primitive generator, in
    integers.  A face's index is the covolume of its edge sublattice over
    that of its section: the product of its axes' c over the product of the
    section's pivots.
    """
    gens = {k: sections[k,][0] for k in range(1, n.dim + 1) if (k,) in sections}
    out = []
    for idx in faces:
        section = sections[idx]
        c = tuple(gens[i][i - 1] for i in idx)
        pivots = prod(row[i - 1] for i, row in zip(idx, section))
        index, rest = divmod(prod(c), pivots)
        assert not rest
        out.append(Face(idx, tuple(gens[i] for i in idx), c, index, tuple(section)))
    return out


def face_data(n: Lattice, indices) -> Face:
    """Edge generators, index, regularity and section of a nonempty quadrant
    face, its coordinates checked by :func:`intlat.face_indices`."""
    idx = intlat.face_indices(indices, n.dim)
    sections = {f: intlat.section(n, f) for f in {idx, *((i,) for i in idx)}}
    return _classify(n, sections, [idx])[0]


def face_table(n: Lattice) -> tuple[Face, ...]:
    """Every nonempty face of the quadrant, by size and then indices, each
    section computed once by :func:`intlat.face_sections`."""
    axes = range(1, n.dim + 1)
    faces = [idx for size in axes for idx in combinations(axes, size)]
    return tuple(_classify(n, intlat.face_sections(n), faces))


def parallelepiped_points(n: Lattice, indices) -> list[tuple[int, ...]]:
    """Lattice points in the half-open edge parallelepiped of a face.

    These are the x in N with x_i in (0, c_i] on the face coordinates (c_i
    the positive coordinate of the primitive edge generator) and x_j = 0 off
    them, as sorted integer tuples denom*x: the :func:`_box_walk` of the
    half-open box, which yields exactly the face's index of points.
    """
    face = face_data(n, indices)
    return sorted(_box_walk(n.dim, face, strict=False))


def _box_walk(dim: int, face: Face, strict: bool, stairs=()) -> list:
    """Points x of N with 0 < x_i <= c_i on the face's coordinates, or
    0 < x_i < c_i when ``strict`` (the open box), and x_j = 0 off them.

    The walk goes up the face's section basis from its last row, one
    :func:`_walk_level` a row.  Row r pivots at coordinate i = indices[r]
    and is 0 past it, so once the later rows' coefficients are fixed,
    coordinate i moves with row r's coefficient alone, and no choice is
    wasted on a non-point.  A level holds at most the product of c_i/p over
    the rows so far, so never more than the face's index of points.

    ``stairs`` maps each singular 2-face (i, m) to its staircase (see
    :func:`minimal_singular_points`) as two lists: its points' s_m, rising,
    and c_i followed by their s_i, falling.  In the open box of a face of
    three or more coordinates, a point at or above a staircase point s of
    one of its 2-faces lies strictly above it, being positive on the rest
    of the face.  So the level fixing x_i caps it below s_i for the
    staircase point s of each such (i, m), m fixed already, with the
    largest s_m <= x_m, found by one bisect: it has the least s_i of those
    at or below x_m.  No point at or above one of them is built, and only
    those are left out.
    """
    points, fixed = [(0,) * dim], []
    for i, c, row in reversed(list(zip(face.indices, face.reach, face.section))):
        cuts = [(m, *stairs[i, m]) for m in fixed if (i, m) in stairs]
        caps = [[top[bisect_right(ms, x[m - 1])] for x in points] for m, ms, top in cuts]
        if len(caps) > 1:
            caps = [list(map(min, *caps))]
        points = _walk_level(points, i, row, caps[0] if caps else repeat(c if strict else c + 1))
        if not points:
            break
        fixed.append(i)
    return points


def _walk_level(points, i: int, row, tops) -> list:
    """Each partial point plus every multiple y*row that puts its coordinate
    i in (0, top), ``tops`` holding each point's own bound top.

    With p the pivot of row at i, coordinate i takes the values x_i + y*p:
    the least positive one, v in [1, p], at y = (p - x_i) // p, and the
    last one below top at y = (top - 1 - x_i) // p.  Each multiple y*row is
    built once, not once per point.
    """
    p = row[i - 1]
    xs = [x[i - 1] for x in points]
    lows = [(p - v) // p for v in xs]
    highs = [(top + p - 1 - v) // p for v, top in zip(xs, tops)]
    base = min(lows)
    multiples = [tuple(map(y.__mul__, row)) for y in range(base, max(highs))]
    return [
        tuple(map(add, x, m))
        for x, low, high in zip(points, lows, highs)
        for m in multiples[low - base : high - base]
    ]


def _staircase(m: int, b: int):
    """The lower records of u*b mod m, from u = 1 while it is nonzero, as
    pairs (u, u*b mod m) in increasing u, for 0 < b < m.

    The intermediate fractions of b/m (Khinchin, Continued Fractions, 1964,
    section 6): with (u, r) the last lower record and (v, s) the last upper
    one, v*b = -s (mod m), the pairs (u, r) and (v, -s) span the lattice of
    (w, t) with t = w*b (mod m), their determinant being -m.  So every w in
    (0, u + v) has w*b mod m >= r, and u + v has r - s: a new record if
    r > s, the end (u + v = m / gcd(b, m)) if r = s, and else an upper
    record, a run of which is one floor division.
    """
    u, r, v, s = 1, b, 0, m
    yield u, r
    while r != s:
        if r > s:
            u, r = u + v, r - s
            yield u, r
        else:
            k = (s - 1) // r
            v, s = v + k * u, s - k * r


def minimal_elements(pts) -> list:
    """Minimal elements of a finite set for the quadrant order: its distinct
    points that no other point of it lies below, sorted.

    Bitmap dominance (Tan, Eng & Ooi, VLDB 2001).  In decreasing
    lexicographic order every point below p comes after p, and a point after
    p that is at or below p on every axis past the first is below p.  So
    point j owns bit j, each distinct value on each of those axes maps to one
    mask, the OR of the bits of the points at or below it, and p is minimal
    iff the AND of its masks has no bit above its own.
    """
    pts = sorted(set(pts), reverse=True)
    try:
        axes = list(zip(*pts, strict=True))[1:]
    except ValueError:
        raise DomainError("DIMENSION_MISMATCH", "points of different dimensions") from None
    ands = repeat((1 << len(pts)) - 1)
    for axis in axes:
        mask = {}
        bit = 1
        for v in axis:
            mask[v] = mask.get(v, 0) | bit
            bit <<= 1
        below = 0
        for v in sorted(mask):
            below = mask[v] = below | mask[v]
        ands = map(and_, ands, map(mask.__getitem__, axis))
    kept = []
    top = 2  # the first bit above the current point's own
    for p, under in zip(pts, ands):
        if under < top:
            kept.append(p)
        top <<= 1
    kept.reverse()
    return kept


def singular_faces(n: Lattice) -> list[tuple[int, ...]]:
    """All nonempty faces of the quadrant that are singular for N, ordered."""
    return [face.indices for face in face_table(n) if not face.regular]


def _require_sublattice(n: Lattice) -> None:
    if n.denom != 1:
        raise DomainError(
            "NOT_SUBLATTICE", "expected a sublattice of Z^d (dual of a superlattice)"
        )


def minimal_toric_divisors(n: Lattice) -> list[tuple[int, ...]]:
    """The divisors labelled by the minimal lattice points of the singular
    faces: S_min of N, as sorted integer points."""
    return minimal_singular_points(n, face_table(n))


def minimal_singular_points(n: Lattice, faces: tuple[Face, ...]) -> list[tuple[int, ...]]:
    """S_min of N as sorted integer points, given its face table: the
    minimal elements of S, the union of N's points in the relative interiors
    of the singular faces.

    A point of S on a singular face G with some x_i > c_i lies above
    x - c_i e_i, again in S on G, so S_min lies in the half-open edge boxes
    0 < x_i <= c_i of the singular faces, and even in their open boxes
    0 < x_i < c_i.  For let p in the half-open box of G be at reach
    (x_i = c_i) exactly on a nonempty I of G.  If I = G, p is G's corner,
    above every other point of the box, and a singular G's box holds its
    index >= 2 points.  Otherwise q = p - sum_I c_i e_i is a point of N in
    the open box of G - I and strictly below p.  A regular face's points
    are integer combinations of its c_i e_i, so its open box is empty;
    G - I is singular, q lies in S, and p is not minimal.

    A point in an open box has that box's face for support, and q <= p
    puts supp(q) in supp(p).  A singleton face is regular, so a singular
    2-face G's share of S_min is the set of minimal points of its own open
    box: with G = {i, j} and the section rows (m, 0), (b, p) on (i, j),
    these are u*(b, p) less a multiple of (m, 0), for 0 < u < m / gcd(b, m),
    so the points (u*b mod m, u*p) at the lower records of u*b mod m (see
    :func:`_staircase`), and no 2-face is walked.  No walked point, of a
    face of three or more coordinates, lies below a staircase point, and
    the caps of :func:`_box_walk` build none at or above one.  So S_min is
    the staircases and the :func:`minimal_elements` of the walked points, a
    pass that runs only when a walk keeps a point.
    """
    _require_sublattice(n)
    singular = [face for face in faces if not face.regular]
    found, stairs = [], {}
    for face in singular:
        if len(face.indices) == 2:
            (i, j), (first, second) = face.indices, face.section
            point = [0] * n.dim
            ms, top = stairs[i, j] = [], [face.reach[0]]
            for u, r in _staircase(first[i - 1], second[i - 1]):
                point[i - 1], point[j - 1] = r, u * second[j - 1]
                ms.append(point[j - 1])
                top.append(r)
                found.append(tuple(point))
    larger = [
        p
        for face in singular
        if len(face.indices) > 2
        for p in _box_walk(n.dim, face, strict=True, stairs=stairs)
    ]
    if larger:
        found += minimal_elements(larger)
    found.sort()
    return found


def barycenter(n: Lattice, indices) -> tuple[int, ...]:
    """E's point of a regular face: the sum of its edge generators, an
    integer point."""
    _require_sublattice(n)
    face = face_data(n, indices)
    if not face.regular:
        raise DomainError(
            "SINGULAR_FACE",
            f"face {face.indices} is singular; barycenters live on regular faces",
        )
    return face.barycenter


def monomial_valuation(v: RatVec, support) -> Fraction:
    """min over the support of the pairing <v, u>."""
    values = [v.dot(u) for u in support]
    if not values:
        raise DomainError("EMPTY_SUPPORT", "valuation of the zero series is undefined")
    return min(values)
