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
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, repeat
from math import prod
from operator import add, and_, le

from . import intlat
from .errors import DomainError
from .intlat import Lattice, RatVec

@dataclass(frozen=True)
class Face:
    """A face of the quadrant: coordinate subset, edge generators and their
    reaches c_i (denom times the generator's coordinate), the index of the
    edge sublattice in the face's lattice points, and the Hermite basis of
    denom times those points (see :func:`intlat.section`)."""

    indices: tuple[int, ...]
    primgens: tuple[RatVec, ...]
    reach: tuple[int, ...]
    index: int
    section: tuple[tuple[int, ...], ...]

    @property
    def regular(self) -> bool:
        return self.index == 1


def leq_sigma(u, v) -> bool:
    """Quadrant order on coordinate sequences: u <= v iff v - u >= 0."""
    if len(u) != len(v):
        raise DomainError(
            "DIMENSION_MISMATCH", f"vector dimensions differ: {len(u)} vs {len(v)}"
        )
    return all(map(le, u, v))


def _classify(n: Lattice, sections) -> list[Face]:
    """Classify faces of N from (face, section) pairs, each axis's singleton
    listed before the faces through it.

    An axis's primitive generator is c/denom times e_k, c the pivot of its
    singleton section.  A face's index is the covolume of its edge
    sublattice over that of its section: the product of its axes' c over the
    product of the section's pivots.
    """
    reach: dict[int, int] = {}
    gens: dict[int, RatVec] = {}
    out = []
    for idx, section in sections:
        if len(idx) == 1:
            (k,) = idx
            reach[k] = c = section[0][k - 1]
            gens[k] = RatVec(
                [Fraction(c, n.denom) if i == k else 0 for i in range(1, n.dim + 1)]
            )
        c = tuple(reach[i] for i in idx)
        pivots = prod(row[i - 1] for i, row in zip(idx, section))
        assert prod(c) % pivots == 0
        out.append(
            Face(idx, tuple(gens[i] for i in idx), c, prod(c) // pivots, tuple(section))
        )
    return out


def face_data(n: Lattice, indices) -> Face:
    """Edge generators, index, regularity and section of a quadrant face."""
    idx = tuple(indices)  # checked before the set, where True would merge with 1
    if not all(intlat.is_index(i, n.dim) for i in idx):
        raise DomainError("BAD_FACE", f"face indices {idx} not within 1..{n.dim}")
    idx = tuple(sorted(set(idx)))
    # Its axes' singletons, then the face; a singleton face is listed once.
    faces = dict.fromkeys([(i,) for i in idx] + [idx])
    return _classify(n, [(f, intlat.section(n, f)) for f in faces])[-1]


def face_table(n: Lattice) -> tuple[Face, ...]:
    """Every nonempty face of the quadrant, by size and then indices, each
    section computed once by :func:`intlat.face_sections`."""
    sections = intlat.face_sections(n)
    axes = range(1, n.dim + 1)
    faces = [idx for size in axes for idx in combinations(axes, size)]
    return tuple(_classify(n, [(idx, sections[idx]) for idx in faces]))


def parallelepiped_points(n: Lattice, indices) -> list[tuple[int, ...]]:
    """Lattice points in the half-open edge parallelepiped of a face.

    These are the x in N with x_i in (0, c_i] on the face coordinates (c_i
    the positive coordinate of the primitive edge generator) and x_j = 0 off
    them, as sorted integer tuples denom*x; see :func:`face_parallelepiped`.
    """
    face = face_data(n, indices)
    if not face.indices:
        raise DomainError("BAD_FACE", "the zero face has no parallelepiped")
    return face_parallelepiped(n, face)


def face_parallelepiped(n: Lattice, face: Face) -> list:
    """:func:`parallelepiped_points` of a nonempty face already classified:
    the :func:`_box_walk` of its half-open box, sorted, which yields exactly
    the face's index of points."""
    points = _box_walk(n.dim, face, strict=False)
    points.sort()
    return points


def _box_walk(dim: int, face: Face, strict: bool, stair=None) -> list:
    """Points x of N with 0 < x_i <= c_i on the face's coordinates, or
    0 < x_i < c_i when ``strict`` (the open box), and x_j = 0 off them.

    The walk goes up the face's section basis from its last row, one
    :func:`_walk_level` a row.  Row r pivots at coordinate i = indices[r]
    and is 0 past it, so once the later rows' coefficients are fixed,
    coordinate i moves with row r's coefficient alone, and no choice is
    wasted on a non-point.  A level holds at most the product of c_i/p over
    the rows so far, so never more than the face's index of points.

    ``stair`` holds, as two lists, the coordinates j and k of the staircase
    (see :func:`minimal_singular_points`) of the singular 2-face {j, k} of
    the face's last two coordinates.  Once x_j and x_k are fixed, a partial
    point goes if a staircase point s has s_j <= x_j and s_k <= x_k: every
    point it completes to is s plus a vector positive on the rest of the
    face, so s lies strictly below it.  The staircase rises in j and falls
    in k, so the last point with s_j <= x_j decides, found by one bisect.
    """
    points = [(0,) * dim]
    for level, (i, c, row) in enumerate(
        reversed(list(zip(face.indices, face.reach, face.section)))
    ):
        points = _walk_level(points, i, c, row, strict)
        if level == 1 and stair:
            (j, k), (xs, ys) = face.indices[-2:], stair
            points = [
                x
                for x in points
                if not (at := bisect_right(xs, x[j - 1])) or ys[at - 1] > x[k - 1]
            ]
        if not points:
            break
    return points


def _walk_level(points, i: int, c: int, row, strict: bool) -> list:
    """Each partial point plus every multiple y*row that puts its coordinate
    i in (0, c], or in (0, c) when ``strict``.

    With p the pivot of row at i, coordinate i takes the values x_i + y*p
    from the least positive one, v in [1, p], on: c/p of them lie in (0, c],
    and the last is c itself iff v = p, that is iff p divides x_i.  Each
    multiple y*row is built once, not once per point.
    """
    p, k = row[i - 1], c // row[i - 1]
    lows = [-((x[i - 1] - 1) // p) for x in points]
    base = min(lows)
    multiples = [tuple(map(y.__mul__, row)) for y in range(base, max(lows) + k)]
    return [
        tuple(map(add, x, m))
        for x, low in zip(points, lows)
        for m in multiples[low - base : low - base + k - (strict and not x[i - 1] % p)]
    ]


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
    axes = list(zip(*pts))[1:]
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

    A singleton face is always regular, so a point of S below a point of a
    singular 2-face G lies on G itself.  G's share of S_min is therefore
    the set of minimal points of its own open box: in increasing order, the
    points whose second coordinate falls below every earlier one.  This
    staircase prunes the walk of each larger face (see :func:`_box_walk`),
    and one :func:`minimal_elements` pass over the staircases and the
    larger faces' survivors finishes S_min.  It is skipped when no point of
    a face of three or more coordinates survives.
    """
    _require_sublattice(n)
    singular = [face for face in faces if not face.regular]
    found, stairs = [], {}
    for face in singular:
        if len(face.indices) == 2:
            i, j = face.indices
            xs, ys = stairs[face.indices] = [], []
            for p in sorted(_box_walk(n.dim, face, strict=True)):
                if not ys or p[j - 1] < ys[-1]:
                    xs.append(p[i - 1])
                    ys.append(p[j - 1])
                    found.append(p)
    larger = [
        p
        for face in singular
        if len(face.indices) > 2
        for p in _box_walk(n.dim, face, strict=True, stair=stairs.get(face.indices[-2:]))
    ]
    if not larger:
        found.sort()
        return found
    return minimal_elements(found + larger)


def barycenter(n: Lattice, indices) -> tuple[int, ...]:
    """Sum of the primitive edge generators of a regular face, as an integer
    point."""
    _require_sublattice(n)
    face = face_data(n, indices)
    if not face.indices:
        raise DomainError("BAD_FACE", "the zero face has no barycenter")
    return barycenter_point(n, face)


def barycenter_point(n: Lattice, face: Face) -> tuple[int, ...]:
    """Numerators of denom times the barycenter of a face already classified
    for N: the face's reaches on its coordinates, 0 elsewhere."""
    if not face.regular:
        raise DomainError(
            "SINGULAR_FACE",
            f"face {face.indices} is singular; barycenters live on regular faces",
        )
    reach = dict(zip(face.indices, face.reach))
    return tuple(reach.get(k, 0) for k in range(1, n.dim + 1))


def monomial_valuation(v: RatVec, support) -> Fraction:
    """min over the support of the pairing <v, u>."""
    values = [v.dot(u) for u in support]
    if not values:
        raise DomainError("EMPTY_SUPPORT", "valuation of the zero series is undefined")
    return min(values)
