"""Exact integer and rational lattice arithmetic.

Everything here is bit-exact: vectors are tuples of ``fractions.Fraction``,
matrices are Python integers, and no floating point is ever allowed in.
Lattices are stored in a canonical form (scaled lower-triangular row Hermite
normal form), so two equal lattices compare equal as objects.  One integer
back-substitution, ``Lattice.scaled_coefficients``, is the only triangular
solver: it decides membership and reads the adjugate that gives the dual.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from itertools import combinations
from math import gcd, lcm, prod

from .errors import DomainError

# Face enumeration downstream is 2**d, so the ambient dimension stays small.
MAX_DIM = 16

RatLike = int | str | Fraction


def is_int(value) -> bool:
    """Whether value is an int but not a bool, which would merge with 1 in a set."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_index(value, top: int) -> bool:
    """Whether value is an int (:func:`is_int`) in 1..top."""
    return is_int(value) and 1 <= value <= top


def face_indices(raw, dim: int, name: str = "face indices"):
    """The face of the coordinates ``raw``, sorted and distinct: the one rule
    for a face.  ``raw`` must be nonempty and each entry an index in 1..dim,
    or it is refused with BAD_FACE "<name> <raw> not within 1..dim".  The
    check runs before the set, where True would merge with 1."""
    raw = tuple(raw)
    if not raw or not all(is_index(i, dim) for i in raw):
        raise DomainError("BAD_FACE", f"{name} {raw} not within 1..{dim}")
    return tuple(sorted(set(raw)))


def same_dim(a: int, b: int, what: str = "vector") -> None:
    """Refuse unequal dimensions a and b of two ``what``s with DIMENSION_MISMATCH."""
    if a != b:
        raise DomainError("DIMENSION_MISMATCH", f"{what} dimensions differ: {a} vs {b}")


def _as_fraction(value: RatLike) -> Fraction:
    if isinstance(value, (float, bool)):
        raise TypeError(f"exact rational expected, got {value!r}")
    return Fraction(value)


@total_ordering
class RatVec:
    """Vector of exact rationals in ambient d-space, a value: callers must not
    mutate it.  Nothing enforces this (the class is not frozen, which keeps
    construction cheap), and a vector changed after hashing is lost from its
    set.  It equals only another RatVec with the same coordinates, and is
    ordered, lexicographically by coordinates, only against another RatVec."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords = tuple(map(_as_fraction, coords))
        if not 1 <= len(self.coords) <= MAX_DIM:
            raise DomainError(
                "DIMENSION_MISMATCH",
                f"vector dimension {len(self.coords)} outside 1..{MAX_DIM}",
            )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self) -> int:
        return hash((self.coords,))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coords < other.coords

    def scale(self, q: RatLike) -> "RatVec":
        q = _as_fraction(q)
        return RatVec(q * a for a in self.coords)

    def dot(self, other: "RatVec") -> Fraction:
        same_dim(len(self.coords), len(other.coords))
        return sum((a * b for a, b in zip(self.coords, other.coords)), Fraction(0))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.coords)

    def support(self) -> tuple[int, ...]:
        """1-based indices of the nonzero coordinates."""
        return tuple(i + 1 for i, c in enumerate(self.coords) if c != 0)

    def denominator(self) -> int:
        """Least positive D with D * self integral."""
        return lcm(*(c.denominator for c in self.coords))

    def __repr__(self) -> str:
        return f"RatVec({', '.join(str(c) for c in self.coords)})"

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def _to_int(value) -> int:
    if is_int(value):
        return value
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    raise TypeError(f"integer expected, got {value!r}")


def _int_rows(rows) -> list[list[int]]:
    out = [[_to_int(c) for c in row] for row in rows]
    if not out:
        raise DomainError("DIMENSION_MISMATCH", "empty row list")
    width = len(out[0])
    if any(len(r) != width for r in out):
        raise DomainError("DIMENSION_MISMATCH", "rows of unequal length")
    if width == 0:
        raise DomainError("DIMENSION_MISMATCH", "empty rows")
    return out


def _hnf_core(rows, cols=None) -> list[tuple[int, ...]]:
    """Row HNF basis of the integer row span, triangular in the column order
    ``cols`` (0-based; every column in ambient order by default).

    One elimination runs through the columns from the last listed to the
    first.  Each pivot is made positive and at once reduces the finished
    rows at its column; it is zero at every column they pivot at, so their
    reduced entries stay put.  The rows must vanish off ``cols``.  They come
    back in ambient coordinates, ordered by where their pivots are listed,
    each zero at the columns listed after its pivot and with its entry at
    an earlier row's pivot column c in [0, pivot_c).  No transform is
    tracked: kernels and sections are read off a Hermite form (Cohen,
    GTM 138, 2.4).
    """
    work, done = list(rows), []
    for col in reversed(range(len(work[0])) if cols is None else cols):
        live = [i for i, row in enumerate(work) if row[col]]
        while len(live) > 1:
            live.sort(key=lambda i: abs(work[i][col]))
            p = work[live[0]]
            for i in live[1:]:
                q = work[i][col] // p[col]
                if q:
                    work[i] = [a - q * b for a, b in zip(work[i], p)]
            live = [i for i in live if work[i][col]]
        if not live:
            continue
        p = work.pop(live[0])
        if p[col] < 0:
            p = [-a for a in p]
        for k, row in enumerate(done):
            q = row[col] // p[col]
            if q:
                done[k] = [a - q * b for a, b in zip(row, p)]
        done.append(p)
    assert not any(map(any, work))
    return [tuple(row) for row in reversed(done)]


def hnf(rows) -> list[tuple[int, ...]]:
    """Row Hermite normal form of the integer row span.

    Lower-triangular convention: each returned row has its (positive) pivot as
    its last nonzero entry, pivot columns ascend, and entries under earlier
    pivot columns are reduced modulo that pivot.  Rank-deficient input yields
    fewer rows than columns.
    """
    return _hnf_core(_int_rows(rows))


def integer_kernel(rows) -> list[tuple[int, ...]]:
    """Basis of {y integer : y . rows = 0}, canonicalized by hnf.

    It is read off the HNF of [I | rows]: the rows pivoting in the I block
    are zero on the right, and their left parts are the kernel's HNF.
    """
    a = _int_rows(rows)
    n = len(a)
    stacked = [[int(i == j) for j in range(n)] + row for i, row in enumerate(a)]
    return [tuple(r[:n]) for r in _hnf_core(stacked) if not any(r[n:])]


def snf(mat) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... | d_r of an integer matrix.

    Row Hermite forms of the matrix and then of each form's transpose reach
    a diagonal (Kannan & Bachem, SIAM J. Comput. 8, 1979): the last pivot is
    the gcd of the last column, so it never grows, and once it stops
    shrinking it divides its row and the next form splits it off.  Pairs of
    diagonal entries then become their gcd and lcm.
    """
    a = _int_rows(mat)
    if not any(map(any, a)):
        raise DomainError("ZERO_MATRIX", "Smith form of the zero matrix is undefined")
    h = _hnf_core(a)
    while any(x for i, row in enumerate(h) for j, x in enumerate(row) if i != j):
        h = _hnf_core([list(col) for col in zip(*h)])
    d = [row[i] for i, row in enumerate(h)]
    for i, j in combinations(range(len(d)), 2):
        g = gcd(d[i], d[j])
        d[i], d[j] = g, d[i] * d[j] // g
    return tuple(d)


class Lattice:
    """Full-rank rational lattice in d-space, canonically represented.

    ``denom`` is the least positive D with D*L inside Z^d and ``scaled_basis``
    is the lower-triangular HNF basis of the integer lattice D*L, so equal
    lattices have identical fields.  Not constructed directly; use
    :func:`lattice_from_generators`, :func:`standard_lattice`, or the lattice
    operations below.  Its dimension is the number of basis rows.
    """

    __slots__ = ("denom", "scaled_basis")

    def __init__(self, denom: int, scaled_basis: tuple[tuple[int, ...], ...]):
        self.denom, self.scaled_basis = denom, scaled_basis

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.denom == other.denom and self.scaled_basis == other.scaled_basis

    def __hash__(self) -> int:
        return hash((self.denom, self.scaled_basis))

    @property
    def dim(self) -> int:
        return len(self.scaled_basis)

    @property
    def basis(self) -> tuple[RatVec, ...]:
        """Rows generating the lattice, as exact rational vectors."""
        return tuple(
            RatVec(Fraction(x, self.denom) for x in row) for row in self.scaled_basis
        )

    def scaled_coefficients(self, m) -> tuple[int, ...] | None:
        """Integer y with y . scaled_basis = m, or None if there is none: the
        basis coefficients of x when m holds the numerators of denom*x, by
        back-substitution from the last pivot of the triangular basis."""
        s, d = self.scaled_basis, self.dim
        y = [0] * d
        for j in range(d - 1, -1, -1):
            rest = m[j] - sum(y[i] * s[i][j] for i in range(j + 1, d))
            y[j], r = divmod(rest, s[j][j])
            if r:
                return None
        return tuple(y)

    def __repr__(self) -> str:
        rows = ", ".join(str(v) for v in self.basis)
        return f"Lattice(dim={self.dim}, basis=[{rows}])"


def standard_lattice(dim: int) -> Lattice:
    """The integer lattice Z^d."""
    if not is_index(dim, MAX_DIM):
        raise DomainError("DIMENSION_MISMATCH", f"dimension {dim} outside 1..{MAX_DIM}")
    rows = tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim))
    return Lattice(1, rows)


def lattice_from_generators(gens) -> Lattice:
    """Canonical lattice equal to the integer span of the generators.

    Denominators are cleared to the least common D, the integer rows are put
    in HNF, and the result is rescaled; raises NOT_FULL_RANK if the
    generators do not span d-space over the rationals.
    """
    gens = [g if isinstance(g, RatVec) else RatVec(g) for g in gens]
    if not gens:
        raise DomainError("NOT_FULL_RANK", "no generators given")
    dim = gens[0].dim
    if any(g.dim != dim for g in gens):
        raise DomainError("DIMENSION_MISMATCH", "generators of mixed dimension")
    denom = lcm(*(g.denominator() for g in gens))
    rows = [[(c * denom).numerator for c in g.coords] for g in gens]
    return lattice_from_scaled(denom, rows)


def lattice_from_scaled(denom: int, int_rows: list[list[int]]) -> Lattice:
    """Canonical lattice spanned by the integer rows over denom.

    The rows are put in HNF and the common factor of denom and the HNF
    entries is divided out, so denom becomes the least D with D*L inside
    Z^d; raises NOT_FULL_RANK if the rows do not span d-space.
    """
    dim = len(int_rows[0])
    basis = _hnf_core(int_rows)
    if len(basis) < dim:
        raise DomainError("NOT_FULL_RANK", f"generators span rank {len(basis)} < {dim}")
    g = gcd(denom, *(x for row in basis for x in row))
    return Lattice(denom // g, tuple(tuple(x // g for x in r) for r in basis))


def lattice_sum(a: Lattice, b: Lattice) -> Lattice:
    """Smallest lattice containing both summands."""
    same_dim(a.dim, b.dim, "lattice")
    denom = lcm(a.denom, b.denom)
    rows = [[x * denom // l.denom for x in r] for l in (a, b) for r in l.scaled_basis]
    return lattice_from_scaled(denom, rows)


def dual_lattice(l: Lattice) -> Lattice:
    """{v : <v, u> integral for all u in l}.

    With S the scaled basis, the dual basis is the columns of
    denom * S^-1 = denom * adj(S) / det S.  Row i of adj(S) is the integer y
    with y . S = det(S) e_i, found by back-substitution (Cohen, GTM 138, 2.2).
    """
    d, det = l.dim, prod(l.scaled_basis[i][i] for i in range(l.dim))
    adj = [
        l.scaled_coefficients([det if j == i else 0 for j in range(d)])
        for i in range(d)
    ]
    return lattice_from_scaled(det, [[l.denom * x for x in col] for col in zip(*adj)])


def contains(l: Lattice, v: RatVec) -> bool:
    """True iff v is an integer combination of the basis rows."""
    if v.dim != l.dim:
        raise DomainError(
            "DIMENSION_MISMATCH",
            f"vector of dimension {v.dim} against lattice of dimension {l.dim}",
        )
    scaled = [c * l.denom for c in v.coords]
    if any(w.denominator != 1 for w in scaled):
        return False  # off the 1/denom grid
    return l.scaled_coefficients([w.numerator for w in scaled]) is not None


def index(sub: Lattice, sup: Lattice) -> int:
    """Index [sup : sub] of a finite-index sublattice: the ratio of the
    covolumes, each the product of the Hermite pivots over denom**d."""
    same_dim(sub.dim, sup.dim, "lattice")
    for row in sub.basis:
        if not contains(sup, row):
            raise DomainError(
                "NOT_SUBLATTICE", f"basis vector {row} lies outside the big lattice"
            )
    d = sub.dim
    ratio, rest = divmod(
        prod(r[i] for i, r in enumerate(sub.scaled_basis)) * sup.denom**d,
        prod(r[i] for i, r in enumerate(sup.scaled_basis)) * sub.denom**d,
    )
    assert not rest and ratio >= 1
    return ratio


def section(l: Lattice, idx) -> list[tuple[int, ...]]:
    """Hermite basis of denom times the lattice points supported on a face.

    ``idx`` lists the face's coordinates (1-based, strictly ascending), or
    the face is refused with BAD_FACE, as by :func:`face_indices`.  In the
    column order with them first, the leading len(idx) rows of the Hermite
    form are the HNF of that section (Cohen, GTM 138, 2.4); they come back
    in ambient order, row r pivoting at coordinate idx[r].
    """
    idx = tuple(idx)
    if face_indices(idx, l.dim) != idx:
        raise DomainError("BAD_FACE", f"face indices {idx} not strictly ascending")
    rest = [j for j in range(l.dim) if j + 1 not in idx]
    return _hnf_core(l.scaled_basis, [i - 1 for i in idx] + rest)[: len(idx)]


def face_sections(l: Lattice) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """:func:`section` of every nonempty face, each read off a face one larger.

    The leading rows of a Hermite form depend only on the leading columns, so
    the section of F is the first |F| rows of the section of F + {d} when F
    misses the last coordinate d.  Otherwise it is the section of F within
    the section of F + {j}, j any coordinate off F, whose rows vanish off
    the columns (F..., j): one elimination of |F| + 1 rows in that column
    order, 2^(d-1) - 1 of them in all.  Faces go from the largest down, so
    each larger face is ready when it is needed.
    """
    d = l.dim
    out = {tuple(range(1, d + 1)): list(l.scaled_basis)}
    for size in range(d - 1, 0, -1):
        for idx in combinations(range(1, d + 1), size):
            if idx[-1] != d:
                out[idx] = out[idx + (d,)][:size]
            else:
                # The last coordinate off F: the fewest rows pivot after it.
                j = next(k for k in range(d - 1, 0, -1) if k not in idx)
                cols = [i - 1 for i in idx] + [j - 1]
                out[idx] = _hnf_core(out[tuple(sorted(idx + (j,)))], cols)[:size]
    return out


def primitive_on_ray(l: Lattice, k: int) -> RatVec:
    """Smallest positive multiple of e_k lying in the lattice (1-based k):
    the axis's section, whose one nonzero entry is its pivot, over denom."""
    if not is_index(k, l.dim):
        raise DomainError("DIMENSION_MISMATCH", f"axis {k} outside 1..{l.dim}")
    (row,) = section(l, (k,))
    return RatVec(Fraction(x, l.denom) for x in row)
