"""Exact integer and rational lattice arithmetic.

Everything here is bit-exact: vectors are tuples of ``fractions.Fraction``,
matrices are Python integers, and no floating point is ever allowed in.
Lattices are stored in a canonical form (scaled lower-triangular row Hermite
normal form), so two equal lattices compare equal as objects.  One integer
back-substitution, ``Lattice.scaled_coefficients``, is the only triangular
solver: it decides membership and reads the adjugate that gives the dual.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod

from .errors import DomainError

# Face enumeration downstream is 2**d, so the ambient dimension stays small.
MAX_DIM = 16

RatLike = int | str | Fraction


def is_index(value, top: int) -> bool:
    """Whether value is an int in 1..top.  A bool is an int to isinstance,
    and True would merge with 1 in a set, but it is no index."""
    return isinstance(value, int) and not isinstance(value, bool) and 1 <= value <= top


def _as_fraction(value: RatLike) -> Fraction:
    if isinstance(value, float):
        raise TypeError("floating point is not allowed in exact lattice data")
    return Fraction(value)


@dataclass(slots=True, unsafe_hash=True, repr=False)
class RatVec:
    """Vector of exact rationals in ambient d-space, a value: callers must not
    mutate it.  Nothing enforces this (the class is not frozen, which keeps
    construction cheap), and a vector changed after hashing is lost from its
    set."""

    coords: tuple[Fraction, ...]

    def __post_init__(self):
        self.coords = tuple(map(_as_fraction, self.coords))
        if not 1 <= len(self.coords) <= MAX_DIM:
            raise DomainError(
                "DIMENSION_MISMATCH",
                f"vector dimension {len(self.coords)} outside 1..{MAX_DIM}",
            )

    @classmethod
    def zero(cls, dim: int) -> "RatVec":
        return cls([0] * dim)

    @classmethod
    def unit(cls, dim: int, k: int) -> "RatVec":
        """Standard basis vector e_k, 1-based k."""
        if not (is_index(dim, MAX_DIM) and is_index(k, dim)):
            raise DomainError("DIMENSION_MISMATCH", f"axis {k} outside 1..{dim}")
        return cls([1 if i == k - 1 else 0 for i in range(dim)])

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __lt__(self, other: "RatVec") -> bool:
        return self.coords < other.coords

    def __add__(self, other: "RatVec") -> "RatVec":
        self._check_dim(other)
        return RatVec(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other: "RatVec") -> "RatVec":
        self._check_dim(other)
        return RatVec(a - b for a, b in zip(self.coords, other.coords))

    def scale(self, q: RatLike) -> "RatVec":
        q = _as_fraction(q)
        return RatVec(q * a for a in self.coords)

    def dot(self, other: "RatVec") -> Fraction:
        self._check_dim(other)
        return sum((a * b for a, b in zip(self.coords, other.coords)), Fraction(0))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.coords)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coords)

    def support(self) -> tuple[int, ...]:
        """1-based indices of the nonzero coordinates."""
        return tuple(i + 1 for i, c in enumerate(self.coords) if c != 0)

    def denominator(self) -> int:
        """Least positive D with D * self integral."""
        return lcm(*(c.denominator for c in self.coords))

    def _check_dim(self, other: "RatVec") -> None:
        if len(self.coords) != len(other.coords):
            raise DomainError(
                "DIMENSION_MISMATCH",
                f"vector dimensions differ: {len(self.coords)} vs {len(other.coords)}",
            )

    def __repr__(self) -> str:
        return f"RatVec({', '.join(str(c) for c in self.coords)})"

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def _to_int(value) -> int:
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(f"integer expected, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    raise TypeError(f"integer expected, got {value!r}")


def _int_rows(rows) -> list[list[int]]:
    out = [[_to_int(c) for c in row] for row in rows]
    if not out:
        raise DomainError("DIMENSION_MISMATCH", "empty row list")
    width = len(out[0])
    if width == 0 or any(len(r) != width for r in out):
        raise DomainError("DIMENSION_MISMATCH", "rows of unequal length")
    return out


def _hnf_core(rows: list[list[int]]) -> list[list[int]]:
    """Lower-triangular row HNF basis of the integer row span.

    The rows come back sorted by ascending pivot column, pivots positive,
    and for every earlier pivot column c the entries of later rows at c lie
    in [0, pivot_c).  No transform is tracked: kernels and sections are read
    off a Hermite form (Cohen, GTM 138, 2.4).
    """
    work = [row[:] for row in rows]
    free = list(range(len(work)))
    pivot_of_col: dict[int, int] = {}

    for col in range(len(work[0]) - 1, -1, -1):
        live = [i for i in free if work[i][col] != 0]
        while len(live) > 1:
            live.sort(key=lambda i: abs(work[i][col]))
            p = live[0]
            for i in live[1:]:
                q = work[i][col] // work[p][col]
                if q:
                    work[i] = [a - q * b for a, b in zip(work[i], work[p])]
            live = [i for i in live if work[i][col] != 0]
        if not live:
            continue
        p = live[0]
        if work[p][col] < 0:
            work[p] = [-a for a in work[p]]
        pivot_of_col[col] = p
        free.remove(p)

    pivot_cols = sorted(pivot_of_col)
    # Reduce entries at earlier pivot columns; descending order keeps the
    # already-reduced later columns untouched.
    for col in pivot_cols:
        r = pivot_of_col[col]
        for col2 in sorted((c for c in pivot_cols if c < col), reverse=True):
            r2 = pivot_of_col[col2]
            q = work[r][col2] // work[r2][col2]
            if q:
                work[r] = [a - q * b for a, b in zip(work[r], work[r2])]

    assert all(all(x == 0 for x in work[i]) for i in free)
    return [work[pivot_of_col[c]] for c in pivot_cols]


def hnf(rows) -> list[tuple[int, ...]]:
    """Row Hermite normal form of the integer row span.

    Lower-triangular convention: each returned row has its (positive) pivot as
    its last nonzero entry, pivot columns ascend, and entries under earlier
    pivot columns are reduced modulo that pivot.  Rank-deficient input yields
    fewer rows than columns.
    """
    return [tuple(r) for r in _hnf_core(_int_rows(rows))]


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


@dataclass(slots=True, unsafe_hash=True, repr=False)
class Lattice:
    """Full-rank rational lattice in d-space, canonically represented.

    ``denom`` is the least positive D with D*L inside Z^d and ``scaled_basis``
    is the lower-triangular HNF basis of the integer lattice D*L, so equal
    lattices have identical fields.  Not constructed directly; use
    :func:`lattice_from_generators`, :func:`standard_lattice`, or the lattice
    operations below.
    """

    dim: int
    denom: int
    scaled_basis: tuple[tuple[int, ...], ...]

    @property
    def basis(self) -> tuple[RatVec, ...]:
        """Rows generating the lattice, as exact rational vectors."""
        return tuple(
            RatVec(Fraction(x, self.denom) for x in row) for row in self.scaled_basis
        )

    @property
    def det(self) -> Fraction:
        """Positive determinant of the basis (covolume): HNF pivots are positive."""
        pivots = prod(self.scaled_basis[i][i] for i in range(self.dim))
        return Fraction(pivots, self.denom**self.dim)

    def scaled_coords(self, v: RatVec) -> tuple[int, ...] | None:
        """Numerator tuple of denom*v, or None if v falls off the 1/denom grid."""
        out = []
        for c in v.coords:
            w = c * self.denom
            if w.denominator != 1:
                return None
            out.append(w.numerator)
        return tuple(out)

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
    return Lattice(dim, 1, rows)


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
    return Lattice(dim, denom // g, tuple(tuple(x // g for x in r) for r in basis))


def lattice_sum(a: Lattice, b: Lattice) -> Lattice:
    """Smallest lattice containing both summands."""
    if a.dim != b.dim:
        raise DomainError(
            "DIMENSION_MISMATCH", f"lattice dimensions differ: {a.dim} vs {b.dim}"
        )
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
    m = l.scaled_coords(v)
    return m is not None and l.scaled_coefficients(m) is not None


def index(sub: Lattice, sup: Lattice) -> int:
    """Index [sup : sub] of a finite-index sublattice."""
    if sub.dim != sup.dim:
        raise DomainError(
            "DIMENSION_MISMATCH", f"lattice dimensions differ: {sub.dim} vs {sup.dim}"
        )
    for row in sub.basis:
        if not contains(sup, row):
            raise DomainError(
                "NOT_SUBLATTICE", f"basis vector {row} lies outside the big lattice"
            )
    ratio = sub.det / sup.det
    assert ratio.denominator == 1 and ratio.numerator >= 1
    return ratio.numerator


def section(l: Lattice, idx) -> list[tuple[int, ...]]:
    """Hermite basis of denom times the lattice points supported on a face.

    ``idx`` lists the face's coordinates (1-based, ascending).  With them
    first, the leading len(idx) rows of the lower-triangular HNF are the HNF
    of that section (Cohen, GTM 138, 2.4); they come back in ambient order,
    row r pivoting at coordinate idx[r].
    """
    rest = [j for j in range(l.dim) if j + 1 not in idx]
    return _leading_rows(l.scaled_basis, [i - 1 for i in idx] + rest, len(idx))


def _leading_rows(rows, cols, size: int) -> list[tuple[int, ...]]:
    """The leading ``size`` rows of the HNF of ``rows`` taken on the columns
    ``cols`` (0-based, in that order), put back in place with 0 elsewhere."""
    out = []
    for row in _hnf_core([[row[c] for c in cols] for row in rows])[:size]:
        full = [0] * len(rows[0])
        for c, x in zip(cols, row):
            full[c] = x
        out.append(tuple(full))
    return out


def face_sections(l: Lattice) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """:func:`section` of every nonempty face, each read off a face one larger.

    The leading rows of a Hermite form depend only on the leading columns, so
    the section of F is the first |F| rows of the section of F + {d} when F
    misses the last coordinate d.  Otherwise it is the section of F within
    the section of F + {j}, j any coordinate off F, which is zero off the
    columns (F..., j): one Hermite form of size |F| + 1.  Faces go from the
    largest down, so each larger face is ready when it is needed.
    """
    d = l.dim
    out = {tuple(range(1, d + 1)): [tuple(r) for r in l.scaled_basis]}
    for size in range(d - 1, 0, -1):
        for idx in combinations(range(1, d + 1), size):
            if idx[-1] != d:
                out[idx] = out[idx + (d,)][:size]
            else:
                # The last coordinate off F: the fewest rows pivot after it.
                j = next(k for k in range(d - 1, 0, -1) if k not in idx)
                cols = [i - 1 for i in idx] + [j - 1]
                out[idx] = _leading_rows(out[tuple(sorted(idx + (j,)))], cols, size)
    return out


def primitive_on_ray(l: Lattice, k: int) -> RatVec:
    """Smallest positive multiple of e_k lying in the lattice (1-based k):
    the pivot of the axis's section, over denom."""
    if not is_index(k, l.dim):
        raise DomainError("DIMENSION_MISMATCH", f"axis {k} outside 1..{l.dim}")
    (row,) = section(l, (k,))
    return RatVec.unit(l.dim, k).scale(Fraction(row[k - 1], l.denom))
