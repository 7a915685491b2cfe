"""Essential divisors and Nash-component counts per branch and per variety.

For one branch the relevant faces of the quadrant are assembled from the
singular-locus faces, any user-supplied extra faces, and the supports of the
contact monomials with the other branches.  The essential divisors are the
barycenters of the regular relevant faces (E) together with the minimal
lattice points of the singular faces (V, all of S_min); their number equals
the number of Nash components.  A reduced variety is the disjoint union of
its branches' relative problems, so counts simply add up.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass, field

from . import conegeom, qobranch
from .conegeom import Face, leq_sigma
from .errors import DomainError
from .intlat import Lattice, RatVec, is_index
from .qobranch import BranchLattices, BranchSpec


@dataclass(frozen=True)
class Contact:
    """Exponent of the monomial cutting out the meeting with another branch."""

    exponent: RatVec
    partner: str | None = None


@dataclass(frozen=True)
class BranchInput:
    spec: BranchSpec
    sing_faces: tuple[tuple[int, ...], ...] = ()
    extra_faces: tuple[tuple[int, ...], ...] = ()
    contacts: tuple[Contact, ...] = ()


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str


@dataclass(frozen=True)
class BranchReport:
    label: str
    char_exponents: tuple[RatVec, ...]
    lattices: BranchLattices
    relevant: tuple[Face, ...]  # B's components: faces of `faces`, in its order
    faces: tuple[Face, ...]
    s_min: tuple[tuple[int, ...], ...]  # each divisor as its integer point
    E: tuple[tuple[int, ...], ...]
    diagnostics: tuple[Diagnostic, ...] = field(default=())

    @property
    def V(self) -> tuple[tuple[int, ...], ...]:
        return self.s_min  # no S_min point lies above a barycenter (see _split)

    @property
    def nash_count(self) -> int:
        return len(self.E) + len(self.s_min)

    @property
    def singular_faces_of_sigma(self) -> tuple[tuple[int, ...], ...]:
        return tuple(f.indices for f in self.faces if not f.regular)


@dataclass(frozen=True)
class VarietyReport:
    branches: tuple[BranchReport, ...]

    @property
    def total_nash(self) -> int:
        return sum(r.nash_count for r in self.branches)

    @property
    def total_essential(self) -> int:
        return self.total_nash  # one essential divisor per Nash component


def contact_faces(m: RatVec) -> list[tuple[int]]:
    """Singleton faces cut out by a contact monomial: its support."""
    if not m.is_nonnegative():
        raise DomainError(
            "NEGATIVE_EXPONENT", f"contact exponent {m} has a negative coordinate"
        )
    if m.is_zero():
        raise DomainError(
            "ZERO_CONTACT",
            "zero contact exponent: a unit cuts out nothing, the branches do not meet",
        )
    return [(k,) for k in m.support()]


def componentize(raw) -> tuple[tuple[int, ...], ...]:
    """Keep the inclusion-minimal faces, by size and then indices; a face
    containing another lies in the other's orbit closure and is not a
    component."""
    faces = {tuple(sorted(set(i))) for i in raw}
    minimal = [
        i
        for i in faces
        if not any(j != i and set(j) <= set(i) for j in faces)
    ]
    minimal.sort(key=lambda i: (len(i), i))
    return tuple(minimal)


def lemma_min_diagnostics(e_points, s_min_points) -> list[Diagnostic]:
    """Flag barycenters strictly dominated inside E union S_min, both given
    as points.

    For consistent input (B contains the singular locus and the relevant
    faces are honest orbit-closure components) this can never fire; a hit
    means the supplied face data contradicts the lattice.
    """
    pool = [*e_points, *s_min_points]
    out = []
    for p in e_points:
        x = next((q for q in pool if q != p and leq_sigma(q, p)), None)
        if x is not None:
            out.append(
                Diagnostic(
                    "LEMMA_MIN_VIOLATION",
                    f"barycenter {RatVec(p)} is dominated by {RatVec(x)}; "
                    f"the supplied faces are inconsistent with the lattice",
                )
            )
    return out


def essential_divisors(
    n: Lattice, relevant
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], list[Diagnostic]]:
    """Split the essential divisors over the relevant faces, given as index
    sequences in any order, into E and V; an empty face, or an index that is
    a bool or outside 1..d, is refused with BAD_FACE.

    E holds the barycenters of the regular relevant faces; V holds the
    minimal singular-face lattice points not strictly dominated by a
    barycenter: all of S_min.  Each divisor is its integer point, and each
    list is sorted.  Their union is the full set of essential divisors
    relative to B, and equals the image of the Nash components.
    """
    chosen = set(_check_face_list(n.dim, relevant, kind="relevant", label=""))
    faces = conegeom.face_table(n)
    return _split(n, faces, [f for f in faces if f.indices in chosen])


def _split(n: Lattice, faces, relevant):
    """E, S_min (which is V) and diagnostics of N given its face table and
    the relevant faces among them, E and S_min as sorted integer points;
    the antichain is proved, not checked point by point."""
    s_min = conegeom.minimal_singular_points(n, faces)
    regular = [f for f in relevant if f.regular]
    e_points = sorted(conegeom.barycenter_point(n, f) for f in regular)
    # E and S_min form an antichain unless one regular relevant face lies
    # inside another.  S_min is one by construction.  No p in S_min lies
    # below a barycenter b_F: its support, a singular face, would lie in F,
    # and every subface of a regular face is regular.  No b_F lies below p
    # in S_min: p lies in the open box 0 < p_i < c_i of its face (see
    # minimal_singular_points), and b_F is c_i on F.  Last, b_F <= b_G iff F
    # lies inside G, as b_F is c_i on F and 0 off it.  So V is all of S_min,
    # and the pairwise scan runs only to word the diagnostics of
    # inconsistent input.
    diagnostics = []
    if any(set(f.indices) < set(g.indices) for f in regular for g in regular):
        diagnostics = lemma_min_diagnostics(e_points, s_min)
        assert diagnostics, "essential divisors must form an antichain"
    return e_points, s_min, diagnostics


def _check_face_list(dim: int, faces, *, kind: str, label: str) -> tuple[tuple[int, ...], ...]:
    out = []
    for raw in map(tuple, faces):
        if not raw or not all(is_index(i, dim) for i in raw):
            raise DomainError("BAD_FACE", f"{kind} face {raw} not within 1..{dim}", branch=label)
        idx = tuple(sorted(set(raw)))
        if kind == "singular-locus" and len(idx) > 2 and len(idx) != dim:
            raise DomainError(
                "BAD_FACE",
                f"singular-locus face {idx} must have one or two indices "
                f"(or all {dim} for a point singularity)",
                branch=label,
            )
        out.append(idx)
    return tuple(out)


def _prepare(branch: BranchInput, max_points: int | None):
    """Tower and face table of a branch, refused with LIMIT_EXCEEDED before
    any enumeration if its candidate points, sum(index) over the singular
    faces, exceed ``max_points``, or if its degree D has more digits than
    ``sys.get_int_max_str_digits()`` allows.

    D bounds every integer the report writes but the input's exponents and
    the counts.  D is the order of M/Z^d, so M.denom, that group's exponent,
    and each step index divide it.  The scaled bases of M and of N = dual(M)
    lie in Z^d and contain M.denom*Z^d, so their Hermite pivots divide
    M.denom and their other entries lie below the pivots.  The axis reaches
    are pivots of N's axis sections, and S_min and E lie within them.
    """
    lattices = qobranch.build_tower(branch.spec)
    # 0 means no limit, as on Pythons older than 3.10.7, which lack the call.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    degree = lattices.degree_n
    # A bit length of at most 3*limit puts the degree below 8**limit < 10**limit.
    if limit and degree.bit_length() > 3 * limit and degree >= 10**limit:
        raise DomainError(
            "LIMIT_EXCEEDED",
            f"degree or a lattice entry has more than {limit} digits, more "
            f"than Python writes (sys.get_int_max_str_digits())",
            branch=branch.spec.label,
        )
    faces = conegeom.face_table(lattices.N)
    points = sum(f.index for f in faces if not f.regular)
    if max_points is not None and points > max_points:
        raise DomainError(
            "LIMIT_EXCEEDED",
            f"{points} candidate points above --max-index {max_points}",
            branch=branch.spec.label,
        )
    return lattices, faces


def analyze_branch(
    branch: BranchInput, *, max_points: int | None = None
) -> BranchReport:
    """Relative Nash data of one branch.

    ``max_points`` caps the candidate points: sum(index) over the singular
    faces, the points of their half-open edge boxes, checked before
    enumeration.  It bounds the walk of the open boxes, which holds fewer
    points (see :func:`conegeom.minimal_singular_points`).  Raises
    B_MISSING_SING when the normalization is singular but no singular-locus
    faces were supplied, since B must contain the singular locus for the
    face picture to be meaningful.
    """
    return _analyze(branch, *_prepare(branch, max_points))


def _analyze(
    branch: BranchInput, lattices: BranchLattices, faces: tuple[Face, ...]
) -> BranchReport:
    label = branch.spec.label
    n = lattices.N
    d = branch.spec.dim

    sing_faces = _check_face_list(d, branch.sing_faces, kind="singular-locus", label=label)
    extra_faces = _check_face_list(d, branch.extra_faces, kind="extra", label=label)
    raw: list[tuple[int, ...]] = list(sing_faces) + list(extra_faces)
    for contact in branch.contacts:
        if contact.exponent.dim != d:
            raise DomainError(
                "DIMENSION_MISMATCH",
                f"contact exponent {contact.exponent} has dimension "
                f"{contact.exponent.dim}, expected {d}",
                branch=label,
            )
        try:
            raw.extend(contact_faces(contact.exponent))
        except DomainError as exc:
            raise DomainError(exc.code, exc.message, branch=label) from None
    components = componentize(raw)
    relevant = tuple(f for f in faces if f.indices in components)

    sigma_singular = any(not f.regular for f in faces)
    if sigma_singular and not sing_faces:
        raise DomainError(
            "B_MISSING_SING",
            "the normalization is singular but no singular-locus faces were "
            "supplied; B must contain the singular locus",
            branch=label,
        )

    e_points, s_min, diagnostics = _split(n, faces, relevant)
    if not relevant and not sigma_singular:
        diagnostics = diagnostics + [
            Diagnostic(
                "EMPTY_B",
                "smooth branch with empty B: no Nash components, no essential divisors",
            )
        ]
    return BranchReport(
        label=label,
        char_exponents=branch.spec.char_exponents,
        lattices=lattices,
        relevant=relevant,
        faces=faces,
        s_min=tuple(s_min),
        E=tuple(e_points),
        diagnostics=tuple(diagnostics),
    )


def _check_contact_symmetry(branches) -> None:
    labels = Counter(b.spec.label for b in branches)
    dupes = [l for l, count in labels.items() if count > 1]
    if dupes:
        raise DomainError("DUPLICATE_LABEL", f"branch labels not unique: {sorted(dupes)}")
    pairs = {(b.spec.label, c.partner) for b in branches for c in b.contacts}
    for b in branches:
        seen = set()
        for contact in b.contacts:
            partner = contact.partner
            if partner is None:
                raise DomainError(
                    "ASYMMETRIC_CONTACT",
                    "contact without a partner label cannot be matched",
                    branch=b.spec.label,
                )
            if partner == b.spec.label:
                raise DomainError(
                    "SELF_CONTACT", "a branch cannot meet itself", branch=b.spec.label
                )
            if partner not in labels:
                raise DomainError(
                    "UNKNOWN_BRANCH",
                    f"contact names unknown branch {partner!r}",
                    branch=b.spec.label,
                )
            if partner in seen:
                raise DomainError(
                    "DUPLICATE_CONTACT",
                    f"more than one contact listed for branch {partner!r}",
                    branch=b.spec.label,
                )
            seen.add(partner)
            if (partner, b.spec.label) not in pairs:
                raise DomainError(
                    "ASYMMETRIC_CONTACT",
                    f"branch {b.spec.label!r} lists a contact with {partner!r} "
                    f"but not conversely",
                )


def analyze_variety(
    branches, *, max_points: int | None = None
) -> VarietyReport:
    """Aggregate the per-branch relative problems of a reduced germ.

    The preimage of the singular locus splits as the disjoint union of the
    per-branch preimages of B_i, so Nash components and essential divisors
    are counted branch by branch and summed.  ``max_points`` caps each
    branch's candidate points before any enumeration, as in
    :func:`analyze_branch`.
    """
    branches = list(branches)
    # Tower errors and candidate budgets, in branch order, precede contacts.
    prepared = [_prepare(b, max_points) for b in branches]
    _check_contact_symmetry(branches)
    reports = tuple(_analyze(b, *p) for b, p in zip(branches, prepared))
    return VarietyReport(branches=reports)
