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
from collections import Counter, namedtuple
from itertools import combinations

from . import conegeom, qobranch
from .conegeom import Face, leq_sigma
from .errors import DomainError, names_branch
from .intlat import Lattice, RatVec, face_indices
from .qobranch import BranchLattices


class Contact(namedtuple("Contact", "exponent partner", defaults=(None,))):
    """Exponent of the monomial cutting out the meeting with branch ``partner``."""

    __slots__ = ()


class BranchInput(namedtuple("BranchInput", "spec sing_faces extra_faces contacts",
                             defaults=((), (), ()))):
    """A BranchSpec, its singular-locus and extra faces as index tuples, and
    its Contacts."""

    __slots__ = ()

    @property
    def label(self) -> str:
        return self.spec.label


class Diagnostic(namedtuple("Diagnostic", "code message")):
    __slots__ = ()


class BranchReport(namedtuple("BranchReport", "label char_exponents lattices relevant faces "
                              "s_min E diagnostics", defaults=((),))):
    """One branch's result.  ``relevant`` holds B's components, faces of
    ``faces`` in its order; ``s_min`` and ``E`` hold each divisor as its
    integer point."""

    __slots__ = ()

    @property
    def V(self) -> tuple[tuple[int, ...], ...]:
        return self.s_min  # no S_min point lies above a barycenter (see essential_divisors)

    @property
    def nash_count(self) -> int:
        return len(self.E) + len(self.s_min)

    @property
    def singular_faces_of_sigma(self) -> tuple[tuple[int, ...], ...]:
        return tuple(f.indices for f in self.faces if not f.regular)


class VarietyReport(namedtuple("VarietyReport", "branches")):
    __slots__ = ()

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
    """B's components by size, then indices: the listed faces F with no listed
    proper subface, since a face holding another lies in its orbit closure.
    Each F costs under 2^|F| set lookups, so under 3^d in dimension d."""
    faces = {tuple(sorted(set(i))) for i in raw}
    kept = [f for f in faces
            if not any(g in faces for r in range(len(f)) for g in combinations(f, r))]
    return tuple(sorted(kept, key=lambda f: (len(f), f)))


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
    sequences in any order, into E and V; each face is checked by
    :func:`intlat.face_indices`.

    E holds the barycenters of the regular relevant faces; V holds the
    minimal singular-face lattice points not strictly dominated by a
    barycenter: all of S_min.  Each divisor is its integer point, and each
    list is sorted.  Their union is the full set of essential divisors
    relative to B, and equals the image of the Nash components.
    """
    chosen = {face_indices(raw, n.dim, "relevant face") for raw in relevant}
    faces = conegeom.face_table(n)
    regular = [f for f in faces if f.regular and f.indices in chosen]
    e_points = sorted(f.barycenter for f in regular)
    s_min = conegeom.minimal_singular_points(n, faces)
    # E and S_min form an antichain unless one regular relevant face lies
    # inside another.  S_min is one by construction.  No p in S_min lies
    # below a barycenter b_F: its support, a singular face, would lie in F,
    # and every subface of a regular face is regular.  No b_F lies below p
    # in S_min: p lies in the open box 0 < p_i < c_i of its face (see
    # minimal_singular_points), and b_F is c_i on F.  Last, b_F <= b_G iff F
    # lies inside G, as b_F is c_i on F and 0 off it.  So V is all of S_min,
    # and the nesting test is componentize's rule: the regular faces nest
    # just when it drops one, and only then are the diagnostics of
    # inconsistent input worded, from E alone, since no S_min point lies
    # below a barycenter.
    diagnostics = []
    if len(componentize(f.indices for f in regular)) < len(regular):
        diagnostics = lemma_min_diagnostics(e_points, ())
        assert diagnostics, "essential divisors must form an antichain"
    return e_points, s_min, diagnostics


@names_branch
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
    try:
        str(lattices.degree_n)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise DomainError(
            "LIMIT_EXCEEDED",
            f"degree or a lattice entry has more than {limit} digits, more "
            f"than Python writes (sys.get_int_max_str_digits())",
        ) from None
    faces = conegeom.face_table(lattices.N)
    points = sum(f.index for f in faces if not f.regular)
    if max_points is not None and points > max_points:
        raise DomainError(
            "LIMIT_EXCEEDED",
            f"{points} candidate points above --max-index {max_points}",
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


@names_branch
def _analyze(
    branch: BranchInput, lattices: BranchLattices, faces: tuple[Face, ...]
) -> BranchReport:
    """The report of a branch from its :func:`_prepare` result."""
    n = lattices.N
    d = branch.spec.dim

    sing_faces = []
    for face in branch.sing_faces:
        idx = face_indices(face, d, "singular-locus face")
        if len(idx) > 2 and len(idx) != d:
            raise DomainError(
                "BAD_FACE",
                f"singular-locus face {idx} must have one or two indices "
                f"(or all {d} for a point singularity)",
            )
        sing_faces.append(idx)
    raw = sing_faces + [face_indices(face, d, "extra face") for face in branch.extra_faces]
    for contact in branch.contacts:
        if contact.exponent.dim != d:
            raise DomainError(
                "DIMENSION_MISMATCH",
                f"contact exponent {contact.exponent} has dimension "
                f"{contact.exponent.dim}, expected {d}",
            )
        raw.extend(contact_faces(contact.exponent))
    components = set(componentize(raw))
    relevant = tuple(f for f in faces if f.indices in components)

    sigma_singular = any(not f.regular for f in faces)
    if sigma_singular and not sing_faces:
        raise DomainError(
            "B_MISSING_SING",
            "the normalization is singular but no singular-locus faces were "
            "supplied; B must contain the singular locus",
        )

    diagnostics = ()
    if not relevant and not sigma_singular:
        diagnostics = (
            Diagnostic(
                "EMPTY_B",
                "smooth branch with empty B: no Nash components, no essential divisors",
            ),
        )
    # B's components are inclusion-minimal, so E and S_min form an
    # antichain (see essential_divisors) and V is all of S_min.
    return BranchReport(
        label=branch.label,
        char_exponents=branch.spec.char_exponents,
        lattices=lattices,
        relevant=relevant,
        faces=faces,
        s_min=tuple(conegeom.minimal_singular_points(n, faces)),
        E=tuple(sorted(f.barycenter for f in relevant if f.regular)),
        diagnostics=diagnostics,
    )


def _check_contact_symmetry(branches) -> None:
    """Unique labels first, then :func:`_check_contacts` branch by branch."""
    labels = Counter(b.label for b in branches)
    dupes = [l for l, count in labels.items() if count > 1]
    if dupes:
        raise DomainError("DUPLICATE_LABEL", f"branch labels not unique: {sorted(dupes)}")
    pairs = {(b.label, c.partner) for b in branches for c in b.contacts}
    for b in branches:
        _check_contacts(b, labels, pairs)


@names_branch
def _check_contacts(branch: BranchInput, labels, pairs) -> None:
    """Each contact of a branch names another known branch, once, and that
    branch lists a contact back: ``pairs`` holds every (label, partner)."""
    seen = set()
    for contact in branch.contacts:
        partner = contact.partner
        if partner is None:
            raise DomainError(
                "ASYMMETRIC_CONTACT", "contact without a partner label cannot be matched"
            )
        if partner == branch.label:
            raise DomainError("SELF_CONTACT", "a branch cannot meet itself")
        if partner not in labels:
            raise DomainError("UNKNOWN_BRANCH", f"contact names unknown branch {partner!r}")
        if partner in seen:
            raise DomainError(
                "DUPLICATE_CONTACT", f"more than one contact listed for branch {partner!r}"
            )
        seen.add(partner)
        if (partner, branch.label) not in pairs:
            raise DomainError(
                "ASYMMETRIC_CONTACT", f"lists a contact with {partner!r} but not conversely"
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
