import itertools
import json
import random
from collections import Counter
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import pytest

from qonash import (
    BranchInput,
    BranchSpec,
    Contact,
    DomainError,
    RatVec,
    analyze_branch,
    analyze_variety,
    barycenter,
    build_tower,
    componentize,
    contact_faces,
    contains,
    essential_divisors,
    face_data,
    leq_sigma,
    minimal_toric_divisors,
    singular_faces,
    standard_lattice,
)
from qonash import conegeom, nashmap
from qonash.cli import parse_variety
from qonash.intlat import lattice_from_scaled
from qonash.nashmap import lemma_min_diagnostics
from helpers import cross_branch, lat, random_lattice, scale_axis, vec, vectors
from towers import random_branches


N_EVEN = lat((2, 0), (1, 1))
N_MOD4 = lat((4, 0), (3, 1))
Z2 = standard_lattice(2)


class TestContactFaces:
    def test_full_support(self):
        assert contact_faces(vec(1, 1)) == [(1,), (2,)]

    def test_partial_support(self):
        assert contact_faces(vec(0, F(3, 2))) == [(2,)]

    def test_zero_rejected(self):
        with pytest.raises(DomainError) as err:
            contact_faces(vec(0, 0))
        assert err.value.code == "ZERO_CONTACT"

    def test_negative_rejected(self):
        with pytest.raises(DomainError) as err:
            contact_faces(vec(-1, 1))
        assert err.value.code == "NEGATIVE_EXPONENT"


class TestComponentize:
    def test_drops_superset(self):
        assert componentize([(1,), (1, 2)]) == ((1,),)

    def test_keeps_incomparable(self):
        assert componentize([(1,), (2, 3)]) == ((1,), (2, 3))

    def test_empty(self):
        assert componentize([]) == ()

    def test_deduplicates_and_sorts(self):
        assert componentize([(2, 1), (1, 2), (3,)]) == ((3,), (1, 2))


class TestEssentialDivisors:
    def test_whitney(self):
        n = lat((1, 0), (0, 2))
        e, v, diags = essential_divisors(n, componentize([(1,)]))
        assert vectors(e) == [vec(1, 0)]
        assert v == [] and diags == []

    def test_quadratic_cone(self):
        e, v, diags = essential_divisors(N_EVEN, componentize([(1, 2)]))
        assert e == []
        assert vectors(v) == [vec(1, 1)]
        assert diags == []

    def test_degree_four(self):
        e, v, diags = essential_divisors(N_MOD4, componentize([(1,), (2,)]))
        assert vectors(e) == [vec(0, 4), vec(4, 0)]
        assert vectors(v) == [vec(1, 3), vec(2, 2), vec(3, 1)]
        assert diags == []

    def test_synthetic_lemma_min_violation(self):
        diags = lemma_min_diagnostics([(3, 3)], [(1, 1)])
        assert [d.code for d in diags] == ["LEMMA_MIN_VIOLATION"]

    def test_uncomponentized_input_trips_diagnostic(self):
        # {1} inside {1,2}: both barycenters land in E and one dominates the
        # other, which honest (componentized) input can never produce.
        e, v, diags = essential_divisors(Z2, ((1,), (1, 2)))
        assert "LEMMA_MIN_VIOLATION" in [d.code for d in diags]

    @pytest.mark.parametrize(
        "given, point", [([[1]], (1, 0)), (((2, 1),), (1, 1)), ([(2, 1, 2)], (1, 1))]
    )
    def test_face_in_any_order_or_as_list(self, given, point):
        # A face counts however its indices are listed.
        e, v, diags = essential_divisors(Z2, given)
        assert e == [point]
        assert v == [] and diags == []

    @pytest.mark.parametrize("bad", [(3,), (), (True,), (0, 1)])
    def test_malformed_face_refused(self, bad):
        with pytest.raises(DomainError) as err:
            essential_divisors(Z2, ((1,), bad))
        assert err.value.code == "BAD_FACE" and err.value.branch is None
        assert err.value.message == f"relevant face {bad} not within 1..2"


def cone_branch(**kwargs):
    return BranchInput(
        spec=BranchSpec(2, (vec(F(1, 2), F(1, 2)),), "cone"),
        sing_faces=((1, 2),),
        **kwargs,
    )


class TestAnalyzeBranch:
    def test_cone_with_plane_contact(self):
        report = analyze_branch(
            cone_branch(contacts=(Contact(vec(F(1, 2), F(1, 2)), "plane"),))
        )
        assert tuple(f.indices for f in report.relevant) == ((1,), (2,))
        assert vectors(report.E) == [vec(0, 2), vec(2, 0)]
        assert vectors(report.V) == [vec(1, 1)]
        assert report.nash_count == 3

    def test_smooth_plane_with_contact(self):
        report = analyze_branch(
            BranchInput(
                spec=BranchSpec(2, (), "plane"),
                contacts=(Contact(vec(1, 1), "cone"),),
            )
        )
        assert tuple(f.indices for f in report.relevant) == ((1,), (2,))
        assert vectors(report.E) == [vec(0, 1), vec(1, 0)]
        assert report.V == () and report.nash_count == 2

    def test_smooth_no_contacts(self):
        report = analyze_branch(BranchInput(spec=BranchSpec(2, (), "flat")))
        assert report.nash_count == 0
        assert [d.code for d in report.diagnostics] == ["EMPTY_B"]

    def test_missing_singular_locus(self):
        with pytest.raises(DomainError) as err:
            analyze_branch(
                BranchInput(spec=BranchSpec(2, (vec(F(1, 2), F(1, 2)),), "bad"))
            )
        assert err.value.code == "B_MISSING_SING"
        assert err.value.branch == "bad"

    def test_contact_dimension_mismatch(self):
        with pytest.raises(DomainError) as err:
            analyze_branch(cone_branch(contacts=(Contact(vec(1, 1, 1), "x"),)))
        assert err.value.code == "DIMENSION_MISMATCH"
        assert err.value.branch == "cone"

    def test_sing_face_size_constraint(self):
        with pytest.raises(DomainError) as err:
            analyze_branch(
                BranchInput(
                    spec=BranchSpec(4, (), "b"),
                    sing_faces=((1, 2, 3),),
                )
            )
        assert err.value.code == "BAD_FACE"

    @pytest.mark.parametrize(
        "sing, shown", [(((True,), (2,)), "(True,)"), (((1, 2), (2, True)), "(2, True)")]
    )
    def test_bool_face_index_refused(self, sing, shown):
        # True == 1, and a set would merge it with a real index 1.
        with pytest.raises(DomainError) as err:
            analyze_variety(
                [BranchInput(BranchSpec(2, (vec(F(1, 2), F(1, 2)),), "c"), sing_faces=sing)]
            )
        assert str(err.value) == (
            f"[BAD_FACE] branch 'c': singular-locus face {shown} not within 1..2"
        )
        extra = BranchInput(cone_branch().spec, ((1, 2),), extra_faces=((False,),))
        with pytest.raises(DomainError, match=r"extra face \(False,\) not within 1\.\.2"):
            analyze_branch(extra)

    @pytest.mark.parametrize("dim", [0, 17, True, 2.0])
    def test_dimension_out_of_range_names_branch(self, dim):
        with pytest.raises(DomainError) as err:
            analyze_branch(BranchInput(BranchSpec(dim, (), "x")))
        assert err.value.branch == "x"
        assert str(err.value) == (
            f"[DIMENSION_MISMATCH] branch 'x': dimension {dim} outside 1..16"
        )

    def test_full_set_sing_face_legal_for_point_singularity(self):
        report = analyze_branch(cone_branch())
        assert report.nash_count == 1
        assert vectors(report.V) == [vec(1, 1)]

    def test_threefold_with_three_singular_components(self):
        # y^2 = x1 x2 x3: Jacobian gives Sing = union of the three
        # {y = x_i = x_j = 0}; all relevant faces are singular, so E is empty
        # and the three minimal points label the Nash components.
        report = analyze_branch(
            BranchInput(
                spec=BranchSpec(3, (vec(F(1, 2), F(1, 2), F(1, 2)),), "threefold"),
                sing_faces=((1, 2), (1, 3), (2, 3)),
            )
        )
        assert report.E == ()
        assert vectors(report.V) == [vec(0, 1, 1), vec(1, 0, 1), vec(1, 1, 0)]
        assert report.nash_count == 3
        assert report.singular_faces_of_sigma == ((1, 2), (1, 3), (2, 3), (1, 2, 3))

    def test_relevant_faces_are_table_faces(self):
        # B's components are carried as the face table's own objects, in
        # table order, and name exactly the faces componentize keeps.
        rng = random.Random(29)
        for d in range(2, 6):
            pairs = list(itertools.combinations(range(1, d + 1), 2))
            for spec, _ in random_branches(6, seed=290 + d, dims=(d,), max_index=24):
                sing = tuple(rng.sample(pairs, rng.randint(1, min(3, len(pairs)))))
                extra = tuple(
                    tuple(sorted(rng.sample(range(1, d + 1), rng.randint(1, d))))
                    for _ in range(rng.randint(0, 3))
                )
                report = analyze_branch(BranchInput(spec, sing, extra))
                indices = tuple(f.indices for f in report.relevant)
                assert indices == componentize(sing + extra)
                ids = [id(f) for f in report.faces]
                position = [ids.index(id(f)) for f in report.relevant]
                assert position == sorted(position)

    def test_extra_faces_enlarge_b(self):
        report = analyze_branch(cone_branch(extra_faces=((1,),)))
        assert tuple(f.indices for f in report.relevant) == ((1,),)
        assert vectors(report.E) == [vec(2, 0)]
        assert vectors(report.V) == [vec(1, 1)]


class TestAnalyzeVariety:
    def reducible(self):
        return [
            cone_branch(contacts=(Contact(vec(F(1, 2), F(1, 2)), "plane"),)),
            BranchInput(
                spec=BranchSpec(2, (), "plane"),
                contacts=(Contact(vec(1, 1), "cone"),),
            ),
        ]

    def test_reducible_totals(self):
        report = analyze_variety(self.reducible())
        assert [b.nash_count for b in report.branches] == [3, 2]
        assert report.total_nash == report.total_essential == 5

    def test_counts_follow_replaced_lists(self):
        # The counts are derived from the lists, so a replaced E counts.
        report = analyze_variety(self.reducible())
        cone = report.branches[0]._replace(E=((2, 0),))
        moved = report._replace(branches=(cone, report.branches[1]))
        assert cone.nash_count == 2
        assert moved.total_nash == moved.total_essential == 4

    def test_single_branch(self):
        report = analyze_variety([cone_branch()])
        assert report.total_nash == report.branches[0].nash_count == 1

    def test_two_disjoint_smooth_sheets(self):
        report = analyze_variety(
            [
                BranchInput(spec=BranchSpec(2, (), "s1")),
                BranchInput(spec=BranchSpec(2, (), "s2")),
            ]
        )
        assert report.total_nash == 0
        for b in report.branches:
            assert [d.code for d in b.diagnostics] == ["EMPTY_B"]

    def test_asymmetric_contact(self):
        branches = self.reducible()
        branches[1] = BranchInput(spec=BranchSpec(2, (), "plane"))
        with pytest.raises(DomainError) as err:
            analyze_variety(branches)
        assert err.value.code == "ASYMMETRIC_CONTACT"

    def test_unknown_partner(self):
        with pytest.raises(DomainError) as err:
            analyze_variety([cone_branch(contacts=(Contact(vec(1, 1), "ghost"),))])
        assert err.value.code == "UNKNOWN_BRANCH"

    def test_self_contact(self):
        with pytest.raises(DomainError) as err:
            analyze_variety([cone_branch(contacts=(Contact(vec(1, 1), "cone"),))])
        assert err.value.code == "SELF_CONTACT"

    def test_duplicate_labels(self):
        with pytest.raises(DomainError) as err:
            analyze_variety([cone_branch(), cone_branch()])
        assert err.value.code == "DUPLICATE_LABEL"

    def test_duplicate_contact(self):
        branches = self.reducible()
        branches[0] = cone_branch(
            contacts=(
                Contact(vec(F(1, 2), F(1, 2)), "plane"),
                Contact(vec(1, 1), "plane"),
            )
        )
        with pytest.raises(DomainError) as err:
            analyze_variety(branches)
        assert err.value.code == "DUPLICATE_CONTACT"

    def test_unlabelled_contact_rejected_at_variety_level(self):
        with pytest.raises(DomainError) as err:
            analyze_variety([cone_branch(contacts=(Contact(vec(1, 1)),))])
        assert err.value.code == "ASYMMETRIC_CONTACT"


def sheets(**partners):
    """Smooth plane sheets, one per keyword, each with contacts (1, 1) to the
    listed partner labels (None for an unlabelled contact), in order."""
    return [
        BranchInput(
            spec=BranchSpec(2, (), label),
            contacts=tuple(Contact(vec(1, 1), p) for p in targets),
        )
        for label, targets in partners.items()
    ]


@pytest.mark.parametrize(
    "branches, error",
    [
        # Duplicate labels precede every contact fault, wherever they lie.
        (
            sheets(a=["ghost"], b=[]) + sheets(b=[], c=["c"]) + sheets(a=[]),
            "[DUPLICATE_LABEL] branch labels not unique: ['a', 'b']",
        ),
        # Otherwise the first faulty contact in input order wins ...
        (sheets(a=["a", "b"], b=[]), "[SELF_CONTACT] branch 'a': a branch cannot meet itself"),
        (
            sheets(a=["b"], b=["b"]),
            "[ASYMMETRIC_CONTACT] branch 'a': lists a contact with 'b' but not conversely",
        ),
        (
            sheets(a=[None, "a"]),
            "[ASYMMETRIC_CONTACT] branch 'a': contact without a partner label "
            "cannot be matched",
        ),
        (
            sheets(a=["b", "b", "ghost"], b=["a"]),
            "[DUPLICATE_CONTACT] branch 'a': more than one contact listed for branch 'b'",
        ),
        (
            sheets(a=["ghost", "b", "b"], b=["a"]),
            "[UNKNOWN_BRANCH] branch 'a': contact names unknown branch 'ghost'",
        ),
        # ... and within one contact the one-way test comes last, yet before
        # the next contact's duplicate.
        (
            sheets(a=["b", "b"], b=[]),
            "[ASYMMETRIC_CONTACT] branch 'a': lists a contact with 'b' but not conversely",
        ),
        (
            sheets(a=["b"], b=["a", "a", "c"], c=[]),
            "[DUPLICATE_CONTACT] branch 'b': more than one contact listed for branch 'a'",
        ),
    ],
)
def test_contact_error_precedence(branches, error):
    with pytest.raises(DomainError) as err:
        analyze_variety(branches)
    assert str(err.value) == error


HALF = vec(F(1, 2), F(1, 2))


def branch_a(exps=(HALF,), sing=((1, 2),), dim=2, **kwargs):
    """Branch 'a', by default the cone x^2 = y1 y2 with its singular point."""
    return BranchInput(BranchSpec(dim, exps, "a"), sing, **kwargs)


def meeting(exponent):
    """Branch 'a' meeting the smooth sheet 'b', whose contact is (1, 1)."""
    return [
        branch_a(contacts=(Contact(exponent, "b"),)),
        BranchInput(BranchSpec(2, (), "b"), contacts=(Contact(vec(1, 1), "a"),)),
    ]


@pytest.mark.parametrize(
    "branches, max_points, code, message",
    [
        ([branch_a(sing=((0,),))], None, "BAD_FACE", "singular-locus face (0,) not within 1..2"),
        ([branch_a(extra_faces=((3,),))], None, "BAD_FACE", "extra face (3,) not within 1..2"),
        (
            [branch_a((), ((1, 2, 3),), dim=4)],
            None,
            "BAD_FACE",
            "singular-locus face (1, 2, 3) must have one or two indices "
            "(or all 4 for a point singularity)",
        ),
        (
            [branch_a(sing=())],
            None,
            "B_MISSING_SING",
            "the normalization is singular but no singular-locus faces were "
            "supplied; B must contain the singular locus",
        ),
        (
            meeting(vec(1, 1, 1)),
            None,
            "DIMENSION_MISMATCH",
            "contact exponent (1, 1, 1) has dimension 3, expected 2",
        ),
        (
            meeting(vec(0, 0)),
            None,
            "ZERO_CONTACT",
            "zero contact exponent: a unit cuts out nothing, the branches do not meet",
        ),
        (
            meeting(vec(-1, 1)),
            None,
            "NEGATIVE_EXPONENT",
            "contact exponent (-1, 1) has a negative coordinate",
        ),
        ([branch_a()], 1, "LIMIT_EXCEEDED", "2 candidate points above --max-index 1"),
        (
            [branch_a((vec(1, 0),))],
            None,
            "NOT_CHARACTERISTIC",
            "exponent 1 = (1, 0) already lies in the lattice generated by the earlier ones",
        ),
        (sheets(a=["a"]), None, "SELF_CONTACT", "a branch cannot meet itself"),
        (sheets(a=["ghost"]), None, "UNKNOWN_BRANCH", "contact names unknown branch 'ghost'"),
        (
            sheets(a=["b", "b"], b=["a"]),
            None,
            "DUPLICATE_CONTACT",
            "more than one contact listed for branch 'b'",
        ),
        (
            sheets(a=[None]),
            None,
            "ASYMMETRIC_CONTACT",
            "contact without a partner label cannot be matched",
        ),
        (
            sheets(a=["b"], b=[]),
            None,
            "ASYMMETRIC_CONTACT",
            "lists a contact with 'b' but not conversely",
        ),
        # A face's arity is checked before the next face's range.
        (
            [branch_a((), ((1, 2, 3), (9,)), dim=4)],
            None,
            "BAD_FACE",
            "singular-locus face (1, 2, 3) must have one or two indices "
            "(or all 4 for a point singularity)",
        ),
    ],
)
def test_per_branch_refusal_names_branch(branches, max_points, code, message):
    # Whichever step refuses it, a labelled branch's error names that branch.
    with pytest.raises(DomainError) as err:
        analyze_variety(branches, max_points=max_points)
    assert (err.value.code, err.value.message, err.value.branch) == (code, message, "a")
    assert str(err.value) == f"[{code}] branch 'a': {message}"


class CountedContacts(tuple):
    """A contact tuple that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def test_contact_check_is_linear():
    # A complete contact graph: each branch meets every other once.  The
    # check may read each branch's contacts a bounded number of times, not
    # once more per contact that names it.
    labels = [f"b{i}" for i in range(40)]
    branches = [
        BranchInput(
            spec=BranchSpec(2, (), label),
            contacts=CountedContacts(
                Contact(vec(1, 1), other) for other in labels if other != label
            ),
        )
        for label in labels
    ]
    nashmap._check_contact_symmetry(branches)
    assert max(b.contacts.iterations for b in branches) <= 2


def random_relevant(rng, dim):
    pool = [
        tuple(sorted(rng.sample(range(1, dim + 1), rng.randint(1, dim))))
        for _ in range(rng.randint(0, 3))
    ]
    return componentize(pool)


class TestRandomizedInvariants:
    BRANCHES = random_branches(50, seed=777)

    def test_output_antichain(self):
        rng = random.Random(31)
        for _, lattices_ in self.BRANCHES:
            n = lattices_.N
            e, v, diags = essential_divisors(n, random_relevant(rng, n.dim))
            assert diags == []
            combined = vectors(e) + vectors(v)
            for a in combined:
                for b in combined:
                    if a != b:
                        assert not leq_sigma(a, b) or not leq_sigma(b, a)
                        # full antichain: no one-sided domination either
                        assert not leq_sigma(a, b)

    def test_v_members_sit_in_singular_interiors(self):
        rng = random.Random(32)
        for _, lattices_ in self.BRANCHES:
            n = lattices_.N
            singular = set(singular_faces(n))
            _, v, _ = essential_divisors(n, random_relevant(rng, n.dim))
            for p in vectors(v):
                assert p.support() in singular
                assert contains(n, p)

    def test_monotonicity_under_face_enlargement(self):
        rng = random.Random(33)
        for _, lattices_ in self.BRANCHES[:30]:
            n = lattices_.N
            base = random_relevant(rng, n.dim)
            extra = tuple(
                sorted(rng.sample(range(1, n.dim + 1), rng.randint(1, n.dim)))
            )
            comparable = any(
                set(extra) <= set(f) or set(f) <= set(extra) for f in base
            )
            if comparable:
                continue
            enlarged = tuple(sorted(base + (extra,), key=lambda f: (len(f), f)))
            e1, v1, _ = essential_divisors(n, base)
            e2, v2, _ = essential_divisors(n, enlarged)
            assert set(vectors(e1)) <= set(vectors(e2))
            assert set(vectors(v2)) <= set(vectors(v1))

    def test_split_matches_reference(self):
        # V is S_min minus the points strictly dominated by a barycenter of a
        # regular relevant face, and E is the sorted barycenters, each summed
        # here from the face's edge generators.  Some face lists are left
        # uncomponentized so that the diagnostic fires.
        rng = random.Random(34)
        fired = 0
        for d in range(2, 7):
            for _, lattices_ in random_branches(8, seed=340 + d, dims=(d,), max_index=12):
                n = lattices_.N
                raw = [
                    tuple(sorted(rng.sample(range(1, d + 1), rng.randint(1, d))))
                    for _ in range(rng.randint(0, 4))
                ]
                if rng.random() < 0.5:
                    relevant = componentize(raw)
                else:
                    relevant = tuple(dict.fromkeys(raw))
                e, v, diags = essential_divisors(n, relevant)
                fired += bool(diags)
                bary = []
                for idx in relevant:
                    face = face_data(n, idx)
                    if face.regular:
                        bary.append(RatVec(map(sum, zip(*face.primgens))))
                assert vectors(e) == sorted(bary)
                s_min = minimal_toric_divisors(n)
                expected = [
                    x
                    for x in s_min
                    if not any(b != RatVec(x) and leq_sigma(b, x) for b in bary)
                ]
                assert v == expected
        assert fired > 0

    def test_divisors_are_primitive(self):
        # E and S_min, and the bare entry points minimal_toric_divisors and
        # barycenter, give points that the report writes as primitive without
        # solving for them; here each point's coefficients in N's basis are
        # solved for and must have gcd 1.  The criterion-1 towers, then random towers
        # in d = 2..8, take turns between a componentized random face list
        # and the uncomponentized list of every face, which puts every
        # regular face's barycenter in E.
        rng = random.Random(35)
        towers = random_branches(520, seed=20250810, dims=(2, 3, 4))
        for d in range(2, 9):
            towers += random_branches(6, seed=350 + d, dims=(d,), max_index=12)
        checked = Counter()
        for t, (_, lattices_) in enumerate(towers):
            n = lattices_.N
            d = n.dim
            if t % 2:
                relevant = tuple(f.indices for f in conegeom.face_table(n))
            else:
                relevant = componentize(
                    tuple(sorted(rng.sample(range(1, d + 1), rng.randint(1, d))))
                    for _ in range(rng.randint(0, 4))
                )
            e, v, _ = essential_divisors(n, relevant)
            barycenters = [
                barycenter(n, f.indices) for f in conegeom.face_table(n) if f.regular
            ]
            for source, origin, points in (
                ("split", "barycenter", e),
                ("split", "toric-minimal", v),
                ("bare", "barycenter", barycenters),
                ("bare", "toric-minimal", minimal_toric_divisors(n)),
            ):
                for p in points:
                    coeffs = n.scaled_coefficients(p)
                    assert coeffs is not None and gcd(*coeffs) == 1, p
                    checked[source, origin, d] += 1
        for d, source, origin in itertools.product(
            range(2, 9), ("split", "bare"), ("barycenter", "toric-minimal")
        ):
            assert checked[source, origin, d], (d, source, origin)

    def test_determinism(self):
        branches = [
            cone_branch(contacts=(Contact(vec(F(1, 2), F(1, 2)), "plane"),)),
            BranchInput(
                spec=BranchSpec(2, (), "plane"),
                contacts=(Contact(vec(1, 1), "cone"),),
            ),
        ]
        first, second = analyze_variety(branches), analyze_variety(branches)
        assert first == second and hash(first) == hash(second)


def candidate_budget(branch):
    """Sum of the index over the singular faces of the branch's N."""
    faces = conegeom.face_table(build_tower(branch.spec).N)
    return sum(f.index for f in faces if not f.regular)


def count_walked(monkeypatch):
    """Record every box walk: its face, the size of each level and what it
    returns."""
    walks = []
    walk, level = conegeom._box_walk, conegeom._walk_level

    def walked(dim, face, *args, **kwargs):
        walks.append((face, [], None))
        points = walk(dim, face, *args, **kwargs)
        walks[-1] = walks[-1][:2] + (points,)
        return points

    def leveled(*args):
        points = level(*args)
        walks[-1][1].append(len(points))
        return points

    monkeypatch.setattr(conegeom, "_box_walk", walked)
    monkeypatch.setattr(conegeom, "_walk_level", leveled)
    return walks


class TestCandidateBudget:
    # (1/6, 1/10, 1/15): degree 30, 40 candidates, and face {1,2,3} alone
    # has 6 * 10 * 15 = 900 box cells.
    WIDE = BranchInput(
        spec=BranchSpec(3, (vec(F(1, 6), F(1, 10), F(1, 15)),), "wide"),
        sing_faces=((1, 2), (1, 3), (2, 3)),
    )

    def test_over_budget_refused_before_enumeration(self, monkeypatch):
        walks = count_walked(monkeypatch)
        quartic = BranchInput(
            spec=BranchSpec(2, (vec(F(1, 4), F(1, 4)),), "quartic"),
            sing_faces=((1, 2),),
        )
        with pytest.raises(DomainError) as err:
            analyze_branch(quartic, max_points=3)
        assert (err.value.code, err.value.branch) == ("LIMIT_EXCEEDED", "quartic")
        assert err.value.message == "4 candidate points above --max-index 3"
        # The cone before it fits, yet nothing is enumerated: every budget is
        # checked before any branch is analysed, and before contacts.
        ghost = cone_branch(contacts=(Contact(vec(1, 1), "ghost"),))
        with pytest.raises(DomainError) as err:
            analyze_variety([ghost, quartic], max_points=3)
        assert (err.value.code, err.value.branch) == ("LIMIT_EXCEEDED", "quartic")
        # Two branches over budget: the first in branch order is reported.
        with pytest.raises(DomainError) as err:
            analyze_variety([self.WIDE, quartic], max_points=3)
        assert (err.value.code, err.value.branch) == ("LIMIT_EXCEEDED", "wide")
        assert walks == []

    def test_budget_boundary(self):
        branches = [self.WIDE, cone_branch()] + [
            cross_branch(spec)
            for spec, lattices_ in random_branches(12, seed=91)
            if singular_faces(lattices_.N)
        ]
        assert candidate_budget(self.WIDE) == 40
        for branch in branches:
            points = candidate_budget(branch)
            assert analyze_branch(branch, max_points=points) == analyze_branch(branch)
            with pytest.raises(DomainError) as err:
                analyze_branch(branch, max_points=points - 1)
            assert (err.value.code, err.value.message) == (
                "LIMIT_EXCEEDED", f"{points} candidate points above --max-index {points - 1}"
            )

    def test_unlabelled_branch_named_nowhere(self):
        # A library BranchSpec has label "" by default; its errors carry no
        # branch prefix, whichever check raises them.
        half = BranchSpec(2, (vec(F(1, 2), F(1, 2)),))
        with pytest.raises(DomainError) as err:
            analyze_branch(BranchInput(half, sing_faces=((1, 2),)), max_points=1)
        assert str(err.value) == "[LIMIT_EXCEEDED] 2 candidate points above --max-index 1"
        assert err.value.branch is None
        with pytest.raises(DomainError) as err:
            analyze_variety([BranchInput(BranchSpec(2, ()), contacts=(Contact(vec(1, 1), ""),))])
        assert str(err.value) == "[SELF_CONTACT] a branch cannot meet itself"
        assert err.value.branch is None

    def test_enumeration_is_the_budget(self, monkeypatch):
        # No 2-face is walked: its staircase is read off its section.  One
        # walk of the open box per singular face of three or more
        # coordinates.  No level holds more than the face's index, and each
        # walk returns exactly its open box less the points at or above an
        # S_min point of one of its 2-faces.
        walks = count_walked(monkeypatch)
        pruned = 0
        for d in range(2, 7):
            for spec, _ in random_branches(6, seed=610 + d, dims=(d,), max_index=12):
                del walks[:]
                report = analyze_branch(cross_branch(spec))
                n = report.lattices.N
                singular = [f for f in report.faces if not f.regular]
                # open_box walks too, after the analysis's own walks.
                walked = walks[:]
                assert [face for face, _, _ in walked] == [f for f in singular if len(f.indices) > 2]
                for face, levels, points in walked:
                    assert 1 <= len(levels) <= len(face.indices)
                    assert max(levels) <= face.index
                    stairs = [
                        x
                        for x in report.s_min
                        if len(support := RatVec(x).support()) == 2
                        and set(support) <= set(face.indices)
                    ]
                    box = open_box(n, face)
                    expected = [p for p in box if not any(leq_sigma(s, p) for s in stairs)]
                    assert sorted(points) == expected, face.indices
                    pruned += len(box) - len(points)
                total = sum(len(points) for _, _, points in walked)
                assert total <= candidate_budget(cross_branch(spec)) - len(singular)
        assert pruned > 0


def test_report_integers_at_most_degree():
    # _prepare refuses a branch by its degree alone, as no entry of M or N,
    # denominator, step index or axis reach the report writes exceeds it.
    towers = random_branches(520, seed=20250810)
    for d in range(2, 7):
        towers += random_branches(30, seed=830 + d, dims=(d,), max_index=60)
    for _, lattices in towers:
        degree = lattices.degree_n
        values = [*lattices.step_indices]
        for l in (lattices.M, lattices.N):
            values += [l.denom, *itertools.chain.from_iterable(l.scaled_basis)]
        values += [f.reach[0] for f in conegeom.face_table(lattices.N) if len(f.indices) == 1]
        assert all(0 <= v <= degree for v in values), lattices


def open_box(n, face):
    """The points of a face's half-open box with no coordinate at reach."""
    return [
        p
        for p in conegeom.parallelepiped_points(n, face.indices)
        if all(p[i - 1] < c for i, c in zip(face.indices, face.reach))
    ]


def permute(v, order):
    """The vector whose coordinate j is v's coordinate order[j]."""
    return tuple(v[i] for i in order)


def insert_zero(v, k):
    """v with a 0 coordinate inserted at 0-based position k."""
    return (*v[:k], 0, *v[k:])


def permute_face(idx, order):
    return tuple(sorted(j + 1 for j, i in enumerate(order) if i + 1 in idx))


class TestMetamorphic:
    # Relabelling the coordinates relabels the whole answer, and the order
    # of the branches is immaterial.
    def test_coordinate_permutation(self):
        rng = random.Random(41)
        for d in range(2, 7):
            for spec, _ in random_branches(5, seed=410 + d, dims=(d,), max_index=12):
                sing = tuple(
                    tuple(sorted(rng.sample(range(1, d + 1), rng.choice((1, 2)))))
                    for _ in range(rng.randint(1, 3))
                )
                extra = tuple(
                    tuple(sorted(rng.sample(range(1, d + 1), rng.randint(1, d))))
                    for _ in range(rng.randint(0, 2))
                )
                contacts = [
                    [F(rng.randint(0, 2), rng.randint(1, 3)) for _ in range(d)]
                    for _ in range(rng.randint(0, 2))
                ]
                contacts = [c for c in contacts if any(c)]
                order = rng.sample(range(d), d)
                base = analyze_branch(
                    BranchInput(
                        spec=spec,
                        sing_faces=sing,
                        extra_faces=extra,
                        contacts=tuple(Contact(RatVec(c), "other") for c in contacts),
                    )
                )
                moved = analyze_branch(
                    BranchInput(
                        spec=BranchSpec(
                            d, tuple(RatVec(permute(e.coords, order)) for e in spec.char_exponents)
                        ),
                        sing_faces=tuple(permute_face(f, order) for f in sing),
                        extra_faces=tuple(permute_face(f, order) for f in extra),
                        contacts=tuple(
                            Contact(RatVec(permute(c, order)), "other") for c in contacts
                        ),
                    )
                )
                for name in ("s_min", "E", "V"):
                    before = {permute(x, order) for x in getattr(base, name)}
                    assert before == set(getattr(moved, name)), name
                assert base.nash_count == moved.nash_count
                assert len(base.faces) == len(moved.faces)
                assert sum(f.index for f in base.faces if not f.regular) == sum(
                    f.index for f in moved.faces if not f.regular
                )
                assert {permute_face(f.indices, order) for f in base.relevant} == {
                    f.indices for f in moved.relevant
                }

    def test_zero_coordinate(self):
        # A 0 inserted at position k of every exponent gives N x Z, whose new
        # axis is regular: the degree stays, and S_min is the old one with a
        # 0 inserted at k.  From d = 7 this reaches d = 8, past the oracle.
        cases = Counter()
        for spec, lattices in random_branches(60, seed=428, dims=tuple(range(2, 8))):
            d = spec.dim
            s_min = minimal_toric_divisors(lattices.N)
            for k in range(d + 1):
                exps = tuple(RatVec(insert_zero(e.coords, k)) for e in spec.char_exponents)
                wider = build_tower(BranchSpec(d + 1, exps))
                assert wider.degree_n == lattices.degree_n
                got = minimal_toric_divisors(wider.N)
                assert got == [insert_zero(p, k) for p in s_min], (spec, k)
                cases[d + 1] += 1
        assert cases[8] > 0 and sum(cases.values()) > 200, cases

    def test_axis_scaling(self):
        # Multiplying coordinate i of N by k maps N's points in the quadrant
        # onto those of the scaled lattice, keeping the order: every face
        # index stays, and S_min's coordinate i is multiplied by k.  The main
        # path sees other sections, staircases and caps on the way.
        rng = random.Random(5)
        lattices, walked = [], Counter()
        for d in range(2, 6):
            lattices += [l.N for _, l in random_branches(40, seed=440 + d, dims=(d,))]
            lattices += [random_lattice(rng, d, 1) for _ in range(40)]
        for n in lattices:
            faces = conegeom.face_table(n)
            s_min = conegeom.minimal_singular_points(n, faces)
            walked[n.dim] += sum(sum(map(bool, p)) > 2 for p in s_min)
            for i in range(n.dim):
                for k in (2, 3, 5):
                    m = lattice_from_scaled(1, [scale_axis(r, i, k) for r in n.scaled_basis])
                    scaled = conegeom.face_table(m)
                    assert [(f.indices, f.index) for f in scaled] == [
                        (f.indices, f.index) for f in faces
                    ], (n, i, k)
                    got = conegeom.minimal_singular_points(m, scaled)
                    assert got == [scale_axis(p, i, k) for p in s_min], (n, i, k)
        # S_min points off the 2-faces, which only the capped walk finds.
        assert len(lattices) == 320 and all(walked[d] for d in (3, 4, 5)), walked

    @pytest.mark.parametrize("case", ["reducible", "smooth"])
    def test_branch_order(self, case):
        path = Path(__file__).parent / "corpus" / f"{case}.json"
        _, branches = parse_variety(json.loads(path.read_text()))
        assert len(branches) > 1
        base = analyze_variety(branches)
        by_label = {r.label: r for r in base.branches}
        for order in itertools.permutations(branches):
            report = analyze_variety(order)
            assert report.total_nash == report.total_essential == base.total_nash
            assert {r.label: r for r in report.branches} == by_label


def test_split_builds_no_ratvec(monkeypatch):
    # E and S_min are integer points; with no diagnostics to word,
    # essential_divisors constructs no RatVec at all.
    built = 0
    init = RatVec.__init__

    def counted(self, coords):
        nonlocal built
        built += 1
        init(self, coords)

    lattices = [tower.N for _, tower in random_branches(60, seed=20250810)]
    monkeypatch.setattr(RatVec, "__init__", counted)
    points = 0
    for n in lattices:
        axes = [(k,) for k in range(1, n.dim + 1)]
        e_points, s_min, diagnostics = nashmap.essential_divisors(n, axes)
        assert diagnostics == [] and len(e_points) == n.dim
        points += len(s_min)
    assert built == 0 and points > 0


def test_split_antichain_matches_point_check():
    # essential_divisors words diagnostics iff one regular relevant face
    # lies inside another; the point-level check, E and S_min not an
    # antichain, must say the same on random face lists, componentized and
    # not.
    rng = random.Random(71)
    fired = checked = 0
    for d in range(1, 8):
        for _, lattices_ in random_branches(12, seed=710 + d, dims=(d,), max_index=12):
            n = lattices_.N
            faces = conegeom.face_table(n)
            for _ in range(8):
                raw = [
                    tuple(sorted(rng.sample(range(1, d + 1), rng.randint(1, d))))
                    for _ in range(rng.randint(0, 5))
                ]
                if rng.random() < 0.5:
                    keep = componentize(raw)
                else:
                    keep = tuple(dict.fromkeys(raw))
                relevant = [f for f in faces if f.indices in keep]
                e, s_min, diagnostics = nashmap.essential_divisors(
                    n, [f.indices for f in relevant]
                )
                points = e + s_min
                assert len(set(points)) == len(points)
                antichain = len(conegeom.minimal_elements(points)) == len(points)
                assert bool(diagnostics) == (not antichain), relevant
                if diagnostics:
                    assert diagnostics == lemma_min_diagnostics(e, s_min)
                fired += bool(diagnostics)
                checked += 1
    assert 0 < fired < checked


class TestContainingFace:
    # A face that contains a relevant face lies in its orbit closure, so
    # adding it to B as an extra face changes nothing.
    def test_report_unchanged(self):
        rng = random.Random(53)
        for d in range(2, 6):
            cross = tuple((k,) for k in range(1, d + 1))
            for spec, _ in random_branches(6, seed=530 + d, dims=(d,), max_index=24):
                base = analyze_branch(BranchInput(spec=spec, sing_faces=cross))
                inner = rng.choice(base.relevant).indices
                more = rng.sample(range(1, d + 1), rng.randint(0, d))
                outer = tuple(sorted(set(inner) | set(more)))
                grown = analyze_branch(
                    BranchInput(spec=spec, sing_faces=cross, extra_faces=(outer,))
                )
                assert grown == base, outer
