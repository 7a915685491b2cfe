import itertools
import random
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qonash import (
    BranchInput,
    BranchSpec,
    DomainError,
    RatVec,
    analyze_branch,
    barycenter,
    build_tower,
    contains,
    essential_divisors,
    face_data,
    lattice_from_generators,
    leq_sigma,
    minimal_elements,
    minimal_toric_divisors,
    monomial_valuation,
    parallelepiped_points,
    primitive_on_ray,
    singular_faces,
    standard_lattice,
)
from qonash import conegeom
from qonash.conegeom import (
    face_parallelepiped,
    face_table,
    minimal_singular_points,
)
from qonash.intlat import face_sections, section
from qonash.oracle import _axes, _BoxScanner, _support, brute_face_index
from towers import random_branches


def vec(*coords):
    return RatVec(coords)


def lat(*rows):
    return lattice_from_generators([RatVec(r) for r in rows])


N_EVEN = lat((2, 0), (1, 1))
N_MOD4 = lat((4, 0), (3, 1))
Z2 = standard_lattice(2)


class TestLeqSigma:
    def test_comparable(self):
        assert leq_sigma(vec(1, 1), vec(2, 1))

    def test_incomparable_both_ways(self):
        assert not leq_sigma(vec(1, 3), vec(3, 1))
        assert not leq_sigma(vec(3, 1), vec(1, 3))

    def test_reflexive(self):
        assert leq_sigma(vec(2, 5), vec(2, 5))

    def test_unequal_lengths(self):
        for u, v in [((1, 2), (1, 2, 3)), (vec(1, 2), vec(1, 2, 3))]:
            with pytest.raises(DomainError) as err:
                leq_sigma(u, v)
            assert err.value.code == "DIMENSION_MISMATCH"


class TestFaceData:
    def test_axis_scaled_but_regular(self):
        face = face_data(lat((1, 0), (0, 2)), (1, 2))
        assert face.primgens == (vec(1, 0), vec(0, 2))
        assert face.regular

    def test_even_lattice_singular(self):
        face = face_data(N_EVEN, (1, 2))
        assert face.primgens == (vec(2, 0), vec(0, 2))
        assert not face.regular
        assert face.index == 2
        assert face.section == ((2, 0), (1, 1))

    def test_singletons_always_regular(self):
        for n in (Z2, N_EVEN, N_MOD4):
            for k in (1, 2):
                assert face_data(n, (k,)).regular

    def test_bad_indices(self):
        with pytest.raises(DomainError):
            face_data(Z2, (0, 1))
        with pytest.raises(DomainError):
            face_data(Z2, (3,))


def random_lattice(rng, d, denom):
    """A full-rank lattice spanned by d + 1 random vectors over denom, drawn
    again until it is integral exactly when denom is 1."""
    while True:
        gens = [
            RatVec(F(rng.randint(-6, 6), denom) for _ in range(d)) for _ in range(d + 1)
        ]
        try:
            n = lattice_from_generators(gens)
        except DomainError:
            continue
        if (n.denom > 1) == (denom > 1):
            return n


class TestFaceTableMatchesFaceData:
    """face_table reads every section off a face one larger; face_data
    computes each face on its own from full Hermite forms."""

    @staticmethod
    def check(n):
        table = face_table(n)
        sections = face_sections(n)
        assert [f.indices for f in table] == [
            idx
            for size in range(1, n.dim + 1)
            for idx in itertools.combinations(range(1, n.dim + 1), size)
        ]
        assert len(sections) == len(table)
        for face in table:
            assert face == face_data(n, face.indices), face.indices
            assert sections[face.indices] == section(n, face.indices), face.indices

    def test_random_lattices(self):
        rng = random.Random(1515)
        for d in range(1, 9):
            for denom in [1] * 3 + [rng.randint(2, 6) for _ in range(3)]:
                self.check(random_lattice(rng, d, denom))

    def test_acceptance_towers(self):
        for _, lattices_ in random_branches(200, seed=20250810):
            self.check(lattices_.N)


class TestParallelepipedPoints:
    def test_even_lattice(self):
        assert parallelepiped_points(N_EVEN, (1, 2)) == [(1, 1), (2, 2)]

    def test_unit_box(self):
        assert parallelepiped_points(Z2, (1, 2)) == [(1, 1)]

    def test_mod4(self):
        assert parallelepiped_points(N_MOD4, (1, 2)) == [
            (1, 3),
            (2, 2),
            (3, 1),
            (4, 4),
        ]

    def test_zero_face_rejected(self):
        with pytest.raises(DomainError):
            parallelepiped_points(Z2, ())


class TestFaceRefusals:
    """The exact code and message of each refusal of the single-face entry
    points; every face is validated once, by face_data."""

    @pytest.mark.parametrize("d", [1, 2, 4])
    @pytest.mark.parametrize("fn", [face_data, parallelepiped_points, barycenter])
    def test_indices_out_of_range(self, fn, d):
        for bad in [(0,), (d + 1,), (1, d + 1)]:
            with pytest.raises(DomainError) as err:
                fn(standard_lattice(d), bad)
            assert err.value.code == "BAD_FACE"
            assert err.value.message == f"face indices {bad} not within 1..{d}"

    @pytest.mark.parametrize(
        "fn, what", [(parallelepiped_points, "parallelepiped"), (barycenter, "barycenter")]
    )
    def test_zero_face(self, fn, what):
        with pytest.raises(DomainError) as err:
            fn(N_EVEN, ())
        assert err.value.code == "BAD_FACE"
        assert err.value.message == f"the zero face has no {what}"

    @pytest.mark.parametrize(
        "call, code",
        [
            pytest.param(lambda n: face_data(n, (True,)), "BAD_FACE", id="face_data"),
            pytest.param(lambda n: barycenter(n, (True,)), "BAD_FACE", id="barycenter"),
            pytest.param(
                lambda n: parallelepiped_points(n, (True, 2)), "BAD_FACE", id="parallelepiped"
            ),
            pytest.param(
                lambda n: primitive_on_ray(n, True), "DIMENSION_MISMATCH", id="primitive_on_ray"
            ),
            pytest.param(
                lambda n: brute_face_index(n, (True,)), "BAD_FACE", id="brute_face_index"
            ),
            pytest.param(lambda n: face_data(n, (1.0,)), "BAD_FACE", id="face_data_float"),
            pytest.param(
                lambda n: brute_face_index(n, (1.0,)), "BAD_FACE", id="brute_face_index_float"
            ),
            pytest.param(
                lambda n: standard_lattice(True), "DIMENSION_MISMATCH", id="standard_lattice"
            ),
            pytest.param(
                lambda n: RatVec.unit(n.dim, True), "DIMENSION_MISMATCH", id="unit"
            ),
            pytest.param(lambda n: RatVec.unit(True, 1), "DIMENSION_MISMATCH", id="unit_dim"),
        ],
    )
    def test_bool_index_refused(self, call, code):
        # True == 1 to int arithmetic and in a set, but is no coordinate;
        # neither is a float, which face_data refuses too.
        with pytest.raises(DomainError) as err:
            call(Z2)
        assert err.value.code == code

    def test_zero_face_data(self):
        # The zero face is a face of the quadrant: no edges, index 1.
        face = face_data(N_EVEN, ())
        assert (face.indices, face.primgens, face.reach, face.index) == ((), (), (), 1)

    def test_barycenter_of_singular_face(self):
        with pytest.raises(DomainError) as err:
            barycenter(N_EVEN, (2, 1, 2))
        assert err.value.code == "SINGULAR_FACE"
        assert err.value.message == (
            "face (1, 2) is singular; barycenters live on regular faces"
        )


class TestMinimalElements:
    def test_chain(self):
        assert minimal_elements({vec(1, 1), vec(2, 2)}) == [vec(1, 1)]

    def test_antichain_survives(self):
        got = minimal_elements({vec(1, 3), vec(2, 2), vec(3, 1), vec(4, 4)})
        assert got == [vec(1, 3), vec(2, 2), vec(3, 1)]

    def test_empty(self):
        assert minimal_elements(set()) == []

    def test_single_point(self):
        assert minimal_elements([(3, 1, 4)]) == [(3, 1, 4)]
        assert minimal_elements([(3, 1, 4)] * 3) == [(3, 1, 4)]
        assert minimal_elements([vec(F(1, 2), 3)]) == [vec(F(1, 2), 3)]


def by_definition(pts):
    """p is minimal iff no q != p in the set has q <= p."""
    pts = set(pts)
    return sorted(p for p in pts if not any(q != p and leq_sigma(q, p) for q in pts))


def sum_sweep(pts):
    """The coordinate-sum sweep that computed minimal_elements before the
    bitmap: a strict dominator has a strictly smaller coordinate sum."""
    kept = []
    for v in sorted(set(pts), key=sum):
        if not any(leq_sigma(u, v) for u in kept):
            kept.append(v)
    kept.sort()
    return kept


class TestMinimalElementsByDefinition:
    def test_random_sets(self):
        # Few values per axis, drawn with replacement: duplicates and ties on
        # every axis, and sets whose least point lies below all the others.
        rng = random.Random(61)
        for d in range(1, 9):
            for _ in range(150):
                pool = [
                    tuple(rng.randint(0, rng.choice((1, 3, 6))) for _ in range(d))
                    for _ in range(rng.randint(1, 12))
                ]
                pts = [rng.choice(pool) for _ in range(rng.randint(0, 40))]
                assert minimal_elements(pts) == by_definition(pts), pts

    def test_ratvec_points(self):
        rng = random.Random(62)
        for d in range(1, 5):
            for _ in range(60):
                pts = [
                    vec(*(F(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(d)))
                    for _ in range(rng.randint(0, 10))
                ]
                assert minimal_elements(pts) == by_definition(pts), pts

    def test_branches_match_sum_sweep(self):
        # The 520 criterion-1 towers: S_min from the open boxes and staircases
        # against one pass over every half-open box point.
        for _, lattices_ in random_branches(520, seed=20250810):
            n = lattices_.N
            faces = face_table(n)
            candidates = [
                p for face in faces if not face.regular for p in face_parallelepiped(n, face)
            ]
            expected = sum_sweep(candidates)
            assert minimal_elements(candidates) == expected
            assert minimal_singular_points(n, faces) == expected


class TestMinimalSingularPoints:
    # minimal_singular_points walks only the open boxes and prunes each
    # larger face by a 2-face staircase; the half-open boxes and one
    # minimal_elements pass are its reference (and the 520 criterion-1
    # towers are checked in test_branches_match_sum_sweep).
    LADDER = (
        (3, [[F(1, 30), F(1, 42), F(1, 70)]]),
        (3, [[F(1, 60), F(1, 84), F(1, 140)]]),
        (3, [[F(1, 90), F(1, 126), F(1, 210)]]),
        (6, [[F(1, 2)] * 6, [F(3, 4)] * 4 + [F(5, 6)] * 2]),
    )

    @staticmethod
    def check(n):
        faces = face_table(n)
        assert minimal_singular_points(n, faces) == minimal_elements(
            [p for face in faces if not face.regular for p in face_parallelepiped(n, face)]
        )

    def test_random_towers(self):
        for d in range(2, 7):
            for _, lattices_ in random_branches(30, seed=810 + d, dims=(d,), max_index=60):
                self.check(lattices_.N)

    def test_ladder(self):
        for d, exps in self.LADDER:
            self.check(build_tower(BranchSpec(d, tuple(map(RatVec, exps)))).N)

    def test_open_box_count(self):
        # The half-open box of F is the disjoint union, over G in F, of the
        # open box of G moved by sum c_i e_i over F - G (the origin for G
        # empty), so index(F) = sum_G open(G); Moebius inversion gives open(F).
        towers = random_branches(200, seed=20250810)
        for d in range(2, 7):
            towers += random_branches(6, seed=820 + d, dims=(d,), max_index=24)
        for _, lattices_ in towers:
            n = lattices_.N
            faces = face_table(n)
            index = {face.indices: face.index for face in faces}
            index[()] = 1
            for face in faces:
                f = face.indices
                count = sum(
                    (-1) ** (len(f) - size) * index[g]
                    for size in range(len(f) + 1)
                    for g in itertools.combinations(f, size)
                )
                walked = conegeom._box_walk(n.dim, face, strict=True)
                assert len(walked) == len(set(walked)) == count, f
                assert count == 0 or not face.regular


class TestUndominatedMemory:
    @staticmethod
    def peak(n):
        # The d = 2 branch (1/n, 1/n): its one singular 2-face's open box is
        # an antichain of n - 1 points, each second coordinate distinct, the
        # case where per-value prefix masks would hold n^2/2 bits.
        lattice = build_tower(BranchSpec(2, (vec(F(1, n), F(1, n)),))).N
        faces = face_table(lattice)
        tracemalloc.start()
        try:
            kept = minimal_singular_points(lattice, faces)
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(kept) == n - 1
        return top

    def test_two_coordinate_peak_is_linear(self):
        assert self.peak(12_000) < 2.5 * self.peak(6_000)


class TestMinimalToricDivisors:
    def test_smooth(self):
        assert minimal_toric_divisors(Z2) == []

    def test_even_lattice(self):
        assert minimal_toric_divisors(N_EVEN) == [(1, 1)]

    def test_mod4(self):
        assert minimal_toric_divisors(N_MOD4) == [(1, 3), (2, 2), (3, 1)]

    def test_requires_integral_lattice(self):
        with pytest.raises(DomainError):
            minimal_toric_divisors(lat((1, 0), (0, F(1, 2))))


class TestBarycenter:
    def test_single_edge(self):
        assert barycenter(lat((1, 0), (0, 2)), (1,)) == (1, 0)

    def test_even_lattice_edge(self):
        assert barycenter(N_EVEN, (1,)) == (2, 0)

    def test_full_face_of_standard(self):
        assert barycenter(Z2, (1, 2)) == (1, 1)

    def test_singular_face_rejected(self):
        with pytest.raises(DomainError) as err:
            barycenter(N_EVEN, (1, 2))
        assert err.value.code == "SINGULAR_FACE"


class TestMonomialValuation:
    def test_min_over_support(self):
        assert monomial_valuation(vec(1, 1), {vec(2, 0), vec(1, 3)}) == 2

    def test_one_dimensional(self):
        assert monomial_valuation(vec(2), {vec(F(3, 2))}) == 3

    def test_zero_vector(self):
        assert monomial_valuation(vec(0, 0), {vec(5, 7), vec(1, 2)}) == 0

    def test_empty_support(self):
        with pytest.raises(DomainError) as err:
            monomial_valuation(vec(1, 1), set())
        assert err.value.code == "EMPTY_SUPPORT"


@st.composite
def lattices(draw, max_dim=4, entry=5, max_denom=4):
    d = draw(st.integers(1, max_dim))
    denom = draw(st.integers(1, max_denom))
    rows = draw(
        st.lists(
            st.lists(st.integers(-entry, entry), min_size=d, max_size=d),
            min_size=d,
            max_size=d,
        )
    )
    try:
        return lattice_from_generators(
            [RatVec(F(x, denom) for x in row) for row in rows]
        )
    except DomainError:
        assume(False)


class TestFaceProperties:
    @given(lattices(max_dim=5))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_edges_regular(self, n):
        for k in range(1, n.dim + 1):
            assert face_data(n, (k,)).regular

    @given(lattices(max_dim=5, entry=3, max_denom=3))
    @settings(max_examples=120, derandomize=True, deadline=None)
    def test_face_heredity(self, n):
        regular = {}
        for size in range(1, n.dim + 1):
            for idx in itertools.combinations(range(1, n.dim + 1), size):
                regular[idx] = face_data(n, idx).regular
        for idx, is_reg in regular.items():
            if is_reg:
                for sub_size in range(1, len(idx)):
                    for sub in itertools.combinations(idx, sub_size):
                        assert regular[sub], (idx, sub)

    @given(lattices(max_dim=3, entry=3, max_denom=3), st.data())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_parallelepiped_count_is_face_index(self, n, data):
        size = data.draw(st.integers(1, n.dim))
        idx = tuple(
            sorted(data.draw(st.permutations(range(1, n.dim + 1)))[:size])
        )
        expected = face_data(n, idx).index
        assume(expected <= 4000)
        pts = parallelepiped_points(n, idx)
        assert len(pts) == expected
        if expected == 1:
            total = face_data(n, idx).primgens[0]
            for p in face_data(n, idx).primgens[1:]:
                total = total + p
            assert pts == [n.scaled_coords(total)]


class TestValuationProperties:
    @given(
        st.lists(st.integers(0, 9), min_size=2, max_size=4),
        st.integers(1, 7),
        st.data(),
    )
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_scaling(self, v_coords, q, data):
        v = RatVec(v_coords)
        support = [
            RatVec([F(data.draw(st.integers(0, 9)), data.draw(st.integers(1, 4)))
                    for _ in v_coords])
            for _ in range(data.draw(st.integers(1, 4)))
        ]
        assert monomial_valuation(v.scale(q), support) == q * monomial_valuation(
            v, support
        )

    @given(st.data())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_additivity_under_monomial_shift(self, data):
        d = data.draw(st.integers(1, 4))
        draw_vec = lambda: RatVec([data.draw(st.integers(0, 8)) for _ in range(d)])
        v, shift = draw_vec(), draw_vec()
        support = [draw_vec() for _ in range(data.draw(st.integers(1, 5)))]
        shifted = [shift + u for u in support]
        assert monomial_valuation(v, shifted) == v.dot(shift) + monomial_valuation(
            v, support
        )


class TestMinimalDivisorsOnTowers:
    BRANCHES = random_branches(40, seed=4242)

    D6 = build_tower(
        BranchSpec(
            dim=6,
            char_exponents=(vec(*[F(1, 2)] * 6), vec(*[F(3, 4)] * 4, F(5, 6), F(5, 6))),
        )
    ).N

    def test_enumeration_matches_box_scan(self):
        # Every face, regular ones included, against the oracle's own scan:
        # the members of its reach box prod [0, c_j] with support F are the
        # points of the box prod [1, c_j] on the columns of face F.
        for n in [lattices_.N for _, lattices_ in self.BRANCHES] + [self.D6]:
            by_support = {}
            for offset, mask in _BoxScanner(n).grid():
                points = np.argwhere(mask)
                points[:, 0] += offset
                supports = _support(_axes(offset, mask.shape))[mask].tolist()
                for s, p in zip(supports, points.tolist()):
                    by_support.setdefault(s, []).append(tuple(p))
            for face in face_table(n):
                idx = face.indices
                box = sorted(by_support[sum(1 << (i - 1) for i in idx)])
                pts = parallelepiped_points(n, idx)
                assert pts == box, (n, idx)
                assert len(pts) == face_data(n, idx).index

    def test_members_lie_in_singular_interiors(self):
        for _, lattices_ in self.BRANCHES:
            n = lattices_.N
            singular = set(singular_faces(n))
            for p in map(RatVec, minimal_toric_divisors(n)):
                assert contains(n, p)
                assert p.support() in singular


class TestHighDimensionInvariants:
    # Oracle-free checks in d = 5..8, where the brute-force box is too big
    # to be a routine reference; small degrees keep them to a few seconds.
    BRANCHES = [
        b for d in range(5, 9) for b in random_branches(3, seed=50 + d, dims=(d,), max_index=8)
    ]

    def test_dimensions_covered(self):
        dims = {spec.dim for spec, _ in self.BRANCHES}
        assert dims == {5, 6, 7, 8}
        assert any(singular_faces(l.N) for _, l in self.BRANCHES)

    def test_faces_containing_a_singular_face_are_singular(self):
        for _, lattices_ in self.BRANCHES:
            table = face_table(lattices_.N)
            singular = [set(f.indices) for f in table if not f.regular]
            for face in table:
                if any(s <= set(face.indices) for s in singular):
                    assert not face.regular, face.indices

    def test_candidates_dominate_s_min(self):
        for _, lattices_ in self.BRANCHES:
            n = lattices_.N
            s_min = minimal_toric_divisors(n)
            for idx in singular_faces(n):
                for point in parallelepiped_points(n, idx):
                    assert any(leq_sigma(m, point) for m in s_min), (idx, point)


class TestIntegralDivisor:
    # N lies in Z^d, so each divisor is carried as its point, a tuple of ints.
    HALF = lat((1, 0), (0, F(1, 2)))

    def test_points_are_int_tuples(self):
        cone = BranchSpec(2, (vec(F(1, 2), F(1, 2)),))
        report = analyze_branch(
            BranchInput(cone, sing_faces=((1, 2),), extra_faces=((1,), (2,)))
        )
        e, v, _ = essential_divisors(N_MOD4, ((1,), (2,)))
        lists = [report.E, report.s_min, report.V, e, v, minimal_toric_divisors(N_MOD4)]
        for points in lists + [[barycenter(N_MOD4, (1,))]]:
            assert points
            for p in points:
                assert type(p) is tuple and all(type(x) is int for x in p), p

    @pytest.mark.parametrize(
        "make",
        [
            lambda n: minimal_toric_divisors(n),
            lambda n: barycenter(n, (1,)),
        ],
    )
    def test_rational_lattice_refused(self, make):
        with pytest.raises(DomainError) as err:
            make(self.HALF)
        assert err.value.code == "NOT_SUBLATTICE"
