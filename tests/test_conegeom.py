import functools
import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction as F

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
from qonash import conegeom, intlat, oracle
from qonash.conegeom import face_table, minimal_singular_points
from qonash.intlat import face_sections, lattice_from_scaled, section
from qonash.oracle import _adjugate, _lattice_scanner, brute_face_index
from helpers import lat, random_lattice, scale_axis, vec
from towers import random_branch, random_branches


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
        assert face.primgens == ((1, 0), (0, 2))
        assert face.regular

    def test_even_lattice_singular(self):
        face = face_data(N_EVEN, (1, 2))
        assert face.primgens == ((2, 0), (0, 2))
        assert not face.regular
        assert face.index == 2
        assert face.section == ((2, 0), (1, 1))

    def test_singletons_always_regular(self):
        for n in (Z2, N_EVEN, N_MOD4):
            for k in (1, 2):
                assert face_data(n, (k,)).regular

    def test_one_section_per_distinct_face(self, monkeypatch):
        # A face and each of its axes need one Hermite section apiece, and a
        # singleton face is its own one axis: |F| + 1 sections, or 1.
        built = []
        monkeypatch.setattr(intlat, "section", lambda n, f: built.append(f) or section(n, f))
        n3 = lat((4, 0, 0), (3, 1, 0), (1, 2, 5))
        for call, n, idx, count in [
            (face_data, N_MOD4, (1,), 1),
            (face_data, n3, (3,), 1),
            (barycenter, N_MOD4, (2,), 1),
            (parallelepiped_points, n3, (1,), 1),
            (face_data, N_MOD4, (1, 2), 3),
            (face_data, N_MOD4, (2, 1, 2), 3),
            (face_data, n3, (1, 3), 3),
            (face_data, n3, (1, 2, 3), 4),
        ]:
            built.clear()
            call(n, idx)
            assert len(built) == len(set(built)) == count, (call.__name__, idx, built)

    def test_bad_indices(self):
        with pytest.raises(DomainError):
            face_data(Z2, (0, 1))
        with pytest.raises(DomainError):
            face_data(Z2, (3,))


class TestIntegerEdgeGenerators:
    def test_generators_are_scaled_primitive_points(self):
        # Each edge generator is denom times the primitive generator on its
        # ray, held as an integer point, and a regular face's barycenter is
        # their sum: its reaches c_i on the face, 0 elsewhere.
        rng = random.Random(4040)
        for d in range(1, 7):
            for denom in (1, 1, 2, 3):
                n = random_lattice(rng, d, denom)
                for face in face_table(n):
                    for f in (face, face_data(n, face.indices)):
                        for i, g in zip(f.indices, f.primgens):
                            assert all(type(x) is int for x in g)
                            assert g == tuple(x * n.denom for x in primitive_on_ray(n, i))
                    if face.regular and n.denom == 1:
                        reach = dict(zip(face.indices, face.reach))
                        expected = tuple(reach.get(k, 0) for k in range(1, d + 1))
                        assert barycenter(n, face.indices) == expected


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


class TestFaceRefusals:
    """The exact code and message of each refusal of the single-face entry
    points; every face is validated once, by face_data."""

    @pytest.mark.parametrize("d", [1, 2, 4])
    @pytest.mark.parametrize("fn", [face_data, parallelepiped_points, barycenter])
    def test_indices_out_of_range(self, fn, d):
        for bad in [(), (0,), (d + 1,), (1, d + 1)]:
            with pytest.raises(DomainError) as err:
                fn(standard_lattice(d), bad)
            assert err.value.code == "BAD_FACE"
            assert err.value.message == f"face indices {bad} not within 1..{d}"

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
        ],
    )
    def test_bool_index_refused(self, call, code):
        # True == 1 to int arithmetic and in a set, but is no coordinate;
        # neither is a float, which face_data refuses too.
        with pytest.raises(DomainError) as err:
            call(Z2)
        assert err.value.code == code

    def test_face_data_repeated_unsorted_indices(self):
        # An index list names the face of its distinct coordinates.
        for n in (N_EVEN, Z2):
            assert face_data(n, (2, 1, 2)) == face_data(n, (1, 2))
            assert face_data(n, [2, 2]) == face_data(n, (2,))

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

    @pytest.mark.parametrize("pts", [[(1, 2), (1,)], [(0, 5), (3,)], [(1, 1), (1, 1, 0)]])
    def test_mixed_dimensions_refused(self, pts):
        # Points of different dimensions are not comparable, so neither is
        # dropped as if the other lay below it.
        with pytest.raises(DomainError) as err:
            minimal_elements(pts)
        assert err.value.code == "DIMENSION_MISMATCH"


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
                p for face in faces if not face.regular for p in parallelepiped_points(n, face.indices)
            ]
            expected = sum_sweep(candidates)
            assert minimal_elements(candidates) == expected
            assert minimal_singular_points(n, faces) == expected


class TestMinimalSingularPoints:
    # minimal_singular_points reads each 2-face's staircase off its section
    # and walks only the open boxes of the larger faces, capped by the
    # staircases; its one minimal_elements pass gets the walked points
    # alone.  The reference is one minimal_elements pass over the half-open
    # boxes, staircase faces included (and the 520 criterion-1 towers are
    # checked in test_branches_match_sum_sweep).
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
            [p for face in faces if not face.regular for p in parallelepiped_points(n, face.indices)]
        )

    def test_random_towers(self):
        for d in range(2, 7):
            for _, lattices_ in random_branches(30, seed=810 + d, dims=(d,), max_index=60):
                self.check(lattices_.N)

    def test_split_faces_hold_no_minimal_point(self):
        # A singular face F of three or more coordinates splits when
        # index(F) = index(G) * index(F - G) for a nonempty proper G of F.
        # Such a face holds no S_min point, and each point of its uncapped
        # open box lies above one, so a walk may skip it.  Faces of four or
        # more coordinates that do not split do hold S_min points, which
        # only the general walk finds.
        held = Counter()
        for d in range(2, 7):
            for _, lattices_ in random_branches(30, seed=810 + d, dims=(d,), max_index=60):
                n = lattices_.N
                faces = face_table(n)
                index = {face.indices: face.index for face in faces}
                s_min = minimal_singular_points(n, faces)
                supports = {tuple(i for i, x in enumerate(p, 1) if x) for p in s_min}
                for face in faces:
                    f = face.indices
                    if face.regular or len(f) < 3:
                        continue
                    if any(
                        index[f] == index[g] * index[tuple(i for i in f if i not in g)]
                        for size in range(1, len(f))
                        for g in itertools.combinations(f, size)
                    ):
                        assert f not in supports, (n, f)
                        for p in conegeom._box_walk(n.dim, face, strict=True):
                            assert any(leq_sigma(q, p) for q in s_min), (n, f, p)
                    elif len(f) > 3 and f in supports:
                        held[len(f)] += 1
        assert held[4] and held[5], held

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

    @staticmethod
    def walked_staircase(n, face):
        # The running minimum over the walk of the 2-face's open box.
        i, j = face.indices
        stair = []
        for p in sorted(conegeom._box_walk(n.dim, face, strict=True)):
            if not stair or p[j - 1] < stair[-1][j - 1]:
                stair.append(p)
        return stair

    def test_staircase_matches_walk(self):
        # Every singular 2-face of the 520 criterion-1 towers and of random
        # towers in d = 2..6: the staircase read off the section is the
        # running minimum of the walked open box.
        towers = random_branches(520, seed=20250810)
        for d in range(2, 7):
            towers += random_branches(30, seed=840 + d, dims=(d,), max_index=60)
        faces = 0
        for _, lattices_ in towers:
            n = lattices_.N
            for face in face_table(n):
                if len(face.indices) == 2 and not face.regular:
                    assert minimal_singular_points(n, (face,)) == self.walked_staircase(n, face)
                    faces += 1
        assert faces > 1000

    def test_staircase_literals(self):
        # Pairs (u, u*b mod m) at the lower records of u*b mod m.
        def staircase(m, b):
            return list(conegeom._staircase(m, b))

        assert staircase(7, 1) == [(1, 1)]  # b = 1: the first point is least
        assert staircase(7, 6) == [(u, 7 - u) for u in range(1, 7)]  # b = m - 1
        assert staircase(12, 8) == [(1, 8), (2, 4)]  # gcd 4: u < 12 / 4
        assert staircase(2, 1) == [(1, 1)]  # m = 2
        assert staircase(13, 5) == [(1, 5), (3, 2), (8, 1)]
        for (m, b), points in [
            ((7, 1), [(1, 1, 0)]),
            ((7, 6), [(k, 7 - k, 0) for k in range(1, 7)]),
            ((12, 8), [(4, 2, 0), (8, 1, 0)]),
            ((2, 1), [(1, 1, 0)]),
        ]:
            # The section rows (m, 0, 0), (b, 1, 0) and e_3: N's 2-face {1, 2}.
            n = lattice_from_scaled(1, [(m, 0, 0), (b, 1, 0), (0, 0, 1)])
            assert minimal_toric_divisors(n) == points


# Ladder rungs past the oracle's default cap, by dimension: exponent,
# |S_min|.  Their reach boxes hold about 3.6 and 8.1 * 10^8 cells.
RUNGS = {
    3: ((F(1, 480), F(1, 672), F(1, 1120)), 53_998),
    4: ((F(1, 90), F(1, 126), F(1, 210), F(1, 330)), 20_568),
}


def rung_s_min(exponent):
    return minimal_toric_divisors(build_tower(BranchSpec(len(exponent), (vec(*exponent),))).N)


@functools.cache
def unmoved_s_min(d):
    return rung_s_min(RUNGS[d][0])


@pytest.mark.parametrize(
    "d, order",
    [(3, order) for order in itertools.permutations(range(3))]
    + [(4, tuple(random.Random(4200 + k).sample(range(4), 4))) for k in range(6)],
    ids=str,
)
def test_axis_permutation_at_scale(d, order):
    # Relabelling the axes permutes S_min.  Each order gives the main path
    # another Hermite form, walk order and set of staircase caps.
    exponent, size = RUNGS[d]
    moved = rung_s_min(tuple(exponent[i] for i in order))
    assert moved == sorted(tuple(p[i] for i in order) for p in unmoved_s_min(d))
    assert len(moved) == size


@pytest.mark.parametrize("d", sorted(RUNGS))
def test_oracle_at_scale(monkeypatch, d):
    # The oracle's S_min, axis reaches and face indices equal the main
    # path's on each rung, its cap raised past the rung's reach box.
    monkeypatch.setattr(oracle, "MAX_SCAN", 10**9)
    exponents = (vec(*RUNGS[d][0]),)
    faces = face_table(build_tower(BranchSpec(d, exponents)).N)
    assert oracle.brute_exponents(d, exponents) == (
        unmoved_s_min(d),
        [f.reach[0] for f in faces if len(f.indices) == 1],
        {f.indices: f.index for f in faces},
    )


@pytest.mark.parametrize("d, i, k", [(3, 1, 3), (4, 3, 2)], ids=str)
def test_axis_scaling_at_scale(d, i, k):
    # Multiplying coordinate i of a rung's N by k keeps every face index and
    # multiplies S_min's coordinate i by k, as TestMetamorphic checks on
    # small lattices.
    n = build_tower(BranchSpec(d, (vec(*RUNGS[d][0]),))).N
    m = lattice_from_scaled(1, [scale_axis(r, i, k) for r in n.scaled_basis])
    assert [f.index for f in face_table(m)] == [f.index for f in face_table(n)]
    assert minimal_toric_divisors(m) == [scale_axis(p, i, k) for p in unmoved_s_min(d)]


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

    def test_staircase_far_below_index(self):
        # (1/1 000 003, 387 421/1 000 003): 2-face index 1 000 003, whose open
        # box a walk would hold whole, and 18 points in S_min.
        m = 1_000_003
        lattice = build_tower(BranchSpec(2, (vec(F(1, m), F(387_421, m)),))).N
        tracemalloc.start()
        try:
            kept = minimal_toric_divisors(lattice)
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(kept) == 18
        assert minimal_elements(kept) == kept
        assert top < 1_000_000


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
            gens = face_data(n, idx).primgens
            assert pts == [tuple(map(sum, zip(*gens)))]


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
        shifted = [RatVec(a + b for a, b in zip(shift, u)) for u in support]
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
            scanner = _lattice_scanner(n)
            back = [scanner.order.index(k) for k in range(n.dim)]
            for lo, bits in scanner.slabs():
                for at in (i for i in range(bits.bit_length()) if bits >> i & 1):
                    cell = []
                    for m in scanner.shape[:-1]:
                        at, r = divmod(at, m)
                        cell.append(r)
                    cell.append(at + lo)
                    p = [cell[i] for i in back]
                    s = sum(1 << k for k, x in enumerate(p) if x)
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


class TestFaceIndexFromExponents:
    # The points of N on a face F are the dual of pi_F(M), the projection
    # of M = Z^d + sum Z lambda_j to the coordinates F, so index(F) =
    # prod c_i / [pi_F(M) : Z^F] over i in F, c_i the lcm of coordinate i's
    # denominators.  With D the lcm of the c_i, [pi_F(M) : Z^F] is D^|F|
    # over G_F, the gcd of the |F| x |F| minors of the rows D e_i and
    # D pi_F(lambda_j).  The minors come from the oracle's Bareiss
    # elimination, which shares no code with the Hermite sections, and
    # nothing here scans a box, so any degree is in reach.
    @staticmethod
    def expected_index(exps, idx):
        c = [math.lcm(1, *(lam.coords[i - 1].denominator for lam in exps)) for i in idx]
        big = math.lcm(*c)
        rows = [[big * (i == j) for j in idx] for i in idx]
        rows += [[int(big * lam.coords[i - 1]) for i in idx] for lam in exps]
        g = 0
        for minor in itertools.combinations(rows, len(idx)):
            try:
                g = math.gcd(g, _adjugate(list(minor))[1])
            except StopIteration:  # singular: the minor is 0
                pass
        return math.prod(c) * g // big ** len(idx)

    def check(self, spec, n):
        """Check every face of N's table; returns how many are singular."""
        table = face_table(n)
        for face in table:
            assert face.index == self.expected_index(spec.char_exponents, face.indices), face
        return sum(not face.regular for face in table)

    def test_generator_towers(self):
        for d in range(2, 7):
            singular = 0
            for spec, lattices_ in random_branches(80, seed=3100 + d, dims=(d,), max_index=60):
                singular += self.check(spec, lattices_.N)
            assert singular, d  # not vacuous in any dimension

    @pytest.mark.parametrize(
        "exps",
        [
            [(F(1, 480), F(1, 672), F(1, 1120))],
            [(F(1, 90), F(1, 126), F(1, 210), F(1, 330))],
            [(F(1, 30),) * 8, (F(1, 15), F(1, 10), F(1, 6), F(1, 5), F(1, 3), F(1, 2), F(7, 12), 1)],
        ],
        ids=["d3", "d4", "d8-two-steps"],
    )
    def test_past_the_oracle_cap(self, exps):
        spec = BranchSpec(len(exps[0]), tuple(RatVec(e) for e in exps))
        assert self.check(spec, build_tower(spec).N)


class TestProducts:
    # For N = N' x N'' a face F' + F'' has index index(F') index(F''), and
    # S_min(N) is S_min(N') x 0 + 0 x S_min(N''): a point (x', x'') on a
    # mixed singular face, F' singular, lies strictly above (x', 0) in S.
    # The mixed faces' boxes are products of the factors' boxes, past the
    # oracle's reach; this drives face_sections across the blocks and the
    # walk over faces of four or more coordinates.
    @staticmethod
    def product(a, b):
        denom = math.lcm(a.denom, b.denom)
        da, db = a.dim, b.dim
        rows = [[x * (denom // a.denom) for x in r] + [0] * db for r in a.scaled_basis]
        rows += [[0] * da + [x * (denom // b.denom) for x in r] for r in b.scaled_basis]
        return lattice_from_scaled(denom, rows)

    @classmethod
    def check(cls, a, b, s_a, s_b):
        """S_min of a x b, after checking every face index and S_min against
        the factors', given S_min of each factor; returns it with the count
        of its singular faces that meet both factors."""
        n, da = cls.product(a, b), a.dim
        table = face_table(n)
        ia, ib = ({(): 1} | {f.indices: f.index for f in face_table(l)} for l in (a, b))
        mixed_singular = 0
        for face in table:
            left = tuple(i for i in face.indices if i <= da)
            right = tuple(i - da for i in face.indices if i > da)
            assert face.index == ia[left] * ib[right], face.indices
            mixed_singular += bool(left and right and not face.regular)
        s_min = minimal_singular_points(n, table)
        expected = [p + (0,) * b.dim for p in s_a] + [(0,) * da + p for p in s_b]
        assert s_min == sorted(expected)
        return s_min, mixed_singular

    def test_random_products(self):
        rng = random.Random(20251019)
        mixed_singular = 0
        for _ in range(30):
            a, b = (random_branch(rng, dims=(2, 3, 4, 5), max_index=40)[1].N for _ in "ab")
            s_a, s_b = (minimal_singular_points(l, face_table(l)) for l in (a, b))
            mixed_singular += self.check(a, b, s_a, s_b)[1]
        assert mixed_singular  # the mixed faces are not all regular

    def test_products_at_scale(self):
        # N' is the d = 3 ladder rung (1/480, 1/672, 1/1120), 53 998 points
        # in S_min, nearly all walked in its face {1, 2, 3}; N'' and two
        # seeded random d = 2 lattices each have a singular 2-face.  Both
        # orders of each product, whose S_min must be the same points with
        # the two blocks of axes swapped.
        rng = random.Random(7)
        r1, r2 = (random_branch(rng, dims=(2,))[1].N for _ in "ab")
        rung = build_tower(BranchSpec(3, (RatVec([F(1, 480), F(1, 672), F(1, 1120)]),))).N
        sizes = []
        for a, b in [(rung, lat((20, 0), (11, 2))), (r1, r2)]:
            s_a, s_b = (minimal_singular_points(l, face_table(l)) for l in (a, b))
            ab = self.check(a, b, s_a, s_b)[0]
            ba = self.check(b, a, s_b, s_a)[0]
            assert sorted(p[a.dim :] + p[: a.dim] for p in ab) == ba
            sizes.append((len(s_a), len(s_b)))
        assert sizes == [(53_998, 3), (4, 2)]


def hirzebruch_jung_length(m, q):
    """Length r of m/q = b_1 - 1/(b_2 - ... - 1/b_r), every b_i >= 2."""
    r = 0
    while q:
        b = -(-m // q)
        m, q = q, b * q - m
        r += 1
    return r


class TestHirzebruchJungCounts:
    # A singular 2-face {i, j} is the cone of the cyclic quotient of type
    # (m, q), and the points of S_min with support exactly {i, j} are the
    # interior members of its Hilbert basis: r of them, the length of the
    # Hirzebruch-Jung continued fraction of m/q (Oda 1988, section 1.6).
    @staticmethod
    def cyclic_type(n, i, j):
        """(m, q) of the 2-face {i, j}, read off the oracle's adjugate: m is
        [Z c_i e_i + Z c_j e_j + (a, t) : Z c_i e_i + Z c_j e_j] for the
        member (a, t) of the face's box with the least t > 0."""
        adj, det = _adjugate([list(row) for row in n.scaled_basis])
        det = abs(det)
        reach = [det // math.gcd(det, *row) for row in adj]
        ci, cj = reach[i - 1], reach[j - 1]

        def member(a, t):
            return all((a * x + t * y) % det == 0 for x, y in zip(adj[i - 1], adj[j - 1]))

        t, a = next((t, a) for t in range(1, cj + 1) for a in range(ci) if member(a, t))
        m, rest = divmod(cj, t)
        q, frac = divmod(a * m, ci)
        assert rest == frac == 0 and 0 < q < m and math.gcd(m, q) == 1
        return m, q

    @staticmethod
    def counts(n):
        """Points of S_min by their support."""
        return Counter(tuple(k for k, x in enumerate(p, 1) if x) for p in minimal_toric_divisors(n))

    def test_generator_towers(self):
        checked = set()
        for _, lattices_ in random_branches(600, seed=4949, dims=(2, 3, 4, 5)):
            n = lattices_.N
            counts = self.counts(n)
            for face in face_table(n):
                if len(face.indices) == 2 and not face.regular:
                    m, q = self.cyclic_type(n, *face.indices)
                    assert counts[face.indices] == hirzebruch_jung_length(m, q), face
                    checked.add(n.dim)
        assert checked == {2, 3, 4, 5}

    def test_large_primes(self):
        # One step (a/p, b/p): N = {x : a x_1 + b x_2 = 0 mod p} has type
        # (p, -a/b mod p), read from axis 1 (from axis 2 it is the inverse
        # mod p, whose fraction is the same one reversed).  Its box
        # (p + 1)^2 is far past the oracle's cap.
        rng = random.Random(49999)
        primes = [p for p in range(49_000, 50_000) if all(p % k for k in range(2, 224))]
        for p in [49_999] + rng.sample(primes, 7):
            a, b = rng.randrange(1, p), rng.randrange(1, p)
            n = build_tower(BranchSpec(2, (vec(F(a, p), F(b, p)),))).N
            assert (p + 1) ** 2 > oracle.MAX_SCAN
            q = -a * pow(b, -1, p) % p
            assert self.counts(n) == {(1, 2): hirzebruch_jung_length(p, q)}, (p, a, b)

    def test_lengths(self):
        # 2/1 = [2], 4/3 = [2, 2, 2], 5/2 = [3, 2], 7/3 = [3, 2, 2].
        cases = [(2, 1), (4, 3), (5, 2), (7, 3)]
        assert [hirzebruch_jung_length(m, q) for m, q in cases] == [1, 3, 2, 3]
