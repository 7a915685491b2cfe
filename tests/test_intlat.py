import itertools
import operator
import random
from fractions import Fraction as F
from math import gcd, lcm, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qonash import (
    DomainError,
    RatVec,
    contains,
    dual_lattice,
    hnf,
    index,
    lattice_from_generators,
    lattice_sum,
    leq_sigma,
    primitive_on_ray,
    snf,
    standard_lattice,
)
from qonash import intlat
from qonash.intlat import integer_kernel, section
from helpers import lat, vec


# lattices that recur throughout: duals of the worked exponent towers
N_EVEN = lat((2, 0), (1, 1))          # v1 + v2 even
N_MOD4 = lat((4, 0), (3, 1))          # v1 + v2 = 0 mod 4
Z2 = standard_lattice(2)


class TestHnf:
    def test_reduction(self):
        assert hnf([(2, 1), (0, 2), (2, 0)]) == [(2, 0), (0, 1)]

    def test_identity(self):
        assert hnf([(1, 0), (0, 1)]) == [(1, 0), (0, 1)]

    def test_already_normal(self):
        assert hnf([(2, 0), (0, 2)]) == [(2, 0), (0, 2)]

    def test_rank_deficient(self):
        assert hnf([(1, 2), (2, 4)]) == [(1, 2)]

    def test_unequal_lengths(self):
        with pytest.raises(DomainError):
            hnf([(1, 0), (0, 1, 2)])

    @pytest.mark.parametrize(
        "form, rows, message",
        [
            (hnf, [[]], "empty rows"),
            (hnf, [[], []], "empty rows"),
            (snf, [[]], "empty rows"),
            (hnf, [[], [1]], "rows of unequal length"),
            (hnf, [(1, 0), (0, 1, 2)], "rows of unequal length"),
            (hnf, [], "empty row list"),
            (snf, [], "empty row list"),
        ],
    )
    def test_refusal_messages(self, form, rows, message):
        # Rows of width zero are all of one length: they are refused as empty.
        # No rows at all is refused before any width is read.
        with pytest.raises(DomainError) as err:
            form(rows)
        assert (err.value.code, err.value.message) == ("DIMENSION_MISMATCH", message)

    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=3, max_size=3),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_canonical_and_permutation_invariant(self, rows):
        assume(any(any(x for x in r) for r in rows))
        h = hnf(rows)
        assert hnf(h) == h
        assert hnf(list(reversed(rows))) == h
        # pivots ascend and sit at the end of their rows
        pivot_cols = [max(i for i, x in enumerate(r) if x) for r in h]
        assert pivot_cols == sorted(pivot_cols)
        for r, c in zip(h, pivot_cols):
            assert r[c] > 0
            assert all(x == 0 for x in r[c + 1 :])


def _ordered_reference(rows, cols):
    """The Hermite form in the column order ``cols``: the rows taken on those
    columns in that order, put in HNF, and put back in place."""
    out = []
    for row in hnf([[r[c] for c in cols] for r in rows]):
        full = [0] * len(rows[0])
        for c, x in zip(cols, row):
            full[c] = x
        out.append(tuple(full))
    return out


class TestOrderedElimination:
    @staticmethod
    def random_rows(rng, width, support):
        """Seeded integer rows zero off ``support``; about one set in three
        is rank-deficient."""
        count = rng.randint(1, len(support) + 2)
        rows = [[0] * width for _ in range(count)]
        for row in rows:
            for c in support:
                row[c] = rng.randint(-9, 9)
        if count > 1 and rng.random() < 1 / 3:
            rows[-1] = [2 * a - 3 * b for a, b in zip(rows[0], rows[1])]
        return rows

    @staticmethod
    def check(rows, cols):
        got = intlat._hnf_core(rows, cols)
        assert got == _ordered_reference(rows, cols), (rows, cols)
        # The reduced form: each row's pivot, its last nonzero entry in the
        # order of cols, is positive, and later rows lie in [0, pivot) there.
        place = {c: k for k, c in enumerate(cols)}
        pivots = [max((c for c in cols if row[c]), key=place.get) for row in got]
        assert [place[c] for c in pivots] == sorted(place[c] for c in pivots)
        for r, (row, c) in enumerate(zip(got, pivots)):
            assert row[c] > 0
            assert all(0 <= later[c] < row[c] for later in got[r + 1 :])

    def test_every_column_order(self):
        rng = random.Random(3737)
        for width in range(1, 5):
            for _ in range(40):
                rows = self.random_rows(rng, width, range(width))
                if not any(map(any, rows)):
                    continue
                for cols in itertools.permutations(range(width)):
                    self.check(rows, list(cols))

    def test_rows_vanishing_off_the_columns(self):
        rng = random.Random(7373)
        for width in range(2, 7):
            for _ in range(60):
                cols = rng.sample(range(width), rng.randint(1, width - 1))
                rows = self.random_rows(rng, width, cols)
                if any(map(any, rows)):
                    self.check(rows, cols)


class TestSnf:
    def test_diagonal(self):
        assert snf([[2, 0], [0, 2]]) == (2, 2)

    def test_reduction(self):
        assert snf([[1, 0], [1, 2]]) == (1, 2)

    def test_gcd_and_det(self):
        assert snf([[2, 4], [6, 8]]) == (2, 4)

    def test_zero_matrix(self):
        with pytest.raises(DomainError) as err:
            snf([[0, 0], [0, 0]])
        assert err.value.code == "ZERO_MATRIX"

    @given(
        st.lists(
            st.lists(st.integers(-7, 7), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_chain_and_determinant(self, rows):
        assume(any(any(x for x in r) for r in rows))
        factors = snf(rows)
        assert all(f > 0 for f in factors)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0
        try:
            l = lattice_from_generators([RatVec(r) for r in rows])
        except DomainError:
            return  # rank-deficient, no determinant identity to check
        # Integer rows: denom 1, and the covolume is the product of the pivots.
        assert l.denom == 1
        assert prod(factors) == prod(r[i] for i, r in enumerate(l.scaled_basis))


class TestLatticeConstruction:
    def test_from_generators_with_halves(self):
        l = lat((1, 0), (0, 1), (1, F(1, 2)))
        assert l.basis == (vec(1, 0), vec(0, F(1, 2)))

    def test_trivial(self):
        assert lat((1, 0), (0, 1)) == Z2

    def test_even_lattice(self):
        l = lat((F(1, 2), F(1, 2)), (1, 0), (0, 1))
        assert l.basis == (vec(1, 0), vec(F(1, 2), F(1, 2)))

    def test_not_full_rank(self):
        with pytest.raises(DomainError) as err:
            lat((1, 1), (2, 2))
        assert err.value.code == "NOT_FULL_RANK"

    @given(st.permutations([(1, 0, 0), (0, 1, 0), (0, 0, 1), (3, 2, 1), (1, 1, 1)]))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_generator_order_irrelevant(self, gens):
        reference = lattice_from_generators([RatVec(g) for g in gens])
        assert reference == lat((1, 0, 0), (0, 1, 0), (0, 0, 1), (3, 2, 1), (1, 1, 1))


class TestInputRules:
    """The exact refusals of the shared input rules and of the generator and
    Hermite-form entry points."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: vec(1, 2).dot(vec(1, 2, 3)), "vector dimensions differ: 2 vs 3"),
            (lambda: leq_sigma((1, 2, 3), (1, 2)), "vector dimensions differ: 3 vs 2"),
            (lambda: lattice_sum(Z2, standard_lattice(3)), "lattice dimensions differ: 2 vs 3"),
            (lambda: index(standard_lattice(3), Z2), "lattice dimensions differ: 3 vs 2"),
        ],
    )
    def test_dimensions_differ(self, call, message):
        with pytest.raises(DomainError) as err:
            call()
        assert (err.value.code, err.value.message) == ("DIMENSION_MISMATCH", message)

    @pytest.mark.parametrize(
        "gens, code, message",
        [
            ([], "NOT_FULL_RANK", "no generators given"),
            ([vec(1, 0), vec(0, 1, 0)], "DIMENSION_MISMATCH", "generators of mixed dimension"),
        ],
    )
    def test_generators_refused(self, gens, code, message):
        with pytest.raises(DomainError) as err:
            lattice_from_generators(gens)
        assert (err.value.code, err.value.message) == (code, message)

    def test_hnf_entries(self):
        # An integral Fraction is an integer entry; no other non-int is.
        assert hnf([[F(2), 0], [0, 3]]) == [(2, 0), (0, 3)]
        for bad in (F(1, 2), True, 1.0):
            with pytest.raises(TypeError, match="integer expected"):
                hnf([[bad, 0], [0, 3]])


class TestLatticeSum:
    def test_idempotent(self):
        assert lattice_sum(Z2, Z2) == Z2

    def test_absorbs_half(self):
        summed = lattice_sum(Z2, lat((1, F(1, 2)), (1, 0), (0, 1)))
        assert summed == lat((1, 0), (0, F(1, 2)))

    def test_quarters(self):
        a = lat((1, 0), (0, F(1, 2)))
        b = lat((1, 0), (0, 1), (F(1, 4), F(1, 4)))
        summed = lattice_sum(a, b)
        assert summed == lat((1, 0), (0, 1), (F(1, 4), F(1, 4)), (0, F(1, 2)))

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            lattice_sum(Z2, standard_lattice(3))


class TestDual:
    def test_self_dual(self):
        assert dual_lattice(Z2) == Z2

    def test_half_integer(self):
        assert dual_lattice(lat((1, 0), (0, F(1, 2)))) == lat((1, 0), (0, 2))

    def test_quarter_sum(self):
        m = lat((1, 0), (0, 1), (F(1, 4), F(1, 4)))
        n = dual_lattice(m)
        assert n == N_MOD4
        for v in [vec(1, 3), vec(2, 2), vec(4, 0)]:
            assert contains(n, v)
        assert not contains(n, vec(1, 2))


class TestContains:
    def test_odd_coordinate(self):
        assert not contains(lat((1, 0), (0, 2)), vec(0, 1))

    def test_even_coordinate(self):
        assert contains(lat((1, 0), (0, 2)), vec(3, 4))

    def test_mod4(self):
        assert contains(N_MOD4, vec(1, 3))

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            contains(Z2, RatVec([1, 2, 3]))


class TestIndex:
    def test_half(self):
        assert index(Z2, lat((1, 0), (0, F(1, 2)))) == 2

    def test_self(self):
        assert index(N_MOD4, N_MOD4) == 1

    def test_double(self):
        assert index(lat((2, 0), (0, 2)), Z2) == 4

    def test_not_contained(self):
        with pytest.raises(DomainError) as err:
            index(Z2, lat((2, 0), (0, 2)))
        assert err.value.code == "NOT_SUBLATTICE"

    def test_mixed_denominators(self):
        # sub on the 1/3 grid inside sup on the 1/6 grid: covolumes 1/3 and
        # 1/12, or pivots 1 * 3 over 3**2 and 1 * 3 over 6**2.
        sub = lat((F(1, 3), 0), (0, 1))
        sup = lat((F(1, 6), 0), (0, F(1, 2)))
        assert (sub.denom, sup.denom) == (3, 6)
        assert index(sub, sup) == 4
        # A sheared sup of denom 6: (1/6, 1/2) and (0, 1) span covolume 1/6.
        sheared = lat((F(1, 6), F(1, 2)), (0, 1))
        assert sheared.denom == 6
        assert index(sub, sheared) == 2
        assert index(lat((F(2, 3), 0), (F(1, 3), 1)), sheared) == 4

    def test_off_the_grid(self):
        # (1/3, 0) lies off the grid of Z^2 and of (1/2)Z^2.
        for sup in (Z2, lat((F(1, 2), 0), (0, F(1, 2)))):
            with pytest.raises(DomainError) as err:
                index(lat((F(1, 3), 0), (0, 1)), sup)
            assert err.value.code == "NOT_SUBLATTICE"
            assert err.value.message == "basis vector (1/3, 0) lies outside the big lattice"

    def test_matches_fraction_covolume(self):
        # sub = M . basis(sup) for a random integer M of nonzero determinant:
        # the index is |det M|, and the ratio of Fraction covolumes.
        rng = random.Random(34)
        checked = 0
        while checked < 2000:
            d = rng.randint(1, 4)
            gens = [
                RatVec(F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(d))
                for _ in range(d + 1)
            ]
            m = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
            try:
                sup = lattice_from_generators(gens)
                rows = [
                    RatVec(sum((c * b for c, b in zip(row, col)), F(0)) for col in zip(*sup.basis))
                    for row in m
                ]
                sub = lattice_from_generators(rows)
            except DomainError:
                continue  # rank-deficient generators or M
            assert index(sub, sup) == _covolume(sub) / _covolume(sup) == abs(_det(m)), (gens, m)
            checked += 1


def _covolume(l) -> F:
    """|det| of the lattice's basis rows, by the Leibniz :func:`_det`."""
    return abs(_det([v.coords for v in l.basis]))


class TestPrimitiveOnRay:
    def test_doubled_axis(self):
        assert primitive_on_ray(lat((1, 0), (0, 2)), 2) == vec(0, 2)

    def test_standard(self):
        for k in (1, 2, 3):
            assert primitive_on_ray(standard_lattice(3), k) == [
                vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)
            ][k - 1]

    def test_mod4(self):
        assert primitive_on_ray(N_MOD4, 1) == vec(4, 0)

    def test_fractional_ray(self):
        # lattice (2/3)Z x Z: the smallest positive axis-1 point is (2/3, 0)
        l = lat((F(2, 3), 0), (0, 1))
        assert primitive_on_ray(l, 1) == vec(F(2, 3), 0)


@st.composite
def lattices_of_dim(draw, d, entry=6, max_denom=6):
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


@st.composite
def lattices(draw, max_dim=4, entry=6, max_denom=6):
    d = draw(st.integers(1, max_dim))
    return draw(lattices_of_dim(d, entry=entry, max_denom=max_denom))


class TestLatticeProperties:
    @given(lattices())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_dual_involution(self, l):
        assert dual_lattice(dual_lattice(l)) == l

    @given(lattices())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_dual_pairing(self, l):
        # Integral pairings put the dual's basis inside l's dual; a covolume
        # of 1 / det l leaves no room for anything more.
        n = dual_lattice(l)
        for u in l.basis:
            for v in n.basis:
                assert u.dot(v).denominator == 1
        assert _covolume(l) * _covolume(n) == 1
        pivots = [prod(r[i] for i, r in enumerate(m.scaled_basis)) for m in (l, n)]
        assert pivots[0] * pivots[1] == (l.denom * n.denom) ** l.dim

    @given(st.integers(1, 3), st.data())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_index_multiplicativity(self, d, data):
        l1 = data.draw(lattices_of_dim(d))
        l2 = lattice_sum(l1, data.draw(lattices_of_dim(d)))
        l3 = lattice_sum(l2, data.draw(lattices_of_dim(d)))
        assert index(l1, l3) == index(l1, l2) * index(l2, l3)

    @given(lattices(max_dim=3, entry=4, max_denom=3), st.data())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_contains_matches_brute_force(self, l, data):
        d = l.dim
        denom = data.draw(st.integers(1, 4))
        v = RatVec(
            [F(data.draw(st.integers(-8, 8)), denom) for _ in range(d)]
        )
        coords = _cramer(l, v)
        bound = max(2, *(abs(c.numerator) // c.denominator + 1 for c in coords))
        basis = l.basis
        brute = any(
            all(
                sum((F(y) * row.coords[i] for y, row in zip(combo, basis)), F(0))
                == v.coords[i]
                for i in range(d)
            )
            for combo in itertools.product(range(-bound, bound + 1), repeat=d)
        )
        assert contains(l, v) == brute
        if brute:
            m = [(c * l.denom).numerator for c in v.coords]
            assert l.scaled_coefficients(m) == tuple(c.numerator for c in coords)

    @given(lattices(max_dim=4), st.integers(1, 4))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_primitive_on_ray_minimal(self, l, k):
        assume(k <= l.dim)
        p = primitive_on_ray(l, k)
        t = p.coords[k - 1]
        assert t > 0 and contains(l, p)
        assert all(c == 0 for i, c in enumerate(p.coords) if i != k - 1)
        for q in range(2, 9):
            assert not contains(l, p.scale(F(1, q)))


    @given(lattices(max_dim=4), st.integers(1, 4))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_primitive_on_ray_matches_solve(self, l, k):
        assume(k <= l.dim)
        e_k = RatVec(int(i == k - 1) for i in range(l.dim))
        y = [c for c in _cramer(l, e_k) if c != 0]
        t = F(lcm(*(c.denominator for c in y)), gcd(*(c.numerator for c in y)))
        assert primitive_on_ray(l, k) == e_k.scale(t)

    @given(lattices(max_dim=4), st.data())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_section_pivots_match_minors(self, l, data):
        d = l.dim
        size = data.draw(st.integers(1, d))
        idx = tuple(sorted(data.draw(st.permutations(range(1, d + 1)))[:size]))
        rows = section(l, idx)
        assert len(rows) == size
        for r, (i, row) in enumerate(zip(idx, rows)):
            # Supported on the face, triangular in its order, in denom*l.
            assert all(row[j - 1] == 0 for j in range(1, d + 1) if j not in idx[: r + 1])
            assert row[i - 1] > 0
            assert contains(l, RatVec(F(x, l.denom) for x in row))
        # The section's covolume is |det S| over that of the projection of
        # denom*l onto the other coordinates: the gcd of its maximal minors.
        s, rest = l.scaled_basis, [j for j in range(d) if j + 1 not in idx]
        minors = [
            _det([[s[i][j] for j in rest] for i in chosen])
            for chosen in itertools.combinations(range(d), len(rest))
        ]
        assert prod(row[i - 1] for i, row in zip(idx, rows)) * gcd(*minors) == abs(
            _det(s)
        )

    @pytest.mark.parametrize(
        "idx, message",
        [
            ((0,), "face indices (0,) not within 1..3"),
            ((-1,), "face indices (-1,) not within 1..3"),
            ((4,), "face indices (4,) not within 1..3"),
            ((True,), "face indices (True,) not within 1..3"),
            ((1, 1), "face indices (1, 1) not strictly ascending"),
            ((2, 1), "face indices (2, 1) not strictly ascending"),
            ((1, 3, 2), "face indices (1, 3, 2) not strictly ascending"),
            ((), "face indices () not within 1..3"),
        ],
    )
    def test_section_refuses_bad_face(self, idx, message):
        # Index 0 or -1 would read a column from the end, 4 would run off
        # the basis, and a repeat or a descent would return rows pivoting at
        # the wrong coordinates.
        l = lat((3, 0, 0), (1, 1, 0), (0, 0, 2))
        with pytest.raises(DomainError) as err:
            section(l, idx)
        assert (err.value.code, err.value.message) == ("BAD_FACE", message)


@pytest.mark.parametrize("d", range(1, 9))
def test_face_sections_eliminations(monkeypatch, d):
    # One elimination for each face F that holds d and is not the whole
    # cone, on the |F| + 1 rows of a face one larger: 2^(d-1) - 1 of them.
    rng = random.Random(d)
    rows = [[rng.randint(-5, 5) for _ in range(d)] for _ in range(d)]
    rows += [[7 * (i == j) for j in range(d)] for i in range(d)]
    l = intlat.lattice_from_scaled(rng.randint(1, 4), rows)
    calls = []

    def counted(rows, cols=None, _real=intlat._hnf_core):
        calls.append((len(rows), cols))
        return _real(rows, cols)

    monkeypatch.setattr(intlat, "_hnf_core", counted)
    assert len(intlat.face_sections(l)) == 2**d - 1
    assert len(calls) == 2 ** (d - 1) - 1
    assert all(count == len(cols) and cols[-2] == d - 1 for count, cols in calls)
    assert sorted(len(cols) - 1 for _, cols in calls) == [
        size for size in range(1, d) for _ in itertools.combinations(range(d - 1), size - 1)
    ]


def _det(m):
    """Leibniz determinant of a square integer matrix (1 when empty)."""
    total = 0
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total += (-1) ** inversions * prod(row[c] for row, c in zip(m, perm))
    return total


def _cramer(l, v):
    """Rational y with y . basis = v, by Cramer's rule on the scaled basis."""
    s, w = [list(row) for row in l.scaled_basis], [c * l.denom for c in v.coords]
    det = _det(s)
    return tuple(F(_det(s[:j] + [w] + s[j + 1 :]), det) for j in range(l.dim))


class TestIntegerKernel:
    def test_simple_relation(self):
        kern = integer_kernel([(1, 2), (2, 4), (0, 1)])
        # y1*(1,2) + y2*(2,4) + y3*(0,1) = 0 forces y3 = 0 and y1 = -2 y2
        assert kern == [(2, -1, 0)] or kern == [(-2, 1, 0)]

    def test_full_rank_no_kernel(self):
        assert integer_kernel([(1, 0), (0, 1)]) == []


def test_hnf_and_kernel_match_sympy():
    # A reference that shares no code with intlat: sympy's Hermite form of
    # the transpose (column style) is the transpose of the row form.
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form

    rng = random.Random(8080)
    full_rank = 0
    while full_rank < 500:
        d = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(rng.randint(1, d + 3))]
        rank = sympy.Matrix(rows).rank()
        kern = integer_kernel(rows)
        assert len(kern) == len(rows) - rank
        assert sympy.Matrix(kern).rank() == len(kern)
        for y in kern:
            assert all(sum(a * r[j] for a, r in zip(y, rows)) == 0 for j in range(d))
        if rank < d:
            continue
        full_rank += 1
        expected = hermite_normal_form(sympy.Matrix(rows).T).T
        assert hnf(rows) == [tuple(int(x) for x in expected.row(i)) for i in range(d)]


def test_snf_matches_sympy():
    # Non-square and rank-deficient matrices against sympy's invariant
    # factors, which share no code with the alternating Hermite forms.
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(9090)
    deficient = 0
    for _ in range(300):
        m, n = rng.randint(1, 6), rng.randint(1, 8)
        rows = [[rng.choice((0, rng.randint(-60, 60))) for _ in range(n)] for _ in range(m)]
        if m > 2 and rng.random() < 0.3:
            rows[-1] = [2 * a - 3 * b for a, b in zip(rows[0], rows[1])]
        if not any(map(any, rows)):
            continue
        rank = sympy.Matrix(rows).rank()
        deficient += rank < min(m, n)
        expected = [abs(int(f)) for f in invariant_factors(sympy.Matrix(rows)) if f]
        assert snf(rows) == tuple(expected), rows
    assert deficient > 30


class TestRatVec:
    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            RatVec([0.5, 1])
        with pytest.raises(TypeError):
            RatVec([True, 0])

    def test_dimension_cap(self):
        with pytest.raises(DomainError):
            RatVec([1] * 17)

    def test_support_and_order(self):
        v = vec(0, F(3, 2), 0)
        assert v.support() == (2,)
        assert vec(1, 1) < vec(1, 2)

    def test_value_semantics(self):
        a, b = RatVec([1, F(1, 2)]), RatVec([F(2, 2), F(1, 2)])
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert RatVec([1, 2]) != (1, 2)
        assert Z2 != (Z2.denom, Z2.scaled_basis) and Z2 != RatVec([1, 0])
        # The hashes of the field tuples, on which set iteration orders rest.
        assert hash(a) == hash((a.coords,))
        assert hash(Z2) == hash((Z2.denom, Z2.scaled_basis))

    def test_sorted_is_lexicographic(self):
        vs = [vec(1, 2), vec(0, 5), vec(1, F(1, 2)), vec(0, 3)]
        assert sorted(vs) == [vec(0, 3), vec(0, 5), vec(1, F(1, 2)), vec(1, 2)]

    def test_order_only_among_vectors(self):
        # As with ==, a tuple is not a vector: the comparison is unsupported.
        for other in [(1, 2), [1, 2], 1]:
            for op in (operator.lt, operator.le, operator.gt, operator.ge):
                with pytest.raises(TypeError):
                    op(RatVec([1, 2]), other)
                with pytest.raises(TypeError):
                    op(other, RatVec([1, 2]))

    def test_total_order(self):
        # Lexicographic by coordinates, all four comparisons.
        pairs = [((1, 2), (1, 3)), ((0, 5), (1, 0)), ((F(1, 2),), (1,)), ((1, 2), (1, 2))]
        for a, b in pairs:
            u, v = RatVec(a), RatVec(b)
            for op in (operator.lt, operator.le, operator.gt, operator.ge):
                assert op(u, v) == op(a, b) and op(v, u) == op(b, a), (op, a, b)

    def test_repr(self):
        assert repr(RatVec([1, F(1, 2)])) == "RatVec(1, 1/2)"


class TestLatticeValue:
    def test_equal_however_built(self):
        summed = lattice_sum(lat((1, 0), (0, F(1, 2))), lat((1, 0), (0, 1), (F(1, 4), F(1, 4))))
        built = lat((1, 0), (0, 1), (F(1, 4), F(1, 4)), (0, F(1, 2)))
        assert summed == built and hash(summed) == hash(built) and len({summed, built}) == 1

    def test_denom_distinguishes(self):
        half = lat((F(1, 2), 0), (0, F(1, 2)))
        assert half.scaled_basis == Z2.scaled_basis and half.denom == 2
        assert half != Z2

    def test_repr(self):
        n = lattice_from_generators([(1, 0), (0, F(1, 2))])
        assert repr(n) == "Lattice(dim=2, basis=[(1, 0), (0, 1/2)])"
