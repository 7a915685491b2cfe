import itertools
import math
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from operator import le

import pytest

from qonash import (
    BranchSpec,
    DomainError,
    RatVec,
    build_tower,
    conegeom,
    intlat,
    oracle,
    standard_lattice,
)
from qonash.oracle import (
    _BoxScanner,
    _lattice_scanner,
    brute_branch,
    brute_exponents,
    brute_face_index,
    brute_minimal_S,
)
from helpers import lat, src_env, vec
from towers import random_branches
from test_conegeom import TestMinimalDivisorsOnTowers as TOWERS


N_EVEN = lat((2, 0), (1, 1))
N_MOD4 = lat((4, 0), (3, 1))


class TestBruteMinimalS:
    def test_even_lattice(self):
        assert brute_minimal_S(N_EVEN, 2) == [vec(1, 1)]

    def test_standard_lattice(self):
        assert brute_minimal_S(standard_lattice(2), 1) == []
        faces = itertools.chain(*(itertools.combinations((1, 2, 3), k) for k in (1, 2, 3)))
        assert brute_branch(standard_lattice(3)) == ([], [1, 1, 1], dict.fromkeys(faces, 1))

    def test_mod4(self):
        assert brute_minimal_S(N_MOD4, 4) == [vec(1, 3), vec(2, 2), vec(3, 1)]

    def test_result_stable_above_threshold(self):
        assert brute_minimal_S(N_MOD4, 9) == brute_minimal_S(N_MOD4, 4)

    def test_bound_too_small(self):
        with pytest.raises(DomainError) as err:
            brute_minimal_S(N_MOD4, 3)
        assert err.value.code == "BOUND_TOO_SMALL"

    def test_rejects_fractional_lattice(self):
        with pytest.raises(DomainError) as err:
            brute_minimal_S(lat((1, 0), (0, F(1, 2))), 2)
        assert err.value.code == "NOT_SUBLATTICE"


class TestBruteFaceIndex:
    def test_even_full_face(self):
        assert brute_face_index(N_EVEN, (1, 2)) == 2

    def test_standard(self):
        for idx in [(1,), (2,), (1, 2)]:
            assert brute_face_index(standard_lattice(2), idx) == 1

    def test_mod4_full_face(self):
        assert brute_face_index(N_MOD4, (1, 2)) == 4

    def test_edges(self):
        assert brute_face_index(N_MOD4, (1,)) == 1
        assert brute_face_index(N_EVEN, (2,)) == 1

    def test_bad_face(self):
        with pytest.raises(DomainError):
            brute_face_index(N_EVEN, ())

    @pytest.mark.parametrize("idx", [(), (0,), (3,), (True,)])
    def test_bad_face_refused_before_scan(self, monkeypatch, idx):
        monkeypatch.setattr(oracle, "_lattice_scanner", None)  # a scan would fail
        with pytest.raises(DomainError) as err:
            brute_face_index(N_EVEN, idx)
        assert (err.value.code, err.value.message) == (
            "BAD_FACE", f"face indices {idx} not within 1..2"
        )

    def test_one_scan_per_lattice(self, monkeypatch):
        # Every face of a lattice is counted from one scan, and each count
        # is the index the main path's face table holds.
        scanned = []
        real = oracle._lattice_scanner
        monkeypatch.setattr(oracle, "_lattice_scanner", lambda n: scanned.append(n) or real(n))
        lattices = [TOWERS.D6, N_MOD4] + [lattices.N for _, lattices in TOWERS.BRANCHES]
        for n in lattices:
            table = conegeom.face_table(n)
            assert brute_branch(n)[2] == {face.indices: face.index for face in table}
        assert scanned == lattices


class TestBruteSingularFaces:
    def test_agrees_with_face_index(self):
        for n in (N_EVEN, N_MOD4, standard_lattice(2), lat((1, 0), (0, 2))):
            faces = brute_branch(n)[2]
            for idx in [(1,), (2,), (1, 2)]:
                assert faces[idx] == brute_face_index(n, idx)

    def test_bound_too_small(self):
        # Below an axis reach, or not a positive int at all.
        for n, bound in [(N_MOD4, 3), (standard_lattice(2), True), (standard_lattice(2), 2.5)]:
            with pytest.raises(DomainError) as err:
                brute_minimal_S(n, bound)
            assert err.value.code == "BOUND_TOO_SMALL"


def _member(rows, x):
    """x in the lattice of lower-triangular integer rows, by back-substitution."""
    x = list(x)
    for i in reversed(range(len(rows))):
        c, r = divmod(x[i], rows[i][i])
        if r:
            return False
        x = [a - c * b for a, b in zip(x, rows[i])]
    return True


def _reference_branch(n):
    """(S_min, axis reaches, index of every face) one point at a time, in
    Python ints.

    A face's index is the number of lattice points in the box
    prod [1, reach_i] over its axes, and it is singular when that is above
    1; S_min is every hit of [0, bound]^d, the bound the largest axis reach,
    with a singular support that no other hit lies below.
    """
    rows = n.scaled_basis
    d = n.dim
    assert n.denom == 1
    assert all(rows[i][j] == 0 for i in range(d) for j in range(i + 1, d))
    axes = [[int(i == j) for j in range(d)] for i in range(d)]
    reach = [
        next(k for k in itertools.count(1) if _member(rows, [k * v for v in axis]))
        for axis in axes
    ]

    def face_points(face):
        ranges = [
            range(1, reach[i - 1] + 1) if i in face else [0] for i in range(1, d + 1)
        ]
        return sum(_member(rows, x) for x in itertools.product(*ranges))

    faces = {
        face: face_points(face)
        for size in range(1, d + 1)
        for face in itertools.combinations(range(1, d + 1), size)
    }
    singular = {face for face, count in faces.items() if count > 1}
    bound = max(reach)
    hits = [
        x
        for x in itertools.product(range(bound + 1), repeat=d)
        if tuple(i + 1 for i, c in enumerate(x) if c) in singular and _member(rows, x)
    ]
    s_min = [
        x for x in hits if not any(y != x and all(map(le, y, x)) for y in hits)
    ]
    return sorted(s_min), reach, faces


@pytest.mark.parametrize(
    "n",
    [lattices.N for _, lattices in TOWERS.BRANCHES] + [TOWERS.D6, standard_lattice(3)],
)
def test_matches_per_point_reference(n):
    assert brute_branch(n) == _reference_branch(n)


@pytest.mark.parametrize(
    "n",
    [lattices.N for _, lattices in TOWERS.BRANCHES] + [TOWERS.D6, standard_lattice(3)],
)
def test_small_slabs_match_per_point_reference(n, monkeypatch):
    # 128 cells a slab: on 11 of these 42 lattices the reach box
    # prod [0, c_k] spans several slabs, so the prefix OR is carried from
    # one slab to the next.
    monkeypatch.setattr(oracle, "_CHUNK", 128)
    assert brute_branch(n) == _reference_branch(n)


def test_face_counts_carry_across_slabs(monkeypatch):
    # The counts of every face at 128 cells a slab, where some of these
    # boxes span several slabs, equal those of one slab; and brute_face_index
    # reads each face's count off the same answer.
    lattices = [lattices.N for _, lattices in TOWERS.BRANCHES] + [TOWERS.D6, standard_lattice(3)]
    assert any(math.prod(c + 1 for c in _lattice_scanner(n).reach) > 128 for n in lattices)
    whole = [brute_branch(n)[2] for n in lattices]
    monkeypatch.setattr(oracle, "_CHUNK", 128)
    assert [brute_branch(n)[2] for n in lattices] == whole
    for n, faces in zip(lattices, whole):
        assert {idx: brute_face_index(n, idx) for idx in faces} == faces


def test_residues_packed_into_several_keys():
    # det = 2**15: every one of the four adjugate columns tests something,
    # so a member must pass four comparisons, one per column.
    n = lat((16, 0, 0, 0), (0, 16, 0, 0), (0, 0, 16, 0), (0, 0, 0, 16), (8, 8, 0, 8))
    assert len(_lattice_scanner(n).columns) == 4
    assert brute_branch(n) == _reference_branch(n)


# The edge cases of the scan layout: d = 1, its one row longer than 128
# cells or not; rows along a longest axis over 128 cells, which then comes
# last and is cut into slabs, one layer long when a layer is over 128 cells.
LAYOUT_EDGES = [lat((300,)), lat((6,), (4,)), lat((2, 0), (1, 150)), lat((130, 0), (0, 140), (65, 70))]


@pytest.mark.parametrize("chunk", [1 << 20, 128])
@pytest.mark.parametrize("n", LAYOUT_EDGES)
def test_layout_edges_match_per_point_reference(n, chunk, monkeypatch):
    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    assert brute_branch(n) == _reference_branch(n)


def test_layout_edges_at_128_cells(monkeypatch):
    monkeypatch.setattr(oracle, "_CHUNK", 128)
    scanners = list(map(_lattice_scanner, LAYOUT_EDGES))
    assert [(s.order, s.row, s.shape, s.step) for s in scanners] == [
        ([0], 0, [301], 128),
        ([0], 0, [3], 3),
        ([0, 1], 1, [3, 301], 42),
        ([0, 1], 1, [131, 141], 1),
    ]
    assert [len(list(s.slabs())) for s in scanners] == [3, 1, 8, 141]


@pytest.mark.parametrize("chunk", [1 << 20, 128])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_vanishing_generators_scan_the_unit_box(dim, chunk, monkeypatch):
    # Every generator is 0 mod det, so N = Z^d and the box is [0, 1]^d.
    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    scanner = _BoxScanner(dim, [[3 * (k + 1) for k in range(dim)], [0] * dim], 3)
    assert scanner.columns == []
    assert scanner.answer() == _reference_branch(standard_lattice(dim))


def test_long_axis_over_default_slab():
    # reach [2, 2**21]: the longest axis is over _CHUNK cells, so its rows
    # come last, cut into slabs of 2**20 // 3 layers.
    n = lat((2, 0), (1, 2**20))
    scanner = _lattice_scanner(n)
    assert (scanner.order, scanner.row, scanner.step) == ([0, 1], 1, oracle._CHUNK // 3)
    assert len(list(scanner.slabs())) == 7
    assert brute_branch(n) == ([(1, 2**20)], [2, 2**21], {(1,): 1, (2,): 1, (1, 2): 2})


def test_oracle_loads_no_numpy():
    code = "import qonash.oracle, sys; print('numpy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, check=True, env=src_env()
    )
    assert done.stdout == b"False\n"


def test_memory_flat_in_box_size(monkeypatch):
    # Two lattices that reach 2m on both axes, so each box has
    # (2m + 1)**2 cells: 257**2 and 513**2 in slabs of 4096.  The scan's
    # peak net of what it returns, taken while the answer is still held,
    # stays within twice the smaller's (without slabs it is about four
    # times).  S_min grows with m by construction, so the expected one is
    # built outside the trace and the returned one is netted out.
    families = [
        # N = {x : x_1 + x_2 = 0 mod 2m}: one tested column.
        lambda m: (lat((2 * m, 0), (2 * m - 1, 1)), [(i, 2 * m - i) for i in range(1, 2 * m)]),
        # det 4m and two tested columns, one per mask comparison.
        lambda m: (lat((2 * m, 0), (m - 2, 2), (m, m)), [(i, m - i) for i in range(2, m, 4)]),
    ]
    monkeypatch.setattr(oracle, "_CHUNK", 4096)
    brute_branch(N_MOD4)
    for family in families:
        peaks = []
        for m in (128, 256):
            n, s_min = family(m)
            tracemalloc.start()
            try:
                answer = brute_branch(n)
                current, peak = tracemalloc.get_traced_memory()
                peaks.append(peak - current)
                assert answer[0] == s_min
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0], peaks


def test_memory_flat_in_thin_box(monkeypatch):
    # reach [2, q]: slabs cut the long second axis, so the peak does not
    # grow with q (along the first axis each slab's table of the second is
    # q + 1 cells, about four times the peak at four times q).
    monkeypatch.setattr(oracle, "_CHUNK", 4096)
    brute_branch(N_MOD4)
    peaks = []
    for q in (20_000, 80_000):
        n = lat((2, 0), (1, q // 2))
        assert _lattice_scanner(n).reach == [2, q]
        tracemalloc.start()
        try:
            assert brute_branch(n) == ([(1, q // 2)], [2, q], {(1,): 1, (2,): 1, (1, 2): 2})
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0], peaks


def test_bound_error_precedes_cap(monkeypatch):
    # The axis reaches of N_MOD4 are 4: bound 3 misses them although its
    # 16-cell box is over the cap too.
    monkeypatch.setattr(oracle, "MAX_SCAN", 15)
    with pytest.raises(DomainError) as err:
        brute_minimal_S(N_MOD4, 3)
    assert err.value.code == "BOUND_TOO_SMALL"
    # Bound 5 reaches every axis; the 25-cell reach box is over the cap.
    monkeypatch.setattr(oracle, "MAX_SCAN", 24)
    with pytest.raises(DomainError) as err:
        brute_minimal_S(N_MOD4, 5)
    assert err.value.code == "LIMIT_EXCEEDED"
    assert err.value.message == "box of 25 points exceeds the oracle cap"


def test_bound_far_beyond_reach():
    # Only the reach box [0, 4]^2 is scanned, whatever the bound.
    assert brute_minimal_S(N_MOD4, 10**9) == brute_minimal_S(N_MOD4, 4)


def test_axis_reach_matches_axis_scan():
    rng = random.Random(13)
    for d in range(1, 7):
        for _ in range(20):
            # A lower-triangular basis plus one more generator; each axis
            # reach divides det, so the search up to det always ends.
            rows = [
                [rng.randint(0, 4) for _ in range(i)] + [rng.randint(1, 4)] + [0] * (d - i - 1)
                for i in range(d)
            ]
            rows.append([rng.randint(-4, 4) for _ in range(d)])
            n = lat(*rows)
            scanner = _lattice_scanner(n)
            first = []  # the least t > 0 with t * e_k in N, point by point
            for k in range(d):
                t = 1
                while not _member(n.scaled_basis, [t * (i == k) for i in range(d)]):
                    t += 1
                first.append(t)
            assert scanner.reach == first, rows
    # det = 2**32: the reach is read off the adjugate in Python ints, though
    # the box is far over the cap and no int64 residue is ever formed.
    assert _lattice_scanner(lat((2**16, 0), (0, 2**16))).reach == [2**16, 2**16]


def test_huge_det_refused():
    # det = 2**62: the reach box [0, 1] x [0, 2**62] is refused by its cell
    # count before any residue or box-sized array is built.
    n = lat((1, 0), (0, 2**62))
    assert _lattice_scanner(n).reach == [1, 2**62]
    message = f"box of {2 * (2**62 + 1)} points exceeds the oracle cap"
    calls = (brute_branch, lambda n: brute_minimal_S(n, 2**62), lambda n: brute_face_index(n, (1,)))
    for call in calls:
        with pytest.raises(DomainError) as err:
            call(n)
        assert err.value.code == "LIMIT_EXCEEDED"
        assert err.value.message == message


def _random_chains(rng, count):
    """Seeded characteristic chains of two or three exponents in d = 1..4,
    each on a 1/q grid with q <= 12, at or above the one before.  Those
    whose reach box is between 10^5 cells and the cap are left out, which
    keeps the scans short; those over the cap stay, to be refused."""
    chains = []
    while len(chains) < count:
        d = rng.randint(1, 4)
        exps, prev = [], [F(0)] * d
        for _ in range(rng.randint(2, 3)):
            q = rng.randint(2, 12)
            prev = [F(-(-x.numerator * q // x.denominator) + rng.randint(0, q), q) for x in prev]
            exps.append(RatVec(prev))
        try:
            n = build_tower(BranchSpec(d, exps)).N
        except DomainError:
            continue
        if not 10**5 < math.prod(c + 1 for c in _lattice_scanner(n).reach) <= oracle.MAX_SCAN:
            chains.append((d, exps, n))
    return chains


@pytest.mark.parametrize("chunk", [1 << 20, 128])
def test_exponent_scan_matches_lattice_scan(chunk, monkeypatch):
    # N read off the exponents and N given by its basis are one scan with
    # one answer, or one refusal past the cap, slabs small or large.
    towers = [(s.dim, s.char_exponents, lattices.N) for s, lattices in random_branches(520, 20250810)]
    chains = _random_chains(random.Random(71), 300)
    assert all(len(exps) >= 2 for _, exps, _ in chains) and {d for d, _, _ in chains} == {1, 2, 3, 4}
    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    refused = 0
    for d, exps, n in towers + chains:
        try:
            expected = brute_branch(n)
        except DomainError as err:
            with pytest.raises(DomainError) as again:
                brute_exponents(d, exps)
            assert (again.value.code, again.value.message) == (err.code, err.message)
            refused += 1
            continue
        assert brute_exponents(d, exps) == expected, (d, exps)
    assert 0 < refused < len(chains) // 10


def test_one_scan_per_branch(monkeypatch):
    # Singular faces and minimal points come from the same pass over the box.
    scans = []
    real = _BoxScanner.slabs
    monkeypatch.setattr(_BoxScanner, "slabs", lambda self: scans.append(self) or real(self))
    for n in (N_MOD4, TOWERS.D6, standard_lattice(3)):
        scans.clear()
        brute_branch(n)
        assert len(scans) == 1


def test_oracle_shares_no_membership_code(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle reached into the main path")

    monkeypatch.setattr(intlat, "contains", refuse)
    monkeypatch.setattr(intlat.Lattice, "scaled_coefficients", refuse)
    monkeypatch.setattr(intlat, "section", refuse)
    monkeypatch.setattr(intlat, "hnf", refuse)
    monkeypatch.setattr(conegeom, "parallelepiped_points", refuse)
    assert brute_minimal_S(N_MOD4, 4) == [vec(1, 3), vec(2, 2), vec(3, 1)]
    assert brute_face_index(N_MOD4, (1, 2)) == 4
    assert brute_face_index(N_EVEN, (2,)) == 1
    assert brute_branch(N_MOD4) == ([(1, 3), (2, 2), (3, 1)], [4, 4], {(1,): 1, (2,): 1, (1, 2): 4})


def _cofactor_det(m):
    """Determinant by expansion along the first row."""
    if not m:
        return 1
    return sum(
        (-1) ** j * x * _cofactor_det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j, x in enumerate(m[0])
        if x
    )


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_adjugate_matches_cofactor_determinant():
    rng = random.Random(61)
    for d in range(1, 7):
        checked = swapped = 0
        for _ in range(60):
            # Half the entries zero, so leading pivots vanish and rows swap.
            a = [[rng.choice((0, rng.randint(-9, 9))) for _ in range(d)] for _ in range(d)]
            det = _cofactor_det(a)
            if det == 0:
                continue
            adj, got = oracle._adjugate(a)
            assert got == det, a
            scalar = [[det * (i == j) for j in range(d)] for i in range(d)]
            assert _matmul(adj, a) == _matmul(a, adj) == scalar, a
            checked += 1
            swapped += a[0][0] == 0
        assert checked >= 10 and (d == 1 or swapped > 0), (d, checked, swapped)
