from fractions import Fraction as F

import pytest

from qonash import (
    DomainError,
    RatVec,
    conegeom,
    intlat,
    lattice_from_generators,
    standard_lattice,
)
from qonash.oracle import brute_branch, brute_face_index, brute_minimal_S


def vec(*coords):
    return RatVec(coords)


def lat(*rows):
    return lattice_from_generators([RatVec(r) for r in rows])


N_EVEN = lat((2, 0), (1, 1))
N_MOD4 = lat((4, 0), (3, 1))


class TestBruteMinimalS:
    def test_even_lattice(self):
        assert brute_minimal_S(N_EVEN, 2) == [vec(1, 1)]

    def test_standard_lattice(self):
        assert brute_minimal_S(standard_lattice(2), 1) == []

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


class TestBruteSingularFaces:
    def test_agrees_with_face_index(self):
        for n in (N_EVEN, N_MOD4, standard_lattice(2), lat((1, 0), (0, 2))):
            singular = brute_branch(n, 4)[1]
            for idx in [(1,), (2,), (1, 2)]:
                assert (idx in singular) == (brute_face_index(n, idx) > 1)

    def test_bound_too_small(self):
        with pytest.raises(DomainError) as err:
            brute_branch(N_MOD4, 3)
        assert err.value.code == "BOUND_TOO_SMALL"


def test_oracle_shares_no_membership_code(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle reached into the main path")

    monkeypatch.setattr(intlat, "contains", refuse)
    monkeypatch.setattr(intlat.Lattice, "scaled_coefficients", refuse)
    monkeypatch.setattr(intlat, "section", refuse)
    monkeypatch.setattr(intlat, "hnf", refuse)
    monkeypatch.setattr(conegeom, "parallelepiped_points", refuse)
    monkeypatch.setattr(conegeom, "face_parallelepiped", refuse)
    assert brute_minimal_S(N_MOD4, 4) == [vec(1, 3), vec(2, 2), vec(3, 1)]
    assert brute_face_index(N_MOD4, (1, 2)) == 4
    assert brute_face_index(N_EVEN, (2,)) == 1
    assert brute_branch(N_MOD4, 4)[1] == {(1, 2)}
