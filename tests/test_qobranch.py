import random
from fractions import Fraction as F

import pytest

from qonash import (
    BranchSpec,
    DomainError,
    RatVec,
    build_tower,
    contains,
    index,
    lattice_from_generators,
    standard_lattice,
)
from qonash import intlat
from towers import random_branches


def spec(*exps, dim=2, label="b"):
    return BranchSpec(dim=dim, char_exponents=tuple(RatVec(e) for e in exps), label=label)


class TestBuildTower:
    def test_whitney_branch(self):
        lat = build_tower(spec((1, F(1, 2))))
        assert lat.M.basis == (RatVec([1, 0]), RatVec([0, F(1, 2)]))
        assert lat.N.basis == (RatVec([1, 0]), RatVec([0, 2]))
        assert lat.degree_n == 2

    def test_smooth_branch(self):
        lat = build_tower(spec())
        assert lat.M == lat.N == standard_lattice(2)
        assert lat.degree_n == 1
        assert lat.tower == (standard_lattice(2),)

    def test_two_step_tower(self):
        lat = build_tower(spec((F(1, 2), F(1, 2)), (F(3, 4), F(3, 4))))
        expected_m = lattice_from_generators(
            [RatVec([1, 0]), RatVec([0, 1]), RatVec([F(1, 4), F(1, 4)])]
        )
        assert lat.M == expected_m
        assert lat.degree_n == 4
        assert contains(lat.N, RatVec([1, 3]))
        assert not contains(lat.N, RatVec([1, 0]))

    def test_not_characteristic(self):
        with pytest.raises(DomainError) as err:
            build_tower(spec((F(1, 2), F(1, 2)), (1, 1)))
        assert err.value.code == "NOT_CHARACTERISTIC"

    def test_chain_order(self):
        with pytest.raises(DomainError) as err:
            build_tower(spec((F(1, 2), 0), (0, F(1, 2))))
        assert err.value.code == "CHAIN_ORDER"

    def test_negative_exponent(self):
        with pytest.raises(DomainError) as err:
            build_tower(spec((F(-1, 2), 1)))
        assert err.value.code == "NEGATIVE_EXPONENT"

    def test_zero_exponent_is_not_characteristic(self):
        with pytest.raises(DomainError) as err:
            build_tower(spec((0, 0)))
        assert err.value.code == "NOT_CHARACTERISTIC"

    def test_error_names_branch(self):
        with pytest.raises(DomainError) as err:
            build_tower(spec((1, 1), label="culprit"))
        assert err.value.branch == "culprit"
        assert "culprit" in str(err.value)


class TestTowerProperties:
    BRANCHES = random_branches(60, seed=1305)

    def test_strict_growth(self):
        for _, lat in self.BRANCHES:
            for prev, nxt in zip(lat.tower, lat.tower[1:]):
                assert index(prev, nxt) >= 2
            assert all(step >= 2 for step in lat.step_indices)
            assert lat.step_indices == tuple(
                index(p, q) for p, q in zip(lat.tower, lat.tower[1:])
            )

    def test_dual_inside_integers(self):
        for _, lat in self.BRANCHES:
            assert lat.N.denom == 1
            for row in lat.N.basis:
                assert row.is_integral()

    def test_degree_is_product_of_steps(self):
        for _, lat in self.BRANCHES:
            product = 1
            for step in lat.step_indices:
                product *= step
            assert lat.degree_n == product

    def test_rebuild_from_shuffled_generators(self):
        rng = random.Random(99)
        for branch_spec, lat in self.BRANCHES[:25]:
            gens = list(standard_lattice(branch_spec.dim).basis) + list(
                branch_spec.char_exponents
            )
            rng.shuffle(gens)
            assert lattice_from_generators(gens) == lat.M


def test_one_hnf_per_tower_step(monkeypatch):
    # One Hermite form per exponent (M_{j-1}'s basis with lambda_j) and one
    # for the dual; Z^d itself needs none.
    specs = [s for s, _ in random_branches(40, seed=6262)]
    assert any(len(s.char_exponents) > 1 for s in specs)
    calls = []

    def counted(rows, _real=intlat._hnf_core):
        calls.append(rows)
        return _real(rows)

    monkeypatch.setattr(intlat, "_hnf_core", counted)
    for s in specs:
        calls.clear()
        build_tower(s)
        assert len(calls) == len(s.char_exponents) + 1
