import random
from collections import Counter
from fractions import Fraction as F
from math import prod

import pytest

from qonash import (
    BranchSpec,
    DomainError,
    RatVec,
    build_tower,
    contains,
    dual_lattice,
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

    def test_replace_rederives_m_and_degree(self):
        # M and the degree follow the tower, so a copy with new fields
        # carries no stale value.
        lat = build_tower(spec((F(1, 2), F(1, 2)), (F(3, 4), F(3, 4))))
        assert lat.step_indices == (2, 2)
        first = lat._replace(tower=lat.tower[:2])
        assert first.degree_n == 2
        assert first.M == lat.tower[1] != lat.M

    def test_replace_rederives_n(self):
        # N follows the tower too: the one-step copy has the dual of its own
        # M, not the dual of the two-step tower it was copied from.
        lat = build_tower(spec((F(1, 2), F(1, 2)), (F(3, 4), F(3, 4))))
        assert lat.N == lattice_from_generators([RatVec([4, 0]), RatVec([3, 1])])
        first = lat._replace(tower=lat.tower[:2])
        assert first.N == dual_lattice(first.M)
        assert first.N == lattice_from_generators([RatVec([2, 0]), RatVec([1, 1])])

    def test_replace_rederives_step_indices(self):
        # The tower is the only field: a copy with a shorter tower has the
        # steps and the degree of that tower, [M_1 : Z^2] = 2.
        lat = build_tower(spec((F(1, 2), F(1, 2)), (F(3, 4), F(3, 4))))
        first = lat._replace(tower=lat.tower[:2])
        assert first.step_indices == (2,)
        assert first.degree_n == 2 == index(standard_lattice(2), first.M)
        assert lat._replace(tower=lat.tower[:1]).step_indices == ()
        assert list(lat._fields) == ["tower"]
        assert list(lat.M.__slots__) == ["denom", "scaled_basis"]

    def test_spec_is_a_tuple_record(self):
        # The exponents become a tuple however the spec is built or copied,
        # so it hashes like the tuple of its fields.
        s = BranchSpec(2, [RatVec([1, F(1, 2)])])
        moved = s._replace(char_exponents=[RatVec([1, F(1, 3)])], label="c")
        assert type(s.char_exponents) is type(moved.char_exponents) is tuple
        assert s.label == "" and moved.label == "c"
        assert hash(s) == hash((2, s.char_exponents, ""))

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

    def test_exponent_of_wrong_dimension(self):
        with pytest.raises(DomainError) as err:
            build_tower(spec((F(1, 2), F(1, 2), 0), label="x"))
        assert str(err.value) == (
            "[DIMENSION_MISMATCH] branch 'x': exponent 1 has dimension 3, expected 2"
        )

    @pytest.mark.parametrize("label, prefix", [("x", " branch 'x':"), ("", "")])
    def test_dimension_out_of_range(self, label, prefix):
        # An unlabelled branch's refusal has no prefix and names no branch.
        with pytest.raises(DomainError) as err:
            build_tower(BranchSpec(17, (), label))
        assert str(err.value) == f"[DIMENSION_MISMATCH]{prefix} dimension 17 outside 1..16"
        assert err.value.branch == (label or None)

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
                assert all(c.denominator == 1 for c in row)

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
    # for the dual, taken when N is first read; Z^d itself needs none.
    specs = [s for s, _ in random_branches(40, seed=6262)]
    assert any(len(s.char_exponents) > 1 for s in specs)
    calls = []

    def counted(rows, _real=intlat._hnf_core):
        calls.append(rows)
        return _real(rows)

    monkeypatch.setattr(intlat, "_hnf_core", counted)
    for s in specs:
        calls.clear()
        lattices = build_tower(s)
        assert lattices.N is lattices.N
        assert len(calls) == len(s.char_exponents) + 1


def reference_tower(s):
    """The tower through rational generators, step by step: M_j is the lattice
    generated by M_{j-1}'s basis as RatVecs together with lambda_j.  Returns
    (tower, N, step indices), or the refusal's error code."""
    exps = s.char_exponents
    if any(x > y for a, b in zip(exps, exps[1:]) for x, y in zip(a, b)):
        return "CHAIN_ORDER"
    tower = [standard_lattice(s.dim)]
    for lam in exps:
        nxt = lattice_from_generators([*tower[-1].basis, lam])
        if nxt == tower[-1]:
            return "NOT_CHARACTERISTIC"
        tower.append(nxt)
    steps = tuple(index(p, q) for p, q in zip(tower, tower[1:]))
    return tuple(tower), dual_lattice(tower[-1]), steps


def random_spec(rng):
    """Exponent chains that are mostly valid; some repeat a step by an integer
    vector (not characteristic) or drop below the previous one (chain order)."""
    d = rng.randint(1, 5)
    exps = []
    prev = [F(0)] * d
    for _ in range(rng.randint(0, 4)):
        kind = rng.random()
        if kind < 0.1 and exps:
            lam = [c + rng.randint(0, 2) for c in prev]
        elif kind < 0.2:
            lam = [F(rng.randint(0, 12), rng.randint(1, 8)) for _ in range(d)]
        else:
            q = rng.randint(1, 9)
            lam = [c + F(rng.randint(0, 2 * q), q) for c in prev]
        exps.append(lam)
        prev = lam
    return spec(*exps, dim=d)


def test_integer_step_matches_rational_reference():
    rng = random.Random(1515)
    specs = [s for s, _ in random_branches(100, seed=20250810)]
    specs += [random_spec(rng) for _ in range(400)]
    codes = Counter()
    for s in specs:
        expected = reference_tower(s)
        try:
            got = build_tower(s)
        except DomainError as err:
            assert err.code == expected, s
            codes[err.code] += 1
            continue
        assert (got.tower, got.N, got.step_indices) == expected, s
        assert got.M == got.tower[-1]
        assert got.degree_n == prod(got.step_indices)
        codes["ok"] += 1
    # Every outcome is exercised, each many times.
    assert min(codes[c] for c in ("ok", "NOT_CHARACTERISTIC", "CHAIN_ORDER")) >= 20, codes
