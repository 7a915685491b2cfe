"""Acceptance suite.

One test per criterion, each printing a single pass/fail line (run with
``pytest -s tests/test_acceptance.py`` to see them live):

  1. oracle equivalence on 500+ random towers, under two minutes
  2. worked-corpus exactness (values derived by hand, see corpus/derivations.md)
  3. quantified invariant suite (200+ random cases per invariant)
  4. smooth degenerate case
  5. byte-identical CLI reruns over the whole corpus

Beside criterion 1, the oracle's second tier checks larger towers (d = 3..5,
degree 201..1 000) against the same brute force, sized to its scan cap.
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

from qonash import (
    BranchInput,
    BranchSpec,
    Contact,
    DomainError,
    RatVec,
    analyze_branch,
    analyze_variety,
    build_tower,
    dual_lattice,
    essential_divisors,
    face_data,
    index,
    lattice_from_generators,
    lattice_sum,
    leq_sigma,
    minimal_toric_divisors,
    monomial_valuation,
    primitive_on_ray,
)
from qonash.conegeom import face_table
from qonash.nashmap import componentize, lemma_min_diagnostics
from qonash.oracle import brute_branch
from helpers import src_env, vec, vectors
from towers import random_branch, random_branches

CORPUS = Path(__file__).parent / "corpus"


def _passed(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_oracle_equivalence():
    """Criterion 1: main path equals brute force on 500+ random towers."""
    started = time.time()
    count = 520
    branches = random_branches(count, seed=20250810, dims=(2, 3, 4))
    assert len(branches) >= 500
    seen_dims = set()
    for spec, lattices in branches:
        n = lattices.N
        seen_dims.add(n.dim)
        faces = face_table(n)
        main = (
            minimal_toric_divisors(n),
            [face.reach[0] for face in faces[: n.dim]],
            {face.indices: face.index for face in faces},
        )
        brute = brute_branch(n)
        assert main == brute, (spec.char_exponents, main, brute)
        for idx, face_index in brute[2].items():
            assert face_data(n, idx).index == face_index, (spec.char_exponents, idx)
    elapsed = time.time() - started
    assert seen_dims == {2, 3, 4}
    assert elapsed < 120, f"runtime target exceeded: {elapsed:.1f}s"
    _passed(f"1 oracle-equivalence ({len(branches)} towers, {elapsed:.1f}s)")


def _second_tier_tower(rng, d):
    """A random tower of degree 201..1 000 whose oracle box and candidate
    count stay small: exponent denominators at most 30, reach box at most
    10^6 cells, sum of the singular faces' indices at most 10^5."""
    while True:
        exps, prev = [], [F(0)] * d
        for _ in range(rng.randint(1, 3)):
            q = rng.randint(2, 30)  # on the 1/q grid, at or above the last exponent
            prev = [F(-(-x.numerator * q // x.denominator) + rng.randint(0, q), q) for x in prev]
            exps.append(RatVec(prev))
        try:
            lattices = build_tower(BranchSpec(dim=d, char_exponents=tuple(exps)))
        except DomainError:
            continue
        faces = face_table(lattices.N)
        reach = [face.reach[0] for face in faces[:d]]
        if (
            201 <= lattices.degree_n <= 1000
            and math.prod(c + 1 for c in reach) <= 10**6
            and sum(face.index for face in faces if not face.regular) <= 10**5
        ):
            return exps, lattices.N, faces


def test_oracle_second_tier():
    """S_min, the axis reaches and every face's index equal brute force on
    larger towers."""
    rng = random.Random(20261018)
    for d in (3, 4, 5):
        for _ in range(15):
            exps, n, faces = _second_tier_tower(rng, d)
            main = (
                minimal_toric_divisors(n),
                [face.reach[0] for face in faces[:d]],
                {face.indices: face.index for face in faces},
            )
            assert brute_branch(n) == main, exps


def _branch_from_corpus(case, label):
    doc = json.loads((CORPUS / f"{case}.json").read_text())
    contact_map = {}
    for c in doc.get("contacts", []):
        contact_map.setdefault(c["from_label"], []).append(
            Contact(RatVec(F(n, d) for n, d in c["exponent"]), c["to_label"])
        )
    for raw in doc["branches"]:
        if raw["label"] != label:
            continue
        return BranchInput(
            spec=BranchSpec(
                dim=doc["dim"],
                char_exponents=tuple(
                    RatVec(F(n, d) for n, d in e) for e in raw["char_exponents"]
                ),
                label=label,
            ),
            sing_faces=tuple(tuple(f) for f in raw.get("sing_faces", [])),
            extra_faces=tuple(tuple(f) for f in raw.get("extra_faces", [])),
            contacts=tuple(contact_map.get(label, [])),
        )
    raise AssertionError(f"{label} not in {case}")


def test_criterion_2_worked_corpus():
    """Criterion 2: the hand-derived corpus values, exactly."""
    whitney = analyze_branch(_branch_from_corpus("whitney", "whitney"))
    assert vectors(whitney.E) == [vec(1, 0)]
    assert whitney.V == () and whitney.nash_count == 1

    a1 = analyze_branch(_branch_from_corpus("a1_cone", "a1"))
    assert a1.E == ()
    assert vectors(a1.V) == [vec(1, 1)] and a1.nash_count == 1

    cusp = analyze_branch(_branch_from_corpus("plane_cusp", "cusp"))
    assert vectors(cusp.E) == [vec(2)]
    assert RatVec(cusp.E[0]) == primitive_on_ray(cusp.lattices.N, 1)
    assert cusp.nash_count == 1

    deg4 = analyze_branch(_branch_from_corpus("degree4", "deg4"))
    assert vectors(deg4.E) == [vec(0, 4), vec(4, 0)]
    assert vectors(deg4.V) == [vec(1, 3), vec(2, 2), vec(3, 1)]
    assert deg4.nash_count == 5

    reducible = analyze_variety(
        [
            _branch_from_corpus("reducible", "cone"),
            _branch_from_corpus("reducible", "plane"),
        ]
    )
    assert [b.nash_count for b in reducible.branches] == [3, 2]
    assert reducible.total_nash == 5
    _passed("2 worked-corpus exactness (5 cases)")


def _random_lattice(rng, max_dim=4):
    while True:
        d = rng.randint(1, max_dim)
        denom = rng.randint(1, 6)
        rows = [
            [F(rng.randint(-6, 6), denom) for _ in range(d)] for _ in range(d)
        ]
        try:
            return lattice_from_generators([RatVec(r) for r in rows])
        except DomainError:
            continue


def test_criterion_3_invariant_suite():
    """Criterion 3: quantified invariants, 200+ random cases each."""
    rng = random.Random(1729)

    # E union V is an antichain on every run; the corpus never trips the
    # consistency diagnostic.
    corpus_runs = [
        ("whitney", "whitney"), ("a1_cone", "a1"), ("plane_cusp", "cusp"),
        ("degree4", "deg4"), ("reducible", "cone"), ("reducible", "plane"),
    ]
    for case, label in corpus_runs:
        report = analyze_branch(_branch_from_corpus(case, label))
        assert not any(d.code == "LEMMA_MIN_VIOLATION" for d in report.diagnostics)
        combined = vectors(report.E) + vectors(report.V)
        assert not any(
            a != b and leq_sigma(a, b) for a in combined for b in combined
        )
    for _ in range(200):
        spec, lattices = random_branch(rng, dims=(2, 3))
        faces = componentize(
            tuple(
                tuple(sorted(rng.sample(range(1, spec.dim + 1), rng.randint(1, spec.dim))))
                for _ in range(rng.randint(0, 3))
            )
        )
        e, v, diags = essential_divisors(lattices.N, faces)
        assert diags == []
        combined = vectors(e) + vectors(v)
        assert not any(
            a != b and leq_sigma(a, b) for a in combined for b in combined
        )

    # the synthetic inconsistent input does fire the diagnostic
    assert [d.code for d in lemma_min_diagnostics([(3, 3)], [(1, 1)])] == [
        "LEMMA_MIN_VIOLATION"
    ]

    # dual involution
    for _ in range(200):
        l = _random_lattice(rng)
        assert dual_lattice(dual_lattice(l)) == l

    # index multiplicativity on nested sums
    for _ in range(200):
        l1 = _random_lattice(rng, max_dim=3)
        l2 = lattice_sum(l1, _random_lattice_same_dim(rng, l1.dim))
        l3 = lattice_sum(l2, _random_lattice_same_dim(rng, l1.dim))
        assert index(l1, l3) == index(l1, l2) * index(l2, l3)

    # valuation scaling
    for _ in range(200):
        d = rng.randint(1, 4)
        v = RatVec([rng.randint(0, 9) for _ in range(d)])
        q = rng.randint(1, 9)
        support = [
            RatVec([F(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(d)])
            for _ in range(rng.randint(1, 5))
        ]
        assert monomial_valuation(v.scale(q), support) == q * monomial_valuation(
            v, support
        )

    # tower degree is the product of the step indices
    for _ in range(200):
        _, lattices = random_branch(rng, dims=(2, 3, 4))
        product = 1
        for step in lattices.step_indices:
            product *= step
        assert lattices.degree_n == product
        assert lattices.degree_n == index(lattices.tower[0], lattices.M)
    _passed("3 invariant suite (6 invariants x 200 cases)")


def _random_lattice_same_dim(rng, d):
    while True:
        denom = rng.randint(1, 6)
        rows = [[F(rng.randint(-6, 6), denom) for _ in range(d)] for _ in range(d)]
        try:
            return lattice_from_generators([RatVec(r) for r in rows])
        except DomainError:
            continue


def test_criterion_4_smooth_degenerate():
    """Criterion 4: smooth branch, no contacts, empty faces: all zero."""
    report = analyze_variety([BranchInput(spec=BranchSpec(3, (), "smooth"))])
    branch = report.branches[0]
    assert report.total_nash == report.total_essential == 0
    assert branch.E == () and branch.V == ()
    assert branch.nash_count == 0
    assert [d.code for d in branch.diagnostics] == ["EMPTY_B"]
    assert build_tower(BranchSpec(3, (), "smooth")).degree_n == 1
    _passed("4 smooth degenerate case")


def test_criterion_5_cli_determinism():
    """Criterion 5: two CLI runs over the corpus are byte-identical."""
    cases = ["whitney", "a1_cone", "plane_cusp", "degree4", "reducible", "smooth"]
    outputs = []
    for _ in range(2):
        blob = b""
        for case in cases:
            cmd = [
                sys.executable, "-m", "qonash",
                "analyze", str(CORPUS / f"{case}.json"), "--format", "json",
            ]
            blob += subprocess.run(
                cmd, capture_output=True, check=True, env=src_env()
            ).stdout
        outputs.append(blob)
    assert outputs[0] == outputs[1]
    for case in cases:
        golden = (CORPUS / "golden" / f"{case}.report.json").read_bytes()
        assert golden in outputs[0]
    _passed("5 CLI determinism (byte-identical reruns)")
