"""Seeded random branch/tower generator shared by property and acceptance tests.

Towers are sampled per the acceptance envelope: dimensions 2..4, exponent
denominators at most 8, total lattice index at most 200.  Two extra work caps
keep the exhaustive oracle comparisons inside the runtime target; they bound
enumeration size only and do not change which lattice shapes can appear.
"""

from fractions import Fraction
import random

from qonash import BranchSpec, RatVec, build_tower, primitive_on_ray

DENOMS = (2, 3, 4, 5, 6, 7, 8)

# Work caps: candidates in one face box, and a cube bounding the oracle's box scan.
MAX_FACE_BOX = 150_000
MAX_ORACLE_BOX = 2_500_000


def _random_exponent(rng: random.Random, base: RatVec, dim: int) -> RatVec:
    # Sample on the 1/q grid at or above the previous exponent, so every
    # coordinate denominator divides q <= 8 even across mixed-q steps.
    q = rng.choice(DENOMS)
    coords = []
    for b in base.coords:
        lowest = -(-b.numerator * q // b.denominator)  # ceil(b * q)
        coords.append(Fraction(lowest + rng.randint(0, 2 * q), q))
    return RatVec(coords)


def random_branch(rng: random.Random, dims=(2, 3, 4), max_index=200):
    """One random valid branch spec together with its built lattices."""
    while True:
        d = rng.choice(dims)
        g = rng.choice((0,) + (1,) * 11 + (2,) * 7 + ((3,) if d == 2 else (1,)))
        exps = []
        prev = RatVec([0] * d)
        ok = True
        for _ in range(g):
            for _attempt in range(20):
                cand = _random_exponent(rng, prev, d)
                probe = BranchSpec(dim=d, char_exponents=tuple(exps) + (cand,))
                try:
                    built = build_tower(probe)
                except Exception:
                    continue
                if built.degree_n > max_index:
                    continue
                exps.append(cand)
                prev = cand
                break
            else:
                ok = False
                break
        if not ok:
            continue
        spec = BranchSpec(dim=d, char_exponents=tuple(exps))
        lattices = build_tower(spec)
        if lattices.degree_n > max_index:
            continue
        n = lattices.N
        reach = [primitive_on_ray(n, k).coords[k - 1] for k in range(1, d + 1)]
        assert all(c.denominator == 1 for c in reach)
        reach = [c.numerator for c in reach]
        box = 1
        for c in reach:
            box *= c
        if box > MAX_FACE_BOX:
            continue
        # The oracle scans the reach box, prod(c_k + 1) cells, and this
        # cube bounds it.  The cap stays the cube: perfbench/workloads.py
        # builds the pinned `towers` inputs from this generator, and another
        # cap would admit other towers.
        oracle_box = (max(reach) + 1) ** d
        if oracle_box > MAX_ORACLE_BOX:
            continue
        return spec, lattices


def random_branches(count: int, seed: int, **kwargs):
    rng = random.Random(seed)
    return [random_branch(rng, **kwargs) for _ in range(count)]
