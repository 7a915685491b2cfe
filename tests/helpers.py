"""Small constructors and the subprocess environment shared by the test
modules.  Kept apart from ``towers``, which the benchmark imports."""

import os
from fractions import Fraction as F
from pathlib import Path

from qonash import BranchInput, DomainError, RatVec, lattice_from_generators


def vec(*coords):
    return RatVec(coords)


def vectors(points):
    return [RatVec(p) for p in points]


def lat(*rows):
    return lattice_from_generators([RatVec(r) for r in rows])


def scale_axis(v, i, k):
    """v with its 0-based coordinate i multiplied by k."""
    return (*v[:i], v[i] * k, *v[i + 1 :])


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


def cross_branch(spec):
    """The branch with B the full coordinate cross, which holds any
    singular locus."""
    return BranchInput(spec=spec, sing_faces=tuple((k,) for k in range(1, spec.dim + 1)))


def src_env():
    """The environment with src/ first on PYTHONPATH, for `python -m qonash`."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
