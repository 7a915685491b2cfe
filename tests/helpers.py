"""Small constructors and the subprocess environment shared by the test
modules.  Kept apart from ``towers``, which the benchmark imports."""

import os
from pathlib import Path

from qonash import BranchInput, RatVec, lattice_from_generators


def vec(*coords):
    return RatVec(coords)


def vectors(points):
    return [RatVec(p) for p in points]


def lat(*rows):
    return lattice_from_generators([RatVec(r) for r in rows])


def cross_branch(spec):
    """The branch with B the full coordinate cross, which holds any
    singular locus."""
    return BranchInput(spec=spec, sing_faces=tuple((k,) for k in range(1, spec.dim + 1)))


def src_env():
    """The environment with src/ first on PYTHONPATH, for `python -m qonash`."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
