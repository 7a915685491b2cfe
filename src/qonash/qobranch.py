"""Lattice tower of a quasi-ordinary branch.

A branch is described by its ordered characteristic exponents.  Each exponent
enlarges the previous lattice, M_j = M_{j-1} + Z*lambda_j starting from
M_0 = Z^d, and the dual N of the final lattice M drives all the cone
geometry downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm, prod
from operator import le

from . import intlat
from .errors import DomainError
from .intlat import Lattice, RatVec


@dataclass(frozen=True)
class BranchSpec:
    """Input description of one branch: dimension and exponent chain."""

    dim: int
    char_exponents: tuple[RatVec, ...]
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "char_exponents", tuple(self.char_exponents))


@dataclass(frozen=True)
class BranchLattices:
    """The tower M_0 < M_1 < ... < M_g = M together with N = dual(M)."""

    tower: tuple[Lattice, ...]
    M: Lattice
    N: Lattice
    degree_n: int
    step_indices: tuple[int, ...] = field(default=())


def build_tower(spec: BranchSpec) -> BranchLattices:
    """Validate the exponents and build the lattice tower.

    Raises DomainError with code NEGATIVE_EXPONENT, CHAIN_ORDER (consecutive
    exponents not componentwise ordered), or NOT_CHARACTERISTIC (an exponent
    already lies in the lattice built so far).
    """
    d = spec.dim
    if not intlat.is_index(d, intlat.MAX_DIM):
        message = f"dimension {d} outside 1..{intlat.MAX_DIM}"
        raise DomainError("DIMENSION_MISMATCH", message, branch=spec.label)
    exps = spec.char_exponents
    for j, lam in enumerate(exps, start=1):
        if lam.dim != d:
            raise DomainError(
                "DIMENSION_MISMATCH",
                f"exponent {j} has dimension {lam.dim}, expected {d}",
                branch=spec.label,
            )
        if not lam.is_nonnegative():
            raise DomainError(
                "NEGATIVE_EXPONENT",
                f"exponent {j} = {lam} has a negative coordinate",
                branch=spec.label,
            )
    for j in range(len(exps) - 1):
        if not all(map(le, exps[j], exps[j + 1])):
            raise DomainError(
                "CHAIN_ORDER",
                f"exponents {j + 1} and {j + 2} are not componentwise ordered: "
                f"{exps[j]} vs {exps[j + 1]}",
                branch=spec.label,
            )

    tower = [intlat.standard_lattice(d)]
    step_indices = []
    for j, lam in enumerate(exps, start=1):
        prev = tower[-1]
        # prev contains Z^d, so one HNF of its scaled basis and lam's
        # numerators over their common denominator gives the step; in
        # canonical form nxt == prev exactly when lam already lies in prev.
        denom = lcm(prev.denom, lam.denominator())
        rows = [[x * (denom // prev.denom) for x in r] for r in prev.scaled_basis]
        rows.append([c.numerator * (denom // c.denominator) for c in lam])
        nxt = intlat.lattice_from_scaled(denom, rows)
        if nxt == prev:
            raise DomainError(
                "NOT_CHARACTERISTIC",
                f"exponent {j} = {lam} already lies in the lattice generated "
                f"by the earlier ones",
                branch=spec.label,
            )
        # [nxt : prev] is the covolume ratio det prev / det nxt, with
        # det = (product of the scaled pivots) / denom^d.
        step_indices.append(
            _pivots(prev) * nxt.denom**d // (_pivots(nxt) * prev.denom**d)
        )
        tower.append(nxt)

    M = tower[-1]
    N = intlat.dual_lattice(M)
    return BranchLattices(
        tower=tuple(tower),
        M=M,
        N=N,
        degree_n=prod(step_indices),
        step_indices=tuple(step_indices),
    )


def _pivots(l: Lattice) -> int:
    return prod(l.scaled_basis[i][i] for i in range(l.dim))
