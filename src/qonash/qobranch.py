"""Lattice tower of a quasi-ordinary branch.

A branch is described by its ordered characteristic exponents.  Each exponent
enlarges the previous lattice, M_j = M_{j-1} + Z*lambda_j starting from
M_0 = Z^d, and the dual N of the final lattice M drives all the cone
geometry downstream.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from math import lcm, prod
from operator import le

from . import intlat
from .errors import DomainError, names_branch
from .intlat import Lattice


class BranchSpec(namedtuple("BranchSpec", "dim char_exponents label", defaults=("",))):
    """Input description of one branch: dimension, exponent chain (RatVecs), label."""

    __slots__ = ()

    def __new__(cls, dim: int, char_exponents, label: str = ""):
        return super().__new__(cls, dim, tuple(char_exponents), label)

    # _replace builds through _make, so route it through __new__ too.
    _make = classmethod(lambda cls, fields: cls(*fields))


class BranchLattices(namedtuple("BranchLattices", "tower")):
    """The tower M_0 < M_1 < ... < M_g = M of Lattice, starting at Z^d.  M,
    N = dual(M), the step indices and the degree are derived from it, so a
    copy made by ``_replace`` with a new tower has its own.  No ``__slots__``:
    N and the step indices are cached in the instance ``__dict__``."""

    @property
    def M(self) -> Lattice:
        return self.tower[-1]

    @cached_property
    def N(self) -> Lattice:
        return intlat.dual_lattice(self.M)

    @cached_property
    def step_indices(self) -> tuple[int, ...]:
        """[M_j : M_{j-1}] for j = 1..g.  M_j contains Z^d, so [M_j : Z^d] is
        denom^d over the product of its scaled basis's pivots."""
        over_z = [
            l.denom ** l.dim // prod(r[i] for i, r in enumerate(l.scaled_basis))
            for l in self.tower
        ]
        return tuple(b // a for a, b in zip(over_z, over_z[1:]))

    @property
    def degree_n(self) -> int:
        """[M : Z^d], the product of the step indices."""
        return prod(self.step_indices)


@names_branch
def build_tower(spec: BranchSpec) -> BranchLattices:
    """Validate the dimension and the exponents and build the lattice tower.

    Raises DomainError naming the branch ``spec.label``, with code
    DIMENSION_MISMATCH, NEGATIVE_EXPONENT, CHAIN_ORDER (consecutive exponents
    not componentwise ordered) or NOT_CHARACTERISTIC (an exponent already
    lies in the lattice built so far).
    """
    d = spec.dim
    tower = [intlat.standard_lattice(d)]  # refuses d outside 1..MAX_DIM
    exps = spec.char_exponents
    for j, lam in enumerate(exps, start=1):
        if lam.dim != d:
            raise DomainError(
                "DIMENSION_MISMATCH",
                f"exponent {j} has dimension {lam.dim}, expected {d}",
            )
        if not lam.is_nonnegative():
            raise DomainError(
                "NEGATIVE_EXPONENT", f"exponent {j} = {lam} has a negative coordinate"
            )
    for j in range(len(exps) - 1):
        if not all(map(le, exps[j], exps[j + 1])):
            raise DomainError(
                "CHAIN_ORDER",
                f"exponents {j + 1} and {j + 2} are not componentwise ordered: "
                f"{exps[j]} vs {exps[j + 1]}",
            )

    for j, lam in enumerate(exps, start=1):
        prev = tower[-1]
        # prev contains Z^d, so one HNF of its scaled basis and lam's
        # numerators over their common denominator gives the step.  The
        # lattice's fields are canonical, so the step leaves it unchanged
        # exactly when lam already lies in prev.
        denom = lcm(prev.denom, lam.denominator())
        rows = [[x * (denom // prev.denom) for x in r] for r in prev.scaled_basis]
        rows.append([c.numerator * (denom // c.denominator) for c in lam])
        nxt = intlat.lattice_from_scaled(denom, rows)
        if nxt == prev:
            raise DomainError(
                "NOT_CHARACTERISTIC",
                f"exponent {j} = {lam} already lies in the lattice generated "
                f"by the earlier ones",
            )
        tower.append(nxt)

    return BranchLattices(tuple(tower))
