"""Exception types shared by all modules.

Every domain-level failure carries a stable machine-readable ``code`` so the
CLI can report it without parsing message strings; :func:`names_branch`
labels one raised in a per-branch step with that step's branch.
"""

from __future__ import annotations

from functools import wraps


class DomainError(ValueError):
    """A mathematically invalid input or request.

    Codes in use:
      DIMENSION_MISMATCH, NOT_FULL_RANK, NOT_SUBLATTICE, ZERO_MATRIX,
      NEGATIVE_EXPONENT, CHAIN_ORDER, NOT_CHARACTERISTIC,
      BAD_FACE, SINGULAR_FACE, EMPTY_SUPPORT, ZERO_CONTACT,
      B_MISSING_SING, DUPLICATE_LABEL, UNKNOWN_BRANCH, SELF_CONTACT,
      DUPLICATE_CONTACT, ASYMMETRIC_CONTACT, BOUND_TOO_SMALL, LIMIT_EXCEEDED,
      ORACLE_MISMATCH.
    """

    def __init__(self, code: str, message: str, *, branch: str | None = None):
        self.code = code
        self.message = message
        # An unlabelled branch (label "") gets no branch prefix.
        self.branch = branch or None
        prefix = f"[{code}]"
        if self.branch is not None:
            prefix += f" branch {branch!r}:"
        super().__init__(f"{prefix} {message}")


def names_branch(step):
    """``step(branch, ...)`` with each DomainError that names no branch raised
    again with ``branch.label``; other errors, and all of an unlabelled
    branch (label ``""``), pass through unchanged."""
    @wraps(step)
    def named(branch, *args):
        try:
            return step(branch, *args)
        except DomainError as exc:
            if exc.branch is not None or not branch.label:
                raise
            raise DomainError(exc.code, exc.message, branch=branch.label) from None
    return named


class SchemaError(ValueError):
    """A malformed input file; ``path`` locates the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")
