"""Exception types shared by all modules.

Every domain-level failure carries a stable machine-readable ``code`` so the
CLI can report it without parsing message strings.
"""

from __future__ import annotations


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


class SchemaError(ValueError):
    """A malformed input file; ``path`` locates the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")
