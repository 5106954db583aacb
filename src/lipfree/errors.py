"""Exception types shared across the library, mapped to CLI exit codes.

Python refuses to convert an int of more than ``sys.get_int_max_str_digits()``
digits to text. The cap guards parsing, not results, so every exact value
that output or a message quotes is converted with the cap lifted.
"""

import sys


def any_digits(convert) -> str:
    """``convert()`` with the int digit cap lifted, and restored afterwards."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return convert()
    sys.set_int_max_str_digits(0)
    try:
        return convert()
    finally:
        sys.set_int_max_str_digits(limit)


def exact(value) -> str:
    """``str(value)`` of an exact number of any length, for a message."""
    return any_digits(lambda: str(value))


class LipfreeError(Exception):
    """Base class for all errors raised by this package."""


class InputError(LipfreeError):
    """Malformed document or argument violating an operation's contract."""


class InvalidSpaceError(InputError):
    """Raw labelled distance data failed metric validation."""

    def __init__(self, report):
        self.report = report
        kinds = sorted({kind for kind, _ in report.violations})
        super().__init__("not a valid metric space: " + ", ".join(kinds))


class NotAttainingError(LipfreeError):
    """The pair family admits no common norming function.

    Carries the negative-cycle witness certifying the failure of cyclical
    monotonicity.
    """

    def __init__(self, witness):
        self.witness = witness
        super().__init__(
            f"family is not cyclically monotone: cycle {list(witness.cycle)} "
            f"has slack {exact(witness.sum)}"
        )


class ResourceLimitError(LipfreeError):
    """Instance exceeds the hard size cap of an exhaustive procedure."""


class CertificateMismatchError(LipfreeError):
    """A certificate failed independent re-verification (internal bug)."""
