"""The constructor's full additive-closure check, applied to values the package builds unchecked.

Only ``NumericalSemigroup(F, mask)`` and ``from_small_elements`` run the check;
every derived value skips it because it is closed by construction.  These
helpers rebuild such values through the checked constructor, and count how
often the check runs.
"""

from arfsemigroups import NumericalSemigroup


def full_check_accepts(frobenius, mask):
    """True when the checked constructor accepts the mask."""
    try:
        NumericalSemigroup(frobenius, mask)
    except ValueError:
        return False
    return True


def assert_checked(S):
    """S rebuilds through the checked constructor: its mask is valid and additively closed."""
    assert full_check_accepts(S.frobenius, S.mask), S


def count_full_checks(monkeypatch):
    """Count the full checks from now on; the count is the list's only item."""
    calls = [0]
    check = NumericalSemigroup.__post_init__

    def counted(S):
        calls[0] += 1
        check(S)

    monkeypatch.setattr(NumericalSemigroup, "__post_init__", counted)
    return calls
