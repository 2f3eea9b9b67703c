"""Shared exception types and the one budget test of a power."""


class BudgetExceededError(RuntimeError):
    """Raised when an operation would exceed its configured enumeration,
    materialization, or big-integer budget instead of running unbounded."""


def power_exceeds(base: int, exp: int, cap: int) -> bool:
    """Exactly ``base**exp > cap`` (base, exp >= 0), never building a power
    of over twice ``cap``'s bits: base**exp >= 2**((bits(base) - 1) * exp)."""
    return ((base.bit_length() - 1) * exp >= cap.bit_length()
            or base**exp > cap)
