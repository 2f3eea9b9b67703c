"""Shared exception types and the one budget test of a power."""


class BudgetExceededError(RuntimeError):
    """Raised when an operation would exceed its configured enumeration,
    materialization, or big-integer budget instead of running unbounded."""


class CrossCheckError(RuntimeError):
    """Raised when two independent routes to one result disagree: a bug in
    the library, not a problem with the input."""


def bounded_power(base: int, exp: int, cap: int) -> int | None:
    """``base**exp`` (base, exp >= 0) when it is at most ``cap``, else None,
    never building a power of over twice ``cap``'s bits:
    base**exp >= 2**((bits(base) - 1) * exp)."""
    if (base.bit_length() - 1) * exp >= cap.bit_length():
        return None
    power = base**exp
    return power if power <= cap else None
