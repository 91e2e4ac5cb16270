"""Shared exception types."""


class FormatError(ValueError):
    """Malformed input file or literal."""


class BudgetExceededError(RuntimeError):
    """An enumeration or expansion exceeded its configured budget."""


class SoundnessError(RuntimeError):
    """A computed answer failed the check that guards it (a bug, not bad input)."""
