class ParseError(ValueError):
    """Malformed braid-word input (message carries the token position)."""


class InputError(ValueError):
    """Input violates a documented precondition (wrong closure, signs, ...)."""


class VerificationError(RuntimeError):
    """An internal exactness contract failed (division remainder, route
    disagreement, stabilization failure).  A bug, except for a stabilization
    failure at a cutoff the caller set below the default: that cutoff is
    too small for the word."""


def require_nonnegative(**values):
    """InputError naming the first of the keyword arguments that is
    negative: the one refusal of a negative order, cap, weight or degree."""
    for name, value in values.items():
        if value < 0:
            raise InputError(f"{name} must be >= 0, got {value}")
