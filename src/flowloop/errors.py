class ParseError(ValueError):
    """Malformed braid-word input (message carries the token position)."""


class InputError(ValueError):
    """Input violates a documented precondition (wrong closure, signs, ...)."""


class VerificationError(RuntimeError):
    """An internal exactness contract failed (division remainder, route
    disagreement, stabilization failure).  A bug, except for a stabilization
    failure at a cutoff the caller set below the default: that cutoff is
    too small for the word."""
