"""Exception types shared across the package, and how their messages show a
rejected value."""
from __future__ import annotations

import math

# past this many bits an int is shown by its length: repr raises ValueError
# beyond sys.get_int_max_str_digits() digits, 4300 by default
_SHOWN_BITS = 332  # about 100 digits


class DomainError(ValueError):
    """Input violates a numeric-domain contract (non-Hermitian, negative
    spectrum beyond tolerance, out-of-range parameter, ...)."""


class ConfigError(ValueError):
    """Bad configuration file or CLI parameter combination."""


def shown(value) -> str:
    """repr(value) for an error message, but an int of more than about 100
    digits is shown by its sign and length."""
    if isinstance(value, int) and value.bit_length() > _SHOWN_BITS:
        digits = int(value.bit_length() * math.log10(2)) + 1
        sign = "a negative" if value < 0 else "an"
        return f"{sign} integer of about {digits} digits"
    return repr(value)
