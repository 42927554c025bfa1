"""Size guards for enumeration-based operations.

Anything that walks a full field (or a power of one) checks against
MAX_ORDER first and refuses loudly instead of hanging.  The default is
deliberately desk-scale; override via the environment variable
FFDECOMP_MAX_ORDER or by assigning to MAX_ORDER before calling in.  A value
that is not an integer sets the limit to 0, so every guard refuses.
"""

import os

from .errors import SizeLimitError

ENV_VAR = "FFDECOMP_MAX_ORDER"
DEFAULT_MAX_ORDER = 1 << 26

try:
    MAX_ORDER = int(os.environ.get(ENV_VAR, DEFAULT_MAX_ORDER))
except ValueError:
    MAX_ORDER = 0


def check_enumerable(size: int, what: str, exp: int = 1) -> None:
    """Refuse to walk size**exp points.  For size >= 2, a size above the limit
    or an exp with 2**exp above it is refused without forming the power."""
    if size > MAX_ORDER or exp >= MAX_ORDER.bit_length() or size**exp > MAX_ORDER:
        points = size if exp == 1 else f"{size}^{exp}"
        raise SizeLimitError(
            f"{what} requires {points} points; configured limit is {MAX_ORDER}"
            f" (override with {ENV_VAR})"
        )
