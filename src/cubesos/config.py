"""Runtime configuration: the enumeration cap.

Resolution order for every knob: explicit function argument > environment
variable (prefix ``CUBESOS_``) > built-in default.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Config:
    # Largest n for which 2^n enumeration (brute force, transforms) is allowed.
    max_n: int = 24

    @staticmethod
    def from_env() -> "Config":
        def geti(name: str, default: int) -> int:
            raw = os.environ.get(name)
            return default if raw is None else int(raw)

        return Config(max_n=geti("CUBESOS_MAX_N", Config.max_n))


def enumeration_cap(explicit: int | None = None) -> int:
    """The active cap on n for 2^n enumeration."""
    if explicit is not None:
        return explicit
    return Config.from_env().max_n


class CapExceededError(ValueError):
    """Raised when an operation would enumerate more points than the cap allows."""


def check_cap(n: int, cap: int | None = None) -> None:
    limit = enumeration_cap(cap)
    if n > limit:
        raise CapExceededError(f"n={n} exceeds the enumeration cap {limit}")
