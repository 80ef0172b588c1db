"""Runtime configuration: the enumeration cap, the one setting of the library.

``CUBESOS_MAX_N`` (default 24; the CLI's ``--max-n`` sets it) caps the
number of points an operation may enumerate at 2^CUBESOS_MAX_N. The code
that allocates an array over the whole cube calls ``check_cap`` first.
Beside it, ``check_order`` is the one check of a hierarchy order r against
the dimension n and the input degree d.

The library's failure types live here too, one per kind of failure, so
that raising or catching one loads no solver module: bad input raises
``ValueError`` (``CapExceededError`` among them), a numerical solve that
does not produce a finite, converged answer raises ``SolverError``, and a
certificate that does not exist at the requested order raises
``CertificationError``. The CLI maps each kind to its exit code.
"""

from __future__ import annotations

import os


class CapExceededError(ValueError):
    """Raised when an operation would enumerate more points than the cap allows."""


class SolverError(RuntimeError):
    """Raised when a numerical solve (the outer interior-point method, an
    eigen-solve or an LP) fails to produce a finite, converged answer."""


class CertificationError(RuntimeError):
    """Raised when no kernel certificate exists at the requested order."""


def check_cap(n: int) -> None:
    """Refuse to enumerate 2^n points when n exceeds CUBESOS_MAX_N."""
    limit = int(os.environ.get("CUBESOS_MAX_N", 24))
    if n > limit:
        raise CapExceededError(
            f"2^{n} points exceed the enumeration cap 2^{limit} (CUBESOS_MAX_N={limit})")


def check_order(n: int, r: int, d: int = 0) -> None:
    """Refuse an order r outside 0..n, or one whose degree-2r squares
    cannot reach an input of degree d (2r < d); d must lie in 0..n."""
    if not 0 <= d <= n:
        raise ValueError(f"degree d={d} out of range 0..{n}")
    if not 0 <= r <= n:
        raise ValueError(f"r={r} out of range 0..{n}")
    if 2 * r < d:
        raise ValueError(f"r={r} too small for degree {d}")
