"""Runtime configuration: the enumeration cap, the one setting of the library.

``CUBESOS_MAX_N`` (default 24; the CLI's ``--max-n`` sets it) caps the
number of points an operation may enumerate at 2^CUBESOS_MAX_N. The code
that allocates an array over the whole cube calls ``check_cap`` first.

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
