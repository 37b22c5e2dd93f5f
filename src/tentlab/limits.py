"""Depth guards for the enumerative operations.

Every generator that grows like 2**n carries a default bound; the
``TENTLAB_MAX_DEPTH`` environment variable raises (or lowers) all of them at
once for callers who know what they are asking for.
"""

from __future__ import annotations

import os

ENV_VAR = "TENTLAB_MAX_DEPTH"


class DepthLimitError(ValueError):
    """A depth guard refused an exponentially sized request."""


def check_depth(n: int, default_bound: int, what: str) -> None:
    bound = default_bound
    override = os.environ.get(ENV_VAR)
    if override is not None:
        try:
            bound = int(override)
        except ValueError:
            raise ValueError(f"{ENV_VAR} must be an integer, got {override!r}") from None
    if n > bound:
        raise DepthLimitError(
            f"{what}: depth {n} exceeds bound {bound} (set {ENV_VAR} to override)"
        )
