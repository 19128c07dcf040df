"""Kernel selection: compiled extension when available, pure Python otherwise.

Set ``CLIQUE_SPLITTER_KERNEL=pure`` or ``=c`` to force a backend (the
benchmark and the parity tests use this). The compiled path allocates its
buffers on the heap for each call, sized by n, and is only used for graphs
of at most ``_C_MAX_N`` (512) vertices; larger inputs use the pure twin
without telling the caller. With ``stop_at > 0`` the two backends may
return different values of ``max_clique_size`` below ``stop_at``, but
they agree on every decision (whether the result reaches ``stop_at``)
and on every exact clique number (``stop_at = 0``).
"""

from __future__ import annotations

import os
from typing import Sequence

from . import _pykernels as _py

_C_MAX_N = 512

_forced = os.environ.get("CLIQUE_SPLITTER_KERNEL", "").strip().lower()
if _forced == "pure":
    _c = None
elif _forced == "c":
    from . import _ckernels as _c  # noqa: F401  (ImportError is intentional here)
else:
    try:
        from . import _ckernels as _c  # type: ignore[no-redef]
    except ImportError:
        _c = None


def backend() -> str:
    """Name of the active kernel backend: 'c' or 'pure'."""
    return "c" if _c is not None else "pure"


def max_clique_size(adj: Sequence[int], mask: int, stop_at: int = 0) -> int:
    if _c is not None and len(adj) <= _C_MAX_N:
        return _c.max_clique_size(list(adj), mask, stop_at)
    return _py.max_clique_size(adj, mask, stop_at)


def max_clique(adj: Sequence[int], mask: int,
               labels: Sequence[int] | None = None) -> tuple[int, ...]:
    # No compiled twin yet: the pure search runs under either backend.
    return _py.max_clique(adj, mask, labels)


def has_clique_of_size(adj: Sequence[int], mask: int, size: int) -> bool:
    if size <= 0:
        return True
    if mask.bit_count() < size:
        return False
    if size == 1:
        return True
    return max_clique_size(adj, mask, stop_at=size) >= size


def maximal_cliques(adj: Sequence[int], mask: int) -> list[int]:
    if _c is not None and len(adj) <= _C_MAX_N:
        return _c.maximal_cliques(list(adj), mask)
    return _py.maximal_cliques(adj, mask)


def to_mask(vertices) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def from_mask(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(out)
