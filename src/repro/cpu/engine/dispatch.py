"""The engine package's shared dispatch protocol types.

Every lowering pass — per-slot closures, traced megahandlers,
loop-resident traces — produces code speaking one handler protocol:

* ``None``      — sequential retirement (``next_pc = pc + 4``, not taken);
* an ``int``    — a taken control transfer to that address;
* ``HALT``      — the ``halt`` instruction retired (``next_pc = pc``).

This module owns the sentinel and the predecoded-program record the
tiers run over, so the per-tier modules can import them without
circular imports.
"""

from __future__ import annotations

from itertools import count as _count
from typing import Callable, NamedTuple

from repro.cpu.ir import IROp

#: Sentinel returned by the predecoded ``halt`` handler.
HALT = object()

#: Cheap per-process span identities, shared by fused regions and trace
#: outcomes: the traced loop keys its per-run execution counts by this
#: int (never by span content), so every batched artifact that retires
#: a member list draws from the same sequence.
SPAN_IDS = _count()

#: A predecoded handler: ``fn(pc) -> None | int | HALT``.
OpFn = Callable[[int], object]


class OpMeta(NamedTuple):
    """Cold per-slot metadata, touched when aggregating statistics and
    when slicing trace regions (never in the per-retirement hot path)."""

    category_key: str
    is_zolc_init: bool
    #: Whether the handler can return a control transfer (branches,
    #: jumps, ``dbne``, ``halt``) — such slots terminate trace regions.
    can_transfer: bool


class PredecodedProgram(NamedTuple):
    """Dense handler array plus parallel cold metadata and the IR.

    ``ops`` carries the per-slot tier's hot records; ``metas`` the
    cold stat/slicing fields; ``ir`` the shared :class:`IROp` array the
    text-emitting tiers lower from (identical slot geometry).
    """

    #: hot per-slot records: (fn, base_cycles, uses, load_dest, taken_penalty)
    ops: list[tuple[OpFn, int, frozenset[int], int | None, int]]
    metas: list[OpMeta]
    ir: tuple[IROp, ...] = ()
