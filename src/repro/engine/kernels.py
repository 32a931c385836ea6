"""The lane-kernel table: one record per per-group score kernel.

Every packed group is swept by exactly one lane kernel, named by the
:attr:`~repro.engine.pack.PackedGroup.lane_engine` it is stamped with
at pack time: ``gotoh`` (the row sweep of :mod:`repro.engine.lanes`),
``striped`` (the Farrar column sweep of :mod:`repro.engine.striped`) or
``strips`` (the long-tail strip sweep of :mod:`repro.engine.strips`).
Everything that differs between the kernels — the query-profile
flavour, the score function, how groups are packed, the memory one
sweep needs and how a checkpoint fingerprints a group — lives in the
kernel's :class:`LaneKernel` record, so the executor and
:class:`~repro.engine.BatchedEngine` look the record up instead of
branching on the name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.alphabet import GapPenalty
from repro.engine.budget import estimate_group_bytes, estimate_strip_group_bytes
from repro.engine.lanes import score_packed_group
from repro.engine.pack import (
    DEFAULT_STRIP_WIDTH,
    TAIL_EFFICIENCY_FLOOR,
    PackedGroup,
)
from repro.engine.striped import score_packed_group_striped
from repro.engine.strips import score_packed_group_strips
from repro.sequence.profile import QueryProfile
from repro.sequence.striped_profile import StripedProfile

__all__ = ["LANE_KERNELS", "LaneKernel"]


@dataclass(frozen=True)
class LaneKernel:
    """Everything the engine needs to know about one lane kernel.

    Attributes
    ----------
    name:
        The kernel's name, as stamped on the groups it sweeps.
    profile:
        Query-profile flavour the kernel sweeps with, built as
        ``profile(query_codes, matrix)``.
    score:
        ``score(profile, group, gaps)``: the group's ``int64`` lane
        scores, bit-identical to :func:`~repro.sw.scalar.sw_score_scalar`.
    plan_kind:
        Which stored ``.rdb`` geometry the kernel's groups reuse
        (:meth:`~repro.engine.dbstore.DatabaseStore.plan_for`).
    tail_floor:
        Gap-split efficiency floor the kernel's groups are packed with
        (:func:`~repro.engine.pack.plan_chunks`).  A row sweep costs
        one step per padded cell, so splitting a degenerate tail group
        pays; a column sweep costs one step per database column, which
        a split only multiplies.
    working_set:
        Estimated peak bytes of sweeping one group.
    token:
        The group's checkpoint fingerprint token.
    """

    name: str
    profile: type[QueryProfile] | type[StripedProfile]
    score: Callable[[Any, PackedGroup, GapPenalty], np.ndarray]
    plan_kind: str
    tail_floor: float
    working_set: Callable[[PackedGroup], int]
    token: Callable[[PackedGroup], str]


def _rectangle_bytes(group: PackedGroup) -> int:
    """Working set of a sweep over the packed ``size x max_len`` block."""
    return estimate_group_bytes(group.size, group.max_length)


def _strip_bytes(group: PackedGroup) -> int:
    """Working set of a sweep over the ``(strips, width)`` re-tiling."""
    return estimate_strip_group_bytes(group.sweep_cells)


def _strips_token(group: PackedGroup) -> str:
    """Strip groups fingerprint their width: a journal written at one
    width must not resume at another."""
    return f"strips:{group.strip_width or DEFAULT_STRIP_WIDTH}"


#: The lane kernels by name.
LANE_KERNELS: dict[str, LaneKernel] = {
    kernel.name: kernel
    for kernel in (
        LaneKernel(
            "gotoh", QueryProfile, score_packed_group,
            "row", TAIL_EFFICIENCY_FLOOR, _rectangle_bytes,
            lambda group: "gotoh",
        ),
        LaneKernel(
            "striped", StripedProfile, score_packed_group_striped,
            "column", 0.0, _rectangle_bytes,
            lambda group: "striped",
        ),
        LaneKernel(
            "strips", QueryProfile, score_packed_group_strips,
            "column", 0.0, _strip_bytes, _strips_token,
        ),
    )
}
