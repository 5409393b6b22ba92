"""Definitions only the tests use: order relations and event operations.

The checks read cones through ``CausalSite.past`` and events through their
full specifications, so these textbook definitions (the order relation,
the mutual and joint pasts, restrictions, decidable events and the
definitional test of a full specification) live here, as functions of a
site, for the tests that pin the program against them.
"""
from __future__ import annotations

from typing import Iterator, Sequence

from screenoff.events import check_event, config_indices, dom, full_specifications
from screenoff.order import CausalSite, RegionError, iter_bits


# -- the causal order --------------------------------------------------------


def leq(site: CausalSite, lo: str | int, hi: str | int) -> bool:
    i = lo if isinstance(lo, int) else site.index(lo)
    j = hi if isinstance(hi, int) else site.index(hi)
    return bool(site.below[j] >> i & 1)


def mutual_past(site: CausalSite, a: int, b: int) -> int:
    return site.past(a) & site.past(b)


def joint_past(site: CausalSite, a: int, b: int) -> int:
    return site.past(a | b) & ~(a | b)


def multi_joint_past(site: CausalSite, regions: Sequence[int]) -> int:
    if not regions:
        raise RegionError("region error: multi_joint_past needs at least one region")
    union = 0
    for r in regions:
        union |= r
    return site.past(union) & ~union


# -- events ------------------------------------------------------------------


def restriction(site: CausalSite, event: int, region: int) -> int:
    """Pullback of the event's projection onto the region.

    The least event containing the given one that is decidable inside the
    region: keep every history agreeing on the region with some member.
    """
    cells = full_specifications(site, region)
    cis = config_indices(site, region)
    seen: set[int] = set()
    for h in iter_bits(check_event(site, event)):
        seen.add(cis[h])
    out = 0
    for ci in seen:
        out |= cells[ci]
    return out


def decidable_events(site: CausalSite, region: int) -> Iterator[int]:
    """Every event decidable inside the region (all unions of its cells).

    Exponential in the number of configurations; meant for small spaces.
    """
    cells = full_specifications(site, region)
    for pick in range(1 << len(cells)):
        acc = 0
        for j in iter_bits(pick):
            acc |= cells[j]
        yield acc


def is_full_specification(site: CausalSite, event: int, region: int) -> bool:
    """Definitional check: nonempty, decidable in region, decides every
    event that is decidable in the region."""
    if event == 0:
        return False
    if dom(site, event) & ~region:
        return False
    for x in decidable_events(site, region):
        if event & x != event and event & x != 0:
            return False
    return True
