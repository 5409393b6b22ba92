"""History spaces and events over a causal site.

A history assigns one local value to every element.  Histories are indexed
0..N-1 in mixed radix over the element declaration order, first element
most significant, so the index reads like a numeral whose digits are the
local values.  Events are int bitmasks over history indices.

The least region an event is decidable on (its domain) is computed by
coordinate relevance: an element belongs to the domain iff changing its
value alone can move a history in or out of the event.
"""
from __future__ import annotations

from functools import lru_cache
from math import prod
from typing import Sequence

from .order import CausalSite, RegionError, iter_bits
from .report import EventRef

# Largest history space a site may have; checked before any per-history
# table is built.
HISTORY_LIMIT = 1 << 16


class CapacityError(ValueError):
    """Raised when a search would exceed a fixed size limit of this checker."""


def n_histories(site: CausalSite) -> int:
    count = prod(site.alphabets)
    if count > HISTORY_LIMIT:
        raise CapacityError(
            f"capacity error: the site has {count} histories (the product of its "
            f"alphabet sizes); the limit is {HISTORY_LIMIT}"
        )
    return count


def omega(site: CausalSite) -> int:
    """The sure event: every history."""
    return (1 << n_histories(site)) - 1


def check_event(site: CausalSite, event: int) -> int:
    """The event itself, if it is a mask over the site's histories."""
    if event < 0 or event >> n_histories(site):
        raise ValueError(f"event mask {event:#x} outside the history space")
    return event


def history_digits(site: CausalSite, h: int) -> tuple[int, ...]:
    n = n_histories(site)
    if not 0 <= h < n:
        raise ValueError(f"history {h} out of range 0..{n - 1}")
    _, strides, _ = _region_meta(site, site.full_mask)
    return tuple(h // stride % k for stride, k in zip(strides, site.alphabets))


def history_index(site: CausalSite, values: Sequence[int]) -> int:
    n_histories(site)  # refuses a site over the limit
    if len(values) != site.n:
        raise ValueError(f"history needs {site.n} values, got {len(values)}")
    _, strides, _ = _region_meta(site, site.full_mask)
    h = 0
    for i, v in enumerate(values):
        if not 0 <= v < site.alphabets[i]:
            raise ValueError(
                f"value {v} out of range for element {site.elements[i]!r}"
            )
        h += v * strides[i]
    return h


def cylinder(site: CausalSite, element: int | str, value: int) -> int:
    """All histories whose given element carries the given value."""
    i = element if isinstance(element, int) else site.index(element)
    if not 0 <= i < site.n:
        raise RegionError(f"region error: element {i} outside 0..{site.n - 1}")
    if not 0 <= value < site.alphabets[i]:
        raise ValueError(
            f"value {value} out of range for element {site.elements[i]!r}"
        )
    return full_specifications(site, 1 << i)[value]


def dom(site: CausalSite, event: int) -> int:
    """Least region the event is decidable on.

    Element i is in it iff some value slice of the event, moved one value
    up (by i's place value), differs from the next slice.
    """
    if check_event(site, event) in (0, omega(site)):
        return 0
    _, strides, _ = _region_meta(site, site.full_mask)
    region = 0
    for i, stride in enumerate(strides):
        cells = full_specifications(site, 1 << i)
        if any((event & lo) << stride != event & hi for lo, hi in zip(cells, cells[1:])):
            region |= 1 << i
    return region


@lru_cache(maxsize=None)
def _region_meta(site: CausalSite, region: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(member indices, per-member strides, number of configurations)."""
    site.check_region(region)
    members = tuple(iter_bits(region))
    strides = [1] * len(members)
    for j in range(len(members) - 2, -1, -1):
        strides[j] = strides[j + 1] * site.alphabets[members[j + 1]]
    count = strides[0] * site.alphabets[members[0]] if members else 1
    return members, tuple(strides), count


def n_configs(site: CausalSite, region: int) -> int:
    return _region_meta(site, region)[2]


def _block(offset_lists) -> list[int]:
    """Every sum of one offset per list, the first list most significant."""
    block = [0]
    for offsets in offset_lists:
        block = [b + o for b in block for o in offsets]
    return block


@lru_cache(maxsize=None)
def config_indices(site: CausalSite, region: int) -> tuple[int, ...]:
    """For each history, the index of its configuration on the region."""
    members, strides, _ = _region_meta(site, region)
    n_histories(site)  # refuses a site over the limit
    place = dict(zip(members, strides))
    return tuple(_block(
        range(0, k * place[i], place[i]) if i in place else (0,) * k
        for i, k in enumerate(site.alphabets)
    ))


@lru_cache(maxsize=None)
def full_specifications(site: CausalSite, region: int) -> tuple[int, ...]:
    """The events fixing one configuration on the region, in config order.

    They partition the history space; for the empty region the single
    specification is the sure event.
    """
    _, _, count = _region_meta(site, region)
    cis = config_indices(site, region)
    cells = [0] * count
    for h, ci in enumerate(cis):
        cells[ci] |= 1 << h
    return tuple(cells)


def atom_expr(site: CausalSite, region: int, config: int) -> str | None:
    """Grammar expression fixing the region's config; None for the empty region."""
    members, strides, count = _region_meta(site, region)
    if not members:
        return None
    if not 0 <= config < count:
        raise ValueError(f"config {config} out of range for region")
    parts = []
    rem = config
    for j, i in enumerate(members):
        v = rem // strides[j]
        rem %= strides[j]
        parts.append(f"{site.elements[i]}={v}")
    return " & ".join(parts)


def event_ref(site: CausalSite, event: int, region: int | None = None, config: int | None = None) -> EventRef:
    expr = None
    if region is not None and config is not None:
        expr = atom_expr(site, region, config)
    return EventRef(mask=event, omega=n_histories(site), expr=expr)

