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
from itertools import combinations
from math import prod
from typing import Iterator, Sequence

from .order import CausalSite, RegionError, iter_bits, submasks
from .report import HOLDS, VIOLATED, CheckReport, Counterexample, EventRef

# Largest history space a site may have; checked before any per-history
# table is built.
HISTORY_LIMIT = 1 << 16


class CapacityError(ValueError):
    """Raised when a search would exceed a fixed size limit of this checker."""


class _Space:
    """Per-site history bookkeeping, built once and memoized."""

    __slots__ = ("site", "n_hist", "omega", "strides", "digits", "cyclers")

    def __init__(self, site: CausalSite):
        self.site = site
        strides = [1] * site.n
        for i in range(site.n - 2, -1, -1):
            strides[i] = strides[i + 1] * site.alphabets[i + 1]
        self.strides = tuple(strides)
        n_hist = strides[0] * site.alphabets[0] if site.n else 1
        self.n_hist = n_hist
        self.omega = (1 << n_hist) - 1
        digits = []
        for h in range(n_hist):
            row = []
            rem = h
            for i in range(site.n):
                row.append(rem // strides[i])
                rem %= strides[i]
            digits.append(tuple(row))
        self.digits = tuple(digits)
        # cyclers[i][h] = index of h with element i's value bumped mod alphabet
        cyclers = []
        for i in range(site.n):
            k = site.alphabets[i]
            stride = strides[i]
            perm = []
            for h in range(n_hist):
                v = digits[h][i]
                perm.append(h - v * stride + ((v + 1) % k) * stride)
            cyclers.append(tuple(perm))
        self.cyclers = tuple(cyclers)


@lru_cache(maxsize=None)
def _space(site: CausalSite) -> _Space:
    count = prod(site.alphabets)
    if count > HISTORY_LIMIT:
        raise CapacityError(
            f"capacity error: the site has {count} histories (the product of its "
            f"alphabet sizes); the limit is {HISTORY_LIMIT}"
        )
    return _Space(site)


def n_histories(site: CausalSite) -> int:
    return _space(site).n_hist


def omega(site: CausalSite) -> int:
    """The sure event: every history."""
    return _space(site).omega


def history_digits(site: CausalSite, h: int) -> tuple[int, ...]:
    return _space(site).digits[h]


def history_index(site: CausalSite, values: Sequence[int]) -> int:
    sp = _space(site)
    if len(values) != site.n:
        raise ValueError(f"history needs {site.n} values, got {len(values)}")
    h = 0
    for i, v in enumerate(values):
        if not 0 <= v < site.alphabets[i]:
            raise ValueError(
                f"value {v} out of range for element {site.elements[i]!r}"
            )
        h += v * sp.strides[i]
    return h


def cylinder(site: CausalSite, element: int | str, value: int) -> int:
    """All histories whose given element carries the given value."""
    i = element if isinstance(element, int) else site.index(element)
    if not 0 <= value < site.alphabets[i]:
        raise ValueError(
            f"value {value} out of range for element {site.elements[i]!r}"
        )
    sp = _space(site)
    mask = 0
    for h in range(sp.n_hist):
        if sp.digits[h][i] == value:
            mask |= 1 << h
    return mask


def _apply_cycler(mask: int, perm: tuple[int, ...]) -> int:
    out = 0
    for h in iter_bits(mask):
        out |= 1 << perm[h]
    return out


def dom(site: CausalSite, event: int) -> int:
    """Least region the event is decidable on."""
    sp = _space(site)
    if event < 0 or event > sp.omega:
        raise ValueError(f"event mask {event:#x} outside the history space")
    if event == 0 or event == sp.omega:
        return 0
    region = 0
    for i in range(site.n):
        if site.alphabets[i] == 1:
            continue
        if _apply_cycler(event, sp.cyclers[i]) != event:
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


@lru_cache(maxsize=None)
def config_indices(site: CausalSite, region: int) -> tuple[int, ...]:
    """For each history, the index of its configuration on the region."""
    members, strides, _ = _region_meta(site, region)
    sp = _space(site)
    out = []
    for h in range(sp.n_hist):
        digs = sp.digits[h]
        ci = 0
        for j, i in enumerate(members):
            ci += digs[i] * strides[j]
        out.append(ci)
    return tuple(out)


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


def restriction(site: CausalSite, event: int, region: int) -> int:
    """Pullback of the event's projection onto the region.

    The least event containing the given one that is decidable inside the
    region: keep every history agreeing on the region with some member.
    """
    cells = full_specifications(site, region)
    cis = config_indices(site, region)
    seen: set[int] = set()
    for h in iter_bits(event):
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


# -- axiom verification ----------------------------------------------------


def _family_report(
    condition: str,
    site: CausalSite,
    prop: str,
    family: Sequence[int],
    detail: str,
    stats: dict,
) -> CheckReport:
    events = tuple(
        (f"X{k}", event_ref(site, e)) for k, e in enumerate(family)
    )
    return CheckReport(
        condition=condition,
        verdict=VIOLATED,
        counterexample=Counterexample(
            events=events,
            values=(("property", prop),),
            note=detail,
        ),
        stats=stats,
    )


def verify_dom_axioms(site: CausalSite, sample: Sequence[int], max_family: int = 3) -> CheckReport:
    """Check the domain calculus on families drawn from the sample.

    Disjoint-domain families must split the domain of a nonempty meet
    (and of a join short of the sure event); equal-domain families keep
    meets and joins inside the shared domain; complement preserves the
    domain; and an event is generated by any two-way split of its domain.
    """
    cond = "dom-axioms"
    om = omega(site)
    stats = {"events": len(sample), "families": 0, "splits": 0}
    doms = {e: dom(site, e) for e in set(sample)}

    for e in sample:
        d = doms[e]
        if dom(site, om ^ e) != d:
            return _family_report(cond, site, "complement", [e], "dom changed under complement", stats)
        # two-way splits of the domain generate the event from cells
        for x in submasks(d):
            stats["splits"] += 1
            y = d & ~x
            cells_x = full_specifications(site, x)
            cells_y = full_specifications(site, y)
            rebuilt = 0
            for cx in cells_x:
                for cy in cells_y:
                    cell = cx & cy
                    if cell and cell & e == cell:
                        rebuilt |= cell
            if rebuilt != e:
                return _family_report(
                    cond, site, "generated-by-split", [e],
                    f"split {x:#x}/{y:#x} fails to rebuild the event", stats,
                )

    pool = list(dict.fromkeys(sample))
    for size in range(2, max_family + 1):
        for family in combinations(pool, size):
            stats["families"] += 1
            ds = [doms[e] for e in family]
            meet = om
            join = 0
            for e in family:
                meet &= e
                join |= e
            if all(not (ds[i] & ds[j]) for i in range(size) for j in range(i + 1, size)):
                split = 0
                for d in ds:
                    split |= d
                if meet and dom(site, meet) != split:
                    return _family_report(
                        cond, site, "disjoint-domains-meet", family,
                        "dom of nonempty meet is not the disjoint union", stats,
                    )
                if join != om and dom(site, join) != split:
                    return _family_report(
                        cond, site, "disjoint-domains-join", family,
                        "dom of proper join is not the disjoint union", stats,
                    )
            if all(d == ds[0] for d in ds):
                if dom(site, meet) & ~ds[0]:
                    return _family_report(
                        cond, site, "equal-domains-meet", family,
                        "dom of meet escapes the shared domain", stats,
                    )
                if dom(site, join) & ~ds[0]:
                    return _family_report(
                        cond, site, "equal-domains-join", family,
                        "dom of join escapes the shared domain", stats,
                    )
    return CheckReport(condition=cond, verdict=HOLDS, stats=stats)


def verify_fullspec_lemmas(site: CausalSite) -> CheckReport:
    """Exhaustive structure checks for full specifications on a small site.

    Partition, intersection across disjoint regions, restriction down a
    nested region, and factorization over disjoint decompositions.
    """
    cond = "fullspec-lemmas"
    om = omega(site)
    stats = {"regions": 0, "pairs": 0, "factorizations": 0}

    spec_sets = {}
    for r in site.regions():
        cells = full_specifications(site, r)
        spec_sets[r] = frozenset(cells)
        stats["regions"] += 1
        total = 0
        for c in cells:
            if c == 0 or total & c:
                return _family_report(cond, site, "partition", [c], f"region {r:#x}", stats)
            total |= c
        if total != om:
            return _family_report(cond, site, "partition-cover", [total], f"region {r:#x}", stats)
        if len(cells) != n_configs(site, r):
            return _family_report(cond, site, "partition-count", [], f"region {r:#x}", stats)

    full = site.full_mask
    for a in range(full + 1):
        for b in submasks(full & ~a):
            stats["pairs"] += 1
            # meets of specifications of disjoint regions specify the union
            target = spec_sets[a | b]
            for fa in full_specifications(site, a):
                for fb in full_specifications(site, b):
                    if fa & fb not in target:
                        return _family_report(
                            cond, site, "disjoint-meet", [fa, fb],
                            f"regions {a:#x},{b:#x}", stats,
                        )
        for b in submasks(a):
            # restriction of a specification to a nested region specifies it
            for fa in full_specifications(site, a):
                if restriction(site, fa, b) not in spec_sets[b]:
                    return _family_report(
                        cond, site, "nested-restriction", [fa],
                        f"regions {a:#x} down to {b:#x}", stats,
                    )

    for r in range(full + 1):
        decomps = [[x, r & ~x] for x in submasks(r)]
        singletons = [1 << i for i in iter_bits(r)]
        if len(singletons) > 2:
            decomps.append(singletons)
        for parts in decomps:
            stats["factorizations"] += 1
            for f in full_specifications(site, r):
                factors = [restriction(site, f, p) for p in parts]
                meet = om
                for p, fac in zip(parts, factors):
                    if fac not in spec_sets[p]:
                        return _family_report(
                            cond, site, "factor-not-spec", [f, fac],
                            f"region {r:#x} part {p:#x}", stats,
                        )
                    meet &= fac
                if meet != f:
                    return _family_report(
                        cond, site, "factorization", [f],
                        f"region {r:#x} decomposition {parts}", stats,
                    )
    return CheckReport(condition=cond, verdict=HOLDS, stats=stats)
