"""Exact probability measures on history spaces and the classical causality checks.

Every check works in scaled-integer arithmetic: weights are stored as integer
numerators over one common denominator, and each conditional-independence
equation is tested in cross-multiplied product form, so no division (and no
rounding) happens anywhere on a check path.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, partial
from math import lcm, prod
from operator import itemgetter

from .events import (
    CapacityError,
    _region_meta,
    config_indices,
    dom,
    event_ref,
    full_specifications,
    history_digits,
    n_configs,
    n_histories,
    omega,
)
from .order import CausalSite, iter_bits, submasks
from .report import (
    HOLDS,
    VACUOUS,
    VIOLATED,
    CheckReport,
    Counterexample,
    format_rational,
)

# |Omega| bound up to which searches range over the whole power set of events.
EXHAUSTIVE_EVENT_LIMIT = 20
# |Omega| bound above which no exhaustive event search runs, whatever
# exhaustive limit the caller gives: it examines 2^|Omega| - 1 events.
EXHAUSTIVE_HISTORY_CAP = 24
# |Omega| bound up to which partition searches enumerate all set partitions.
SET_PARTITION_LIMIT = 8
# Bound on the mutual-past cells of wrc-cond, which conditions on every union of them.
_PAST_CELL_LIMIT = 12


class MeasureError(ValueError):
    """Raised when weights do not form a probability measure."""


class PreconditionError(ValueError):
    """Raised when a search's correlation precondition fails.

    The command-line front end renders this as a vacuous outcome rather
    than a failure: there was nothing to search for.
    """


class SelectorError(ValueError):
    """Raised when a conditioning-region selector produces an inadmissible region."""


class StochasticModel:
    """An exact probability measure on the histories of a causal site.

    ``weights[h]`` is the probability of history index ``h``; weights must be
    nonnegative rationals summing to exactly 1.
    """

    __slots__ = ("site", "weights", "_nums", "_den")

    def __init__(self, site: CausalSite, weights) -> None:
        n = n_histories(site)
        ws = tuple(Fraction(w) for w in weights)
        if len(ws) != n:
            raise MeasureError(
                f"measure error: dimension mismatch: got {len(ws)} weights "
                f"for a history space of size {n}"
            )
        for h, w in enumerate(ws):
            if w < 0:
                raise MeasureError(f"measure error: negative weight {w} at history {h}")
        total = sum(ws)
        if total != 1:
            raise MeasureError(f"measure error: normalization: weights sum to {total}, not 1")
        den = lcm(*(w.denominator for w in ws))
        self.site = site
        self.weights = ws
        self._den = den
        self._nums = tuple(int(w * den) for w in ws)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StochasticModel):
            return NotImplemented
        return self.site == other.site and self.weights == other.weights

    def __hash__(self) -> int:
        return hash((self.site, self.weights))

    def __repr__(self) -> str:
        return f"StochasticModel(site={self.site!r}, n_histories={len(self.weights)})"

    def _w(self, event: int) -> int:
        """Scaled weight of an event: mu(event) * common denominator."""
        nums = self._nums
        return sum(nums[h] for h in iter_bits(event))

    def mu(self, event: int) -> Fraction:
        """Measure of an event (bitmask over history indices)."""
        return Fraction(self._w(event), self._den)

    def conditional(self, event: int, given: int) -> Fraction:
        """mu(event | given); the conditioning event must have positive measure."""
        wg = self._w(given)
        if wg == 0:
            raise MeasureError("measure error: conditioning on an event of measure zero")
        return Fraction(self._w(event & given), wg)

    def support(self) -> int:
        """Bitmask of histories with positive weight."""
        mask = 0
        for h, w in enumerate(self._nums):
            if w:
                mask |= 1 << h
        return mask


def correlated(model: StochasticModel, a: int, b: int) -> bool:
    """True iff mu(a & b) differs from mu(a) * mu(b), exactly."""
    return model._w(a & b) * model._den != model._w(a) * model._w(b)


# --- cell tables -------------------------------------------------------------
#
# For pairwise-disjoint regions, every conditional-independence equation in
# this module reduces to integer identities between joint-configuration cell
# weights.  A check keeps one table per union U of the regions it scans, flat
# in U's own config order (mixed radix over U's members, lowest element index
# most significant, like history indices).  The cells of any partition of U
# into regions are read back through per-region offset lists, so every pair
# with the same union shares one pass over the histories.


def _union_offsets(site: CausalSite, region: int, union: int) -> list[int]:
    """For each configuration of `region`, its offset in the config order of `union`."""
    members, strides, _ = _region_meta(site, union)
    offsets = [0]
    for i, stride in zip(members, strides):
        if region >> i & 1:
            steps = range(0, site.alphabets[i] * stride, stride)
            offsets = [o + s for o in offsets for s in steps]
    return offsets


def _history_cells(site: CausalSite, regions: tuple[int, ...], offsets=None) -> tuple[int, list[int]]:
    """The union of disjoint regions, and each history's config index in it (from `offsets`, if given)."""
    union = 0
    for r in regions:
        union |= r
    offsets = offsets or [_union_offsets(site, r, union) for r in regions]
    flat = [0] * n_histories(site)
    for r, region_offsets in zip(regions, offsets):
        flat = [f + region_offsets[c] for f, c in zip(flat, config_indices(site, r))]
    return union, flat


def _cell_weights(model: StochasticModel, regions: tuple[int, ...]) -> list[int]:
    """Scaled weights of the configurations of the union of disjoint regions."""
    union, flat = _history_cells(model.site, regions)
    table = [0] * n_configs(model.site, union)
    for f, w in zip(flat, model._nums):
        if w:
            table[f] += w
    return table


def _union_table(model, regions: tuple[int, ...], tables: dict, build):
    """(union, table) for disjoint regions, built by `build` once per union into `tables`."""
    union = 0
    for r in regions:
        union |= r
    table = tables.get(union)
    if table is None:
        table = tables[union] = build(model, regions)
    return union, table


@lru_cache(maxsize=None)
def _atom_coords(sizes: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.product(*(range(s) for s in sizes)))


@dataclass(frozen=True)
class _Failure:
    """First cell where a conditional product rule breaks, in scaled integers.

    For wrc the past_index is the conditioning event, as a mask over cells.
    """

    past_index: int
    atom_indexes: tuple[int, ...]
    w_past: int
    w_joint: int
    w_margins: tuple[int, ...]


def _factorization_failure(
    model: StochasticModel, event_regions: tuple[int, ...], past: int, *, tables: dict
):
    """Scan atoms of the event regions against full specifications of `past`.

    Checks mu(atoms jointly | C) = product of mu(atom_i | C) for every
    conditioning cell C with positive weight, in cross-multiplied form
    W(joint) * W(C)^(k-1) == prod W(atom_i within C), one conditioning cell's
    block of atoms at a time, with the first region most significant.  The
    cell weights are read from the table of the regions' union, which is
    built into `tables` on first use and shared by every later scan of the
    same union.  Returns (failure-or-None, conditions_checked,
    null_conditions_skipped).
    """
    site = model.site
    union, table = _union_table(model, (past, *event_regions), tables, _cell_weights)
    offsets = [_union_offsets(site, r, union) for r in event_regions]
    block = [0]
    for region_offsets in offsets:
        block = [b + o for b in block for o in region_offsets]
    sizes = tuple(len(o) for o in offsets)
    exponent = len(event_regions) - 1
    checked = 0
    skipped = 0
    for p, base in enumerate(_union_offsets(site, past, union)):
        cells = [table[base + i] for i in block]
        # Sum out the regions last to first: each step reads one region's
        # margin off the last axis and leaves the joint of the ones before it.
        margins = []
        joint = cells
        for size in reversed(sizes[1:]):
            margins.append([sum(joint[c::size]) for c in range(size)])
            joint = [sum(joint[t : t + size]) for t in range(0, len(joint), size)]
        margins.append(joint)
        w_past = sum(joint)
        if w_past == 0:
            skipped += 1
            continue
        margins.reverse()
        *head_margins, margin_last = margins
        row_factors = [1]
        for margin in head_margins:
            row_factors = [f * w for f in row_factors for w in margin]
        scale = w_past**exponent
        lhs = [x * scale for x in cells]
        rhs = [f * y for f in row_factors for y in margin_last]
        if lhs != rhs:
            i = next(i for i, (x, y) in enumerate(zip(lhs, rhs)) if x != y)
            atom = _atom_coords(sizes)[i]
            checked += i + 1
            margin_ws = tuple(m[c] for m, c in zip(margins, atom))
            return _Failure(p, atom, w_past, cells[i], margin_ws), checked, skipped
        checked += len(cells)
    return None, checked, skipped


def _conditional_counterexample(
    model: StochasticModel,
    event_regions: tuple[int, ...],
    names: tuple[str, ...],
    past: int,
    fail: _Failure,
    note: str,
    given: tuple | None = None,
) -> Counterexample:
    """Report a failure given past cell C, or given the named event `given`."""
    site = model.site
    regions = tuple(
        (name, site.region_ids(r)) for name, r in zip(names, event_regions)
    ) + (("past", site.region_ids(past)),)
    events = []
    for name, r, atom in zip(names, event_regions, fail.atom_indexes):
        events.append((name, event_ref(site, full_specifications(site, r)[atom], r, atom)))
    if given is None:
        cond = full_specifications(site, past)[fail.past_index]
        given = ("C", event_ref(site, cond, past, fail.past_index))
    events.append(given)
    c = given[0]
    joint = Fraction(fail.w_joint, fail.w_past)
    margins = [Fraction(w, fail.w_past) for w in fail.w_margins]
    label = "&".join(names)
    values = [(f"mu({c})", format_rational(Fraction(fail.w_past, model._den)))]
    values.append((f"mu({label}|{c})", format_rational(joint)))
    for name, m in zip(names, margins):
        values.append((f"mu({name}|{c})", format_rational(m)))
    values.append(("product", format_rational(prod(margins, start=Fraction(1)))))
    return Counterexample(
        regions=regions, events=tuple(events), values=tuple(values), note=note
    )


@lru_cache(maxsize=None)
def _spacelike_pairs(site: CausalSite) -> tuple[tuple[int, int], ...]:
    """All ordered pairs of disjoint nonempty spacelike regions, ascending."""
    pairs = []
    full = site.full_mask
    for a in range(1, full + 1):
        for b in submasks(full & ~a):
            if b and site.spacelike(a, b):
                pairs.append((a, b))
    return tuple(pairs)


# --- one screening driver ----------------------------------------------------
#
# so1, so2, so2w, gen-so, multi-so, penrose-percival, qso1 and qso2 share one
# form: for every unit a check's plan picks out, the atoms of the unit's
# event regions must factorize given each cell of every conditioning region
# of the unit; wrc and wrc-cond scan the same units for correlated atom
# pairs.  A unit is (regions, steps); a step is (past, proxy), with proxy
# None for a step that is scanned itself, or (stand-ins, fallbacks, cells of
# past, atoms of the unit) for a step whose scan may be stood in for by the
# scan of a larger tuple of regions with the same past; of the fallbacks only
# the last is tried.


def _screen(
    model,
    condition: str,
    units,
    note: str,
    vacuous_reason: str = "no spacelike pairs of disjoint nonempty regions",
    *,
    names: tuple[str, ...] = ("A", "B"),
    unit_key: str = "region_pairs",
    step_key: str | None = None,
    fixed: dict | None = None,
    tables: dict | None = None,
    scan=None,
    counterexample=None,
    count_keys: tuple[str, ...] = ("atom_checks", "null_conditions_skipped"),
) -> CheckReport:
    """Scan the units in order and report the first failing step, if any.

    `units` is consumed lazily, so a plan's error surfaces at the unit that
    raises it.  Each stand-in is scanned at most once, when a step first
    needs it, and a step uses the first that held of its stand-ins and then
    its last fallback: the step is not scanned, and its stats follow from
    its past's cells: each positive one checks every atom of the unit, each
    null one is skipped.  A step whose stand-ins and last fallback all
    failed is scanned itself.  `fixed` stats lead the report's stats;
    `tables` may carry cell tables shared with another scan of the model.  `scan` (default `_factorization_failure`) returns
    (failure-or-None, checked, skipped), reported under `count_keys`, and
    `counterexample` (default `_conditional_counterexample`) reports a
    failure.
    """
    scan = scan or _factorization_failure
    counterexample = counterexample or _conditional_counterexample
    tables = {} if tables is None else tables
    scans: dict[tuple[int, ...], tuple] = {}
    n_units = n_steps = checked = skipped = 0
    fail = None
    for regions, steps in units:
        n_units += 1
        for past, proxy in steps:
            n_steps += 1
            if proxy is None:
                fail, c, s = scan(model, regions, past, tables=tables)
            else:
                stand_ins, others, past_cells, atoms = proxy
                for key in stand_ins:
                    result = scans.get(key) or scans.setdefault(key, scan(model, key, past, tables=tables))
                    if result[0] is None:
                        break
                else:
                    key = others[-1]
                    result = scans.get(key) or scans.setdefault(key, scan(model, key, past, tables=tables))
                fail, c, s = result
                if key != regions:
                    if fail is None:
                        c = (past_cells - s) * atoms
                    else:
                        fail, c, s = scan(model, regions, past, tables=tables)
            checked += c
            skipped += s
            if fail is not None:
                break
        if fail is not None:
            break
    stats = dict(fixed or {})
    stats[unit_key] = n_units
    if step_key is not None:
        stats[step_key] = n_steps
    stats.update(zip(count_keys, (checked, skipped)))
    if fail is not None:
        cx = counterexample(model, regions, names, past, fail, note)
        return CheckReport(condition, VIOLATED, counterexample=cx, stats=stats)
    if n_units == 0:
        return CheckReport(condition, VACUOUS, reason=vacuous_reason, stats=stats)
    return CheckReport(condition, HOLDS, stats=stats)


# --- pruned pair screening ---------------------------------------------------
#
# Conditional independence decomposes: if A ⊥ B | P holds, then A' ⊥ B' | P
# holds for every A' ⊆ A and B' ⊆ B, since each product-rule identity of the
# smaller pair is a sum of identities of the larger one over the same cells
# of P.  So a pair with a held dominator (a larger screened pair with the
# same P) holds without a scan.  Each pair has two: the A-first one grows A
# as far as it can, then B; the B-first one grows B first.  If the
# dependence given P lies in one block K of E_P (below), every pair that
# does not split K has a dominator that holds.  A whole group can be proved
# at once: if the elements of E_P, the union of every screened pair with
# conditioning region P, are mutually independent given each cell of P, then
# so is every disjoint A, B ⊆ E_P (the chain rule of the semi-graphoid), and
# one k-region scan is that group's certificate.  A pair tries its
# certificate, then its A-first and B-first dominators, and is scanned itself
# only when all failed; a failed stand-in proves nothing, so the first
# failing pair and its counterexample are those of the full ordinal scan.

# The pairwise conditioning rules: each one's P from past(A), past(B) and
# A|B, and whether pairs touching an initial element are left out.
_RULES = {
    "mutual": (lambda pa, pb, ab: pa & pb, False),  # so1
    "joint": (lambda pa, pb, ab: (pa | pb) & ~ab, False),  # so2
}
_RULES["joint-clear"] = (_RULES["joint"][0], True)  # so2w


def _first_extension(site, past_of, grow, p_grow, other, p_other, past, free) -> int:
    """Lowest bit of `free` that `grow` can take and keep its conditioning region.

    The grown region must stay spacelike to `other` (the bit lies outside
    other's past and nothing of other lies below it) and the pair must keep
    the conditioning region `past` under `past_of`; 0 if no bit qualifies.
    """
    below = site.below
    for e in iter_bits(free):
        bit = 1 << e
        if p_other & bit or below[e] & other:
            continue
        if past == past_of(p_grow | below[e], p_other, grow | other | bit):
            return bit
    return 0


@lru_cache(maxsize=None)
def _screening_plan(site: CausalSite, rule: str) -> tuple[tuple | None, ...]:
    """The steps of each pair of `_spacelike_pairs`, None if it is not screened.

    A pair's one step is (P, (stand-ins, fallbacks, |Φ(P)|, |Φ(A)|·|Φ(B)|)),
    with P its conditioning region under `rule`.  The last stand-in is the
    A-first dominator: the pair reached by taking the first one-element
    extension of A, then of B, that is again a screened pair with the same
    P, for as long as there is one; it is given unordered, as (smaller mask,
    larger mask), since the product rule is symmetric in A and B.  So the
    B-first dominator of (A, B) is the A-first one of (B, A): the fallbacks
    of (A, B) are the stand-ins of (B, A), and the two steps share both
    lists, swapped.  Extensions come later in pair order, so one backward
    pass finds every dominator; the fallbacks of (B, A), B > A, are filled
    in at (A, B), so that step's proxy is a list.  Where P's group (its screened pairs) has more than one maximal
    pair, the group's certificate stands first: the singletons of E_P, the
    union of the group's pairs.  With one maximal pair, that pair's scan
    already covers the group.
    """
    past_of, clear = _RULES[rule]
    excluded = site.initial_elements() if clear else 0
    # each pair's stand-ins: one list per maximal pair, shared by every pair
    # it dominates, so that a certificate found after the pass goes in front
    stand_ins: dict[tuple[int, int], list] = {}
    groups: dict[int, list] = {}  # P: [E_P, the stand-ins of its maximal pairs]
    plan = []
    pending: dict[tuple[int, int], list] = {}  # (a, b) with a > b: its proxy
    for pair in reversed(_spacelike_pairs(site)):
        a, b = pair
        if (a | b) & excluded:
            plan.append(None)
            continue
        pa, pb = site.past(a), site.past(b)
        past = past_of(pa, pb, a | b)
        free = site.full_mask & ~(a | b | excluded)
        group = groups.setdefault(past, [0, []])
        group[0] |= a | b
        if bit := _first_extension(site, past_of, a, pa, b, pb, past, free):
            keys = stand_ins[a | bit, b]
        elif bit := _first_extension(site, past_of, b, pb, a, pa, past, free):
            keys = stand_ins[a, b | bit]
        elif (keys := stand_ins.get((b, a))) is None:
            keys = [(a, b) if a < b else (b, a)]
            group[1].append(keys)
        stand_ins[pair] = keys
        if a > b:  # its fallbacks are the stand-ins of (b, a), met later
            atoms = n_configs(site, a) * n_configs(site, b)
            proxy = pending[pair] = [keys, None, n_configs(site, past), atoms]
        else:
            rkeys, _, cells, atoms = reverse = pending.pop((b, a))
            reverse[1] = keys
            proxy = (keys, rkeys, cells, atoms)
        plan.append(((past, proxy),))
    # `_screen` keys a scan by its regions alone, so a union shared by two
    # pasts is made the certificate of only one of them
    for union, maximal in dict(groups.values()).items():
        if len(maximal) > 1:
            certificate = tuple(1 << e for e in iter_bits(union))
            for keys in maximal:
                keys.insert(0, certificate)
    plan.reverse()
    return tuple(plan)


def _screening_units(site: CausalSite, rule: str, power: int = 1, pairs=None):
    """The units of a pairwise check under `rule`, from `_screening_plan`.

    The first screened pair comes first, as its own dominator, and the plan
    is built only after it, so a check that fails there builds no plan.
    With `power` 2 (the quantal checks, which check null pseudo-cells too) a
    step's counts are squared.  `pairs` defaults to `_spacelike_pairs(site)`;
    the quantal checks list theirs through quantal's own binding, whose patch
    perfbench's tracer test checks.
    """
    past_of, clear = _RULES[rule]
    excluded = site.initial_elements() if clear else 0
    pairs = _spacelike_pairs(site) if pairs is None else pairs
    first = next((i for i, (a, b) in enumerate(pairs) if not (a | b) & excluded), None)
    if first is None:
        return
    a, b = pair = pairs[first]
    keys = (pair,)
    yield pair, ((past_of(site.past(a), site.past(b), a | b), (keys, keys, 0, 0)),)
    rest = itertools.islice(zip(pairs, _screening_plan(site, rule)), first + 1, None)
    if power == 1:
        yield from filter(itemgetter(1), rest)
        return
    for pair, steps in rest:
        if steps is not None:
            ((past, (keys, rkeys, cells, atoms)),) = steps
            yield pair, ((past, (keys, rkeys, cells**power, atoms**power)),)


def _pairwise_screening(
    model: StochasticModel, condition: str, rule: str, tables: dict | None = None
) -> CheckReport:
    """Screen the units of `_screening_units` in order, each stand-in scanned once."""
    units = _screening_units(model.site, rule)
    note = "conditional product rule fails for this atom pair given C"
    if _RULES[rule][1]:
        reason = "no spacelike region pairs clear of the initial elements"
    else:
        reason = "no spacelike pairs of disjoint nonempty regions"
    return _screen(model, condition, units, note, reason, tables=tables)


def check_so1(model: StochasticModel) -> CheckReport:
    """Conditional independence of spacelike atoms given the mutual past.

    For every ordered pair of disjoint nonempty spacelike regions, every pair
    of full-specification atoms factorizes conditionally on each positive-
    measure full specification of the intersection of the regions' pasts.
    """
    return _pairwise_screening(model, "so1", "mutual")


def check_so2(model: StochasticModel) -> CheckReport:
    """As check_so1, but conditioning on the joint past of the pair."""
    return _pairwise_screening(model, "so2", "joint")


def check_so2w(model: StochasticModel) -> CheckReport:
    """As check_so2, restricted to region pairs clear of the initial elements."""
    return _pairwise_screening(model, "so2w", "joint-clear")


SELECTOR_NAMES = ("mutual", "joint", "bell", "all")


def _admissible_or_raise(site: CausalSite, past: int, ra: int, rb: int) -> None:
    if site.mutual_past(ra, rb) & ~past:
        problem = "does not contain the mutual past"
    elif past & (site.future(ra) | site.future(rb)):
        problem = "intersects the future of the pair"
    else:
        return
    raise SelectorError(
        f"selector error: region {site.region_ids(past)} for pair "
        f"({site.region_ids(ra)}, {site.region_ids(rb)}) {problem}"
    )


def _bell(site: CausalSite, ra: int, rb: int) -> int:
    """Bell's conditioning region: the past of the first region, minus the region."""
    return site.past(ra) & ~ra


def check_generalized_so(model: StochasticModel, selector="mutual") -> CheckReport:
    """Screening with a pluggable conditioning region per region pair.

    `selector` is one of the built-in names — "mutual", "joint", "bell"
    (the past of the first region minus the region itself), "all" (every
    region that contains the mutual past and avoids both futures) — or a
    callable (site, region_a, region_b) -> region.  Every selected region
    is validated against those two constraints as its pair streams; "mutual"
    and "joint" stream the pruned walks of so1 and so2.
    """
    site = model.site
    label = selector if isinstance(selector, str) else getattr(selector, "__name__", "custom")
    if isinstance(selector, str) and selector not in SELECTOR_NAMES:
        raise SelectorError(
            f"selector error: unknown selector {selector!r}; "
            f"expected one of {', '.join(SELECTOR_NAMES)}"
        )

    def units():
        if selector == "all":
            for ra, rb in _spacelike_pairs(site):
                p1 = site.mutual_past(ra, rb)
                free = site.full_mask & ~(site.future(ra) | site.future(rb)) & ~p1
                yield (ra, rb), [(p1 | extra, None) for extra in submasks(free)]
            return
        if isinstance(selector, str) and selector in _RULES:
            selected = _screening_units(site, selector)
        else:
            select = _bell if selector == "bell" else selector
            selected = (
                (pair, ((site.check_region(select(site, *pair)), None),))
                for pair in _spacelike_pairs(site)
            )
        for unit in selected:
            pair, ((past, _),) = unit
            _admissible_or_raise(site, past, *pair)
            yield unit

    note = f"conditional product rule fails for this atom pair given C (selector {label})"
    return _screen(
        model,
        f"gen-so[{label}]",
        units(),
        note,
        step_key="conditioning_regions",
        fixed={"selector": label},
    )


@lru_cache(maxsize=None)
def _spacelike_tuples(site: CausalSite, n: int) -> tuple[tuple[int, ...], ...]:
    """All ascending n-tuples of pairwise-disjoint pairwise-spacelike regions."""
    if n > site.n:  # n disjoint nonempty regions need n elements
        return ()
    full = site.full_mask
    out: list[tuple[int, ...]] = []

    def extend(start: int, chosen: tuple[int, ...], used: int) -> None:
        for r in range(start, full + 1):
            if r & used:
                continue
            if not all(site.spacelike(r, c) for c in chosen):
                continue
            grown = chosen + (r,)
            if len(grown) == n:
                out.append(grown)
            else:
                extend(r + 1, grown, used | r)

    extend(1, (), 0)
    return tuple(out)


def check_multi_so(model: StochasticModel, n: int) -> CheckReport:
    """Joint conditional factorization for n-tuples of spacelike regions.

    For every n-tuple of pairwise-spacelike disjoint regions and every tuple
    of atoms, the joint conditional measure must equal the product of the
    atom conditionals, given any positive-measure full specification of the
    tuple's joint past.  The factorization is checked directly, so no
    pairwise-correlation precondition is needed.
    """
    if n < 2:
        raise ValueError("check_multi_so requires n >= 2")
    site = model.site
    units = (
        (regions, ((site.multi_joint_past(list(regions)), None),))
        for regions in _spacelike_tuples(site, n)
    )
    return _screen(
        model,
        f"multi-so[n={n}]",
        units,
        "joint conditional factorization fails for this atom tuple given C",
        f"no {n}-tuples of pairwise-spacelike disjoint regions",
        names=tuple(f"A{i + 1}" for i in range(n)),
        unit_key="region_tuples",
        fixed={"n": n},
    )


# --- weak relativistic causality ---------------------------------------------


def _correlate_failure(
    model: StochasticModel,
    regions: tuple[int, int],
    past: int,
    *,
    tables: dict,
    conditioned: bool,
):
    """First correlated atom pair of the regions with no common correlate in `past`.

    A correlate is an event decidable in `past`: a union C of its cells.
    Given a conditioning event E (every positive-measure one when
    `conditioned`, else the whole space), C correlates with atom a exactly
    when the sum over the cells p of C∩E of
    f_a(p) = W(a&p)·W(E) − W(a&E)·W(p) is nonzero.  The sum is linear in C,
    so atoms a and b have a common correlate iff some cell of E has
    f_a ≠ 0 and some cell has f_b ≠ 0: {p} serves if one cell does both,
    else {p, q}.  Returns (failure-or-None, conditioning_events,
    correlated_atom_pairs); a failure's past_index is E, as a mask over the
    cells of `past`.
    """
    site = model.site
    ra, rb = regions
    n_past = n_configs(site, past)
    if conditioned and n_past > _PAST_CELL_LIMIT:
        raise CapacityError(
            f"capacity error: wrc-cond needs 2^{n_past} conditioning events "
            f"for the mutual past of ({site.region_ids(ra)}, "
            f"{site.region_ids(rb)}); the limit is 2^{_PAST_CELL_LIMIT} "
            f"({_PAST_CELL_LIMIT} mutual-past cells)"
        )
    union, table = _union_table(model, (past, ra, rb), tables, _cell_weights)
    off_a = _union_offsets(site, ra, union)
    off_b = _union_offsets(site, rb, union)
    na, nb = len(off_a), len(off_b)
    block = [oa + ob for oa in off_a for ob in off_b]
    # Each past cell's row: W(p), then W(a&p) per atom of A, W(b&p) per atom
    # of B, and W(a&b&p) per atom pair; an event's row is the sum over its cells.
    rows = []
    for base in _union_offsets(site, past, union):
        cells = [table[base + i] for i in block]
        wa = [sum(cells[t : t + nb]) for t in range(0, len(cells), nb)]
        wb = [sum(cells[c::nb]) for c in range(nb)]
        rows.append([sum(wa), *wa, *wb, *cells])
    full = (1 << n_past) - 1
    if conditioned:
        # every event extends the one without its lowest cell by that cell's row
        sums = [[0] * len(rows[0])]
        for cm in range(1, full + 1):
            low = cm & -cm
            sums.append([x + y for x, y in zip(sums[cm ^ low], rows[low.bit_length() - 1])])
        events = enumerate(sums)
    else:
        events = [(full, [sum(column) for column in zip(*rows)])]
    n_events = n_correlated = 0
    for cm, row in events:
        we = row[0]
        if we == 0:
            continue
        n_events += 1
        wae, wbe, wabe = row[1 : 1 + na], row[1 + na : 1 + na + nb], row[1 + na + nb :]
        lhs = [x * we for x in wabe]
        rhs = [x * y for x in wae for y in wbe]
        if lhs == rhs:
            continue
        # for each atom of A, then of B: does some cell of E have f ≠ 0?
        inside = [rows[p] for p in iter_bits(cm)]
        live = [any(r[k] * we != row[k] * r[0] for r in inside) for k in range(1, 1 + na + nb)]
        for i, (x, y) in enumerate(zip(lhs, rhs)):
            if x != y:
                n_correlated += 1
                a, b = divmod(i, nb)
                if not (live[a] and live[na + b]):
                    fail = _Failure(cm, (a, b), we, wabe[i], (wae[a], wbe[b]))
                    return fail, n_events, n_correlated
    return None, n_events, n_correlated


def _correlate_counterexample(model, regions, names, past, fail: _Failure, note: str):
    site = model.site
    cells = full_specifications(site, past)
    event = 0
    for p in iter_bits(fail.past_index):
        event |= cells[p]
    # the note counts every event decidable in the past, which the proof covers
    note = f"{note} ({(1 << len(cells)) - 1} candidate events searched)"
    given = ("E", event_ref(site, event))
    return _conditional_counterexample(model, regions, names, past, fail, note, given)


def check_wrc(model: StochasticModel, conditioned: bool = False) -> CheckReport:
    """Every correlated spacelike atom pair has a common correlate in the mutual past.

    With ``conditioned=True`` the same must hold for correlations measured
    relative to every positive-measure conditioning event decidable in the
    mutual past (the strengthening that survives Simpson-style reversals).
    """
    site = model.site
    units = ((pair, ((site.mutual_past(*pair), None),)) for pair in _spacelike_pairs(site))
    return _screen(
        model,
        "wrc-cond" if conditioned else "wrc",
        units,
        "correlated atom pair with no common correlate decidable in the mutual past",
        scan=partial(_correlate_failure, conditioned=conditioned),
        counterexample=_correlate_counterexample,
        count_keys=("conditioning_events", "correlated_atom_pairs"),
    )


# --- common-cause searches over explicit event pairs -------------------------


def _gray_event_sums(model: StochasticModel, parts: tuple[int, ...]):
    """Yield (mask, sums) for every nonempty event mask, one bit-flip at a time.

    ``sums[i]`` tracks the scaled weight of ``mask & parts[i]``.  The yielded
    list is reused between steps; callers must copy anything they keep.
    """
    n = n_histories(model.site)
    nums = model._nums
    touches = []
    for h in range(n):
        touches.append(tuple(i for i, p in enumerate(parts) if (p >> h) & 1))
    sums = [0] * len(parts)
    cur = 0
    for g in range(1, 1 << n):
        h = (g & -g).bit_length() - 1
        bit = 1 << h
        cur ^= bit
        w = nums[h]
        if w:
            if cur & bit:
                for i in touches[h]:
                    sums[i] += w
            else:
                for i in touches[h]:
                    sums[i] -= w
        yield cur, sums


@lru_cache(maxsize=None)
def _past_region_cells(site: CausalSite) -> tuple[int, ...]:
    """Full-specification cells of every past-closed region, deduplicated."""
    seen: dict[int, None] = {}
    for r in sorted(site.past_sets()):
        for cell in full_specifications(site, r):
            seen.setdefault(cell, None)
    return tuple(seen)


def _event_pair_vacuous(model: StochasticModel, condition: str, a: int, b: int, positive: bool):
    """Shared precondition screen for the explicit-pair checks; None if satisfied."""
    site = model.site
    da, db = dom(site, a), dom(site, b)
    if not site.spacelike(da, db):
        return CheckReport(
            condition,
            VACUOUS,
            reason="event domains are not spacelike",
            stats={"dom_a": site.region_ids(da), "dom_b": site.region_ids(db)},
        )
    wa, wb, wab = model._w(a), model._w(b), model._w(a & b)
    if (wab * model._den > wa * wb) if positive else (wab * model._den != wa * wb):
        return None
    return CheckReport(
        condition,
        VACUOUS,
        reason="events are not positively correlated" if positive else "events are not correlated",
        stats={
            "mu(A)": format_rational(Fraction(wa, model._den)),
            "mu(B)": format_rational(Fraction(wb, model._den)),
            "mu(A&B)": format_rational(Fraction(wab, model._den)),
        },
    )


def _no_witness_counterexample(model: StochasticModel, a: int, b: int, note: str) -> Counterexample:
    site = model.site
    L = model._den
    return Counterexample(
        regions=(
            ("A", site.region_ids(dom(site, a))),
            ("B", site.region_ids(dom(site, b))),
        ),
        events=(("A", event_ref(site, a)), ("B", event_ref(site, b))),
        values=(
            ("mu(A)", format_rational(Fraction(model._w(a), L))),
            ("mu(B)", format_rational(Fraction(model._w(b), L))),
            ("mu(A&B)", format_rational(Fraction(model._w(a & b), L))),
            (
                "product",
                format_rational(Fraction(model._w(a) * model._w(b), L * L)),
            ),
        ),
        note=note,
    )


def _candidate_events(model: StochasticModel, a: int, b: int, exhaustive_limit: int):
    """(mode, candidates) of the witness searches over single events C.

    Each candidate is (C, [W(C), W(A&C), W(B&C), W(A&B&C)]) in scaled
    weights: every nonempty event when the history space has at most
    `exhaustive_limit` points (refused above EXHAUSTIVE_HISTORY_CAP), else
    the full-specification cells of the past-closed regions.
    """
    site = model.site
    n = n_histories(site)
    if n > exhaustive_limit:
        w = model._w
        cells = _past_region_cells(site)
        return "past-region-cells", (
            (c, [w(c), w(a & c), w(b & c), w(a & b & c)]) for c in cells
        )
    if n > EXHAUSTIVE_HISTORY_CAP:
        raise CapacityError(
            f"capacity error: an exhaustive event search over {n} histories "
            f"examines 2^{n} - 1 events; the limit is {EXHAUSTIVE_HISTORY_CAP} histories"
        )
    return "exhaustive", _gray_event_sums(model, (omega(site), a, b, a & b))


def _screening_like_check(
    model: StochasticModel,
    condition: str,
    a: int,
    b: int,
    exhaustive_limit: int,
    want_inequalities: bool,
) -> CheckReport:
    """Shared engine for the single-event common-cause checks.

    A witness C must have measure strictly between 0 and 1 and screen the pair
    under both C and its complement; with ``want_inequalities`` it must also
    strictly raise the conditional measure of each event (the "cause" reading).
    """
    site = model.site
    vac = _event_pair_vacuous(model, condition, a, b, positive=want_inequalities)
    if vac is not None:
        return vac
    L = model._den
    wa, wb, wab = model._w(a), model._w(b), model._w(a & b)

    def satisfies(wc: int, wac: int, wbc: int, wabc: int) -> bool:
        if wc == 0 or wc == L:
            return False
        if wabc * wc != wac * wbc:
            return False
        wcc = L - wc
        wacc = wa - wac
        wbcc = wb - wbc
        if (wab - wabc) * wcc != wacc * wbcc:
            return False
        if want_inequalities:
            if wac * wcc <= wacc * wc:
                return False
            if wbc * wcc <= wbcc * wc:
                return False
        return True

    mode, candidates = _candidate_events(model, a, b, exhaustive_limit)
    examined = 0
    for mask, sums in candidates:
        examined += 1
        if satisfies(*sums):
            stats = {
                "mode": mode,
                "candidates_examined": examined,
                "witness": event_ref(site, mask).to_json(),
            }
            return CheckReport(condition, HOLDS, stats=stats)
    wanted = "screening and likelihood-raising conditions" if want_inequalities else "two-sided screening condition"
    cx = _no_witness_counterexample(
        model, a, b, f"no candidate event satisfies the {wanted} ({mode} search, {examined} examined)"
    )
    return CheckReport(
        condition,
        VIOLATED,
        counterexample=cx,
        stats={"mode": mode, "candidates_examined": examined},
    )


def check_pcc_original(
    model: StochasticModel, a: int, b: int, exhaustive_limit: int = EXHAUSTIVE_EVENT_LIMIT
) -> CheckReport:
    """The historical common-cause demand for positively correlated spacelike events.

    Seeks one event that screens the pair off on both sides of its complement
    and makes each event strictly more likely than its complement does.
    """
    return _screening_like_check(
        model, "pcc-original", a, b, exhaustive_limit, want_inequalities=True
    )


def check_pcc_rev1(
    model: StochasticModel, a: int, b: int, exhaustive_limit: int = EXHAUSTIVE_EVENT_LIMIT
) -> CheckReport:
    """First weakening: two-sided screening only, any correlation sign."""
    return _screening_like_check(
        model, "pcc-rev1", a, b, exhaustive_limit, want_inequalities=False
    )


def _iter_set_partitions(n: int, max_cells: int):
    """All set partitions of {0..n-1} with at most max_cells cells, as cell masks.

    Enumerated by restricted growth strings, lexicographically.
    """
    assign = [0] * n

    def rec(i: int, used: int):
        if i == n:
            cells = [0] * used
            for h, c in enumerate(assign):
                cells[c] |= 1 << h
            yield tuple(cells)
            return
        for c in range(min(used + 1, max_cells)):
            assign[i] = c
            yield from rec(i + 1, used + (1 if c == used else 0))

    if n:
        yield from rec(0, 0)


def check_pcc_rev2(
    model: StochasticModel, a: int, b: int, max_partition_size: int | None = None
) -> CheckReport:
    """Second weakening: some whole partition of the history space screens.

    Every positive-measure cell of the witness partition must screen the pair.
    Set partitions are enumerated outright for history spaces of at most
    8 points; larger spaces fall back to the partitions induced by regions
    (cells = full specifications), and the report names the mode used.
    """
    if max_partition_size is not None and max_partition_size < 1:
        raise ValueError(
            f"check error: max_partition_size must be at least 1, not {max_partition_size}"
        )
    condition = "pcc-rev2"
    site = model.site
    vac = _event_pair_vacuous(model, condition, a, b, positive=False)
    if vac is not None:
        return vac

    def screens(cells) -> bool:
        for cell in cells:
            wc = model._w(cell)
            if wc == 0:
                continue
            if model._w(a & b & cell) * wc != model._w(a & cell) * model._w(b & cell):
                return False
        return True

    def region_partitions():
        seen = set()
        for r in site.regions():
            cells = full_specifications(site, r)
            if max_partition_size is not None and len(cells) > max_partition_size:
                continue
            key = frozenset(cells)
            if key not in seen:
                seen.add(key)
                yield cells, r

    n = n_histories(site)
    if n <= SET_PARTITION_LIMIT:
        mode = "set-partitions"
        cap = max_partition_size if max_partition_size is not None else n
        partitions = ((cells, None) for cells in _iter_set_partitions(n, cap))
    else:
        mode = "region-partitions"
        partitions = region_partitions()
    examined = 0
    for cells, region in partitions:
        examined += 1
        if screens(cells):
            # a region's cells are named by their configurations; set partitions have no region
            witness = [event_ref(site, c, region, i).to_json() for i, c in enumerate(cells)]
            stats = {"mode": mode, "partitions_examined": examined, "witness_partition": witness}
            return CheckReport(condition, HOLDS, stats=stats)
    cx = _no_witness_counterexample(
        model,
        a,
        b,
        f"no partition screens the pair in every positive-measure cell "
        f"({mode} search, {examined} examined)",
    )
    return CheckReport(
        condition,
        VIOLATED,
        counterexample=cx,
        stats={"mode": mode, "partitions_examined": examined},
    )


def find_screening_events(
    model: StochasticModel, a: int, b: int, exhaustive_limit: int = EXHAUSTIVE_EVENT_LIMIT
) -> list[int]:
    """All events of measure strictly between 0 and 1 that screen the pair off.

    The pair must be correlated; the search is exhaustive over every event
    when the history space has at most `exhaustive_limit` points, otherwise
    it is restricted to full-specification cells of past-closed regions.
    """
    if not correlated(model, a, b):
        raise PreconditionError(
            "precondition error: the events are not correlated; "
            "screening events are sought for correlated pairs"
        )
    return _collect_conditioners(model, a, b, exhaustive_limit, simpson=False)


def find_simpson_events(
    model: StochasticModel, a: int, b: int, exhaustive_limit: int = EXHAUSTIVE_EVENT_LIMIT
) -> list[int]:
    """All events that break the independence of an uncorrelated pair."""
    if correlated(model, a, b):
        raise PreconditionError(
            "precondition error: the events are correlated; "
            "independence-breaking events are sought for uncorrelated pairs"
        )
    return _collect_conditioners(model, a, b, exhaustive_limit, simpson=True)


def _collect_conditioners(
    model: StochasticModel, a: int, b: int, exhaustive_limit: int, simpson: bool
) -> list[int]:
    L = model._den
    out = []
    for mask, (wc, wac, wbc, wabc) in _candidate_events(model, a, b, exhaustive_limit)[1]:
        if wc == 0 or wc == L:
            continue
        if (wabc * wc != wac * wbc) == simpson:
            out.append(mask)
    out.sort()
    return out


# --- conjecture probe: dissections of the joint past -------------------------


def check_penrose_percival(model: StochasticModel) -> CheckReport:
    """Screening over every dissection of the joint past of each spacelike pair.

    This condition is strictly stronger than conditioning on the mutual past
    and is probed, not asserted: the report carries the plain mutual-past
    verdict alongside, so the two can be compared.
    """
    site = model.site
    tables: dict = {}
    so1 = _pairwise_screening(model, "so1", "mutual", tables=tables)
    units = (
        ((ra, rb), ((pd, None) for pd, _sides in site.enumerate_dissections(ra, rb)))
        for ra, rb in _spacelike_pairs(site)
    )
    note = (
        "conjecture probe: conditioning on a full specification of a "
        "dissection of the joint past fails to screen this atom pair"
    )
    return _screen(
        model,
        "penrose-percival",
        units,
        note,
        step_key="dissections",
        fixed={"so1_verdict": so1.verdict},
        tables=tables,
    )


# --- deterministic Einstein-local dynamics -----------------------------------


def deterministic_local_model(model_site: CausalSite, initial_dists, rules) -> StochasticModel:
    """Measure of a deterministic dynamics driven by independent initial choices.

    `initial_dists` maps each initial element id to its value distribution;
    every other element's value is `rules[id](past_config)` where
    `past_config` maps the ids strictly below that element to their values.
    Histories breaking a rule get weight zero; the rest carry the product of
    their initial-value weights.
    """
    site = model_site
    init = site.initial_elements()
    dists = {}
    for e in iter_bits(init):
        sid = site.elements[e]
        d = [Fraction(x) for x in initial_dists[sid]]
        if len(d) != site.alphabets[e]:
            raise MeasureError(
                f"measure error: initial distribution for {sid!r} has {len(d)} "
                f"entries; alphabet size is {site.alphabets[e]}"
            )
        dists[e] = d
    weights = []
    for h in range(n_histories(site)):
        digs = history_digits(site, h)
        w = Fraction(1)
        for e in range(site.n):
            bit = 1 << e
            if init & bit:
                w *= dists[e][digs[e]]
            else:
                past_config = {
                    site.elements[x]: digs[x] for x in iter_bits(site.past(bit) & ~bit)
                }
                value = rules[site.elements[e]](past_config)
                if not 0 <= value < site.alphabets[e]:
                    raise MeasureError(
                        f"measure error: rule for {site.elements[e]!r} returned "
                        f"{value!r}, outside its alphabet"
                    )
                if value != digs[e]:
                    w = Fraction(0)
                    break
        weights.append(w)
    return StochasticModel(site, weights)


def deterministic_local_satisfies_so1(
    seed: int, count: int, n_sites: int = 4, max_alphabet: int = 2
) -> CheckReport:
    """Generate deterministic locally-driven models and check each against so1."""
    from .corpus import random_deterministic_local

    condition = "deterministic-local-so1"
    for i in range(count):
        model = random_deterministic_local(seed + i, n_sites=n_sites, max_alphabet=max_alphabet)
        report = check_so1(model)
        if report.violated:
            cx = replace(
                report.counterexample,
                note=report.counterexample.note + f" (model generated from seed {seed + i})",
            )
            return CheckReport(
                condition,
                VIOLATED,
                counterexample=cx,
                stats={"models": count, "failed_at": i, "seed": seed},
            )
    return CheckReport(condition, HOLDS, stats={"models": count, "seed": seed})
