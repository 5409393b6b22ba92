"""Exact probability measures on history spaces and the classical causality checks.

Every check works in scaled-integer arithmetic: weights are stored as integer
numerators over one common denominator, and each conditional-independence
equation is tested in cross-multiplied product form, so no division (and no
rounding) happens anywhere on a check path.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, gcd, lcm, prod

from .events import (
    CapacityError,
    _block,
    _region_meta,
    check_event,
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
    nonnegative rationals summing to exactly 1.  The model holds them as
    integer numerators ``_nums`` over one reduced denominator ``_den``
    (``gcd(_den, *_nums) == 1``); ``weights`` is a view built on first use.
    """

    __slots__ = ("site", "_den", "_nums", "_weight_view")

    def __init__(self, site: CausalSite, weights) -> None:
        ws = [Fraction(w) for w in weights]
        den = lcm(*(w.denominator for w in ws))
        self._setup(site, den, [w.numerator * (den // w.denominator) for w in ws])

    @classmethod
    def _from_scaled(cls, site: CausalSite, den: int, nums) -> "StochasticModel":
        """A model from integer numerators over a positive `den`."""
        return cls.__new__(cls)._setup(site, den, nums)

    def _setup(self, site: CausalSite, den: int, nums) -> "StochasticModel":
        n = n_histories(site)
        if len(nums) != n:
            raise MeasureError(
                f"measure error: dimension mismatch: got {len(nums)} weights "
                f"for a history space of size {n}"
            )
        for h, w in enumerate(nums):
            if w < 0:
                raise MeasureError(f"measure error: negative weight {Fraction(w, den)} at history {h}")
        if sum(nums) != den:
            raise MeasureError(f"measure error: normalization: weights sum to {Fraction(sum(nums), den)}, not 1")
        g = gcd(*nums)  # divides their sum, den: dividing it out makes (_den, _nums) canonical
        self.site, self._den, self._nums = site, den // g, tuple(w // g for w in nums)
        self._weight_view = None
        return self

    @property
    def weights(self) -> tuple[Fraction, ...]:
        if self._weight_view is None:
            self._weight_view = tuple(Fraction(w, self._den) for w in self._nums)
        return self._weight_view

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StochasticModel):
            return NotImplemented
        return self.site == other.site and self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        return hash((self.site, self._den, self._nums))

    def __repr__(self) -> str:
        return f"StochasticModel(site={self.site!r}, n_histories={len(self._nums)})"

    def _w(self, event: int) -> int:
        """Scaled weight of an event: mu(event) * common denominator."""
        nums = self._nums
        return sum(nums[h] for h in iter_bits(event))

    def mu(self, event: int) -> Fraction:
        """Measure of an event (bitmask over history indices)."""
        return Fraction(self._w(check_event(self.site, event)), self._den)

    def conditional(self, event: int, given: int) -> Fraction:
        """mu(event | given); the conditioning event must have positive measure."""
        check_event(self.site, event)
        wg = self._w(check_event(self.site, given))
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
    wa, wb = model._w(check_event(model.site, a)), model._w(check_event(model.site, b))
    return model._w(a & b) * model._den != wa * wb


# --- cell tables -------------------------------------------------------------
#
# For pairwise-disjoint regions, every conditional-independence equation in
# this module reduces to integer identities between joint-configuration cell
# weights.  A check keeps one table per union U of the regions it scans,
# indexed by `config_indices(site, U)`: flat in U's own config order (mixed
# radix over U's members, lowest element index most significant, like
# history indices).  The cells of any partition of U into regions are read
# back through per-region offset lists, so every pair with the same union
# shares one pass over the histories.


def _margins(cells: list[int], sizes: tuple[int, ...]) -> list[list[int]]:
    """Each region's margin of a block over regions of these sizes, the first most significant."""
    # Sum out the regions last to first: each step reads one region's margin
    # off the last axis and leaves the joint of the ones before it.
    margins = []
    joint = cells
    for size in reversed(sizes[1:]):
        margins.append([sum(joint[c::size]) for c in range(size)])
        joint = [sum(joint[t : t + size]) for t in range(0, len(joint), size)]
    margins.append(joint)
    margins.reverse()
    return margins


def _union_offsets(site: CausalSite, region: int, union: int) -> list[int]:
    """For each configuration of `region`, its offset in the config order of `union`."""
    members, strides, _ = _region_meta(site, union)
    return _block(
        range(0, site.alphabets[i] * stride, stride)
        for i, stride in zip(members, strides)
        if region >> i & 1
    )


def _cell_weights(model: StochasticModel, regions: tuple[int, ...]) -> list[int]:
    """Scaled weights of the configurations of the union of disjoint regions."""
    union = sum(regions)  # the regions are disjoint
    table = [0] * n_configs(model.site, union)
    for f, w in zip(config_indices(model.site, union), model._nums):
        if w:
            table[f] += w
    return table


def _union_table(model, regions: tuple[int, ...], tables: dict, build):
    """(union, table) for disjoint regions, built by `build` once per union into `tables`."""
    union = sum(regions)
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
    block = _block(offsets)
    sizes = tuple(map(len, offsets))
    exponent = len(event_regions) - 1
    checked = 0
    skipped = 0
    for p, base in enumerate(_union_offsets(site, past, union)):
        cells = [table[base + i] for i in block]
        margins = _margins(cells, sizes)
        w_past = sum(margins[0])
        if w_past == 0:
            skipped += 1
            continue
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
def _cones(site: CausalSite) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The past and the future of every region, each indexed by its mask."""
    return tuple(map(site.past, site.regions())), tuple(map(site.future, site.regions()))


def _spacelike_tuples(site: CausalSite, n: int, ascending: bool = True):
    """Every n-tuple of pairwise-disjoint pairwise-spacelike regions, lazily, in ascending order.

    B is disjoint from and spacelike to A iff B lies in A's free set S_A,
    outside past(A) and future(A): each next region is a nonempty submask
    of the chosen regions' free sets, with `ascending` above the last one.
    """
    if n > site.n:  # n disjoint nonempty regions need n elements
        return
    past, future = _cones(site)

    def extend(chosen: tuple[int, ...], free: int, low: int):
        for r in submasks(free):
            if r > low:
                grown = chosen + (r,)
                if len(grown) == n:
                    yield grown
                else:
                    yield from extend(grown, free & ~(past[r] | future[r]), r if ascending else 0)

    yield from extend((), site.full_mask, 0)


@lru_cache(maxsize=None)
def _spacelike_pairs(site: CausalSite) -> tuple[tuple[int, int], ...]:
    """All ordered pairs of disjoint nonempty spacelike regions, ascending."""
    return tuple(_spacelike_tuples(site, 2, ascending=False))


# --- one screening driver ----------------------------------------------------
#
# so1, so2, so2w, gen-so, multi-so, penrose-percival, qso1 and qso2 share one
# form: for every unit a check's plan picks out, the atoms of the unit's
# event regions must factorize given each cell of every conditioning region
# of the unit; wrc and wrc-cond scan the same units for correlated atom
# pairs.  A check is a flat stream of steps, one per (unit, past), a unit's
# steps consecutive and sharing its regions.  A step is (regions, past,
# stand-ins, fallback, cells of past, atoms of the unit), with stand-ins
# None for a step that is scanned itself; otherwise its scan may be stood in
# for by the scan of a larger tuple of regions with the same past, each
# stand-in and the fallback keyed (past, regions).  After its first unit, a
# planned check's stream has one record with regions None: the plan's group
# proofs, which decide the check when they all hold (`_proved`).


def _screen(
    model,
    condition: str,
    steps,
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
    """Scan the steps in order and report the first failing one, if any.

    `steps` is consumed lazily, so a plan's error surfaces at the step that
    raises it; a step whose regions differ from the previous step's starts
    a unit.  Each stand-in is scanned at most once, when a step first
    needs it, and a step uses the first that held of its stand-ins and then
    its fallback: the step is not scanned, and its stats follow from its
    past's cells: each positive one checks every atom of the unit, each
    null one is skipped.  A step whose stand-ins and fallback all failed is
    scanned itself.  A stand-in's key carries its past, so a unit with
    several pasts never reuses a scan made under another one.  If every
    proof of the plan's proof record holds, through the same scans, the
    check holds and no later step is drawn; else the walk goes on, and with
    the default scan a step of a failed group marked for a search tries its
    blocks (`_split`) first: while they hold, the step holds when its
    restrictions to them hold, else it is scanned.  `fixed` stats lead the
    report's stats; `tables` may carry cell tables shared with another scan
    of the model.  `scan` (default `_factorization_failure`) returns
    (failure-or-None, checked, skipped), reported under `count_keys`, and
    `counterexample` (default `_conditional_counterexample`) reports a failure.
    """
    classical = scan is None
    scan = scan or _factorization_failure
    counterexample = counterexample or _conditional_counterexample
    tables = {} if tables is None else tables
    scans: dict[tuple[int, tuple[int, ...]], tuple] = {}

    def get(key):
        return scans.get(key) or scans.setdefault(key, scan(model, key[1], key[0], tables=tables))

    splits = None  # P: its blocks once its proof failed (`_split`), None where dominators decide
    n_units = n_steps = checked = skipped = 0
    fail = unit = None
    for regions, past, stand_ins, fallback, past_cells, atoms in steps:
        if regions is None:  # the first unit held: `stand_ins` proves the plan's other steps
            if (rest := _proved(stand_ins, get)) is None:
                splits = {key[0]: None for key, *_, search in stand_ins[2] if not search} if classical else None
                continue
            units, more_steps, c, s = rest
            n_units, n_steps, checked, skipped = n_units + units, n_steps + more_steps, checked + c, skipped + s
            break
        n_steps += 1
        if regions != unit:
            n_units += 1
            unit = regions
        if stand_ins is None:
            fail, c, s = scan(model, regions, past, tables=tables)
        else:
            if not (split := splits and splits.get(past)):
                for key in stand_ins:
                    result = scans.get(key) or scans.setdefault(key, scan(model, key[1], past, tables=tables))
                    if result[0] is None:
                        break
                    if splits is not None and past not in splits:  # the group's proof failed
                        if split := splits.setdefault(past, _split(model, tables, get, past, sum(key[1]))):
                            break
                else:
                    result = get(key := fallback)
            if split:
                key, blocks = split  # the blocks' certificate, unless a restriction fails
                for k in blocks:
                    part = [r & k for r in regions if r & k]
                    if len(part) > 1 and get((past, tuple(sorted(part))))[0] is not None:
                        key = (past, regions)
                        break
                result = get(key)
            fail, c, s = result
            if key[1] != regions:
                if fail is None:
                    c = (past_cells - s) * atoms
                else:
                    fail, c, s = get((past, regions))
        checked += c
        skipped += s
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


def _proved(proofs, get):
    """(units, steps, checked, skipped) after the first unit if every group proof holds, else None.

    `proofs` is `_plan`'s (units, steps, groups), scanned through the walk's
    cached `get`.  A held proof stands in for each step of its group, as in
    the walk: with nulls the null cells of P its scan skipped, a group checks
    (|Φ(P)| − nulls)·Σ atoms and skips nulls per step.  The scans stop at the
    first failing proof; the walk scans every proof tried by then first.
    """
    n_units, n_steps, groups = proofs
    checked = skipped = 0
    for key, cells, atoms, n, _ in groups:
        fail, _, nulls = get(key)
        if fail is not None:
            return None
        checked += (cells - nulls) * atoms
        skipped += nulls * n
    return n_units, n_steps, checked, skipped


def _split(model, tables: dict, get, past: int, union: int):
    """(block certificate, non-singleton blocks) of the elements of `union` given `past`, or None.

    The blocks are the components of `_dependent_pairs`, in ascending
    order.  With at least two blocks, one of them not a singleton, one scan
    of the blocks as the regions of a tuple is their certificate, which must
    hold: pairwise independence is not joint independence.  So the search
    costs one pass over the table the failed certificate built plus one
    scan, not up to C(m, 2) + 1 scans (m = |E_P|) of each pair on its own:
    `so_late_violation`'s so1 and so2 make 4 scans and 3 tables, not 23 and 22.
    """
    singles = [1 << e for e in iter_bits(union)]
    block = {x: x for x in singles}
    for x, y in _dependent_pairs(model, past, union, tables):
        merged = block[x] | block[y]
        block.update((1 << e, merged) for e in iter_bits(merged))
    blocks = tuple(sorted(set(block.values())))
    if not 1 < len(blocks) < len(singles) or get(certificate := (past, blocks))[0] is not None:
        return None
    return certificate, tuple(k for k in blocks if k & (k - 1))


def _dependent_pairs(model, past: int, union: int, tables: dict) -> list[tuple[int, int]]:
    """Every element pair ({i}, {j}) of `union` that fails given `past`, in ascending order.

    One pass over the table of P ∪ E_P in `tables`: for each positive cell C
    of P (null ones are skipped), i and j are dependent when W(i=a, j=b)·W(C)
    ≠ W(i=a)·W(j=b) for some values.  The (a_i − 1)(a_j − 1) leading value
    pairs are enough: an identity at a last value is the margin's identity
    minus those at the other values.
    """
    site = model.site
    full, table = _union_table(model, (past, union), tables, _cell_weights)
    block = _union_offsets(site, union, full)
    members, _, _ = _region_meta(site, union)
    sizes = tuple(site.alphabets[e] for e in members)
    rows = []
    for base in _union_offsets(site, past, full):
        cells = [table[base + i] for i in block]
        margins = _margins(cells, sizes)
        if w_past := sum(margins[0]):
            rows.append((w_past, cells, margins))
    return [
        (1 << members[p], 1 << members[q])
        for p, q, value_pairs in _pair_cells(site, union)
        if any(
            sum(map(cells.__getitem__, positions)) * w_past != margins[p][a] * margins[q][b]
            for w_past, cells, margins in rows
            for a, b, positions in value_pairs
        )
    ]


@lru_cache(maxsize=None)
def _pair_cells(site: CausalSite, union: int) -> tuple:
    """(p, q, ((a, b, positions), ...)) per member pair p < q of `union`, a and b not the last values.

    The positions are the configurations of `union`, in its config order, with p = a and q = b.
    """
    members, strides, count = _region_meta(site, union)
    digits = [[x // s % site.alphabets[e] for x in range(count)] for e, s in zip(members, strides)]
    return tuple(
        (p, q, tuple((a, b, tuple(x for x in range(count) if digits[p][x] == a and digits[q][x] == b))
                     for a in range(site.alphabets[members[p]] - 1) for b in range(site.alphabets[members[q]] - 1)))
        for p, q in itertools.combinations(range(len(members)), 2)
    )


# --- certificate-first planning ----------------------------------------------
#
# Conditional independence decomposes: if X1, ..., Xk factorize given P, so
# does every tuple of disjoint X'i ⊆ Xi, since each product-rule identity of
# the smaller tuple is a sum of identities of the larger one over the same
# cells of P.  So a step (regions, P) with a held dominator (a step of the
# same check with the same P whose regions contain its own) holds without a
# scan.  A whole group, every step with one P, can be proved at once: if the
# elements of E_P, the union of the group's regions, are mutually
# independent given each cell of P, then so is every tuple of disjoint
# regions inside E_P (decomposition plus the chain rule of the
# semi-graphoid), and one k-region scan is that group's certificate.  A step
# tries its certificate, then its A-first dominator and, for a pair (A, B),
# the A-first dominator of (B, A) with the same P (its B-first one), and is
# scanned itself only when all failed; a failed stand-in proves nothing, so
# the first failing step and its counterexample are those of the full
# ordinal scan.
#
# When a group's proof fails, its blocks may decide it.  If E_P splits into
# blocks K1, ..., Km mutually independent given each cell of P, then
# X1, ..., Xk factorize given P iff every restriction (X1 ∩ Kj, ...), its
# empty regions dropped, does: each side of a product-rule identity is the
# product of its restrictions' sides (decomposition and composition; Pearl
# 1988, ch. 3; Studený 2005), and one of fewer than two regions holds.  The
# blocks are the components of the element pairs of E_P that fail given P,
# read in one pass over the table of P ∪ E_P the failed proof built, and
# their own k-region scan, the block certificate, must hold: pairwise
# independence is not joint independence (`bernstein_xor`).  Where it
# fails, or the blocks are one or all singletons, a step falls back to its
# dominators.  The search costs that pass plus one scan (so1 on the
# `so_late_violation` model: 4 scans, not 23); it cost up to C(m, 2) + 1
# scans, m = |E_P|, when it scanned each pair, and the dominators cost one
# per maximal step.  The mark stays: only a group with more maximal steps
# than C(m, 2) + 1 is searched, since another mark would change the scans
# where blocks cannot help, which no benchmark workload measures.  The
# quantal checks keep the dominators: a null pseudo-cell needs its own proof.


def _admissible_pasts(site: CausalSite, past, future, a: int, b: int) -> tuple[int, ...]:
    """Every region that contains the mutual past of (a, b) and avoids both futures."""
    mutual = past[a] & past[b]
    free = site.full_mask & ~(future[a] | future[b] | mutual)
    return tuple(mutual | extra for extra in submasks(free))


# The planned pair checks: each one's conditioning regions for a spacelike
# pair (A, B), given `_cones(site)`.  "joint-clear" leaves out the pairs
# touching an initial element; "dissections" is penrose-percival's.
_RULES = {
    "mutual": lambda site, past, future, a, b: (past[a] & past[b],),  # so1
    "joint": lambda site, past, future, a, b: (past[a | b] & ~(a | b),),  # so2
    "bell": lambda site, past, future, a, b: (past[a] & ~a,),  # gen-so[bell]
    "all": _admissible_pasts,  # gen-so[all]
    "dissections": lambda site, past, future, a, b: tuple(p for p, _ in site._dissections(a, b, past[a] | past[b])),
}
_RULES["joint-clear"] = _RULES["joint"]  # so2w


def _check_units(site: CausalSite, check, pairs=None):
    """The units of a planned check in ordinal order, as (regions, conditioning regions).

    `check` names a rule of `_RULES`, whose units are the spacelike pairs it
    screens, from `pairs` (default `_spacelike_pairs(site)`); or it is
    multi-so's tuple size n, whose units are the n-tuples of
    `_spacelike_tuples`, each given its joint past.
    """
    past, future = _cones(site)
    if isinstance(check, int):
        return ((t, (past[sum(t)] & ~sum(t),)) for t in _spacelike_tuples(site, check))
    pasts_of = _RULES[check]
    excluded = site.initial_elements() if check == "joint-clear" else 0
    pairs = _spacelike_pairs(site) if pairs is None else pairs
    return ((pair, pasts_of(site, past, future, *pair)) for pair in pairs if not (pair[0] | pair[1]) & excluded)


@lru_cache(maxsize=None)
def _screening_plan(site: CausalSite, check, power: int) -> tuple[tuple, tuple]:
    """The plan of `_check_units(site, check)`, shared by every check with the same units.

    On a site where the mutual and joint pasts of every spacelike pair
    coincide (an antichain, or a common cause below it), so1, so2 and
    gen-so[bell] walk one plan, built once; `_one_strict_past` tells so
    without listing the units again.
    """
    if check in ("joint", "bell") and _one_strict_past(site):
        return _screening_plan(site, "mutual", power)
    return _plan(site, tuple(_check_units(site, check)), not isinstance(check, int), power)


@lru_cache(maxsize=None)
def _one_strict_past(site: CausalSite) -> bool:
    """Whether every two spacelike elements have the same strict past.

    Exactly then the mutual, joint and Bell pasts of every spacelike pair
    (A, B) are one region: every element of A is spacelike to every element
    of B, so all of them share one strict past S, which meets neither
    region, and past(A) & past(B) = (S | A) & (S | B) = S = past(A) - A =
    past(A | B) - (A | B).  Where two spacelike elements' strict pasts
    differ, their singletons' mutual past is the intersection, their joint
    past the union, and the Bell past of one order the larger.
    """
    below = site.below
    strict = [below[i] & ~(1 << i) for i in range(site.n)]
    return all(
        strict[x] == strict[y]
        for x in range(site.n)
        for y in range(x)
        if not (below[x] >> y & 1 or below[y] >> x & 1)
    )


@lru_cache(maxsize=None)
def _plan(site: CausalSite, units: tuple, ordered: bool, power: int) -> tuple[tuple, tuple]:
    """(every step of `units` in order, with its stand-ins; the plan's proof record).

    A step is (regions, P, stand-ins, fallback, |Φ(P)|^power,
    ∏|Φ(Xi)|^power); `power` is 2 for the quantal checks, which scan
    doubled regions and check null pseudo-cells too.  A stand-in
    is keyed (P, regions), so that no scan is reused under another P.  The
    last stand-in is the A-first dominator: the step reached by growing the
    first region by the lowest element that gives another step with the same
    P, for as long as there is one, then the second region, and so on; its
    regions are given in ascending order, since the product rule is
    symmetric in them.  The grown step comes later in ordinal order, so one
    backward pass finds every dominator, and each step shares the stand-in
    list of the step it grows into.  The fallback is the last stand-in of
    the reversed pair with the same P (its A-first dominator, the pair's
    B-first one), where the check has that step, else the step itself.
    Where P's group (its steps) has more than one maximal step, the group's
    certificate stands first: the singletons of E_P, the union of the
    group's regions.  With one maximal step, its scan covers the group.
    Either way every step of the group has it as its first stand-in, the
    group's proof.  The proof record is the step-shaped (None, None,
    (units, steps, groups), None, 0, 0) of the steps after the first unit,
    which `_screening_steps` scans itself, a group being (proof,
    |Φ(P)|^power, Σ atoms, steps, whether a failed proof searches its
    blocks), in order of its first step there; `_proved` reads it.  A group
    searches with more maximal steps than C(m, 2) + 1, m = |E_P|: what the
    search cost while it scanned each pair, kept now that it costs one table
    pass and one scan (4 scans, not 23, on `so_late_violation`), as another
    mark would change scans where blocks cannot help and no workload
    measures that side.
    """
    # `ordered`: a pair check lists both (A, B) and (B, A); multi-so lists each tuple once, ascending
    groups: dict[int, tuple[dict, dict]] = {}  # P: (stand-ins by step, by maximal step)
    full = site.full_mask
    for regions, pasts in reversed(units):
        free = full & ~sum(regions)  # the regions are disjoint
        for past in pasts:
            if (group := groups.get(past)) is None:
                group = groups[past] = ({}, {})
            steps, maximal = group
            keys = None
            for i, region in enumerate(regions):
                head, tail, rest = regions[:i], regions[i + 1 :], free
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    grown = head + (region | bit,) + tail
                    if keys := steps.get(grown if ordered else tuple(sorted(grown))):
                        break
                if keys:
                    break
            else:
                ascending = tuple(sorted(regions))
                keys = maximal.setdefault(ascending, [(past, ascending)])
            steps[regions] = keys
    for past, (_, maximal) in groups.items():
        if len(maximal) > 1:
            union = 0
            for regions in maximal:
                union |= sum(regions)
            certificate = (past, tuple(1 << e for e in iter_bits(union)))
            for keys in maximal.values():
                keys.insert(0, certificate)
    configs = [n_configs(site, r) ** power for r in site.regions()]
    plan = []
    proof_of: dict[int, list] = {}  # P: [proof, |Φ(P)|^power, Σ atoms, steps, search] after the first unit
    first = len(units[0][1]) if units else 0
    for regions, pasts in units:
        atoms = 1
        for r in regions:
            atoms *= configs[r]
        for past in pasts:
            keys_of = groups[past][0]
            keys = keys_of[regions]
            fallback = keys_of.get(regions[::-1], ((past, regions),))[-1]
            plan.append((regions, past, keys, fallback, configs[past], atoms))
            if len(plan) > first:
                if (proof := proof_of.get(past)) is None:
                    search = len(groups[past][1]) > comb(len(keys[0][1]), 2) + 1
                    proof = proof_of[past] = [keys[0], configs[past], 0, 0, search]
                proof[2] += atoms
                proof[3] += 1
    proofs = (max(len(units) - 1, 0), len(plan) - first, tuple(map(tuple, proof_of.values())))
    return tuple(plan), (None, None, proofs, None, 0, 0)


def _screening_steps(site: CausalSite, check, power: int = 1, pairs=None):
    """The steps of a planned check, from `_screening_plan(site, check, power)`.

    The first unit's steps come first, each its own only stand-in, and the
    plan is built only after them, so a check that fails there builds no
    plan.  Its proof record comes next, then its other steps.  `pairs`
    lists a pair check's pairs for that first unit; the quantal checks list
    theirs through quantal's own binding, whose patch perfbench's tracer
    test checks.
    """
    first = next(_check_units(site, check, pairs), None)
    if first is None:
        return
    regions, pasts = first
    for past in pasts:
        keys = ((past, regions),)
        yield regions, past, keys, keys[0], 0, 0
    plan, proofs = _screening_plan(site, check, power)
    yield proofs
    yield from itertools.islice(plan, len(pasts), None)


def _pairwise_screening(
    model: StochasticModel, condition: str, rule: str, tables: dict | None = None
) -> CheckReport:
    """Screen the steps of `_screening_steps` in order, each stand-in scanned once."""
    steps = _screening_steps(model.site, rule)
    note = "conditional product rule fails for this atom pair given C"
    if rule == "joint-clear":
        reason = "no spacelike region pairs clear of the initial elements"
    else:
        reason = "no spacelike pairs of disjoint nonempty regions"
    return _screen(model, condition, steps, note, reason, tables=tables)


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


def _inadmissible(pasts, futures, ra: int, rb: int, past: int) -> str | None:
    """Why gen-so may not condition the pair (ra, rb) on `past`, or None if it may."""
    if pasts[ra] & pasts[rb] & ~past:
        return "does not contain the mutual past"
    if past & (futures[ra] | futures[rb]):
        return "intersects the future of the pair"
    return None


@lru_cache(maxsize=None)
def _admissible_plan(site: CausalSite, selector: str) -> bool:
    """Whether every step of a built-in selector's plan conditions on an admissible region."""
    if selector in ("mutual", "all"):  # a pair's mutual past meets neither future; "all" builds such pasts
        return True
    cones = _cones(site)
    return not any(_inadmissible(*cones, *step[0], step[1]) for step in _screening_plan(site, selector, 1)[0])


def check_generalized_so(model: StochasticModel, selector="mutual") -> CheckReport:
    """Screening with a pluggable conditioning region per region pair.

    `selector` is one of the built-in names — "mutual", "joint", "bell"
    (the past of the first region minus the region itself), "all" (every
    region that contains the mutual past and avoids both futures) — or a
    callable (site, region_a, region_b) -> region.  Every selected region
    is validated against those two constraints as its pair streams.  The
    built-in selectors stream the planned walk of their rule in `_RULES`
    ("mutual" and "joint" share the plans of so1 and so2), decided by its
    group proofs unless some selection is inadmissible; a callable one is
    scanned pair by pair.
    """
    site = model.site
    label = selector if isinstance(selector, str) else getattr(selector, "__name__", "custom")
    if isinstance(selector, str) and selector not in SELECTOR_NAMES:
        raise SelectorError(
            f"selector error: unknown selector {selector!r}; "
            f"expected one of {', '.join(SELECTOR_NAMES)}"
        )

    def steps():
        if isinstance(selector, str):
            selected = _screening_steps(site, selector)
        else:
            selected = (
                (pair, site.check_region(selector(site, *pair)), None, None, 0, 0)
                for pair in _spacelike_pairs(site)
            )
        cones = _cones(site)
        for step in selected:
            if step[0] is None:  # the plan's proofs; with an inadmissible step, the walk must reach it
                if _admissible_plan(site, selector):
                    yield step
                continue
            (ra, rb), past = step[:2]
            if problem := _inadmissible(*cones, ra, rb, past):
                raise SelectorError(
                    f"selector error: region {site.region_ids(past)} for pair "
                    f"({site.region_ids(ra)}, {site.region_ids(rb)}) {problem}"
                )
            yield step

    note = f"conditional product rule fails for this atom pair given C (selector {label})"
    return _screen(
        model,
        f"gen-so[{label}]",
        steps(),
        note,
        step_key="conditioning_regions",
        fixed={"selector": label},
    )


def check_multi_so(model: StochasticModel, n: int) -> CheckReport:
    """Joint conditional factorization for n-tuples of spacelike regions.

    For every n-tuple of pairwise-spacelike disjoint regions and every tuple
    of atoms, the joint conditional measure must equal the product of the
    atom conditionals, given any positive-measure full specification of the
    tuple's joint past.  The factorization is checked directly, so no
    pairwise-correlation precondition is needed.  The tuples stream the
    planned walk of `_screening_steps(site, n)`: the tuples with one joint
    past share that group's certificate.
    """
    if n < 2:
        raise ValueError(f"check error: multi-so needs n >= 2, not {n}")
    return _screen(
        model,
        f"multi-so[n={n}]",
        _screening_steps(model.site, n),
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
    offsets = [_union_offsets(site, r, union) for r in regions]
    sizes = na, nb = tuple(map(len, offsets))
    block = _block(offsets)
    # Each past cell's row: W(p), then W(a&p) per atom of A, W(b&p) per atom
    # of B, and W(a&b&p) per atom pair; an event's row is the sum over its cells.
    rows = []
    for base in _union_offsets(site, past, union):
        cells = [table[base + i] for i in block]
        wa, wb = _margins(cells, sizes)
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
    steps = ((pair, past, None, None, 0, 0) for pair, (past,) in _check_units(model.site, "mutual"))
    return _screen(
        model,
        "wrc-cond" if conditioned else "wrc",
        steps,
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


def _witness_search(
    model: StochasticModel,
    condition: str,
    a: int,
    b: int,
    positive: bool,
    search,
    accepts,
    witness,
    noun: str,
    none_found: str,
) -> CheckReport:
    """One common-cause demand on events A and B: some candidate witness must be accepted.

    The check is vacuous unless the events' domains are spacelike and the
    events are correlated, positively when `positive`.  Then `search()`
    gives (mode, candidates); the first candidate that `accepts` holds the
    check, its stats from `witness(candidate)`, and with none the
    counterexample's note is `none_found`.  Each counts its `noun`s examined.
    """
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
    values = tuple(
        (f"mu({name})", format_rational(Fraction(w, model._den)))
        for name, w in (("A", wa), ("B", wb), ("A&B", wab))
    )
    if not ((wab * model._den > wa * wb) if positive else (wab * model._den != wa * wb)):
        reason = "events are not positively correlated" if positive else "events are not correlated"
        return CheckReport(condition, VACUOUS, reason=reason, stats=dict(values))
    mode, candidates = search()
    examined = 0
    for candidate in candidates:
        examined += 1
        if accepts(candidate):
            stats = {"mode": mode, f"{noun}_examined": examined, **witness(candidate)}
            return CheckReport(condition, HOLDS, stats=stats)
    cx = Counterexample(
        regions=(("A", site.region_ids(da)), ("B", site.region_ids(db))),
        events=(("A", event_ref(site, a)), ("B", event_ref(site, b))),
        values=(*values, ("product", format_rational(Fraction(wa * wb, model._den**2)))),
        note=f"{none_found} ({mode} search, {examined} examined)",
    )
    stats = {"mode": mode, f"{noun}_examined": examined}
    return CheckReport(condition, VIOLATED, counterexample=cx, stats=stats)


def _require_exhaustive_limit(exhaustive_limit: int) -> None:
    if exhaustive_limit < 0:
        raise ValueError(f"check error: exhaustive_limit must be at least 0, not {exhaustive_limit}")


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
    """The single-event common-cause checks, pcc-original and pcc-rev1.

    A witness C must have measure strictly between 0 and 1 and screen the pair
    under both C and its complement; with ``want_inequalities`` it must also
    strictly raise the conditional measure of each event (the "cause" reading).
    """
    _require_exhaustive_limit(exhaustive_limit)
    L = model._den
    wa, wb, wab = (model._w(check_event(model.site, e)) for e in (a, b, a & b))

    def satisfies(candidate) -> bool:
        wc, wac, wbc, wabc = candidate[1]
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

    wanted = "screening and likelihood-raising conditions" if want_inequalities else "two-sided screening condition"
    return _witness_search(
        model, condition, a, b, want_inequalities,
        lambda: _candidate_events(model, a, b, exhaustive_limit),
        satisfies,
        lambda candidate: {"witness": event_ref(model.site, candidate[0]).to_json()},
        "candidates", f"no candidate event satisfies the {wanted}",
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
    site = model.site

    def screens(candidate) -> bool:
        for cell in candidate[0]:
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

    def search():
        n = n_histories(site)
        if n > SET_PARTITION_LIMIT:
            return "region-partitions", region_partitions()
        cap = max_partition_size if max_partition_size is not None else n
        return "set-partitions", ((cells, None) for cells in _iter_set_partitions(n, cap))

    def witness(candidate):
        # a region's cells are named by their configurations; set partitions have no region
        cells, region = candidate
        return {"witness_partition": [event_ref(site, c, region, i).to_json() for i, c in enumerate(cells)]}

    return _witness_search(
        model, "pcc-rev2", a, b, False, search, screens, witness,
        "partitions", "no partition screens the pair in every positive-measure cell",
    )


def find_screening_events(
    model: StochasticModel, a: int, b: int, exhaustive_limit: int = EXHAUSTIVE_EVENT_LIMIT
) -> list[int]:
    """All events of measure strictly between 0 and 1 that screen the pair off.

    The pair must be correlated; the search is exhaustive over every event
    when the history space has at most `exhaustive_limit` points, otherwise
    it is restricted to full-specification cells of past-closed regions.
    """
    _require_exhaustive_limit(exhaustive_limit)
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
    _require_exhaustive_limit(exhaustive_limit)
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
    verdict alongside, so the two can be compared.  Each pair is a unit with
    one step per dissection, and the planned walk proves each dissection's
    group of pairs with one certificate where it can.  The dissection scan
    shares so1's cell tables.
    """
    tables: dict = {}
    so1 = _pairwise_screening(model, "so1", "mutual", tables=tables)
    note = (
        "conjecture probe: conditioning on a full specification of a "
        "dissection of the joint past fails to screen this atom pair"
    )
    return _screen(
        model,
        "penrose-percival",
        _screening_steps(model.site, "dissections"),
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
    dists = {}
    for e in iter_bits(site.initial_elements()):
        sid = site.elements[e]
        d = [Fraction(x) for x in initial_dists[sid]]
        if len(d) != site.alphabets[e]:
            raise MeasureError(
                f"measure error: initial distribution for {sid!r} has {len(d)} "
                f"entries; alphabet size is {site.alphabets[e]}"
            )
        de = lcm(*(x.denominator for x in d))
        dists[e] = de, [x.numerator * (de // x.denominator) for x in d]
    return _deterministic_local(site, dists, rules)


def _deterministic_local(site: CausalSite, dists: dict, rules) -> StochasticModel:
    """`deterministic_local_model` on scaled distributions: initial element -> (den, numerators)."""
    init = site.initial_elements()
    den = prod(d for d, _ in dists.values())
    nums = []
    for h in range(n_histories(site)):
        digs = history_digits(site, h)
        w = 1
        for e in range(site.n):
            bit = 1 << e
            if init & bit:
                w *= dists[e][1][digs[e]]
            else:
                past_config = {site.elements[x]: digs[x] for x in iter_bits(site.below[e] & ~bit)}
                value = rules[site.elements[e]](past_config)
                if not 0 <= value < site.alphabets[e]:
                    raise MeasureError(
                        f"measure error: rule for {site.elements[e]!r} returned "
                        f"{value!r}, outside its alphabet"
                    )
                if value != digs[e]:
                    w = 0
                    break
        nums.append(w)
    return StochasticModel._from_scaled(site, den, nums)
