"""Exact probability measures on history spaces and the classical causality checks.

Every check works in scaled-integer arithmetic: weights are stored as integer
numerators over one common denominator, and each conditional-independence
equation is tested in cross-multiplied product form, so no division (and no
rounding) happens anywhere on a check path.
"""
from __future__ import annotations

import bisect
import heapq
import itertools
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial, reduce
from math import comb, gcd, isqrt, lcm, prod
from operator import add, itemgetter, mod, mul, or_, sub

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
    """Raised when a search's correlation precondition fails: an input error, on which `find` exits 2."""


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
# flat in U's own config order (mixed radix over U's members, lowest element
# index most significant, like history indices), gathered from the history
# weights by one cached `itemgetter`.  The cells of any partition of U into
# regions are read back through per-region offset tuples (one slice where
# they are contiguous), so every pair with the same union shares one pass
# over the histories.  Tables and margins are summed inside builtins.
#
# A block J of k > 2 regions given a cell of total w ≠ 0 (W(C), or muhat(C))
# factorizes, J·w^(k−1) = M_1 ⊗ … ⊗ M_k, iff each step of `_sum_out` has
# T_j·w = T_{j−1} ⊗ M_j, T_j the joint of the first j regions (`_factorizes`).
# Over ℚ or ℚ(i) the steps telescope to the product, as T_1 = M_1; and as
# every margin sums to w, summing the product over regions j+1…k gives
# T_j·w^(k−1) = w^(k−j)·⊗_{i≤j} M_i: with the same for j−1 put in, dividing
# by w^(k−2) leaves the step.  A step's last column is w·T_{j−1} minus the
# others, so it is not compared.  At k = 2 the step is the identity itself:
# pairs, rejected blocks and null cells with a nonzero block take the direct
# test, which alone locates a first failing atom.  The quantal tables encode
# ℤ[i] in ℤ/(N² + 1) (`_pair_matrix`), where every comparison of degree 2 is
# taken; a rejected k-region cell is re-encoded for its direct test.


def _sum_out(cells: list[int], sizes: tuple[int, ...]):
    """Sum out the regions last to first: per step, the last axis's columns and the joint of the others."""
    joint = cells
    for size in reversed(sizes[1:]):
        columns = [joint[c::size] for c in range(size)]
        joint = list(reduce(partial(map, add), columns))
        yield columns, joint


def _margins(cells: list[int], sizes: tuple[int, ...]) -> list[list[int]]:
    """Each region's margin of a block over regions of these sizes, the first most significant."""
    joint, margins = cells, []
    for columns, joint in _sum_out(cells, sizes):
        margins.append(list(map(sum, columns)))
    return [joint, *reversed(margins)]


def _factorizes(cells: list[int], sizes: tuple[int, ...], w: int, modulus: int = 0) -> bool:
    """Whether a block of k > 2 regions given a cell of total w ≠ 0 factorizes, step by step, mod a nonzero `modulus`."""
    for columns, joint in _sum_out(cells, sizes):
        for column in columns[:-1]:
            differences = map(sub, map(mul, column, itertools.repeat(w)), map(mul, joint, itertools.repeat(sum(column))))
            if any(map(mod, differences, itertools.repeat(modulus)) if modulus else differences):
                return False
    return True


@lru_cache(maxsize=1 << 12)  # its entries grow with the pairs scanned, not with the unions
def _union_offsets(site: CausalSite, region: int, union: int) -> tuple[int, ...]:
    """For each configuration of `region`, its offset in the config order of `union`."""
    members, strides, _ = _region_meta(site, union)
    return tuple(_block(
        range(0, site.alphabets[i] * stride, stride)
        for i, stride in zip(members, strides)
        if region >> i & 1
    ))


@lru_cache(maxsize=256)  # twice the ~120 blocks that corpus verify or a 720-model qso fuzz reuses; wrc misses on every pair
def _atom_block(site: CausalSite, regions: tuple[int, ...], union: int, power: int = 1) -> tuple:
    """(atom counts, offsets in the union's table) of the regions' joint atoms, the first most significant.

    With power 2 an atom is a pair (x, y) of configurations, at x·n_U + y in
    the union's n_U × n_U matrix.  A block of offsets 0, 1, … is a range.
    """
    offsets = [_union_offsets(site, r, union) for r in regions]
    if power == 2:
        n = n_configs(site, union)
        offsets = [_block(([x * n for x in o], o)) for o in offsets]
    block = _block(offsets)
    span = range(len(block))
    return tuple(map(len, offsets)), span if block == list(span) else tuple(block)


@lru_cache(maxsize=None)
def _cell_gather(site: CausalSite, union: int):
    """(gather of the history weights in the union's cell order, histories per cell, the same for all)."""
    cells = config_indices(site, union)  # refuses a site over the limit
    per_cell = len(cells) // n_configs(site, union)
    if per_cell == 1:  # the cell order is the history order
        return None, 1
    # the whole site's config indices are the history indices: every gather shares their ints
    return itemgetter(*sorted(config_indices(site, site.full_mask), key=cells.__getitem__)), per_cell


def _cell_weights(model: StochasticModel, regions: tuple[int, ...]) -> list[int]:
    """Scaled weights of the configurations of the union of disjoint regions."""
    gather, per_cell = _cell_gather(model.site, sum(regions))  # the regions are disjoint
    if gather is None:
        return list(model._nums)
    return list(map(sum, zip(*[iter(gather(model._nums))] * per_cell)))


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
    positive cell C by `_product_rule_failure` on the table of the regions'
    union, built into `tables` on first use and shared by every later scan
    of it.  Returns (failure-or-None, conditions_checked, null_conditions_skipped).
    """
    union, table = _union_table(model, (past, *event_regions), tables, _cell_weights)
    return _product_rule_failure(model.site, table, union, event_regions, past)


def _gaussian(value: int, big: int) -> tuple[int, int]:
    """The Gaussian integer x + iy with parts below big / 2 encoded as x + y·big."""
    y, x = divmod(value, big)
    return (x - big, y + 1) if 2 * x > big else (x, y)


def _product_rule_failure(
    site: CausalSite, table: list[int], union: int, regions: tuple[int, ...], past: int, power: int = 1, modulus: int = 0
):
    """The product-rule scan of both engines: (first failure or None, checked, null cells skipped).

    Tests J·W(C)^(k−1) == ∏ M_i, in cross-multiplied form, on the block J
    of the regions' atoms given each cell C of `past`, one cell's block at
    a time, with the first region most significant: step by step first
    where k > 2 (`_factorizes`).  A block is read from the union's table
    through `_atom_block` of this `power`; with a nonzero `modulus` N² + 1
    the comparisons are taken mod it, the sums are not, and the direct test
    of a cell the steps reject, of degree k, at N^k (`_pair_matrix`).  A
    null cell with a zero block is skipped.  On another null cell a pair
    must have 0 = M_A ⊗ M_B, and a k > 2 scan, a group certificate, fails:
    a certificate is sound there only on a zero block.
    """
    sizes, block = _atom_block(site, regions, union, power)
    span = len(block)
    contiguous = type(block) is range  # each past cell's block is one slice
    exponent = len(regions) - 1
    checked = 0
    skipped = 0
    for p, base in enumerate(_atom_block(site, (past,), union, power)[1]):
        cells = table[base : base + span] if contiguous else [table[base + i] for i in block]
        if exponent > 1 and (w := sum(cells)) and _factorizes(cells, sizes, w, modulus):
            checked += span
            continue
        margins = _margins(cells, sizes)
        w_past = sum(margins[0])
        if w_past == 0 and not any(cells):
            skipped += 1
            continue
        tested, factors, test_modulus = cells, margins, modulus
        if modulus and exponent > 1 and w_past:  # re-encode the rejected cell at N^k
            big = isqrt(modulus - 1)
            wide = big ** (exponent + 1)
            tested = [x + y * wide for x, y in map(_gaussian, cells, itertools.repeat(big))]
            factors, test_modulus = _margins(tested, sizes), wide * wide + 1
        if w_past == 0 and exponent > 1:
            lhs, rhs = cells, [0] * span
        else:
            *head_margins, margin_last = factors
            row_factors = [1]
            for margin in head_margins:
                row_factors = [f * w for f in row_factors for w in margin]
            scale = sum(factors[0]) ** exponent
            lhs = [x * scale for x in tested]
            rhs = [f * y for f in row_factors for y in margin_last]
        if modulus:  # the residues of the differences, against 0
            lhs, rhs = list(map(mod, map(sub, lhs, rhs), itertools.repeat(test_modulus))), [0] * span
        if lhs != rhs:
            i = next(i for i, (x, y) in enumerate(zip(lhs, rhs)) if x != y)
            atom = _atom_coords(sizes)[i]
            checked += i + 1
            margin_ws = tuple(m[c] for m, c in zip(margins, atom))
            return _Failure(p, atom, w_past, cells[i], margin_ws), checked, skipped
        checked += span
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
# pairs.  A check streams steps (regions, past), one per (unit, past), a
# unit's steps consecutive and sharing its regions.  A planned check streams
# its first unit's steps alone; once they hold, `_walk` decides the rest on
# the plan's proof record: a group by its proof where it holds, else by its
# steps that can still fail, each stood in for by the scan of a larger tuple
# of regions with the same past, keyed (past, regions).  Any held step with
# past P checks (|Φ(P)| − nulls)·atoms and skips nulls, the null cells of P,
# so a step a held scan decides is not drawn: its group gives its stats.  A
# violated report gets its counterexample builder and the failing step, not
# the counterexample: it is built when first read, so a caller that reads
# only the verdict, as fuzz does, never builds one.


def _screen(
    model,
    condition: str,
    steps,
    note: str,
    vacuous_reason: str = "no spacelike pairs of disjoint nonempty regions",
    *,
    plan=None,
    stop: int | None = None,
    names: tuple[str, ...] = ("A", "B"),
    unit_key: str = "region_pairs",
    step_key: str | None = None,
    fixed: dict | None = None,
    tables: dict | None = None,
    scan=None,
    counterexample=None,
    count_keys: tuple[str, ...] = ("atom_checks", "null_conditions_skipped"),
) -> CheckReport:
    """Scan the (regions, past) steps in order and report the first failing one, if any.

    `steps` is consumed lazily, so a selector's error surfaces at the step
    that raises it.  With `plan`, a call that returns the plan's proof
    record, each scan is kept for the walk, which decides the rest once
    every step held, before the ordinal `stop` if given; a step it decides
    takes the first of its dominator and fallback that holds, each scanned
    once, else its own scan, and a step given its group's blocks (`_split`)
    holds when its restrictions to them do.  `fixed` stats lead the
    report's; `tables` may carry cell tables shared with another scan of
    the model.  `scan` (default `_factorization_failure`) returns
    (failure-or-None, checked, skipped), reported under `count_keys`, and
    `counterexample` (default `_conditional_counterexample`) reports a
    failure: the report calls it with (model, regions, names, past,
    failure, note) when its counterexample is first read.
    """
    scan = scan or _factorization_failure
    counterexample = counterexample or _conditional_counterexample
    tables = {} if tables is None else tables
    scans: dict[tuple[int, tuple[int, ...]], tuple] = {}

    def get(key):
        return scans.get(key) or scans.setdefault(key, scan(model, key[1], key[0], tables=tables))

    def decide(regions, past, dominator, fallback, past_cells, atoms, split=None):
        if split:
            key, blocks = split  # the blocks' certificate, unless a restriction fails
            for k in blocks:
                part = [r & k for r in regions if r & k]
                if len(part) > 1 and get((past, tuple(sorted(part))))[0] is not None:
                    key = (past, regions)
                    break
            result = get(key)
        else:
            for key in (dominator, fallback):
                if (result := get(key))[0] is None:
                    break
        fail, _, s = result
        if key[1] == regions:
            return result
        return (None, (past_cells - s) * atoms, s) if fail is None else get((past, regions))

    n_units = n_steps = checked = skipped = 0
    fail = unit = None
    for regions, past in steps:
        n_steps += 1
        if regions != unit:
            n_units += 1
            unit = regions
        fail, c, s = get((past, regions)) if plan else scan(model, regions, past, tables=tables)
        checked += c
        skipped += s
        if fail is not None:
            break
    else:
        if plan:
            fail, regions, past, rest = _walk(plan(), decide, get, partial(_split, model, tables, get), stop)
            n_units, n_steps, checked, skipped = map(sum, zip((n_units, n_steps, checked, skipped), rest))
    stats = dict(fixed or {})
    stats[unit_key] = n_units
    if step_key is not None:
        stats[step_key] = n_steps
    stats.update(zip(count_keys, (checked, skipped)))
    if fail is not None:
        cx = partial(counterexample, model, regions, names, past, fail, note)
        return CheckReport(condition, VIOLATED, counterexample=cx, stats=stats)
    if n_units == 0:
        return CheckReport(condition, VACUOUS, reason=vacuous_reason, stats=stats)
    return CheckReport(condition, HOLDS, stats=stats)


def _walk(record, decide, get, search, stop=None):
    """(failure-or-None, its regions, its past, (units, steps, checked, skipped)) after the first unit.

    Meets each group at its first step, in ordinal order, and scans its
    proof: a held proof decides the group.  Past a failed one, it decides
    that step, then, in ordinal order, each later step of the group that
    may fail: where its blocks held (`search(P, E_P)`, if `_plan` marks the
    group), each meeting a non-singleton block in two regions (`_hits`);
    else each.  The rest add stats from their group's totals, or from its
    running sums, built once per plan, up to a failing step.  A walk given
    `stop` ends before that ordinal, with no failure and no stats of use.
    """
    n_units, n_steps, groups, plan, first, sums = record
    nulls = [0] * len(groups)
    heap = [(groups[0][5], 0, None, None)] if groups else []  # (ordinal, group, its later ordinals, blocks)
    while heap and (stop is None or heap[0][0] < stop):
        i, g, later, split = heapq.heappop(heap)
        if later is None:  # g's first step: its proof decides the group where it holds
            if g + 1 < len(groups):
                heapq.heappush(heap, (groups[g + 1][5], g + 1, None, None))
            proof, _, _, _, marked, _ = groups[g]
            if (tried := get(proof))[0] is None:
                nulls[g] = tried[2]
                continue
            if not sums:  # built once per plan
                sums.append(_running_sums(plan, first, groups))
            ords, _, columns = sums[0][1][g]
            positions = range(1, len(ords))
            if split := marked and search(proof[0], sum(proof[1])):
                hits = heapq.merge(*(_hits(x, y, k) for k in split[1] for x, y in itertools.combinations(columns, 2)))
                positions = (p for p, _ in itertools.groupby(hits))
            later = map(ords.__getitem__, positions)
        if (j := next(later, None)) is not None:
            heapq.heappush(heap, (j, g, later, split))
        fail, c, s = decide(*plan[i], split)
        if fail is not None:
            units_to, members = sums[0]
            for (_, cells, *_), z, (ords, acc, _) in zip(groups, nulls, members):
                n = bisect.bisect_left(ords, i)
                c += (cells - z) * acc[n]
                s += z * n
            return fail, plan[i][0], plan[i][1], (units_to[i] - 1, i + 1 - first, c, s)
        nulls[g] = s
    c = s = 0
    for (_, cells, atoms, n, *_), z in zip(groups, nulls):
        c += (cells - z) * atoms
        s += z * n
    return None, None, None, (n_units, n_steps, c, s)


def _running_sums(plan, first: int, groups) -> tuple[array, list]:
    """(units up to each step; per group, its steps' ordinals, Σ atoms before each, region columns)."""
    units_to = array("q", itertools.accumulate(p[0] != q[0] for p, q in zip(((None,), *plan), plan)))
    members = {key[0]: array("q") for key, *_ in groups}  # by P, in the order of `groups`
    for i in range(first, len(plan)):
        members[plan[i][1]].append(i)
    return units_to, [
        (ords, [0, *itertools.accumulate(plan[i][5] for i in ords)], list(zip(*(plan[i][0] for i in ords))))
        for ords in members.values()
    ]


def _hits(x, y, k: int):
    """The positions after the first where the region columns x and y both meet k, ascending."""
    return (p for p in range(1, len(x)) if x[p] & k and y[p] & k)


def _split(model, tables: dict, get, past: int, union: int):
    """(block certificate, non-singleton blocks) of the elements of `union` given `past`, or None.

    The blocks are the components of `_dependent_pairs`, in ascending
    order.  With at least two blocks, one of them not a singleton, one scan
    of the blocks as the regions of a tuple is their certificate, which must
    hold: pairwise independence is not joint independence.
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
# cells of P.  So a step (regions, P) with a held dominator (a step with the
# same P whose regions contain its own) holds without a scan; and if the
# elements of E_P, the union of the regions of P's group (its steps), are
# mutually independent given each cell of P, so is every tuple of disjoint
# regions inside E_P (decomposition plus the chain rule of the
# semi-graphoid): one k-region scan is the group's certificate.  A step
# tries it, then its A-first dominator and, for a pair (A, B), that of
# (B, A) with the same P, and is scanned itself only when all failed; a
# failed stand-in proves nothing, so the first failing step and its
# counterexample are those of the full ordinal scan.
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
# dominators; while it holds, only a step that meets a non-singleton block
# in two regions can fail, and `_walk` visits no other step of the group.
# The search costs that pass plus one scan (so1 on `so_late_violation`: 4
# scans, not 23), yet a group is searched only with more maximal steps than
# C(m, 2) + 1, m = |E_P|, what it cost when it scanned each pair: another
# mark would change scans where blocks cannot help, which no workload
# measures.  `_plan` marks no quantal group, so those keep the dominators:
# a null pseudo-cell needs its own proof.


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
def _screening_plan(site: CausalSite, check, power: int) -> tuple:
    """The proof record of `_check_units(site, check)`; no other cache holds a plan.

    Rules share one where the site makes their units coincide, told
    without listing them: so2 and gen-so[bell] walk so1's plan where
    `_one_strict_past` holds (an antichain, or a common cause below it),
    and so2w walks so2's where one initial element lies below all others.
    """
    if check in ("joint", "bell") and _one_strict_past(site):
        return _screening_plan(site, "mutual", power)
    if check == "joint-clear" and not (init := site.initial_elements()) & (init - 1):
        return _screening_plan(site, "joint", power)
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


def _plan(site: CausalSite, units: tuple, ordered: bool, power: int) -> tuple:
    """The proof record of `units`: (units, steps, groups, plan, first, running sums).

    `plan` is every step of `units` in order, (regions, P, dominator,
    fallback, |Φ(P)|^power, ∏|Φ(Xi)|^power); `power` is 2 for the quantal
    checks, which scan doubled regions and check null pseudo-cells too.  A
    stand-in is keyed (P, regions), so that no scan is reused under another
    P.  The dominator is the A-first one: the step reached by growing the
    first region by the lowest element that gives another step with the same
    P, for as long as there is one, then the second region, and so on; its
    regions are given in ascending order, since the product rule is
    symmetric in them.  The grown step comes later in ordinal order, so one
    backward pass finds every dominator, and each step shares the key of the
    step it grows into.  The fallback is the dominator of the reversed pair
    with the same P (the pair's B-first one), where the check has that step,
    else the step itself.  The units, steps and groups are those after the
    first unit's `first` steps, a group being (proof, |Φ(P)|^power, Σ atoms,
    steps, whether a failed proof searches its blocks, its first step's
    ordinal) in ordinal order.  A group's proof is the singletons of E_P
    where it has more than one maximal step, else that step.  `_walk` alone
    reads the record, and fills the running sums slot only where a proof
    fails.
    """
    # `ordered`: a pair check lists both (A, B) and (B, A); multi-so lists each tuple once, ascending
    groups: dict[int, tuple[dict, dict]] = {}  # P: (dominators by step, by maximal step)
    full = site.full_mask
    for regions, pasts in reversed(units):
        free = full & ~sum(regions)  # the regions are disjoint
        for past in pasts:
            if (group := groups.get(past)) is None:
                group = groups[past] = ({}, {})
            steps, maximal = group
            key = None
            for i, region in enumerate(regions):
                head, tail, rest = regions[:i], regions[i + 1 :], free
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    grown = head + (region | bit,) + tail
                    if key := steps.get(grown if ordered else tuple(sorted(grown))):
                        break
                if key:
                    break
            else:
                ascending = tuple(sorted(regions))
                key = maximal.setdefault(ascending, (past, ascending))
            steps[regions] = key
    configs = [n_configs(site, r) ** power for r in site.regions()]
    plan = []
    proof_of: dict[int, list] = {}  # P: [proof, |Φ(P)|^power, Σ atoms, steps, search, start] after the first unit
    first = len(units[0][1]) if units else 0
    for regions, pasts in units:
        atoms = prod(configs[r] for r in regions)
        for past in pasts:
            dominators, maximal = groups[past]
            fallback = dominators.get(regions[::-1]) or (past, regions)
            plan.append((regions, past, dominators[regions], fallback, configs[past], atoms))
            if len(plan) > first:
                if (proof := proof_of.get(past)) is None:
                    if len(maximal) > 1:
                        key = (past, tuple(1 << e for e in iter_bits(reduce(or_, map(sum, maximal)))))
                    else:
                        (key,) = maximal.values()
                    search = power == 1 and len(maximal) > comb(len(key[1]), 2) + 1
                    proof = proof_of[past] = [key, configs[past], 0, 0, search, len(plan) - 1]
                proof[2] += atoms
                proof[3] += 1
    return max(len(units) - 1, 0), len(plan) - first, tuple(map(tuple, proof_of.values())), tuple(plan), first, []


def _planned(site: CausalSite, check, power: int = 1, pairs=None):
    """(the first unit's (regions, past) steps, a call that returns the plan's proof record).

    A check with no units has neither.  The plan is built only when the
    walk asks for it, after the first unit held, so a check that fails
    there builds no plan; the call looks `_screening_plan` up when it is
    made.  `pairs` lists a pair check's pairs for that first unit; the
    quantal checks list theirs through quantal's own binding, whose patch
    perfbench's tracer test checks.
    """
    first = next(_check_units(site, check, pairs), None)
    if first is None:
        return (), None
    regions, pasts = first
    return [(regions, past) for past in pasts], lambda: _screening_plan(site, check, power)


def _pairwise_screening(
    model: StochasticModel, condition: str, rule: str, tables: dict | None = None
) -> CheckReport:
    """Screen the first pair of `rule`, then walk its plan, each stand-in scanned once."""
    steps, plan = _planned(model.site, rule)
    note = "conditional product rule fails for this atom pair given C"
    if rule == "joint-clear":
        reason = "no spacelike region pairs clear of the initial elements"
    else:
        reason = "no spacelike pairs of disjoint nonempty regions"
    return _screen(model, condition, steps, note, reason, plan=plan, tables=tables)


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


def _inadmissible(site: CausalSite, pasts, futures, ra: int, rb: int, past: int) -> str | None:
    """gen-so's error for conditioning the pair (ra, rb) on `past`, or None if it may."""
    if pasts[ra] & pasts[rb] & ~past:
        problem = "does not contain the mutual past"
    elif past & (futures[ra] | futures[rb]):
        problem = "intersects the future of the pair"
    else:
        return None
    ids = site.region_ids
    return f"selector error: region {ids(past)} for pair ({ids(ra)}, {ids(rb)}) {problem}"


@lru_cache(maxsize=None)
def _first_inadmissible(site: CausalSite, selector: str) -> tuple[int, str] | None:
    """(ordinal, error) of the first step of a built-in selector's units that gen-so may not take, or None."""
    if selector in ("mutual", "all"):  # a pair's mutual past meets neither future; "all" builds such pasts
        return None
    cones = _cones(site)
    errors = (_inadmissible(site, *cones, *pair, past) for pair, pasts in _check_units(site, selector) for past in pasts)
    return next(((i, error) for i, error in enumerate(errors) if error), None)


def check_generalized_so(model: StochasticModel, selector="mutual") -> CheckReport:
    """Screening with a pluggable conditioning region per region pair.

    `selector` is one of the built-in names — "mutual", "joint", "bell"
    (the past of the first region minus the region itself), "all" (every
    region that contains the mutual past and avoids both futures) — or a
    callable (site, region_a, region_b) -> region.  A selected region that
    breaks those two constraints is an error, unless a step before it
    fails.  The built-in selectors walk the plan of their rule in `_RULES`
    ("mutual" and "joint" share the plans of so1 and so2) whatever their
    selections, up to the first inadmissible step (`_first_inadmissible`),
    since the walk's failing step is the ordinal scan's (the first unit,
    two singletons, is never refused); a callable one is validated and
    scanned pair by pair.
    """
    site = model.site
    label = selector if isinstance(selector, str) else getattr(selector, "__name__", "custom")
    if isinstance(selector, str):
        if selector not in SELECTOR_NAMES:
            raise SelectorError(
                f"selector error: unknown selector {selector!r}; "
                f"expected one of {', '.join(SELECTOR_NAMES)}"
            )
        steps, plan = _planned(site, selector)
        bad = plan and _first_inadmissible(site, selector)
    else:
        cones = _cones(site)

        def selected():
            for pair in _spacelike_pairs(site):
                past = site.check_region(selector(site, *pair))
                if error := _inadmissible(site, *cones, *pair, past):
                    raise SelectorError(error)
                yield pair, past

        steps, plan, bad = selected(), None, None
    note = f"conditional product rule fails for this atom pair given C (selector {label})"
    report = _screen(
        model,
        f"gen-so[{label}]",
        steps,
        note,
        plan=plan,
        stop=bad and bad[0],
        step_key="conditioning_regions",
        fixed={"selector": label},
    )
    if bad and not report.violated:
        raise SelectorError(bad[1])
    return report


def check_multi_so(model: StochasticModel, n: int) -> CheckReport:
    """Joint conditional factorization for n-tuples of spacelike regions.

    For every n-tuple of pairwise-spacelike disjoint regions and every tuple
    of atoms, the joint conditional measure must equal the product of the
    atom conditionals, given any positive-measure full specification of the
    tuple's joint past.  The factorization is checked directly, so no
    pairwise-correlation precondition is needed.  After the first tuple,
    the planned walk of `_planned(site, n)` decides the rest: the tuples
    with one joint past share that group's certificate.
    """
    if n < 2:
        raise ValueError(f"check error: multi-so needs n >= 2, not {n}")
    steps, plan = _planned(model.site, n)
    return _screen(
        model,
        f"multi-so[n={n}]",
        steps,
        "joint conditional factorization fails for this atom tuple given C",
        f"no {n}-tuples of pairwise-spacelike disjoint regions",
        plan=plan,
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
    sizes, block = _atom_block(site, regions, union)
    na, nb = sizes
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
    steps = ((pair, past) for pair, (past,) in _check_units(model.site, "mutual"))
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
    steps, plan = _planned(model.site, "dissections")
    return _screen(
        model,
        "penrose-percival",
        steps,
        note,
        plan=plan,
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
