"""Differential oracle for the classical pair scans.

The reference code below is the per-pair scan the classical checks used
before one cell table per region union was shared across a check, and
before the planned checks skipped the units a larger held scan vouches for:
``ref_cell_weights`` rescans every history into the (past, A, B) table of a
single pair, ``ref_factorization_failure`` walks that table atom by atom,
``ref_pairwise_screening`` scans every pair in order, ``ref_units`` lists
the ordinal steps of the other planned checks (gen-so's selectors,
multi-so, penrose-percival's dissections) from ``CausalSite`` methods
alone, ``ref_screening`` walks them with its own unit and step counts, and
``ref_wrc`` runs the common-correlate search over each pair's table.  No
reference runs the program's screening driver; every report's
``to_json_dict()`` (which carries no ``runtime_ms``) and every error text
is compared with the program's byte for byte.
"""
from __future__ import annotations

import itertools
import json
import random
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import screenoff.stochastic as stochastic
from screenoff.corpus import corpus_entries, random_deterministic_local, random_stochastic
from screenoff.events import (
    config_indices, event_ref, full_specifications, history_digits, n_configs, n_histories,
)
from screenoff.order import CausalSite, iter_bits
from screenoff.report import HOLDS, VACUOUS, VIOLATED, CheckReport, Counterexample, format_rational
from screenoff.stochastic import (
    CapacityError,
    StochasticModel,
    check_generalized_so,
    check_multi_so,
    check_penrose_percival,
    check_so1,
    check_so2,
    check_so2w,
    check_wrc,
)

from test_stochastic import two_cell_correlate

F = Fraction


# -- reference code ---------------------------------------------------------


def ref_cell_weights(model, regions):
    """Scaled weights of the joint configuration cells of disjoint regions."""
    site = model.site
    sizes = tuple(n_configs(site, r) for r in regions)
    index_maps = [config_indices(site, r) for r in regions]
    table = [0] * prod(sizes)
    for h, w in enumerate(model._nums):
        if w:
            flat = 0
            for ci, size in zip(index_maps, sizes):
                flat = flat * size + ci[h]
            table[flat] += w
    return sizes, table


def ref_factorization_failure(model, event_regions, past):
    """The atom-by-atom scan of one pair's own (past, *event_regions) table."""
    sizes, table = ref_cell_weights(model, (past, *event_regions))
    n_past, atom_counts = sizes[0], sizes[1:]
    block = prod(atom_counts)
    coords = tuple(itertools.product(*(range(s) for s in atom_counts)))
    k = len(atom_counts)
    checked = 0
    skipped = 0
    for p in range(n_past):
        base = p * block
        w_past = sum(table[base : base + block])
        if w_past == 0:
            skipped += 1
            continue
        margins = [[0] * count for count in atom_counts]
        for flat in range(block):
            w = table[base + flat]
            if w:
                cs = coords[flat]
                for i in range(k):
                    margins[i][cs[i]] += w
        scale = w_past ** (k - 1)
        for flat in range(block):
            checked += 1
            cs = coords[flat]
            lhs = table[base + flat] * scale
            rhs = 1
            for i in range(k):
                rhs *= margins[i][cs[i]]
            if lhs != rhs:
                margin_ws = tuple(margins[i][cs[i]] for i in range(k))
                failure = stochastic._Failure(p, cs, w_past, table[base + flat], margin_ws)
                return failure, checked, skipped
    return None, checked, skipped


def ref_pairwise_screening(
    model, condition, past_of, eligible=None,
    vacuous_reason="no spacelike pairs of disjoint nonempty regions",
):
    """so1, so2 and so2w as a scan of every pair, in order."""
    pairs = 0
    checked = 0
    skipped = 0
    for ra, rb in stochastic._spacelike_pairs(model.site):
        if eligible is not None and not eligible(ra, rb):
            continue
        pairs += 1
        past = past_of(ra, rb)
        fail, c, s = ref_factorization_failure(model, (ra, rb), past)
        checked += c
        skipped += s
        if fail is not None:
            note = "conditional product rule fails for this atom pair given C"
            cx = stochastic._conditional_counterexample(
                model, (ra, rb), ("A", "B"), past, fail, note
            )
            stats = {"region_pairs": pairs, "atom_checks": checked,
                     "null_conditions_skipped": skipped}
            return CheckReport(condition, VIOLATED, counterexample=cx, stats=stats)
    stats = {"region_pairs": pairs, "atom_checks": checked, "null_conditions_skipped": skipped}
    if pairs == 0:
        return CheckReport(condition, VACUOUS, reason=vacuous_reason, stats=stats)
    return CheckReport(condition, HOLDS, stats=stats)


def ref_so1(model):
    return ref_pairwise_screening(model, "so1", model.site.mutual_past)


def ref_so2(model):
    return ref_pairwise_screening(model, "so2", model.site.joint_past)


def ref_so2w(model):
    init = model.site.initial_elements()
    return ref_pairwise_screening(
        model, "so2w", model.site.joint_past,
        eligible=lambda a, b: not ((a | b) & init),
        vacuous_reason="no spacelike region pairs clear of the initial elements",
    )


REF_SCREENING = {"so1": ref_so1, "so2": ref_so2, "so2w": ref_so2w}


def ref_wrc(model, conditioned=False, cap=12):
    """The common-correlate search, reading each pair's own (past, A, B) table.

    Every union of mutual-past cells is tried as a correlate, so a mutual past
    of more than `cap` cells is refused; at the default cap the error text is
    the program's.
    """
    site = model.site
    condition = "wrc-cond" if conditioned else "wrc"
    pairs = 0
    conditioning_events = 0
    correlated_pairs = 0
    for ra, rb in stochastic._spacelike_pairs(site):
        pairs += 1
        past = site.mutual_past(ra, rb)
        (n_past, na, nb), table = ref_cell_weights(model, (past, ra, rb))
        if n_past > cap:
            raise CapacityError(
                f"capacity error: wrc-cond needs 2^{n_past} conditioning events "
                f"for the mutual past of ({site.region_ids(ra)}, "
                f"{site.region_ids(rb)}); the limit is 2^{cap} ({cap} mutual-past cells)"
            )
        block = na * nb
        n_masks = 1 << n_past
        w_c = [0] * n_masks
        wa_c = [[0] * na for _ in range(n_masks)]
        wb_c = [[0] * nb for _ in range(n_masks)]
        wab_c = [[0] * block for _ in range(n_masks)]
        for cm in range(1, n_masks):
            # every event decidable in the mutual past is a union of its cells
            for p in iter_bits(cm):
                for a in range(na):
                    for b in range(nb):
                        w = table[p * block + a * nb + b]
                        w_c[cm] += w
                        wa_c[cm][a] += w
                        wb_c[cm][b] += w
                        wab_c[cm][a * nb + b] += w
        full_cm = n_masks - 1
        if conditioned:
            cond_masks = [cm for cm in range(1, n_masks) if w_c[cm] > 0]
        else:
            cond_masks = [full_cm] if w_c[full_cm] > 0 else []
        for cm_e in cond_masks:
            conditioning_events += 1
            we = w_c[cm_e]
            for a in range(na):
                wae = wa_c[cm_e][a]
                for b in range(nb):
                    wbe = wb_c[cm_e][b]
                    wabe = wab_c[cm_e][a * nb + b]
                    if wabe * we == wae * wbe:
                        continue
                    correlated_pairs += 1
                    found = any(
                        wa_c[cm_c & cm_e][a] * we != wae * w_c[cm_c & cm_e]
                        and wb_c[cm_c & cm_e][b] * we != wbe * w_c[cm_c & cm_e]
                        for cm_c in range(1, n_masks)
                    )
                    if found:
                        continue
                    cells = full_specifications(site, past)
                    e_mask = 0
                    for p in iter_bits(cm_e):
                        e_mask |= cells[p]
                    cx = Counterexample(
                        regions=(
                            ("A", site.region_ids(ra)),
                            ("B", site.region_ids(rb)),
                            ("past", site.region_ids(past)),
                        ),
                        events=(
                            ("A", event_ref(site, full_specifications(site, ra)[a], ra, a)),
                            ("B", event_ref(site, full_specifications(site, rb)[b], rb, b)),
                            ("E", event_ref(site, e_mask)),
                        ),
                        values=(
                            ("mu(E)", format_rational(F(we, model._den))),
                            ("mu(A&B|E)", format_rational(F(wabe, we))),
                            ("mu(A|E)", format_rational(F(wae, we))),
                            ("mu(B|E)", format_rational(F(wbe, we))),
                            ("product", format_rational(F(wae * wbe, we * we))),
                        ),
                        note=(
                            "correlated atom pair with no common correlate "
                            f"decidable in the mutual past ({n_masks - 1} "
                            "candidate events searched)"
                        ),
                    )
                    stats = {
                        "region_pairs": pairs,
                        "conditioning_events": conditioning_events,
                        "correlated_atom_pairs": correlated_pairs,
                    }
                    return CheckReport(condition, VIOLATED, counterexample=cx, stats=stats)
    stats = {
        "region_pairs": pairs,
        "conditioning_events": conditioning_events,
        "correlated_atom_pairs": correlated_pairs,
    }
    if pairs == 0:
        return CheckReport(
            condition, VACUOUS, reason="no spacelike pairs of disjoint nonempty regions", stats=stats
        )
    return CheckReport(condition, HOLDS, stats=stats)


# -- comparison harness -----------------------------------------------------


def _outside_futures(site, a, b):
    """Everything clear of both futures: admissible for every spacelike pair."""
    return site.full_mask & ~(site.future(a) | site.future(b))


def _empty_region(site, a, b):
    """Inadmissible wherever the mutual past is nonempty."""
    return 0


def _whole_site(site, a, b):
    """Always inadmissible: it meets the future of the pair."""
    return site.full_mask


# gen-so's selectors by name: None for a built-in one, whose pasts are in
# REF_PAIR_PASTS, else the callable.
REF_SELECTORS = {
    **dict.fromkeys(("mutual", "joint", "bell", "all")),
    **{f.__name__: f for f in (_outside_futures, _empty_region, _whole_site)},
}

# (label, run(model)) for every check that scans region pairs against a past.
CHECKS = (
    ("so1", check_so1),
    ("so2", check_so2),
    ("so2w", check_so2w),
    *(
        (f"gen-so[{name}]", lambda m, sel=sel or name: check_generalized_so(m, selector=sel))
        for name, sel in (*REF_SELECTORS.items(), ("nope", None))
    ),
    ("multi-so[n=2]", lambda m: check_multi_so(m, 2)),
    ("multi-so[n=3]", lambda m: check_multi_so(m, 3)),
    ("penrose-percival", check_penrose_percival),
)


def _outcome(run) -> str:
    try:
        return json.dumps(run().to_json_dict(), sort_keys=True)
    except ValueError as e:
        return f"{type(e).__name__}: {e}"


def ref_spacelike_pairs(site: CausalSite) -> list[tuple[int, int]]:
    """Every ordered pair of disjoint nonempty spacelike regions, ascending."""
    regions = range(1, site.full_mask + 1)
    return [(a, b) for a in regions for b in regions if not a & b and site.spacelike(a, b)]


@lru_cache(maxsize=None)
def ref_spacelike_tuples(site: CausalSite, n: int) -> list[tuple[int, ...]]:
    """Every ascending n-tuple of pairwise-disjoint pairwise-spacelike regions (cached: do not mutate)."""
    return [t for t in itertools.combinations(range(1, site.full_mask + 1), n)
            if all(not x & y and site.spacelike(x, y) for x, y in itertools.combinations(t, 2))]


# The conditioning regions of each pair under the planned pair checks other
# than so1, so2 and so2w, by check label, in ascending order.
REF_PAIR_PASTS = {
    "gen-so[mutual]": lambda site, a, b: [site.mutual_past(a, b)],
    "gen-so[joint]": lambda site, a, b: [site.joint_past(a, b)],
    "gen-so[bell]": lambda site, a, b: [site.past(a) & ~a],
    "gen-so[all]": lambda site, a, b: [
        p for p in site.regions()
        if not site.mutual_past(a, b) & ~p and not p & (site.future(a) | site.future(b))
    ],
    "penrose-percival": lambda site, a, b: [p for p, _ in site.enumerate_dissections(a, b)],
}


def ref_admissible(site: CausalSite, a: int, b: int, past: int) -> None:
    """Refuse a gen-so selection unless it holds the mutual past and avoids both futures."""
    problem = None
    if site.mutual_past(a, b) & ~past:
        problem = "does not contain the mutual past"
    elif past & (site.future(a) | site.future(b)):
        problem = "intersects the future of the pair"
    if problem:
        raise stochastic.SelectorError(
            f"selector error: region {site.region_ids(past)} for pair "
            f"({site.region_ids(a)}, {site.region_ids(b)}) {problem}"
        )


def ref_units(label: str, site: CausalSite):
    """The ordinal steps of a planned check as (regions, past), from `CausalSite` methods alone.

    gen-so's selections are checked as they stream, so an inadmissible one
    raises at its own pair.
    """
    if label.startswith("multi-so[n="):
        for regions in ref_spacelike_tuples(site, int(label[len("multi-so[n="):-1])):
            yield regions, site.multi_joint_past(regions)
        return
    pasts_of = REF_PAIR_PASTS.get(label)
    if pasts_of is None:  # a callable gen-so selector
        selector = REF_SELECTORS[label[len("gen-so["):-1]]
        pasts_of = lambda site, a, b: [selector(site, a, b)]
    for a, b in ref_spacelike_pairs(site):
        for past in pasts_of(site, a, b):
            if label.startswith("gen-so["):
                ref_admissible(site, a, b, past)
            yield (a, b), past


def ref_screening(label: str, model: StochasticModel) -> CheckReport:
    """A planned check as a scan of every step of `ref_units`, in order.

    Units (a change of regions) and steps are counted here, and every step
    is scanned by `ref_factorization_failure`: no code of the program's
    driver runs.
    """
    if label in REF_SCREENING:
        return REF_SCREENING[label](model)
    site = model.site
    names, unit_key, step_key = ("A", "B"), "region_pairs", None
    note = "conditional product rule fails for this atom pair given C"
    reason = "no spacelike pairs of disjoint nonempty regions"
    if label.startswith("multi-so[n="):
        n = int(label[len("multi-so[n="):-1])
        names, unit_key, fixed = tuple(f"A{i + 1}" for i in range(n)), "region_tuples", {"n": n}
        note = "joint conditional factorization fails for this atom tuple given C"
        reason = f"no {n}-tuples of pairwise-spacelike disjoint regions"
    elif label == "penrose-percival":
        step_key, fixed = "dissections", {"so1_verdict": ref_so1(model).verdict}
        note = ("conjecture probe: conditioning on a full specification of a "
                "dissection of the joint past fails to screen this atom pair")
    else:
        selector = label[len("gen-so["):-1]
        if selector not in REF_SELECTORS:
            raise stochastic.SelectorError(
                f"selector error: unknown selector {selector!r}; expected one of mutual, joint, bell, all"
            )
        step_key, fixed = "conditioning_regions", {"selector": selector}
        note += f" (selector {selector})"
    n_units = n_steps = checked = skipped = 0
    unit = fail = None
    for regions, past in ref_units(label, site):
        n_steps += 1
        if regions != unit:
            n_units += 1
            unit = regions
        fail, c, s = ref_factorization_failure(model, regions, past)
        checked += c
        skipped += s
        if fail is not None:
            break
    stats = {**fixed, unit_key: n_units}
    if step_key is not None:
        stats[step_key] = n_steps
    stats.update(atom_checks=checked, null_conditions_skipped=skipped)
    if fail is not None:
        cx = stochastic._conditional_counterexample(model, regions, names, past, fail, note)
        return CheckReport(label, VIOLATED, counterexample=cx, stats=stats)
    if n_units == 0:
        return CheckReport(label, VACUOUS, reason=reason, stats=stats)
    return CheckReport(label, HOLDS, stats=stats)


def _reference_outcome(label, model) -> str:
    return _outcome(lambda: ref_screening(label, model))


def assert_matches_reference(model: StochasticModel) -> list[str]:
    outcomes = []
    for label, run in CHECKS:
        got = _outcome(lambda: run(model))
        want = _reference_outcome(label, model)
        assert got == want, label
        outcomes.append(got)
    for conditioned in (False, True):
        got = _outcome(lambda: check_wrc(model, conditioned=conditioned))
        want = _outcome(lambda: ref_wrc(model, conditioned=conditioned))
        assert got == want, f"wrc conditioned={conditioned}"
        outcomes.append(got)
    return outcomes


# -- holds-heavy models -----------------------------------------------------


def product_on_antichain(rng: random.Random, alphabets: tuple[int, ...]) -> StochasticModel:
    """Independent sites: every pair screens, so every scan runs to the end."""
    site = CausalSite([(f"s{i}", k) for i, k in enumerate(alphabets)])
    marginals = []
    for k in alphabets:
        nums = [rng.randrange(0, 4) for _ in range(k)]
        nums[rng.randrange(k)] += 1
        marginals.append([F(x, sum(nums)) for x in nums])
    weights = [prod(m[v] for m, v in zip(marginals, digs))
               for digs in itertools.product(*(range(k) for k in alphabets))]
    return StochasticModel(site, weights)


def common_cause(rng: random.Random, n_leaves: int, coupled: bool) -> StochasticModel:
    """Ternary root below binary leaves, independent given the root.

    With ``coupled`` the last two leaves are tied beyond the root, so the
    scan runs through every earlier pair before it fails.
    """
    elements = [("c", 3)] + [(f"l{i}", 2) for i in range(n_leaves)]
    site = CausalSite(elements, [("c", f"l{i}") for i in range(n_leaves)])
    weights = []
    leaf_ps = [[F(rng.randrange(1, 5), 5) for _ in range(n_leaves)] for _ in range(3)]
    for digs in itertools.product(range(3), *([range(2)] * n_leaves)):
        c, leaves = digs[0], digs[1:]
        w = F(1, 3)
        for p, v in zip(leaf_ps[c], leaves):
            w *= p if v else 1 - p
        if coupled:
            w *= 2 if leaves[-1] == leaves[-2] else 0
        weights.append(w)
    total = sum(weights)
    return StochasticModel(site, [w / total for w in weights])


def root_below_pair(n_root: int, joint) -> StochasticModel:
    """A uniform root of `n_root` values below binary a and b.

    ``joint(c)`` gives mu(a, b | c) as rows over a and columns over b; the
    mutual past of a and b is the root, with `n_root` cells.
    """
    site = CausalSite([("c", n_root), ("a", 2), ("b", 2)], [("c", "a"), ("c", "b")])
    weights = [F(1, n_root) * joint(c)[a][b]
               for c, a, b in itertools.product(range(n_root), (0, 1), (0, 1))]
    return StochasticModel(site, weights)


def screened_by_the_root(c: int):
    """a and b independent given c=c, both moved by c: c is a common correlate."""
    pa, pb = F(c + 1, 14), F(13 - c, 14)
    return [[pa * pb, pa * (1 - pb)], [(1 - pa) * pb, (1 - pa) * (1 - pb)]]


def tied_apart_from_the_root(c: int):
    """a a fair coin whatever c is, and b equal to a with chance (c+8)/(c+9).

    a and b are correlated, but no event of the root is correlated with a.
    """
    same = F(c + 8, c + 9)
    return [[same / 2, (1 - same) / 2], [(1 - same) / 2, same / 2]]


# -- tests ------------------------------------------------------------------


@pytest.mark.parametrize(
    "entry",
    [e for e in corpus_entries() if isinstance(e.model, StochasticModel)],
    ids=lambda e: e.name,
)
def test_corpus_entries(entry):
    assert_matches_reference(entry.model)


@given(seed=st.integers(0, 10**6), n_sites=st.integers(2, 4), alphabet=st.integers(2, 3))
def test_random_stochastic(seed, n_sites, alphabet):
    assert_matches_reference(random_stochastic(seed, n_sites, alphabet))


@given(seed=st.integers(0, 10**6), n_sites=st.integers(2, 5))
def test_random_deterministic_local(seed, n_sites):
    assert_matches_reference(random_deterministic_local(seed, n_sites))


@pytest.mark.parametrize("alphabets", [(2, 2, 2), (2, 3, 2), (2, 2, 2, 2), (3, 2, 2, 2)])
def test_products_on_antichains_scan_to_the_end(alphabets):
    model = product_on_antichain(random.Random(str(alphabets)), alphabets)
    outcomes = assert_matches_reference(model)
    assert '"verdict": "holds"' in outcomes[0]


@pytest.mark.parametrize("coupled", [False, True])
def test_common_cause_with_a_coupled_leaf_pair(coupled):
    model = common_cause(random.Random(4), 4, coupled)
    outcomes = assert_matches_reference(model)
    verdict = '"verdict": "violated"' if coupled else '"verdict": "holds"'
    assert verdict in outcomes[0]


def test_wrc_capacity_error_names_the_limit():
    model = random_deterministic_local(3, n_sites=8)
    with pytest.raises(CapacityError, match=r"^capacity error: .*the limit is 2\^12") as got:
        check_wrc(model, conditioned=True)
    with pytest.raises(CapacityError) as want:
        ref_wrc(model, conditioned=True)
    assert str(got.value) == str(want.value)
    # plain wrc tests each cell once, so a 32-cell mutual past is no limit
    report = check_wrc(model)
    assert report.verdict == HOLDS
    assert report.stats == {
        "region_pairs": 30, "conditioning_events": 30, "correlated_atom_pairs": 32,
    }


def test_a_correlate_of_two_cells():
    outcomes = assert_matches_reference(two_cell_correlate())
    assert '"verdict": "holds"' in outcomes[-2]
    assert '"verdict": "violated"' in outcomes[-1]


@pytest.mark.parametrize(
    "n_root, joint, verdict",
    [(13, screened_by_the_root, HOLDS), (14, tied_apart_from_the_root, VIOLATED)],
)
def test_plain_wrc_above_twelve_cells(n_root, joint, verdict):
    model = root_below_pair(n_root, joint)
    got = _outcome(lambda: check_wrc(model))
    assert got == _outcome(lambda: ref_wrc(model, cap=16))
    assert json.loads(got)["verdict"] == verdict
    # the conditioned form still enumerates every event of the root
    got = _outcome(lambda: check_wrc(model, conditioned=True))
    assert got.startswith("CapacityError: capacity error: ")
    assert got == _outcome(lambda: ref_wrc(model, conditioned=True))


# -- the pruned so1/so2/so2w walk ---------------------------------------------


SCREENING = (
    ("so1", check_so1),
    ("so2", check_so2),
    ("so2w", check_so2w),
    ("gen-so[mutual]", lambda m: check_generalized_so(m, "mutual")),
    ("gen-so[joint]", lambda m: check_generalized_so(m, "joint")),
    ("penrose-percival", check_penrose_percival),
    ("gen-so[bell]", lambda m: check_generalized_so(m, "bell")),
    ("gen-so[all]", lambda m: check_generalized_so(m, "all")),
    ("multi-so[n=2]", lambda m: check_multi_so(m, 2)),
    ("multi-so[n=3]", lambda m: check_multi_so(m, 3)),
)


def assert_screening_matches_reference(model: StochasticModel) -> dict[str, dict | str]:
    """Every planned check against the full ordinal scan.

    Each report is returned as a dict, or as its error text if the check
    raised (gen-so[joint] and gen-so[bell] do on a pair with a non-convex
    region).
    """
    reports = {}
    for label, run in SCREENING:
        got = _outcome(lambda: run(model))
        assert got == _reference_outcome(label, model), label
        reports[label] = json.loads(got) if got.startswith("{") else got
    return reports


def local_dynamics(rng: random.Random, site: CausalSite, zero_share: float = 0.0) -> StochasticModel:
    """Each element's value drawn given the values of its strict past.

    Such models satisfy so1 and so2 (and so so2w), so every pair's scan runs
    to the end; with ``zero_share`` some conditional probabilities are 0, so
    some past cells carry no weight.
    """
    tables = []
    for e in range(site.n):
        strict = site.past(1 << e) & ~(1 << e)
        configs = itertools.product(*(range(site.alphabets[i]) for i in iter_bits(strict)))
        table = {}
        for cfg in configs:
            nums = [0 if rng.random() < zero_share else rng.randrange(1, 4)
                    for _ in range(site.alphabets[e])]
            nums[rng.randrange(len(nums))] += 1
            table[cfg] = [F(x, sum(nums)) for x in nums]
        tables.append((tuple(iter_bits(strict)), table))
    weights = []
    for digs in itertools.product(*(range(k) for k in site.alphabets)):
        w = F(1)
        for e, (parents, table) in enumerate(tables):
            w *= table[tuple(digs[i] for i in parents)][digs[e]]
        weights.append(w)
    return StochasticModel(site, weights)


def leaves_below_a_root(n_leaves: int, root_weights, coupled=None) -> StochasticModel:
    """Ternary root below binary leaves, independent given the root.

    ``root_weights`` may give a root value weight 0, so that past cell is
    null.  With ``coupled = (i, j)`` leaves i and j are tied beyond the root.
    """
    rng = random.Random(f"{n_leaves}{root_weights}{coupled}")
    elements = [("c", 3)] + [(f"l{i}", 2) for i in range(n_leaves)]
    site = CausalSite(elements, [("c", f"l{i}") for i in range(n_leaves)])
    leaf_ps = [[F(rng.randrange(1, 5), 5) for _ in range(n_leaves)] for _ in range(3)]
    weights = []
    for digs in itertools.product(range(3), *([range(2)] * n_leaves)):
        c, leaves = digs[0], digs[1:]
        w = F(root_weights[c])
        for p, v in zip(leaf_ps[c], leaves):
            w *= p if v else 1 - p
        if coupled is not None:
            i, j = coupled
            w *= 2 if leaves[i] == leaves[j] else 0
        weights.append(w)
    total = sum(weights)
    return StochasticModel(site, [w / total for w in weights])


@pytest.mark.parametrize("n_leaves", [3, 5])
def test_holds_with_null_past_cells(n_leaves):
    # the root never takes value 1: one of its three cells is null in every
    # pair's past, and the skipped pairs count it from their dominator's scan
    reports = assert_screening_matches_reference(leaves_below_a_root(n_leaves, (1, 0, 2)))
    for label in ("so1", "so2", "so2w"):
        assert reports[label]["verdict"] == HOLDS
        assert reports[label]["stats"]["null_conditions_skipped"] == reports[label]["stats"]["region_pairs"]


@pytest.mark.parametrize("coupled", list(itertools.combinations(range(5), 2)))
def test_coupled_leaves_at_every_position(coupled, monkeypatch):
    # the first failing pair moves from the first pair to late in the walk,
    # before, among and after pairs skipped on a held dominator
    model = leaves_below_a_root(5, (1, 0, 2), coupled)
    reports = assert_screening_matches_reference(model)
    scans = []
    original = stochastic._factorization_failure
    monkeypatch.setattr(
        stochastic, "_factorization_failure", lambda *a, **k: scans.append(a) or original(*a, **k)
    )
    so1 = check_so1(model)
    assert so1.verdict == VIOLATED == reports["so1"]["verdict"]
    pairs = so1.stats["region_pairs"]
    # each dominator is scanned at most once, and every failing pair once more
    assert len(set(scans)) == len(scans)
    if coupled == (0, 1):
        assert pairs == 1
    if coupled == (3, 4):
        assert len(scans) < pairs


@pytest.mark.parametrize("seed", range(4))
def test_so2w_with_initial_elements_blocking_extensions(seed):
    # x is initial and spacelike to l0 and l1: so1 and so2 may grow a pair
    # into x, so2w may not, so its dominators differ
    site = CausalSite(
        [("r", 3), ("x", 2), ("l0", 2), ("l1", 2), ("l2", 2), ("y", 2)],
        [("r", "l0"), ("r", "l1"), ("r", "l2"), ("x", "l2"), ("x", "y")],
    )
    rng = random.Random(seed)
    reports = assert_screening_matches_reference(local_dynamics(rng, site, zero_share=0.2))
    assert reports["so2w"]["verdict"] == HOLDS
    assert reports["so2w"]["stats"]["region_pairs"] < reports["so2"]["stats"]["region_pairs"]
    plan_so2 = stochastic._screening_plan(site, "joint", 1)
    plan_so2w = stochastic._screening_plan(site, "joint-clear", 1)
    assert plan_so2w != plan_so2


@pytest.mark.parametrize("alphabets", [(2, 2, 2, 2, 2), (3, 2, 3, 2)])
def test_products_on_larger_antichains(alphabets):
    model = product_on_antichain(random.Random(str(alphabets)), alphabets)
    reports = assert_screening_matches_reference(model)
    assert reports["so1"]["verdict"] == HOLDS


@given(seed=st.integers(0, 10**6), n_sites=st.integers(2, 5), zero_share=st.sampled_from([0.0, 0.3]))
def test_local_dynamics_on_random_sites(seed, n_sites, zero_share):
    rng = random.Random(seed)
    alphabets = [rng.randrange(2, 4 if n_sites <= 4 else 3) for _ in range(n_sites)]
    relations = [(f"t{i}", f"t{j}") for i in range(n_sites) for j in range(i + 1, n_sites)
                 if rng.random() < 0.4]
    site = CausalSite([(f"t{i}", k) for i, k in enumerate(alphabets)], relations)
    reports = assert_screening_matches_reference(local_dynamics(rng, site, zero_share))
    for label in ("so1", "so2", "so2w"):
        assert reports[label]["verdict"] in (HOLDS, VACUOUS)


@given(seed=st.integers(0, 10**6), n_sites=st.integers(2, 6))
def test_deterministic_local_screening(seed, n_sites):
    assert_screening_matches_reference(random_deterministic_local(seed, n_sites))


def maximal_pairs(site: CausalSite, condition: str) -> set[tuple[int, int]]:
    """Unordered screened pairs that no one-element extension keeps the past of."""
    init = site.initial_elements()
    past_of = site.mutual_past if condition == "so1" else site.joint_past

    def screened(a, b):
        return (a and b and not a & b and site.spacelike(a, b)
                and not (condition == "so2w" and (a | b) & init))

    out = set()
    for a, b in stochastic._spacelike_pairs(site):
        if not screened(a, b):
            continue
        past = past_of(a, b)
        free = [1 << e for e in range(site.n) if not (a | b) >> e & 1]
        grown = [(a | x, b) for x in free] + [(a, b | x) for x in free]
        if not any(screened(*g) and past_of(*g) == past for g in grown):
            out.add((min(a, b), max(a, b)))
    return out


PRUNING_SITES = {
    # B = {x} can only grow by y, above x: a pair that needs a B-extension
    "chain-and-point": CausalSite([("x", 2), ("y", 2), ("z", 3)], [("x", "y")]),
    "blocked": CausalSite(
        [("r", 3), ("x", 2), ("l0", 2), ("l1", 2), ("l2", 2), ("y", 2)],
        [("r", "l0"), ("r", "l1"), ("r", "l2"), ("x", "l2"), ("x", "y")],
    ),
    "diamond": CausalSite(
        [("b", 2), ("l", 2), ("r", 2), ("t", 2), ("s", 2)],
        [("b", "l"), ("b", "r"), ("l", "t"), ("r", "t")],
    ),
}


def first_screened_pair(site: CausalSite, condition: str) -> tuple[int, int] | None:
    init = site.initial_elements() if condition == "so2w" else 0
    return next(((a, b) for a, b in stochastic._spacelike_pairs(site) if not (a | b) & init), None)


def expected_scans(model, condition: str, failure=None) -> tuple[set, int] | None:
    """The regions a holding check scans, and how many of its certificates fail.

    The first screened pair is scanned; then each group of pairs with one
    conditioning region P is proved by its certificate (every element of
    the group's union E_P, as singletons, given P) if it has more than one
    maximal pair, or else by each of its maximal pairs; where a certificate
    fails, the maximal pairs are scanned.  `failure(model, regions, past)`
    decides a certificate, by default `ref_factorization_failure`.  With
    that default (so1, so2, so2w) a failed group with more maximal pairs
    than C(|E_P|, 2) + 1 has its blocks searched first, and the result is
    None; the qso walks never search blocks.
    """
    site = model.site
    init = site.initial_elements()
    past_of = site.mutual_past if condition == "so1" else site.joint_past
    pairs = [(a, b) for a, b in stochastic._spacelike_pairs(site)
             if not (condition == "so2w" and (a | b) & init)]
    if not pairs:
        return set(), 0
    unions: dict[int, int] = {}
    for a, b in pairs:
        unions[past_of(a, b)] = unions.get(past_of(a, b), 0) | a | b
    maximal: dict[int, list] = {}
    for a, b in maximal_pairs(site, condition):
        maximal.setdefault(past_of(a, b), []).append((a, b))
    scans = {first_screened_pair(site, condition)}
    failed = 0
    for past, group in maximal.items():
        if len(group) > 1:
            certificate = tuple(1 << e for e in iter_bits(unions[past]))
            scans.add(certificate)
            if (failure or ref_factorization_failure)(model, certificate, past)[0] is None:
                continue
            failed += 1
            if failure is None and len(group) > comb(len(certificate), 2) + 1:
                return None
        scans.update(group)
    return scans, failed


@pytest.mark.parametrize("shape", ["chain-and-point", "blocked", "diamond"])
def test_a_holding_check_scans_each_stand_in_once(shape, monkeypatch):
    site = PRUNING_SITES[shape]
    model = local_dynamics(random.Random(shape), site)
    assert_screening_matches_reference(model)
    scans = recorded_scans(monkeypatch)
    failed = 0
    for label, check in (("so1", check_so1), ("so2", check_so2), ("so2w", check_so2w)):
        del scans[:]
        assert check(model).verdict in (HOLDS, VACUOUS)
        want, n_failed = expected_scans(model, label)
        assert len(scans) == len(set(scans))
        assert {regions for regions, _ in scans} == want, label
        assert [regions for regions, _ in scans[:1]] == [first_screened_pair(site, label)] or not want
        failed += n_failed
    # blocked and diamond hold although a group's elements are not
    # independent, so a certificate fails; its group has too few maximal
    # pairs for a block search to pay, and they are scanned
    assert (failed > 0) == (shape != "chain-and-point")


@pytest.mark.parametrize("shape", [*PRUNING_SITES, "antichain"])
def test_a_pair_and_its_reverse_share_two_stand_in_lists(shape):
    # the fallback of (a, b) is the last stand-in of (b, a), so the plan
    # keeps one list per dominator, never a list per pair
    site = PRUNING_SITES.get(shape) or CausalSite([(f"s{i}", 2) for i in range(5)])
    init = site.initial_elements()
    for rule in ("mutual", "joint", "joint-clear"):
        steps = {step[0]: step for step in stochastic._screening_plan(site, rule, 1)[0]}
        # the plan lists every screened pair once, in pair order
        assert list(steps) == [(a, b) for a, b in stochastic._spacelike_pairs(site)
                               if rule != "joint-clear" or not (a | b) & init]
        assert len(steps) == len(stochastic._screening_plan(site, rule, 1)[0])
        for (a, b), (_, past, keys, fallback, cells, atoms) in steps.items():
            _, r_past, r_keys, r_fallback, r_cells, r_atoms = steps[b, a]
            assert fallback is r_keys[-1] and r_fallback is keys[-1]
            assert (past, cells, atoms) == (r_past, r_cells, r_atoms)
            # each stand-in is keyed by its past, and the last stand-in and
            # the fallback cover the pair, A-first and B-first
            assert {key_past for key_past, _ in (*keys, fallback)} == {past}
            for _, (x, y) in (keys[-1], fallback):
                assert (a & ~x, b & ~y) == (0, 0) or (a & ~y, b & ~x) == (0, 0)


# -- the spacelike lister -----------------------------------------------------


@st.composite
def posets(draw, max_elements: int = 7):
    """A site of 1 to `max_elements` elements under random order relations, declared in a drawn order."""
    n = draw(st.integers(1, max_elements))
    place = draw(st.permutations(range(n)))
    edges = [(place[i], place[j]) for i in range(n) for j in range(i + 1, n)]
    relations = draw(st.lists(st.sampled_from(edges), unique=True)) if edges else []
    return CausalSite([(f"e{i}", 2) for i in range(n)], [(f"e{i}", f"e{j}") for i, j in relations])


def stirling2(m: int, n: int) -> int:
    """Ways to split m labelled items into n nonempty unlabelled blocks."""
    return sum((-1) ** (n - j) * comb(n, j) * j**m for j in range(n + 1)) // factorial(n)


@given(posets())
def test_the_pair_listing_is_every_pair_of_disjoint_spacelike_regions(site):
    # B is disjoint from and spacelike to A exactly when B lies in A's free
    # set S_A, so each A has 2^|S_A| - 1 partners
    assert list(stochastic._spacelike_pairs(site)) == ref_spacelike_pairs(site)
    free = (site.full_mask & ~(site.past(a) | site.future(a)) for a in range(1, site.full_mask + 1))
    assert len(stochastic._spacelike_pairs(site)) == sum(2 ** bin(s).count("1") - 1 for s in free)


@given(posets())
def test_one_strict_past_is_when_the_single_region_rules_agree(site):
    # the mutual, joint and Bell pasts agree on every spacelike pair exactly
    # when every two spacelike elements have one strict past; then so2 and
    # gen-so[bell] take so1's plan without listing their own units
    units = {rule: tuple(stochastic._check_units(site, rule)) for rule in ("mutual", "joint", "bell")}
    agree = units["mutual"] == units["joint"] == units["bell"]
    assert stochastic._one_strict_past(site) == agree
    assert (units["mutual"] == units["joint"]) == (units["mutual"] == units["bell"]) == agree
    for rule in ("joint", "bell"):
        plan = stochastic._screening_plan(site, rule, 1)
        assert plan == stochastic._plan(site, units[rule], True, 1)
        assert (plan is stochastic._screening_plan(site, "mutual", 1)) == agree


@given(posets())
def test_the_mutual_and_all_plans_are_admissible_by_construction(site):
    # so `_admissible_plan` skips its sweep for them: the full sweep of
    # `_inadmissible` over every step of their plans finds nothing
    cones = stochastic._cones(site)
    for selector in ("mutual", "all"):
        steps = stochastic._screening_plan(site, selector, 1)[0]
        assert not any(stochastic._inadmissible(*cones, *step[0], step[1]) for step in steps), selector


@given(posets(), st.integers(2, 4))
def test_the_tuple_listing_is_every_ascending_tuple_of_spacelike_regions(site, n):
    # the ascending n-tuples with union U split U's comparability components
    # into n blocks: a Stirling number of them for each U
    tuples = list(stochastic._spacelike_tuples(site, n))
    assert len(tuples) == sum(stirling2(len(site.comparability_components(u, 0)), n)
                              for u in range(1, site.full_mask + 1))
    if comb(site.full_mask, n) <= 50_000:
        assert tuples == ref_spacelike_tuples(site, n)
    else:  # too many candidates to filter: each listed tuple is one, in their order, and the count is theirs
        assert tuples == sorted(set(tuples))
        assert all(list(t) == sorted(t) for t in tuples)
        assert all(not x & y and site.spacelike(x, y) for t in tuples for x, y in itertools.combinations(t, 2))


# -- group certificates -------------------------------------------------------


PAIRWISE = {"so1": check_so1, "so2": check_so2, "so2w": check_so2w}


def recorded_scans(monkeypatch) -> list:
    scans = []
    original = stochastic._factorization_failure
    monkeypatch.setattr(
        stochastic, "_factorization_failure",
        lambda m, regions, past, **k: scans.append((regions, past)) or original(m, regions, past, **k),
    )
    return scans


def recorded_passes(monkeypatch) -> list:
    """The (E_P, P) of every pair pass of a block search, in order."""
    passes = []
    original = stochastic._dependent_pairs
    monkeypatch.setattr(
        stochastic, "_dependent_pairs",
        lambda m, past, union, tables: passes.append((union, past)) or original(m, past, union, tables),
    )
    return passes


@pytest.mark.parametrize("alphabets", [(2, 2), (2, 3, 2), (2, 2, 2, 2), (3, 2, 2, 2, 2), (2,) * 6])
def test_a_product_on_an_antichain_is_certified_at_once(alphabets, monkeypatch):
    # every pair has the empty past, and every site is independent of the
    # others: after the first pair, the certificate of all k sites holds; with
    # k = 2 the one maximal pair is the whole group, so no certificate is tried
    # gen-so[bell] and the dissection walk of penrose-percival, whose only P
    # is the empty past too, make so1's scans; multi-so[n=3] scans its first
    # triple, then the same certificate, which on 3 sites is that triple
    # itself (and on 2 sites there is no triple)
    model = product_on_antichain(random.Random(f"certified {alphabets}"), alphabets)
    reports = assert_screening_matches_reference(model)
    assert reports["so1"]["verdict"] == reports["so2"]["verdict"] == HOLDS
    assert reports["so2w"]["verdict"] == VACUOUS
    scans = recorded_scans(monkeypatch)
    k = len(alphabets)
    certificate = [(tuple(1 << e for e in range(k)), 0)] if k > 2 else []
    so1 = [((1, 2), 0)] + certificate
    want = {
        "so1": so1,
        "gen-so[bell]": so1,
        "penrose-percival": so1 + so1,  # its so1 verdict, then its dissection walk
        "multi-so[n=3]": [((1, 2, 4), 0)] + (certificate if k > 3 else []) if k > 2 else [],
    }
    for label, run in SCREENING:
        if label in want:
            del scans[:]
            run(model)
            assert scans == want[label], label


def test_a_late_violation_is_the_ordinal_one_in_every_planned_check(monkeypatch):
    # leaves l3 and l4 are tied beyond the root: the certificate of the
    # leaves fails, and every planned check reaches the first failing unit,
    # counterexample and stats of its ordinal scan, late in its walk
    model = leaves_below_a_root(5, (1, 1, 2), coupled=(3, 4))
    reports = assert_screening_matches_reference(model)
    scans = recorded_scans(monkeypatch)
    walks = {}
    for label, run in SCREENING:
        stats = reports[label]["stats"]
        assert reports[label]["verdict"] == VIOLATED, label
        assert stats.get("region_pairs", stats.get("region_tuples")) > 10, label
        del scans[:]
        run(model)
        walks[label] = list(scans)
        assert (tuple(1 << e for e in range(1, 6)), 1) in scans, label
    # each pair's only dissection is the root, its mutual past: the
    # dissection walk is so1's, after the so1 verdict's own
    assert walks["penrose-percival"] == walks["so1"] * 2


@settings(max_examples=50)
@given(seed=st.integers(0, 10**6), n_elements=st.integers(3, 6),
       weights=st.sampled_from(["product", "local", "random"]))
def test_planned_checks_on_drawn_posets(seed, n_elements, weights):
    # any order, so regions may be non-convex and gen-so[joint] and
    # gen-so[bell] may raise; a product measure holds everywhere, local
    # dynamics hold so1 and so2, and random weights (some 0) mostly fail
    # early; every gen-so selector, multi-so and penrose-percival is the
    # ordinal scan's, error texts included
    rng = random.Random(seed)
    alphabets = [rng.choice((2, 3)) if n_elements < 5 else 2 for _ in range(n_elements)]
    relations = [(f"e{i}", f"e{j}") for i, j in itertools.combinations(range(n_elements), 2)
                 if rng.random() < 0.3]
    site = CausalSite([(f"e{i}", k) for i, k in enumerate(alphabets)], relations)
    if weights == "local":
        model = local_dynamics(rng, site, zero_share=0.2)
    elif weights == "product":
        model = local_dynamics(rng, CausalSite([(f"e{i}", k) for i, k in enumerate(alphabets)]))
        model = StochasticModel(site, model.weights)
    else:
        nums = [rng.choice((0, 0, 1, 2, 3)) for _ in range(n_histories(site))]
        nums[rng.randrange(len(nums))] += 1
        model = StochasticModel(site, [F(x, sum(nums)) for x in nums])
    for label, run in SCREENING[3:]:
        assert _outcome(lambda: run(model)) == _reference_outcome(label, model), label


@pytest.mark.parametrize("coupled", list(itertools.combinations(range(7), 2)))
def test_seven_leaves_coupled_at_every_position(coupled, monkeypatch):
    # the 7-leaf certificate fails wherever the coupled pair sits; one pass
    # over its table finds the coupled pair's block, the 6 blocks hold, and
    # each later pair is decided by its restriction to that block: the first
    # pair that splits it is ({li}, {lj}) itself, so 4 scans in all
    model = leaves_below_a_root(7, (1, 1, 2), coupled)
    # every pair is of leaves, with the root as mutual and joint past, and
    # only the root is initial: the three ordinal scans are the same scan
    site = model.site
    assert site.initial_elements() == 1
    assert {(site.mutual_past(a, b), site.joint_past(a, b))
            for a, b in stochastic._spacelike_pairs(site)} == {(1, 1)}
    want = ref_so1(model)
    assert want.verdict == VIOLATED
    failing = stochastic._spacelike_pairs(site)[want.stats["region_pairs"] - 1]
    leaves = tuple(1 << e for e in range(1, 8))
    tied = sum(leaves[i] for i in coupled)
    assert failing == tuple(leaves[i] for i in coupled)
    blocks = tuple(sorted([x for x in leaves if not x & tied] + [tied]))
    if coupled == (0, 1):
        walk, searched = [failing], []
    else:
        walk, searched = [leaves[:2], leaves, blocks, failing], [(sum(leaves), 1)]
    scans = recorded_scans(monkeypatch)
    passes = recorded_passes(monkeypatch)
    for label, check in PAIRWISE.items():
        del scans[:], passes[:]
        got = _outcome(lambda: check(model))
        assert got == _outcome(lambda: replace(want, condition=label)), label
        assert scans == [(r, 1) for r in walk], label
        assert passes == searched, label
    for label, run in SCREENING[3:5]:
        assert _outcome(lambda: run(model)) == _reference_outcome(label, model), label


@pytest.mark.parametrize("coupled", [False, True])
def test_gen_so_makes_the_scans_of_so1_and_so2(coupled, monkeypatch):
    # gen-so[mutual] and gen-so[joint] walk so1's and so2's plans: on the
    # common cause below 7 leaves, 2 scans when it holds (the first pair and
    # the 7-leaf certificate); 4 when the last two leaves are coupled: the
    # first pair, the certificate, the 6 blocks after one pass over the
    # certificate's table, and the coupled pair, its own restriction
    model = common_cause(random.Random(3), 7, coupled)
    leaves = tuple(1 << e for e in range(1, 8))
    blocks = (*leaves[:5], leaves[5] | leaves[6])
    walk = [leaves[:2], leaves, blocks, leaves[5:]] if coupled else [leaves[:2], leaves]
    scans = recorded_scans(monkeypatch)
    passes = recorded_passes(monkeypatch)
    for pairwise, selector in ((check_so1, "mutual"), (check_so2, "joint")):
        del scans[:], passes[:]
        pairwise(model)
        want = list(scans), list(passes)
        del scans[:], passes[:]
        check_generalized_so(model, selector)
        assert (scans, passes) == want
        assert scans == [(r, 1) for r in walk]
        assert passes == [(sum(leaves), 1)] * coupled


def test_the_other_searching_checks_make_one_pass_per_failed_group(monkeypatch):
    # on the common cause below 7 leaves with the last two coupled, each
    # check searches a marked group's blocks by one pass over the table its
    # failed certificate built: multi-so[n=2] makes so1's 4 scans (577 with
    # dominators alone); penrose-percival makes them twice, for its so1
    # verdict and its dissection walk; gen-so[all] searches again for each
    # of the 16 marked conditioning regions P whose certificate fails, and
    # makes 252 scans; every P holds the root, and each pass reads the one
    # table of the site
    model = common_cause(random.Random(3), 7, True)
    leaves = tuple(1 << e for e in range(1, 8))
    so1 = [(r, 1) for r in (leaves[:2], leaves, (*leaves[:5], leaves[5] | leaves[6]), leaves[5:])]
    scans = recorded_scans(monkeypatch)
    passes = recorded_passes(monkeypatch)
    check_multi_so(model, 2)
    assert (scans, passes) == (so1, [(sum(leaves), 1)])
    del scans[:], passes[:]
    check_penrose_percival(model)
    assert (scans, passes) == (so1 * 2, [(sum(leaves), 1)] * 2)
    del scans[:], passes[:]
    check_generalized_so(model, "all")
    assert len(scans) == len(set(scans)) == 252
    assert len(passes) == len(set(passes)) == 16
    assert {union | past for union, past in passes} == {model.site.full_mask}
    assert all(past & 1 for _, past in passes)


def non_convex_late() -> CausalSite:
    """Three roots below a chain u0 < mid < u1, and w apart from all.

    A region is non-convex only if it holds mid or u1 and misses an element
    below it, and then only w is spacelike to it: every such pair has a
    region of mask at least mid's, so it comes late in pair order.
    """
    return CausalSite(
        [("e0", 2), ("e1", 2), ("e2", 2), ("u0", 2), ("mid", 2), ("u1", 2), ("w", 2)],
        [("e0", "u0"), ("e1", "u0"), ("e2", "u0"), ("u0", "mid"), ("mid", "u1")],
    )


def test_a_selector_error_surfaces_at_its_own_pair():
    site = non_convex_late()
    pairs = stochastic._spacelike_pairs(site)
    convex = [not site.joint_past(a, b) & (site.future(a) | site.future(b)) for a, b in pairs]
    first_bad = convex.index(False)
    # 40 of the 162 pairs come before the first non-convex one
    assert (first_bad, len(pairs)) == (40, 162)
    n = n_histories(site)
    uniform = StochasticModel(site, [F(1, n)] * n)
    # w is a copy of u0: ({u0}, {w}) fails given the roots, before any
    # non-convex pair
    tied = StochasticModel(site, [F(2, n) * (history_digits(site, h)[3] == history_digits(site, h)[6])
                                  for h in range(n)])
    label, run = SCREENING[4]
    for model in (uniform, tied):
        got = _outcome(lambda: run(model))
        assert got == _reference_outcome(label, model)
        if model is uniform:
            assert got.startswith("SelectorError: selector error: region ")
            assert "intersects the future of the pair" in got
            # so2 carries no admissibility demand
            assert check_so2(model).verdict == HOLDS
        else:
            report = json.loads(got)
            assert report["verdict"] == VIOLATED
            assert report["stats"]["region_pairs"] <= first_bad
            assert report["counterexample"]["regions"] == {
                "A": ["u0"], "B": ["w"], "past": ["e0", "e1", "e2"],
            }


def one_block_scans(site: CausalSite, label: str, failing: tuple[int, int]) -> set:
    """What a check of leaves below a root may scan, the dependence in one block.

    Given the root, the leaves' dependence lies in one block K: a pair that
    does not split K has a dominator that holds, the A-first one if K misses
    B and the B-first one if K misses A.  So only the first pair, the
    certificate of all leaves, the maximal pairs and the first failing pair
    are scanned, each given the root.
    """
    leaves = tuple(1 << e for e in iter_bits(site.full_mask & ~1))
    regions = {first_screened_pair(site, label), leaves, failing} | maximal_pairs(site, label)
    return {(r, 1) for r in regions}


def tied_block_scans(n_leaves: int, blocks, failing: tuple[int, int]) -> list:
    """What so1, so2 or so2w scans, in order, on tied blocks of leaves below a root.

    The leaves l0, l1, ... sit below the root c; the first pair ({l0}, {l1})
    is scanned, and fails where l0 and l1 are tied.  Otherwise the
    certificate of all leaves fails, and with more maximal pairs than leaf
    pairs, plus one (5 or more leaves), one pass over its table finds the
    tied blocks, and the blocks' certificate is scanned.  It holds, so a pair
    that splits no tied block holds on it.  The first that splits one is
    `failing`: its restriction to the first such block fails, and it is
    scanned itself, unless it is that restriction.
    """
    leaves = [2 << i for i in range(n_leaves)]
    first = (leaves[0], leaves[1])
    if failing == first:
        return [(failing, 1)]
    ties = sorted(sum(leaves[i] for i in block) for block in blocks)
    singles = tuple(x for x in leaves if not x & sum(ties))
    a, b = failing
    restriction = next(tuple(sorted((a & k, b & k))) for k in ties if a & k and b & k)
    regions = [first, tuple(leaves), tuple(sorted(singles + tuple(ties))), restriction]
    return [(r, 1) for r in regions + [failing] * (failing != restriction)]


def leaves_with_coupled_blocks(
    rng: random.Random, n_leaves: int, blocks, xor: bool = False, root_weights=(1, 2, 3),
) -> StochasticModel:
    """Ternary root below binary leaves; the leaves of each block take one value.

    Outside the blocks the leaves are independent given the root, and so
    are the blocks, so the dependence given the root lies within each block.
    With ``xor`` the first block is a triple (x, y, z) of fair leaves with
    z = x XOR y instead: pairwise independent given the root, but not
    jointly.  ``root_weights`` may give a root value weight 0.
    """
    elements = [("c", 3)] + [(f"l{i}", 2) for i in range(n_leaves)]
    site = CausalSite(elements, [("c", f"l{i}") for i in range(n_leaves)])
    leaf_ps = [[F(rng.randrange(1, 5), 5) for _ in range(n_leaves)] for _ in range(3)]
    if xor:
        for ps in leaf_ps:
            for i in blocks[0]:
                ps[i] = F(1, 2)
    weights = []
    for c, *leaves in itertools.product(range(3), *([range(2)] * n_leaves)):
        w = F(root_weights[c])
        for p, v in zip(leaf_ps[c], leaves):
            w *= p if v else 1 - p
        tied = all(len({leaves[i] for i in block}) == 1 for block in blocks[xor:])
        if xor:
            x, y, z = blocks[0]
            tied = tied and leaves[z] == leaves[x] ^ leaves[y]
        weights.append(w if tied else F(0))
    return StochasticModel(site, [w / sum(weights) for w in weights])


@pytest.mark.parametrize("blocks", [((1, 2), (0, 5)), ((0, 3), (1, 4)), ((1, 2), (0, 4, 5))])
def test_two_coupled_blocks_decide_their_pairs_by_restriction(blocks, monkeypatch):
    # ({l0}, {l2}) with blocks {l1, l2} and {l0, l5} splits neither block, so
    # it holds on the blocks' certificate without a scan of its own; one pass
    # over the leaves' table finds the blocks, and before the first failure
    # only the first pair and the two certificates are scanned
    model = leaves_with_coupled_blocks(random.Random(f"blocks {blocks}"), 6, blocks)
    site = model.site
    scans = recorded_scans(monkeypatch)
    passes = recorded_passes(monkeypatch)
    masks = [sum(2 << i for i in block) for block in blocks]
    certificate = tuple(sorted([2 << i for i in range(6) if not 2 << i & sum(masks)] + masks))
    for label, check in PAIRWISE.items():
        del scans[:], passes[:]
        got = _outcome(lambda: check(model))
        assert got == _outcome(lambda: REF_SCREENING[label](model)), label
        report = json.loads(got)
        assert report["verdict"] == VIOLATED
        failing = stochastic._spacelike_pairs(site)[report["stats"]["region_pairs"] - 1]
        assert scans == tied_block_scans(6, blocks, failing), label
        assert (certificate, 1) in scans, label
        assert passes == [(site.full_mask - 1, 1)], label


@given(seed=st.integers(0, 10**6), n_leaves=st.integers(3, 5), data=st.data())
def test_one_coupled_block_below_a_root(seed, n_leaves, data):
    # wherever the block lies, the first failure is the ordinal one; with 5
    # leaves every pair before it is decided by its restriction to the
    # block, and with 3 or 4, whose groups have no more maximal pairs than
    # leaf pairs, plus one, by a dominator that holds
    block = data.draw(st.lists(st.integers(0, n_leaves - 1), min_size=2, max_size=3, unique=True))
    model = leaves_with_coupled_blocks(random.Random(seed), n_leaves, [block])
    site = model.site
    with pytest.MonkeyPatch.context() as m:
        scans = recorded_scans(m)
        for label, check in PAIRWISE.items():
            del scans[:]
            got = _outcome(lambda: check(model))
            assert got == _outcome(lambda: REF_SCREENING[label](model)), label
            report = json.loads(got)
            assert report["verdict"] == VIOLATED
            failing = stochastic._spacelike_pairs(site)[report["stats"]["region_pairs"] - 1]
            if n_leaves == 5:
                assert scans == tied_block_scans(n_leaves, [block], failing), label
            else:
                assert len(set(scans)) == len(scans)
                assert set(scans) <= one_block_scans(site, label, failing), label


@st.composite
def leaf_blocks(draw) -> StochasticModel:
    """4-7 leaves below a root, with 1-3 disjoint tied blocks of 2-3 leaves.

    In one variant the first block is an XOR triple, pairwise independent
    but not jointly: its leaves are singleton blocks, and the walk falls
    back to dominators.  Some roots have a value of weight 0.
    """
    n_leaves = draw(st.integers(4, 7))
    order = draw(st.permutations(range(n_leaves)))
    blocks, used = [], 0
    for size in draw(st.lists(st.integers(2, 3), min_size=1, max_size=3)):
        if used + size <= n_leaves:
            blocks.append(tuple(sorted(order[used:used + size])))
            used += size
    xor = len(blocks[0]) == 3 and draw(st.booleans())
    root_weights = draw(st.sampled_from([(1, 2, 3), (1, 0, 2)]))
    rng = random.Random(draw(st.integers(0, 10**6)))
    return leaves_with_coupled_blocks(rng, n_leaves, blocks, xor, root_weights)


@settings(max_examples=25)
@given(leaf_blocks())
def test_tied_and_xor_blocks_below_a_root(model):
    # every planned check, decided by block restrictions where the blocks'
    # certificate holds and by dominators where it fails, is the ordinal scan
    assert_screening_matches_reference(model)


# (leaves, blocks, xor, root weights, scans of so1, so2 and so2w) of models
# that pin the block path
BLOCK_MODELS = {
    "two tied blocks": (6, [(1, 2), (0, 5)], False, (1, 2, 3), 4),
    "a tied block and a null root value": (5, [(2, 4)], False, (1, 0, 2), 4),
    "an xor triple": (5, [(1, 2, 3)], True, (1, 2, 3), 22),
    "an xor triple and a tied pair": (5, [(0, 1, 2), (3, 4)], True, (1, 0, 2), 8),
}


@pytest.mark.parametrize("name", list(BLOCK_MODELS))
def test_the_block_path_is_the_ordinal_scan(name, monkeypatch):
    # tied blocks are decided by their restrictions, each scanned once; a
    # null root cell is skipped by every pair decided without a scan; an
    # XOR triple is found as three singleton blocks, and beside a tied pair
    # the blocks' certificate is scanned and fails: both fall back to the
    # dominators, and the failed search costs one pass and the blocks'
    # certificate, if any, over the walk that never searches; the scan
    # counts are pinned
    n_leaves, blocks, xor, root_weights, n_scans = BLOCK_MODELS[name]
    model = leaves_with_coupled_blocks(random.Random(name), n_leaves, blocks, xor, root_weights)
    reports = assert_screening_matches_reference(model)
    for label in PAIRWISE:
        assert reports[label]["verdict"] == VIOLATED
        assert (reports[label]["stats"]["null_conditions_skipped"] > 0) == (0 in root_weights)
    leaves = tuple(2 << i for i in range(n_leaves))
    tied = [sum(leaves[i] for i in block) for block in blocks[xor:]]
    certificates = [leaves] + [tuple(sorted([x for x in leaves if not x & sum(tied)] + tied))] * bool(tied)
    scans = recorded_scans(monkeypatch)
    passes = recorded_passes(monkeypatch)
    for label, check in PAIRWISE.items():
        del scans[:], passes[:]
        check(model)
        assert len(scans) == len(set(scans)) == n_scans, label
        assert passes == [(sum(leaves), 1)], label
        # the group's certificate, then the blocks' where a block is tied
        assert [regions for regions, _ in scans if len(regions) > 2] == certificates, label
        if not xor:
            failing = stochastic._spacelike_pairs(model.site)[reports[label]["stats"]["region_pairs"] - 1]
            assert scans == tied_block_scans(n_leaves, blocks, failing), label
            continue
        if tied:
            assert ref_factorization_failure(model, certificates[1], 1)[0] is not None
        searched = list(scans)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(stochastic, "_split", lambda *args: None)
            del scans[:]
            check(model)
        assert searched == scans[:2] + [(r, 1) for r in certificates[1:]] + scans[2:], label


def test_multi_so_scans_each_block_restriction_once(monkeypatch):
    # leaves l2 and l3 are tied: multi-so[n=2] fails at its 37th tuple,
    # ({l2}, {l3}), after its first tuple, the failed 5-leaf certificate,
    # one pass over its table and the 4 blocks: 4 scans, against one per
    # tuple when a failed certificate fell back to dominators
    model = leaves_with_coupled_blocks(random.Random(1), 5, [(2, 3)])
    scans = recorded_scans(monkeypatch)
    passes = recorded_passes(monkeypatch)
    report = check_multi_so(model, 2)
    assert _outcome(lambda: report) == _reference_outcome("multi-so[n=2]", model)
    assert report.stats["region_tuples"] == 37
    leaves = tuple(2 << i for i in range(5))
    blocks = (leaves[0], leaves[1], leaves[2] | leaves[3], leaves[4])
    assert scans == [(r, 1) for r in (leaves[:2], leaves, blocks, leaves[2:4])]
    assert passes == [(sum(leaves), 1)]


def test_one_block_ends_the_block_search(monkeypatch):
    # given the root, l0 and l1 are independent and l2 = l3 = l4 = l0 AND l1:
    # the first pair holds and the 5-leaf certificate fails; one pass over
    # its table finds every leaf in one block, so no blocks' certificate is
    # scanned.  The dominators of ({l0}, {l2}) fail, and it is scanned itself
    rng = random.Random(5)
    site = CausalSite([("c", 3)] + [(f"l{i}", 2) for i in range(5)], [("c", f"l{i}") for i in range(5)])
    ps = [[F(rng.randrange(1, 5), 5) for _ in range(2)] for _ in range(3)]
    weights = []
    for c, *l in itertools.product(range(3), *([range(2)] * 5)):
        w = F(c + 1) * (ps[c][0] if l[0] else 1 - ps[c][0]) * (ps[c][1] if l[1] else 1 - ps[c][1])
        weights.append(w if l[2] == l[3] == l[4] == l[0] & l[1] else F(0))
    model = StochasticModel(site, [w / sum(weights) for w in weights])
    reports = assert_screening_matches_reference(model)
    l0, l1, l2, l3, l4 = (2 << i for i in range(5))
    scans = recorded_scans(monkeypatch)
    passes = recorded_passes(monkeypatch)
    for label, check in PAIRWISE.items():
        assert reports[label]["stats"]["region_pairs"] == 2, label
        del scans[:], passes[:]
        check(model)
        assert scans == [(r, 1) for r in ((l0, l1), (l0, l1, l2, l3, l4),
                                          (l2, l0 | l1 | l3 | l4), (l0, l1 | l2 | l3 | l4), (l0, l2))], label
        assert passes == [(site.full_mask - 1, 1)], label


# integer weights of the values of a binary or a ternary element; (2, 1, 3)
# weighs one third at 0
VALUE_WEIGHTS = {2: [(1, 1), (1, 3)], 3: [(1, 1, 1), (2, 1, 3)]}


@st.composite
def pair_pass_models(draw):
    """(model, P, E_P) on an antichain of 3-6 elements with alphabets 2 and 3.

    An element is of P, of E_P or of neither, and one of P's lies between
    two of E_P's, so P's cells are not contiguous in the table of P ∪ E_P.
    Some cells of P have weight 0.  Each element of E_P takes its own value
    weights, the same or drawn anew in each cell of P, or is tied to an
    earlier one (that value modulo its alphabet), or is the XOR (the sum
    modulo its alphabet) of two earlier ones, or takes drawn value weights
    w, read at the negated value where an earlier one is odd.  Uniform
    inputs make an XOR triple pairwise independent.  A ternary element with
    w = (2, 1, 3) is 0 with weight one third whatever its source is, so the
    pair meets the product rule at the value pair (0, 0), and fails it at
    (0, 1) where the source is odd and even, each with positive weight.
    """
    roles = draw(st.lists(st.sampled_from("PEx"), max_size=3))
    at = draw(st.integers(0, len(roles)))
    roles[at:at] = ["E", "P", "E"]
    alphabets = draw(st.lists(st.sampled_from((2, 3)), min_size=len(roles), max_size=len(roles)))
    rng = random.Random(draw(st.integers(0, 10**6)))
    site = CausalSite([(f"e{i}", k) for i, k in enumerate(alphabets)])
    past = sum(1 << i for i, role in enumerate(roles) if role == "P")
    union = sum(1 << i for i, role in enumerate(roles) if role == "E")
    cells = list(itertools.product(*(range(alphabets[i]) for i in iter_bits(past))))
    past_weights = draw(st.lists(st.sampled_from((0, 1, 2)), min_size=len(cells), max_size=len(cells)))
    past_weights[0] += not any(past_weights)
    factors = []  # each element's weight, given a history's values and its cell of P
    earlier = []
    for e, role in enumerate(roles):
        k = alphabets[e]
        kind = draw(st.sampled_from(("own", "tie", "flip", "xor"))) if role == "E" else "own"
        if kind == "own" or len(earlier) < 1 + (kind == "xor"):
            own = {cell: rng.choice(VALUE_WEIGHTS[k]) for cell in cells} if rng.random() < 0.5 else None
            fixed = rng.choice(VALUE_WEIGHTS[k])
            factors.append(lambda v, cell, e=e, own=own, fixed=fixed: (own[cell] if own else fixed)[v[e]])
        elif kind == "tie":
            src = rng.choice(earlier)
            factors.append(lambda v, cell, e=e, k=k, src=src: int(v[e] == v[src] % k))
        elif kind == "flip":
            src, w = rng.choice(earlier), rng.choice(VALUE_WEIGHTS[k])
            factors.append(lambda v, cell, e=e, k=k, src=src, w=w: w[v[e] * (-1) ** v[src] % k])
        else:
            x, y = rng.sample(earlier, 2)
            factors.append(lambda v, cell, e=e, k=k, x=x, y=y: int(v[e] == (v[x] + v[y]) % k))
        if role == "E":
            earlier.append(e)
    weights = []
    for v in itertools.product(*(range(k) for k in alphabets)):
        cell = tuple(v[i] for i in iter_bits(past))
        weights.append(past_weights[cells.index(cell)] * prod(f(v, cell) for f in factors))
    total = sum(weights)
    return StochasticModel(site, [F(w, total) for w in weights]), past, union


@settings(max_examples=60)
@given(pair_pass_models())
def test_the_pair_pass_finds_the_failing_element_pairs(drawn):
    # the pass over the table the failed certificate of E_P given P built
    # finds exactly the element pairs whose own scans fail, and builds no
    # table of its own
    model, past, union = drawn
    singles = tuple(1 << e for e in iter_bits(union))
    want = [(x, y) for x, y in itertools.combinations(singles, 2)
            if ref_factorization_failure(model, (x, y), past)[0] is not None]
    tables = {}
    stochastic._factorization_failure(model, singles, past, tables=tables)
    assert stochastic._dependent_pairs(model, past, union, tables) == want
    assert list(tables) == [past | union]


# so1, so2, so2w and the built-in gen-so selectors, with each one's
# conditioning regions of a pair
FIRST_UNIT_CHECKS = {
    "so1": (check_so1, "gen-so[mutual]"),
    "so2": (check_so2, "gen-so[joint]"),
    "so2w": (check_so2w, "gen-so[joint]"),
    **{f"gen-so[{sel}]": (lambda m, sel=sel: check_generalized_so(m, selector=sel), f"gen-so[{sel}]")
       for sel in ("mutual", "joint", "bell", "all")},
}


@pytest.mark.parametrize("label", list(FIRST_UNIT_CHECKS))
def test_a_first_pair_failure_scans_once_and_builds_no_plan(label, monkeypatch):
    # nearly every random model fails at its first screened pair; such a
    # check scans that pair given its conditioning regions in order, up to
    # the failing one, and builds no plan, so it tries no certificate
    check, pasts_label = FIRST_UNIT_CHECKS[label]
    models = []
    for seed in range(120):
        model = random_stochastic(seed, 3 + seed % 2, 2)
        want = _reference_outcome(label, model)
        report = json.loads(want)
        if report["verdict"] == VIOLATED and report["stats"]["region_pairs"] == 1:
            models.append((model, want, report["stats"].get("conditioning_regions", 1)))
    assert len(models) >= 30

    def no_plan(*args):
        raise AssertionError("a plan was built for a first-pair failure")

    monkeypatch.setattr(stochastic, "_screening_plan", no_plan)
    scans = recorded_scans(monkeypatch)
    for model, want, n_scanned in models:
        del scans[:]
        assert _outcome(lambda: check(model)) == want
        first = first_screened_pair(model.site, label)
        pasts = REF_PAIR_PASTS[pasts_label](model.site, *first)
        assert scans == [(first, past) for past in pasts[:n_scanned]]


@given(seed=st.integers(0, 10**6), n_leaves=st.integers(2, 5), coupled=st.booleans())
def test_leaves_below_a_local_root(seed, n_leaves, coupled):
    # local dynamics on a root below leaves, some leaves also below others:
    # the groups' certificates hold or fail by the draw, and with
    # ``coupled`` two leaves are tied beyond the root
    rng = random.Random(seed)
    names = [f"l{i}" for i in range(n_leaves)]
    relations = [("r", l) for l in names]
    relations += [(names[i], names[j]) for i in range(n_leaves) for j in range(i + 1, n_leaves)
                  if rng.random() < 0.2]
    site = CausalSite([("r", 3)] + [(l, 2) for l in names], relations)
    model = local_dynamics(rng, site, zero_share=rng.choice([0.0, 0.3]))
    if coupled:
        weights = [w * (history_digits(site, h)[1] == history_digits(site, h)[2])
                   for h, w in enumerate(model.weights)]
        if not any(weights):
            return
        model = StochasticModel(site, [w / sum(weights) for w in weights])
    reports = assert_screening_matches_reference(model)
    with pytest.MonkeyPatch.context() as m:
        scans = recorded_scans(m)
        for label, check in PAIRWISE.items():
            del scans[:]
            check(model)
            if reports[label]["verdict"] == HOLDS and (want := expected_scans(model, label)):
                assert {regions for regions, _ in scans} == want[0], label


# -- group proofs ---------------------------------------------------------------


@st.composite
def proof_models(draw) -> StochasticModel:
    """A measure on a drawn poset of 1-6 binary elements.

    A product of the elements' marginals holds every planned check; two
    independent blocks, each with its own random joint, fail the
    certificates that span both blocks' dependences; a `random_stochastic`
    draw brings its own site and mostly fails early.  Some weights are 0.
    """
    kind = draw(st.sampled_from(["product", "blocks", "random"]))
    rng = random.Random(draw(st.integers(0, 10**6)))
    if kind == "random":
        return random_stochastic(rng.randrange(10**6), draw(st.integers(1, 6)), 2)
    site = draw(posets(6))
    if kind == "product":
        parts = [1 << e for e in range(site.n)]
    else:
        block = draw(st.integers(0, site.full_mask))
        parts = [p for p in (block, site.full_mask & ~block) if p]
    tables = []
    for part in parts:
        nums = [rng.choice((0, 1, 2, 3)) for _ in range(n_configs(site, part))]
        nums[rng.randrange(len(nums))] += 1
        tables.append((config_indices(site, part), nums, sum(nums)))
    den = prod(total for _, _, total in tables)
    weights = [prod(nums[cells[h]] for cells, nums, _ in tables) for h in range(n_histories(site))]
    return StochasticModel(site, [F(w, den) for w in weights])


def outcomes_with_and_without_proofs(model, runs, module, scan: str) -> list[list[tuple[str, int]]]:
    """Each run's outcome and scan count, with the proof pass and then without it.

    Without it, `_proved` fails every plan, so each check walks its steps.
    """
    rows = []
    for proved in (stochastic._proved, lambda *args: None):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(stochastic, "_proved", proved)
            calls = []
            original = getattr(module, scan)
            m.setattr(module, scan, lambda *a, **k: calls.append(a[1:3]) or original(*a, **k))
            row = []
            for run in runs:
                del calls[:]
                row.append((_outcome(lambda: run(model)), len(calls)))
            rows.append(row)
    return rows


@settings(max_examples=200)
@given(proof_models())
def test_held_proofs_decide_as_the_walk_does(model):
    # a check whose group proofs all hold reports the walk's stats, and one
    # whose proof fails walks on, reusing the proofs it scanned: every
    # report, error text and scan count is the walk's
    proved, walked = outcomes_with_and_without_proofs(
        model, [run for _, run in SCREENING], stochastic, "_factorization_failure")
    for (label, _), got, want in zip(SCREENING, proved, walked):
        assert got == want, label
