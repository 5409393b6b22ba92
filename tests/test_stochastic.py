"""Probability measures and the classical screening / common-cause checks.

Derived expectations were computed with the definition-level oracles at the
bottom of this file (plain Fraction arithmetic, no cell tables) and frozen
inline.  Counterexample values double as regression pins for the
deterministic scan order.
"""
from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import pytest

from test_order import antichain, chain, coin_site, diamond

import screenoff.stochastic as stochastic
from screenoff.events import (
    dom,
    full_specifications,
    history_digits,
    history_index,
    n_histories,
    omega,
)
from screenoff.exprs import parse_event
from screenoff.order import CausalSite, iter_bits
from screenoff.report import HOLDS, VACUOUS, VIOLATED
from screenoff.stochastic import (
    EXHAUSTIVE_EVENT_LIMIT,
    MeasureError,
    PreconditionError,
    SelectorError,
    StochasticModel,
    check_generalized_so,
    check_multi_so,
    check_pcc_original,
    check_pcc_rev1,
    check_pcc_rev2,
    check_penrose_percival,
    check_so1,
    check_so2,
    check_so2w,
    check_wrc,
    correlated,
    deterministic_local_model,
    find_screening_events,
    find_simpson_events,
)

F = Fraction


# -- model builders --------------------------------------------------------


def sparse_model(site: CausalSite, entries: dict[tuple[int, ...], Fraction]) -> StochasticModel:
    weights = [F(0)] * n_histories(site)
    for digs, w in entries.items():
        weights[history_index(site, digs)] = w
    return StochasticModel(site, weights)


def anticorrelated_coins() -> StochasticModel:
    # shared source, then two perfectly anticorrelated outcomes
    return sparse_model(coin_site(), {(0, 0, 1): F(1, 2), (1, 1, 0): F(1, 2)})


def biased_coins() -> StochasticModel:
    # c=1 biases both outcomes towards 1, c=0 towards 0; positively correlated
    entries = {}
    for c in (0, 1):
        p = F(3, 4) if c else F(1, 4)
        for a in (0, 1):
            for b in (0, 1):
                wa = p if a else 1 - p
                wb = p if b else 1 - p
                entries[(c, a, b)] = F(1, 2) * wa * wb
    return sparse_model(coin_site(), entries)


def selection_reversal() -> StochasticModel:
    # outcomes independent overall but perfectly (anti)correlated within
    # each value of the selection element
    return sparse_model(
        coin_site(),
        {
            (0, 0, 1): F(1, 4),
            (0, 1, 0): F(1, 4),
            (1, 0, 0): F(1, 4),
            (1, 1, 1): F(1, 4),
        },
    )


def parity_triple() -> StochasticModel:
    # three pairwise-independent bits whose parity is forced even
    site = antichain(3)
    return sparse_model(
        site,
        {
            (0, 0, 0): F(1, 4),
            (0, 1, 1): F(1, 4),
            (1, 0, 1): F(1, 4),
            (1, 1, 0): F(1, 4),
        },
    )


def nonlocal_box_site() -> CausalSite:
    return CausalSite(
        [("x", 2), ("y", 2), ("a", 2), ("b", 2)],
        [("x", "a"), ("y", "b")],
    )


def nonlocal_box() -> StochasticModel:
    # uniform settings; outputs satisfy a XOR b = x AND y
    site = nonlocal_box_site()
    entries = {}
    for x in (0, 1):
        for y in (0, 1):
            for a in (0, 1):
                for b in (0, 1):
                    if a ^ b == (x & y):
                        entries[(x, y, a, b)] = F(1, 8)
    return sparse_model(site, entries)


def three_value_coins() -> StochasticModel:
    # three-valued source; outcome biases chosen so the pair is negatively
    # correlated overall yet conditionally independent given the source
    site = CausalSite(
        [("c", 3), ("a_s", 2), ("b_s", 2)],
        [("c", "a_s"), ("c", "b_s")],
    )
    p = (F(1, 5), F(2, 5), F(4, 5))
    q = (F(4, 5), F(2, 5), F(1, 5))
    entries = {}
    for c in range(3):
        for i in (0, 1):
            for j in (0, 1):
                wi = p[c] if i else 1 - p[c]
                wj = q[c] if j else 1 - q[c]
                entries[(c, i, j)] = F(1, 3) * wi * wj
    return sparse_model(site, entries)


def two_cell_correlate() -> StochasticModel:
    # uniform four-valued source; c=0 and c=1 move only a, c=2 and c=3 only b,
    # so no single source value correlates with both, but {c=0, c=2} does;
    # within c=0 the outcomes are tied beyond the source
    site = CausalSite([("c", 4), ("a", 2), ("b", 2)], [("c", "a"), ("c", "b")])
    pa = (F(3, 4), F(1, 4), F(1, 2), F(1, 2))  # mu(a=0 | c)
    pb = (F(1, 2), F(1, 2), F(3, 4), F(1, 4))  # mu(b=0 | c)
    entries = {}
    for c in range(4):
        for a in (0, 1):
            for b in (0, 1):
                wa = pa[c] if a == 0 else 1 - pa[c]
                wb = pb[c] if b == 0 else 1 - pb[c]
                entries[(c, a, b)] = F(1, 4) * wa * wb
    tied = {(0, 0): F(1, 2), (0, 1): F(1, 4), (1, 0): F(0), (1, 1): F(1, 4)}
    for (a, b), w in tied.items():
        entries[(0, a, b)] = F(1, 4) * w
    return sparse_model(site, entries)


def rand_model(rng: random.Random, site: CausalSite, span: int = 4) -> StochasticModel:
    n = n_histories(site)
    nums = [rng.randrange(span) for _ in range(n)]
    if not any(nums):
        nums[rng.randrange(n)] = 1
    total = sum(nums)
    return StochasticModel(site, [F(k, total) for k in nums])


SMALL_SITES = [
    coin_site(),
    antichain(3),
    diamond(),
    CausalSite([("u", 2), ("v", 3), ("w", 2)], [("u", "w")]),
]


# -- the measure type ------------------------------------------------------


class TestStochasticModel:
    def test_round_trip_values(self):
        m = anticorrelated_coins()
        site = m.site
        assert m.mu(omega(site)) == 1
        assert m.mu(0) == 0
        assert m.mu(parse_event(site, "a_s=0")) == F(1, 2)
        assert m.mu(parse_event(site, "a_s=0 & b_s=1")) == F(1, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(MeasureError, match="dimension"):
            StochasticModel(antichain(2), [F(1, 2), F(1, 2)])

    def test_negative_weight(self):
        with pytest.raises(MeasureError, match="negative"):
            StochasticModel(antichain(1), [F(3, 2), F(-1, 2)])

    def test_normalization(self):
        with pytest.raises(MeasureError, match="sum to"):
            StochasticModel(antichain(1), [F(1, 2), F(1, 3)])

    def test_conditional(self):
        m = anticorrelated_coins()
        a = parse_event(m.site, "a_s=0")
        c = parse_event(m.site, "c=0")
        assert m.conditional(a, c) == 1

    def test_conditional_on_null_event(self):
        m = anticorrelated_coins()
        dead = parse_event(m.site, "c=0 & a_s=1")
        with pytest.raises(MeasureError, match="measure zero"):
            m.conditional(omega(m.site), dead)

    def test_support(self):
        m = anticorrelated_coins()
        assert m.support() == (1 << 1) | (1 << 6)

    def test_equality_and_hash(self):
        assert anticorrelated_coins() == anticorrelated_coins()
        assert hash(anticorrelated_coins()) == hash(anticorrelated_coins())
        assert anticorrelated_coins() != selection_reversal()

    def test_accepts_plain_numbers(self):
        m = StochasticModel(antichain(1), [1, 0])
        assert m.mu(1) == 1

    def test_correlated(self):
        m = anticorrelated_coins()
        a = parse_event(m.site, "a_s=0")
        b = parse_event(m.site, "b_s=0")
        assert correlated(m, a, b)
        u = StochasticModel(antichain(2), [F(1, 4)] * 4)
        assert not correlated(u, parse_event(u.site, "e0=0"), parse_event(u.site, "e1=0"))


# -- pairwise screening off the mutual past --------------------------------


class TestSO1:
    def test_shared_source_screens(self):
        r = check_so1(anticorrelated_coins())
        assert r.verdict == HOLDS
        assert r.stats["region_pairs"] == 2
        assert r.stats["atom_checks"] == 16

    def test_selection_reversal_fails(self):
        r = check_so1(selection_reversal())
        assert r.verdict == VIOLATED
        cx = r.counterexample
        assert cx.regions == (("A", ("a_s",)), ("B", ("b_s",)), ("past", ("c",)))
        assert cx.event("A").expr == "a_s=0"
        assert cx.event("B").expr == "b_s=0"
        assert cx.event("C").expr == "c=0"
        assert cx.values == (
            ("mu(C)", "1/2"),
            ("mu(A&B|C)", "0"),
            ("mu(A|C)", "1/2"),
            ("mu(B|C)", "1/2"),
            ("product", "1/4"),
        )

    def test_parity_triple_fails_with_empty_past(self):
        r = check_so1(parity_triple())
        assert r.verdict == VIOLATED
        cx = r.counterexample
        assert cx.regions == (("A", ("e0",)), ("B", ("e1", "e2")), ("past", ()))
        assert cx.value("mu(A&B|C)") == "1/4"
        assert cx.value("product") == "1/8"

    def test_nonlocal_box_fails(self):
        assert check_so1(nonlocal_box()).verdict == VIOLATED

    def test_three_value_coins_hold(self):
        assert check_so1(three_value_coins()).verdict == HOLDS

    def test_vacuous_without_spacelike_pairs(self):
        m = StochasticModel(chain(2), [F(1, 4)] * 4)
        r = check_so1(m)
        assert r.verdict == VACUOUS
        assert "no spacelike pairs" in r.reason

    def test_counterexample_reevaluates(self):
        # the reported masks must reproduce the reported numbers exactly
        r = check_so1(selection_reversal())
        m = selection_reversal()
        cx = r.counterexample
        a, b, c = (cx.event(k).mask for k in ("A", "B", "C"))
        assert str(m.mu(c)) == cx.value("mu(C)")
        assert str(m.conditional(a & b, c)) == cx.value("mu(A&B|C)")
        got = m.conditional(a, c) * m.conditional(b, c)
        assert str(got) == cx.value("product")
        assert m.conditional(a & b, c) != got

    def test_matches_definition_oracle(self):
        rng = random.Random(421)
        for i in range(60):
            site = SMALL_SITES[i % len(SMALL_SITES)]
            m = rand_model(rng, site)
            assert (check_so1(m).verdict == HOLDS) == oracle_so1(m), (i, m.weights)


def _common_cause(n_leaves: int) -> StochasticModel:
    """Uniform measure on a ternary root below n binary leaves."""
    leaves = [f"l{i}" for i in range(n_leaves)]
    site = CausalSite([("c", 3)] + [(l, 2) for l in leaves], [("c", l) for l in leaves])
    n = n_histories(site)
    return StochasticModel(site, [F(1, n)] * n)


def _counting(monkeypatch, name: str) -> list:
    """Record the arguments of every call to a module function of stochastic."""
    calls = []
    original = getattr(stochastic, name)

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(stochastic, name, counted)
    return calls


class TestCellTables:
    def test_one_table_per_region_union(self, monkeypatch):
        # common cause below 5 leaves: every pair's past is the root, so the
        # unions are the root with 2..5 leaves, 2^5 - 5 - 1 = 26 of them; wrc
        # scans every pair against its mutual past, while so1 and the
        # mutual-past selector of gen-so scan only the first pair and then
        # the certificate of the 5 leaves given the root, whose union is the
        # whole site
        model = _common_cause(5)
        site = model.site
        calls = _counting(monkeypatch, "_cell_weights")
        assert check_wrc(model).verdict == HOLDS
        unions = {site.mutual_past(a, b) | a | b for a, b in stochastic._spacelike_pairs(site)}
        assert len(unions) == 26
        assert len(calls) == len(unions)
        for check in (check_so1, lambda m: check_generalized_so(m, "mutual")):
            del calls[:]
            assert check(model).verdict == HOLDS
            assert [sum(regions) for (_, regions), _ in calls] == [0b111, site.full_mask]
        # the benchmark tracer's hook takes exactly (model, regions)
        for args, kwargs in calls:
            assert len(args) == 2 and not kwargs
            assert args[0] is model

    def test_penrose_percival_shares_its_tables_with_so1(self, monkeypatch):
        # 7 leaves: each pair's only dissection is the root, so the dissection
        # scan needs the root with 2..7 leaves, 2^7 - 7 - 1 = 120 unions, and
        # so1's one union (the whole site) is among them
        model = _common_cause(7)
        calls = _counting(monkeypatch, "_cell_weights")
        report = check_penrose_percival(model)
        assert report.verdict == HOLDS
        assert report.stats["so1_verdict"] == HOLDS
        assert len(calls) == 120
        assert len({sum(regions) for (_, regions), _ in calls}) == 120


class TestPrunedScreening:
    """so1, so2 and so2w scan a pair only when nothing larger vouches for it."""

    def test_scans_the_first_pair_then_one_certificate(self, monkeypatch):
        # 7 leaves: every pair's past is the root, and its group is all 7
        # leaves; the first pair ({l0}, {l1}) is scanned, then the 7 leaves
        # given the root once, and that certificate covers the other pairs;
        # the stats are those of a scan of all 3^7 - 2*2^7 + 1 = 1,932 pairs
        model = _common_cause(7)
        leaves = tuple(1 << e for e in range(1, 8))
        calls = _counting(monkeypatch, "_factorization_failure")
        for check in (check_so1, check_so2, check_so2w):
            del calls[:]
            report = check(model)
            assert report.verdict == HOLDS
            assert report.stats == {
                "region_pairs": 1932,
                "atom_checks": 3 * (5**7 - 2 * 3**7 + 1),
                "null_conditions_skipped": 0,
            }
            assert [args[1:] for args, _ in calls] == [((0b10, 0b100), 1), (leaves, 1)]
            for (m, _, _), kwargs in calls:
                assert m is model and set(kwargs) == {"tables"}

    def test_a_failure_costs_at_most_one_extra_scan(self, monkeypatch):
        # l0 and l1 are copies of each other: the first pair ({l0}, {l1})
        # fails at its own scan, before any plan is built
        site = _common_cause(4).site
        weights = [F(1, 24) if history_digits(site, h)[1] == history_digits(site, h)[2] else 0
                   for h in range(n_histories(site))]
        calls = _counting(monkeypatch, "_factorization_failure")
        monkeypatch.setattr(stochastic, "_screening_plan", None)
        report = check_so1(StochasticModel(site, weights))
        assert report.verdict == VIOLATED
        assert report.stats["region_pairs"] == 1
        assert [regions for (_, regions, _), _ in calls] == [(0b00010, 0b00100)]

    def test_plan_is_cached_per_site_and_rule(self):
        site = _common_cause(4).site
        for rule in ("mutual", "joint", "joint-clear"):
            plan = stochastic._screening_plan(site, rule)
            assert stochastic._screening_plan(site, rule) is plan
            assert len(plan) == len(stochastic._spacelike_pairs(site))


class TestSO2:
    def test_shared_source_screens(self):
        assert check_so2(anticorrelated_coins()).verdict == HOLDS

    def test_selection_reversal_fails(self):
        assert check_so2(selection_reversal()).verdict == VIOLATED

    def test_agrees_with_so1_on_random_models(self):
        rng = random.Random(1009)
        for i in range(80):
            site = SMALL_SITES[i % len(SMALL_SITES)]
            m = rand_model(rng, site)
            assert check_so1(m).verdict == check_so2(m).verdict, (i, m.weights)


class TestSO2W:
    def test_holds_on_shared_source(self):
        r = check_so2w(anticorrelated_coins())
        assert r.verdict == HOLDS
        assert r.stats["region_pairs"] == 2

    def test_vacuous_when_only_initial_pairs_exist(self):
        m = StochasticModel(antichain(2), [F(1, 4)] * 4)
        r = check_so2w(m)
        assert r.verdict == VACUOUS
        assert "initial elements" in r.reason

    def test_weaker_than_so2(self):
        # never violated when so2 holds; may hold where so2 fails
        rng = random.Random(77)
        for i in range(40):
            site = SMALL_SITES[i % len(SMALL_SITES)]
            m = rand_model(rng, site)
            if check_so2(m).verdict == HOLDS:
                assert check_so2w(m).verdict in (HOLDS, VACUOUS)


# -- pluggable conditioning regions ----------------------------------------


class TestGeneralizedSO:
    def test_mutual_matches_so1(self):
        rng = random.Random(5)
        for i in range(30):
            site = SMALL_SITES[i % len(SMALL_SITES)]
            m = rand_model(rng, site)
            assert check_generalized_so(m, "mutual").verdict == check_so1(m).verdict

    def test_mutual_and_joint_share_the_plans_of_so1_and_so2(self):
        model = _common_cause(4)
        for selector, pairwise in (("mutual", check_so1), ("joint", check_so2)):
            check_generalized_so(model, selector)
            built = stochastic._screening_plan.cache_info().currsize
            check_generalized_so(model, selector)
            pairwise(model)
            assert stochastic._screening_plan.cache_info().currsize == built

    def test_all_selector_on_shared_source(self):
        r = check_generalized_so(anticorrelated_coins(), "all")
        assert r.verdict == HOLDS
        assert r.stats["selector"] == "all"
        # for the outcome pair the admissible regions collapse to the source
        assert r.stats["conditioning_regions"] == 2

    def test_unknown_selector(self):
        with pytest.raises(SelectorError, match="unknown selector"):
            check_generalized_so(anticorrelated_coins(), "sideways")

    def test_callable_selector(self):
        def everything_below(site, ra, rb):
            return site.mutual_past(ra, rb)

        r = check_generalized_so(anticorrelated_coins(), everything_below)
        assert r.verdict == HOLDS
        assert r.condition == "gen-so[everything_below]"

    def test_inadmissible_selection_names_the_pair(self):
        # u0 < mid < u1 with w off to the side: the region {u0, u1} is
        # spacelike to {w}, but its past minus itself contains mid, which
        # lies in the pair's future
        site = CausalSite(
            [("u0", 2), ("mid", 2), ("u1", 2), ("w", 2)],
            [("u0", "mid"), ("mid", "u1")],
        )
        m = StochasticModel(site, [F(1, 16)] * 16)
        with pytest.raises(SelectorError, match=r"future"):
            check_generalized_so(m, "bell")
        with pytest.raises(SelectorError, match=r"'u0', 'u1'"):
            check_generalized_so(m, "joint")
        # the fixed joint-past check carries no such admissibility demand
        assert check_so2(m).verdict == HOLDS

    def test_bell_selector_runs_where_admissible(self):
        assert check_generalized_so(anticorrelated_coins(), "bell").verdict == HOLDS


# -- joint factorization for region tuples ---------------------------------


class TestMultiSO:
    def test_requires_at_least_two(self):
        with pytest.raises(ValueError, match=">= 2"):
            check_multi_so(anticorrelated_coins(), 1)

    def test_parity_triple_pairwise(self):
        r = check_multi_so(parity_triple(), 2)
        assert r.verdict == VIOLATED
        assert r.counterexample.regions == (
            ("A1", ("e0",)),
            ("A2", ("e1", "e2")),
            ("past", ()),
        )

    def test_parity_triple_threeway(self):
        r = check_multi_so(parity_triple(), 3)
        assert r.verdict == VIOLATED
        cx = r.counterexample
        assert cx.regions == (
            ("A1", ("e0",)),
            ("A2", ("e1",)),
            ("A3", ("e2",)),
            ("past", ()),
        )
        assert cx.values == (
            ("mu(C)", "1"),
            ("mu(A1&A2&A3|C)", "1/4"),
            ("mu(A1|C)", "1/2"),
            ("mu(A2|C)", "1/2"),
            ("mu(A3|C)", "1/2"),
            ("product", "1/8"),
        )

    def test_product_measure_passes(self):
        m = StochasticModel(antichain(3), [F(1, 8)] * 8)
        assert check_multi_so(m, 2).verdict == HOLDS
        assert check_multi_so(m, 3).verdict == HOLDS

    def test_shared_source_pairs(self):
        assert check_multi_so(anticorrelated_coins(), 2).verdict == HOLDS

    def test_vacuous_on_chains(self):
        m = StochasticModel(chain(3), [F(1, 8)] * 8)
        r = check_multi_so(m, 2)
        assert r.verdict == VACUOUS

    def test_more_regions_than_elements_is_vacuous_at_once(self, monkeypatch):
        # n pairwise-disjoint nonempty regions need n elements: a 12-site
        # antichain has no 13-tuple, and says so without walking its regions
        def every_tuple(site, n):
            def fits(t):
                return all(not x & y and site.spacelike(x, y) for x, y in itertools.combinations(t, 2))
            return tuple(filter(fits, itertools.combinations(range(1, site.full_mask + 1), n)))

        small = StochasticModel(antichain(3), [F(1, 8)] * 8)
        for n in (2, 3, 4):
            assert stochastic._spacelike_tuples(small.site, n) == every_tuple(small.site, n)
        with monkeypatch.context() as m:
            m.setattr(stochastic, "_spacelike_tuples", every_tuple)
            want = check_multi_so(small, 13).to_json_dict()
        big = StochasticModel(antichain(12), [F(1, 4096)] * 4096)

        def walked(*args):
            raise AssertionError("the region walk ran for a vacuous n")

        monkeypatch.setattr(CausalSite, "spacelike", walked)
        start = time.perf_counter()
        report = check_multi_so(big, 13)
        assert time.perf_counter() - start < 1
        assert report.verdict == VACUOUS
        assert report.to_json_dict() == want


# -- common correlates in the mutual past ----------------------------------


class TestWRC:
    def test_shared_source(self):
        assert check_wrc(anticorrelated_coins()).verdict == HOLDS
        assert check_wrc(anticorrelated_coins(), conditioned=True).verdict == HOLDS

    def test_nonlocal_box_has_no_correlate(self):
        r = check_wrc(nonlocal_box())
        assert r.verdict == VIOLATED
        cx = r.counterexample
        assert cx.event("E").mask == omega(nonlocal_box_site())
        assert "no common correlate" in cx.note

    def test_reversal_slips_past_the_plain_form(self):
        # overall the outcomes look independent, so nothing is demanded...
        r = check_wrc(selection_reversal())
        assert r.verdict == HOLDS
        assert r.stats["correlated_atom_pairs"] == 0

    def test_reversal_caught_when_conditioned(self):
        # ...but conditioning on a selection value exposes the correlation,
        # and the mutual past holds nothing that accounts for it
        r = check_wrc(selection_reversal(), conditioned=True)
        assert r.verdict == VIOLATED
        cx = r.counterexample
        assert cx.event("E").mask == parse_event(coin_site(), "c=0")
        assert cx.value("mu(A&B|E)") == "0"
        assert cx.value("product") == "1/4"

    def test_correlate_of_two_cells(self):
        # no single source value is correlated with both outcomes, so every
        # common correlate is a union of two of them
        m = two_cell_correlate()
        r = check_wrc(m)
        assert r.verdict == HOLDS
        assert r.stats == {
            "region_pairs": 2, "conditioning_events": 2, "correlated_atom_pairs": 8,
        }
        a, b = parse_event(m.site, "a=0"), parse_event(m.site, "b=0")
        for cell in range(4):
            c = parse_event(m.site, f"c={cell}")
            assert not (correlated(m, a, c) and correlated(m, b, c))
        union = parse_event(m.site, "c=0 | c=2")
        assert correlated(m, a, union) and correlated(m, b, union)
        # given c=0 the outcomes stay correlated, and nothing inside c=0 explains it
        r = check_wrc(m, conditioned=True)
        assert r.verdict == VIOLATED
        assert r.counterexample.event("E").mask == parse_event(m.site, "c=0")

    def test_conditioned_tracks_so1_on_random_models(self):
        rng = random.Random(2027)
        for i in range(60):
            site = SMALL_SITES[i % len(SMALL_SITES)]
            m = rand_model(rng, site)
            so1 = check_so1(m).verdict
            wrc = check_wrc(m, conditioned=True).verdict
            assert (so1 == HOLDS) == (wrc == HOLDS), (i, m.weights)


# -- single-event common-cause demands -------------------------------------


class TestPCCOriginal:
    def test_biased_coins_hold(self):
        r = check_pcc_original(
            biased_coins(),
            parse_event(coin_site(), "a_s=1"),
            parse_event(coin_site(), "b_s=1"),
        )
        assert r.verdict == HOLDS
        assert r.stats["mode"] == "exhaustive"
        # first witness in scan order is the event "a_s=1" itself: an event
        # always screens itself off and raises its own likelihood
        assert int(r.stats["witness"]["mask"], 16) == parse_event(coin_site(), "a_s=1")

    def test_witness_satisfies_all_four_demands(self):
        m = biased_coins()
        a = parse_event(m.site, "a_s=1")
        b = parse_event(m.site, "b_s=1")
        r = check_pcc_original(m, a, b)
        c = int(r.stats["witness"]["mask"], 16)
        cc = omega(m.site) & ~c
        assert m.conditional(a & b, c) == m.conditional(a, c) * m.conditional(b, c)
        assert m.conditional(a & b, cc) == m.conditional(a, cc) * m.conditional(b, cc)
        assert m.conditional(a, c) > m.conditional(a, cc)
        assert m.conditional(b, c) > m.conditional(b, cc)

    def test_region_mode_finds_the_source(self):
        m = biased_coins()
        a = parse_event(m.site, "a_s=1")
        b = parse_event(m.site, "b_s=1")
        r = check_pcc_original(m, a, b, exhaustive_limit=0)
        assert r.verdict == HOLDS
        assert r.stats["mode"] == "past-region-cells"
        assert int(r.stats["witness"]["mask"], 16) == parse_event(m.site, "c=1")

    @pytest.mark.parametrize("alphabets", [(3, 2, 2, 2), (5, 5)])
    def test_exhaustive_search_is_capped(self, alphabets, monkeypatch):
        # 24 histories may be searched exhaustively, 25 may not, whatever the
        # caller's limit; the refusal comes before any event is enumerated
        site = CausalSite([(f"s{i}", k) for i, k in enumerate(alphabets)], [])
        n = n_histories(site)
        weights = [F(1, 2) if h in (0, n - 1) else 0 for h in range(n)]
        m = StochasticModel(site, weights)
        a, b = parse_event(site, "s0=0"), parse_event(site, "s1=0")
        monkeypatch.setattr(stochastic, "_gray_event_sums", lambda *args: iter(()))
        if n <= stochastic.EXHAUSTIVE_HISTORY_CAP:
            r = check_pcc_rev1(m, a, b, exhaustive_limit=64)
            assert (r.verdict, r.stats["mode"]) == (VIOLATED, "exhaustive")
            assert find_screening_events(m, a, b, exhaustive_limit=64) == []
            return
        monkeypatch.setattr(stochastic, "_gray_event_sums", None)
        message = (
            "capacity error: an exhaustive event search over 25 histories "
            "examines 2^25 - 1 events; the limit is 24 histories"
        )
        for search in (check_pcc_original, check_pcc_rev1, find_screening_events):
            with pytest.raises(stochastic.CapacityError) as got:
                search(m, a, b, exhaustive_limit=64)
            assert str(got.value) == message
        # below the caller's limit the cells of past regions are searched
        assert check_pcc_rev1(m, a, b).stats["mode"] == "past-region-cells"

    def test_vacuous_when_not_spacelike(self):
        m = StochasticModel(chain(2), [F(1, 4)] * 4)
        r = check_pcc_original(m, parse_event(m.site, "e0=0"), parse_event(m.site, "e1=0"))
        assert r.verdict == VACUOUS
        assert "not spacelike" in r.reason

    def test_vacuous_on_negative_correlation(self):
        m = anticorrelated_coins()
        r = check_pcc_original(
            m, parse_event(m.site, "a_s=1"), parse_event(m.site, "b_s=1")
        )
        assert r.verdict == VACUOUS
        assert "positively" in r.reason

    def test_vacuous_on_independent_pair(self):
        m = selection_reversal()
        r = check_pcc_original(
            m, parse_event(m.site, "a_s=0"), parse_event(m.site, "b_s=0")
        )
        assert r.verdict == VACUOUS


class TestPCCRevisions:
    def test_rev1_trivial_witness_always_exists(self):
        # an event screens itself off on both sides, so the unrestricted
        # search can only fail for degenerate reasons
        rng = random.Random(31)
        for i in range(40):
            site = SMALL_SITES[i % len(SMALL_SITES)]
            m = rand_model(rng, site)
            a = full_specifications(site, 1)[0]
            b = parse_event(site, f"{site.elements[site.n - 1]}=0")
            if not site.spacelike(dom(site, a), dom(site, b)):
                continue
            if not correlated(m, a, b) or m.mu(a) in (0, 1):
                continue
            assert check_pcc_rev1(m, a, b).verdict == HOLDS

    def test_rev1_region_mode_can_fail(self):
        m = three_value_coins()
        a = parse_event(m.site, "a_s=1")
        b = parse_event(m.site, "b_s=1")
        wide = check_pcc_rev1(m, a, b)
        assert wide.verdict == HOLDS
        narrow = check_pcc_rev1(m, a, b, exhaustive_limit=4)
        assert narrow.verdict == VIOLATED
        assert narrow.stats["mode"] == "past-region-cells"
        assert narrow.stats["candidates_examined"] == 28
        cx = narrow.counterexample
        assert cx.value("mu(A&B)") == "4/25"
        assert cx.value("product") == "49/225"

    def test_rev1_vacuous_on_independent_pair(self):
        m = selection_reversal()
        r = check_pcc_rev1(m, parse_event(m.site, "a_s=0"), parse_event(m.site, "b_s=0"))
        assert r.verdict == VACUOUS
        assert "not correlated" in r.reason

    def test_rev2_two_sided_split_wins(self):
        m = StochasticModel(antichain(2), [F(1, 2), F(1, 4), F(1, 8), F(1, 8)])
        a = parse_event(m.site, "e0=0")
        b = parse_event(m.site, "e1=0")
        r = check_pcc_rev2(m, a, b)
        assert r.verdict == HOLDS
        assert r.stats["mode"] == "set-partitions"
        cells = [int(c["mask"], 16) for c in r.stats["witness_partition"]]
        assert cells == [a, omega(m.site) & ~a]

    def test_rev2_witness_partition_reevaluates(self):
        m = anticorrelated_coins()
        a = parse_event(m.site, "a_s=0")
        b = parse_event(m.site, "b_s=0")
        r = check_pcc_rev2(m, a, b)
        assert r.verdict == HOLDS
        cells = [int(c["mask"], 16) for c in r.stats["witness_partition"]]
        whole = 0
        for c in cells:
            whole |= c
            if m.mu(c) > 0:
                assert m.conditional(a & b, c) == m.conditional(a, c) * m.conditional(b, c)
        assert whole == omega(m.site)

    def test_rev2_region_mode(self):
        m = nonlocal_box()
        a = parse_event(m.site, "x=0 & a=0")
        b = parse_event(m.site, "y=0 & b=0")
        r = check_pcc_rev2(m, a, b)
        assert r.verdict == HOLDS
        assert r.stats["mode"] == "region-partitions"

    def test_rev2_cap_can_forbid_every_partition(self):
        m = three_value_coins()
        a = parse_event(m.site, "a_s=1")
        b = parse_event(m.site, "b_s=1")
        r = check_pcc_rev2(m, a, b, max_partition_size=1)
        assert r.verdict == VIOLATED

    @pytest.mark.parametrize("cap", [0, -1])
    def test_rev2_cap_below_one_is_refused(self, cap):
        m = three_value_coins()
        a = parse_event(m.site, "a_s=1")
        b = parse_event(m.site, "b_s=1")
        assert check_pcc_rev2(m, a, b).verdict == HOLDS
        with pytest.raises(ValueError) as got:
            check_pcc_rev2(m, a, b, max_partition_size=cap)
        assert str(got.value) == f"check error: max_partition_size must be at least 1, not {cap}"


# -- searches over explicit events ------------------------------------------


class TestFindScreening:
    def test_requires_correlation(self):
        m = StochasticModel(antichain(2), [F(1, 4)] * 4)
        with pytest.raises(PreconditionError, match="not correlated"):
            find_screening_events(m, parse_event(m.site, "e0=0"), parse_event(m.site, "e1=0"))

    def test_degenerate_source_screeners(self):
        # support is two histories; any event holding exactly one of them
        # conditions to a point mass, so it screens
        m = anticorrelated_coins()
        a = parse_event(m.site, "a_s=0")
        b = parse_event(m.site, "b_s=0")
        found = find_screening_events(m, a, b)
        assert len(found) == 128
        assert found == sorted(found)
        assert found[:4] == [0x2, 0x3, 0x6, 0x7]
        for c in found[:8]:
            assert m.conditional(a & b, c) == m.conditional(a, c) * m.conditional(b, c)

    def test_no_past_decidable_screener_for_the_box(self):
        m = nonlocal_box()
        a = parse_event(m.site, "x=0 & a=0")
        b = parse_event(m.site, "y=0 & b=0")
        found = find_screening_events(m, a, b)
        assert found  # unrestricted, witnesses abound
        past = m.site.mutual_past(dom(m.site, a), dom(m.site, b))
        assert past == 0
        assert [c for c in found if dom(m.site, c) & ~past == 0] == []

    def test_restricted_mode_subset_of_exhaustive(self):
        m = anticorrelated_coins()
        a = parse_event(m.site, "a_s=0")
        b = parse_event(m.site, "b_s=0")
        wide = set(find_screening_events(m, a, b))
        narrow = find_screening_events(m, a, b, exhaustive_limit=0)
        assert set(narrow) <= wide


class TestFindSimpson:
    def test_requires_independence(self):
        m = anticorrelated_coins()
        with pytest.raises(PreconditionError, match="are correlated"):
            find_simpson_events(
                m, parse_event(m.site, "a_s=0"), parse_event(m.site, "b_s=0")
            )

    def test_uniform_pair_reversals(self):
        m = StochasticModel(antichain(2), [F(1, 4)] * 4)
        a = parse_event(m.site, "e0=0")
        b = parse_event(m.site, "e1=0")
        found = find_simpson_events(m, a, b)
        assert found == [0x6, 0x7, 0x9, 0xB, 0xD, 0xE]
        agree = (1 << history_index(m.site, (0, 0))) | (1 << history_index(m.site, (1, 1)))
        assert agree in found

    def test_support_inside_one_event_leaves_nothing(self):
        m = StochasticModel(antichain(2), [F(1, 2), F(1, 2), F(0), F(0)])
        a = parse_event(m.site, "e0=0")
        b = parse_event(m.site, "e1=0")
        assert m.support() & ~a == 0
        assert find_simpson_events(m, a, b) == []

    def test_reversal_model_flags_the_selector(self):
        m = selection_reversal()
        found = find_simpson_events(
            m, parse_event(m.site, "a_s=0"), parse_event(m.site, "b_s=0")
        )
        assert parse_event(m.site, "c=0") in found


# -- dissection screening ---------------------------------------------------


class TestPenrosePercival:
    def test_shared_source(self):
        r = check_penrose_percival(anticorrelated_coins())
        assert r.verdict == HOLDS
        assert r.stats["so1_verdict"] == HOLDS
        assert r.stats["dissections"] == 2

    def test_reversal_model_fails(self):
        r = check_penrose_percival(selection_reversal())
        assert r.verdict == VIOLATED
        assert r.stats["so1_verdict"] == VIOLATED
        # the only dissection of the outcome pair is the selection element,
        # so the failure matches the mutual-past one
        assert r.counterexample.value("mu(A&B|C)") == "0"

    def test_vacuous_without_pairs(self):
        m = StochasticModel(chain(2), [F(1, 4)] * 4)
        assert check_penrose_percival(m).verdict == VACUOUS

    def test_product_on_deep_site(self):
        site = CausalSite(
            [("r", 2), ("i", 2), ("l", 2), ("lp", 2)],
            [("r", "i"), ("i", "l"), ("r", "lp")],
        )
        m = StochasticModel(site, [F(1, 16)] * 16)
        r = check_penrose_percival(m)
        assert r.verdict == HOLDS
        assert r.stats["dissections"] > r.stats["region_pairs"]


# -- deterministic dynamics driven from initial choices ----------------------


class TestDeterministicLocal:
    def test_diamond_interference(self):
        site = diamond()
        m = deterministic_local_model(
            site,
            {"o": (F(1, 3), F(2, 3))},
            {
                "l": lambda cfg: cfg["o"],
                "r": lambda cfg: 1 - cfg["o"],
                "t": lambda cfg: cfg["l"] ^ cfg["r"],
            },
        )
        live = {digs for digs, w in zip_histories(m) if w}
        assert live == {(0, 0, 1, 1), (1, 1, 0, 1)}
        assert check_so1(m).verdict == HOLDS
        assert check_so2(m).verdict == HOLDS
        assert check_penrose_percival(m).verdict == HOLDS

    def test_fanout_copies(self):
        site = CausalSite(
            [("src", 3), ("u", 3), ("v", 3)], [("src", "u"), ("src", "v")]
        )
        m = deterministic_local_model(
            site,
            {"src": (F(1, 2), F(1, 3), F(1, 6))},
            {"u": lambda c: c["src"], "v": lambda c: c["src"]},
        )
        assert m.mu(parse_event(site, "u=1 & v=1")) == F(1, 3)
        assert check_so1(m).verdict == HOLDS
        assert check_wrc(m, conditioned=True).verdict == HOLDS

    def test_bad_rule_value(self):
        site = coin_site()
        with pytest.raises(MeasureError, match="outside its alphabet"):
            deterministic_local_model(
                site,
                {"c": (F(1, 2), F(1, 2))},
                {"a_s": lambda c: 5, "b_s": lambda c: 0},
            )

    def test_bad_distribution_length(self):
        site = coin_site()
        with pytest.raises(MeasureError, match="alphabet size"):
            deterministic_local_model(
                site,
                {"c": (F(1, 3), F(1, 3), F(1, 3))},
                {"a_s": lambda c: 0, "b_s": lambda c: 0},
            )


# -- algebra sanity ---------------------------------------------------------


class TestConditionalFactorizationAlgebra:
    def test_two_sided_screening_composes(self):
        # whenever a condition and three cross terms satisfy the four
        # screening products, the composite conditional product identity
        # follows; checked on random exact rationals
        rng = random.Random(97)
        for _ in range(200):
            a_y = F(rng.randrange(8), 8)
            b_x = F(rng.randrange(8), 8)
            x = F(rng.randrange(1, 9), 8)
            y = F(rng.randrange(1, 9), 8)
            joint = a_y * b_x
            ax_y = a_y * x
            bx_y = y * b_x
            xy = y * x
            assert ax_y * bx_y == joint * xy

    def test_report_serializes(self):
        r = check_so1(selection_reversal())
        d = r.to_json_dict()
        assert d["condition"] == "so1"
        assert d["verdict"] == "violated"
        assert d["counterexample"]["events"]["A"]["mask"] == "0x33"
        assert d["counterexample"]["values"]["mu(A&B|C)"] == "0"


# -- oracles ----------------------------------------------------------------


def zip_histories(m: StochasticModel):
    from screenoff.events import history_digits

    return [
        (history_digits(m.site, h), w) for h, w in enumerate(m.weights)
    ]


def oracle_so1(m: StochasticModel) -> bool:
    """Straight-off-the-definition sweep with Fraction arithmetic."""
    site = m.site
    full = site.full_mask
    for ra in range(1, full + 1):
        for rb in range(1, full + 1):
            if ra & rb or not site.spacelike(ra, rb):
                continue
            past = site.mutual_past(ra, rb)
            for cond in full_specifications(site, past):
                if m.mu(cond) == 0:
                    continue
                for atom_a in full_specifications(site, ra):
                    for atom_b in full_specifications(site, rb):
                        left = m.conditional(atom_a & atom_b, cond)
                        right = m.conditional(atom_a, cond) * m.conditional(atom_b, cond)
                        if left != right:
                            return False
    return True
