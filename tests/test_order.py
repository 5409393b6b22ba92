"""Causal order construction, cones, spacelike relations, dissections.

Expected values for the derived cases were first computed with the
brute-force oracles at the bottom of this file and then frozen inline.
"""
from __future__ import annotations

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from screenoff.order import (
    CausalSite,
    NotSpacelikeError,
    OrderError,
    RegionError,
    iter_bits,
    submasks,
)

from definitions import joint_past, leq, multi_joint_past, mutual_past
from reference import antichain, chain, coin_site, diamond


# -- helpers ---------------------------------------------------------------


def oracle_past(site: CausalSite, r: int) -> int:
    """Element-by-element past computation straight off the relation."""
    out = 0
    for y in range(site.n):
        if any(leq(site, y, x) for x in iter_bits(r)):
            out |= 1 << y
    return out


# -- construction ----------------------------------------------------------


class TestConstruction:
    def test_transitive_closure(self):
        s = chain(3)
        assert leq(s, "e0", "e2")
        assert not leq(s, "e2", "e0")

    def test_reflexive(self):
        s = antichain(2)
        assert leq(s, "e0", "e0")

    def test_cycle_rejected(self):
        with pytest.raises(OrderError):
            CausalSite([("a", 2), ("b", 2)], [("a", "b"), ("b", "a")])

    def test_self_loop_allowed(self):
        # a <= a is just reflexivity, not a cycle
        s = CausalSite([("a", 2)], [("a", "a")])
        assert leq(s, "a", "a")

    def test_duplicate_id_rejected(self):
        with pytest.raises(OrderError):
            CausalSite([("a", 2), ("a", 2)])

    def test_empty_rejected(self):
        with pytest.raises(OrderError):
            CausalSite([])

    def test_bad_alphabet(self):
        with pytest.raises(OrderError):
            CausalSite([("a", 0)])

    def test_unknown_relation_element(self):
        with pytest.raises(OrderError):
            CausalSite([("a", 2)], [("a", "zz")])

    def test_region_roundtrip(self):
        s = coin_site()
        r = s.region(["c", "b_s"])
        assert s.region_ids(r) == ("c", "b_s")

    def test_region_mask_validated(self):
        s = antichain(2)
        with pytest.raises(RegionError):
            s.past(0b100)


# -- cones -----------------------------------------------------------------


class TestCones:
    def test_past_of_top_in_chain(self):
        s = chain(3)
        assert s.past(s.region(["e2"])) == 0b111

    def test_past_is_inclusive(self):
        s = chain(2)
        assert s.past(s.region(["e0"])) == 0b01

    def test_future_of_root(self):
        s = chain(3)
        assert s.future(s.region(["e0"])) == 0b111

    def test_past_of_empty(self):
        assert antichain(3).past(0) == 0

    def test_past_matches_oracle_on_random_sites(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(1, 8)
            sites = [(f"e{i}", 2) for i in range(n)]
            rels = [
                (f"e{i}", f"e{j}")
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.4
            ]
            s = CausalSite(sites, rels)
            for _ in range(5):
                r = rng.randrange(1 << n)
                assert s.past(r) == oracle_past(s, r)
                # duality between the cones
                assert s.future(r) == sum(
                    1 << y for y in range(n) if any(leq(s, x, y) for x in iter_bits(r))
                )

    def test_closure_is_a_partial_order(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 8)
            rels = [
                (f"e{i}", f"e{j}")
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.5
            ]
            s = CausalSite([(f"e{i}", 2) for i in range(n)], rels)
            for i in range(n):
                assert leq(s, i, i)
                for j in range(n):
                    if leq(s, i, j) and leq(s, j, i):
                        assert i == j
                    for k in range(n):
                        if leq(s, i, j) and leq(s, j, k):
                            assert leq(s, i, k)


@settings(max_examples=300)
@given(n=st.integers(1, 7), data=st.data())
def test_below_is_reachability_and_only_a_cycle_is_refused(n, data):
    # relations drawn in either direction, self-loops and cycles included:
    # below[j] is every element from which j is reached along them, and the
    # set is refused exactly when two distinct elements reach each other
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    reach = []
    for i in range(n):  # breadth first from i
        seen, queue = {i}, deque([i])
        while queue:
            a = queue.popleft()
            for lo, hi in pairs:
                if lo == a and hi not in seen:
                    seen.add(hi)
                    queue.append(hi)
        reach.append(seen)
    sites = [(f"e{i}", 2) for i in range(n)]
    relations = [(f"e{lo}", f"e{hi}") for lo, hi in pairs]
    if any(i in reach[j] for i in range(n) for j in reach[i] - {i}):
        with pytest.raises(OrderError, match="^order error: cycle through "):
            CausalSite(sites, relations)
    else:
        s = CausalSite(sites, relations)
        assert s.below == tuple(sum(1 << i for i in range(n) if j in reach[i]) for j in range(n))
        assert s.above == tuple(sum(1 << j for j in reach[i]) for i in range(n))


# -- spacelike, pasts of pairs ---------------------------------------------


class TestSpacelike:
    def test_chain_not_spacelike(self):
        s = chain(2)
        assert not s.spacelike(0b01, 0b10)

    def test_antichain_spacelike(self):
        s = antichain(2)
        assert s.spacelike(0b01, 0b10)

    def test_empty_region_spacelike_to_all(self):
        s = chain(3)
        for r in range(8):
            assert s.spacelike(0, r)
            assert s.spacelike(r, 0)

    def test_symmetric(self):
        s = diamond()
        for x in range(16):
            for y in range(16):
                assert s.spacelike(x, y) == s.spacelike(y, x)

    def test_mutual_past_coin(self):
        # both outcome elements see exactly the choice element
        s = coin_site()
        a = s.region(["a_s"])
        b = s.region(["b_s"])
        assert mutual_past(s, a, b) == s.region(["c"])

    def test_mutual_past_disjoint_roots(self):
        # o < l and p < lp, nothing shared
        s = CausalSite(
            [("o", 2), ("p", 2), ("l", 2), ("lp", 2)],
            [("o", "l"), ("p", "lp")],
        )
        assert mutual_past(s, s.region(["l"]), s.region(["lp"])) == 0

    def test_joint_past_private_roots(self):
        s = CausalSite(
            [("o", 2), ("p", 2), ("l", 2), ("lp", 2)],
            [("o", "l"), ("p", "lp")],
        )
        jp = joint_past(s, s.region(["l"]), s.region(["lp"]))
        assert jp == s.region(["o", "p"])

    def test_joint_past_excludes_the_regions(self):
        s = coin_site()
        a = s.region(["a_s"])
        b = s.region(["b_s"])
        assert joint_past(s, a, b) & (a | b) == 0
        assert joint_past(s, a, b) == s.region(["c"])

    def test_mutual_inside_joint_plus_regions(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(2, 7)
            rels = [
                (f"e{i}", f"e{j}")
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.4
            ]
            s = CausalSite([(f"e{i}", 2) for i in range(n)], rels)
            a = rng.randrange(1, 1 << n)
            b = rng.randrange(1, 1 << n)
            assert mutual_past(s, a, b) & ~(joint_past(s, a, b) | a | b) == 0

    def test_multi_joint_past_common_root(self):
        s = CausalSite(
            [("o", 2), ("x", 2), ("y", 2), ("z", 2)],
            [("o", "x"), ("o", "y"), ("o", "z")],
        )
        regions = [s.region(["x"]), s.region(["y"]), s.region(["z"])]
        assert multi_joint_past(s, regions) == s.region(["o"])

    def test_multi_joint_past_empty_list(self):
        with pytest.raises(RegionError):
            multi_joint_past(antichain(2), [])

    def test_initial_elements(self):
        assert chain(3).initial_elements() == 0b001
        assert antichain(3).initial_elements() == 0b111
        assert diamond().initial_elements() == 0b0001


# -- dissections -----------------------------------------------------------


class TestDissections:
    def test_diamond_single_dissection(self):
        s = diamond()
        l, r = s.region(["l"]), s.region(["r"])
        out = s.enumerate_dissections(l, r)
        assert out == [(s.region(["o"]), (l, r))]

    def test_antichain_empty_dissection(self, monkeypatch):
        # a pair with no past outside itself has the empty region as its one
        # dissection, found without a component search
        monkeypatch.setattr(CausalSite, "comparability_components", lambda *args: pytest.fail("searched"))
        s = antichain(2)
        out = s.enumerate_dissections(0b01, 0b10)
        assert out == [(0, (0b01, 0b10))]
        s = CausalSite([("x", 2), ("y", 2), ("a", 2), ("b", 2)], [("x", "a"), ("y", "b")])
        a, b = s.region(["x", "a"]), s.region(["y", "b"])
        assert s.enumerate_dissections(a, b) == [(0, (a, b))]

    def test_dissections_match_their_definition(self):
        rng = random.Random(23)
        for _ in range(30):
            n = rng.randint(2, 5)
            rels = [(f"e{i}", f"e{j}") for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
            s = CausalSite([(f"e{i}", 2) for i in range(n)], rels)
            for a in range(1, s.full_mask + 1):
                for b in submasks(s.full_mask & ~a):
                    if not (b and s.spacelike(a, b)):
                        continue
                    universe = s.past(a) | s.past(b)
                    expected = []
                    for p in submasks(universe & ~(a | b)):
                        comps = s.comparability_components(universe, p)
                        if not any(c & a and c & b for c in comps):
                            sides = tuple(sum(c for c in comps if c & r) for r in (a, b))
                            expected.append((p, sides))
                    assert s.enumerate_dissections(a, b) == expected

    def test_chain_pair_errors(self):
        s = chain(2)
        with pytest.raises(NotSpacelikeError):
            s.enumerate_dissections(0b01, 0b10)

    def test_empty_region_errors(self):
        s = antichain(2)
        with pytest.raises(NotSpacelikeError):
            s.enumerate_dissections(0, 0b10)

    def test_deep_past_two_choices(self):
        # r < i < l and r < lp: removing {r} or {r, i} splits l from lp
        s = CausalSite(
            [("r", 2), ("i", 2), ("l", 2), ("lp", 2)],
            [("r", "i"), ("i", "l"), ("r", "lp")],
        )
        out = s.enumerate_dissections(s.region(["l"]), s.region(["lp"]))
        cuts = [p for p, _ in out]
        assert cuts == [s.region(["r"]), s.region(["r", "i"])]
        # the intermediate element alone does not cut: r connects both sides
        assert s.region(["i"]) not in cuts

    def test_always_at_least_one_dissection(self):
        rng = random.Random(19)
        found_pair = 0
        for _ in range(60):
            n = rng.randint(2, 6)
            rels = [
                (f"e{i}", f"e{j}")
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.4
            ]
            s = CausalSite([(f"e{i}", 2) for i in range(n)], rels)
            for a in range(1, 1 << n):
                b = (~a) & s.full_mask
                for bsub in submasks(b):
                    if bsub and s.spacelike(a, bsub):
                        found_pair += 1
                        assert s.enumerate_dissections(a, bsub)
                        break
                break
        assert found_pair > 10
