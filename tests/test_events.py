"""Histories, events, domains, restrictions, full specifications.

Each derived expectation is pinned by an oracle that goes straight to the
definitions: domains via minimal pullback regions, restrictions via
intersection of all decidable covers, full specifications via the
decides-every-decidable-event property.
"""
from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import screenoff.events as events
from screenoff.events import (
    CapacityError,
    config_indices,
    cylinder,
    decidable_events,
    dom,
    full_specifications,
    history_digits,
    history_index,
    is_full_specification,
    n_configs,
    n_histories,
    omega,
    restriction,
    atom_expr,
)
from screenoff import stochastic
from screenoff.corpus import builtin
from screenoff.order import CausalSite, RegionError, iter_bits

from pseudo_events import PseudoEvent, mu_hat
from test_order import antichain, coin_site


# -- oracles ---------------------------------------------------------------


def all_digits(site: CausalSite) -> list[tuple[int, ...]]:
    """Every history's values in index order, first element most significant."""
    return list(itertools.product(*(range(k) for k in site.alphabets)))


def project_pullback(site: CausalSite, e: int, r: int) -> int:
    """Keep histories agreeing on r with a member of e (by raw digit compare)."""
    members = list(iter_bits(r))
    digs = all_digits(site)
    configs = {tuple(digs[h][i] for i in members) for h in iter_bits(e)}
    out = 0
    for h, d in enumerate(digs):
        if tuple(d[i] for i in members) in configs:
            out |= 1 << h
    return out


def oracle_dom(site: CausalSite, e: int) -> int:
    """Smallest region whose projection pulls back to the event itself."""
    best = None
    for r in range(site.full_mask + 1):
        if project_pullback(site, e, r) == e:
            if best is None or bin(r).count("1") < bin(best).count("1"):
                best = r
    assert best is not None
    # minimality must be unique for the least-domain reading
    for r in range(site.full_mask + 1):
        if project_pullback(site, e, r) == e:
            assert r & best == best or bin(r).count("1") > bin(best).count("1")
    return best


def oracle_restriction(site: CausalSite, y: int, x: int) -> int:
    """Meet of every event decidable in x that contains y."""
    out = omega(site)
    for z in decidable_events(site, x):
        if y & z == y:
            out &= z
    return out


# -- history indexing ------------------------------------------------------


class TestHistories:
    def test_count(self):
        assert n_histories(coin_site()) == 8
        assert n_histories(CausalSite([("a", 3), ("b", 2)])) == 6

    def test_first_element_most_significant(self):
        s = CausalSite([("a", 3), ("b", 2)])
        assert history_digits(s, 0) == (0, 0)
        assert history_digits(s, 1) == (0, 1)
        assert history_digits(s, 2) == (1, 0)
        assert history_digits(s, 5) == (2, 1)

    def test_roundtrip(self):
        s = CausalSite([("a", 2), ("b", 3), ("c", 2)])
        for h in range(n_histories(s)):
            assert history_index(s, history_digits(s, h)) == h

    def test_bad_values(self):
        s = antichain(2)
        with pytest.raises(ValueError):
            history_index(s, (0, 2))
        with pytest.raises(ValueError):
            history_index(s, (0,))

    def test_cylinder(self):
        s = antichain(2)
        assert cylinder(s, "e0", 0) == 0b0011
        assert cylinder(s, "e1", 0) == 0b0101

    def test_history_space_over_the_limit_is_refused(self, monkeypatch):
        # the count comes from the alphabets; no per-history table is built
        monkeypatch.setattr(events, "_block", None)
        s = CausalSite([(f"e{i}", 2) for i in range(17)])
        with pytest.raises(CapacityError) as err:
            n_histories(s)
        assert str(err.value) == (
            "capacity error: the site has 131072 histories (the product of its "
            "alphabet sizes); the limit is 65536"
        )
        assert isinstance(err.value, ValueError)
        for refused in (
            lambda: omega(s),
            lambda: history_index(s, (0,) * 17),
            lambda: config_indices(s, 0b11),
            lambda: full_specifications(s, 0b1),
            lambda: cylinder(s, "e3", 1),
        ):
            with pytest.raises(CapacityError):
                refused()

    def test_admitted_history_space_needs_no_per_history_table(self, monkeypatch):
        def refuse(_):
            raise AssertionError("a per-history table was built")

        s = antichain(16)
        monkeypatch.setattr(events, "_block", refuse)
        assert n_histories(s) == 65536
        assert omega(s) == (1 << 65536) - 1
        assert history_index(s, (1,) * 16) == 65535
        assert history_digits(s, 65535) == (1,) * 16

    @pytest.mark.parametrize("h", [-1, 6, 7])  # -1, N and N+1
    def test_history_out_of_range_is_refused(self, h):
        s = CausalSite([("a", 3), ("b", 2)])
        with pytest.raises(ValueError) as err:
            history_digits(s, h)
        assert str(err.value) == f"history {h} out of range 0..5"

    @pytest.mark.parametrize("i", [-1, 2, 3])  # -1, n and n+1
    def test_cylinder_of_an_element_outside_the_site_is_refused(self, i):
        s = CausalSite([("a", 3), ("b", 2)])
        with pytest.raises(RegionError) as err:
            cylinder(s, i, 0)
        assert str(err.value) == f"region error: element {i} outside 0..1"

    @pytest.mark.parametrize("value", [-1, 3, 4])  # -1, k and k+1
    def test_cylinder_value_out_of_range_is_refused(self, value):
        s = CausalSite([("a", 3), ("b", 2)])
        with pytest.raises(ValueError) as err:
            cylinder(s, "a", value)
        assert str(err.value) == f"value {value} out of range for element 'a'"

    @pytest.mark.parametrize("config", [-1, 6, 7])  # -1, N and N+1
    def test_atom_expr_config_out_of_range_is_refused(self, config):
        s = CausalSite([("a", 3), ("b", 2)])
        with pytest.raises(ValueError) as err:
            atom_expr(s, 0b11, config)
        assert str(err.value) == f"config {config} out of range for region"


# -- dom -------------------------------------------------------------------


class TestDom:
    def test_trivial_events(self):
        s = antichain(3)
        assert dom(s, 0) == 0
        assert dom(s, omega(s)) == 0

    @pytest.mark.parametrize("event", [-1, 1 << 6, (1 << 6) + 1])  # -1, Ω + 1 and Ω + 2
    def test_mask_outside_the_history_space_is_refused(self, event):
        s = CausalSite([("a", 3), ("b", 2)])
        with pytest.raises(ValueError) as err:
            dom(s, event)
        assert str(err.value) == f"event mask {event:#x} outside the history space"

    def test_every_event_argument_refuses_a_mask_outside_the_history_space(self):
        # each public function that reads an event refuses it as dom does,
        # not with an IndexError from the weight lookup
        coins = builtin("three_pair_coins")
        m, a, b = coins.model, coins.event("A"), coins.event("B")
        product = builtin("product_quantal")
        q, qa = product.model, product.event("A")
        calls = {
            "mu": (m, m.mu),
            "conditional/event": (m, lambda e: m.conditional(e, a)),
            "conditional/given": (m, lambda e: m.conditional(a, e)),
            "restriction": (m, lambda e: restriction(m.site, e, m.site.full_mask)),
            "d_value/left": (q, lambda e: q.d_value(e, qa)),
            "d_value/right": (q, lambda e: q.d_value(qa, e)),
            "mu_hat/left": (q, lambda e: mu_hat(q, PseudoEvent(e, qa))),
            "mu_hat/right": (q, lambda e: mu_hat(q, PseudoEvent(qa, e))),
            "mu_q": (q, q.mu_q),
        }
        for f in (stochastic.correlated, stochastic.find_screening_events, stochastic.find_simpson_events,
                  stochastic.check_pcc_original, stochastic.check_pcc_rev1, stochastic.check_pcc_rev2):
            calls[f"{f.__name__}/a"] = (m, lambda e, f=f: f(m, e, b))
            calls[f"{f.__name__}/b"] = (m, lambda e, f=f: f(m, a, e))
        for name, (model, call) in calls.items():
            for event in (-1, 1 << n_histories(model.site)):
                with pytest.raises(ValueError) as err:
                    call(event)
                assert str(err.value) == f"event mask {event:#x} outside the history space", name

    def test_single_cylinder(self):
        s = coin_site()
        assert dom(s, cylinder(s, "a_s", 1)) == s.region(["a_s"])

    def test_parity(self):
        s = antichain(3)
        par = 0
        for h in range(8):
            d = history_digits(s, h)
            if (d[0] ^ d[1]) == 0:
                par |= 1 << h
        assert dom(s, par) == s.region(["e0", "e1"])
        assert oracle_dom(s, par) == s.region(["e0", "e1"])

    def test_matches_oracle_exhaustively_small(self):
        s = antichain(2)
        for e in range(16):
            assert dom(s, e) == oracle_dom(s, e)

    def test_matches_oracle_random(self):
        rng = random.Random(23)
        s = CausalSite([("a", 2), ("b", 3), ("c", 2)])
        for _ in range(80):
            e = rng.randrange(1 << n_histories(s))
            assert dom(s, e) == oracle_dom(s, e)

    def test_alphabet_one_site_never_in_dom(self):
        s = CausalSite([("a", 1), ("b", 2)])
        assert dom(s, cylinder(s, "b", 0)) == s.region(["b"])


# -- history positions against itertools.product ----------------------------


@st.composite
def indexed_sites(draw):
    """A site of 1-6 elements with alphabets 1-3 and order relations, and a seed."""
    n = draw(st.integers(1, 6))
    alphabets = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    relations = draw(st.lists(st.sampled_from(edges), max_size=4, unique=True)) if edges else []
    site = CausalSite(
        [(f"e{i}", k) for i, k in enumerate(alphabets)],
        [(f"e{i}", f"e{j}") for i, j in relations],
    )
    return site, draw(st.integers(0, 2**32))


@given(indexed_sites())
def test_history_positions_match_the_product_order(drawn):
    site, seed = drawn
    rng = random.Random(seed)
    digs = all_digits(site)
    assert n_histories(site) == len(digs)
    for h, d in enumerate(digs):
        assert history_digits(site, h) == d
        assert history_index(site, d) == h
    for i, k in enumerate(site.alphabets):
        for v in range(k):
            assert cylinder(site, i, v) == sum(1 << h for h, d in enumerate(digs) if d[i] == v)
    for _ in range(4):
        region = rng.randrange(site.full_mask + 1)
        members = list(iter_bits(region))
        configs = {
            values: c
            for c, values in enumerate(itertools.product(*(range(site.alphabets[i]) for i in members)))
        }
        expected = tuple(configs[tuple(d[i] for i in members)] for d in digs)
        assert config_indices(site, region) == expected
        # a random union of the region's cells; element i is in its domain iff
        # the event is not decidable on the other elements together
        picked = {c for c in configs.values() if rng.random() < 0.5}
        event = sum(1 << h for h, c in enumerate(expected) if c in picked)
        relevant = sum(
            1 << i for i in range(site.n)
            if project_pullback(site, event, site.full_mask & ~(1 << i)) != event
        )
        assert dom(site, event) == relevant


# -- restriction -----------------------------------------------------------


class TestRestriction:
    def test_corner_to_edge(self):
        s = antichain(2)
        corner = cylinder(s, "e0", 0) & cylinder(s, "e1", 0)
        assert restriction(s, corner, s.region(["e0"])) == cylinder(s, "e0", 0)

    def test_contains_argument(self):
        rng = random.Random(5)
        s = coin_site()
        for _ in range(50):
            y = rng.randrange(1 << 8)
            x = rng.randrange(8)
            r = restriction(s, y, x)
            assert r & y == y
            assert dom(s, r) & ~x == 0
            assert restriction(s, r, x) == r

    def test_least_cover_oracle(self):
        s = antichain(2)
        for y in range(16):
            for x in range(4):
                assert restriction(s, y, x) == oracle_restriction(s, y, x)

    def test_empty_region_restriction(self):
        s = antichain(2)
        assert restriction(s, 0b0010, 0) == omega(s)
        assert restriction(s, 0, 0b01) == 0


# -- full specifications ---------------------------------------------------


class TestFullSpecifications:
    def test_choice_region_of_coin(self):
        s = coin_site()
        cells = full_specifications(s, s.region(["c"]))
        assert len(cells) == 2
        assert cells[0] == cylinder(s, "c", 0)
        assert cells[1] == cylinder(s, "c", 1)

    def test_empty_region(self):
        s = coin_site()
        assert full_specifications(s, 0) == (omega(s),)

    def test_partition(self):
        s = CausalSite([("a", 2), ("b", 3)])
        for r in range(4):
            cells = full_specifications(s, r)
            assert len(cells) == n_configs(s, r)
            acc = 0
            for c in cells:
                assert c
                assert acc & c == 0
                acc |= c
            assert acc == omega(s)

    def test_definitional_property(self):
        s = antichain(2)
        for r in range(4):
            cells = set(full_specifications(s, r))
            for e in range(16):
                assert is_full_specification(s, e, r) == (e in cells)

    def test_config_order_matches_atom_expr(self):
        s = coin_site()
        r = s.region(["c", "b_s"])
        assert atom_expr(s, r, 0) == "c=0 & b_s=0"
        assert atom_expr(s, r, 1) == "c=0 & b_s=1"
        assert atom_expr(s, r, 3) == "c=1 & b_s=1"
        cis = config_indices(s, r)
        for ci, cell in enumerate(full_specifications(s, r)):
            for h in iter_bits(cell):
                assert cis[h] == ci


# -- restriction of full specifications ------------------------------------


class TestSpecRestriction:
    def test_restriction_of_spec_is_spec_random(self):
        rng = random.Random(9)
        s = coin_site()
        for _ in range(30):
            a = rng.randrange(8)
            b = a & rng.randrange(8)
            target = set(full_specifications(s, b))
            for f in full_specifications(s, a):
                assert restriction(s, f, b) in target
