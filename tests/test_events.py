"""Histories, events, domains, restrictions, full specifications.

Each derived expectation is pinned by an oracle that goes straight to the
definitions: domains via minimal pullback regions, restrictions via
intersection of all decidable covers, full specifications via the
decides-every-decidable-event property.
"""
from __future__ import annotations

import random

import pytest

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
    verify_dom_axioms,
    verify_fullspec_lemmas,
    atom_expr,
)
from screenoff.order import CausalSite, iter_bits, submasks

from test_order import antichain, chain, coin_site


# -- oracles ---------------------------------------------------------------


def project_pullback(site: CausalSite, e: int, r: int) -> int:
    """Keep histories agreeing on r with a member of e (by raw digit compare)."""
    members = list(iter_bits(r))
    digs = [history_digits(site, h) for h in range(n_histories(site))]
    configs = {tuple(digs[h][i] for i in members) for h in iter_bits(e)}
    out = 0
    for h in range(n_histories(site)):
        if tuple(digs[h][i] for i in members) in configs:
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
        monkeypatch.setattr(events, "_Space", None)
        s = CausalSite([(f"e{i}", 2) for i in range(17)])
        with pytest.raises(CapacityError) as err:
            n_histories(s)
        assert str(err.value) == (
            "capacity error: the site has 131072 histories (the product of its "
            "alphabet sizes); the limit is 65536"
        )
        assert isinstance(err.value, ValueError)


# -- dom -------------------------------------------------------------------


class TestDom:
    def test_trivial_events(self):
        s = antichain(3)
        assert dom(s, 0) == 0
        assert dom(s, omega(s)) == 0

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


# -- axiom and lemma verifiers ---------------------------------------------


class TestVerifiers:
    def test_dom_axioms_on_sampled_families(self):
        s = antichain(3)
        rng = random.Random(41)
        sample = [rng.randrange(1 << 8) for _ in range(10)]
        sample += [cylinder(s, "e0", 0), cylinder(s, "e1", 1), 0, omega(s)]
        rep = verify_dom_axioms(s, sample)
        assert rep.holds, rep.counterexample

    def test_dom_axioms_all_corpus_shapes(self):
        for s in (chain(3), coin_site(), CausalSite([("a", 3), ("b", 2)])):
            rng = random.Random(17)
            sample = [rng.randrange(1 << n_histories(s)) for _ in range(8)]
            rep = verify_dom_axioms(s, sample)
            assert rep.holds, rep.counterexample

    def test_fullspec_lemmas_small_sites(self):
        for s in (antichain(2), chain(3), coin_site()):
            rep = verify_fullspec_lemmas(s)
            assert rep.holds, (s, rep.counterexample)

    def test_restriction_of_spec_is_spec_random(self):
        rng = random.Random(9)
        s = coin_site()
        for _ in range(30):
            a = rng.randrange(8)
            b = a & rng.randrange(8)
            target = set(full_specifications(s, b))
            for f in full_specifications(s, a):
                assert restriction(s, f, b) in target
