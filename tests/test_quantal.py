"""Interference matrices, pseudo-events, and the quantal screening checks.

Pinned values come from direct evaluation of the defining double sums with
Fraction arithmetic; the reduction tests lean on the classical module's
already-oracled verdicts.
"""
from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from pseudo_events import CF_ONE, PseudoEvent, mu_hat, pdom, pseudo_full_specifications
from test_order import antichain, coin_site
from test_stochastic import selection_reversal, sparse_model

import screenoff.quantal as quantal
from screenoff.events import (
    config_indices,
    decidable_events,
    full_specifications,
    history_index,
    n_configs,
    n_histories,
    omega,
)
from screenoff.exprs import parse_event
from screenoff.order import CausalSite, iter_bits, submasks
from screenoff.quantal import (
    CF_ZERO,
    ComplexFraction,
    QuantalError,
    QuantalModel,
    check_qso1,
    check_qso2,
    diagonal_reduction,
    validate_quantal,
)
from screenoff.report import HOLDS, VACUOUS, VIOLATED, CheckReport
from screenoff.stochastic import StochasticModel, check_so1

F = Fraction
CF = ComplexFraction


# -- builders ---------------------------------------------------------------


def diagonal_model(site: CausalSite, weights) -> QuantalModel:
    n = n_histories(site)
    ws = list(weights)
    return QuantalModel(
        site, [[ws[h] if h == g else 0 for g in range(n)] for h in range(n)]
    )


def rank_one(site: CausalSite, amplitudes, weight=F(1)) -> QuantalModel:
    psi = [CF.of(a) for a in amplitudes]
    entries = [
        [psi[h] * psi[g].conjugate() * weight for g in range(len(psi))]
        for h in range(len(psi))
    ]
    return QuantalModel(site, entries, positivity_witness=[(weight, psi)])


def coin_weights() -> list[Fraction]:
    site = coin_site()
    w = [F(0)] * n_histories(site)
    w[history_index(site, (0, 0, 1))] = F(1, 2)
    w[history_index(site, (1, 1, 0))] = F(1, 2)
    return w


def entangled_pair() -> QuantalModel:
    # amplitudes concentrate on the agreeing outcomes, quarter phase apart
    return rank_one(antichain(2), [CF(F(1, 2)), 0, 0, CF(F(0), F(1, 2))], weight=F(2))


def random_rank_one(rng: random.Random, site: CausalSite) -> QuantalModel:
    n = n_histories(site)
    while True:
        psi = [
            CF(F(rng.randrange(-2, 3)), F(rng.randrange(-2, 3))) for _ in range(n)
        ]
        total = CF_ZERO
        for a in psi:
            total = total + a
        if total:
            break
    # scale so the amplitudes sum to one: times conj(total) / |total|^2
    inverse = total.conjugate() * (1 / (total.re * total.re + total.im * total.im))
    psi = [a * inverse for a in psi]
    return rank_one(site, psi)


# -- exact complex arithmetic ----------------------------------------------


class TestComplexFraction:
    def test_field_operations(self):
        a = CF(F(1, 2), F(1, 3))
        b = CF(F(-1, 4), F(2))
        assert a + b == CF(F(1, 4), F(7, 3))
        assert a - b == CF(F(3, 4), F(-5, 3))
        assert a * b == CF(F(1, 2) * F(-1, 4) - F(1, 3) * 2, F(1) + F(1, 3) * F(-1, 4))

    def test_conjugate(self):
        assert CF(F(1), F(2)).conjugate() == CF(F(1), F(-2))

    def test_coercions(self):
        assert CF.of(3) == CF(F(3), F(0))
        assert CF.of(F(1, 2)) == CF(F(1, 2), F(0))
        assert CF.of((1, F(1, 2))) == CF(F(1), F(1, 2))
        assert CF.of(CF_ONE) is CF_ONE

    def test_truthiness_and_text(self):
        assert not CF_ZERO
        assert CF(F(0), F(1, 9))
        assert str(CF(F(1, 2), F(-1, 4))) == "1/2 - 1/4i"
        assert str(CF(F(2), F(0))) == "2"


# -- model validation -------------------------------------------------------


class TestValidation:
    def test_diagonal_embedding_is_valid(self):
        q = diagonal_model(coin_site(), coin_weights())
        r = validate_quantal(q)
        assert r.verdict == HOLDS
        assert r.stats["positivity"] == "enumerated"

    def test_rank_one_is_valid(self):
        q = rank_one(antichain(1), [F(1, 2), F(1, 2)])
        assert validate_quantal(q).verdict == HOLDS

    def test_dimension_mismatch(self):
        with pytest.raises(QuantalError, match="dimension mismatch"):
            QuantalModel(antichain(2), [[1, 0], [0, 0]])

    def test_hermiticity_witnessed(self):
        q = QuantalModel(
            antichain(1), [[F(1, 2), CF(F(1, 4), F(1, 8))], [F(1, 4), F(1, 2)]]
        )
        r = validate_quantal(q)
        assert r.verdict == VIOLATED
        assert r.counterexample.value("axiom") == "hermiticity"
        assert r.counterexample.value("entry") == "(0, 1)"

    def test_normalization(self):
        q = diagonal_model(antichain(1), [F(1, 2), F(1, 4)])
        r = validate_quantal(q)
        assert r.verdict == VIOLATED
        assert r.counterexample.value("axiom") == "normalization"
        assert r.counterexample.value("total") == "3/4"

    def test_negative_diagonal(self):
        q = diagonal_model(antichain(1), [F(3, 2), F(-1, 2)])
        r = validate_quantal(q)
        assert r.verdict == VIOLATED
        assert r.counterexample.value("axiom") == "positivity"
        assert r.counterexample.event("A").mask == 0x2

    def test_negative_pair_event_found_by_enumeration(self):
        # positive diagonal, yet the two-history event has negative measure
        site = CausalSite([("t", 3)], [])
        q = QuantalModel(
            site,
            [
                [F(1, 8), F(-1, 4), 0],
                [F(-1, 4), F(1, 8), 0],
                [0, 0, F(5, 4)],
            ],
        )
        r = validate_quantal(q)
        assert r.verdict == VIOLATED
        assert r.counterexample.event("A").mask == 0x3
        assert r.counterexample.value("mu_q(A)") == "-1/4"

    def test_witness_route(self):
        r = validate_quantal(entangled_pair())
        assert r.verdict == HOLDS
        assert r.stats["positivity"] == "witness"

    def test_witness_must_reproduce_matrix(self):
        psi = [CF(F(1, 2)), 0, 0, CF(F(0), F(1, 2))]
        entries = [[psi[h] * psi[g].conjugate() * 2 for g in range(4)] for h in range(4)]
        wrong = [CF(F(1, 2)), 0, 0, CF(F(1, 2))]
        q = QuantalModel(antichain(2), entries, positivity_witness=[(F(2), wrong)])
        with pytest.raises(QuantalError, match="does not reproduce"):
            validate_quantal(q)

    def test_witness_weight_and_length_checked(self):
        psi = [CF(F(1, 2)), CF(F(1, 2))]
        entries = [[psi[h] * psi[g].conjugate() for g in range(2)] for h in range(2)]
        q = QuantalModel(
            antichain(1),
            entries,
            positivity_witness=[(F(-1), psi), (F(2), psi)],
        )
        with pytest.raises(QuantalError, match="not positive"):
            validate_quantal(q)
        q = QuantalModel(
            antichain(1),
            [[F(1, 4), F(1, 4)], [F(1, 4), F(1, 4)]],
            positivity_witness=[(F(1), [CF(F(1, 2))])],
        )
        with pytest.raises(QuantalError, match="amplitudes"):
            validate_quantal(q)

    def test_large_model_needs_witness(self):
        site = antichain(5)
        n = n_histories(site)
        psi = [CF(F(1, n))] * n
        entries = [[psi[h] * psi[g].conjugate() for g in range(n)] for h in range(n)]
        bare = QuantalModel(site, entries)
        with pytest.raises(QuantalError, match="uncertifiable"):
            validate_quantal(bare)
        vouched = QuantalModel(site, entries, positivity_witness=[(F(1), psi)])
        assert validate_quantal(vouched).verdict == HOLDS

    def test_checks_refuse_invalid_models(self):
        q = diagonal_model(antichain(1), [F(1, 2), F(1, 4)])
        with pytest.raises(QuantalError, match="invalid model"):
            check_qso1(q)
        with pytest.raises(QuantalError, match="invalid model"):
            q.mu_q(0x1)


# -- measures ---------------------------------------------------------------


class TestMeasures:
    def test_sure_and_empty(self):
        q = diagonal_model(coin_site(), coin_weights())
        assert q.mu_q(omega(coin_site())) == 1
        assert q.mu_q(0) == 0

    def test_interference(self):
        # two histories with uniform amplitudes: parts carry 1/4 each, the
        # whole carries 1 — the cross terms are real and visible
        q = rank_one(antichain(1), [F(1, 2), F(1, 2)])
        assert q.mu_q(0x1) == F(1, 4)
        assert q.mu_q(0x2) == F(1, 4)
        assert q.mu_q(0x3) == 1
        assert q.mu_q(0x3) != q.mu_q(0x1) + q.mu_q(0x2)

    def test_mu_hat_additive(self):
        rng = random.Random(13)
        q = entangled_pair()
        n = n_histories(q.site)
        for _ in range(50):
            a = rng.randrange(1 << n)
            a2 = rng.randrange(1 << n) & ~a
            b = rng.randrange(1 << n)
            whole = mu_hat(q, PseudoEvent(a | a2, b))
            parts = mu_hat(q, PseudoEvent(a, b)) + mu_hat(q, PseudoEvent(a2, b))
            assert whole == parts

    def test_reported_values_match_direct_sums(self):
        # the cell-matrix machinery must agree with the defining double sum
        q = entangled_pair()
        r = check_qso1(q)
        assert r.verdict == VIOLATED
        cx = r.counterexample
        joint = PseudoEvent(
            cx.event("A1").mask & cx.event("B1").mask & cx.event("C1").mask,
            cx.event("A2").mask & cx.event("B2").mask & cx.event("C2").mask,
        )
        assert str(mu_hat(q, joint)) == cx.value("muhat(A&B&C)")
        cond = PseudoEvent(cx.event("C1").mask, cx.event("C2").mask)
        assert str(mu_hat(q, cond)) == cx.value("muhat(C)")


# -- pseudo-events ----------------------------------------------------------


class TestPseudoEvents:
    def test_pdom_examples(self):
        q = diagonal_model(antichain(2), [F(1, 4)] * 4)
        site = q.site
        p = PseudoEvent(parse_event(site, "e0=0"), parse_event(site, "e0=1"))
        assert pdom(q, p) == site.index("e0") + 1  # bit 0 set
        assert pdom(q, PseudoEvent(omega(site), omega(site))) == 0
        cross = PseudoEvent(parse_event(site, "e0=0"), parse_event(site, "e1=0"))
        assert pdom(q, cross) == 0x3

    def test_intersection_is_componentwise(self):
        p1 = PseudoEvent(0b1100, 0b1010)
        p2 = PseudoEvent(0b0110, 0b0110)
        assert p1 & p2 == PseudoEvent(0b0100, 0b0010)

    def test_cell_counts(self):
        q = diagonal_model(coin_site(), coin_weights())
        assert len(pseudo_full_specifications(q, 0)) == 1
        assert pseudo_full_specifications(q, 0)[0] == PseudoEvent(0xFF, 0xFF)
        source = q.site.region(["c"])
        cells = pseudo_full_specifications(q, source)
        assert len(cells) == 4
        for p in cells:
            assert bin(p.left).count("1") * bin(p.right).count("1") == 16

    def test_cells_partition_the_pair_space(self):
        q = diagonal_model(coin_site(), coin_weights())
        region = q.site.region(["c", "a_s"])
        cells = pseudo_full_specifications(q, region)
        total = sum(
            bin(p.left).count("1") * bin(p.right).count("1") for p in cells
        )
        assert total == n_histories(q.site) ** 2
        for i, p in enumerate(cells):
            for other in cells[i + 1 :]:
                meet = p & other
                assert meet.left == 0 or meet.right == 0


# -- the screening checks ---------------------------------------------------


class TestQSO:
    def test_diagonal_source_holds(self):
        q = diagonal_model(coin_site(), coin_weights())
        assert check_qso1(q).verdict == HOLDS
        assert check_qso2(q).verdict == HOLDS

    def test_product_matrix_holds(self):
        psa = [CF(F(3, 5)), CF(F(2, 5))]
        psb = [CF(F(1, 2)), CF(F(1, 2))]
        psi = [psa[h1] * psb[h2] for h1 in range(2) for h2 in range(2)]
        q = rank_one(antichain(2), psi)
        assert validate_quantal(q).verdict == HOLDS
        assert check_qso1(q).verdict == HOLDS
        assert check_qso2(q).verdict == HOLDS

    def test_entangled_pair_violated(self):
        q = entangled_pair()
        r = check_qso1(q)
        assert r.verdict == VIOLATED
        cx = r.counterexample
        assert cx.regions[2] == ("past", ())
        assert cx.value("muhat(A&B&C)*muhat(C)") == "1/2"
        assert cx.value("muhat(A&C)*muhat(B&C)") == "1/4"
        assert check_qso2(q).verdict == VIOLATED

    def test_single_site_vacuous(self):
        q = rank_one(antichain(1), [F(1, 2), F(1, 2)])
        r = check_qso1(q)
        assert r.verdict == VACUOUS
        assert "no spacelike pairs" in r.reason

    def test_diagonal_matches_classical_verdicts(self):
        rng = random.Random(271)
        site = coin_site()
        n = n_histories(site)
        for _ in range(30):
            nums = [rng.randrange(4) for _ in range(n)]
            if not any(nums):
                nums[0] = 1
            total = sum(nums)
            weights = [F(k, total) for k in nums]
            q = diagonal_model(site, weights)
            s = check_so1(StochasticModel(site, weights))
            assert check_qso1(q).verdict == s.verdict

    def test_qso1_equals_qso2_on_random_rank_one(self):
        rng = random.Random(997)
        for i in range(30):
            site = antichain(2) if i % 2 else coin_site()
            q = random_rank_one(rng, site)
            assert check_qso1(q).verdict == check_qso2(q).verdict, (i,)


class TestUnionTables:
    def test_one_matrix_per_region_union(self, monkeypatch):
        # 5 binary sites, no order: every pair's past is empty, so the scans
        # read the union {s1, s2} of the first pair and the union of all
        # five sites (the group certificate), one matrix each, for the 180
        # region pairs
        site = antichain(5)
        psi = [CF_ONE]
        for i in range(5):
            a0 = CF(F(i + 1, 4), F(i - 2, 4))
            psi = [x * a for x in psi for a in (a0, CF_ONE - a0)]
        q = rank_one(site, psi)
        calls = []
        original = quantal._pair_matrix

        def counted(*args, **kwargs):
            calls.append((args, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(quantal, "_pair_matrix", counted)
        report = check_qso1(q)
        assert report.verdict == HOLDS
        assert report.stats == {"region_pairs": 180, "equations_checked": 52800}
        assert len(calls) == 2
        # the benchmark tracer's hook takes exactly (q, regions)
        for args, kwargs in calls:
            assert len(args) == 2 and not kwargs
            assert args[0] is q
        assert [sum(regions) for (_, regions), _ in calls] == [0b00011, 0b11111]


# -- reduction to the classical checker -------------------------------------


class TestDiagonalReduction:
    def test_source_model(self):
        q = diagonal_model(coin_site(), coin_weights())
        r = diagonal_reduction(q)
        assert r.verdict == HOLDS
        assert r.stats == {"so1_verdict": HOLDS, "qso1_verdict": HOLDS}

    def test_reversal_model_matches_counterexamples(self):
        m = selection_reversal()
        q = diagonal_model(m.site, m.weights)
        r = diagonal_reduction(q)
        assert r.verdict == HOLDS
        assert r.stats["so1_verdict"] == VIOLATED
        assert r.stats["qso1_verdict"] == VIOLATED
        assert r.stats["counterexamples_matched"] is True

    def test_box_model(self):
        site = CausalSite(
            [("x", 2), ("y", 2), ("a", 2), ("b", 2)],
            [("x", "a"), ("y", "b")],
        )
        entries = {}
        for x in (0, 1):
            for y in (0, 1):
                for a in (0, 1):
                    for b in (0, 1):
                        if a ^ b == (x & y):
                            entries[(x, y, a, b)] = F(1, 8)
        m = sparse_model(site, entries)
        r = diagonal_reduction(diagonal_model(site, m.weights))
        assert r.verdict == HOLDS
        assert r.stats["so1_verdict"] == VIOLATED

    def test_disagreeing_verdicts_are_reported(self, monkeypatch):
        # the reduction is a theorem; a stand-in so1 verdict reaches the report
        m = selection_reversal()
        monkeypatch.setattr(quantal, "check_so1", lambda model: CheckReport("so1", HOLDS))
        r = diagonal_reduction(diagonal_model(m.site, m.weights))
        assert r.verdict == VIOLATED
        assert r.stats == {"so1_verdict": HOLDS, "qso1_verdict": VIOLATED}
        assert r.counterexample.values == (("so1", HOLDS), ("qso1", VIOLATED))
        assert r.counterexample.note == "quantal and classical verdicts disagree on a decohered matrix"

    def test_different_counterexamples_are_reported(self, monkeypatch):
        # a stand-in so1 report names other regions than the quantal one
        m = selection_reversal()
        so1 = check_so1(m)
        moved = replace(so1, counterexample=replace(so1.counterexample, regions=()))
        monkeypatch.setattr(quantal, "check_so1", lambda model: moved)
        q = diagonal_model(m.site, m.weights)
        qc = quantal.check_qso1(q).counterexample
        r = diagonal_reduction(q)
        assert r.verdict == VIOLATED
        assert r.stats == {"so1_verdict": VIOLATED, "qso1_verdict": VIOLATED, "counterexamples_matched": False}
        sc = so1.counterexample
        assert r.counterexample.values == (
            ("classical A", sc.event("A").describe()),
            ("quantal A1", qc.event("A1").describe()),
            ("classical C", sc.event("C").describe()),
            ("quantal C1", qc.event("C1").describe()),
        )
        assert r.counterexample.note == "matching verdicts but different first counterexamples"

    def test_rejects_off_diagonal(self):
        with pytest.raises(QuantalError, match="off-diagonal"):
            diagonal_reduction(entangled_pair())

    def test_rejects_complex_diagonal(self):
        q = QuantalModel(
            antichain(1),
            [[CF(F(1, 2), F(1, 2)), 0], [0, CF(F(1, 2), F(-1, 2))]],
        )
        with pytest.raises(QuantalError, match="not real"):
            diagonal_reduction(q)


# -- pseudo-event lemmas, exhaustive on small sites ---------------------------


def uniform_model(site: CausalSite) -> QuantalModel:
    n = n_histories(site)
    return diagonal_model(site, [F(1, n)] * n)


class TestQuantalLemmas:
    def test_intersections_of_disjoint_domains_stay_inside_their_union(self):
        for site in (antichain(2), CausalSite([("a", 3), ("b", 2)])):
            q = uniform_model(site)
            for r1 in range(site.full_mask + 1):
                for r2 in submasks(site.full_mask & ~r1):
                    xs = [PseudoEvent(*p) for p in product(decidable_events(site, r1), repeat=2)]
                    ys = [PseudoEvent(*p) for p in product(decidable_events(site, r2), repeat=2)]
                    for x in xs:
                        for y in ys:
                            assert pdom(q, x & y) & ~(pdom(q, x) | pdom(q, y)) == 0

    def test_pseudo_cells_of_a_disjoint_union_factor(self):
        for site in (antichain(2), coin_site(), CausalSite([("a", 3), ("b", 2)])):
            q = uniform_model(site)
            for ra in range(site.full_mask + 1):
                cells_a, cis_a = full_specifications(site, ra), config_indices(site, ra)
                for rb in submasks(site.full_mask & ~ra):
                    cells_b, cis_b = full_specifications(site, rb), config_indices(site, rb)
                    union = pseudo_full_specifications(q, ra | rb)
                    assert len(union) == n_configs(site, ra | rb) ** 2
                    for f in union:
                        h1, h2 = next(iter_bits(f.left)), next(iter_bits(f.right))
                        ga = PseudoEvent(cells_a[cis_a[h1]], cells_a[cis_a[h2]])
                        gb = PseudoEvent(cells_b[cis_b[h1]], cells_b[cis_b[h2]])
                        assert ga & gb == f
