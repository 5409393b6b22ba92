"""Every check of one model shares its memo: cell tables by union, planned scans by (scan, P, regions).

A check run after others on one model must report exactly what it reports
on a fresh copy; a check whose scans another check of the model already
made must not make them again; and the memo must neither leak across models
of one site nor grow with repeated unplanned scans.
"""
from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st
from reference import SCREENING, _outcome, cold, common_cause, recorded_scans

import screenoff.quantal as quantal_mod
import screenoff.stochastic as stochastic
from screenoff.corpus import random_deterministic_local, random_diagonal_quantal, random_quantal, random_stochastic
from screenoff.quantal import QuantalModel, check_qso1, check_qso2, diagonal_reduction
from screenoff.report import HOLDS, VIOLATED
from screenoff.stochastic import StochasticModel, check_penrose_percival, check_so1, check_wrc

STOCHASTIC_CHECKS = (
    *SCREENING,
    ("wrc", check_wrc),
    ("wrc-cond", lambda m: check_wrc(m, conditioned=True)),
)
QUANTAL_CHECKS = (("qso1", check_qso1), ("qso2", check_qso2), ("diag-reduce", diagonal_reduction))
DRAWS = (random_stochastic, random_deterministic_local, random_quantal, random_diagonal_quantal)


def quantal_scans(monkeypatch) -> list:
    """The (regions, past) of every quantal scan, in order."""
    scans = []
    original = quantal_mod._quantal_screening_failure
    monkeypatch.setattr(
        quantal_mod, "_quantal_screening_failure",
        lambda q, regions, past, **k: scans.append((regions, past)) or original(q, regions, past, **k),
    )
    return scans


@settings(max_examples=200)
@given(draw=st.sampled_from(DRAWS), seed=st.integers(0, 10**6), n_sites=st.integers(2, 5), data=st.data())
def test_checks_in_any_order_on_one_model_report_as_on_fresh_copies(draw, seed, n_sites, data):
    model = draw(seed, n_sites)
    checks = STOCHASTIC_CHECKS if isinstance(model, StochasticModel) else QUANTAL_CHECKS
    order = data.draw(st.permutations(checks))
    for label, run in order:
        assert _outcome(lambda: run(model)) == _outcome(lambda: run(cold(model))), label


def test_qso2_after_qso1_on_one_strict_past_makes_no_scan(monkeypatch):
    # where every two spacelike elements share one strict past, qso2's units
    # are qso1's: it reads every scan from the memo, whether qso1 held or failed
    verdicts = set()
    scans = quantal_scans(monkeypatch)
    for seed in range(40):
        for q in (random_quantal(seed, 3), random_diagonal_quantal(seed, 3, 2)):
            if not (stochastic._spacelike_pairs(q.site) and stochastic._one_strict_past(q.site)):
                continue
            verdicts.add(check_qso1(q).verdict)
            del scans[:]
            want = _outcome(lambda: check_qso2(cold(q)))
            assert scans
            del scans[:]
            assert _outcome(lambda: check_qso2(q)) == want
            assert scans == []
    assert verdicts == {HOLDS, VIOLATED}


def test_penrose_percival_after_so1_makes_no_scan_so1_made(monkeypatch):
    # on the common cause below 7 leaves, with and without the last two
    # coupled, and on random draws: the dissection walk scans only what so1
    # did not, and its own so1 verdict scans nothing
    scans = recorded_scans(monkeypatch)
    models = [common_cause(random.Random(3), 7, coupled) for coupled in (False, True)]
    models += [random_stochastic(seed, 4) for seed in range(20)]
    for model in models:
        del scans[:]
        check_so1(model)
        so1 = set(scans)
        del scans[:]
        want = _outcome(lambda: check_penrose_percival(cold(model)))
        dissections = scans[len(so1):]
        del scans[:]
        assert _outcome(lambda: check_penrose_percival(model)) == want
        assert scans == dissections and not so1 & set(scans)


def test_a_patched_scan_reads_no_result_of_another_scan(monkeypatch):
    # the memo keys planned scans by their function, so a recording scan
    # patched in after so1 makes every scan a cold so1 makes
    model = common_cause(random.Random(3), 7, True)
    want = _outcome(lambda: check_so1(model))
    scans = recorded_scans(monkeypatch)
    check_so1(cold(model))
    cold_scans = list(scans)
    del scans[:]
    assert _outcome(lambda: check_so1(model)) == want
    assert scans == cold_scans and len(scans) == 4


def test_two_models_of_one_site_share_no_scan():
    # the memo lives on the model: so1 holds on the independent leaves and
    # fails on the coupled ones, whichever runs first on their one site
    held, tied = (common_cause(random.Random(3), 5, coupled) for coupled in (False, True))
    tied = StochasticModel(held.site, tied.weights)
    for first, second in ((held, tied), (tied, held)):
        first, second = cold(first), cold(second)
        assert check_so1(first).verdict != check_so1(second).verdict


def test_repeated_wrc_calls_do_not_grow_the_memo():
    # wrc's per-pair correlate scans are not kept: only the tables they read
    model = common_cause(random.Random(3), 5, True)
    for conditioned in (False, True):
        check_wrc(model, conditioned)
        size = len(model._memo)
        for _ in range(3):
            check_wrc(model, conditioned)
            assert len(model._memo) == size
    assert all(isinstance(key, int) for key in model._memo)


def test_diag_reduce_shares_qso1_scans(monkeypatch):
    # diag-reduce's qso1 reads the scans of a qso1 run before it
    q = random_diagonal_quantal(5, 4, 2)
    assert isinstance(q, QuantalModel) and stochastic._spacelike_pairs(q.site)
    scans = quantal_scans(monkeypatch)
    check_qso1(q)
    del scans[:]
    want = _outcome(lambda: diagonal_reduction(cold(q)))
    assert scans
    del scans[:]
    assert _outcome(lambda: diagonal_reduction(q)) == want
    assert scans == []


def test_repeated_diag_reduce_calls_share_their_classical_scans(monkeypatch):
    # the induced probability measure is kept in the quantal model's memo,
    # so only the first of three calls makes so1's scans
    q = random_diagonal_quantal(5, 4, 2)
    want = _outcome(lambda: diagonal_reduction(cold(q)))
    scans = recorded_scans(monkeypatch)
    outcomes = [_outcome(lambda: diagonal_reduction(q)) for _ in range(3)]
    assert outcomes == [want] * 3
    assert len(scans) == 5
