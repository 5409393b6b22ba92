"""One number form for models: scaled integers inside, Fractions at the boundary.

A ``StochasticModel`` holds integer numerators over one reduced denominator,
and the internal producers (the random generators, the deterministic-local
dynamics, the diagonal reduction and the corpus's decohered embeddings) hand
it integers.  The ``ref_*`` functions of ``reference.py`` are the
Fraction-path versions of those producers; every scaled result is compared
against them.  A guard counts ``Fraction`` constructions on the generator
and check paths.
"""
from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

import screenoff.corpus as corpus_mod
import screenoff.quantal as quantal
from screenoff.cli import main
from screenoff.corpus import (
    builtin,
    corpus_names,
    fuzz_equivalence,
    random_deterministic_local,
    random_diagonal_quantal,
    random_quantal,
    random_stochastic,
)
from screenoff.events import n_histories
from screenoff.order import CausalSite
from screenoff.quantal import check_qso1, diagonal_reduction
from screenoff.stochastic import (
    MeasureError,
    StochasticModel,
    check_so1,
    check_so2,
    deterministic_local_model,
)

from pseudo_events import PseudoEvent, mu_hat
from reference import (
    ref_d_value, ref_deterministic_local_model, ref_diagonal_embedding, ref_induced_measure,
    ref_random_stochastic,
)

F = Fraction
SEEDS = range(200)
SITES = (
    CausalSite([("a", 2)], []),
    CausalSite([("a", 2), ("b", 3)], []),
    CausalSite([("c", 2), ("a", 2), ("b", 2)], [("c", "a"), ("c", "b")]),
    CausalSite([("x", 3), ("y", 2)], [("x", "y")]),
)


# -- the two constructors -----------------------------------------------------


@st.composite
def scaled_measures(draw):
    site = draw(st.sampled_from(SITES))
    n = n_histories(site)
    nums = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n).filter(any))
    factor = draw(st.integers(1, 12))
    return site, sum(nums) * factor, [k * factor for k in nums]


@given(scaled_measures())
def test_scaled_constructor_matches_the_public_one(measure):
    site, den, nums = measure
    scaled = StochasticModel._from_scaled(site, den, nums)
    public = StochasticModel(site, [F(k, den) for k in nums])
    assert scaled == public
    assert hash(scaled) == hash(public)
    assert scaled.weights == public.weights == tuple(F(k, den) for k in nums)
    assert (scaled._den, scaled._nums) == (public._den, public._nums)
    assert gcd(scaled._den, *scaled._nums) == 1
    assert scaled._den == lcm(*(F(k, den).denominator for k in nums))
    assert repr(scaled) == repr(public)


def test_weights_view_is_built_once_on_first_read():
    m = random_stochastic(3)
    assert m._weight_view is None
    assert m.weights is m.weights
    assert sum(m.weights) == 1


SITE4 = CausalSite([("a", 2), ("b", 2)], [])


@pytest.mark.parametrize(
    "weights, den, nums, text",
    [
        ([F(1, 3)] * 3, 3, [1, 1, 1],
         "measure error: dimension mismatch: got 3 weights for a history space of size 4"),
        ([F(-1, 2), F(1, 2), F(1, 2), F(1, 2)], 4, [-2, 2, 2, 2],
         "measure error: negative weight -1/2 at history 0"),
        ([F(1, 2), F(-1, 4), F(1, 2), F(1, 4)], 4, [2, -1, 2, 1],
         "measure error: negative weight -1/4 at history 1"),
        ([F(1, 3)] * 4, 3, [1, 1, 1, 1],
         "measure error: normalization: weights sum to 4/3, not 1"),
        ([F(1, 6)] * 4, 12, [2, 2, 2, 2],
         "measure error: normalization: weights sum to 2/3, not 1"),
    ],
    ids=["dimension", "negative", "negative-later", "normalization", "normalization-unreduced"],
)
def test_measure_errors_read_the_same_through_both_constructors(weights, den, nums, text):
    with pytest.raises(MeasureError) as public:
        StochasticModel(SITE4, weights)
    with pytest.raises(MeasureError) as scaled:
        StochasticModel._from_scaled(SITE4, den, nums)
    assert str(public.value) == str(scaled.value) == text


# -- differential references --------------------------------------------------


def test_random_stochastic_matches_the_fraction_path():
    for seed in SEEDS:
        shape = (seed, 1 + seed % 5, 2 + seed % 3)
        m, ref = random_stochastic(*shape), ref_random_stochastic(*shape)
        assert m == ref and m.weights == ref.weights, shape


def test_deterministic_local_model_matches_the_fraction_path(monkeypatch):
    # the generator hands the dynamics its integer draws, each over its total
    calls = []
    produce = corpus_mod._deterministic_local

    def recording(site, dists, rules):
        calls.append((site, dists, rules))
        return produce(site, dists, rules)

    monkeypatch.setattr(corpus_mod, "_deterministic_local", recording)
    for seed in SEEDS:
        m = random_deterministic_local(seed, n_sites=2 + seed % 4, max_alphabet=2 + seed % 2)
        site, dists, rules = calls[-1]
        fractions = {site.elements[e]: [F(x, den) for x in nums] for e, (den, nums) in dists.items()}
        ref = ref_deterministic_local_model(site, fractions, rules)
        assert m == ref and m.weights == ref.weights, seed


def test_deterministic_local_model_takes_any_rational_spelling():
    site = CausalSite([("x", 3), ("y", 2)], [("x", "y")])
    dists = {"x": ["1/2", 0, F(2, 4)]}
    m = deterministic_local_model(site, dists, {"y": lambda past: past["x"] % 2})
    assert m == ref_deterministic_local_model(site, dists, {"y": lambda past: past["x"] % 2})
    assert (m._den, m._nums) == (2, (1, 0, 0, 0, 1, 0))


DIAG_NAMES = [name for name in corpus_names() if name.endswith("_diag")]


@pytest.mark.parametrize("name", DIAG_NAMES)
def test_diagonal_entries_match_the_fraction_path(name):
    q = builtin(name).model
    ref = ref_diagonal_embedding(builtin(name[: -len("_diag")]).model)
    assert q == ref and q.entries == ref.entries
    assert q.positivity_witness is None


def test_random_diagonal_quantal_matches_the_fraction_path():
    for seed in SEEDS:
        q = random_diagonal_quantal(seed, n_sites=3, max_alphabet=2)
        ref = ref_diagonal_embedding(random_stochastic(seed, n_sites=3, max_alphabet=2))
        assert q == ref and q.entries == ref.entries, seed


def test_diagonal_reduction_induces_the_fraction_path_measure(monkeypatch):
    induced = []
    so1 = quantal.check_so1

    def recording(model):
        induced.append(model)
        return so1(model)

    monkeypatch.setattr(quantal, "check_so1", recording)
    models = [builtin(name).model for name in DIAG_NAMES]
    models += [random_diagonal_quantal(seed, n_sites=2 + seed % 2, max_alphabet=2) for seed in SEEDS]
    for q in models:
        assert diagonal_reduction(q).holds
        assert induced[-1] == ref_induced_measure(q)
        assert induced[-1].weights == ref_induced_measure(q).weights


def test_quantal_measures_match_a_complex_fraction_sum():
    for seed in range(60):
        q = random_quantal(seed, n_sites=2 + seed % 2, max_alphabet=2, rank=3)
        n = len(q.entries)
        rng = random.Random(seed)
        for _ in range(6):
            left, right = rng.randrange(1 << n), rng.randrange(1 << n)
            assert mu_hat(q, PseudoEvent(left, right)) == ref_d_value(q, left, right)
            assert q.mu_q(left) == ref_d_value(q, left, left).re


# -- no Fraction on the generator and check paths -----------------------------


@pytest.fixture
def fraction_count(monkeypatch):
    """The number of Fraction constructions since the fixture was set up."""
    calls = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls.append(1)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    return lambda: len(calls)


def test_the_guard_sees_a_fraction(fraction_count):
    F(1, 3)
    assert fraction_count() == 1


def test_draws_build_no_fraction(fraction_count):
    for seed in range(20):
        random_stochastic(seed, 5, 2)
        random_quantal(seed, 3, 2)
        random_diagonal_quantal(seed, 3, 2)
        random_deterministic_local(seed, 5)
    assert fraction_count() == 0


def test_holding_checks_on_scaled_models_build_no_fraction(fraction_count):
    stochastic_models = [random_deterministic_local(seed, 5) for seed in range(8)]
    stochastic_models += [random_stochastic(seed, 3, 2) for seed in (21, 48, 61)]
    quantal_models = [corpus_mod._decohered(m) for m in stochastic_models]
    built = fraction_count()
    verdicts = [check(m).verdict for m in stochastic_models for check in (check_so1, check_so2)]
    verdicts += [check_qso1(q).verdict for q in quantal_models]
    assert fraction_count() == built
    assert set(verdicts) == {"holds"}


# -- generator shapes ----------------------------------------------------------


GENERATORS = [random_stochastic, random_quantal, random_diagonal_quantal, random_deterministic_local]


@pytest.mark.parametrize("generator", GENERATORS, ids=lambda g: g.__name__)
@pytest.mark.parametrize("alphabet", [1, 0, -2])
def test_an_alphabet_below_two_is_refused(generator, alphabet):
    with pytest.raises(ValueError) as err:
        generator(0, n_sites=3, max_alphabet=alphabet)
    assert str(err.value) == f"corpus error: max_alphabet must be at least 2, not {alphabet}"


def test_fuzz_refuses_an_alphabet_below_two(capsys):
    with pytest.raises(ValueError, match="max_alphabet must be at least 2, not 1"):
        fuzz_equivalence(0, 3, "so1-so2", max_alphabet=1)
    for pair, alphabet in (("so1-so2", "1"), ("qso1-qso2", "0")):
        code = main(["fuzz", "--pair", pair, "--seed", "0", "--count", "2", "--alphabet", alphabet])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"corpus error: max_alphabet must be at least 2, not {alphabet}\n"

