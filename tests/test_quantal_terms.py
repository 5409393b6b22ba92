"""A generated quantal model is held by its witness terms; its matrix-held twin must report the same.

`random_quantal` builds D = Σ_t c_t·V_t·V_t†/L from its terms alone
(`QuantalModel._from_terms`): validation reads the terms, and qso tables
are summed out of them.  The twin carries the matrix that the model's view
reads, and the same witness, so it takes the matrix paths.  Both must give
byte-equal validation, qso1 and qso2 reports, counterexamples included,
the same diag-reduce error, and equal values, hashes and model files —
whether the matrix view was read before the checks, or only after them and
before their counterexamples were decoded.
"""
from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import _outcome

import screenoff.quantal as quantal
from screenoff.corpus import QUANTAL_ENTRY_LIMIT, fuzz_equivalence, random_quantal
from screenoff.modelfile import render_model_json
from screenoff.quantal import QuantalError, QuantalModel, check_qso1, check_qso2, diagonal_reduction, validate_quantal
from screenoff.stochastic import _gaussian

CHECKS = (("validate", validate_quantal), ("qso1", check_qso1), ("qso2", check_qso2))


def matrix_twin(m: QuantalModel) -> QuantalModel:
    return QuantalModel._from_scaled(m.site, m._den, m._re, m._im, m._witness)


def held_by_terms(m: QuantalModel) -> bool:
    """Whether the model's matrix is still unbuilt: its slots are unset."""
    try:
        QuantalModel._den.__get__(m)
    except AttributeError:
        return True
    return False


@pytest.mark.parametrize("view_first", [True, False], ids=["view-before-checks", "view-after-checks"])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), sites=st.integers(2, 5), alphabet=st.integers(2, 3), rank=st.integers(1, 3))
def test_a_witness_held_model_reports_as_its_matrix_held_twin(view_first, seed, sites, alphabet, rank):
    m = random_quantal(seed, sites, alphabet, rank)
    assert held_by_terms(m)
    twin = matrix_twin(m) if view_first else None
    reports = [check(m) for _, check in CHECKS]  # counterexamples are decoded when first read
    if twin is None:
        assert held_by_terms(m)
        twin = matrix_twin(m)
    assert not held_by_terms(m)
    for (label, check), report in zip(CHECKS, reports):
        assert _outcome(lambda: report) == _outcome(lambda: check(twin)), label
    assert _outcome(lambda: diagonal_reduction(m)) == _outcome(lambda: diagonal_reduction(twin))
    assert m == twin and hash(m) == hash(twin)
    assert render_model_json(m) == render_model_json(twin)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), sites=st.integers(2, 4), alphabet=st.integers(2, 3), rank=st.integers(1, 3))
def test_term_tables_are_the_matrix_at_the_terms_scale_below_their_bound(seed, sites, alphabet, rank):
    # the whole site's table is the matrix at scale L, whose parts sum to
    # at most S, with N = 2·S² + 1 (`_pair_matrix`)
    m = random_quantal(seed, sites, alphabet, rank)
    table, big = quantal._pair_matrix(m, (m.site.full_mask,))
    scale = m._encoded[2] // m._den
    assert [_gaussian(x, big) for x in table] == [(x * scale, y * scale) for x, y in zip(m._re, m._im)]
    parts = (sum(map(abs, m._re)) + sum(map(abs, m._im))) * scale
    assert big >= 2 * parts**2 + 1


def test_a_qso_fuzz_run_builds_no_matrix(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a matrix was built on the fuzz path")

    # every matrix, summed from terms or given, is reduced by `_reduce`, and
    # validation's hermiticity pass and witness comparison read one
    monkeypatch.setattr(QuantalModel, "_reduce", forbidden)
    report = fuzz_equivalence(0, 40, "qso1-qso2", n_sites=5, max_alphabet=3)
    assert report.holds and report.stats["agreements"] == 40


def test_a_witness_held_model_that_does_not_sum_to_one_reports_as_its_twin():
    for seed in range(12):
        m = random_quantal(seed, 2 + seed % 3, 2 + seed % 2, 1 + seed % 3)
        p, q, dv, vec = m._witness[0]
        for bad in ([(2 * p, q, dv, vec), *m._witness[1:]], [*m._witness, (1, q, 1, vec)]):
            held = QuantalModel._from_terms(m.site, bad)
            report = validate_quantal(held)
            assert report.counterexample.values[0] == ("axiom", "normalization")
            assert _outcome(lambda: report) == _outcome(lambda: validate_quantal(matrix_twin(held)))


def test_terms_at_other_scales_are_the_same_model():
    # (p/q)·(V/dv)(V/dv)† with V and dv doubled, or p and q, is the same term
    for seed in range(12):
        m = random_quantal(seed, 2 + seed % 3, 2 + seed % 2, 1 + seed % 3)
        rescaled = [
            (p, q, 2 * dv, tuple((2 * x, 2 * y) for x, y in vec)) if t % 2 else (3 * p, 3 * q, dv, vec)
            for t, (p, q, dv, vec) in enumerate(m._witness)
        ]
        held = QuantalModel._from_terms(m.site, rescaled)
        for label, check in CHECKS:
            assert _outcome(lambda: check(held)) == _outcome(lambda: check(m)), label
        assert held == m and hash(held) == hash(m)


def test_a_nonpositive_weight_or_a_short_vector_gets_the_twins_error():
    m = random_quantal(5, 3, 2, 3)
    _, q, _, vec = m._witness[0]
    n = len(vec)
    cancelled = [*m._witness, (-1, q, 1, vec), (1, q, 1, vec)]  # sums to 1, with a negative weight
    zero = [*m._witness, (0, 1, 1, vec)]
    short = [*m._witness, (1, 1, 1, ((1, 0), (-1, 0)))]  # sums to zero, so to 1 with the others
    for bad, text in (
        (cancelled, f"quantal error: witness weight -1/{q} is not positive"),
        (zero, "quantal error: witness weight 0 is not positive"),
        (short, f"quantal error: witness vector has 2 amplitudes for {n} histories"),
    ):
        held = QuantalModel._from_terms(m.site, bad)
        with pytest.raises(QuantalError) as err:
            validate_quantal(held)
        assert str(err.value) == text
        if bad is not short:  # the twin's matrix needs a full vector
            assert _outcome(lambda: validate_quantal(matrix_twin(held))) == f"QuantalError: {text}"


def test_a_model_at_the_entry_limit_is_generated_and_validated_in_little_memory():
    # 10 binary sites: 1,024 histories, whose matrix has QUANTAL_ENTRY_LIMIT
    # entries; held by its terms, the model is 3 vectors of 1,024 amplitudes
    for seed in range(3):
        tracemalloc.start()
        try:
            m = random_quantal(seed, 10, 2, 3)
            assert validate_quantal(m).holds
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(m._witness[0][3]) ** 2 == QUANTAL_ENTRY_LIMIT
        assert held_by_terms(m)
        assert peak < 5 * 2**20, peak
