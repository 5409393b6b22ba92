"""Every planned rule at power 2 on a decohered model against its classical twin.

A stochastic model decohered into D = diag(w) carries zero on every
pseudo-cell (c1, c2) with c1 ≠ c2 and on every pseudo-atom with unequal
halves, so on D the complex product rule is the classical one.  Each rule
of `_RULES`, walked by the quantal check, must then give the classical
walk's verdict and `region_pairs`, and a violation must name the same
regions, with A1 = A2 = A, B1 = B2 = B and C1 = C2 = C.  multi-so, whose
counterexample the quantal builder cannot build, is compared on its verdict
and its units.
"""
from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from reference import leaf_blocks

import screenoff.quantal as quantal
import screenoff.stochastic as stochastic
from screenoff.corpus import _decohered, random_deterministic_local, random_stochastic

RANDOM_MODELS = st.one_of(
    st.builds(random_stochastic, st.integers(0, 10**6), st.integers(2, 5), st.integers(2, 3)),
    st.builds(random_deterministic_local, st.integers(0, 10**6), st.integers(2, 5)),
)


def assert_twins(model):
    q = _decohered(model)
    for rule in stochastic._RULES:
        want = stochastic._pairwise_screening(model, rule, rule)
        got = quantal._quantal_pairwise_check(q, rule, rule)
        assert (got.verdict, got.stats["region_pairs"]) == (want.verdict, want.stats["region_pairs"]), rule
        if want.violated:
            cx, qx = want.counterexample, got.counterexample
            assert qx.regions == cx.regions, rule
            for name in "ABC":
                assert qx.event(f"{name}1").mask == qx.event(f"{name}2").mask == cx.event(name).mask, rule
    for n in (2, 3):
        want = stochastic.check_multi_so(model, n)
        steps, plan = stochastic._planned(q.site, n, 2)
        got = stochastic._screen(
            q, want.condition, steps, "", plan=plan, scan=quantal._quantal_screening_failure, unit_key="region_tuples")
        assert (got.verdict, got.stats["region_tuples"]) == (want.verdict, want.stats["region_tuples"]), n


@settings(max_examples=400)
@given(RANDOM_MODELS)
def test_every_rule_at_power_two_is_its_classical_twin(model):
    # most draws fail early; a failure past the first pseudo-cell or atom is
    # where a wrong decoding of the failing coordinates shows
    assert_twins(model)


@settings(max_examples=20)
@given(leaf_blocks().filter(lambda model: model.site.n <= 6))
def test_tied_and_xor_leaf_blocks_at_power_two(model):
    # late failures, on at most five leaves: six or seven take up to 1.5 s
    # each, most of it in gen-so[all]'s walk
    assert_twins(model)
