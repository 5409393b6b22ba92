"""Differential oracle for the classical pair scans.

The per-pair scans of ``reference.py`` (``ref_screening`` and ``ref_wrc``
with the ordinal steps of ``ref_units``) run every classical check in order,
without the program's ``_screen``; every report's ``to_json_dict()``
(which carries no ``runtime_ms``) and every error text is compared with the
program's byte for byte.
"""
from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import screenoff.stochastic as stochastic
from screenoff.corpus import _decohered, corpus_entries, random_deterministic_local, random_stochastic
from screenoff.events import history_digits, n_histories
from screenoff.order import CausalSite, iter_bits
from screenoff.quantal import check_qso1, check_qso2
from screenoff.report import HOLDS, VACUOUS, VIOLATED
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

from definitions import joint_past, mutual_past
from reference import (
    PRUNING_SITES, REF_PAIR_PASTS, REF_SCREENING, REF_SELECTORS, SCREENING, _outcome,
    clear_screenoff_caches, cold, common_cause, expected_scans, first_screened_pair, held_scans,
    leaf_blocks, leaves_with_coupled_blocks, local_dynamics, maximal_pairs, posets, proof_models,
    recorded_scans, ref_admissible, ref_cell_weights, ref_factorization_failure, ref_first_refusal,
    ref_screening, ref_so1, ref_spacelike_pairs, ref_spacelike_tuples, ref_units, ref_wrc,
    skipped_steps, two_cell_correlate, two_roots,
)

F = Fraction


# -- comparison harness -----------------------------------------------------


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


@pytest.mark.parametrize("shape", ["chain-and-point", "blocked", "diamond"])
def test_a_holding_check_scans_each_stand_in_once(shape, monkeypatch):
    site = PRUNING_SITES[shape]
    model = local_dynamics(random.Random(shape), site)
    assert_screening_matches_reference(model)
    scans = recorded_scans(monkeypatch)
    failed = 0
    for label, check in (("so1", check_so1), ("so2", check_so2), ("so2w", check_so2w)):
        del scans[:]
        assert check(cold(model)).verdict in (HOLDS, VACUOUS)
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
def test_a_pair_and_its_reverse_share_two_dominator_keys(shape):
    # the fallback of (a, b) is the dominator key of (b, a), the very
    # object, so the plan keeps one key per dominator, never a key per pair
    site = PRUNING_SITES.get(shape) or CausalSite([(f"s{i}", 2) for i in range(5)])
    init = site.initial_elements()
    for rule in ("mutual", "joint", "joint-clear"):
        plan = stochastic._screening_plan(site, rule, 1)[3]
        steps = {step[0]: step for step in plan}
        # the plan lists every screened pair once, in pair order
        assert list(steps) == [(a, b) for a, b in stochastic._spacelike_pairs(site)
                               if rule != "joint-clear" or not (a | b) & init]
        assert len(steps) == len(plan)
        dominators = [step[2] for step in plan]
        assert len(set(map(id, dominators))) == len(set(dominators))
        for (a, b), (_, past, dominator, fallback, cells, atoms) in steps.items():
            _, r_past, r_dominator, r_fallback, r_cells, r_atoms = steps[b, a]
            assert fallback is r_dominator and r_fallback is dominator
            assert (past, cells, atoms) == (r_past, r_cells, r_atoms)
            # each key is keyed by its past, and the dominator and the
            # fallback cover the pair, A-first and B-first
            assert {key_past for key_past, _ in (dominator, fallback)} == {past}
            for _, (x, y) in (dominator, fallback):
                assert (a & ~x, b & ~y) == (0, 0) or (a & ~y, b & ~x) == (0, 0)


# -- the spacelike lister -----------------------------------------------------


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
        assert same_plan(plan, stochastic._plan(site, units[rule], True, 1))
        assert (plan is stochastic._screening_plan(site, "mutual", 1)) == agree


def same_plan(plan, fresh) -> bool:
    """Whether two proof records have the same counts, group summaries and steps.

    A walk past a failed proof fills the record's running sums, its last
    slot, so a cached record may hold them where a fresh one does not yet.
    """
    return plan[:-1] == fresh[:-1]


@given(posets())
def test_joint_clear_is_joint_when_one_element_is_initial(site):
    # one initial element lies below every other, so it is in no spacelike
    # pair: exactly then so2w screens so2's units, and it walks so2's plan
    init = site.initial_elements()
    single = init & (init - 1) == 0
    units = {rule: tuple(stochastic._check_units(site, rule)) for rule in ("joint", "joint-clear")}
    assert (units["joint"] == units["joint-clear"]) == single
    plan = stochastic._screening_plan(site, "joint-clear", 1)
    assert same_plan(plan, stochastic._plan(site, units["joint-clear"], True, 1))
    assert (plan is stochastic._screening_plan(site, "joint", 1)) == single


@given(posets())
def test_the_mutual_and_all_plans_are_admissible_by_construction(site):
    # so `_first_inadmissible` skips its sweep for them: the reference
    # sweep of `ref_admissible` over every step of their plans refuses none
    for selector in ("mutual", "all"):
        assert stochastic._first_inadmissible(site, selector) is None
        for (a, b), past, *_ in stochastic._screening_plan(site, selector, 1)[3]:
            ref_admissible(site, a, b, past)


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


def recorded_passes(monkeypatch) -> list:
    """The (E_P, P) of every pair pass of a block search, in order."""
    passes = []
    original = stochastic._dependent_pairs
    monkeypatch.setattr(
        stochastic, "_dependent_pairs",
        lambda m, past, union: passes.append((union, past)) or original(m, past, union),
    )
    return passes


@pytest.mark.parametrize("alphabets", [(2, 2), (2, 3, 2), (2, 2, 2, 2), (3, 2, 2, 2, 2), (2,) * 6])
def test_a_product_on_an_antichain_is_certified_at_once(alphabets, monkeypatch):
    # every pair has the empty past, and every site is independent of the
    # others: after the first pair, the certificate of all k sites holds; with
    # k = 2 the one maximal pair is the whole group, so no certificate is tried
    # gen-so[bell] makes so1's scans, and so does penrose-percival for its
    # so1 verdict: its dissection walk, whose only P is the empty past too,
    # reads them from the model's memo; multi-so[n=3] scans its first
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
        "penrose-percival": so1,  # its so1 verdict; its dissection walk makes no other
        "multi-so[n=3]": [((1, 2, 4), 0)] + (certificate if k > 3 else []) if k > 2 else [],
    }
    for label, run in SCREENING:
        if label in want:
            del scans[:]
            run(cold(model))
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
        run(cold(model))
        walks[label] = list(scans)
        assert (tuple(1 << e for e in range(1, 6)), 1) in scans, label
    # each pair's only dissection is the root, its mutual past: the
    # dissection walk is so1's, and reads the so1 verdict's scans
    assert walks["penrose-percival"] == walks["so1"]


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
    assert {(mutual_past(site, a, b), joint_past(site, a, b))
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
        got = _outcome(lambda: check(cold(model)))
        assert got == _outcome(lambda: want._replace(condition=label)), label
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
        pairwise(cold(model))
        want = list(scans), list(passes)
        del scans[:], passes[:]
        check_generalized_so(cold(model), selector)
        assert (scans, passes) == want
        assert scans == [(r, 1) for r in walk]
        assert passes == [(sum(leaves), 1)] * coupled


def test_the_other_searching_checks_make_one_pass_per_failed_group(monkeypatch):
    # on the common cause below 7 leaves with the last two coupled, each
    # check searches a marked group's blocks by one pass over the table its
    # failed certificate built: multi-so[n=2] makes so1's 4 scans (577 with
    # dominators alone); penrose-percival makes them once, for its so1
    # verdict, and its dissection walk reads them and so1's blocks;
    # gen-so[all] searches again for each of the 16 marked conditioning
    # regions P whose certificate fails, and makes 252 scans; every P holds
    # the root, and each pass reads the one table of the site
    model = common_cause(random.Random(3), 7, True)
    leaves = tuple(1 << e for e in range(1, 8))
    so1 = [(r, 1) for r in (leaves[:2], leaves, (*leaves[:5], leaves[5] | leaves[6]), leaves[5:])]
    scans = recorded_scans(monkeypatch)
    passes = recorded_passes(monkeypatch)
    check_multi_so(model, 2)
    assert (scans, passes) == (so1, [(sum(leaves), 1)])
    del scans[:], passes[:]
    check_penrose_percival(cold(model))
    assert (scans, passes) == (so1, [(sum(leaves), 1)])
    del scans[:], passes[:]
    check_generalized_so(cold(model), "all")
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
    convex = [not joint_past(site, a, b) & (site.future(a) | site.future(b)) for a, b in pairs]
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


@st.composite
def chain_beside_a_point(draw) -> StochasticModel:
    """A measure on 4-6 binary elements: a chain x < y < z, a point w apart from all, the rest drawn.

    {x, z} is spacelike to {w}, and its joint and Bell pasts hold y, which
    lies in the future of x: both plans are inadmissible.  The weights are
    a product, local dynamics, random (some 0), or a product with two
    elements tied: an element of each region of the step before a plan's
    first refused one, or the spacelike pair that comes last.
    """
    n = draw(st.integers(4, 6))
    place = draw(st.permutations(range(n)))
    x, y, z, w = place[:4]
    edges = [(place[i], place[j]) for i in range(n) for j in range(i + 1, n) if w not in (place[i], place[j])]
    relations = {(x, y), (y, z), *draw(st.lists(st.sampled_from(edges), unique=True))}
    site = CausalSite([(f"e{i}", 2) for i in range(n)], [(f"e{i}", f"e{j}") for i, j in sorted(relations)])
    rng = random.Random(draw(st.integers(0, 10**6)))
    kind = draw(st.sampled_from(["product", "local", "random", "tied"]))
    if kind == "product":
        return StochasticModel(site, local_dynamics(rng, CausalSite([(f"e{i}", 2) for i in range(n)])).weights)
    if kind == "local":
        return local_dynamics(rng, site, zero_share=0.2)
    if kind == "random":
        nums = [rng.choice((0, 0, 1, 2, 3)) for _ in range(n_histories(site))]
        nums[rng.randrange(len(nums))] += 1
        return StochasticModel(site, [F(v, sum(nums)) for v in nums])
    # no pair splits the spacelike elements whose lower one is highest before their own pair, which comes late
    ties = [max((p for p in itertools.combinations(range(n), 2) if site.spacelike(*(1 << e for e in p))), key=min)]
    pairs = ref_spacelike_pairs(site)  # each plan has one step per pair: a step's ordinal is its pair's
    for label in ("gen-so[joint]", "gen-so[bell]"):
        refused, _ = ref_first_refusal(label, site)
        ties += [((a & -a).bit_length() - 1, (b & -b).bit_length() - 1) for a, b in pairs[max(refused - 1, 0) : refused]]
    return tied_product(rng, site, draw(st.sampled_from(ties)))


def test_an_inadmissible_plan_errs_unless_an_earlier_step_fails():
    # gen-so[joint] and gen-so[bell] walk their plans whatever they select,
    # up to the first inadmissible step, and refuse it unless the walk
    # failed before it: every report and error text is the ordinal scan's,
    # the refused step is the reference's first, an error scans only for
    # steps before it, and both outcomes occur, a violation at the very
    # step before a refused one among them
    seen = Counter()
    walk, scan = stochastic._walk, stochastic._factorization_failure

    @settings(max_examples=300)
    @given(chain_beside_a_point())
    def inadmissible(model):
        site = model.site
        for selector in ("joint", "bell"):
            label = f"gen-so[{selector}]"
            refused = ref_first_refusal(label, site)
            assert refused is not None and refused[0] > 0  # the first pair, two singletons, is admissible
            assert stochastic._first_inadmissible(site, selector) == refused
            decided, scanned = [], []

            def recorded(record, decide, *rest):
                steps = [step[:2] for step in record[3]]
                return walk(record, lambda *step: decided.append(steps.index(step[:2])) or decide(*step), *rest)

            with pytest.MonkeyPatch.context() as m:
                m.setattr(stochastic, "_walk", recorded)
                m.setattr(stochastic, "_factorization_failure",
                          lambda model, regions, past, **k: scanned.append(past) or scan(model, regions, past, **k))
                got = _outcome(lambda: check_generalized_so(model, selector))
            assert got == _reference_outcome(label, model), label
            if got.startswith("SelectorError"):
                # no step at or past the refused one is decided, and each
                # scan is given the past of a step before it
                before = {past for _, past in itertools.islice(ref_units(label, site), refused[0])}
                assert all(i < refused[0] for i in decided)
                assert set(scanned) <= before
                # where the ordinal scan, were no step refused, fails first
                failing = next((i for i, (a, b) in enumerate(ref_spacelike_pairs(site))
                                if ref_factorization_failure(model, (a, b), REF_PAIR_PASTS[label](site, a, b)[0])[0]
                                is not None), None)
                seen["error"] += 1
                seen["error at or before a failure"] += failing is not None
            else:
                steps = json.loads(got)["stats"]["conditioning_regions"]
                seen["violated"] += 1
                seen["violated just before"] += steps == refused[0]

    inadmissible()
    assert seen["error at or before a failure"] and seen["violated just before"], seen


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
        got = _outcome(lambda: check(cold(model)))
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
            got = _outcome(lambda: check(cold(model)))
            assert got == _outcome(lambda: REF_SCREENING[label](model)), label
            report = json.loads(got)
            assert report["verdict"] == VIOLATED
            failing = stochastic._spacelike_pairs(site)[report["stats"]["region_pairs"] - 1]
            if n_leaves == 5:
                assert scans == tied_block_scans(n_leaves, [block], failing), label
            else:
                assert len(set(scans)) == len(scans)
                assert set(scans) <= one_block_scans(site, label, failing), label


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
        check(cold(model))
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
            check(cold(model))
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
    total = sum(weights)
    model = StochasticModel(site, [w / total for w in weights])
    reports = assert_screening_matches_reference(model)
    l0, l1, l2, l3, l4 = (2 << i for i in range(5))
    scans = recorded_scans(monkeypatch)
    passes = recorded_passes(monkeypatch)
    for label, check in PAIRWISE.items():
        assert reports[label]["stats"]["region_pairs"] == 2, label
        del scans[:], passes[:]
        check(cold(model))
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
    model = cold(model)
    singles = tuple(1 << e for e in iter_bits(union))
    want = [(x, y) for x, y in itertools.combinations(singles, 2)
            if ref_factorization_failure(model, (x, y), past)[0] is not None]
    stochastic._factorization_failure(model, singles, past)
    assert stochastic._dependent_pairs(model, past, union) == want
    assert list(model._memo) == [past | union]


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
            check(cold(model))
            if reports[label]["verdict"] == HOLDS and (want := expected_scans(model, label)):
                assert {regions for regions, _ in scans} == want[0], label


# -- group proofs ---------------------------------------------------------------


RULES = {"so1": "mutual", "so2": "joint", "so2w": "joint-clear", "gen-so[mutual]": "mutual",
         "gen-so[joint]": "joint", "penrose-percival": "dissections", "gen-so[bell]": "bell",
         "gen-so[all]": "all", "multi-so[n=2]": 2, "multi-so[n=3]": 3}


def test_every_planned_check_matches_the_reference_on_proof_models():
    # one walk decides each check after its first unit, whether its group
    # proofs hold or fail: every report and error text is the full ordinal
    # scan's, and a check whose proofs all hold scans its first unit and
    # each distinct proof once (penrose-percival first its own so1's scans,
    # then only those its so1 did not make)
    held = Counter()

    @settings(max_examples=200)
    @given(proof_models())
    def proofs(model):
        reports = assert_screening_matches_reference(model)
        with pytest.MonkeyPatch.context() as m:
            scans = recorded_scans(m)
            for label, run in SCREENING:
                if not isinstance(reports[label], dict) or reports[label]["verdict"] != HOLDS:
                    continue
                want = held_scans(model.site, RULES[label], 1,
                                  lambda regions, past: ref_factorization_failure(model, regions, past)[0] is not None)
                if want is None:
                    continue
                del scans[:]
                if label == "penrose-percival":
                    check_so1(cold(model))
                so1 = scans[:]
                del scans[:]
                run(cold(model))
                assert scans[:len(so1)] == so1 and sorted(scans[len(so1):]) == sorted(set(want) - set(so1)), label
                held[label] += 1

    proofs()
    assert set(held) == set(RULES), held


def running_sums(site, rule, power: int = 1) -> list:
    """The running sums slot of a plan's proof record: empty until a walk past a failed proof fills it."""
    return stochastic._screening_plan(site, rule, power)[5]


def test_a_holding_check_never_builds_the_running_sums():
    # a check whose group proofs all hold takes its stats from the group
    # totals; a late failure builds its plan's sums once, and a second
    # failing model on the same site reuses them
    clear_screenoff_caches()
    rng = random.Random("running sums")
    model = common_cause(rng, 7, coupled=False)
    for check, rule in ((check_so1, "mutual"), (check_so2, "joint")):
        assert check(model).verdict == HOLDS
        assert running_sums(model.site, rule) == [], rule
    product = product_on_antichain(rng, (2,) * 5)
    assert check_generalized_so(product, "all").verdict == HOLDS
    assert running_sums(product.site, "all") == []
    built = []
    for _ in range(2):
        report = check_so1(common_cause(rng, 7, coupled=True))
        assert report.verdict == VIOLATED and report.stats["region_pairs"] > 1
        sums = running_sums(model.site, "mutual")
        assert len(sums) == 1
        built.append(sums[0])
    assert built[0] is built[1]


# -- the steps a held scan decides ------------------------------------------------


SKIPPING = {label: run for label, run in SCREENING if label in
            ("so1", "so2", "so2w", "gen-so[all]", "multi-so[n=2]", "penrose-percival")}


def test_skipped_steps_add_the_null_cells_of_their_past():
    # a step that a held proof or a held block certificate decides is not
    # drawn: it adds (|Φ(P)| − nulls)·atoms checks and nulls skips from its
    # group's running sums, so late failures after skipped steps with null
    # cells of P report the ordinal scan's stats; each kind of skip occurs
    found = {"proof": 0, "blocks": 0}

    @settings(max_examples=12)
    @given(seed=st.integers(0, 10**6), n_x=st.integers(1, 2), tie=st.sampled_from([(0, 1), (0, 2), (1, 2)]),
           null_roots=st.sampled_from([(True, True), (True, False), (False, True)]))
    def late_failures(seed, n_x, tie, null_roots):
        model = two_roots(random.Random(seed), n_x, tie, null_roots)
        kinds = set()
        for label, run in SKIPPING.items():
            outcome, skipped = skipped_steps(model, run)
            assert outcome == _reference_outcome(label, model), label
            assert json.loads(outcome)["verdict"] == VIOLATED, label
            kinds.update(kind for past, kind in skipped if 0 in ref_cell_weights(model, (past,))[1])
        for kind in kinds:
            found[kind] += 1

    late_failures()
    assert found["proof"] >= 4 and found["blocks"] >= 4, found


# -- cached plans, cold and warm --------------------------------------------------


def tied_product(rng: random.Random, site: CausalSite, tie: tuple[int, int]) -> StochasticModel:
    """Independent binary elements, some of them constant, except that element tie[1] copies tie[0]."""
    i, j = tie
    quarters = [rng.choice((0, 1, 2, 3, 4)) for _ in range(site.n)]
    weights = []
    for h in range(n_histories(site)):
        digs = history_digits(site, h)
        weights.append(0 if digs[i] != digs[j] else
                       prod(q if d else 4 - q for e, (q, d) in enumerate(zip(quarters, digs)) if e != j))
    return StochasticModel(site, [F(w, 4 ** (site.n - 1)) for w in weights])


PLANNED = (*SCREENING, ("qso1", check_qso1), ("qso2", check_qso2))


def test_a_warm_plan_reports_what_a_cold_one_does():
    # each planned check on a drawn model reports the same cold, with every
    # cache cleared, and warm, after the checks of another model on the same
    # site have walked and filled the cached plans; the first model ties the
    # last two elements (a late failure) or a drawn pair, the second a drawn pair
    walked = []

    @settings(max_examples=100)
    @given(site=posets(5).filter(lambda site: site.n >= 2), late=st.booleans(), data=st.data())
    def cold_and_warm(site, late, data):
        pairs = list(itertools.combinations(range(site.n), 2))
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        first = tied_product(rng, site, pairs[-1] if late else data.draw(st.sampled_from(pairs)))
        other = tied_product(rng, site, data.draw(st.sampled_from(pairs)))

        def run(check, model):
            return _outcome(lambda: check(_decohered(model) if check in (check_qso1, check_qso2) else model))

        cold = {}
        for label, check in PLANNED:
            clear_screenoff_caches()
            cold[label] = run(check, first)
        clear_screenoff_caches()
        with pytest.MonkeyPatch.context() as m:
            for label, check in PLANNED:
                walk = stochastic._walk
                m.setattr(stochastic, "_walk", lambda *args: walked.append(label) or walk(*args))
                run(check, other)
                m.undo()
        for label, check in PLANNED:
            assert run(check, first) == cold[label], label

    cold_and_warm()
    assert set(walked) == {label for label, _ in PLANNED}, Counter(walked)
