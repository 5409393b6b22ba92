"""Differential oracle for the classical pair scans.

The reference code below is the per-pair scan the classical checks used
before one cell table per region union was shared across a check, and
before so1, so2 and so2w skipped the pairs a larger held pair vouches for:
``ref_cell_weights`` rescans every history into the (past, A, B) table of a
single pair, ``ref_factorization_failure`` walks that table atom by atom,
``ref_pairwise_screening`` scans every pair in order, and ``ref_wrc`` runs
the common-correlate search over each pair's table.  The pairwise checks
are rebuilt on the reference scan, and every report's ``to_json_dict()``
(which carries no ``runtime_ms``) and every error text is compared with the
program's byte for byte.
"""
from __future__ import annotations

import itertools
import json
import random
from dataclasses import replace
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

import screenoff.stochastic as stochastic
from screenoff.corpus import corpus_entries, random_deterministic_local, random_stochastic
from screenoff.events import (
    config_indices, event_ref, full_specifications, history_digits, n_configs, n_histories,
)
from screenoff.order import CausalSite, iter_bits
from screenoff.report import HOLDS, VACUOUS, VIOLATED, CheckReport, Counterexample, format_rational
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

from test_stochastic import two_cell_correlate

F = Fraction


# -- reference code ---------------------------------------------------------


def ref_cell_weights(model, regions):
    """Scaled weights of the joint configuration cells of disjoint regions."""
    site = model.site
    sizes = tuple(n_configs(site, r) for r in regions)
    index_maps = [config_indices(site, r) for r in regions]
    table = [0] * prod(sizes)
    for h, w in enumerate(model._nums):
        if w:
            flat = 0
            for ci, size in zip(index_maps, sizes):
                flat = flat * size + ci[h]
            table[flat] += w
    return sizes, table


def ref_factorization_failure(model, event_regions, past):
    """The atom-by-atom scan of one pair's own (past, *event_regions) table."""
    sizes, table = ref_cell_weights(model, (past, *event_regions))
    n_past, atom_counts = sizes[0], sizes[1:]
    block = prod(atom_counts)
    coords = tuple(itertools.product(*(range(s) for s in atom_counts)))
    k = len(atom_counts)
    checked = 0
    skipped = 0
    for p in range(n_past):
        base = p * block
        w_past = sum(table[base : base + block])
        if w_past == 0:
            skipped += 1
            continue
        margins = [[0] * count for count in atom_counts]
        for flat in range(block):
            w = table[base + flat]
            if w:
                cs = coords[flat]
                for i in range(k):
                    margins[i][cs[i]] += w
        scale = w_past ** (k - 1)
        for flat in range(block):
            checked += 1
            cs = coords[flat]
            lhs = table[base + flat] * scale
            rhs = 1
            for i in range(k):
                rhs *= margins[i][cs[i]]
            if lhs != rhs:
                margin_ws = tuple(margins[i][cs[i]] for i in range(k))
                failure = stochastic._Failure(p, cs, w_past, table[base + flat], margin_ws)
                return failure, checked, skipped
    return None, checked, skipped


def ref_pairwise_screening(
    model, condition, past_of, eligible=None,
    vacuous_reason="no spacelike pairs of disjoint nonempty regions",
):
    """so1, so2 and so2w as a scan of every pair, in order."""
    pairs = 0
    checked = 0
    skipped = 0
    for ra, rb in stochastic._spacelike_pairs(model.site):
        if eligible is not None and not eligible(ra, rb):
            continue
        pairs += 1
        past = past_of(ra, rb)
        fail, c, s = ref_factorization_failure(model, (ra, rb), past)
        checked += c
        skipped += s
        if fail is not None:
            note = "conditional product rule fails for this atom pair given C"
            cx = stochastic._conditional_counterexample(
                model, (ra, rb), ("A", "B"), past, fail, note
            )
            stats = {"region_pairs": pairs, "atom_checks": checked,
                     "null_conditions_skipped": skipped}
            return CheckReport(condition, VIOLATED, counterexample=cx, stats=stats)
    stats = {"region_pairs": pairs, "atom_checks": checked, "null_conditions_skipped": skipped}
    if pairs == 0:
        return CheckReport(condition, VACUOUS, reason=vacuous_reason, stats=stats)
    return CheckReport(condition, HOLDS, stats=stats)


def ref_so1(model):
    return ref_pairwise_screening(model, "so1", model.site.mutual_past)


def ref_so2(model):
    return ref_pairwise_screening(model, "so2", model.site.joint_past)


def ref_so2w(model):
    init = model.site.initial_elements()
    return ref_pairwise_screening(
        model, "so2w", model.site.joint_past,
        eligible=lambda a, b: not ((a | b) & init),
        vacuous_reason="no spacelike region pairs clear of the initial elements",
    )


REF_SCREENING = {"so1": ref_so1, "so2": ref_so2, "so2w": ref_so2w}


def ref_wrc(model, conditioned=False, cap=12):
    """The common-correlate search, reading each pair's own (past, A, B) table.

    Every union of mutual-past cells is tried as a correlate, so a mutual past
    of more than `cap` cells is refused; at the default cap the error text is
    the program's.
    """
    site = model.site
    condition = "wrc-cond" if conditioned else "wrc"
    pairs = 0
    conditioning_events = 0
    correlated_pairs = 0
    for ra, rb in stochastic._spacelike_pairs(site):
        pairs += 1
        past = site.mutual_past(ra, rb)
        (n_past, na, nb), table = ref_cell_weights(model, (past, ra, rb))
        if n_past > cap:
            raise CapacityError(
                f"capacity error: wrc-cond needs 2^{n_past} conditioning events "
                f"for the mutual past of ({site.region_ids(ra)}, "
                f"{site.region_ids(rb)}); the limit is 2^{cap} ({cap} mutual-past cells)"
            )
        block = na * nb
        n_masks = 1 << n_past
        w_c = [0] * n_masks
        wa_c = [[0] * na for _ in range(n_masks)]
        wb_c = [[0] * nb for _ in range(n_masks)]
        wab_c = [[0] * block for _ in range(n_masks)]
        for cm in range(1, n_masks):
            # every event decidable in the mutual past is a union of its cells
            for p in iter_bits(cm):
                for a in range(na):
                    for b in range(nb):
                        w = table[p * block + a * nb + b]
                        w_c[cm] += w
                        wa_c[cm][a] += w
                        wb_c[cm][b] += w
                        wab_c[cm][a * nb + b] += w
        full_cm = n_masks - 1
        if conditioned:
            cond_masks = [cm for cm in range(1, n_masks) if w_c[cm] > 0]
        else:
            cond_masks = [full_cm] if w_c[full_cm] > 0 else []
        for cm_e in cond_masks:
            conditioning_events += 1
            we = w_c[cm_e]
            for a in range(na):
                wae = wa_c[cm_e][a]
                for b in range(nb):
                    wbe = wb_c[cm_e][b]
                    wabe = wab_c[cm_e][a * nb + b]
                    if wabe * we == wae * wbe:
                        continue
                    correlated_pairs += 1
                    found = any(
                        wa_c[cm_c & cm_e][a] * we != wae * w_c[cm_c & cm_e]
                        and wb_c[cm_c & cm_e][b] * we != wbe * w_c[cm_c & cm_e]
                        for cm_c in range(1, n_masks)
                    )
                    if found:
                        continue
                    cells = full_specifications(site, past)
                    e_mask = 0
                    for p in iter_bits(cm_e):
                        e_mask |= cells[p]
                    cx = Counterexample(
                        regions=(
                            ("A", site.region_ids(ra)),
                            ("B", site.region_ids(rb)),
                            ("past", site.region_ids(past)),
                        ),
                        events=(
                            ("A", event_ref(site, full_specifications(site, ra)[a], ra, a)),
                            ("B", event_ref(site, full_specifications(site, rb)[b], rb, b)),
                            ("E", event_ref(site, e_mask)),
                        ),
                        values=(
                            ("mu(E)", format_rational(F(we, model._den))),
                            ("mu(A&B|E)", format_rational(F(wabe, we))),
                            ("mu(A|E)", format_rational(F(wae, we))),
                            ("mu(B|E)", format_rational(F(wbe, we))),
                            ("product", format_rational(F(wae * wbe, we * we))),
                        ),
                        note=(
                            "correlated atom pair with no common correlate "
                            f"decidable in the mutual past ({n_masks - 1} "
                            "candidate events searched)"
                        ),
                    )
                    stats = {
                        "region_pairs": pairs,
                        "conditioning_events": conditioning_events,
                        "correlated_atom_pairs": correlated_pairs,
                    }
                    return CheckReport(condition, VIOLATED, counterexample=cx, stats=stats)
    stats = {
        "region_pairs": pairs,
        "conditioning_events": conditioning_events,
        "correlated_atom_pairs": correlated_pairs,
    }
    if pairs == 0:
        return CheckReport(
            condition, VACUOUS, reason="no spacelike pairs of disjoint nonempty regions", stats=stats
        )
    return CheckReport(condition, HOLDS, stats=stats)


# -- comparison harness -----------------------------------------------------


def _outside_futures(site, a, b):
    """Everything clear of both futures: admissible for every spacelike pair."""
    return site.full_mask & ~(site.future(a) | site.future(b))


def _empty_region(site, a, b):
    """Inadmissible wherever the mutual past is nonempty."""
    return 0


def _whole_site(site, a, b):
    """Always inadmissible: it meets the future of the pair."""
    return site.full_mask


# (label, run(model)) for every check that scans region pairs against a past.
CHECKS = (
    ("so1", check_so1),
    ("so2", check_so2),
    ("so2w", check_so2w),
    *(
        (f"gen-so[{sel}]", lambda m, sel=sel: check_generalized_so(m, selector=sel))
        for sel in ("mutual", "joint", "bell", "all", "nope",
                    _outside_futures, _empty_region, _whole_site)
    ),
    ("multi-so[n=2]", lambda m: check_multi_so(m, 2)),
    ("multi-so[n=3]", lambda m: check_multi_so(m, 3)),
    ("penrose-percival", check_penrose_percival),
)


def _outcome(run) -> str:
    try:
        return json.dumps(run().to_json_dict(), sort_keys=True)
    except ValueError as e:
        return f"{type(e).__name__}: {e}"


# The conditioning region of every pair under gen-so's built-in rule
# selectors, by check label.
REF_SELECTOR_PASTS = {"gen-so[mutual]": CausalSite.mutual_past, "gen-so[joint]": CausalSite.joint_past}


def _reference_outcome(label, run, model) -> str:
    with pytest.MonkeyPatch.context() as m:
        m.setattr(
            stochastic,
            "_factorization_failure",
            lambda model, regions, past, *, tables: ref_factorization_failure(model, regions, past),
        )
        m.setattr(stochastic, "_cell_weights", None)  # the reference never reads a shared table
        # so1, so2, so2w (and penrose-percival's so1 verdict) scan every pair
        m.setattr(
            stochastic,
            "_pairwise_screening",
            lambda model, condition, *args, **kwargs: REF_SCREENING[condition](model),
        )
        # and so do gen-so[mutual] and gen-so[joint], given the past the label names
        if label in REF_SELECTOR_PASTS:
            past_of = REF_SELECTOR_PASTS[label]
            m.setattr(
                stochastic,
                "_screening_units",
                lambda site, rule: (
                    (pair, ((past_of(site, *pair), None),)) for pair in stochastic._spacelike_pairs(site)
                ),
            )
        return _outcome(lambda: run(model))


def assert_matches_reference(model: StochasticModel) -> list[str]:
    outcomes = []
    for label, run in CHECKS:
        got = _outcome(lambda: run(model))
        want = _reference_outcome(label, run, model)
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


def common_cause(rng: random.Random, n_leaves: int, coupled: bool) -> StochasticModel:
    """Ternary root below binary leaves, independent given the root.

    With ``coupled`` the last two leaves are tied beyond the root, so the
    scan runs through every earlier pair before it fails.
    """
    elements = [("c", 3)] + [(f"l{i}", 2) for i in range(n_leaves)]
    site = CausalSite(elements, [("c", f"l{i}") for i in range(n_leaves)])
    weights = []
    leaf_ps = [[F(rng.randrange(1, 5), 5) for _ in range(n_leaves)] for _ in range(3)]
    for digs in itertools.product(range(3), *([range(2)] * n_leaves)):
        c, leaves = digs[0], digs[1:]
        w = F(1, 3)
        for p, v in zip(leaf_ps[c], leaves):
            w *= p if v else 1 - p
        if coupled:
            w *= 2 if leaves[-1] == leaves[-2] else 0
        weights.append(w)
    total = sum(weights)
    return StochasticModel(site, [w / total for w in weights])


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


SCREENING = (
    ("so1", check_so1),
    ("so2", check_so2),
    ("so2w", check_so2w),
    ("gen-so[mutual]", lambda m: check_generalized_so(m, "mutual")),
    ("gen-so[joint]", lambda m: check_generalized_so(m, "joint")),
    ("penrose-percival", check_penrose_percival),
)


def assert_screening_matches_reference(model: StochasticModel) -> dict[str, dict | str]:
    """so1, so2, so2w, gen-so[mutual|joint] and penrose-percival against the full ordinal scan.

    Each report is returned as a dict, or as its error text if the check
    raised (gen-so[joint] does on a pair with a non-convex region).
    """
    reports = {}
    for label, run in SCREENING:
        got = _outcome(lambda: run(model))
        assert got == _reference_outcome(label, run, model), label
        reports[label] = json.loads(got) if got.startswith("{") else got
    return reports


def local_dynamics(rng: random.Random, site: CausalSite, zero_share: float = 0.0) -> StochasticModel:
    """Each element's value drawn given the values of its strict past.

    Such models satisfy so1 and so2 (and so so2w), so every pair's scan runs
    to the end; with ``zero_share`` some conditional probabilities are 0, so
    some past cells carry no weight.
    """
    tables = []
    for e in range(site.n):
        strict = site.past(1 << e) & ~(1 << e)
        configs = itertools.product(*(range(site.alphabets[i]) for i in iter_bits(strict)))
        table = {}
        for cfg in configs:
            nums = [0 if rng.random() < zero_share else rng.randrange(1, 4)
                    for _ in range(site.alphabets[e])]
            nums[rng.randrange(len(nums))] += 1
            table[cfg] = [F(x, sum(nums)) for x in nums]
        tables.append((tuple(iter_bits(strict)), table))
    weights = []
    for digs in itertools.product(*(range(k) for k in site.alphabets)):
        w = F(1)
        for e, (parents, table) in enumerate(tables):
            w *= table[tuple(digs[i] for i in parents)][digs[e]]
        weights.append(w)
    return StochasticModel(site, weights)


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
    plan_so2 = stochastic._screening_plan(site, "joint")
    plan_so2w = stochastic._screening_plan(site, "joint-clear")
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


def maximal_pairs(site: CausalSite, condition: str) -> set[tuple[int, int]]:
    """Unordered screened pairs that no one-element extension keeps the past of."""
    init = site.initial_elements()
    past_of = site.mutual_past if condition == "so1" else site.joint_past

    def screened(a, b):
        return (a and b and not a & b and site.spacelike(a, b)
                and not (condition == "so2w" and (a | b) & init))

    out = set()
    for a, b in stochastic._spacelike_pairs(site):
        if not screened(a, b):
            continue
        past = past_of(a, b)
        free = [1 << e for e in range(site.n) if not (a | b) >> e & 1]
        grown = [(a | x, b) for x in free] + [(a, b | x) for x in free]
        if not any(screened(*g) and past_of(*g) == past for g in grown):
            out.add((min(a, b), max(a, b)))
    return out


PRUNING_SITES = {
    # B = {x} can only grow by y, above x: a pair that needs a B-extension
    "chain-and-point": CausalSite([("x", 2), ("y", 2), ("z", 3)], [("x", "y")]),
    "blocked": CausalSite(
        [("r", 3), ("x", 2), ("l0", 2), ("l1", 2), ("l2", 2), ("y", 2)],
        [("r", "l0"), ("r", "l1"), ("r", "l2"), ("x", "l2"), ("x", "y")],
    ),
    "diamond": CausalSite(
        [("b", 2), ("l", 2), ("r", 2), ("t", 2), ("s", 2)],
        [("b", "l"), ("b", "r"), ("l", "t"), ("r", "t")],
    ),
}


def first_screened_pair(site: CausalSite, condition: str) -> tuple[int, int] | None:
    init = site.initial_elements() if condition == "so2w" else 0
    return next(((a, b) for a, b in stochastic._spacelike_pairs(site) if not (a | b) & init), None)


def expected_scans(model, condition: str, failure=None) -> tuple[set, int]:
    """The regions a holding check scans, and how many of its certificates fail.

    The first screened pair is scanned; then each group of pairs with one
    conditioning region P is proved by its certificate (every element of
    the group's union, as singletons, given P) if it has more than one
    maximal pair, or else by each of its maximal pairs.  `failure(model,
    regions, past)` decides a certificate, by default
    `ref_factorization_failure`.
    """
    failure = failure or ref_factorization_failure
    site = model.site
    init = site.initial_elements()
    past_of = site.mutual_past if condition == "so1" else site.joint_past
    pairs = [(a, b) for a, b in stochastic._spacelike_pairs(site)
             if not (condition == "so2w" and (a | b) & init)]
    if not pairs:
        return set(), 0
    unions: dict[int, int] = {}
    for a, b in pairs:
        unions[past_of(a, b)] = unions.get(past_of(a, b), 0) | a | b
    maximal: dict[int, list] = {}
    for a, b in maximal_pairs(site, condition):
        maximal.setdefault(past_of(a, b), []).append((a, b))
    scans = {first_screened_pair(site, condition)}
    failed = 0
    for past, group in maximal.items():
        if len(group) > 1:
            certificate = tuple(1 << e for e in iter_bits(unions[past]))
            scans.add(certificate)
            if failure(model, certificate, past)[0] is None:
                continue
            failed += 1
        scans.update(group)
    return scans, failed


@pytest.mark.parametrize("shape", ["chain-and-point", "blocked", "diamond"])
def test_a_holding_check_scans_each_stand_in_once(shape, monkeypatch):
    site = PRUNING_SITES[shape]
    model = local_dynamics(random.Random(shape), site)
    assert_screening_matches_reference(model)
    scans = []
    original = stochastic._factorization_failure
    monkeypatch.setattr(
        stochastic, "_factorization_failure",
        lambda m, regions, past, **k: scans.append(regions) or original(m, regions, past, **k),
    )
    failed = 0
    for label, check in (("so1", check_so1), ("so2", check_so2), ("so2w", check_so2w)):
        del scans[:]
        assert check(model).verdict in (HOLDS, VACUOUS)
        want, n_failed = expected_scans(model, label)
        assert len(scans) == len(set(scans))
        assert set(scans) == want, label
        assert scans[:1] == [first_screened_pair(site, label)] or not want
        failed += n_failed
    # blocked and diamond hold although a group's elements are not
    # independent, so a certificate fails and its maximal pairs are scanned
    assert (failed > 0) == (shape != "chain-and-point")


@pytest.mark.parametrize("shape", [*PRUNING_SITES, "antichain"])
def test_a_pair_and_its_reverse_share_two_stand_in_lists(shape):
    # the fallbacks of (a, b) are the stand-ins of (b, a), so the plan keeps
    # one pair of lists per dominator, never a list per pair
    site = PRUNING_SITES.get(shape) or CausalSite([(f"s{i}", 2) for i in range(5)])
    pairs = stochastic._spacelike_pairs(site)
    for rule in ("mutual", "joint", "joint-clear"):
        steps = dict(zip(pairs, stochastic._screening_plan(site, rule)))
        for (a, b), step in steps.items():
            if step is None:
                assert steps[b, a] is None
                continue
            ((past, (keys, others, cells, atoms)),) = step
            ((r_past, (r_keys, r_others, r_cells, r_atoms)),) = steps[b, a]
            assert keys is r_others and others is r_keys
            assert (past, cells, atoms) == (r_past, r_cells, r_atoms)
            # the last of each list covers the pair, A-first and B-first
            for x, y in (keys[-1], others[-1]):
                assert (a & ~x, b & ~y) == (0, 0) or (a & ~y, b & ~x) == (0, 0)


# -- group certificates -------------------------------------------------------


PAIRWISE = {"so1": check_so1, "so2": check_so2, "so2w": check_so2w}


def recorded_scans(monkeypatch) -> list:
    scans = []
    original = stochastic._factorization_failure
    monkeypatch.setattr(
        stochastic, "_factorization_failure",
        lambda m, regions, past, **k: scans.append((regions, past)) or original(m, regions, past, **k),
    )
    return scans


@pytest.mark.parametrize("alphabets", [(2, 2), (2, 3, 2), (2, 2, 2, 2), (3, 2, 2, 2, 2), (2,) * 6])
def test_a_product_on_an_antichain_is_certified_at_once(alphabets, monkeypatch):
    # every pair has the empty past, and every site is independent of the
    # others: after the first pair, the certificate of all k sites holds; with
    # k = 2 the one maximal pair is the whole group, so no certificate is tried
    model = product_on_antichain(random.Random(f"certified {alphabets}"), alphabets)
    reports = assert_screening_matches_reference(model)
    assert reports["so1"]["verdict"] == reports["so2"]["verdict"] == HOLDS
    assert reports["so2w"]["verdict"] == VACUOUS
    scans = recorded_scans(monkeypatch)
    check_so1(model)
    singletons = tuple(1 << e for e in range(len(alphabets)))
    assert scans == [((1, 2), 0)] + ([(singletons, 0)] if len(alphabets) > 2 else [])


@pytest.mark.parametrize("coupled", list(itertools.combinations(range(7), 2)))
def test_seven_leaves_coupled_at_every_position(coupled, monkeypatch):
    # the 7-leaf certificate fails wherever the coupled pair sits; the walk
    # falls back to the maximal pairs and reaches the ordinal first failure
    model = leaves_below_a_root(7, (1, 1, 2), coupled)
    # every pair is of leaves, with the root as mutual and joint past, and
    # only the root is initial: the three ordinal scans are the same scan
    site = model.site
    assert site.initial_elements() == 1
    assert {(site.mutual_past(a, b), site.joint_past(a, b))
            for a, b in stochastic._spacelike_pairs(site)} == {(1, 1)}
    want = ref_so1(model)
    assert want.verdict == VIOLATED
    failing = stochastic._spacelike_pairs(site)[want.stats["region_pairs"] - 1]
    scans = recorded_scans(monkeypatch)
    for label, check in PAIRWISE.items():
        del scans[:]
        got = _outcome(lambda: check(model))
        assert got == _outcome(lambda: replace(want, condition=label)), label
        leaves = (tuple(1 << e for e in range(1, 8)), 1)
        assert len(set(scans)) == len(scans)
        assert (leaves in scans) == (coupled != (0, 1))
        # no pair before the first failure is scanned on its own
        assert set(scans) <= one_block_scans(site, label, failing), label
    for label, run in SCREENING[3:5]:
        assert _outcome(lambda: run(model)) == _reference_outcome(label, run, model), label


@pytest.mark.parametrize("coupled", [False, True])
def test_gen_so_makes_the_scans_of_so1_and_so2(coupled, monkeypatch):
    # gen-so[mutual] and gen-so[joint] walk so1's and so2's plans: on the
    # common cause below 7 leaves, 2 scans when it holds (the first pair and
    # the 7-leaf certificate), 66 when the last two leaves are coupled
    model = common_cause(random.Random(3), 7, coupled)
    scans = recorded_scans(monkeypatch)
    for pairwise, selector in ((check_so1, "mutual"), (check_so2, "joint")):
        del scans[:]
        pairwise(model)
        want = list(scans)
        del scans[:]
        check_generalized_so(model, selector)
        assert scans == want
        assert len(scans) == (66 if coupled else 2)


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
    convex = [not site.joint_past(a, b) & (site.future(a) | site.future(b)) for a, b in pairs]
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
        assert got == _reference_outcome(label, run, model)
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


def leaves_with_coupled_blocks(rng: random.Random, n_leaves: int, blocks) -> StochasticModel:
    """Ternary root below binary leaves; the leaves of each block take one value.

    Outside the blocks the leaves are independent given the root, and so
    are the blocks, so the dependence given the root lies within each block.
    """
    elements = [("c", 3)] + [(f"l{i}", 2) for i in range(n_leaves)]
    site = CausalSite(elements, [("c", f"l{i}") for i in range(n_leaves)])
    leaf_ps = [[F(rng.randrange(1, 5), 5) for _ in range(n_leaves)] for _ in range(3)]
    weights = []
    for c, *leaves in itertools.product(range(3), *([range(2)] * n_leaves)):
        w = F(c + 1)
        for p, v in zip(leaf_ps[c], leaves):
            w *= p if v else 1 - p
        weights.append(w if all(len({leaves[i] for i in block}) == 1 for block in blocks) else F(0))
    return StochasticModel(site, [w / sum(weights) for w in weights])


@pytest.mark.parametrize("blocks", [((1, 2), (0, 5)), ((0, 3), (1, 4)), ((1, 2), (0, 4, 5))])
def test_two_coupled_blocks_scan_some_pairs_on_their_own(blocks, monkeypatch):
    # ({l0}, {l2}) with blocks {l1, l2} and {l0, l5} splits neither, but its
    # A-first dominator puts l1 and l2 apart and its B-first one l0 and l5:
    # it holds, and is scanned on its own before the first failure
    model = leaves_with_coupled_blocks(random.Random(f"blocks {blocks}"), 6, blocks)
    site = model.site
    scans = recorded_scans(monkeypatch)
    for label, check in PAIRWISE.items():
        del scans[:]
        got = _outcome(lambda: check(model))
        assert got == _outcome(lambda: REF_SCREENING[label](model)), label
        report = json.loads(got)
        assert report["verdict"] == VIOLATED
        failing = stochastic._spacelike_pairs(site)[report["stats"]["region_pairs"] - 1]
        assert len(set(scans)) == len(scans)
        on_their_own = set(scans) - one_block_scans(site, label, failing)
        assert on_their_own, label
        for regions, past in on_their_own:
            assert len(regions) == 2 and ref_factorization_failure(model, regions, past)[0] is None


@given(seed=st.integers(0, 10**6), n_leaves=st.integers(3, 5), data=st.data())
def test_one_coupled_block_below_a_root(seed, n_leaves, data):
    # wherever the block lies, the first failure is the ordinal one, and
    # every pair before it has a dominator that holds
    block = data.draw(st.lists(st.integers(0, n_leaves - 1), min_size=2, max_size=3, unique=True))
    model = leaves_with_coupled_blocks(random.Random(seed), n_leaves, [block])
    site = model.site
    with pytest.MonkeyPatch.context() as m:
        scans = recorded_scans(m)
        for label, check in PAIRWISE.items():
            del scans[:]
            got = _outcome(lambda: check(model))
            assert got == _outcome(lambda: REF_SCREENING[label](model)), label
            report = json.loads(got)
            assert report["verdict"] == VIOLATED
            failing = stochastic._spacelike_pairs(site)[report["stats"]["region_pairs"] - 1]
            assert len(set(scans)) == len(scans)
            assert set(scans) <= one_block_scans(site, label, failing), label


@pytest.mark.parametrize("label", ["so1", "so2", "so2w"])
def test_a_first_pair_failure_scans_once_and_builds_no_plan(label, monkeypatch):
    # nearly every random model fails at its first screened pair; such a
    # check costs one scan and no plan, and so tries no certificate
    models = []
    for seed in range(60):
        model = random_stochastic(seed, 3 + seed % 2, 2)
        report = REF_SCREENING[label](model)
        if report.verdict == VIOLATED and report.stats["region_pairs"] == 1:
            models.append((model, report))
    assert len(models) >= 20

    def no_plan(*args):
        raise AssertionError("a plan was built for a first-pair failure")

    monkeypatch.setattr(stochastic, "_screening_plan", no_plan)
    scans = recorded_scans(monkeypatch)
    for model, want in models:
        del scans[:]
        report = PAIRWISE[label](model)
        assert report.to_json_dict() == want.to_json_dict()
        first = first_screened_pair(model.site, label)
        past_of = model.site.mutual_past if label == "so1" else model.site.joint_past
        assert scans == [(first, past_of(*first))]


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
            check(model)
            if reports[label]["verdict"] == HOLDS:
                assert {regions for regions, _ in scans} == expected_scans(model, label)[0], label
