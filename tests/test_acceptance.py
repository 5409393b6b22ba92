"""Acceptance gate: the eleven headline guarantees, one test each.

Run with ``pytest -v`` to get one pass/fail line per criterion; each test
also prints a one-line summary with the key numbers.
"""
from __future__ import annotations

import io
import time
from contextlib import redirect_stdout
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from operator import and_, or_

from hypothesis import given
from hypothesis import strategies as st

from definitions import restriction
from screenoff.cli import main
from screenoff.corpus import (
    builtin,
    corpus_entries,
    fuzz_equivalence,
    random_deterministic_local,
    random_diagonal_quantal,
)
from screenoff.events import dom, full_specifications, n_configs, omega
from screenoff.order import CausalSite, iter_bits, submasks
from screenoff.quantal import QuantalModel, diagonal_reduction
from screenoff.report import HOLDS, VACUOUS, VIOLATED
from screenoff.stochastic import (
    SelectorError,
    StochasticModel,
    check_generalized_so,
    check_multi_so,
    check_penrose_percival,
    check_so1,
    check_so2,
    check_wrc,
    find_simpson_events,
)

F = Fraction


def _line(criterion: int, detail: str) -> None:
    print(f"criterion {criterion}: PASS — {detail}")


def _emit(tmp_path, name: str) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(["corpus", "emit", name]) == 0
    path = tmp_path / f"{name}.json"
    path.write_text(buf.getvalue())
    return str(path)


def _quiet_main(argv) -> int:
    buf = io.StringIO()
    with redirect_stdout(buf):
        return main(argv)


def test_criterion_01_coin_example_fidelity(tmp_path):
    started = time.monotonic()
    entry = builtin("illusionist_coins")
    m = entry.model
    a, b, c = entry.event("A"), entry.event("B"), entry.event("C")
    omega = (1 << len(m.weights)) - 1
    assert m.mu(a) == F(1, 2)
    assert m.mu(b) == F(1, 2)
    assert m.mu(a & b) == 0
    assert m.conditional(a, c) == 1
    assert m.conditional(b, c) == 0
    assert m.conditional(a & b, c) == 0
    assert m.conditional(a, omega ^ c) == 0
    assert m.conditional(b, omega ^ c) == 1
    assert m.mu(c) == F(1, 2)
    assert _quiet_main(["check", "so1", _emit(tmp_path, "illusionist_coins")]) == 0
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _line(1, f"nine pinned rationals exact, check exit 0, {elapsed:.2f}s")


def test_criterion_02_simpson_example_fidelity(tmp_path):
    started = time.monotonic()
    entry = builtin("wizard_simpson")
    m = entry.model
    a, b, s = entry.event("A"), entry.event("B"), entry.event("S")
    omega = (1 << len(m.weights)) - 1
    assert m.mu(a) == F(1, 2)
    assert m.mu(b) == F(1, 2)
    assert m.mu(a & b) == F(1, 4)
    assert m.conditional(a, s) == F(1, 2)
    assert m.conditional(b, s) == F(1, 2)
    assert m.conditional(a & b, s) == 0
    assert m.conditional(a, omega ^ s) == F(1, 2)
    assert m.conditional(b, omega ^ s) == F(1, 2)
    assert m.conditional(a & b, omega ^ s) == F(1, 2)
    assert m.mu(s) == F(1, 2)
    assert s in find_simpson_events(m, a, b)
    report = check_so1(m)
    assert report.violated
    assert report.counterexample.event("C").mask == s
    assert report.counterexample.event("C").expr == "sel=0"
    assert _quiet_main(["check", "so1", _emit(tmp_path, "wizard_simpson")]) == 1
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _line(
        2,
        "ten pinned rationals exact, Simpson event recovered and fixed "
        f"by the counterexample, {elapsed:.2f}s",
    )


def test_criterion_03_equivalence_fuzz_stochastic():
    started = time.monotonic()
    report = fuzz_equivalence(1, 1000, "so1-so2", n_sites=5, max_alphabet=2)
    elapsed = time.monotonic() - started
    assert report.holds
    assert report.stats["agreements"] == 1000
    assert elapsed < 300.0
    _line(3, f"1000/1000 so1-so2 agreements in {elapsed:.1f}s")


def test_criterion_04_equivalence_fuzz_quantal():
    started = time.monotonic()
    report = fuzz_equivalence(1, 300, "qso1-qso2", n_sites=4, max_alphabet=2, rank=3)
    elapsed = time.monotonic() - started
    assert report.holds
    assert report.stats["agreements"] == 300
    assert elapsed < 600.0
    _line(4, f"300/300 qso1-qso2 agreements in {elapsed:.1f}s")


def test_criterion_05_diagonal_reduction():
    matched = 0
    for seed in range(100):
        q = random_diagonal_quantal(seed, n_sites=4, max_alphabet=2)
        report = diagonal_reduction(q)
        assert report.holds, seed
        assert report.stats["so1_verdict"] == report.stats["qso1_verdict"]
        matched += 1
    _line(5, f"{matched}/100 diagonal models reduce to the classical verdict")


def test_criterion_06_bernstein_paradox():
    entry = builtin("bernstein_xor")
    m = entry.model
    a1, a2, a3 = (entry.event(k) for k in ("A1", "A2", "A3"))
    for x, y in ((a1, a2), (a1, a3), (a2, a3)):
        assert m.mu(x & y) == F(1, 4)
        assert m.mu(x) * m.mu(y) == F(1, 4)
    assert m.mu(a1 & a2 & a3) == F(1, 4)
    assert m.mu(a1) * m.mu(a2) * m.mu(a3) == F(1, 8)
    assert check_multi_so(m, 3).violated
    report = check_so1(m)
    assert report.violated
    sizes = sorted(len(ids) for _, ids in report.counterexample.regions[:2])
    assert sizes == [1, 2]
    _line(6, "pairwise independent, triple-dependent; both checks flag it")


def test_criterion_07_dom_axiom_suite():
    tally = {"sites": 0, "families": 0}

    @st.composite
    def site_and_events(draw):
        alphabets = draw(st.lists(st.integers(2, 3), min_size=3, max_size=3))
        edges = draw(st.sets(st.sampled_from([(0, 1), (0, 2), (1, 2)])))
        site = CausalSite(
            [(f"e{i}", k) for i, k in enumerate(alphabets)],
            [(f"e{i}", f"e{j}") for i, j in edges],
        )
        # unions of one region's cells, so that families with disjoint and
        # with equal domains both turn up
        events = []
        for _ in range(4):
            cells = full_specifications(site, draw(st.integers(0, site.full_mask)))
            pick = draw(st.integers(0, (1 << len(cells)) - 1))
            events.append(sum(c for k, c in enumerate(cells) if pick >> k & 1))
        return site, events

    @given(site_and_events())
    def domain_calculus(drawn):
        site, events = drawn
        om = omega(site)
        for e in events:
            d = dom(site, e)
            assert dom(site, om ^ e) == d
            # any two-way split of the domain generates the event from cells
            for x in submasks(d):
                cells = product(full_specifications(site, x), full_specifications(site, d & ~x))
                assert sum(f & g for f, g in cells if f & g & ~e == 0) == e
        for size in (2, 3):
            for family in combinations(events, size):
                tally["families"] += 1
                ds = [dom(site, e) for e in family]
                meet = reduce(and_, family, om)
                join = reduce(or_, family)
                if all(not p & q for p, q in combinations(ds, 2)):
                    if meet:
                        assert dom(site, meet) == sum(ds)
                    if join != om:
                        assert dom(site, join) == sum(ds)
                if len(set(ds)) == 1:
                    assert (dom(site, meet) | dom(site, join)) & ~ds[0] == 0
        tally["sites"] += 1

    domain_calculus()
    assert tally["families"] >= 500
    _line(7, f"{tally['families']} event families across {tally['sites']} drawn sites, 0 violations")


def test_criterion_08_full_specification_lemma_suite():
    regions = pairs = factorizations = 0
    for entry in corpus_entries():
        site = entry.model.site
        om = omega(site)
        full = site.full_mask
        assert len(site.elements) <= 4
        specs = {r: full_specifications(site, r) for r in range(full + 1)}
        for r, cells in specs.items():
            regions += 1
            # the cells partition the history space, one per configuration
            assert all(cells) and sum(cells) == om and len(cells) == n_configs(site, r)
        for a in range(full + 1):
            for b in submasks(full & ~a):
                pairs += 1
                # meets of specifications of disjoint regions specify the union
                assert {f & g for f in specs[a] for g in specs[b]} <= set(specs[a | b])
            for b in submasks(a):
                assert {restriction(site, f, b) for f in specs[a]} <= set(specs[b])
        for r in range(full + 1):
            decompositions = [[x, r & ~x] for x in submasks(r)]
            if bin(r).count("1") > 2:
                decompositions.append([1 << i for i in iter_bits(r)])
            for parts in decompositions:
                factorizations += 1
                for f in specs[r]:
                    factors = [restriction(site, f, p) for p in parts]
                    assert all(g in specs[p] for g, p in zip(factors, parts))
                    assert reduce(and_, factors, om) == f
    _line(
        8,
        f"{regions} regions, {pairs} region pairs, {factorizations} "
        "factorizations across the corpus, 0 violations",
    )


def test_criterion_09_determinism_implies_screening():
    for seed in range(1, 201):
        assert not check_so1(random_deterministic_local(seed, n_sites=4, max_alphabet=2)).violated, seed
    _line(9, "200/200 deterministic locally-driven models satisfy so1")


def test_criterion_10_nonsignalling_violation():
    entry = builtin("pr_box")
    m = entry.model
    a, b = entry.event("A"), entry.event("B")
    assert m.mu(a & b) == F(1, 8)
    assert m.mu(a) * m.mu(b) == F(1, 16)
    assert check_so1(m).violated
    assert check_so2(m).violated
    assert check_wrc(m, conditioned=True).violated
    _line(10, "box correlation 1/8 vs product 1/16; so1, so2, wrc-cond all violated")


def test_criterion_11_conjecture_probes_are_non_failing():
    records = []
    agreements = stochastic_entries = 0
    for entry in corpus_entries():
        if isinstance(entry.model, QuantalModel):
            continue
        assert isinstance(entry.model, StochasticModel)
        stochastic_entries += 1
        for selector in ("mutual", "joint", "bell", "all"):
            try:
                verdict = check_generalized_so(entry.model, selector=selector).verdict
            except SelectorError:
                verdict = "inadmissible"
            records.append((entry.name, f"gen-so[{selector}]", verdict))
        pp = check_penrose_percival(entry.model).verdict
        records.append((entry.name, "penrose-percival", pp))
        if pp == check_so1(entry.model).verdict:
            agreements += 1
    assert all(v in (HOLDS, VIOLATED, VACUOUS, "inadmissible") for _, _, v in records)
    _line(
        11,
        f"{len(records)} probe records emitted without failure; penrose-percival "
        f"matched so1 on {agreements}/{stochastic_entries} entries",
    )
