"""The built-in model catalogue, random generators, and fuzz harness."""
from __future__ import annotations

import json
import os
import random
from fractions import Fraction

import pytest

import screenoff.conditions as conditions
import screenoff.corpus as corpus_mod
from screenoff.events import CapacityError, n_histories
from screenoff.corpus import (
    FUZZ_PAIRS,
    CorpusEntry,
    CorpusError,
    builtin,
    corpus_entries,
    corpus_names,
    fuzz_equivalence,
    random_deterministic_local,
    random_diagonal_quantal,
    random_quantal,
    random_stochastic,
    run_condition,
    verify_corpus,
)
from screenoff.modelfile import parse_model_text, render_model_json
from screenoff.quantal import QuantalModel, check_qso1, validate_quantal
from screenoff.report import HOLDS, VIOLATED, CheckReport
from screenoff.stochastic import (
    StochasticModel,
    check_pcc_original,
    check_pcc_rev1,
    check_pcc_rev2,
    check_so1,
    correlated,
)

F = Fraction

EXPECTED_NAMES = {
    "illusionist_coins",
    "illusionist_coins_diag",
    "wizard_simpson",
    "wizard_simpson_diag",
    "three_pair_coins",
    "three_pair_coins_diag",
    "bernstein_xor",
    "bernstein_xor_diag",
    "pr_box",
    "pr_box_diag",
    "initial_correlation",
    "initial_correlation_diag",
    "deep_past",
    "deep_past_diag",
    "product_quantal",
    "entangled_rank1",
}


# -- catalogue --------------------------------------------------------------


class TestCatalogue:
    def test_names(self):
        assert set(corpus_names()) == EXPECTED_NAMES

    def test_unknown_name(self):
        with pytest.raises(CorpusError, match="unknown model 'nope'"):
            builtin("nope")

    def test_entries_rebuild_fresh(self):
        a = builtin("pr_box")
        b = builtin("pr_box")
        assert a is not b
        assert a.model == b.model

    def test_every_quantal_entry_validates(self):
        for entry in corpus_entries():
            if isinstance(entry.model, QuantalModel):
                assert validate_quantal(entry.model).holds, entry.name

    def test_diagonal_embeddings_carry_the_weights(self):
        base = builtin("wizard_simpson").model
        diag = builtin("wizard_simpson_diag").model
        for h in range(len(base.weights)):
            for g in range(len(base.weights)):
                want = base.weights[h] if h == g else 0
                assert diag.entries[h][g].re == want
                assert diag.entries[h][g].im == 0

    def test_named_events_resolve(self):
        for entry in corpus_entries():
            for name in entry.named_events:
                mask = entry.event(name)
                omega = (1 << n_histories(entry.model.site)) - 1
                assert 0 < mask <= omega, (entry.name, name)

    def test_file_dicts_round_trip(self):
        for entry in corpus_entries():
            text = render_model_json(entry.model, entry.named_events or None)
            loaded = parse_model_text(text, entry.name)
            if isinstance(entry.model, StochasticModel):
                assert loaded.model == entry.model, entry.name
            else:
                assert loaded.model.entries == entry.model.entries, entry.name
            assert loaded.named_events == dict(entry.named_events)


# -- pinned verdicts --------------------------------------------------------


class TestGoldenVerdicts:
    def test_verify_corpus(self):
        report = verify_corpus()
        assert report.holds
        assert report.stats == {"entries": 16, "verdicts_checked": 56}

    @pytest.mark.parametrize("name, token", [("pr_box", None), ("illusionist_coins", "so1")])
    def test_verify_corpus_reports_the_first_mismatch(self, name, token, monkeypatch):
        # one pinned verdict is flipped in a stand-in catalogue: pr_box's
        # first (so1), or illusionist_coins' so1, which holds, pinned violated
        entries = corpus_entries()
        at = corpus_names().index(name)
        entry = entries[at]
        token = token or min(entry.expected)
        flipped = {**entry.expected, token: HOLDS if entry.expected[token] == VIOLATED else VIOLATED}
        entries[at] = CorpusEntry(entry.name, entry.model, flipped, entry.note, entry.named_events)
        monkeypatch.setattr(corpus_mod, "corpus_entries", lambda: entries)
        report = verify_corpus()
        assert report.violated
        assert report.stats == {
            "entries": at + 1,
            "verdicts_checked": sum(len(e.expected) for e in entries[:at]) + sorted(flipped).index(token) + 1,
        }
        cx = report.counterexample
        assert cx.values == (
            ("entry", name),
            ("condition", token),
            ("expected", flipped[token]),
            ("actual", entry.expected[token]),
        )
        assert cx.note == "a pinned corpus verdict no longer reproduces"

    @pytest.mark.parametrize("token, check", [("pcc-original", check_pcc_original),
                                              ("pcc-rev1", check_pcc_rev1), ("pcc-rev2", check_pcc_rev2)])
    def test_run_condition_passes_the_named_events(self, token, check):
        entry = builtin("pr_box")
        want = check(entry.model, entry.event("A"), entry.event("B"))
        assert want.verdict == HOLDS
        assert run_condition(entry, token).to_json_dict() == want.to_json_dict()

    def test_unknown_condition_token(self):
        with pytest.raises(CorpusError, match="unknown condition token"):
            run_condition(builtin("pr_box"), "so99")

    def test_wizard_counterexample_fixes_the_selector(self):
        report = check_so1(builtin("wizard_simpson").model)
        assert report.violated
        cx = report.counterexample
        assert ("past", ("sel",)) in cx.regions
        assert cx.event("C").expr == "sel=0"

    def test_pr_box_witness_values(self):
        entry = builtin("pr_box")
        m = entry.model
        a, b = entry.event("A"), entry.event("B")
        assert m.mu(a & b) == F(1, 8)
        assert m.mu(a) * m.mu(b) == F(1, 16)
        assert correlated(m, a, b)

    def test_initial_correlation_split_verdict(self):
        entry = builtin("initial_correlation")
        assert run_condition(entry, "so2").verdict == VIOLATED
        assert run_condition(entry, "so2w").verdict == HOLDS

    def test_deep_past_probes_extra_dissections(self):
        report = run_condition(builtin("deep_past"), "penrose-percival")
        assert report.holds
        assert report.stats["dissections"] == 8
        assert report.stats["region_pairs"] == 6

    def test_entangled_pair_violates_quantal_screening(self):
        report = check_qso1(builtin("entangled_rank1").model)
        assert report.violated
        assert report.counterexample.value("muhat(A&B&C)*muhat(C)") == "1/2"
        assert report.counterexample.value("muhat(A&C)*muhat(B&C)") == "1/4"

    def test_notes_present(self):
        for entry in corpus_entries():
            assert len(entry.note) > 40, entry.name


# -- generators -------------------------------------------------------------


class TestGenerators:
    def test_stochastic_deterministic(self):
        assert random_stochastic(11) == random_stochastic(11)
        assert random_stochastic(11) != random_stochastic(12)

    def test_stochastic_single_site(self):
        m = random_stochastic(1, n_sites=1)
        assert len(m.site.elements) == 1
        assert sum(m.weights) == 1

    def test_stochastic_sweep_validates(self):
        for seed in range(1, 60):
            m = random_stochastic(seed, n_sites=4, max_alphabet=3)
            assert sum(m.weights) == 1
            assert all(w >= 0 for w in m.weights)

    def test_quantal_deterministic(self):
        a = random_quantal(21)
        b = random_quantal(21)
        assert a.entries == b.entries
        assert a.positivity_witness == b.positivity_witness

    def test_quantal_sweep_validates_by_witness(self):
        for seed in range(1, 40):
            q = random_quantal(seed, n_sites=3, max_alphabet=2, rank=3)
            report = validate_quantal(q)
            assert report.holds, seed
            assert report.stats["positivity"] == "witness"

    def test_quantal_rank_one(self):
        q = random_quantal(5, n_sites=2, max_alphabet=2, rank=1)
        assert len(q.positivity_witness) == 1

    def test_quantal_bad_rank(self):
        with pytest.raises(ValueError, match="rank"):
            random_quantal(1, rank=0)

    def test_diagonal_quantal_matches_stochastic(self):
        q = random_diagonal_quantal(9, n_sites=3, max_alphabet=2)
        m = random_stochastic(9, n_sites=3, max_alphabet=2)
        assert q.site == m.site
        for h in range(len(m.weights)):
            assert q.entries[h][h].re == m.weights[h]

    def test_deterministic_local_deterministic(self):
        assert random_deterministic_local(3) == random_deterministic_local(3)

    def test_bad_site_count(self):
        with pytest.raises(ValueError, match="n_sites"):
            random_stochastic(1, n_sites=0)

    def test_draws_of_one_site_shape_share_one_site_object(self):
        # site-keyed caches then hit by identity, without calling CausalSite.__eq__
        drawn = {}
        for seed in range(40):
            for draw in (random_stochastic, random_quantal, random_deterministic_local):
                site = draw(seed, 3, 2).site
                assert drawn.setdefault((site.elements, site.alphabets, site.below), site) is site
        assert len(drawn) < 120  # shapes repeat
        assert random_diagonal_quantal(9, 3, 2).site is random_stochastic(9, 3, 2).site

    def test_interning_sites_leaves_fuzz_reports_unchanged(self, monkeypatch):
        runs = [(3, 60, "so1-so2"), (3, 40, "qso1-qso2"), (7, 30, "so1-wrc_conditioned")]

        def reports():
            return [json.dumps(fuzz_equivalence(*run).to_json_dict(), sort_keys=True) for run in runs]

        interned = reports()
        monkeypatch.setattr(corpus_mod, "_interned", lambda site: site)
        assert reports() == interned

    def test_sites_over_the_history_limit_are_refused_before_drawing(self, monkeypatch):
        # every alphabet is at least 2, so 17 sites have at least 2^17 histories
        assert len(corpus_mod._random_site(random.Random(0), 16, 2, 0.5).elements) == 16
        monkeypatch.setattr(corpus_mod, "CausalSite", None)
        with pytest.raises(CapacityError) as err:
            corpus_mod._random_site(None, 17, 2, 0.5)
        assert str(err.value) == (
            "capacity error: 17 sites of at least 2 values each have at least "
            "2^17 histories; the limit is 65536"
        )

    def test_quantal_entries_over_the_bound_are_refused(self, monkeypatch):
        # 1,024 histories are admitted, and a matrix one entry larger is not
        corpus_mod._require_entries(1024, 1024 * 1024, "a 1024 x 1024 matrix")
        with pytest.raises(CapacityError, match=r"\(1048577 entries\); the limit is 1048576 entries$"):
            corpus_mod._require_entries(1024, 1024 * 1024 + 1, "a matrix")
        monkeypatch.setattr(corpus_mod, "_decohered", None)
        with pytest.raises(CapacityError) as err:
            random_diagonal_quantal(0, n_sites=16, max_alphabet=2)
        assert str(err.value) == (
            "capacity error: a random quantal model on 65536 histories needs a 65536 x 65536 "
            "matrix (4294967296 entries); the limit is 1048576 entries"
        )


# -- fuzzing ----------------------------------------------------------------


class TestFuzz:
    def test_so1_so2_agree(self):
        report = fuzz_equivalence(5, 120, "so1-so2")
        assert report.holds
        assert report.condition == "fuzz[so1-so2]"
        assert report.stats["agreements"] == 120
        assert sum(report.stats["verdicts"].values()) == 120

    def test_qso1_qso2_agree(self):
        report = fuzz_equivalence(5, 40, "qso1-qso2")
        assert report.holds
        assert report.stats["agreements"] == 40

    def test_wrc_conditioned_tracks_so1(self):
        report = fuzz_equivalence(5, 60, "so1-wrc_conditioned")
        assert report.holds
        assert report.stats["agreements"] == 60

    def test_generalized_all_is_recorded(self):
        report = fuzz_equivalence(5, 40, "so1-generalized_all")
        assert report.holds
        assert report.stats["models"] == 40

    def test_jobs_do_not_change_the_report(self):
        serial = fuzz_equivalence(8, 40, "so1-so2", jobs=1).to_json_dict()
        jobs = min(3, os.cpu_count() or 1)
        parallel = fuzz_equivalence(8, 40, "so1-so2", jobs=jobs).to_json_dict()
        assert serial == parallel

    @pytest.mark.parametrize("extra", [None, 0, -1])
    def test_jobs_outside_one_to_cpu_count(self, extra):
        # validation runs before any pool exists, so no worker is started
        limit = os.cpu_count() or 1
        jobs = limit + 1 if extra is None else extra
        with pytest.raises(ValueError, match=f"between 1 and {limit}"):
            fuzz_equivalence(1, 10, "so1-so2", jobs=jobs)

    def test_unknown_pair(self):
        with pytest.raises(ValueError, match="unknown fuzz pair"):
            fuzz_equivalence(1, 10, "so1-so3")
        assert "so1-so2" in FUZZ_PAIRS

    def test_bad_count(self):
        with pytest.raises(ValueError, match="count"):
            fuzz_equivalence(1, 0, "so1-so2")

    def test_count_over_the_limit_is_refused(self, monkeypatch):
        # the limit itself is accepted (with models stubbed out); one more is
        # refused before the task list exists
        limit = corpus_mod.FUZZ_COUNT_LIMIT
        monkeypatch.setattr(corpus_mod, "_fuzz_one", lambda task: (task[1], HOLDS, HOLDS))
        assert fuzz_equivalence(1, limit, "so1-so2").stats["agreements"] == limit
        monkeypatch.setattr(corpus_mod, "_fuzz_one", None)
        with pytest.raises(CapacityError) as got:
            fuzz_equivalence(1, limit + 1, "so1-so2")
        assert str(got.value) == (
            f"capacity error: fuzz count {limit + 1} is over the limit of {limit} models per run"
        )

    def test_disagreement_reports_replay_data(self, monkeypatch):
        # force a fake disagreement to exercise the violation report
        def upside_down(model):
            r = check_so1(model)
            verdict = HOLDS if r.verdict != HOLDS else VIOLATED
            if verdict == VIOLATED:
                return CheckReport(
                    "so2", VIOLATED, counterexample=r.counterexample
                    or _dummy_counterexample()
                )
            return CheckReport("so2", HOLDS)

        monkeypatch.setattr(conditions, "check_so2", upside_down)
        report = fuzz_equivalence(5, 6, "so1-so2")
        assert report.violated
        cx = report.counterexample
        assert int(cx.value("seed")) in range(5, 11)
        assert cx.value("so1") != cx.value("so2")
        assert '"format_version":1' in cx.value("model")
        assert "replay" in cx.note

    def test_conjecture_pair_records_without_failing(self, monkeypatch):
        def contrarian(model, selector="mutual"):
            r = check_so1(model)
            flipped = HOLDS if r.verdict != HOLDS else VIOLATED
            if flipped == VIOLATED:
                return CheckReport(
                    "gen-so[all]", VIOLATED, counterexample=_dummy_counterexample()
                )
            return CheckReport("gen-so[all]", HOLDS)

        monkeypatch.setattr(conditions, "check_generalized_so", contrarian)
        report = fuzz_equivalence(5, 6, "so1-generalized_all")
        assert report.holds
        assert report.stats["agreements"] < 6
        assert "first_disagreement_seed" in report.stats
        assert '"measure"' in report.stats["first_disagreement_model"]


def _dummy_counterexample():
    from screenoff.report import Counterexample

    return Counterexample(values=(("why", "forced for the test"),), note="forced")
