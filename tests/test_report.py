"""Check reports build a violated check's counterexample on first read."""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import replace

import pytest

import screenoff.quantal as quantal
import screenoff.stochastic as stochastic
from screenoff.corpus import builtin, fuzz_equivalence, verify_corpus
from screenoff.report import VIOLATED, CheckReport, Counterexample, InternalCheckError

# (module, builder name, check, corpus entry whose check is violated)
BUILDERS = {
    "so1": (stochastic, "_conditional_counterexample", stochastic.check_so1, "wizard_simpson"),
    "qso1": (quantal, "_quantal_counterexample", quantal.check_qso1, "entangled_rank1"),
}


@pytest.fixture
def builds(monkeypatch):
    """Count every counterexample build, by builder name, through the module globals."""
    counts = Counter()
    for module, name, _, _ in BUILDERS.values():
        def counting(*args, _build=getattr(module, name), _name=name):
            counts[_name] += 1
            return _build(*args)

        monkeypatch.setattr(module, name, counting)
    return counts


def _violated(token: str) -> CheckReport:
    _, _, check, entry = BUILDERS[token]
    report = check(builtin(entry).model)
    assert report.verdict == VIOLATED
    return report


def _eager(report: CheckReport) -> CheckReport:
    """The same report with its pending counterexample built up front."""
    build = vars(report)["counterexample"]
    assert callable(build)
    return CheckReport(report.condition, report.verdict, build(), report.reason, dict(report.stats))


@pytest.mark.parametrize("token", BUILDERS)
class TestBuildOnRead:
    def test_built_once_and_kept(self, builds, token):
        report = _violated(token)
        name = BUILDERS[token][1]
        assert builds[name] == 0
        first = report.counterexample
        assert isinstance(first, Counterexample)
        assert all(report.counterexample is first for _ in range(3))
        assert builds[name] == 1
        assert vars(report)["counterexample"] is first  # the builder and its references are gone

    @pytest.mark.parametrize("read", [
        lambda r: r,
        repr,
        lambda r: json.dumps(r.to_json_dict(), sort_keys=True),
        lambda r: replace(r, condition="renamed"),
        lambda r: replace(r, stats={}),
    ], ids=["eq", "repr", "json", "replace-condition", "replace-stats"])
    def test_every_view_matches_an_eager_report(self, token, read):
        eager = _eager(_violated(token))
        assert read(_violated(token)) == read(eager)

    def test_a_builder_returning_none_fails_on_read(self, monkeypatch, token):
        module, name, _, _ = BUILDERS[token]
        monkeypatch.setattr(module, name, lambda *args: None)
        report = _violated(token)  # present while pending
        with pytest.raises(InternalCheckError, match="counterexample builder returned None"):
            report.counterexample


def test_presence_rule_counts_a_pending_build():
    with pytest.raises(InternalCheckError, match="counterexample present iff"):
        CheckReport("c", "holds", counterexample=lambda: Counterexample())


class TestNoDiscardedBuilds:
    @pytest.mark.parametrize("pair", ["qso1-qso2", "so1-so2"])
    def test_fuzz_builds_none(self, builds, monkeypatch, pair):
        report = fuzz_equivalence(0, 40, pair, jobs=1)
        assert sum(builds.values()) == 0
        assert report.stats["verdicts"].get(VIOLATED, 0) > 0  # violated checks were run
        monkeypatch.undo()
        assert report == fuzz_equivalence(0, 40, pair, jobs=1)

    def test_corpus_verify_builds_only_what_diag_reduce_compares(self, builds, monkeypatch):
        # diag-reduce compares the so1 and qso1 counterexamples of the four
        # decohered entries whose verdicts are violated; nothing else reads one
        inside = Counter()
        reduce = quantal.diagonal_reduction

        def counted_reduce(q):
            before = dict(builds)
            try:
                return reduce(q)
            finally:
                inside.update(builds - Counter(before))

        monkeypatch.setattr(quantal, "diagonal_reduction", counted_reduce)
        report = verify_corpus()
        assert builds == inside == {"_conditional_counterexample": 4, "_quantal_counterexample": 4}
        monkeypatch.undo()
        assert report == verify_corpus()
