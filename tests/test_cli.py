"""Command-line behavior: subcommands, exit codes, output stability."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import screenoff
import screenoff.corpus as corpus_mod
import screenoff.events as events
import screenoff.stochastic as stochastic

from screenoff.cli import main


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    """Corpus models emitted to files once for the whole module."""
    root = tmp_path_factory.mktemp("models")
    import io
    from contextlib import redirect_stdout

    for name in (
        "illusionist_coins",
        "wizard_simpson",
        "pr_box",
        "bernstein_xor",
        "entangled_rank1",
        "product_quantal",
    ):
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert main(["corpus", "emit", name]) == 0
        (root / f"{name}.json").write_text(buf.getvalue())
    return root


# -- validate ---------------------------------------------------------------


class TestValidate:
    def test_stochastic(self, capsys, model_dir):
        code, out, _ = run(capsys, "validate", str(model_dir / "illusionist_coins.json"))
        assert code == 0
        assert "valid stochastic model: 3 sites, 8 histories" in out

    def test_quantal(self, capsys, model_dir):
        code, out, _ = run(capsys, "validate", str(model_dir / "entangled_rank1.json"))
        assert code == 0
        assert "valid quantal model" in out
        assert "quantal-axioms: holds" in out

    def test_json_shape(self, capsys, model_dir):
        code, out, _ = run(
            capsys,
            "validate",
            str(model_dir / "illusionist_coins.json"),
            "--format",
            "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["model"] == {"kind": "stochastic", "sites": 3, "histories": 8}
        assert isinstance(data["runtime_ms"], int)

    def test_invalid_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert "model file error" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "validate", str(tmp_path / "none.json"))
        assert code == 2
        assert "model file error" in err


# -- check ------------------------------------------------------------------


class TestCheck:
    def test_holds_exits_zero(self, capsys, model_dir):
        code, out, _ = run(
            capsys, "check", "so1", str(model_dir / "illusionist_coins.json")
        )
        assert code == 0
        assert out.startswith("so1: holds")

    def test_violated_exits_one(self, capsys, model_dir):
        code, out, _ = run(
            capsys, "check", "so1", str(model_dir / "wizard_simpson.json")
        )
        assert code == 1
        assert "so1: violated" in out
        assert "sel=0" in out

    def test_vacuous_exits_zero(self, capsys, model_dir):
        # anticorrelated events are not positively correlated
        code, out, _ = run(
            capsys,
            "check",
            "pcc-original",
            str(model_dir / "illusionist_coins.json"),
            "--a",
            "A",
            "--b",
            "B",
        )
        assert code == 0
        assert "pcc-original: vacuous" in out

    def test_named_and_literal_events_mix(self, capsys, model_dir):
        code, out, _ = run(
            capsys,
            "check",
            "pcc-rev1",
            str(model_dir / "illusionist_coins.json"),
            "--a",
            "A",
            "--b",
            "b_s=0",
        )
        assert code == 0
        assert "pcc-rev1: holds" in out

    def test_pair_condition_needs_events(self, capsys, model_dir):
        code, _, err = run(
            capsys, "check", "pcc-rev2", str(model_dir / "illusionist_coins.json")
        )
        assert code == 2
        assert "--a and --b" in err

    def test_non_pair_condition_rejects_events(self, capsys, model_dir):
        code, _, err = run(
            capsys,
            "check",
            "so1",
            str(model_dir / "illusionist_coins.json"),
            "--a",
            "zzz=0",
            "--b",
            "B",
        )
        assert code == 2
        assert "does not take --a/--b" in err

    def test_unknown_named_event(self, capsys, model_dir):
        code, _, err = run(
            capsys,
            "check",
            "pcc-rev1",
            str(model_dir / "illusionist_coins.json"),
            "--a",
            "NOPE",
            "--b",
            "B",
        )
        assert code == 2
        assert "not a named event" in err
        assert "A, B, C" in err

    def test_bad_expression(self, capsys, model_dir):
        code, _, err = run(
            capsys,
            "check",
            "pcc-rev1",
            str(model_dir / "illusionist_coins.json"),
            "--a",
            "a_s=9",
            "--b",
            "B",
        )
        assert code == 2

    def test_multi_so(self, capsys, model_dir):
        code, out, _ = run(
            capsys,
            "check",
            "multi-so",
            str(model_dir / "bernstein_xor.json"),
            "--n",
            "3",
        )
        assert code == 1
        assert "multi-so[n=3]: violated" in out

    def test_multi_so_bad_arity(self, capsys, model_dir):
        code, _, err = run(
            capsys,
            "check",
            "multi-so",
            str(model_dir / "bernstein_xor.json"),
            "--n",
            "1",
        )
        assert code == 2
        assert "n >= 2" in err

    def test_gen_so_selector(self, capsys, model_dir):
        code, out, _ = run(
            capsys,
            "check",
            "gen-so",
            str(model_dir / "pr_box.json"),
            "--selector",
            "joint",
        )
        assert code == 1
        assert "gen-so[joint]: violated" in out

    def test_quantal_conditions(self, capsys, model_dir):
        code, out, _ = run(
            capsys, "check", "qso1", str(model_dir / "entangled_rank1.json")
        )
        assert code == 1
        code, out, _ = run(
            capsys, "check", "qso2", str(model_dir / "product_quantal.json")
        )
        assert code == 0

    def test_kind_mismatch(self, capsys, model_dir):
        code, _, err = run(
            capsys, "check", "qso1", str(model_dir / "illusionist_coins.json")
        )
        assert code == 2
        assert "needs a quantal model" in err
        code, _, err = run(
            capsys, "check", "so1", str(model_dir / "entangled_rank1.json")
        )
        assert code == 2
        assert "needs a stochastic model" in err

    def test_rev2_partition_cap(self, capsys, model_dir):
        code, out, _ = run(
            capsys,
            "check",
            "pcc-rev2",
            str(model_dir / "illusionist_coins.json"),
            "--a",
            "A",
            "--b",
            "B",
            "--max-partition",
            "1",
        )
        assert code == 1
        assert "pcc-rev2: violated" in out

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_rev2_partition_cap_below_one_is_a_usage_error(self, capsys, model_dir, cap):
        code, out, err = run(
            capsys,
            "check",
            "pcc-rev2",
            str(model_dir / "illusionist_coins.json"),
            "--a",
            "A",
            "--b",
            "B",
            "--max-partition",
            cap,
        )
        assert code == 2
        assert out == ""
        assert err == f"check error: max_partition_size must be at least 1, not {cap}\n"

    def test_wrc_capacity_limit_is_a_usage_error(self, capsys, tmp_path):
        from screenoff.corpus import random_deterministic_local
        from screenoff.modelfile import render_model_json

        path = tmp_path / "detlocal.json"
        path.write_text(render_model_json(random_deterministic_local(3, n_sites=8)))
        code, out, err = run(capsys, "check", "wrc-cond", str(path))
        assert code == 2
        assert out == ""
        assert err == (
            "capacity error: common-correlate search needs 2^32 candidate events "
            "for the mutual past of (('t5',), ('t6',)); the limit is 2^12 "
            "(12 mutual-past cells)\n"
        )
        # plain wrc has no such limit: it tests each of the 32 cells once
        code, out, err = run(capsys, "check", "wrc", str(path))
        assert (code, err) == (0, "")
        assert out.startswith("wrc: holds\n")

    def test_json_stability_modulo_runtime(self, capsys, model_dir):
        path = str(model_dir / "wizard_simpson.json")
        _, out1, _ = run(capsys, "check", "so1", path, "--format", "json")
        _, out2, _ = run(capsys, "--format", "json", "check", "so1", path)
        d1, d2 = json.loads(out1), json.loads(out2)
        d1.pop("runtime_ms")
        d2.pop("runtime_ms")
        assert d1 == d2
        assert d1["verdict"] == "violated"
        assert d1["counterexample"]["events"]["C"]["expr"] == "sel=0"


# -- find -------------------------------------------------------------------


class TestFind:
    def test_screening_counts(self, capsys, model_dir):
        code, out, _ = run(
            capsys,
            "find",
            "screening",
            str(model_dir / "illusionist_coins.json"),
            "--a",
            "A",
            "--b",
            "B",
            "--format",
            "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["op"] == "find-screening"
        assert data["count"] == 128
        assert data["events"][0]["mask"] == "0x2"

    def test_simpson_includes_the_selector(self, capsys, model_dir):
        code, out, _ = run(
            capsys,
            "find",
            "simpson",
            str(model_dir / "wizard_simpson.json"),
            "--a",
            "A",
            "--b",
            "B",
        )
        assert code == 0
        assert "0xf\n" in out

    def test_precondition_failure_is_an_input_error(self, capsys, model_dir):
        # screening events are sought for correlated pairs; the wizard pair
        # is marginally independent
        code, _, err = run(
            capsys,
            "find",
            "screening",
            str(model_dir / "wizard_simpson.json"),
            "--a",
            "A",
            "--b",
            "B",
        )
        assert code == 2
        assert "precondition error" in err

    def test_find_needs_stochastic(self, capsys, model_dir):
        code, _, err = run(
            capsys,
            "find",
            "screening",
            str(model_dir / "entangled_rank1.json"),
            "--a",
            "s1=0",
            "--b",
            "s2=0",
        )
        assert code == 2
        assert "stochastic" in err


# -- fuzz -------------------------------------------------------------------


class TestFuzz:
    def test_agreement_run(self, capsys):
        code, out, _ = run(
            capsys, "fuzz", "--pair", "so1-so2", "--seed", "7", "--count", "50"
        )
        assert code == 0
        assert "50/50 agree" in out

    def test_jobs_beyond_cpu_count_is_usage_error(self, capsys):
        limit = os.cpu_count() or 1
        for jobs in (0, limit + 1):
            code, out, err = run(
                capsys, "fuzz", "--pair", "so1-so2", "--seed", "1", "--count", "5",
                "--jobs", str(jobs),
            )
            assert code == 2
            assert out == ""
            assert f"jobs must be between 1 and {limit}" in err

    def test_json_jobs_stability(self, capsys):
        args = ["fuzz", "--pair", "so1-so2", "--seed", "3", "--count", "30",
                "--format", "json"]
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args, "--jobs", "2")
        d1, d2 = json.loads(out1), json.loads(out2)
        d1.pop("runtime_ms")
        d2.pop("runtime_ms")
        assert d1 == d2
        assert d1["stats"]["agreements"] == 30

    def test_bad_pair_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "fuzz", "--pair", "so1-so9", "--seed", "1", "--count", "1"
        )
        assert code == 2


# -- corpus -----------------------------------------------------------------


class TestCorpus:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "corpus", "list")
        assert code == 0
        assert "wizard_simpson (stochastic): " in out
        assert "entangled_rank1 (quantal): " in out
        assert len(out.strip().splitlines()) == 16

    def test_list_json(self, capsys):
        code, out, _ = run(capsys, "corpus", "list", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert len(data["entries"]) == 16
        byname = {e["name"]: e for e in data["entries"]}
        assert byname["pr_box"]["expected"]["so1"] == "violated"

    def test_emit_parses_back(self, capsys, tmp_path):
        code, out, _ = run(capsys, "corpus", "emit", "three_pair_coins")
        assert code == 0
        from screenoff.modelfile import parse_model_text

        loaded = parse_model_text(out)
        assert loaded.named_events["A"] == "a=0"

    def test_emit_unknown(self, capsys):
        code, _, err = run(capsys, "corpus", "emit", "nope")
        assert code == 2
        assert "unknown model" in err

    def test_emit_without_name(self, capsys):
        code, _, err = run(capsys, "corpus", "emit")
        assert code == 2

    def test_verify(self, capsys):
        code, out, _ = run(capsys, "corpus", "verify")
        assert code == 0
        assert "corpus-verify: holds" in out

    def test_verify_checks_jobs(self, capsys):
        # --jobs is a global flag; every subcommand refuses a bad value
        # before it starts, although only fuzz starts workers
        limit = os.cpu_count() or 1
        jobs = max(1000, limit + 1)
        code, out, err = run(capsys, "corpus", "verify", "--jobs", str(jobs))
        assert code == 2
        assert out == ""
        assert f"jobs must be between 1 and {limit} (the CPU count), not {jobs}" in err
        code, out, _ = run(capsys, "corpus", "verify", "--jobs", "1")
        assert code == 0
        assert "corpus-verify: holds" in out


# -- start-up and admission ------------------------------------------------


class TestStartup:
    def test_import_leaves_multiprocessing_unloaded(self):
        # only fuzz --jobs > 1 starts workers, so only it imports the package
        src = str(Path(screenoff.__file__).resolve().parent.parent)
        probe = "import sys, screenoff.cli; print('multiprocessing' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout.strip() == "False"

    def test_closed_stdout_is_an_output_error(self):
        # the reader is gone before the report is written, as with a `head`
        # that has already exited: one line on stderr and exit 2, the code of
        # bad input, rather than a traceback and exit 1 ("violated")
        src = str(Path(screenoff.__file__).resolve().parent.parent)
        proc = subprocess.Popen(
            [sys.executable, "-m", "screenoff.cli", "corpus", "verify", "--format", "json"],
            env={**os.environ, "PYTHONPATH": src},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 2
        assert err.startswith("output error: ")
        assert "Broken pipe" in err
        assert err.count("\n") == 1

    def test_oversized_history_space_is_refused(self, capsys, tmp_path, monkeypatch):
        # 30 binary sites: 2^30 histories, refused before any is allocated
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({
            "format_version": 1,
            "sites": [{"id": f"s{i}", "alphabet": 2} for i in range(30)],
            "measure": {"type": "stochastic", "weights": {"0" * 30: "1"}},
        }))
        monkeypatch.setattr(events, "_Space", None)
        code, out, err = run(capsys, "check", "so1", str(path))
        assert code == 2
        assert out == ""
        assert err == (
            "capacity error: the site has 1073741824 histories (the product of "
            "its alphabet sizes); the limit is 65536\n"
        )

    def test_exhaustive_search_over_the_cap_is_refused(self, capsys, tmp_path, monkeypatch):
        # 5 binary sites: 32 histories, more than an exhaustive search may
        # cover, so a limit that would allow one is refused before it starts
        path = tmp_path / "five.json"
        path.write_text(json.dumps({
            "format_version": 1,
            "sites": [{"id": f"s{i}", "alphabet": 2} for i in range(5)],
            "measure": {"type": "stochastic", "weights": {"00000": "1/2", "11000": "1/2"}},
        }))
        monkeypatch.setattr(stochastic, "_gray_event_sums", None)
        # s0 and s1 are correlated, s0 and s2 are not
        for argv in (["check", "pcc-original", str(path), "--b", "s1=0"],
                     ["find", "simpson", str(path), "--b", "s2=0"]):
            code, out, err = run(capsys, *argv, "--a", "s0=0", "--max-omega-exhaustive", "64")
            assert code == 2
            assert out == ""
            assert err.startswith("capacity error: an exhaustive event search over 32 histories")

    def test_fuzz_count_over_the_limit_is_refused(self, capsys, monkeypatch):
        monkeypatch.setattr(corpus_mod, "_fuzz_one", None)
        code, out, err = run(capsys, "fuzz", "--pair", "so1-so2", "--seed", "0",
                             "--count", str(10**9))
        assert code == 2
        assert out == ""
        assert err.startswith("capacity error: fuzz count 1000000000 is over the limit")


# -- argument handling ------------------------------------------------------


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_unknown_condition(self, capsys):
        assert main(["check", "so9", "x.json"]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["corpus", "list", "--frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "validate" in out and "fuzz" in out
