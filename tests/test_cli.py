"""Command-line behavior: subcommands, exit codes, output stability."""
from __future__ import annotations

import importlib.util
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import screenoff
import screenoff.conditions as conditions
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

    @pytest.mark.parametrize("edit, detail", [
        (lambda text: text.replace('"a_s=0"', json.dumps("(" * 3000 + "a_s=0" + ")" * 3000)),
         "named_events['A']: expression error: nested more than 100 deep (at position 100)"),
        (lambda text: "[" * 100000 + "]" * 100000, "invalid JSON: nested too deeply"),
        (lambda text: text.replace('"1/2"', '"1/' + "4" * 5000 + '"', 1),
         "measure.weights['001']: a number of more than 4300 digits"),
        (lambda text: text.replace('"alphabet": 2', '"alphabet": ' + "2" * 5000, 1),
         "invalid JSON: an integer of more than 4300 digits"),
    ], ids=["nested-event", "nested-json", "long-weight", "long-alphabet"])
    def test_a_nested_or_oversized_file_is_a_model_file_error(self, capsys, model_dir, tmp_path, edit, detail):
        text = (model_dir / "illusionist_coins.json").read_text()
        bad = tmp_path / "bad.json"
        bad.write_text(edit(text))
        assert bad.read_text() != text
        code, out, err = run(capsys, "validate", str(bad))
        assert (code, out, err) == (2, "", f"model file error: {bad}: {detail}\n")


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

    @pytest.mark.parametrize("text, message", [
        ("Aé", "expression error: unexpected character 'é' (at position 1)"),
        ("A\n", "expression error: unexpected end of expression (at position 2)"),
    ])
    def test_a_name_no_model_file_can_define_is_an_expression(self, capsys, model_dir, text, message):
        # a model file refuses such a name, so no file defines it: the
        # argument is read as an expression, not as an unknown named event
        code, out, err = run(
            capsys, "check", "pcc-rev1", str(model_dir / "illusionist_coins.json"), "--a", text, "--b", "B"
        )
        assert (code, out, err) == (2, "", message + "\n")

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

    @pytest.mark.parametrize("text, detail", [
        ("!" * 5000 + "a_s=0", "nested more than 100 deep (at position 100)"),
        ("a_s=" + "9" * 5000, f"value {'9' * 5000} out of range for 'a_s' (alphabet 2) (at position 4)"),
    ], ids=["nested", "long-value"])
    def test_a_nested_or_oversized_expression_is_an_expression_error(self, capsys, model_dir, text, detail):
        code, out, err = run(
            capsys, "check", "pcc-rev1", str(model_dir / "illusionist_coins.json"), "--a", text, "--b", "B"
        )
        assert (code, out, err) == (2, "", f"expression error: {detail}\n")

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

    @pytest.mark.parametrize("n", ["1", "0", "-3"])
    def test_multi_so_arity_is_a_check_error(self, capsys, model_dir, n):
        code, out, err = run(
            capsys, "check", "multi-so", str(model_dir / "bernstein_xor.json"), "--n", n
        )
        assert (code, out) == (2, "")
        assert err == f"check error: multi-so needs n >= 2, not {n}\n"

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

    @pytest.mark.parametrize("command", [["check", "pcc-original"], ["check", "pcc-rev1"],
                                         ["find", "screening"], ["find", "simpson"]])
    def test_negative_exhaustive_limit_is_a_check_error(self, capsys, model_dir, command):
        # a negative limit used to switch silently to the past-region-cell search
        code, out, err = run(
            capsys, *command, str(model_dir / "illusionist_coins.json"),
            "--a", "A", "--b", "B", "--max-omega-exhaustive", "-5",
        )
        assert (code, out) == (2, "")
        assert err == "check error: exhaustive_limit must be at least 0, not -5\n"

    @pytest.mark.parametrize("argv", [["corpus", "verify"], ["validate", "{models}/wizard_simpson.json"],
                                      ["check", "so1", "{models}/wizard_simpson.json"]])
    def test_negative_exhaustive_limit_is_refused_before_any_subcommand_runs(self, capsys, model_dir, argv):
        # a limit no condition reads was ignored: corpus verify and so1 exited 0
        argv = [arg.format(models=model_dir) for arg in argv]
        for flags in (["--max-omega-exhaustive", "-5", *argv], [*argv, "--max-omega-exhaustive", "-5"]):
            assert run(capsys, *flags) == (2, "", "check error: exhaustive_limit must be at least 0, not -5\n")

    @pytest.mark.parametrize("cond, flag, value, takers", [
        ("so1", "--selector", "all", "gen-so"),
        ("gen-so", "--n", "2", "multi-so"),
        ("multi-so", "--selector", "mutual", "gen-so"),
        ("so2", "--max-partition", "2", "pcc-rev2"),
        ("wrc", "--n", "3", "multi-so"),
    ])
    def test_an_option_the_condition_does_not_read_is_refused(self, capsys, model_dir, cond, flag, value, takers):
        # so1 with --selector all ran plain so1 and exited 1 without a word
        code, out, err = run(capsys, "check", cond, str(model_dir / "wizard_simpson.json"), flag, value)
        assert (code, out) == (2, "")
        assert err == f"cli error: condition {cond!r} does not take {flag}; it applies to: {takers}\n"

    @pytest.mark.parametrize("cond", ["so1", "qso1", "pcc-rev2"])
    def test_an_exhaustive_limit_the_condition_does_not_read_is_refused(self, capsys, model_dir, cond):
        # a global flag: check so1 FILE --max-omega-exhaustive 5 ran plain so1
        path = str(model_dir / ("entangled_rank1.json" if cond == "qso1" else "illusionist_coins.json"))
        argv = ["check", cond, path, *(["--a", "A", "--b", "B"] if cond == "pcc-rev2" else [])]
        want = (2, "", f"cli error: condition {cond!r} does not take --max-omega-exhaustive; "
                       "it applies to: pcc-original, pcc-rev1\n")
        for flags in (["--max-omega-exhaustive", "5", *argv], [*argv, "--max-omega-exhaustive", "5"]):
            assert run(capsys, *flags) == want

    def test_an_exhaustive_limit_is_read_in_either_position(self, capsys, model_dir):
        argv = ["check", "pcc-rev1", str(model_dir / "illusionist_coins.json"), "--a", "A", "--b", "B", "--format", "json"]
        modes = set()
        for flags in (["--max-omega-exhaustive", "0", *argv], [*argv, "--max-omega-exhaustive", "0"], argv):
            code, out, err = run(capsys, *flags)
            assert (code, err) == (0, "")
            modes.add(json.loads(out)["stats"]["mode"])
        assert modes == {"past-region-cells", "exhaustive"}  # unset, the limit is 20

    @pytest.mark.parametrize("fmt", ["human", "json"])
    def test_a_counterexample_build_error_keeps_its_exit_code(self, capsys, model_dir, monkeypatch, fmt):
        # the counterexample is built when the report is rendered; a failure
        # there prints no partial report, as a failure inside the check does
        def fail(*args):
            raise screenoff.InternalCheckError("internal error: counterexample build failed")

        argv = ["check", "so1", str(model_dir / "wizard_simpson.json"), "--format", fmt]
        want = (3, "", "internal error: counterexample build failed\n")
        with monkeypatch.context() as patch:
            patch.setattr(stochastic, "_conditional_counterexample", fail)
            assert run(capsys, *argv) == want
        with monkeypatch.context() as patch:
            patch.setattr(conditions, "check_so1", fail)
            assert run(capsys, *argv) == want

    def test_unset_options_take_their_defaults(self, capsys, model_dir):
        # --n and --selector default to None on the command line, and the
        # condition table applies 3 and mutual
        path = str(model_dir / "bernstein_xor.json")
        for cond, flags, token in (("multi-so", ["--n", "3"], "multi-so[n=3]"),
                                   ("gen-so", ["--selector", "mutual"], "gen-so[mutual]")):
            code, out, err = run(capsys, "check", cond, path)
            assert (code, out, err) == run(capsys, "check", cond, path, *flags)
            assert out.startswith(f"{token}: violated\n") and code == 1

    def test_exhaustive_limit_zero_restricts_the_search(self, capsys, model_dir):
        code, out, err = run(
            capsys, "check", "pcc-rev1", str(model_dir / "illusionist_coins.json"),
            "--a", "A", "--b", "B", "--max-omega-exhaustive", "0", "--format", "json",
        )
        assert err == ""
        assert json.loads(out)["stats"]["mode"] == "past-region-cells"

    def test_wrc_capacity_limit_is_a_usage_error(self, capsys, tmp_path):
        from screenoff.corpus import random_deterministic_local
        from screenoff.modelfile import render_model_json

        path = tmp_path / "detlocal.json"
        path.write_text(render_model_json(random_deterministic_local(3, n_sites=8)))
        code, out, err = run(capsys, "check", "wrc-cond", str(path))
        assert code == 2
        assert out == ""
        assert err == (
            "capacity error: wrc-cond needs 2^32 conditioning events "
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

    @settings(max_examples=5, derandomize=True, deadline=None)
    @given(
        pair=st.sampled_from(sorted(corpus_mod.FUZZ_PAIRS)),
        seed=st.integers(0, 10**6),
        count=st.integers(1, 12),
    )
    def test_json_is_byte_identical_for_every_jobs_value(self, pair, seed, count):
        # the report, bar its runtime_ms line, is the same bytes whatever the
        # worker count, up to the CPU count
        outputs = set()
        for jobs in range(1, (os.cpu_count() or 1) + 1):
            out = io.StringIO()
            with redirect_stdout(out):
                code = main(["fuzz", "--pair", pair, "--seed", str(seed), "--count", str(count),
                             "--format", "json", "--jobs", str(jobs)])
            assert code in (0, 1)
            lines = out.getvalue().splitlines(keepends=True)
            outputs.add("".join(line for line in lines if '"runtime_ms"' not in line))
        assert len(outputs) == 1

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


def loaded_after(code: str) -> set[str]:
    """The modules a fresh interpreter has loaded once it has run ``code``.

    ``code`` may print; the module list is the last line of its output.  The
    interpreter runs without ``site`` (``-S``), because a ``.pth`` file that
    ``site`` runs may import a module, such as ``random``, before the package does.
    """
    src = str(Path(screenoff.__file__).resolve().parent.parent)
    probe = f"import sys\n{code}\nloaded = sorted(sys.modules)\nimport json\nprint(json.dumps(loaded))"
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


class TestStartup:
    def test_import_leaves_multiprocessing_unloaded(self):
        # only fuzz --jobs > 1 starts workers, so only it imports the package;
        # the corpus (with its random generators) and the quantal engine are
        # imported by the commands that run them
        loaded = loaded_after("import screenoff.cli")
        assert "screenoff.cli" in loaded
        assert {"screenoff.corpus", "screenoff.quantal", "random", "multiprocessing"}.isdisjoint(loaded)

    def test_a_check_imports_only_the_engine_of_its_model_kind(self, model_dir):
        run_check = "from screenoff.cli import main\nassert main(['check', {!r}, {!r}]) == {}"
        loaded = loaded_after(run_check.format("so1", str(model_dir / "wizard_simpson.json"), 1))
        assert "screenoff.stochastic" in loaded and "screenoff.quantal" not in loaded
        loaded = loaded_after(run_check.format("qso1", str(model_dir / "product_quantal.json"), 0))
        assert "screenoff.quantal" in loaded and "screenoff.corpus" not in loaded

    def test_the_first_read_of_a_name_loads_the_whole_api(self):
        # dir() lists the API before any of it is loaded; the first read loads
        # every module an in-process user such as perfbench's tracer patches
        src = Path(screenoff.__file__).resolve().parent.parent
        spec = importlib.util.spec_from_file_location("tracer", src.parent / "perfbench" / "tracer.py")
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        traced = {row[1] for rows in (tracer.SPANS, tracer.METHOD_SPANS, tracer.CACHES) for row in rows}
        traced |= {module for module, _ in tracer.CHECKS}
        before = loaded_after("import screenoff.cli, screenoff\nassert set(screenoff.__all__) <= set(dir(screenoff))")
        assert not {"screenoff.corpus", "screenoff.quantal"} & before
        after = loaded_after("import screenoff.cli, screenoff\nscreenoff.CausalSite")
        assert traced - before and traced <= after
        assert screenoff.check_qso1 is screenoff.quantal.check_qso1
        assert screenoff.verify_corpus is screenoff.corpus.verify_corpus

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
        monkeypatch.setattr(events, "_block", None)
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

    @pytest.mark.parametrize("argv, message", [
        # model seed 0 draws 16 binary sites: a 65,536 x 65,536 matrix
        (["--pair", "qso1-qso2", "--sites", "16"],
         "a random quantal model on 65536 histories needs a 65536 x 65536 matrix "
         "(4294967296 entries); the limit is 1048576 entries"),
        (["--pair", "qso1-qso2", "--rank", str(10**9)],
         "a random quantal model on 8 histories needs 517494936 witness vectors "
         "(4139959488 entries); the limit is 1048576 entries"),
        # model seed 0 draws 379,514 sites, refused before their relations are drawn
        (["--pair", "so1-so2", "--sites", str(10**6)],
         "379514 sites of at least 2 values each have at least 2^379514 histories; "
         "the limit is 65536"),
    ])
    def test_fuzz_shapes_over_the_generator_bounds_are_refused(self, capsys, monkeypatch, argv, message):
        # reaching a stochastic model's draws or a quantal model's witness fails the test
        def unreachable(*args):
            raise AssertionError("a generator allocated past its bound")

        draw = corpus_mod._rng
        monkeypatch.setattr(corpus_mod, "_rng", lambda *key: SimpleNamespace(randrange=unreachable, random=unreachable)
                            if key[0] == "stochastic" else draw(*key))
        monkeypatch.setattr(corpus_mod, "_witness_terms", unreachable)
        started = time.perf_counter()
        code, out, err = run(capsys, "fuzz", *argv, "--seed", "0", "--count", "1")
        assert time.perf_counter() - started < 1
        assert (code, out, err) == (2, "", f"capacity error: {message}\n")


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

    @pytest.mark.parametrize("argv, message", [
        # each ran as if the argument were absent and exited 0
        (["corpus", "list", "pr_box"], "corpus list does not take a model name ('pr_box'); it applies to: corpus emit"),
        (["corpus", "verify", "pr_box"],
         "corpus verify does not take a model name ('pr_box'); it applies to: corpus emit"),
        *(([*argv, "--max-omega-exhaustive", "5"],
           f"{argv[0]} does not take --max-omega-exhaustive; "
           "it applies to: check pcc-original, check pcc-rev1, find")
          for argv in (["validate", "{models}/wizard_simpson.json"], ["corpus", "verify"], ["corpus", "list"],
                       ["fuzz", "--pair", "so1-so2", "--seed", "0", "--count", "1"])),
        *((["fuzz", "--pair", pair, "--seed", "0", "--count", "1", "--rank", rank],
           f"fuzz pair {pair!r} does not take --rank; it applies to: qso1-qso2")
          for pair in ("so1-so2", "so1-wrc_conditioned", "so1-generalized_all") for rank in ("0", "3")),
    ])
    def test_an_argument_the_subcommand_does_not_read_is_refused(self, capsys, model_dir, argv, message):
        argv = [arg.format(models=model_dir) for arg in argv]
        assert run(capsys, *argv) == (2, "", f"cli error: {message}\n")
        if "--max-omega-exhaustive" in argv:  # the global flag is refused before the subcommand too
            flags = ["--max-omega-exhaustive", "5", *argv[:-2]]
            assert run(capsys, *flags) == (2, "", f"cli error: {message}\n")

    def test_a_quantal_fuzz_pair_reads_its_rank(self, capsys):
        argv = ["fuzz", "--pair", "qso1-qso2", "--seed", "0", "--count", "2", "--format", "json"]
        code, out, _ = run(capsys, *argv)
        code_3, out_3, _ = run(capsys, *argv, "--rank", "3")
        assert (code, json.loads(out)["stats"]) == (code_3, json.loads(out_3)["stats"])
        assert run(capsys, *argv, "--rank", "0") == (2, "", "corpus error: rank must be at least 1\n")
