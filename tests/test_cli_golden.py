"""Golden CLI outputs: every byte each subcommand prints.

``tests/data/cli_golden.json`` maps each invocation (its argv, with model files
named as ``{models}/<corpus name>.json``) to the exit code and the sha256 of
its stdout and stderr.  The invocations run every condition on every corpus
model of its kind, ``find`` and ``validate`` on the corpus files, ``corpus
emit``, ``list`` and ``verify``, every fuzz pair, and a row for each refused
input.  The ``"runtime_ms"`` line of JSON output is dropped
before hashing; nothing else is.  On a mismatch the test prints the actual
output.  Regenerate the file only when an output change is intended:

    PYTHONPATH=src python tests/test_cli_golden.py
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from screenoff import conditions, corpus
from screenoff.cli import _build_parser, main
from screenoff.quantal import QuantalModel

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
_RUNTIME_LINE = re.compile(r'^\s*"runtime_ms": \d+,?\n', re.MULTILINE)

_STOCHASTIC_CONDS = (
    ["so1"], ["so2"], ["so2w"], ["wrc"], ["wrc-cond"], ["penrose-percival"],
    *(["gen-so", "--selector", s] for s in ("mutual", "joint", "bell", "all")),
    ["multi-so", "--n", "2"], ["multi-so", "--n", "3"],
)
_QUANTAL_CONDS = (["qso1"], ["qso2"], ["diag-reduce"])
_PCC_CONDS = (["pcc-original"], ["pcc-rev1"], ["pcc-rev2"])


def invocations() -> list[list[str]]:
    """Every recorded argv; ``{models}`` stands for the model directory."""
    out: list[list[str]] = []
    for entry in corpus.corpus_entries():
        path = f"{{models}}/{entry.name}.json"
        quantal = isinstance(entry.model, QuantalModel)
        conds = list(_QUANTAL_CONDS if quantal else _STOCHASTIC_CONDS)
        names_pair = not quantal and {"A", "B"} <= set(entry.named_events)
        if names_pair:
            conds += [[c[0], "--a", "A", "--b", "B"] for c in _PCC_CONDS]
        for cond in conds:
            for fmt in ("json", "human"):
                out.append(["check", cond[0], path, *cond[1:], "--format", fmt])
        for fmt in ("json", "human"):
            if names_pair:
                out += [["find", what, path, "--a", "A", "--b", "B", "--format", fmt]
                        for what in ("screening", "simpson")]
            out.append(["validate", path, "--format", fmt])
        out.append(["corpus", "emit", entry.name])
    stochastic, quantal = "{models}/pr_box.json", "{models}/pr_box_diag.json"
    out += [
        # the model kind does not fit the condition
        ["check", "so1", quantal],
        ["check", "multi-so", quantal, "--format", "json"],
        ["check", "pcc-rev1", quantal, "--a", "A", "--b", "B"],
        ["check", "qso1", stochastic],
        ["check", "diag-reduce", stochastic, "--format", "json"],
        # events missing, or given to a condition that takes none
        ["check", "pcc-original", stochastic],
        ["check", "pcc-rev2", stochastic, "--a", "A"],
        ["check", "pcc-original", "{models}/bernstein_xor.json", "--a", "A1", "--b", "A2"],
        ["check", "so1", stochastic, "--a", "A"],
        ["check", "gen-so", stochastic, "--b", "B"],
        ["check", "qso2", quantal, "--a", "A", "--b", "B"],
        ["check", "pcc-original", stochastic, "--a", "C", "--b", "B"],
        # values the parser or a check refuses
        ["check", "so3", stochastic],
        ["check", "gen-so", stochastic, "--selector", "nearest"],
        ["check", "multi-so", stochastic, "--n", "1"],
        ["find", "screening", quantal, "--a", "A", "--b", "B"],
        *([*cmd, "{models}/three_pair_coins.json", "--a", "A", "--b", "B", "--max-omega-exhaustive", "-5"]
          for cmd in (["check", "pcc-original"], ["check", "pcc-rev1"],
                      ["find", "screening"], ["find", "simpson"])),
        ["fuzz", "--pair", "so1-so3", "--seed", "0", "--count", "3"],
        ["fuzz", "--pair", "so1-so2", "--seed", "0", "--count", "0"],
        ["corpus", "verify", "--format", "json"],
        ["corpus", "verify"],
        ["corpus", "list", "--format", "json"],
        ["corpus", "list"],
    ]
    for pair in corpus.FUZZ_PAIRS:
        for fmt in ("json", "human"):
            out.append(["fuzz", "--pair", pair, "--seed", "3", "--count", "12", "--format", fmt])
        out.append(["fuzz", "--pair", pair, "--seed", "40", "--count", "6", "--sites", "4",
                    "--alphabet", "3", "--format", "json"])
    return out


def write_models(root: Path) -> None:
    for name in corpus.corpus_names():
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert main(["corpus", "emit", name]) == 0
        (root / f"{name}.json").write_text(buf.getvalue())


def record(argv: list[str], models: Path) -> tuple[dict, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([a.replace("{models}", str(models)) for a in argv])
    stdout = _RUNTIME_LINE.sub("", out.getvalue())
    stderr = err.getvalue()
    digest = {
        "exit": code,
        "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
        "stderr_sha256": hashlib.sha256(stderr.encode()).hexdigest(),
    }
    return digest, stdout, stderr


@pytest.fixture(scope="module")
def models(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("golden-models")
    write_models(root)
    return root


_GOLDEN = {" ".join(r["argv"]): r for r in json.loads(GOLDEN.read_text())} if GOLDEN.exists() else {}


def test_golden_file_covers_every_invocation():
    assert sorted(_GOLDEN) == sorted(" ".join(argv) for argv in invocations())


def test_invocations_cover_every_condition_fuzz_pair_and_subcommand():
    argvs = invocations()
    (commands,) = (a.choices for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
    assert set(commands) == {argv[0] for argv in argvs}
    assert set(conditions.CONDITIONS) <= {argv[1] for argv in argvs if argv[0] == "check"}
    assert set(conditions.FUZZ_PAIRS) <= {argv[2] for argv in argvs if argv[:2] == ["fuzz", "--pair"]}


@pytest.mark.parametrize("key", sorted(_GOLDEN))
def test_output_matches_golden(key, models):
    want = _GOLDEN[key]
    got, stdout, stderr = record(want["argv"], models)
    assert got == {k: want[k] for k in got}, (
        f"{key}\n--- exit {got['exit']}, stdout:\n{stdout}\n--- stderr:\n{stderr}"
    )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_models(Path(tmp))
        rows = [{"argv": argv, **record(argv, Path(tmp))[0]} for argv in invocations()]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
    print(f"wrote {len(rows)} records to {GOLDEN}", file=sys.stderr)
