"""Command-line front end.

Subcommands: ``validate``, ``check``, ``find``, ``fuzz``, and ``corpus``.
Exit codes: 0 the condition holds (or the task succeeded), 1 it is violated,
2 the input or usage was bad, 3 an internal invariant failed.  All output is
deterministic for identical inputs, whatever ``--jobs`` says; JSON output
differs only in ``runtime_ms``.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
import time
from typing import Sequence

from . import corpus as corpus_mod
from .events import event_ref
from .exprs import parse_event
from .modelfile import LoadedModel, load_model, render_model_json
from .quantal import (
    QuantalModel,
    check_qso1,
    check_qso2,
    diagonal_reduction,
    validate_quantal,
)
from .report import HOLDS, VIOLATED, CheckReport, InternalCheckError
from .stochastic import (
    EXHAUSTIVE_EVENT_LIMIT,
    StochasticModel,
    check_generalized_so,
    check_multi_so,
    check_pcc_original,
    check_pcc_rev1,
    check_pcc_rev2,
    check_penrose_percival,
    check_so1,
    check_so2,
    check_so2w,
    check_wrc,
    find_screening_events,
    find_simpson_events,
)

CHECK_CONDITIONS = (
    "pcc-original",
    "pcc-rev1",
    "pcc-rev2",
    "so1",
    "so2",
    "so2w",
    "gen-so",
    "multi-so",
    "wrc",
    "wrc-cond",
    "penrose-percival",
    "qso1",
    "qso2",
    "diag-reduce",
)
_PAIR_CONDITIONS = frozenset({"pcc-original", "pcc-rev1", "pcc-rev2"})
_QUANTAL_CONDITIONS = frozenset({"qso1", "qso2", "diag-reduce"})
_IDENT_RE = re.compile(r"^[A-Za-z_]\w*$")


class CliError(ValueError):
    """Raised for bad command-line input not caught by argparse."""


# -- rendering --------------------------------------------------------------


def _human_report(report: CheckReport) -> str:
    lines = [f"{report.condition}: {report.verdict}"]
    if report.reason:
        lines.append(f"  reason: {report.reason}")
    cx = report.counterexample
    if cx is not None:
        lines.append("  counterexample:")
        if cx.regions:
            parts = [
                f"{name} = {{{', '.join(ids)}}}" if ids else f"{name} = {{}}"
                for name, ids in cx.regions
            ]
            lines.append(f"    regions: {'; '.join(parts)}")
        if cx.events:
            parts = [f"{name} = {ref.describe()}" for name, ref in cx.events]
            lines.append(f"    events: {'; '.join(parts)}")
        for name, value in cx.values:
            lines.append(f"    {name} = {value}")
        if cx.note:
            lines.append(f"    note: {cx.note}")
    if report.stats:
        parts = [f"{k}={v}" for k, v in sorted(report.stats.items())]
        lines.append(f"  stats: {', '.join(parts)}")
    return "\n".join(lines)


def _emit_report(report: CheckReport, args, started: float) -> int:
    if args.format == "json":
        payload = report.to_json_dict()
        payload["runtime_ms"] = int((time.monotonic() - started) * 1000)
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(_human_report(report))
    return 1 if report.verdict == VIOLATED else 0


# -- model/event plumbing ---------------------------------------------------


def _resolve_event(loaded: LoadedModel, text: str, flag: str) -> int:
    site = loaded.model.site
    if _IDENT_RE.match(text):
        if text in loaded.named_events:
            return parse_event(site, loaded.named_events[text])
        known = ", ".join(sorted(loaded.named_events)) or "none"
        raise CliError(
            f"cli error: {flag}: {text!r} is not a named event of this file "
            f"(defined: {known}); give an expression like 'id=0'"
        )
    return parse_event(site, text)


def _require_kind(model, cond: str):
    if cond in _QUANTAL_CONDITIONS and not isinstance(model, QuantalModel):
        raise CliError(
            f"cli error: condition {cond!r} needs a quantal model file"
        )
    if cond not in _QUANTAL_CONDITIONS and not isinstance(model, StochasticModel):
        raise CliError(
            f"cli error: condition {cond!r} needs a stochastic model file"
        )


# -- subcommand handlers ----------------------------------------------------


def _cmd_validate(args) -> int:
    started = time.monotonic()
    loaded = load_model(args.file)
    model = loaded.model
    site = model.site
    if isinstance(model, QuantalModel):
        kind = "quantal"
        n = len(model.entries)
        report = validate_quantal(model)
    else:
        kind = "stochastic"
        n = len(model.weights)
        report = CheckReport(
            "measure-axioms",
            HOLDS,
            stats={"support": bin(model.support()).count("1")},
        )
    if args.format == "json":
        payload = report.to_json_dict()
        payload["model"] = {
            "kind": kind,
            "sites": len(site.elements),
            "histories": n,
        }
        payload["runtime_ms"] = int((time.monotonic() - started) * 1000)
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(f"valid {kind} model: {len(site.elements)} sites, {n} histories")
        print(_human_report(report))
    return 0


def _cmd_check(args) -> int:
    started = time.monotonic()
    loaded = load_model(args.file)
    model = loaded.model
    cond = args.cond
    _require_kind(model, cond)
    limit = args.max_omega_exhaustive

    if cond not in _PAIR_CONDITIONS and (args.a is not None or args.b is not None):
        raise CliError(
            f"cli error: condition {cond!r} does not take --a/--b; "
            f"event arguments apply to: {', '.join(sorted(_PAIR_CONDITIONS))}"
        )
    if cond in _PAIR_CONDITIONS:
        if args.a is None or args.b is None:
            raise CliError(
                f"cli error: condition {cond!r} needs --a and --b events"
            )
        a = _resolve_event(loaded, args.a, "--a")
        b = _resolve_event(loaded, args.b, "--b")
        if cond == "pcc-original":
            report = check_pcc_original(model, a, b, exhaustive_limit=limit)
        elif cond == "pcc-rev1":
            report = check_pcc_rev1(model, a, b, exhaustive_limit=limit)
        else:
            report = check_pcc_rev2(
                model, a, b, max_partition_size=args.max_partition
            )
    elif cond == "so1":
        report = check_so1(model)
    elif cond == "so2":
        report = check_so2(model)
    elif cond == "so2w":
        report = check_so2w(model)
    elif cond == "gen-so":
        report = check_generalized_so(model, selector=args.selector)
    elif cond == "multi-so":
        report = check_multi_so(model, args.n)
    elif cond == "wrc":
        report = check_wrc(model)
    elif cond == "wrc-cond":
        report = check_wrc(model, conditioned=True)
    elif cond == "penrose-percival":
        report = check_penrose_percival(model)
    elif cond == "qso1":
        report = check_qso1(model)
    elif cond == "qso2":
        report = check_qso2(model)
    else:
        report = diagonal_reduction(model)
    return _emit_report(report, args, started)


def _cmd_find(args) -> int:
    started = time.monotonic()
    loaded = load_model(args.file)
    model = loaded.model
    if not isinstance(model, StochasticModel):
        raise CliError("cli error: find works on stochastic model files")
    a = _resolve_event(loaded, args.a, "--a")
    b = _resolve_event(loaded, args.b, "--b")
    finder = find_screening_events if args.what == "screening" else find_simpson_events
    masks = finder(model, a, b, exhaustive_limit=args.max_omega_exhaustive)
    site = model.site
    refs = [event_ref(site, m) for m in masks]
    if args.format == "json":
        payload = {
            "op": f"find-{args.what}",
            "count": len(refs),
            "events": [r.to_json() for r in refs],
            "runtime_ms": int((time.monotonic() - started) * 1000),
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        noun = "screening" if args.what == "screening" else "independence-breaking"
        print(f"{len(refs)} {noun} event(s)")
        for r in refs:
            print(f"  {r.mask:#x}")
    return 0


def _cmd_fuzz(args) -> int:
    started = time.monotonic()
    report = corpus_mod.fuzz_equivalence(
        args.seed,
        args.count,
        args.pair,
        n_sites=args.sites,
        max_alphabet=args.alphabet,
        rank=args.rank,
        jobs=args.jobs,
    )
    if args.format == "human":
        agreements = report.stats["agreements"]
        total = report.stats["models"]
        print(f"{agreements}/{total} agree")
    return _emit_report(report, args, started)


def _cmd_corpus(args) -> int:
    started = time.monotonic()
    if args.action == "list":
        entries = corpus_mod.corpus_entries()
        if args.format == "json":
            payload = {
                "entries": [
                    {
                        "name": e.name,
                        "kind": "quantal"
                        if isinstance(e.model, QuantalModel)
                        else "stochastic",
                        "expected": dict(sorted(e.expected.items())),
                        "named_events": dict(sorted(e.named_events.items())),
                    }
                    for e in entries
                ],
                "runtime_ms": int((time.monotonic() - started) * 1000),
            }
            print(json.dumps(payload, sort_keys=True, indent=2))
        else:
            for e in entries:
                kind = "quantal" if isinstance(e.model, QuantalModel) else "stochastic"
                expect = ", ".join(f"{k}={v}" for k, v in sorted(e.expected.items()))
                print(f"{e.name} ({kind}): {expect}")
        return 0
    if args.action == "emit":
        if not args.name:
            raise CliError("cli error: corpus emit needs a model name")
        entry = corpus_mod.builtin(args.name)
        sys.stdout.write(
            render_model_json(entry.model, entry.named_events or None)
        )
        return 0
    report = corpus_mod.verify_corpus()
    return _emit_report(report, args, started)


# -- parser -----------------------------------------------------------------


def _add_global_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # The same flags exist on the root parser (with real defaults) and on
    # every subparser (defaulting to "leave the root's value alone"), so
    # they are accepted in either position.
    default = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    parser.add_argument(
        "--format",
        choices=("human", "json"),
        default=default("human"),
        help="output format (default: human)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=default(1),
        help="worker processes for fuzzing, at most the CPU count (default: 1)",
    )
    parser.add_argument(
        "--max-omega-exhaustive",
        type=int,
        default=default(EXHAUSTIVE_EVENT_LIMIT),
        help=(
            "largest history space searched exhaustively for witness events "
            f"(default: {EXHAUSTIVE_EVENT_LIMIT} histories)"
        ),
    )


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, suppress=True)

    parser = argparse.ArgumentParser(
        prog="screenoff",
        description="Exact screening-off checks on finite causal orders.",
    )
    _add_global_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="parse and validate a model file")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("check", parents=[common], help="run one condition on a model file")
    p.add_argument("cond", choices=CHECK_CONDITIONS, metavar="COND")
    p.add_argument("file")
    p.add_argument("--a", help="first event (expression or a name defined in the file)")
    p.add_argument("--b", help="second event")
    p.add_argument("--n", type=int, default=3, help="arity for multi-so (default: 3)")
    p.add_argument(
        "--selector",
        default="mutual",
        choices=("mutual", "joint", "bell", "all"),
        help="conditioning-region selector for gen-so (default: mutual)",
    )
    p.add_argument(
        "--max-partition",
        type=int,
        default=None,
        help="cap on partition size for pcc-rev2 (default: unlimited)",
    )
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("find", parents=[common], help="search witness events for a pair")
    p.add_argument("what", choices=("screening", "simpson"))
    p.add_argument("file")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(handler=_cmd_find)

    p = sub.add_parser("fuzz", parents=[common], help="compare two checks on random models")
    p.add_argument("--pair", required=True, choices=corpus_mod.FUZZ_PAIRS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--sites", type=int, default=None, help="site count bound per model")
    p.add_argument("--alphabet", type=int, default=None, help="largest alphabet")
    p.add_argument("--rank", type=int, default=3, help="largest quantal rank (default: 3)")
    p.set_defaults(handler=_cmd_fuzz)

    p = sub.add_parser("corpus", parents=[common], help="built-in example models")
    p.add_argument("action", choices=("list", "emit", "verify"))
    p.add_argument("name", nargs="?", help="model name (for emit)")
    p.set_defaults(handler=_cmd_corpus)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except InternalCheckError as e:
        print(f"{e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"{e}", file=sys.stderr)
        return 2
    except ArithmeticError as e:
        print(f"internal error: arithmetic failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
