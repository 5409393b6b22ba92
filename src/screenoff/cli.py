"""Command-line front end.

Subcommands: ``validate``, ``check``, ``find``, ``fuzz``, and ``corpus``.
Exit codes: 0 the condition holds (or the task succeeded), 1 it is violated,
2 the input or usage was bad (or standard output was closed by its reader),
3 an internal invariant failed.  All output is
deterministic for identical inputs, whatever ``--jobs`` says; JSON output
differs only in ``runtime_ms``.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Sequence

from .conditions import CONDITIONS, FUZZ_PAIRS, QUANTAL, STOCHASTIC, check_jobs, exhaustive_limit, model_kind
from .events import event_ref, n_histories
from .exprs import parse_event
from .modelfile import _NAME_RE, LoadedModel, load_model, render_model_json
from .report import HOLDS, VIOLATED, CheckReport, InternalCheckError
from .stochastic import (
    EXHAUSTIVE_EVENT_LIMIT,
    SELECTOR_NAMES,
    _require_exhaustive_limit,
    find_screening_events,
    find_simpson_events,
)

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


def _print_json(payload: dict, started: float) -> None:
    payload["runtime_ms"] = int((time.monotonic() - started) * 1000)
    print(json.dumps(payload, sort_keys=True, indent=2))


def _emit_report(report: CheckReport, args, started: float) -> int:
    if args.format == "json":
        _print_json(report.to_json_dict(), started)
    else:
        print(_human_report(report))
    return 1 if report.verdict == VIOLATED else 0


# -- model/event plumbing ---------------------------------------------------


def _resolve_event(loaded: LoadedModel, text: str, flag: str) -> int:
    if _NAME_RE.fullmatch(text):  # a name a model file can define
        if text in loaded.named_events:
            return loaded.event(text)
        known = ", ".join(sorted(loaded.named_events)) or "none"
        raise CliError(
            f"cli error: {flag}: {text!r} is not a named event of this file "
            f"(defined: {known}); give an expression like 'id=0'"
        )
    return parse_event(loaded.model.site, text)


# -- subcommand handlers ----------------------------------------------------


def _cmd_validate(args) -> int:
    started = time.monotonic()
    loaded = load_model(args.file)
    model = loaded.model
    site = model.site
    kind = model_kind(model)
    n = n_histories(site)
    if kind == QUANTAL:
        from .quantal import validate_quantal  # a quantal file has loaded the quantal engine

        report = validate_quantal(model)
    else:
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
        _print_json(payload, started)
    else:
        print(f"valid {kind} model: {len(site.elements)} sites, {n} histories")
        print(_human_report(report))
    return 0


def _cmd_check(args) -> int:
    started = time.monotonic()
    loaded = load_model(args.file)
    model = loaded.model
    cond = args.cond
    row = CONDITIONS[cond]
    if model_kind(model) != row.kind:
        raise CliError(f"cli error: condition {cond!r} needs a {row.kind} model file")
    a = b = None
    if row.takes_events:
        if args.a is None or args.b is None:
            raise CliError(
                f"cli error: condition {cond!r} needs --a and --b events"
            )
        a = _resolve_event(loaded, args.a, "--a")
        b = _resolve_event(loaded, args.b, "--b")
    elif args.a is not None or args.b is not None:
        takers = sorted(t for t, r in CONDITIONS.items() if r.takes_events)
        raise CliError(
            f"cli error: condition {cond!r} does not take --a/--b; "
            f"event arguments apply to: {', '.join(takers)}"
        )
    for flag in ("selector", "n", "max_partition", "max_omega_exhaustive"):
        if getattr(args, flag) is not None and flag not in row.reads:
            takers = sorted(t for t, r in CONDITIONS.items() if flag in r.reads)
            raise CliError(f"cli error: condition {cond!r} does not take --{flag.replace('_', '-')}; "
                           f"it applies to: {', '.join(takers)}")
    return _emit_report(row.run(model, a, b, args), args, started)


def _cmd_find(args) -> int:
    started = time.monotonic()
    loaded = load_model(args.file)
    model = loaded.model
    if model_kind(model) != STOCHASTIC:
        raise CliError("cli error: find works on stochastic model files")
    a = _resolve_event(loaded, args.a, "--a")
    b = _resolve_event(loaded, args.b, "--b")
    finder = find_screening_events if args.what == "screening" else find_simpson_events
    masks = finder(model, a, b, exhaustive_limit=exhaustive_limit(args))
    site = model.site
    refs = [event_ref(site, m) for m in masks]
    if args.format == "json":
        payload = {"op": f"find-{args.what}", "count": len(refs), "events": [r.to_json() for r in refs]}
        _print_json(payload, started)
    else:
        noun = "screening" if args.what == "screening" else "independence-breaking"
        print(f"{len(refs)} {noun} event(s)")
        for r in refs:
            print(f"  {r.mask:#x}")
    return 0


def _cmd_fuzz(args) -> int:
    from . import corpus as corpus_mod

    started = time.monotonic()
    quantal = [p for p in FUZZ_PAIRS if corpus_mod._fuzz_kind(p) == QUANTAL]
    if args.rank is not None and args.pair not in quantal:
        raise CliError(f"cli error: fuzz pair {args.pair!r} does not take --rank; it applies to: {', '.join(quantal)}")
    report = corpus_mod.fuzz_equivalence(
        args.seed,
        args.count,
        args.pair,
        n_sites=args.sites,
        max_alphabet=args.alphabet,
        rank=3 if args.rank is None else args.rank,
        jobs=args.jobs,
    )
    if args.format == "human":
        agreements = report.stats["agreements"]
        total = report.stats["models"]
        print(f"{agreements}/{total} agree")
    return _emit_report(report, args, started)


def _cmd_corpus(args) -> int:
    from . import corpus as corpus_mod

    started = time.monotonic()
    if args.name is not None and args.action != "emit":
        raise CliError(f"cli error: corpus {args.action} does not take a model name ({args.name!r}); "
                       "it applies to: corpus emit")
    if args.action == "list":
        entries = corpus_mod.corpus_entries()
        if args.format == "json":
            entries_json = [
                {
                    "name": e.name,
                    "kind": model_kind(e.model),
                    "expected": dict(sorted(e.expected.items())),
                    "named_events": dict(sorted(e.named_events.items())),
                }
                for e in entries
            ]
            _print_json({"entries": entries_json}, started)
        else:
            for e in entries:
                kind = model_kind(e.model)
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
        default=default(None),
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
    p.add_argument("cond", choices=CONDITIONS, metavar="COND")
    p.add_argument("file")
    p.add_argument("--a", help="first event (expression or a name defined in the file)")
    p.add_argument("--b", help="second event")
    p.add_argument("--n", type=int, help="arity for multi-so (default: 3)")
    p.add_argument("--selector", choices=SELECTOR_NAMES,
                   help="conditioning-region selector for gen-so (default: mutual)")
    p.add_argument("--max-partition", type=int, help="cap on partition size for pcc-rev2 (default: unlimited)")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("find", parents=[common], help="search witness events for a pair")
    p.add_argument("what", choices=("screening", "simpson"))
    p.add_argument("file")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(handler=_cmd_find)

    p = sub.add_parser("fuzz", parents=[common], help="compare two checks on random models")
    p.add_argument("--pair", required=True, choices=FUZZ_PAIRS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--sites", type=int, default=None, help="site count bound per model")
    p.add_argument("--alphabet", type=int, default=None, help="largest alphabet")
    p.add_argument("--rank", type=int, help="largest quantal rank (default: 3)")
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
        check_jobs(args.jobs)
        if args.max_omega_exhaustive is not None:
            _require_exhaustive_limit(args.max_omega_exhaustive)
            if args.command not in ("check", "find"):
                takers = [f"check {t}" for t, r in CONDITIONS.items() if "max_omega_exhaustive" in r.reads]
                raise CliError(f"cli error: {args.command} does not take --max-omega-exhaustive; "
                               f"it applies to: {', '.join(takers)}, find")
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError as e:
        # the reader closed early; point stdout at nothing so that the flush
        # at shutdown cannot raise again
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        print(f"output error: {e}", file=sys.stderr)
        return 2
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
