"""The condition table: every condition ``check``, the corpus and the fuzzer can run.

Through this module a stochastic check imports only the stochastic engine.  A
quantal row imports the quantal engine when it runs; a quantal model has
already loaded it.
"""
from __future__ import annotations

import os
from typing import Callable, NamedTuple

from .report import CheckReport
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
)

STOCHASTIC, QUANTAL = "stochastic", "quantal"


def model_kind(model) -> str:
    return STOCHASTIC if isinstance(model, StochasticModel) else QUANTAL


class CheckOptions(NamedTuple):
    """Parameters a condition's runner may read, named as ``check``'s flags."""

    selector: str | None = None
    n: int | None = None
    max_omega_exhaustive: int | None = None
    max_partition: int | None = None


class Condition(NamedTuple):
    """One condition that ``check``, the corpus and the fuzzer can run.

    ``run(model, a, b, options)`` returns the report; ``a`` and ``b`` are
    event masks for a condition that takes ``--a/--b`` and None otherwise;
    of ``options``, a CheckOptions or the CLI's parsed arguments (None where
    unset), it reads the fields in ``reads``.  Runners look their check up at
    call time: a stochastic one in this module's namespace, a quantal one in
    ``screenoff.quantal`` (through `_quantal`), so a patched binding applies.
    """

    token: str
    kind: str
    takes_events: bool
    run: Callable[..., CheckReport]
    reads: tuple[str, ...] = ()


def _quantal():
    """The quantal engine, imported on the first quantal row that runs."""
    from . import quantal

    return quantal


def exhaustive_limit(options) -> int:
    """``options.max_omega_exhaustive``, or EXHAUSTIVE_EVENT_LIMIT where unset."""
    limit = options.max_omega_exhaustive
    return EXHAUSTIVE_EVENT_LIMIT if limit is None else limit


CONDITIONS = {
    row.token: row
    for row in (
        Condition("pcc-original", STOCHASTIC, True,
                  lambda m, a, b, o: check_pcc_original(m, a, b, exhaustive_limit(o)),
                  ("max_omega_exhaustive",)),
        Condition("pcc-rev1", STOCHASTIC, True,
                  lambda m, a, b, o: check_pcc_rev1(m, a, b, exhaustive_limit(o)),
                  ("max_omega_exhaustive",)),
        Condition("pcc-rev2", STOCHASTIC, True,
                  lambda m, a, b, o: check_pcc_rev2(m, a, b, o.max_partition), ("max_partition",)),
        Condition("so1", STOCHASTIC, False, lambda m, a, b, o: check_so1(m)),
        Condition("so2", STOCHASTIC, False, lambda m, a, b, o: check_so2(m)),
        Condition("so2w", STOCHASTIC, False, lambda m, a, b, o: check_so2w(m)),
        Condition("gen-so", STOCHASTIC, False,
                  lambda m, a, b, o: check_generalized_so(m, "mutual" if o.selector is None else o.selector),
                  ("selector",)),
        Condition("multi-so", STOCHASTIC, False,
                  lambda m, a, b, o: check_multi_so(m, 3 if o.n is None else o.n), ("n",)),
        Condition("wrc", STOCHASTIC, False, lambda m, a, b, o: check_wrc(m)),
        Condition("wrc-cond", STOCHASTIC, False,
                  lambda m, a, b, o: check_wrc(m, conditioned=True)),
        Condition("penrose-percival", STOCHASTIC, False,
                  lambda m, a, b, o: check_penrose_percival(m)),
        Condition("qso1", QUANTAL, False, lambda m, a, b, o: _quantal().check_qso1(m)),
        Condition("qso2", QUANTAL, False, lambda m, a, b, o: _quantal().check_qso2(m)),
        Condition("diag-reduce", QUANTAL, False, lambda m, a, b, o: _quantal().diagonal_reduction(m)),
    )
}

# Fuzz pairs: (first token, second token, whether the pair is proved
# equivalent).  A disagreement on a proved pair is a violation; on
# so1-generalized_all it is only recorded: that pair is no equivalence, since
# gen-so[all] implies so1 but a collider (a = x, b = y, s = x xor y) refutes
# the converse.
FUZZ_PAIRS = {
    "so1-so2": ("so1", "so2", True),
    "qso1-qso2": ("qso1", "qso2", True),
    "so1-wrc_conditioned": ("so1", "wrc-cond", True),
    "so1-generalized_all": ("so1", "gen-so[all]", False),
}


def check_jobs(jobs: int) -> None:
    """Refuse a worker count outside 1..the CPU count before any pool exists."""
    max_jobs = os.cpu_count() or 1
    if not 1 <= jobs <= max_jobs:
        raise ValueError(
            f"corpus error: jobs must be between 1 and {max_jobs} "
            f"(the CPU count), not {jobs}"
        )
