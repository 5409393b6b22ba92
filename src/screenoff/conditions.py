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


class Condition(NamedTuple):
    """One condition that ``check``, the corpus and the fuzzer can run.

    ``run(model, a, b, **options)`` returns the report; ``a`` and ``b`` are
    event masks for a condition that takes ``--a/--b`` and None otherwise;
    ``options`` are keywords named as ``check``'s flags, exactly those in
    ``reads``, each defaulted by the runner, so a caller passes only the set
    ones.  Runners look their check up at call time: a stochastic one in
    this module's namespace, a quantal one in ``screenoff.quantal`` (through
    `_quantal`), so a patched binding applies.
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


CONDITIONS = {
    row.token: row
    for row in (
        Condition("pcc-original", STOCHASTIC, True,
                  lambda m, a, b, max_omega_exhaustive=EXHAUSTIVE_EVENT_LIMIT:
                  check_pcc_original(m, a, b, max_omega_exhaustive),
                  ("max_omega_exhaustive",)),
        Condition("pcc-rev1", STOCHASTIC, True,
                  lambda m, a, b, max_omega_exhaustive=EXHAUSTIVE_EVENT_LIMIT:
                  check_pcc_rev1(m, a, b, max_omega_exhaustive),
                  ("max_omega_exhaustive",)),
        Condition("pcc-rev2", STOCHASTIC, True,
                  lambda m, a, b, max_partition=None: check_pcc_rev2(m, a, b, max_partition), ("max_partition",)),
        Condition("so1", STOCHASTIC, False, lambda m, a, b: check_so1(m)),
        Condition("so2", STOCHASTIC, False, lambda m, a, b: check_so2(m)),
        Condition("so2w", STOCHASTIC, False, lambda m, a, b: check_so2w(m)),
        Condition("gen-so", STOCHASTIC, False,
                  lambda m, a, b, selector="mutual": check_generalized_so(m, selector), ("selector",)),
        Condition("multi-so", STOCHASTIC, False, lambda m, a, b, n=3: check_multi_so(m, n), ("n",)),
        Condition("wrc", STOCHASTIC, False, lambda m, a, b: check_wrc(m)),
        Condition("wrc-cond", STOCHASTIC, False, lambda m, a, b: check_wrc(m, conditioned=True)),
        Condition("penrose-percival", STOCHASTIC, False, lambda m, a, b: check_penrose_percival(m)),
        Condition("qso1", QUANTAL, False, lambda m, a, b: _quantal().check_qso1(m)),
        Condition("qso2", QUANTAL, False, lambda m, a, b: _quantal().check_qso2(m)),
        Condition("diag-reduce", QUANTAL, False, lambda m, a, b: _quantal().diagonal_reduction(m)),
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
