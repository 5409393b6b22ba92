"""Exact model checking for screening-off conditions on causal partial orders.

Everything is computed in exact rational (or complex-rational) arithmetic:
a verdict of "holds" means the condition was verified, not approximated.
The public surface re-exported here covers the order/event layer, the two
model kinds with their checks, the model file format, and the built-in
model corpus; ``screenoff.cli.main`` backs the ``screenoff`` console script.

Importing the package loads none of its modules.  The first read of an
exported name imports them all and binds every name in ``__all__``, so
``screenoff.X``, ``from screenoff import X`` and ``import *`` work as for an
eager import, while ``python -m screenoff.cli`` loads only what its command runs.
"""

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CausalSite",
    "CheckReport",
    "ComplexFraction",
    "CorpusEntry",
    "CorpusError",
    "Counterexample",
    "EventRef",
    "ExpressionError",
    "HOLDS",
    "InternalCheckError",
    "LoadedModel",
    "MeasureError",
    "ModelFileError",
    "NotSpacelikeError",
    "OrderError",
    "PreconditionError",
    "QuantalError",
    "QuantalModel",
    "RegionError",
    "SelectorError",
    "StochasticModel",
    "VACUOUS",
    "VIOLATED",
    "builtin",
    "check_generalized_so",
    "check_multi_so",
    "check_pcc_original",
    "check_pcc_rev1",
    "check_pcc_rev2",
    "check_penrose_percival",
    "check_qso1",
    "check_qso2",
    "check_so1",
    "check_so2",
    "check_so2w",
    "check_wrc",
    "corpus_entries",
    "corpus_names",
    "correlated",
    "deterministic_local_model",
    "diagonal_reduction",
    "dom",
    "find_screening_events",
    "find_simpson_events",
    "full_specifications",
    "fuzz_equivalence",
    "history_digits",
    "history_index",
    "load_model",
    "n_histories",
    "omega",
    "parse_event",
    "parse_model",
    "parse_model_text",
    "random_deterministic_local",
    "random_diagonal_quantal",
    "random_quantal",
    "random_stochastic",
    "render_model",
    "render_model_json",
    "validate_quantal",
    "verify_corpus",
    "__version__",
]


def __getattr__(name: str):
    """Import the API on the first read of an exported name, and bind all of it."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .corpus import (
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
        verify_corpus,
    )
    from .events import (
        dom,
        full_specifications,
        history_digits,
        history_index,
        n_histories,
        omega,
    )
    from .exprs import ExpressionError, parse_event
    from .modelfile import (
        LoadedModel,
        ModelFileError,
        load_model,
        parse_model,
        parse_model_text,
        render_model,
        render_model_json,
    )
    from .order import CausalSite, NotSpacelikeError, OrderError, RegionError
    from .quantal import (
        ComplexFraction,
        QuantalError,
        QuantalModel,
        check_qso1,
        check_qso2,
        diagonal_reduction,
        validate_quantal,
    )
    from .report import (
        HOLDS,
        VACUOUS,
        VIOLATED,
        CheckReport,
        Counterexample,
        EventRef,
        InternalCheckError,
    )
    from .stochastic import (
        CapacityError,
        MeasureError,
        PreconditionError,
        SelectorError,
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
        correlated,
        deterministic_local_model,
        find_screening_events,
        find_simpson_events,
    )
    globals().update((k, v) for k, v in locals().items() if k in __all__)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
