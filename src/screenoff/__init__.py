"""Exact model checking for screening-off conditions on causal partial orders.

Everything is computed in exact rational (or complex-rational) arithmetic:
a verdict of "holds" means the condition was verified, not approximated.
The public surface re-exported here covers the order/event layer, the two
model kinds with their checks, the model file format, and the built-in
model corpus; ``screenoff.cli.main`` backs the ``screenoff`` console script.

Importing the package loads none of its modules.  `_EXPORTS` maps each
module to the names it exports, and ``__all__`` is built from it.  The first
read of an exported name imports every module and binds all of the names, so
``screenoff.X``, ``from screenoff import X`` and ``import *`` work as for an
eager import, while ``python -m screenoff.cli`` loads only what its command runs.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "corpus": ("CorpusEntry", "CorpusError", "builtin", "corpus_entries", "corpus_names",
               "fuzz_equivalence", "random_deterministic_local", "random_diagonal_quantal",
               "random_quantal", "random_stochastic", "verify_corpus"),
    "events": ("dom", "full_specifications", "history_digits", "history_index", "n_histories", "omega"),
    "exprs": ("ExpressionError", "parse_event"),
    "modelfile": ("LoadedModel", "ModelFileError", "load_model", "parse_model", "parse_model_text",
                  "render_model", "render_model_json"),
    "order": ("CausalSite", "NotSpacelikeError", "OrderError", "RegionError"),
    "quantal": ("ComplexFraction", "QuantalError", "QuantalModel", "check_qso1", "check_qso2",
                "diagonal_reduction", "validate_quantal"),
    "report": ("HOLDS", "VACUOUS", "VIOLATED", "CheckReport", "Counterexample", "EventRef",
               "InternalCheckError"),
    "stochastic": ("CapacityError", "MeasureError", "PreconditionError", "SelectorError",
                   "StochasticModel", "check_generalized_so", "check_multi_so", "check_pcc_original",
                   "check_pcc_rev1", "check_pcc_rev2", "check_penrose_percival", "check_so1",
                   "check_so2", "check_so2w", "check_wrc", "correlated", "deterministic_local_model",
                   "find_screening_events", "find_simpson_events"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names) + ["__version__"]


def __getattr__(name: str):
    """Import the API on the first read of an exported name, and bind all of it."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    for module, names in _EXPORTS.items():
        loaded = import_module(f".{module}", __name__)
        globals().update((export, getattr(loaded, export)) for export in names)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
