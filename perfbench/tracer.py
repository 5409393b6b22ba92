"""Outside-in layer timing for screenoff: wrap module-level functions with timers.

The tracer is installed only for the traced run.  It replaces each traced
function in every loaded ``screenoff`` namespace that holds it (a name
imported with ``from .x import f`` is a second binding of the same object, and
both must be patched), and puts every original back on ``restore``.  A span's
self time is its duration minus the spans nested inside it.
"""
from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

# (layer, module, attribute): module-level functions timed as spans.
SPANS = (
    ("stochastic.cell_tables_s", "screenoff.stochastic", "_cell_weights"),
    ("stochastic.scan_s", "screenoff.stochastic", "_factorization_failure"),
    ("stochastic.counterexample_s", "screenoff.stochastic", "_conditional_counterexample"),
    ("order.pair_enum_s", "screenoff.stochastic", "_spacelike_pairs"),
    ("quantal.pair_matrix_s", "screenoff.quantal", "_pair_matrix"),
    ("quantal.scan_s", "screenoff.quantal", "_quantal_screening_failure"),
    ("quantal.validate_s", "screenoff.quantal", "validate_quantal"),
    ("corpus.generate_s", "screenoff.corpus", "random_quantal"),
    ("modelfile.parse_s", "screenoff.modelfile", "load_model"),
    ("report.serialize_s", "screenoff.cli", "_emit_report"),
)
# (layer, module, class, method): methods timed as spans.
METHOD_SPANS = (
    ("order.pair_enum_s", "screenoff.order", "CausalSite", "enumerate_dissections"),
    ("quantal.model_init_s", "screenoff.quantal", "QuantalModel", "__init__"),
)
# Check entry points whose reports carry the scan counters.
CHECKS = (
    ("screenoff.stochastic", "check_so1"),
    ("screenoff.stochastic", "check_so2"),
    ("screenoff.stochastic", "check_so2w"),
    ("screenoff.stochastic", "check_multi_so"),
    ("screenoff.stochastic", "check_generalized_so"),
    ("screenoff.stochastic", "check_penrose_percival"),
    ("screenoff.stochastic", "check_wrc"),
    ("screenoff.quantal", "check_qso1"),
    ("screenoff.quantal", "check_qso2"),
)
# lru caches whose hit and miss counts are reported.
CACHES = (
    ("events.config_indices", "screenoff.events", "config_indices"),
    ("events.full_specifications", "screenoff.events", "full_specifications"),
)
# Report stats summed over every check report returned while tracing.
_REPORT_COUNTS = (
    ("stochastic.atom_checks", "atom_checks"),
    ("stochastic.null_conditions_skipped", "null_conditions_skipped"),
    ("quantal.equations_checked", "equations_checked"),
    ("order.region_pairs", "region_pairs"),
)


def screenoff_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "screenoff" or name.startswith("screenoff."))]


def lru_caches() -> list:
    """Every functools cache defined in the loaded screenoff modules."""
    seen = {}
    for mod in screenoff_modules():
        for value in vars(mod).values():
            if hasattr(value, "cache_clear") and hasattr(value, "cache_info"):
                seen[id(value)] = value
    return list(seen.values())


class Tracer:
    """Spans and counters, collected per operation while installed."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.ops = 0
        # per-op self times, scaled to reference speed by end_op
        self.scaled_s: dict[str, float] = defaultdict(float)
        self._self_mark: dict[str, float] = {}
        self.reports = 0
        self.first_pair_exits = 0
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self._op_unions: set[int] = set()
        self._distinct_unions = 0
        self._caches: dict[str, object] = {}
        self._cache_mark: dict[str, tuple[int, int]] = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {m.__name__: m for m in screenoff_modules()}
        for layer, modname, attr in SPANS:
            original = getattr(mods[modname], attr)
            self._patch_everywhere(original, self._span(layer, original, attr))
        for layer, modname, cls_name, meth in METHOD_SPANS:
            cls = getattr(mods[modname], cls_name)
            original = cls.__dict__[meth]
            cls_patch = self._span(layer, original, meth)
            setattr(cls, meth, cls_patch)
            self._patches.append((cls, meth, original))
        for modname, attr in CHECKS:
            original = getattr(mods[modname], attr)
            self._patch_everywhere(original, self._check(original))
        self._caches = {name: getattr(mods[m], attr) for name, m, attr in CACHES}

    def _patch_everywhere(self, original, replacement) -> None:
        for mod in screenoff_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, replacement)
                    self._patches.append((mod, name, original))

    def restore(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- wrappers -----------------------------------------------------------

    def _span(self, layer: str, fn, attr: str):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        on_call = self._count_cell_table if attr == "_cell_weights" else None

        def timed(*args, **kwargs):
            if on_call is not None:
                on_call(*args)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                child = stack.pop()
                self_s[layer] += d - child
                calls[layer] += 1
                if stack:
                    stack[-1] += d

        timed.__wrapped__ = fn
        return timed

    def _count_cell_table(self, model, regions) -> None:
        self.counts["stochastic.histories_scanned"] += len(model.weights)
        union = 0
        for r in regions:
            union |= r
        self._op_unions.add(union)

    def _check(self, fn):
        def checked(*args, **kwargs):
            report = fn(*args, **kwargs)
            self.reports += 1
            for counter, key in _REPORT_COUNTS:
                value = report.stats.get(key)
                if isinstance(value, int):
                    self.counts[counter] += value
            if report.stats.get("region_pairs") == 1:
                self.first_pair_exits += 1
            return report

        checked.__wrapped__ = fn
        return checked

    # -- per-operation bookkeeping -----------------------------------------

    def begin_op(self) -> None:
        self._op_unions = set()
        self._self_mark = dict(self.self_s)
        self._cache_mark = {
            name: (c.cache_info().hits, c.cache_info().misses)
            for name, c in self._caches.items()
        }

    def end_op(self, scale: float = 1.0) -> None:
        """Close an operation; its span times are multiplied by ``scale``."""
        for layer, total in self.self_s.items():
            self.scaled_s[layer] += (total - self._self_mark.get(layer, 0.0)) * scale
        self.ops += 1
        self._distinct_unions += len(self._op_unions)
        for name, cache in self._caches.items():
            info = cache.cache_info()
            hits0, misses0 = self._cache_mark[name]
            self.counts[f"{name}.hits"] += info.hits - hits0
            self.counts[f"{name}.misses"] += info.misses - misses0

    # -- results ------------------------------------------------------------

    def per_op(self) -> dict[str, float]:
        """Layer self times and counters, averaged over traced operations."""
        n = max(self.ops, 1)
        out: dict[str, float] = {}
        for layer in dict.fromkeys(span[0] for span in SPANS + METHOD_SPANS):
            out[layer] = self.scaled_s.get(layer, 0.0) / n
        cell_calls = self.calls.get("stochastic.cell_tables_s", 0)
        out["stochastic.cell_tables.calls"] = cell_calls / n
        out["stochastic.cell_tables.reuse_ratio"] = (
            1 - self._distinct_unions / cell_calls if cell_calls else 0.0
        )
        out["quantal.pair_matrix.calls"] = self.calls.get("quantal.pair_matrix_s", 0) / n
        for name in ("stochastic.histories_scanned",
                     *(counter for counter, _ in _REPORT_COUNTS)):
            out[name] = self.counts.get(name, 0) / n
        for name, _, _ in CACHES:
            out[f"{name}.hits"] = self.counts.get(f"{name}.hits", 0) / n
            out[f"{name}.misses"] = self.counts.get(f"{name}.misses", 0) / n
        out["corpus.first_pair_exit_share"] = (
            self.first_pair_exits / self.reports if self.reports else 0.0
        )
        return out
