"""The tracer must not change what screenoff computes, and must leave no patch behind.

Run with:  python3 -m pytest perfbench/tests -q   (from the repository root)
"""
from __future__ import annotations

import io
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import screenoff  # noqa: E402
import screenoff.cli  # noqa: E402
from tracer import METHOD_SPANS, Tracer, lru_caches, screenoff_modules  # noqa: E402
from workloads import (  # noqa: E402
    N_QSITES,
    SoLateViolation,
    cc_weights,
    emit_corpus,
    product_amplitude,
)


def _bindings() -> dict:
    """Identity of every module attribute and every traced class attribute."""
    out = {}
    for mod in screenoff_modules():
        for name, value in vars(mod).items():
            out[(mod.__name__, name)] = id(value)
    mods = {m.__name__: m for m in screenoff_modules()}
    for _, modname, cls_name, _ in METHOD_SPANS:
        cls = getattr(mods[modname], cls_name)
        for name, value in vars(cls).items():
            out[(cls_name, name)] = id(value)
    return out


def _cli(argv) -> tuple[int, str]:
    for cache in lru_caches():
        cache.cache_clear()
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = screenoff.cli.main(argv)
    text = "\n".join(
        ln for ln in out.getvalue().splitlines() if not ln.startswith('  "runtime_ms": ')
    )
    return code, text


def test_cli_json_is_identical_traced_and_untraced(tmp_path):
    ops = emit_corpus(tmp_path)
    untraced = [_cli(argv) for argv, _ in ops]
    before = _bindings()
    tracer = Tracer()
    with tracer:
        traced = [_cli(argv) for argv, _ in ops]
    assert traced == untraced
    assert _bindings() == before
    # every layer the corpus reaches was seen by the tracer
    for layer in ("stochastic.cell_tables_s", "stochastic.scan_s", "order.pair_enum_s",
                  "quantal.pair_matrix_s", "modelfile.parse_s", "report.serialize_s"):
        assert tracer.calls[layer] > 0, layer


def test_api_reports_identical_and_originals_restored():
    site = screenoff.CausalSite(
        [("c", 3)] + [(f"l{i}", 2) for i in range(1, 8)],
        [("c", f"l{i}") for i in range(1, 8)],
    )
    model = screenoff.StochasticModel(site, cc_weights(random.Random(5), coupled=True))
    psi = product_amplitude(random.Random(5), N_QSITES)
    qsite = screenoff.CausalSite([(f"s{i}", 2) for i in range(1, N_QSITES + 1)], [])
    entries = [[(x[0] * y[0] + x[1] * y[1], x[1] * y[0] - x[0] * y[1]) for y in psi] for x in psi]

    def run():
        q = screenoff.QuantalModel(qsite, entries, positivity_witness=[(1, psi)])
        return (screenoff.check_so1(model).to_json_dict(),
                screenoff.check_qso2(q).to_json_dict())

    expected = run()
    before = _bindings()
    stochastic = sys.modules["screenoff.stochastic"]
    quantal = sys.modules["screenoff.quantal"]
    original = stochastic._spacelike_pairs
    tracer = Tracer()
    tracer.install()
    try:
        # a name imported into a second module is patched there too
        assert quantal._spacelike_pairs is stochastic._spacelike_pairs is not original
        tracer.begin_op()
        got = run()
        tracer.end_op()
    finally:
        tracer.restore()
    assert got == expected
    assert _bindings() == before
    assert stochastic._spacelike_pairs is original
    per_op = tracer.per_op()
    assert per_op["stochastic.counterexample_s"] > 0
    assert per_op["quantal.model_init_s"] > 0
    assert per_op["order.region_pairs"] == SoLateViolation.FIRST_FAILING_PAIR + 180
    assert tracer.calls["order.pair_enum_s"] == 2  # once via stochastic, once via quantal

