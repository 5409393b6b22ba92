"""Reproduce the ROADMAP "Baseline" rows in one run and flag rows off by more than 2x.

    python3 perfbench/baseline.py

Each row is measured once, from a fresh model, with the perfbench tracer for
the time shares (self time of a layer over the wall time of the call).  The
ROADMAP measured its shares under cProfile, which inflates per-call costs;
the tracer only wraps the named functions.  Prints one JSON object.
"""
from __future__ import annotations

import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import screenoff  # noqa: E402
# loaded so the tracer finds cli._emit_report, one of its layers
import screenoff.cli  # noqa: E402,F401
from tracer import Tracer  # noqa: E402
from workloads import product_amplitude, spacelike_pairs_on_antichain  # noqa: E402

# (row, ROADMAP value)
ROADMAP = {
    "so1 antichain k=6 (s)": 0.06,
    "so1 antichain k=8 (s)": 1.78,
    "qso1 product amplitude k=5 (s)": 0.20,
    "qso1 product amplitude k=6 (s)": 1.97,
    "fuzz qso1-qso2 x100 (s)": 7.5,
    "fuzz x100 random_quantal share": 0.50,
    "fuzz x100 validation share": 0.50,
    "so1 k=8 _cell_weights share": 0.70,
    "so1 k=8 _factorization_failure share": 0.25,
}


def product_measure(k: int, rng: random.Random):
    site = screenoff.CausalSite([(f"s{i}", 2) for i in range(k)], [])
    p = [Fraction(rng.randint(1, 4), 5) for _ in range(k)]
    weights = []
    for h in range(1 << k):
        w = Fraction(1)
        for i in range(k):
            w *= p[i] if (h >> (k - 1 - i)) & 1 else 1 - p[i]
        weights.append(w)
    return screenoff.StochasticModel(site, weights)


def product_amplitude_model(k: int, rng: random.Random):
    site = screenoff.CausalSite([(f"s{i}", 2) for i in range(k)], [])
    psi = product_amplitude(rng, k)
    entries = [[(x[0] * y[0] + x[1] * y[1], x[1] * y[0] - x[0] * y[1]) for y in psi] for x in psi]
    return screenoff.QuantalModel(site, entries, positivity_witness=[(1, psi)])


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def main() -> int:
    rng = random.Random("baseline")
    got = {}
    for k in (6, 8):
        report, dt = timed(screenoff.check_so1, product_measure(k, rng))
        assert report.holds and report.stats["region_pairs"] == spacelike_pairs_on_antichain(k, 2)[0]
        got[f"so1 antichain k={k} (s)"] = dt
    for k in (5, 6):
        report, dt = timed(screenoff.check_qso1, product_amplitude_model(k, rng))
        assert report.holds
        got[f"qso1 product amplitude k={k} (s)"] = dt

    tracer = Tracer()
    with tracer:
        report, dt = timed(screenoff.fuzz_equivalence, 0, 100, "qso1-qso2")
    assert report.stats["agreements"] == 100
    got["fuzz qso1-qso2 x100 (s)"] = dt
    got["fuzz x100 random_quantal share"] = (
        tracer.self_s["corpus.generate_s"] + tracer.self_s["quantal.model_init_s"]) / dt
    got["fuzz x100 validation share"] = tracer.self_s["quantal.validate_s"] / dt

    model = product_measure(8, rng)
    screenoff.check_so1(model)  # site caches warm, as in the profiled ROADMAP run
    tracer = Tracer()
    with tracer:
        _, dt = timed(screenoff.check_so1, product_measure(8, rng))
    got["so1 k=8 _cell_weights share"] = tracer.self_s["stochastic.cell_tables_s"] / dt
    got["so1 k=8 _factorization_failure share"] = tracer.self_s["stochastic.scan_s"] / dt

    rows = []
    for name, expected in ROADMAP.items():
        ratio = got[name] / expected
        rows.append({"row": name, "roadmap": expected, "measured": round(got[name], 4),
                     "ratio": round(ratio, 3), "off_by_more_than_2x": not 0.5 <= ratio <= 2})
    print(json.dumps(rows, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
