"""screenoff benchmark: seeded workloads, end-to-end metrics, and a traced run.

    python3 perfbench/run.py --workload so_holds --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18 --trace 0

Run from the root of a source checkout; screenoff is imported from its
``src`` directory.  One client runs operations back to back in one process
(a closed loop, no worker pool).  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run, whose
operations alternate with untraced ones.  Earlier lines are a human-readable
table.  NOTES.md defines every metric.

Times are scaled to a reference CPU speed.  The host's speed drifts by up to
2x over seconds, and a fixed pure-Python loop (``calibrate``) slows and speeds
with it, so each timed interval is multiplied by REFERENCE_CALIBRATION_S over
the mean duration of that loop measured just before and just after it.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Each run sets up this many times, from a fresh import; setup_s is the median.
SETUP_REPS = 3
# Timing samples a run takes at least, so the tail percentile (the highest
# with ten samples beyond it) exists.
MIN_OPS = 11
# Duration of calibrate() at the reference speed.
REFERENCE_CALIBRATION_S = 0.01
# With fresh inputs, an op is a timing sample only if the calibrations on
# either side of it agree within this share; otherwise the CPU changed speed
# during the op and its scale is unknown.  Such an op is still verified and
# counted, and the run draws another input.
STEADY_TOLERANCE = 0.1


def calibrate() -> float:
    """Seconds taken by a fixed loop of the kinds of work screenoff does.

    Big-rational sums, small-rational products and tuple-keyed dict updates,
    none of it through screenoff, so a change to the program cannot move it.
    """
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(1, i)
    table: dict = {}
    for i in range(3000):
        key = (i % 97, i & 7)
        table[key] = table.get(key, 0) + i * 3
    acc = 0
    for i in range(1500):
        acc += (Fraction(i % 7 + 1, i % 5 + 2) * Fraction(3, i % 11 + 1)).numerator
    return time.perf_counter() - t0


def fresh_import() -> None:
    """Drop every loaded screenoff module and import the package again."""
    for name in [n for n in sys.modules if n == "screenoff" or n.startswith("screenoff.")]:
        del sys.modules[name]
    import screenoff
    import screenoff.cli  # noqa: F401

    if Path(screenoff.__file__).resolve().parent != SRC / "screenoff":
        raise RuntimeError(f"imported screenoff from {screenoff.__file__}, not {SRC}")


def set_up(workload) -> list[float]:
    """Scaled seconds of each set-up: fresh import, generation, files, warm-up op."""
    times = []
    cal = calibrate()
    for rep in range(SETUP_REPS):
        t0 = time.perf_counter()
        fresh_import()
        workload.setup(rep)
        dt = time.perf_counter() - t0
        after = calibrate()
        times.append(dt * 2 * REFERENCE_CALIBRATION_S / (cal + after))
        cal = after
        gc.collect()
    return times


class Loop:
    """Runs prepare / timed execute / verify, and scales each op to reference speed."""

    def __init__(self, workload) -> None:
        self.w = workload
        self.i = 0
        self.failures: list[str] = []
        self.attempted = 0
        # A workload may bring a calibration closer to its own kind of work.
        self.calibrate = getattr(workload, "calibrate", calibrate)
        self.reference_s = getattr(workload, "REFERENCE_CALIBRATION_S", REFERENCE_CALIBRATION_S)
        self.cal = self.calibrate()

    def one(self, execute, before=None, after=None) -> tuple[float, float, int, bool]:
        """(wall seconds, scaled seconds, verdicts, steady) of one operation.

        ``before()`` runs just before the timer starts; ``after(seconds,
        scale)`` just after it stops, with the op's scale factor.
        """
        inp = self.w.prepare(self.i)
        self.i += 1
        self.attempted += 1
        if before is not None:
            before()
        t0 = time.perf_counter()
        try:
            result = execute(inp)
            err = None
        except Exception as e:  # a raising op is a failed op, not a crash
            err = f"raised {e!r}"
        dt = time.perf_counter() - t0
        cal = self.calibrate()
        scale = 2 * self.reference_s / (self.cal + cal)
        steady = abs(cal / self.cal - 1) <= STEADY_TOLERANCE
        self.cal = cal
        if after is not None:
            after(dt, scale)
        verdicts = 0
        if err is None:
            try:
                verdicts, err = self.w.verify(inp, result)
            except Exception as e:
                err = f"verify raised {e!r}"
        if err is not None:
            self.failures.append(f"op {self.i - 1}: {err}")
        return dt, dt * scale, verdicts, steady

    def run_for(self, execute, limit_s: float, steady_target: float = float("inf")) -> list:
        """Ops until ``steady_target`` steady ones are done or ``limit_s`` has passed."""
        out = []
        steady = 0
        start = time.perf_counter()
        while steady < steady_target and time.perf_counter() - start < limit_s:
            out.append(self.one(execute))
            steady += out[-1][3]
        return out


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def timed_run(w, seconds: float, setup_times: list[float]):
    loop = Loop(w)
    if hasattr(w, "fixed_ops"):
        # A fixed campaign: an unsteady op cannot be replaced by a fresh input
        # without dropping or repeating one, so every op is a sample.
        ops = [loop.one(w.execute) for _ in range(w.fixed_ops)]
        samples = ops
    else:
        # Fresh inputs until the run has its steady samples.
        target = max(MIN_OPS, round(seconds * w.OPS_PER_S))
        ops = loop.run_for(w.execute, 3 * seconds, target)
        samples = [op for op in ops if op[3]]
        if len(samples) < MIN_OPS:
            samples = ops
    scaled = [s for _, s, _, _ in samples]
    value, pct = tail(scaled)
    metrics = {
        "verdicts_per_s": (sum(v for _, _, v, _ in samples) / sum(scaled), "1/s"),
        "verdict_s.p50": (statistics.median(scaled), "s"),
        "verdict_s.tail": (value, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(children=w.name == "cli_cold"), "MB"),
    }
    notes = {
        "verdict_s.tail": f"p{pct:.1f} of {len(scaled)} samples ({len(ops)} ops)",
        "setup_s": "median of " + ", ".join(f"{t:.4f}" for t in setup_times),
        "unscaled wall p50": f"{statistics.median(op[0] for op in samples):.4f} s",
        "failed_share": f"{len(loop.failures) / loop.attempted} "
                        f"({len(loop.failures)} of {loop.attempted})",
    }
    return loop, metrics, notes


def traced_run(w, seconds: float):
    """Alternate untraced and traced operations; per-layer values are per traced op."""
    from tracer import Tracer, lru_caches

    caches = lru_caches()
    tracer = Tracer()
    loop = Loop(w)
    plain, traced = [], []
    extra = {"cli.import_s": 0.0, "cli.process_s": 0.0, "report.bytes": 0.0}

    def clear_caches():
        for c in caches:
            c.cache_clear()

    def start_trace():
        tracer.install()
        tracer.begin_op()

    def stop_trace(dt, scale):
        tracer.end_op(scale)
        tracer.restore()
        traced.append(dt * scale)

    if w.name == "cli_cold":
        # Layers come from the same argv run in-process through cli.main with
        # cold caches; the subprocess run of it gives the cost outside cli.main.
        sub, bytes_out = [], []

        def paired(inp):
            scale = loop.reference_s / loop.cal
            t0 = time.perf_counter()
            result = w.execute(inp)
            sub.append((time.perf_counter() - t0) * scale)
            _, err = w.verify(inp, result)
            if err is not None:
                raise RuntimeError(f"subprocess: {err}")
            clear_caches()
            t0 = time.perf_counter()
            untraced = w.execute_inprocess(inp)
            plain.append((time.perf_counter() - t0) * scale)
            clear_caches()
            start_trace()
            try:
                t0 = time.perf_counter()
                result = w.execute_inprocess(inp)
            finally:
                stop_trace(time.perf_counter() - t0, scale)
            if _without_runtime(result) != _without_runtime(untraced):
                raise RuntimeError("traced and untraced output differ")
            bytes_out.append(len(result[1].encode()))
            return result

        loop.run_for(paired, seconds)
        extra["cli.import_s"] = _import_cost()
        extra["cli.process_s"] = statistics.fmean(sub) - statistics.fmean(plain)
        extra["report.bytes"] = statistics.fmean(bytes_out)
    else:
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(traced) < 2:
            plain.append(loop.one(w.execute)[1])
            loop.one(w.execute, before=start_trace, after=stop_trace)
    layers = tracer.per_op()
    span_s = sum(v for k, v in layers.items() if k.endswith("_s"))
    metrics = {k: (v, _layer_unit(k)) for k, v in {**layers, **extra}.items()}
    metrics["trace.untraced_op_s"] = (statistics.median(plain), "s")
    metrics["trace.traced_op_s"] = (statistics.median(traced), "s")
    metrics["trace.overhead_share"] = (
        statistics.median(traced) / statistics.median(plain) - 1, "ratio")
    metrics["trace.span_share"] = (span_s / statistics.fmean(traced), "ratio")
    notes = {"trace": f"{len(plain)} untraced, {len(traced)} traced ops",
             "failed_share": f"{len(loop.failures)} of {loop.attempted}"}
    return loop, metrics, notes


def _without_runtime(result) -> tuple[int, str]:
    """Exit code and report text minus the one nondeterministic line."""
    code, stdout, _ = result
    lines = [ln for ln in stdout.splitlines() if not ln.startswith('  "runtime_ms": ')]
    return code, "\n".join(lines)


def _import_cost(reps: int = 5) -> float:
    """Median fresh-interpreter `import screenoff.cli` minus a bare start, scaled."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    bare, imp = [], []
    cal = calibrate()
    for _ in range(reps):
        for code, sink in (("pass", bare), ("import screenoff.cli", imp)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
            dt = time.perf_counter() - t0
            after = calibrate()
            sink.append(dt * 2 * REFERENCE_CALIBRATION_S / (cal + after))
            cal = after
    return statistics.median(imp) - statistics.median(bare)


def _layer_unit(name: str) -> str:
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    if name in ("cli.import_s", "cli.process_s"):
        return "s"
    if name.endswith("_s"):
        return "s/op"
    if name == "report.bytes":
        return "bytes/op"
    return "count/op"


def run_one(args) -> int:
    from workloads import WORKLOADS

    sys.path.insert(0, str(SRC))
    # One CPU for this process and the children it starts, so the calibration
    # loop always runs on the CPU whose speed it stands for.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    w = WORKLOADS[args.workload](args.seed, args.seconds, ROOT)
    try:
        setup_times = set_up(w)
        if args.trace:
            loop, metrics, notes = traced_run(w, args.seconds)
        else:
            loop, metrics, notes = timed_run(w, args.seconds, setup_times)
    finally:
        if hasattr(w, "cleanup"):
            w.cleanup()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:>16.6g} {unit}")
    for name, text in notes.items():
        print(f"  {name:42s} {text}")
    for failure in loop.failures[:10]:
        print(f"  FAILED {failure}")
    result = {
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so memory and caches do not carry over."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        p = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        if p.returncode != 0:
            sys.stderr.write(p.stderr)
            return p.returncode
        table, last = p.stdout.rstrip("\n").rsplit("\n", 1)
        print(table)
        results[name] = json.loads(last)
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "screenoff" / "__init__.py").is_file():
        print(f"error: no screenoff sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: all, {', '.join(WORKLOADS)}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
