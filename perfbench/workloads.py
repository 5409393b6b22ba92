"""The five benchmark workloads: seeded inputs, one timed operation, and its check.

Inputs are generated here in the benchmark's own exact arithmetic; screenoff
sees only the finished models (or model files).  Every reference a result is
checked against is computed here or pinned in ``pinned_verdicts.json``, never
taken from the program under test.

A workload has four steps.  ``setup`` builds what the timed loop reuses and
runs one warm-up operation, so the site-level ``lru_cache`` tables are full
before timing starts.  ``prepare(i)`` makes the i-th input (untimed; for the
in-process workloads a freshly generated model, so no cache keyed by the model
or stored on it can serve a repeat).  ``execute`` is the timed operation.
``verify`` returns the number of verdicts and an error string or None.

A workload sets how much a run measures: ``OPS_PER_S`` timing samples per
second of ``--seconds``, or a fixed campaign of ``fixed_ops`` inputs.  It may
bring its own ``calibrate`` and ``REFERENCE_CALIBRATION_S`` (see run.py).
"""
from __future__ import annotations

import importlib
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

HOLDS = "holds"
VIOLATED = "violated"
PINNED = json.loads(Path(__file__).with_name("pinned_verdicts.json").read_text())

# Shape of the stochastic workloads: ternary root c below 7 binary leaves.
N_LEAVES = 7
# Shape of qso_holds: an antichain of 5 binary sites.
N_QSITES = 5
# Models per fuzz_equivalence call in qso_fuzz.
FUZZ_COUNT = 10


def spacelike_pairs_on_antichain(k: int, alphabet: int) -> tuple[int, int]:
    """(ordered disjoint nonempty region pairs, summed atom pairs) on k sites.

    Each site goes to A, to B or to neither; a region of m sites has
    alphabet^m atoms.  Pairs: 3^k - 2*2^k + 1.  Atom pairs (or, with the
    alphabet squared, quantal pseudo-atom pairs): (1+2a)^k - 2*(1+a)^k + 1.
    """
    pairs = 3**k - 2 * 2**k + 1
    atoms = (1 + 2 * alphabet) ** k - 2 * (1 + alphabet) ** k + 1
    return pairs, atoms


def warm_up(workload, inp) -> None:
    """Run one untimed op; a wrong result here means the run cannot go on."""
    err = workload.verify(inp, workload.execute(inp))[1]
    if err:
        raise RuntimeError(f"warm-up failed: {err}")


# -- stochastic: common cause below an antichain ------------------------------


def _cc_elements():
    elems = [("c", 3)] + [(f"l{i}", 2) for i in range(1, N_LEAVES + 1)]
    rels = [("c", f"l{i}") for i in range(1, N_LEAVES + 1)]
    return elems, rels


def _composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """Random positive integers summing to ``total``."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0, *cuts], [*cuts, total])]


def cc_weights(rng: random.Random, coupled: bool) -> list[Fraction]:
    """History weights of P(c) * prod_i P(l_i | c), histories in mixed radix.

    With ``coupled`` the last two leaves get a joint table per value of c
    that is not a product, so they stay correlated given the root.  Every
    probability has a fixed denominator (12 or 5), so all models of a
    workload carry numbers of the same size and cost the same to check.
    """
    pc = [Fraction(k, 12) for k in _composition(rng, 12, 3)]
    p_one = [[Fraction(rng.randint(1, 4), 5) for _ in range(N_LEAVES)] for _ in range(3)]
    joint = []
    for _ in range(3):
        while True:
            j = _composition(rng, 12, 4)
            if j[0] * j[3] != j[1] * j[2]:
                break
        joint.append([Fraction(x, 12) for x in j])
    free = N_LEAVES - 2 if coupled else N_LEAVES
    weights = []
    for c in range(3):
        for bits in range(1 << N_LEAVES):
            digits = [(bits >> (N_LEAVES - 1 - i)) & 1 for i in range(N_LEAVES)]
            w = pc[c]
            for i in range(free):
                w *= p_one[c][i] if digits[i] else 1 - p_one[c][i]
            if coupled:
                w *= joint[c][2 * digits[-2] + digits[-1]]
            weights.append(w)
    return weights


def cc_mask(constraints: dict[str, int]) -> int:
    """Histories of the common-cause site matching {element id: value}."""
    mask = 0
    for c in range(3):
        for bits in range(1 << N_LEAVES):
            values = {"c": c}
            for i in range(N_LEAVES):
                values[f"l{i + 1}"] = (bits >> (N_LEAVES - 1 - i)) & 1
            if all(values[k] == v for k, v in constraints.items()):
                mask |= 1 << (c * (1 << N_LEAVES) + bits)
    return mask


def parse_atom(expr: str) -> dict[str, int]:
    """'l6=0 & c=2' -> {'l6': 0, 'c': 2}."""
    out = {}
    for part in expr.split("&"):
        m = re.fullmatch(r"\s*(\w+)=(\d+)\s*", part)
        if m is None:
            raise ValueError(f"unexpected atom expression {expr!r}")
        out[m.group(1)] = int(m.group(2))
    return out


class SoHolds:
    """so1 and so2 alternate on fresh common-cause models; every pair is scanned."""

    name = "so_holds"
    coupled = False
    OPS_PER_S = 1  # timing samples per second of --seconds

    def __init__(self, seed: int, seconds: float, root: Path) -> None:
        self.seed = seed

    def setup(self, rep: int) -> None:
        self.so = importlib.import_module("screenoff")
        self.site = self.so.CausalSite(*_cc_elements())
        self.rng = random.Random(f"{self.name}:{self.seed}")
        warm_up(self, self.prepare_with(random.Random(f"{self.name}:{self.seed}:warm:{rep}"), 0))

    def prepare_with(self, rng, i: int):
        weights = cc_weights(rng, self.coupled)
        model = self.so.StochasticModel(self.site, weights)
        return weights, model, "check_so1" if i % 2 == 0 else "check_so2"

    def prepare(self, i: int):
        return self.prepare_with(self.rng, i)

    def execute(self, inp):
        _, model, check = inp
        return getattr(self.so, check)(model)

    def verify(self, inp, report):
        pairs, atoms = spacelike_pairs_on_antichain(N_LEAVES, 2)
        expected = {"region_pairs": pairs, "atom_checks": 3 * atoms,
                    "null_conditions_skipped": 0}
        if report.verdict != HOLDS:
            return 1, f"verdict {report.verdict}, expected holds"
        if dict(report.stats) != expected:
            return 1, f"stats {dict(report.stats)} != {expected}"
        return 1, None


class SoLateViolation(SoHolds):
    """Same shape with the last two leaves coupled beyond the root."""

    name = "so_late_violation"
    coupled = True
    OPS_PER_S = 2
    # The first failing ordered pair in ascending (A, B) mask order.
    FIRST_FAILING_PAIR = 845
    PINNED_REGIONS = (("A", ("l6",)), ("B", ("l7",)), ("past", ("c",)))

    def verify(self, inp, report):
        weights, _, _ = inp
        if report.verdict != VIOLATED:
            return 1, f"verdict {report.verdict}, expected violated"
        if report.stats.get("region_pairs") != self.FIRST_FAILING_PAIR:
            return 1, f"first failing pair {report.stats.get('region_pairs')}, pinned {self.FIRST_FAILING_PAIR}"
        err = replay_counterexample(weights, report.counterexample, self.PINNED_REGIONS)
        return 1, err


def replay_counterexample(weights, cx, pinned_regions) -> str | None:
    """Re-derive a so1/so2 counterexample from the weights; None if it replays."""
    regions = dict(cx.regions)
    if tuple(cx.regions) != pinned_regions:
        return f"regions {cx.regions} != pinned {pinned_regions}"
    a_ids, b_ids = set(regions["A"]), set(regions["B"])
    leaves = {f"l{i}" for i in range(1, N_LEAVES + 1)}
    # leaves form an antichain, so disjoint nonempty leaf sets are spacelike
    if not (a_ids and b_ids and a_ids <= leaves and b_ids <= leaves and not a_ids & b_ids):
        return "A and B are not disjoint nonempty spacelike regions"
    if set(regions["past"]) != {"c"}:
        return f"past {regions['past']} is not the mutual/joint past {{c}}"
    masks = {}
    for name, region in (("A", a_ids), ("B", b_ids), ("C", {"c"})):
        ref = cx.event(name)
        atom = parse_atom(ref.expr)
        if set(atom) != region:
            return f"event {name} ({ref.expr}) does not fix exactly region {sorted(region)}"
        masks[name] = cc_mask(atom)
        if ref.mask != masks[name]:
            return f"event {name} mask does not match {ref.expr}"

    def mu(mask: int) -> Fraction:
        return sum((w for h, w in enumerate(weights) if mask >> h & 1), Fraction(0))

    a, b, c = masks["A"], masks["B"], masks["C"]
    mu_c = mu(c)
    joint = mu(a & b & c) / mu_c
    ma, mb = mu(a & c) / mu_c, mu(b & c) / mu_c
    values = {k: Fraction(v) for k, v in cx.values}
    want = {"mu(C)": mu_c, "mu(A&B|C)": joint, "mu(A|C)": ma, "mu(B|C)": mb, "product": ma * mb}
    if values != want:
        return f"reported values {cx.values} != replayed {want}"
    if joint == ma * mb:
        return "replayed product rule holds; counterexample is not one"
    return None


# -- quantal: rank-one product amplitudes on an antichain ---------------------


def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def product_amplitude(rng: random.Random, k: int) -> list[tuple[Fraction, Fraction]]:
    """psi(h) = prod_i a_i(h_i) with a_i(0) = (x + iy)/4 and a_i(1) = 1 - a_i(0).

    Each site's amplitudes sum to 1, so the matrix is normalized; the fixed
    denominator keeps every model of the workload the same size.
    """
    amps = []
    for _ in range(k):
        a0 = (Fraction(rng.randint(-4, 4), 4), Fraction(rng.randint(-4, 4), 4))
        amps.append([a0, (1 - a0[0], -a0[1])])
    psi = []
    for h in range(1 << k):
        v = (Fraction(1), Fraction(0))
        for i in range(k):
            v = _cmul(v, amps[i][(h >> (k - 1 - i)) & 1])
        psi.append(v)
    return psi


class QsoHolds:
    """qso1 and qso2 alternate on fresh rank-one product amplitudes."""

    name = "qso_holds"
    OPS_PER_S = 3

    def __init__(self, seed: int, seconds: float, root: Path) -> None:
        self.seed = seed

    def setup(self, rep: int) -> None:
        self.so = importlib.import_module("screenoff")
        self.site = self.so.CausalSite([(f"s{i}", 2) for i in range(1, N_QSITES + 1)], [])
        self.rng = random.Random(f"{self.name}:{self.seed}")
        warm_up(self, self.prepare_with(random.Random(f"{self.name}:{self.seed}:warm:{rep}"), 0))

    def prepare_with(self, rng, i: int):
        psi = product_amplitude(rng, N_QSITES)
        entries = [[_cmul(x, (y[0], -y[1])) for y in psi] for x in psi]
        model = self.so.QuantalModel(self.site, entries, positivity_witness=[(1, psi)])
        return model, "check_qso1" if i % 2 == 0 else "check_qso2"

    def prepare(self, i: int):
        return self.prepare_with(self.rng, i)

    def execute(self, inp):
        model, check = inp
        return getattr(self.so, check)(model)

    def verify(self, inp, report):
        pairs, equations = spacelike_pairs_on_antichain(N_QSITES, 4)
        expected = {"region_pairs": pairs, "equations_checked": equations}
        if report.verdict != HOLDS:
            return 1, f"verdict {report.verdict}, expected holds"
        if dict(report.stats) != expected:
            return 1, f"stats {dict(report.stats)} != {expected}"
        return 1, None


class QsoFuzz:
    """fuzz_equivalence over qso1-qso2 with the default shape and jobs=1.

    A run is a fixed campaign of ``fixed_ops`` blocks of FUZZ_COUNT model
    seeds, 0 upwards, about ``seconds`` of work at the reference speed; the
    benchmark seed rotates the order of the blocks.  Random fuzz models differ
    in cost by over 10x with their drawn shape, so a campaign drawn afresh per
    seed would measure the draw: with ~900 models a run on a 2-core host,
    verdicts_per_s and verdict_s.p50 spread by 6 % and 11 % across 5 seeds.
    No block repeats within a run, so no cache keyed by the model can serve
    a repeat.
    """

    name = "qso_fuzz"
    OPS_PER_S = 4

    def __init__(self, seed: int, seconds: float, root: Path) -> None:
        self.fixed_ops = max(11, round(seconds * self.OPS_PER_S))
        self.offset = seed % self.fixed_ops

    def setup(self, rep: int) -> None:
        self.so = importlib.import_module("screenoff")
        warm_up(self, -FUZZ_COUNT * (rep + 1))  # model seeds outside the campaign

    def prepare(self, i: int) -> int:
        return FUZZ_COUNT * ((self.offset + i) % self.fixed_ops)

    def execute(self, first_seed: int):
        return self.so.fuzz_equivalence(first_seed, FUZZ_COUNT, "qso1-qso2", jobs=1)

    def verify(self, first_seed, report):
        stats = report.stats
        if report.verdict != HOLDS:
            return 0, f"verdict {report.verdict}, expected holds"
        if not (stats["models"] == stats["agreements"] == FUZZ_COUNT):
            return 0, f"agreements {stats['agreements']} of {stats['models']}"
        return 2 * FUZZ_COUNT, None


# -- cli_cold: one fresh interpreter per check --------------------------------


def emit_corpus(work: Path) -> list[tuple[list[str], str]]:
    """Write every pinned corpus model to ``work``; return (argv, pinned verdict)s.

    One `check` argv per pinned (entry, condition) pair, plus `corpus verify`.
    """
    so = importlib.import_module("screenoff")
    work.mkdir(parents=True, exist_ok=True)
    out = []
    for entry, verdicts in sorted(PINNED.items()):
        built = so.builtin(entry)
        path = work / f"{entry}.json"
        path.write_text(so.render_model_json(built.model, built.named_events or None))
        for token, verdict in sorted(verdicts.items()):
            extra = []
            if token.startswith("multi-so[n="):
                extra = ["--n", token[len("multi-so[n="):-1]]
                token = "multi-so"
            out.append((["check", token, str(path), *extra, "--format", "json"], verdict))
    out.append((["corpus", "verify", "--format", "json"], HOLDS))
    return out


class CliCold:
    """Each op runs one `python -m screenoff.cli` process on a pinned corpus file.

    A run covers every argv the same whole number of times, in an order
    shuffled by the seed, so every run measures the same mix of commands.
    """

    name = "cli_cold"
    OPS_PER_S = 3
    # Ops are scaled by a bare interpreter start, which needs the same kernel
    # and start-up work as the op; a pure-Python loop in the parent tracked
    # it poorly (p50 spread 9 % across seeds).
    REFERENCE_CALIBRATION_S = 0.08

    def __init__(self, seed: int, seconds: float, root: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.root = root
        self.work = root / ".perfbench_work" / str(os.getpid())
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def setup(self, rep: int) -> None:
        self.cli = importlib.import_module("screenoff.cli")
        self.ops = emit_corpus(self.work)
        random.Random(f"{self.name}:{self.seed}").shuffle(self.ops)
        cycles = max(1, round(self.seconds * self.OPS_PER_S / len(self.ops)))
        self.fixed_ops = cycles * len(self.ops)
        warm_up(self, self.ops[rep % len(self.ops)])

    def calibrate(self) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=self.root, env=self.env, check=True)
        return time.perf_counter() - t0

    def prepare(self, i: int):
        return self.ops[i % len(self.ops)]

    def execute(self, inp):
        argv, _ = inp
        p = subprocess.run(
            [sys.executable, "-m", "screenoff.cli", *argv],
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120,
        )
        return p.returncode, p.stdout, p.stderr

    def execute_inprocess(self, inp):
        argv, _ = inp
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def verify(self, inp, result):
        _, expected = inp
        code, stdout, stderr = result
        want_code = 1 if expected == VIOLATED else 0
        if code != want_code:
            return 1, f"exit code {code}, expected {want_code}: {stderr.strip()[:200]}"
        verdict = json.loads(stdout)["verdict"]
        if verdict != expected:
            return 1, f"verdict {verdict}, pinned {expected}"
        return 1, None

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass  # another run still uses the work directory


WORKLOADS = {w.name: w for w in (SoHolds, SoLateViolation, QsoHolds, QsoFuzz, CliCold)}
