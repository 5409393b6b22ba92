"""Built-in example models, random-model generators, and the fuzz harness.

The catalogue pins each example's verdicts; ``verify_corpus`` re-derives all
of them, so every entry doubles as a regression test.  The generators are
pure functions of their parameters — any fuzz finding can be replayed from
its seed alone.
"""
from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping, NamedTuple

from .conditions import CONDITIONS, FUZZ_PAIRS, QUANTAL, Condition, check_jobs
from .events import HISTORY_LIMIT, CapacityError, history_index, n_histories
from .exprs import parse_event
from .modelfile import render_model
from .order import CausalSite, iter_bits
from .quantal import CF_ZERO, ComplexFraction, QuantalModel
from .report import HOLDS, VIOLATED, CheckReport, Counterexample
from .stochastic import StochasticModel, _deterministic_local

F = Fraction


class CorpusError(ValueError):
    """Raised for unknown corpus names."""


class CorpusEntry(NamedTuple):
    """A named example model with its frozen expected verdicts.

    ``expected`` maps report condition tokens (e.g. ``"so1"``,
    ``"multi-so[n=3]"``) to verdict strings; ``named_events`` maps event
    names to expression strings on the entry's site.
    """

    name: str
    model: StochasticModel | QuantalModel
    expected: Mapping[str, str]
    note: str
    named_events: Mapping[str, str]

    def event(self, name: str) -> int:
        return parse_event(self.model.site, self.named_events[name])


def _sparse(site: CausalSite, cells: Mapping[tuple, Fraction]) -> StochasticModel:
    weights = [F(0)] * n_histories(site)
    for digits, w in cells.items():
        weights[history_index(site, digits)] = w
    return StochasticModel(site, weights)


# -- stochastic catalogue ---------------------------------------------------


def _illusionist_coins() -> CorpusEntry:
    site = CausalSite(
        [("c", 2), ("a_s", 2), ("b_s", 2)], [("c", "a_s"), ("c", "b_s")]
    )
    model = _sparse(site, {(0, 0, 1): F(1, 2), (1, 1, 0): F(1, 2)})
    return CorpusEntry(
        name="illusionist_coins",
        model=model,
        expected={
            "so1": HOLDS,
            "so2": HOLDS,
            "so2w": HOLDS,
            "wrc": HOLDS,
            "wrc-cond": HOLDS,
            "penrose-percival": HOLDS,
        },
        named_events={"A": "a_s=0", "B": "b_s=0", "C": "c=0"},
        note=(
            "perfectly anticorrelated coin pair driven by a shared binary "
            "switch strictly below both; conditioning on the switch makes the "
            "outcomes deterministic, so every screening condition holds "
            "(verdicts pinned by exhaustive enumeration of the 8 histories)"
        ),
    )


def _wizard_simpson() -> CorpusEntry:
    site = CausalSite(
        [("sel", 2), ("a_w", 2), ("b_w", 2)], [("sel", "a_w"), ("sel", "b_w")]
    )
    model = _sparse(
        site,
        {
            (0, 0, 1): F(1, 4),
            (0, 1, 0): F(1, 4),
            (1, 0, 0): F(1, 4),
            (1, 1, 1): F(1, 4),
        },
    )
    return CorpusEntry(
        name="wizard_simpson",
        model=model,
        expected={
            "so1": VIOLATED,
            "so2": VIOLATED,
            "so2w": VIOLATED,
            "wrc": HOLDS,
            "wrc-cond": VIOLATED,
            "penrose-percival": VIOLATED,
        },
        named_events={"A": "a_w=0", "B": "b_w=0", "S": "sel=0"},
        note=(
            "marginally independent outcome pair (mu(A&B) = 1/4 = mu(A)mu(B)) "
            "that becomes perfectly anticorrelated or correlated once the "
            "selection element below both is fixed — a Simpson reversal, so "
            "conditioning on the past breaks the factorization it is supposed "
            "to secure (verdicts pinned by exhaustive enumeration)"
        ),
    )


def _three_pair_coins() -> CorpusEntry:
    site = CausalSite([("c", 3), ("a", 2), ("b", 2)], [("c", "a"), ("c", "b")])
    p = (F(1, 5), F(2, 5), F(4, 5))
    q = (F(4, 5), F(2, 5), F(1, 5))
    cells = {}
    for c in range(3):
        for a in range(2):
            for b in range(2):
                cells[(c, a, b)] = (
                    F(1, 3)
                    * (p[c] if a == 0 else 1 - p[c])
                    * (q[c] if b == 0 else 1 - q[c])
                )
    return CorpusEntry(
        name="three_pair_coins",
        model=_sparse(site, cells),
        expected={
            "so1": HOLDS,
            "so2": HOLDS,
            "wrc": HOLDS,
            "wrc-cond": HOLDS,
        },
        named_events={"A": "a=0", "B": "b=0", "C0": "c=0"},
        note=(
            "a ternary switch selects one of three coin pairs with opposed "
            "biases; the outcomes correlate marginally but factorize exactly "
            "given the switch value (verdicts pinned by exhaustive enumeration "
            "of the 12 histories)"
        ),
    )


def _bernstein_xor() -> CorpusEntry:
    site = CausalSite([("x", 2), ("y", 2), ("z", 2)], [])
    cells = {d: F(1, 4) for d in [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]}
    return CorpusEntry(
        name="bernstein_xor",
        model=_sparse(site, cells),
        expected={
            "so1": VIOLATED,
            "so2": VIOLATED,
            "multi-so[n=3]": VIOLATED,
        },
        named_events={"A1": "x=0", "A2": "y=0", "A3": "z=0"},
        note=(
            "uniform weight on the four even-parity assignments of three "
            "unordered binary elements: any two are independent (each product "
            "is 1/4) yet the triple intersection has weight 1/4, not 1/8 — "
            "pairwise screening already fails against the merged region "
            "(verdicts pinned by exhaustive enumeration)"
        ),
    )


def _pr_box() -> CorpusEntry:
    site = CausalSite(
        [("x", 2), ("y", 2), ("a", 2), ("b", 2)], [("x", "a"), ("y", "b")]
    )
    cells = {}
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    if a ^ b == (x & y):
                        cells[(x, y, a, b)] = F(1, 8)
    return CorpusEntry(
        name="pr_box",
        model=_sparse(site, cells),
        expected={
            "so1": VIOLATED,
            "so2": VIOLATED,
            "so2w": VIOLATED,
            "wrc": VIOLATED,
            "wrc-cond": VIOLATED,
            "penrose-percival": VIOLATED,
        },
        named_events={"A": "x=0 & a=0", "B": "y=0 & b=0"},
        note=(
            "maximally nonsignalling box: outputs satisfy a XOR b = x AND y "
            "with uniform inputs; mu(A&B) = 1/8 against mu(A)mu(B) = 1/16, and "
            "the two wings share no past at all, so nothing can screen the "
            "correlation (verdicts pinned by exhaustive enumeration)"
        ),
    )


def _initial_correlation() -> CorpusEntry:
    site = CausalSite(
        [("i1", 2), ("i2", 2), ("d1", 2), ("d2", 2)],
        [("i1", "d1"), ("i2", "d2")],
    )
    model = _sparse(site, {(0, 0, 0, 0): F(1, 2), (1, 1, 1, 1): F(1, 2)})
    return CorpusEntry(
        name="initial_correlation",
        model=model,
        expected={
            "so1": VIOLATED,
            "so2": VIOLATED,
            "so2w": HOLDS,
        },
        named_events={"A": "d1=0", "B": "d2=0"},
        note=(
            "two perfectly correlated initial elements, each copied by a "
            "descendant: the initial pair has an empty past, so the plain "
            "screening conditions fail, while the variant that skips regions "
            "touching the initial layer holds — the descendants are screened "
            "by their parents (verdicts pinned by exhaustive enumeration)"
        ),
    )


def _deep_past() -> CorpusEntry:
    site = CausalSite(
        [("r", 2), ("i", 2), ("l", 2), ("lp", 2)],
        [("r", "i"), ("i", "l"), ("r", "lp")],
    )
    model = _sparse(
        site,
        {
            (0, 0, 0, 0): F(3, 8),
            (0, 0, 1, 0): F(1, 8),
            (1, 1, 1, 1): F(3, 8),
            (1, 1, 0, 1): F(1, 8),
        },
    )
    return CorpusEntry(
        name="deep_past",
        model=model,
        expected={
            "so1": HOLDS,
            "so2": HOLDS,
            "penrose-percival": HOLDS,
        },
        named_events={"A": "l=0", "B": "lp=0"},
        note=(
            "a two-step chain next to a one-step chain off the same root: the "
            "deep element sees the root only through an intermediary, giving "
            "8 past dissections against 6 spacelike pairs, so the "
            "dissection-based condition is probed beyond the mutual-past one "
            "(verdicts pinned by exhaustive enumeration of the 16 histories)"
        ),
    )


# -- quantal catalogue ------------------------------------------------------


def _decohered(m: StochasticModel) -> QuantalModel:
    """The measure of `m` on the diagonal of an otherwise zero matrix."""
    n = len(m._nums)
    re = [0] * (n * n)
    re[:: n + 1] = m._nums
    return QuantalModel._from_scaled(m.site, m._den, re, [0] * (n * n))


def _diagonal_embedding(base: CorpusEntry) -> CorpusEntry:
    expected = {"diag-reduce": HOLDS}
    if "so1" in base.expected:
        expected["qso1"] = base.expected["so1"]
    if "so2" in base.expected:
        expected["qso2"] = base.expected["so2"]
    return CorpusEntry(
        name=base.name + "_diag",
        model=_decohered(base.model),
        expected=expected,
        named_events=base.named_events,
        note=(
            f"fully decohered embedding of {base.name}: the classical weights "
            "on the diagonal, every off-diagonal entry zero, so the quantal "
            "checks must reproduce the classical verdicts exactly"
        ),
    )


def _product_quantal() -> CorpusEntry:
    site = CausalSite([("s1", 2), ("s2", 2)], [])
    psa = [ComplexFraction(F(3, 5)), ComplexFraction(F(2, 5))]
    psb = [ComplexFraction(F(1, 2)), ComplexFraction(F(1, 2))]
    psi = [psa[h1] * psb[h2] for h1 in range(2) for h2 in range(2)]
    entries = [[psi[h] * psi[g].conjugate() for g in range(4)] for h in range(4)]
    model = QuantalModel(site, entries, positivity_witness=[(F(1), psi)])
    return CorpusEntry(
        name="product_quantal",
        model=model,
        expected={"qso1": HOLDS, "qso2": HOLDS},
        named_events={"A": "s1=0", "B": "s2=0"},
        note=(
            "rank-one matrix whose amplitude is a product of one amplitude "
            "per element: interference never couples the two spacelike "
            "elements, and the product rule holds in every pseudo-atom "
            "equation (pinned by exhaustive enumeration)"
        ),
    )


def _entangled_rank1() -> CorpusEntry:
    site = CausalSite([("s1", 2), ("s2", 2)], [])
    psi = [
        ComplexFraction(F(1, 2)),
        CF_ZERO,
        CF_ZERO,
        ComplexFraction(F(0), F(1, 2)),
    ]
    entries = [
        [psi[h] * psi[g].conjugate() * 2 for g in range(4)] for h in range(4)
    ]
    model = QuantalModel(site, entries, positivity_witness=[(F(2), psi)])
    return CorpusEntry(
        name="entangled_rank1",
        model=model,
        expected={"qso1": VIOLATED, "qso2": VIOLATED},
        named_events={"A": "s1=0", "B": "s2=0"},
        note=(
            "rank-one matrix concentrated on the two agreeing outcomes of a "
            "spacelike pair with a quarter-turn relative phase; the pair has "
            "no past, and the atom-level product rule fails: 1/2 against 1/4 "
            "(pinned by exhaustive enumeration)"
        ),
    )


_STOCHASTIC_BUILDERS: tuple[Callable[[], CorpusEntry], ...] = (
    _illusionist_coins,
    _wizard_simpson,
    _three_pair_coins,
    _bernstein_xor,
    _pr_box,
    _initial_correlation,
    _deep_past,
)


def _catalogue() -> dict[str, Callable[[], CorpusEntry]]:
    cat: dict[str, Callable[[], CorpusEntry]] = {}
    for build in _STOCHASTIC_BUILDERS:
        entry = build()
        cat[entry.name] = build
        cat[entry.name + "_diag"] = (
            lambda b=build: _diagonal_embedding(b())
        )
    cat["product_quantal"] = _product_quantal
    cat["entangled_rank1"] = _entangled_rank1
    return cat


_CATALOGUE = _catalogue()


def corpus_names() -> tuple[str, ...]:
    return tuple(_CATALOGUE)


def builtin(name: str) -> CorpusEntry:
    """Return the named corpus entry, rebuilt fresh."""
    try:
        build = _CATALOGUE[name]
    except KeyError:
        known = ", ".join(corpus_names())
        raise CorpusError(
            f"corpus error: unknown model {name!r}; known names: {known}"
        ) from None
    return build()


def corpus_entries() -> list[CorpusEntry]:
    return [builtin(name) for name in corpus_names()]


# -- conditions by report token ---------------------------------------------

# Most models one fuzz run draws; each is a task held in memory until the end.
FUZZ_COUNT_LIMIT = 100_000


def _resolve_token(token: str) -> tuple[Condition, dict]:
    """The row and runner options of a report token: "so1", "gen-so[all]", "multi-so[n=3]"."""
    name, bracket, param = token.partition("[")
    options = {}
    if name == "gen-so" and bracket:
        options = {"selector": param[:-1]}
    elif name == "multi-so" and param.startswith("n="):
        options = {"n": int(param[2:-1])}
    elif bracket or name not in CONDITIONS or name in ("gen-so", "multi-so"):
        raise CorpusError(f"corpus error: unknown condition token {token!r}")
    return CONDITIONS[name], options


def run_condition(entry: CorpusEntry, token: str) -> CheckReport:
    """Run the check named by an expected-verdict token on a corpus entry."""
    row, options = _resolve_token(token)
    a = b = None
    if row.takes_events:
        a, b = entry.event("A"), entry.event("B")
    return row.run(entry.model, a, b, **options)


def verify_corpus() -> CheckReport:
    """Re-derive every entry's expected verdicts; any mismatch is a failure."""
    condition = "corpus-verify"
    entries = 0
    checked = 0
    for entry in corpus_entries():
        entries += 1
        for token, expected in sorted(entry.expected.items()):
            actual = run_condition(entry, token).verdict
            checked += 1
            if actual != expected:
                return CheckReport(
                    condition,
                    VIOLATED,
                    counterexample=Counterexample(
                        regions=(),
                        events=(),
                        values=(
                            ("entry", entry.name),
                            ("condition", token),
                            ("expected", expected),
                            ("actual", actual),
                        ),
                        note="a pinned corpus verdict no longer reproduces",
                    ),
                    stats={"entries": entries, "verdicts_checked": checked},
                )
    return CheckReport(
        condition, HOLDS, stats={"entries": entries, "verdicts_checked": checked}
    )


# -- random generators ------------------------------------------------------

# Most matrix entries (n^2 on n histories), or witness amplitudes (k vectors
# of n), that a random quantal model may need.  A generated model holds only
# its witness vectors: at the limit, 1,024 histories take 2-3 ms to generate,
# under 1 ms to validate and a 17 MB peak RSS.  The limit still bounds what
# is n^2 long: the matrix, built when the model's entries are read (0.4 s and
# a 75 MB peak there; 2-core host, one fresh process per model), and the
# table a scan of the whole site builds.  Each doubling of the histories
# quadruples those.
QUANTAL_ENTRY_LIMIT = 1 << 20


def _rng(*key) -> random.Random:
    return random.Random(":".join(str(k) for k in key))


@lru_cache(maxsize=None)
def _interned(site: CausalSite) -> CausalSite:
    """The first drawn site equal to this one, so that site-keyed caches hit by identity."""
    return site


def _random_site(
    rng: random.Random, n_sites: int, max_alphabet: int, edge_density: float
) -> CausalSite:
    if n_sites < 1:
        raise ValueError("corpus error: n_sites must be at least 1")
    if max_alphabet < 2:
        raise ValueError(f"corpus error: max_alphabet must be at least 2, not {max_alphabet}")
    if n_sites >= HISTORY_LIMIT.bit_length():  # 2^n_sites > HISTORY_LIMIT: every alphabet is at least 2
        raise CapacityError(
            f"capacity error: {n_sites} sites of at least 2 values each have at least "
            f"2^{n_sites} histories; the limit is {HISTORY_LIMIT}"
        )
    pairs = tuple(
        (f"t{i}", rng.randrange(2, max_alphabet + 1)) for i in range(n_sites)
    )
    relations = tuple(
        (f"t{i}", f"t{j}")
        for i in range(n_sites)
        for j in range(i + 1, n_sites)
        if rng.random() < edge_density
    )
    return _drawn_site(pairs, relations)


@lru_cache(maxsize=None)
def _drawn_site(pairs: tuple, relations: tuple) -> CausalSite:
    """The interned site of a drawn spec, built once per spec."""
    return _interned(CausalSite(pairs, relations))


def random_stochastic(
    seed: int,
    n_sites: int = 4,
    max_alphabet: int = 3,
    edge_density: float = 0.5,
) -> StochasticModel:
    """A reproducible random model: random order, random rational weights."""
    rng = _rng("stochastic", seed, n_sites, max_alphabet, edge_density)
    site = _random_site(rng, n_sites, max_alphabet, edge_density)
    nums = [rng.randrange(0, 4) for _ in range(n_histories(site))]
    if not any(nums):
        nums[rng.randrange(len(nums))] = 1
    return StochasticModel._from_scaled(site, sum(nums), nums)


def random_quantal(
    seed: int,
    n_sites: int = 4,
    max_alphabet: int = 2,
    rank: int = 3,
) -> QuantalModel:
    """A reproducible random interference matrix, held by its positivity witness.

    Drawn as a positively weighted sum of outer products of Gaussian-rational
    amplitude vectors, rescaled to total weight one, so validation always
    succeeds.  The model holds those terms alone, and builds its matrix only
    when it is read (`QuantalModel._from_terms`).
    """
    if rank < 1:
        raise ValueError("corpus error: rank must be at least 1")
    rng = _rng("quantal", seed, n_sites, max_alphabet, rank)
    site = _random_site(rng, n_sites, max_alphabet, 0.5)
    n = n_histories(site)
    _require_entries(n, n * n, f"a {n} x {n} matrix")
    k = rng.randrange(1, rank + 1)
    _require_entries(n, k * n, f"{k} witness vectors")
    weights, vectors, norm = _witness_terms(rng, n, k)
    return QuantalModel._from_terms(site, [(w, norm, 1, tuple(psi)) for w, psi in zip(weights, vectors)])


def _require_entries(n: int, count: int, what: str) -> None:
    """Refuse a random quantal model on `n` histories that needs more than QUANTAL_ENTRY_LIMIT entries."""
    if count > QUANTAL_ENTRY_LIMIT:
        raise CapacityError(
            f"capacity error: a random quantal model on {n} histories needs {what} "
            f"({count} entries); the limit is {QUANTAL_ENTRY_LIMIT} entries"
        )


def _witness_terms(rng: random.Random, n: int, k: int) -> tuple[list[int], list[list], int]:
    """k weights and Gaussian-integer vectors of length n with a nonzero sum, and their norm."""
    vectors = []
    weights = []
    norm = 0
    for _ in range(k):
        while True:
            psi = [(rng.randrange(-2, 3), rng.randrange(-2, 3)) for _ in range(n)]
            t_re = sum(a[0] for a in psi)
            t_im = sum(a[1] for a in psi)
            if t_re or t_im:
                break
        w = rng.randrange(1, 4)
        vectors.append(psi)
        weights.append(w)
        norm += w * (t_re * t_re + t_im * t_im)
    return weights, vectors, norm


def random_diagonal_quantal(
    seed: int, n_sites: int = 4, max_alphabet: int = 3
) -> QuantalModel:
    """A random classical measure embedded on the diagonal."""
    m = random_stochastic(seed, n_sites, max_alphabet)
    n = len(m._nums)
    _require_entries(n, n * n, f"a {n} x {n} matrix")
    return _decohered(m)


def random_deterministic_local(
    seed: int, n_sites: int = 4, max_alphabet: int = 2
) -> StochasticModel:
    """Random deterministic dynamics driven by independent initial choices."""
    rng = _rng("detlocal", seed, n_sites, max_alphabet)
    site = _random_site(rng, n_sites, max_alphabet, 0.5)
    init = site.initial_elements()
    dists = {}
    for e in iter_bits(init):
        k = site.alphabets[e]
        nums = [rng.randrange(0, 3) for _ in range(k)]
        if not any(nums):
            nums[rng.randrange(k)] = 1
        dists[e] = sum(nums), nums
    rules = {}
    for e in range(site.n):
        bit = 1 << e
        if init & bit:
            continue
        past_ids = site.region_ids(site.below[e] & ~bit)
        k = site.alphabets[e]
        table = {
            cfg: rng.randrange(k)
            for cfg in itertools.product(
                *(range(site.alphabets[site.index(s)]) for s in past_ids)
            )
        }
        rules[site.elements[e]] = lambda cfg, ids=past_ids, tab=table: tab[
            tuple(cfg[s] for s in ids)
        ]
    return _deterministic_local(site, dists, rules)


# -- equivalence fuzzing ----------------------------------------------------


def _fuzz_kind(pair: str) -> str:
    return _resolve_token(FUZZ_PAIRS[pair][0])[0].kind


def _fuzz_model(
    pair: str, model_seed: int, n_sites: int, max_alphabet: int, rank: int
) -> StochasticModel | QuantalModel:
    shape = _rng("fuzz-shape", pair, model_seed, n_sites, max_alphabet)
    n = shape.randrange(2, n_sites + 1) if n_sites > 2 else n_sites
    if _fuzz_kind(pair) == QUANTAL:
        return random_quantal(model_seed, n, max_alphabet, rank)
    return random_stochastic(model_seed, n, max_alphabet)


def _fuzz_one(args: tuple) -> tuple[int, str, str]:
    pair, model_seed, n_sites, max_alphabet, rank = args
    model = _fuzz_model(pair, model_seed, n_sites, max_alphabet, rank)
    verdicts = []
    for token in FUZZ_PAIRS[pair][:2]:
        row, options = _resolve_token(token)
        verdicts.append(row.run(model, None, None, **options).verdict)
    return model_seed, *verdicts


def fuzz_equivalence(
    seed: int,
    count: int,
    pair: str,
    n_sites: int | None = None,
    max_alphabet: int | None = None,
    rank: int = 3,
    jobs: int = 1,
) -> CheckReport:
    """Run a pair of checks on ``count`` seeded models and compare verdicts.

    Proved-equivalent pairs make a disagreement a violation; so1-generalized_all,
    a one-way implication, only records it.  The report is identical for any
    ``jobs`` setting.
    """
    if pair not in FUZZ_PAIRS:
        raise ValueError(
            f"corpus error: unknown fuzz pair {pair!r}; known: {', '.join(FUZZ_PAIRS)}"
        )
    if count < 1:
        raise ValueError("corpus error: fuzz count must be at least 1")
    if count > FUZZ_COUNT_LIMIT:
        raise CapacityError(
            f"capacity error: fuzz count {count} is over the limit of "
            f"{FUZZ_COUNT_LIMIT} models per run"
        )
    check_jobs(jobs)
    sites = n_sites if n_sites is not None else (4 if _fuzz_kind(pair) == QUANTAL else 5)
    alphabet = max_alphabet if max_alphabet is not None else 2
    tasks = [(pair, seed + i, sites, alphabet, rank) for i in range(count)]
    if jobs > 1:
        from multiprocessing import Pool  # only worker runs pay for the import

        with Pool(jobs) as pool:
            results = pool.map(_fuzz_one, tasks, chunksize=max(1, count // (4 * jobs)))
    else:
        results = [_fuzz_one(t) for t in tasks]

    cond1, cond2, proved = FUZZ_PAIRS[pair]
    condition = f"fuzz[{pair}]"
    agreements = 0
    verdict_counts: dict[str, int] = {}
    first_disagreement = None
    for model_seed, v1, v2 in results:
        verdict_counts[v1] = verdict_counts.get(v1, 0) + 1
        if v1 == v2:
            agreements += 1
        elif first_disagreement is None:
            first_disagreement = (model_seed, v1, v2)
    stats = {
        "pair": pair,
        "models": count,
        "agreements": agreements,
        "verdicts": dict(sorted(verdict_counts.items())),
    }
    if first_disagreement is None:
        return CheckReport(condition, HOLDS, stats=stats)

    model_seed, v1, v2 = first_disagreement
    model = _fuzz_model(pair, model_seed, sites, alphabet, rank)
    serialized = render_model(model)
    if proved:
        return CheckReport(
            condition,
            VIOLATED,
            counterexample=Counterexample(
                regions=(),
                events=(),
                values=(
                    ("seed", str(model_seed)),
                    (cond1, v1),
                    (cond2, v2),
                    ("model", _compact_json(serialized)),
                ),
                note=(
                    "the paired checks disagree on this model; replay it by "
                    "fuzzing the given seed with count 1 and the same shape "
                    "parameters"
                ),
            ),
            stats=stats,
        )
    stats["first_disagreement_seed"] = model_seed
    stats["first_disagreement"] = {cond1: v1, cond2: v2}
    stats["first_disagreement_model"] = _compact_json(serialized)
    return CheckReport(condition, HOLDS, stats=stats)


def _compact_json(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))
