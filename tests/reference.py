"""Reference scans, builders and recorders that the test modules share.

Test modules import from here, from ``definitions`` and from
``pseudo_events``, and never from one another.  The references are the
Fraction-path producers the scaled-integer paths replaced and the per-pair
scans (``ref_screening``, ``ref_wrc``, ``ref_qso1``/``ref_qso2``) that
rebuild one table or d-value matrix per region pair, in the ordinal order of
``ref_units``; none runs the program's ``_screen``.  The quantal per-pair
scan is memoized by (model, regions, past), so ``ref_qso2`` reads
``ref_qso1``'s scans where their pasts coincide.
"""
from __future__ import annotations

import copy
import itertools
import json
import random
import sys
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm, prod

import pytest
from hypothesis import strategies as st

import screenoff.corpus as corpus_mod
import screenoff.stochastic as stochastic
from screenoff.corpus import _random_site, _rng, random_stochastic
from screenoff.events import (
    config_indices, event_ref, full_specifications, history_digits, history_index, n_configs, n_histories,
)
from screenoff.order import CausalSite, iter_bits
from screenoff.quantal import CF_ZERO, POSITIVITY_ENUMERATION_LIMIT, ComplexFraction, QuantalError, QuantalModel
from screenoff.report import HOLDS, VACUOUS, VIOLATED, CheckReport, Counterexample, format_complex, format_rational
from screenoff.stochastic import (
    CapacityError, StochasticModel, _spacelike_pairs, check_generalized_so, check_multi_so,
    check_penrose_percival, check_so1, check_so2, check_so2w,
)

from definitions import joint_past, multi_joint_past, mutual_past
from pseudo_events import CF_ONE

F = Fraction
CF = ComplexFraction


def chain(n: int) -> CausalSite:
    """e0 < e1 < ... < e(n-1), all binary."""
    sites = [(f"e{i}", 2) for i in range(n)]
    rels = [(f"e{i}", f"e{i+1}") for i in range(n - 1)]
    return CausalSite(sites, rels)


def antichain(n: int) -> CausalSite:
    return CausalSite([(f"e{i}", 2) for i in range(n)])


def diamond() -> CausalSite:
    """o below l and r, both below t."""
    return CausalSite(
        [("o", 2), ("l", 2), ("r", 2), ("t", 2)],
        [("o", "l"), ("o", "r"), ("l", "t"), ("r", "t")],
    )


def coin_site() -> CausalSite:
    """Choice element strictly below the two outcome elements."""
    return CausalSite(
        [("c", 2), ("a_s", 2), ("b_s", 2)],
        [("c", "a_s"), ("c", "b_s")],
    )


def sparse_model(site: CausalSite, entries: dict[tuple[int, ...], Fraction]) -> StochasticModel:
    weights = [F(0)] * n_histories(site)
    for digs, w in entries.items():
        weights[history_index(site, digs)] = w
    return StochasticModel(site, weights)


def anticorrelated_coins() -> StochasticModel:
    # shared source, then two perfectly anticorrelated outcomes
    return sparse_model(coin_site(), {(0, 0, 1): F(1, 2), (1, 1, 0): F(1, 2)})


def selection_reversal() -> StochasticModel:
    # outcomes independent overall but perfectly (anti)correlated within
    # each value of the selection element
    return sparse_model(
        coin_site(),
        {
            (0, 0, 1): F(1, 4),
            (0, 1, 0): F(1, 4),
            (1, 0, 0): F(1, 4),
            (1, 1, 1): F(1, 4),
        },
    )


def two_cell_correlate() -> StochasticModel:
    # uniform four-valued source; c=0 and c=1 move only a, c=2 and c=3 only b,
    # so no single source value correlates with both, but {c=0, c=2} does;
    # within c=0 the outcomes are tied beyond the source
    site = CausalSite([("c", 4), ("a", 2), ("b", 2)], [("c", "a"), ("c", "b")])
    pa = (F(3, 4), F(1, 4), F(1, 2), F(1, 2))  # mu(a=0 | c)
    pb = (F(1, 2), F(1, 2), F(3, 4), F(1, 4))  # mu(b=0 | c)
    entries = {}
    for c in range(4):
        for a in (0, 1):
            for b in (0, 1):
                wa = pa[c] if a == 0 else 1 - pa[c]
                wb = pb[c] if b == 0 else 1 - pb[c]
                entries[(c, a, b)] = F(1, 4) * wa * wb
    tied = {(0, 0): F(1, 2), (0, 1): F(1, 4), (1, 0): F(0), (1, 1): F(1, 4)}
    for (a, b), w in tied.items():
        entries[(0, a, b)] = F(1, 4) * w
    return sparse_model(site, entries)


def diagonal_model(site: CausalSite, weights) -> QuantalModel:
    n = n_histories(site)
    ws = list(weights)
    return QuantalModel(
        site, [[ws[h] if h == g else 0 for g in range(n)] for h in range(n)]
    )


def rank_one(site: CausalSite, amplitudes, weight=F(1)) -> QuantalModel:
    psi = [CF.of(a) for a in amplitudes]
    entries = [
        [psi[h] * psi[g].conjugate() * weight for g in range(len(psi))]
        for h in range(len(psi))
    ]
    return QuantalModel(site, entries, positivity_witness=[(weight, psi)])


def entangled_pair() -> QuantalModel:
    # amplitudes concentrate on the agreeing outcomes, quarter phase apart
    return rank_one(antichain(2), [CF(F(1, 2)), 0, 0, CF(F(0), F(1, 2))], weight=F(2))


def common_cause(rng: random.Random, n_leaves: int, coupled: bool) -> StochasticModel:
    """Ternary root below binary leaves, independent given the root.

    With ``coupled`` the last two leaves are tied beyond the root, so the
    scan runs through every earlier pair before it fails.
    """
    elements = [("c", 3)] + [(f"l{i}", 2) for i in range(n_leaves)]
    site = CausalSite(elements, [("c", f"l{i}") for i in range(n_leaves)])
    weights = []
    leaf_ps = [[F(rng.randrange(1, 5), 5) for _ in range(n_leaves)] for _ in range(3)]
    for digs in itertools.product(range(3), *([range(2)] * n_leaves)):
        c, leaves = digs[0], digs[1:]
        w = F(1, 3)
        for p, v in zip(leaf_ps[c], leaves):
            w *= p if v else 1 - p
        if coupled:
            w *= 2 if leaves[-1] == leaves[-2] else 0
        weights.append(w)
    total = sum(weights)
    return StochasticModel(site, [w / total for w in weights])


def local_dynamics(rng: random.Random, site: CausalSite, zero_share: float = 0.0) -> StochasticModel:
    """Each element's value drawn given the values of its strict past.

    Such models satisfy so1 and so2 (and so so2w), so every pair's scan runs
    to the end; with ``zero_share`` some conditional probabilities are 0, so
    some past cells carry no weight.
    """
    tables = []
    for e in range(site.n):
        strict = site.past(1 << e) & ~(1 << e)
        configs = itertools.product(*(range(site.alphabets[i]) for i in iter_bits(strict)))
        table = {}
        for cfg in configs:
            nums = [0 if rng.random() < zero_share else rng.randrange(1, 4)
                    for _ in range(site.alphabets[e])]
            nums[rng.randrange(len(nums))] += 1
            table[cfg] = [F(x, sum(nums)) for x in nums]
        tables.append((tuple(iter_bits(strict)), table))
    weights = []
    for digs in itertools.product(*(range(k) for k in site.alphabets)):
        w = F(1)
        for e, (parents, table) in enumerate(tables):
            w *= table[tuple(digs[i] for i in parents)][digs[e]]
        weights.append(w)
    return StochasticModel(site, weights)


def two_roots(rng: random.Random, n_x: int, tie: tuple[int, int], null_roots: tuple[bool, bool]) -> StochasticModel:
    """Ternary roots c below binary leaves x0, x1, ... and d below y0, y1, y2, declared in that order.

    Each leaf is drawn given its root alone, except that the y leaves in
    `tie` take one value; a root marked in `null_roots` has a value of
    weight 0, so every conditioning region holding it has null cells.
    """
    elements = [("c", 3)] + [(f"x{i}", 2) for i in range(n_x)] + [("d", 3)] + [(f"y{i}", 2) for i in range(3)]
    site = CausalSite(elements, [("c", f"x{i}") for i in range(n_x)] + [("d", f"y{i}") for i in range(3)])
    roots = [[rng.randrange(1, 4) for _ in range(3)] for _ in null_roots]
    for weights, null in zip(roots, null_roots):
        weights[rng.randrange(3)] *= not null
    leaf_ps = [[[F(rng.randrange(1, 5), 5) for _ in range(n)] for _ in range(3)] for n in (n_x, 3)]
    weights = []
    for digits in itertools.product(*(range(k) for k in site.alphabets)):
        c, xs, d, ys = digits[0], digits[1 : n_x + 1], digits[n_x + 1], digits[n_x + 2 :]
        w = F(roots[0][c] * roots[1][d] * (ys[tie[0]] == ys[tie[1]]))
        for p, v in zip(leaf_ps[0][c] + leaf_ps[1][d], xs + ys):
            w *= p if v else 1 - p
        weights.append(w)
    total = sum(weights)
    return StochasticModel(site, [w / total for w in weights])


def leaves_with_coupled_blocks(
    rng: random.Random, n_leaves: int, blocks, xor: bool = False, root_weights=(1, 2, 3),
) -> StochasticModel:
    """Ternary root below binary leaves; the leaves of each block take one value.

    Outside the blocks the leaves are independent given the root, and so
    are the blocks, so the dependence given the root lies within each block.
    With ``xor`` the first block is a triple (x, y, z) of fair leaves with
    z = x XOR y instead: pairwise independent given the root, but not
    jointly.  ``root_weights`` may give a root value weight 0.
    """
    elements = [("c", 3)] + [(f"l{i}", 2) for i in range(n_leaves)]
    site = CausalSite(elements, [("c", f"l{i}") for i in range(n_leaves)])
    leaf_ps = [[F(rng.randrange(1, 5), 5) for _ in range(n_leaves)] for _ in range(3)]
    if xor:
        for ps in leaf_ps:
            for i in blocks[0]:
                ps[i] = F(1, 2)
    weights = []
    for c, *leaves in itertools.product(range(3), *([range(2)] * n_leaves)):
        w = F(root_weights[c])
        for p, v in zip(leaf_ps[c], leaves):
            w *= p if v else 1 - p
        tied = all(len({leaves[i] for i in block}) == 1 for block in blocks[xor:])
        if xor:
            x, y, z = blocks[0]
            tied = tied and leaves[z] == leaves[x] ^ leaves[y]
        weights.append(w if tied else F(0))
    total = sum(weights)
    return StochasticModel(site, [w / total for w in weights])


@st.composite
def posets(draw, max_elements: int = 7):
    """A site of 1 to `max_elements` elements under random order relations, declared in a drawn order."""
    n = draw(st.integers(1, max_elements))
    place = draw(st.permutations(range(n)))
    edges = [(place[i], place[j]) for i in range(n) for j in range(i + 1, n)]
    relations = draw(st.lists(st.sampled_from(edges), unique=True)) if edges else []
    return CausalSite([(f"e{i}", 2) for i in range(n)], [(f"e{i}", f"e{j}") for i, j in relations])


@st.composite
def leaf_blocks(draw) -> StochasticModel:
    """4-7 leaves below a root, with 1-3 disjoint tied blocks of 2-3 leaves.

    In one variant the first block is an XOR triple, pairwise independent
    but not jointly: its leaves are singleton blocks, and the walk falls
    back to dominators.  Some roots have a value of weight 0.
    """
    n_leaves = draw(st.integers(4, 7))
    order = draw(st.permutations(range(n_leaves)))
    blocks, used = [], 0
    for size in draw(st.lists(st.integers(2, 3), min_size=1, max_size=3)):
        if used + size <= n_leaves:
            blocks.append(tuple(sorted(order[used:used + size])))
            used += size
    xor = len(blocks[0]) == 3 and draw(st.booleans())
    root_weights = draw(st.sampled_from([(1, 2, 3), (1, 0, 2)]))
    rng = random.Random(draw(st.integers(0, 10**6)))
    return leaves_with_coupled_blocks(rng, n_leaves, blocks, xor, root_weights)


@st.composite
def proof_models(draw) -> StochasticModel:
    """A measure on a drawn poset of 1-6 binary elements.

    A product of the elements' marginals holds every planned check; two
    independent blocks, each with its own random joint, fail the
    certificates that span both blocks' dependences; a `random_stochastic`
    draw brings its own site and mostly fails early.  Some weights are 0.
    """
    kind = draw(st.sampled_from(["product", "blocks", "random"]))
    rng = random.Random(draw(st.integers(0, 10**6)))
    if kind == "random":
        return random_stochastic(rng.randrange(10**6), draw(st.integers(1, 6)), 2)
    site = draw(posets(6))
    if kind == "product":
        parts = [1 << e for e in range(site.n)]
    else:
        block = draw(st.integers(0, site.full_mask))
        parts = [p for p in (block, site.full_mask & ~block) if p]
    tables = []
    for part in parts:
        nums = [rng.choice((0, 1, 2, 3)) for _ in range(n_configs(site, part))]
        nums[rng.randrange(len(nums))] += 1
        tables.append((config_indices(site, part), nums, sum(nums)))
    den = prod(total for _, _, total in tables)
    weights = [prod(nums[cells[h]] for cells, nums, _ in tables) for h in range(n_histories(site))]
    return StochasticModel(site, [F(w, den) for w in weights])


def cold(model):
    """A copy of a model with an empty memo, so that a check of it makes its own scans and tables."""
    fresh = copy.copy(model)
    fresh._memo = {}
    return fresh


def _outcome(run) -> str:
    try:
        return json.dumps(run().to_json_dict(), sort_keys=True)
    except ValueError as e:
        return f"{type(e).__name__}: {e}"


def recorded_scans(monkeypatch) -> list:
    scans = []
    original = stochastic._factorization_failure
    monkeypatch.setattr(
        stochastic, "_factorization_failure",
        lambda m, regions, past, **k: scans.append((regions, past)) or original(m, regions, past, **k),
    )
    return scans


def clear_screenoff_caches() -> None:
    """Clear every `lru_cache` of the loaded screenoff modules."""
    for name, module in list(sys.modules.items()):
        if name == "screenoff" or name.startswith("screenoff."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def ref_random_stochastic(seed, n_sites=4, max_alphabet=3, edge_density=0.5):
    rng = corpus_mod._rng("stochastic", seed, n_sites, max_alphabet, edge_density)
    site = corpus_mod._random_site(rng, n_sites, max_alphabet, edge_density)
    nums = [rng.randrange(0, 4) for _ in range(n_histories(site))]
    if not any(nums):
        nums[rng.randrange(len(nums))] = 1
    total = sum(nums)
    return StochasticModel(site, [F(k, total) for k in nums])


def ref_deterministic_local_model(site, initial_dists, rules):
    init = site.initial_elements()
    dists = {e: [F(x) for x in initial_dists[site.elements[e]]] for e in iter_bits(init)}
    weights = []
    for h in range(n_histories(site)):
        digs = history_digits(site, h)
        w = F(1)
        for e in range(site.n):
            bit = 1 << e
            if init & bit:
                w *= dists[e][digs[e]]
            else:
                past = {site.elements[x]: digs[x] for x in iter_bits(site.past(bit) & ~bit)}
                if rules[site.elements[e]](past) != digs[e]:
                    w = F(0)
                    break
        weights.append(w)
    return StochasticModel(site, weights)


def ref_diagonal_embedding(model: StochasticModel) -> QuantalModel:
    n = len(model.weights)
    return QuantalModel(model.site, [[model.weights[h] if h == g else 0 for g in range(n)] for h in range(n)])


def ref_induced_measure(q: QuantalModel) -> StochasticModel:
    return StochasticModel(q.site, [q.entries[h][h].re for h in range(len(q.entries))])


def ref_d_value(q: QuantalModel, left: int, right: int) -> ComplexFraction:
    total = ComplexFraction()
    for h in iter_bits(left):
        for g in iter_bits(right):
            total = total + q.entries[h][g]
    return total


def reference_random_quantal(seed, n_sites=4, max_alphabet=2, rank=3):
    """(site, entries, witness) built in ComplexFraction arithmetic."""
    rng = _rng("quantal", seed, n_sites, max_alphabet, rank)
    site = _random_site(rng, n_sites, max_alphabet, 0.5)
    n = 1
    for k in site.alphabets:
        n *= k
    k = rng.randrange(1, rank + 1)
    vectors = []
    weights = []
    for _ in range(k):
        while True:
            psi = [
                ComplexFraction(F(rng.randrange(-2, 3)), F(rng.randrange(-2, 3)))
                for _ in range(n)
            ]
            total = CF_ZERO
            for a in psi:
                total = total + a
            if total:
                break
        vectors.append((psi, total))
        weights.append(F(rng.randrange(1, 4)))
    norm = sum(
        w * (t.re * t.re + t.im * t.im) for w, (_, t) in zip(weights, vectors)
    )
    weights = [w / norm for w in weights]
    entries = [[CF_ZERO] * n for _ in range(n)]
    for w, (psi, _) in zip(weights, vectors):
        for h in range(n):
            for g in range(n):
                entries[h][g] = entries[h][g] + psi[h] * psi[g].conjugate() * w
    return site, entries, list(zip(weights, (p for p, _ in vectors)))


def reference_ints(entries):
    """(common denominator, real parts, imaginary parts), flat and row-major."""
    den = 1
    for row in entries:
        for x in row:
            den = lcm(den, x.re.denominator, x.im.denominator)
    flat = [x for row in entries for x in row]
    return den, tuple(int(x.re * den) for x in flat), tuple(int(x.im * den) for x in flat)


def reference_witness_check(entries, witness) -> None:
    n = len(entries)
    for w, vec in witness:
        if w <= 0:
            raise QuantalError(f"quantal error: witness weight {w} is not positive")
        if len(vec) != n:
            raise QuantalError(
                f"quantal error: witness vector has {len(vec)} amplitudes "
                f"for {n} histories"
            )
    for h in range(n):
        for g in range(n):
            acc = CF_ZERO
            for w, vec in witness:
                acc = acc + vec[h] * vec[g].conjugate() * w
            if acc != entries[h][g]:
                raise QuantalError(
                    "quantal error: positivity witness does not reproduce "
                    f"the matrix at entry ({h}, {g}): {acc} != {entries[h][g]}"
                )


def reference_positivity_failure(entries, witness):
    if witness is not None:
        reference_witness_check(entries, witness)
        return None
    n = len(entries)
    if all(not entries[h][g] for h in range(n) for g in range(n) if h != g):
        for h in range(n):
            if entries[h][h].re < 0:
                return 1 << h, entries[h][h].re
        return None
    if n > POSITIVITY_ENUMERATION_LIMIT:
        raise QuantalError(
            f"quantal error: positivity is uncertifiable: {n} histories exceed "
            f"the enumeration limit ({POSITIVITY_ENUMERATION_LIMIT}) and no "
            "positivity witness was given"
        )
    # every event in the same one-bit-flip order; flipping history b in or
    # out of the event changes its measure by D[b][b] plus b's cross terms
    members = set()
    total = CF_ZERO
    cur = 0
    for g in range(1, 1 << n):
        b = (g & -g).bit_length() - 1
        cur ^= 1 << b
        sign = 1 if cur >> b & 1 else -1
        members.discard(b)
        step = entries[b][b]
        for x in members:
            step = step + entries[b][x] + entries[x][b]
        total = total + step * sign
        if sign > 0:
            members.add(b)
        if total.re < 0:
            return cur, total.re
    return None


def reference_validate(site, entries, witness) -> CheckReport:
    condition = "quantal-axioms"
    n = len(entries)
    for h in range(n):
        for g in range(h, n):
            if entries[h][g] != entries[g][h].conjugate():
                cx = Counterexample(
                    values=(
                        ("axiom", "hermiticity"),
                        ("entry", f"({h}, {g})"),
                        (f"D[{h}][{g}]", str(entries[h][g])),
                        (f"conj(D[{g}][{h}])", str(entries[g][h].conjugate())),
                    ),
                    note=f"hermiticity fails at history pair ({h}, {g})",
                )
                return CheckReport(condition, VIOLATED, counterexample=cx)
    total = CF_ZERO
    for row in entries:
        for x in row:
            total = total + x
    if total != CF_ONE:
        cx = Counterexample(
            values=(("axiom", "normalization"), ("total", str(total))),
            note=f"matrix sums to {total}, not 1",
        )
        return CheckReport(condition, VIOLATED, counterexample=cx)
    bad = reference_positivity_failure(entries, witness)
    if bad is not None:
        event, value = bad
        cx = Counterexample(
            events=(("A", event_ref(site, event)),),
            values=(("axiom", "positivity"), ("mu_q(A)", str(value))),
            note=f"event {event:#x} has negative measure {value}",
        )
        return CheckReport(condition, VIOLATED, counterexample=cx, stats={"positivity": "enumerated"})
    mode = "witness" if witness is not None else "enumerated"
    return CheckReport(condition, HOLDS, stats={"positivity": mode})


def reference_model(site, entries, witness) -> QuantalModel:
    """A model whose scaled matrix and validation come from the reference code."""
    q = QuantalModel(site, entries, witness)
    q._den, q._re, q._im = reference_ints(q.entries)
    q._validation = reference_validate(site, q.entries, q.positivity_witness)
    return q


def ref_margins(cells: list[int], sizes: tuple[int, ...]) -> list[list[int]]:
    """Each region's margin, one sum per column and per row of the last axis."""
    margins = []
    joint = cells
    for size in reversed(sizes[1:]):
        margins.append([sum(joint[c::size]) for c in range(size)])
        joint = [sum(joint[t : t + size]) for t in range(0, len(joint), size)]
    margins.append(joint)
    margins.reverse()
    return margins


def ref_cell_weights(model, regions):
    """Scaled weights of the joint configuration cells of disjoint regions."""
    site = model.site
    sizes = tuple(n_configs(site, r) for r in regions)
    index_maps = [config_indices(site, r) for r in regions]
    table = [0] * prod(sizes)
    for h, w in enumerate(model._nums):
        if w:
            flat = 0
            for ci, size in zip(index_maps, sizes):
                flat = flat * size + ci[h]
            table[flat] += w
    return sizes, table


def ref_factorization_failure(model, event_regions, past):
    """The atom-by-atom scan of one pair's own (past, *event_regions) table."""
    sizes, table = ref_cell_weights(model, (past, *event_regions))
    n_past, atom_counts = sizes[0], sizes[1:]
    block = prod(atom_counts)
    coords = tuple(itertools.product(*(range(s) for s in atom_counts)))
    k = len(atom_counts)
    checked = 0
    skipped = 0
    for p in range(n_past):
        base = p * block
        w_past = sum(table[base : base + block])
        if w_past == 0:
            skipped += 1
            continue
        margins = [[0] * count for count in atom_counts]
        for flat in range(block):
            w = table[base + flat]
            if w:
                cs = coords[flat]
                for i in range(k):
                    margins[i][cs[i]] += w
        scale = w_past ** (k - 1)
        for flat in range(block):
            checked += 1
            cs = coords[flat]
            lhs = table[base + flat] * scale
            rhs = 1
            for i in range(k):
                rhs *= margins[i][cs[i]]
            if lhs != rhs:
                margin_ws = tuple(margins[i][cs[i]] for i in range(k))
                failure = stochastic._Failure(p, cs, w_past, table[base + flat], margin_ws)
                return failure, checked, skipped
    return None, checked, skipped


def ref_pairwise_screening(
    model, condition, past_of, eligible=None,
    vacuous_reason="no spacelike pairs of disjoint nonempty regions",
):
    """so1, so2 and so2w as a scan of every pair, in order."""
    pairs = 0
    checked = 0
    skipped = 0
    for ra, rb in stochastic._spacelike_pairs(model.site):
        if eligible is not None and not eligible(ra, rb):
            continue
        pairs += 1
        past = past_of(model.site, ra, rb)
        fail, c, s = ref_factorization_failure(model, (ra, rb), past)
        checked += c
        skipped += s
        if fail is not None:
            note = "conditional product rule fails for this atom pair given C"
            cx = stochastic._conditional_counterexample(
                model, (ra, rb), ("A", "B"), past, fail, note
            )
            stats = {"region_pairs": pairs, "atom_checks": checked,
                     "null_conditions_skipped": skipped}
            return CheckReport(condition, VIOLATED, counterexample=cx, stats=stats)
    stats = {"region_pairs": pairs, "atom_checks": checked, "null_conditions_skipped": skipped}
    if pairs == 0:
        return CheckReport(condition, VACUOUS, reason=vacuous_reason, stats=stats)
    return CheckReport(condition, HOLDS, stats=stats)


def ref_so1(model):
    return ref_pairwise_screening(model, "so1", mutual_past)


def ref_so2(model):
    return ref_pairwise_screening(model, "so2", joint_past)


def ref_so2w(model):
    init = model.site.initial_elements()
    return ref_pairwise_screening(
        model, "so2w", joint_past,
        eligible=lambda a, b: not ((a | b) & init),
        vacuous_reason="no spacelike region pairs clear of the initial elements",
    )


REF_SCREENING = {"so1": ref_so1, "so2": ref_so2, "so2w": ref_so2w}


def ref_wrc(model, conditioned=False, cap=12):
    """The common-correlate search, reading each pair's own (past, A, B) table.

    Every union of mutual-past cells is tried as a correlate, so a mutual past
    of more than `cap` cells is refused; at the default cap the error text is
    the program's.
    """
    site = model.site
    condition = "wrc-cond" if conditioned else "wrc"
    pairs = 0
    conditioning_events = 0
    correlated_pairs = 0
    for ra, rb in stochastic._spacelike_pairs(site):
        pairs += 1
        past = mutual_past(site, ra, rb)
        (n_past, na, nb), table = ref_cell_weights(model, (past, ra, rb))
        if n_past > cap:
            raise CapacityError(
                f"capacity error: wrc-cond needs 2^{n_past} conditioning events "
                f"for the mutual past of ({site.region_ids(ra)}, "
                f"{site.region_ids(rb)}); the limit is 2^{cap} ({cap} mutual-past cells)"
            )
        block = na * nb
        n_masks = 1 << n_past
        w_c = [0] * n_masks
        wa_c = [[0] * na for _ in range(n_masks)]
        wb_c = [[0] * nb for _ in range(n_masks)]
        wab_c = [[0] * block for _ in range(n_masks)]
        for cm in range(1, n_masks):
            # every event decidable in the mutual past is a union of its cells
            for p in iter_bits(cm):
                for a in range(na):
                    for b in range(nb):
                        w = table[p * block + a * nb + b]
                        w_c[cm] += w
                        wa_c[cm][a] += w
                        wb_c[cm][b] += w
                        wab_c[cm][a * nb + b] += w
        full_cm = n_masks - 1
        if conditioned:
            cond_masks = [cm for cm in range(1, n_masks) if w_c[cm] > 0]
        else:
            cond_masks = [full_cm] if w_c[full_cm] > 0 else []
        for cm_e in cond_masks:
            conditioning_events += 1
            we = w_c[cm_e]
            for a in range(na):
                wae = wa_c[cm_e][a]
                for b in range(nb):
                    wbe = wb_c[cm_e][b]
                    wabe = wab_c[cm_e][a * nb + b]
                    if wabe * we == wae * wbe:
                        continue
                    correlated_pairs += 1
                    found = any(
                        wa_c[cm_c & cm_e][a] * we != wae * w_c[cm_c & cm_e]
                        and wb_c[cm_c & cm_e][b] * we != wbe * w_c[cm_c & cm_e]
                        for cm_c in range(1, n_masks)
                    )
                    if found:
                        continue
                    cells = full_specifications(site, past)
                    e_mask = 0
                    for p in iter_bits(cm_e):
                        e_mask |= cells[p]
                    cx = Counterexample(
                        regions=(
                            ("A", site.region_ids(ra)),
                            ("B", site.region_ids(rb)),
                            ("past", site.region_ids(past)),
                        ),
                        events=(
                            ("A", event_ref(site, full_specifications(site, ra)[a], ra, a)),
                            ("B", event_ref(site, full_specifications(site, rb)[b], rb, b)),
                            ("E", event_ref(site, e_mask)),
                        ),
                        values=(
                            ("mu(E)", format_rational(F(we, model._den))),
                            ("mu(A&B|E)", format_rational(F(wabe, we))),
                            ("mu(A|E)", format_rational(F(wae, we))),
                            ("mu(B|E)", format_rational(F(wbe, we))),
                            ("product", format_rational(F(wae * wbe, we * we))),
                        ),
                        note=(
                            "correlated atom pair with no common correlate "
                            f"decidable in the mutual past ({n_masks - 1} "
                            "candidate events searched)"
                        ),
                    )
                    stats = {
                        "region_pairs": pairs,
                        "conditioning_events": conditioning_events,
                        "correlated_atom_pairs": correlated_pairs,
                    }
                    return CheckReport(condition, VIOLATED, counterexample=cx, stats=stats)
    stats = {
        "region_pairs": pairs,
        "conditioning_events": conditioning_events,
        "correlated_atom_pairs": correlated_pairs,
    }
    if pairs == 0:
        return CheckReport(
            condition, VACUOUS, reason="no spacelike pairs of disjoint nonempty regions", stats=stats
        )
    return CheckReport(condition, HOLDS, stats=stats)


def _outside_futures(site, a, b):
    """Everything clear of both futures: admissible for every spacelike pair."""
    return site.full_mask & ~(site.future(a) | site.future(b))


def _empty_region(site, a, b):
    """Inadmissible wherever the mutual past is nonempty."""
    return 0


def _whole_site(site, a, b):
    """Always inadmissible: it meets the future of the pair."""
    return site.full_mask


# gen-so's selectors by name: None for a built-in one, whose pasts are in
# REF_PAIR_PASTS, else the callable.
REF_SELECTORS = {
    **dict.fromkeys(("mutual", "joint", "bell", "all")),
    **{f.__name__: f for f in (_outside_futures, _empty_region, _whole_site)},
}


def ref_spacelike_pairs(site: CausalSite) -> list[tuple[int, int]]:
    """Every ordered pair of disjoint nonempty spacelike regions, ascending."""
    regions = range(1, site.full_mask + 1)
    return [(a, b) for a in regions for b in regions if not a & b and site.spacelike(a, b)]


@lru_cache(maxsize=None)
def ref_spacelike_tuples(site: CausalSite, n: int) -> list[tuple[int, ...]]:
    """Every ascending n-tuple of pairwise-disjoint pairwise-spacelike regions (cached: do not mutate)."""
    return [t for t in itertools.combinations(range(1, site.full_mask + 1), n)
            if all(not x & y and site.spacelike(x, y) for x, y in itertools.combinations(t, 2))]


# The conditioning regions of each pair under the planned pair checks other
# than so1, so2 and so2w, by check label, in ascending order.
REF_PAIR_PASTS = {
    "gen-so[mutual]": lambda site, a, b: [mutual_past(site, a, b)],
    "gen-so[joint]": lambda site, a, b: [joint_past(site, a, b)],
    "gen-so[bell]": lambda site, a, b: [site.past(a) & ~a],
    "gen-so[all]": lambda site, a, b: [
        p for p in site.regions()
        if not mutual_past(site, a, b) & ~p and not p & (site.future(a) | site.future(b))
    ],
    "penrose-percival": lambda site, a, b: [p for p, _ in site.enumerate_dissections(a, b)],
}


def ref_admissible(site: CausalSite, a: int, b: int, past: int) -> None:
    """Refuse a gen-so selection unless it holds the mutual past and avoids both futures."""
    problem = None
    if mutual_past(site, a, b) & ~past:
        problem = "does not contain the mutual past"
    elif past & (site.future(a) | site.future(b)):
        problem = "intersects the future of the pair"
    if problem:
        raise stochastic.SelectorError(
            f"selector error: region {site.region_ids(past)} for pair "
            f"({site.region_ids(a)}, {site.region_ids(b)}) {problem}"
        )


def ref_units(label: str, site: CausalSite):
    """The ordinal steps of a planned check as (regions, past), from `CausalSite` methods alone.

    gen-so's selections are checked as they stream, so an inadmissible one
    raises at its own pair.
    """
    if label.startswith("multi-so[n="):
        for regions in ref_spacelike_tuples(site, int(label[len("multi-so[n="):-1])):
            yield regions, multi_joint_past(site, regions)
        return
    pasts_of = REF_PAIR_PASTS.get(label)
    if pasts_of is None:  # a callable gen-so selector
        selector = REF_SELECTORS[label[len("gen-so["):-1]]
        pasts_of = lambda site, a, b: [selector(site, a, b)]
    for a, b in ref_spacelike_pairs(site):
        for past in pasts_of(site, a, b):
            if label.startswith("gen-so["):
                ref_admissible(site, a, b, past)
            yield (a, b), past


def ref_screening(label: str, model: StochasticModel) -> CheckReport:
    """A planned check as a scan of every step of `ref_units`, in order.

    Units (a change of regions) and steps are counted here, and every step
    is scanned by `ref_factorization_failure`: no code of the program's
    driver runs.
    """
    if label in REF_SCREENING:
        return REF_SCREENING[label](model)
    site = model.site
    names, unit_key, step_key = ("A", "B"), "region_pairs", None
    note = "conditional product rule fails for this atom pair given C"
    reason = "no spacelike pairs of disjoint nonempty regions"
    if label.startswith("multi-so[n="):
        n = int(label[len("multi-so[n="):-1])
        names, unit_key, fixed = tuple(f"A{i + 1}" for i in range(n)), "region_tuples", {"n": n}
        note = "joint conditional factorization fails for this atom tuple given C"
        reason = f"no {n}-tuples of pairwise-spacelike disjoint regions"
    elif label == "penrose-percival":
        step_key, fixed = "dissections", {"so1_verdict": ref_so1(model).verdict}
        note = ("conjecture probe: conditioning on a full specification of a "
                "dissection of the joint past fails to screen this atom pair")
    else:
        selector = label[len("gen-so["):-1]
        if selector not in REF_SELECTORS:
            raise stochastic.SelectorError(
                f"selector error: unknown selector {selector!r}; expected one of mutual, joint, bell, all"
            )
        step_key, fixed = "conditioning_regions", {"selector": selector}
        note += f" (selector {selector})"
    n_units = n_steps = checked = skipped = 0
    unit = fail = None
    for regions, past in ref_units(label, site):
        n_steps += 1
        if regions != unit:
            n_units += 1
            unit = regions
        fail, c, s = ref_factorization_failure(model, regions, past)
        checked += c
        skipped += s
        if fail is not None:
            break
    stats = {**fixed, unit_key: n_units}
    if step_key is not None:
        stats[step_key] = n_steps
    stats.update(atom_checks=checked, null_conditions_skipped=skipped)
    if fail is not None:
        cx = stochastic._conditional_counterexample(model, regions, names, past, fail, note)
        return CheckReport(label, VIOLATED, counterexample=cx, stats=stats)
    if n_units == 0:
        return CheckReport(label, VACUOUS, reason=reason, stats=stats)
    return CheckReport(label, HOLDS, stats=stats)


def ref_first_refusal(label: str, site: CausalSite) -> tuple[int, str] | None:
    """(ordinal, error text) of the first step of `ref_units` that gen-so refuses, or None."""
    n = 0
    try:
        for _ in ref_units(label, site):
            n += 1
    except stochastic.SelectorError as e:
        return n, str(e)
    return None


SCREENING = (
    ("so1", check_so1),
    ("so2", check_so2),
    ("so2w", check_so2w),
    ("gen-so[mutual]", lambda m: check_generalized_so(m, "mutual")),
    ("gen-so[joint]", lambda m: check_generalized_so(m, "joint")),
    ("penrose-percival", check_penrose_percival),
    ("gen-so[bell]", lambda m: check_generalized_so(m, "bell")),
    ("gen-so[all]", lambda m: check_generalized_so(m, "all")),
    ("multi-so[n=2]", lambda m: check_multi_so(m, 2)),
    ("multi-so[n=3]", lambda m: check_multi_so(m, 3)),
)


def maximal_pairs(site: CausalSite, condition: str) -> set[tuple[int, int]]:
    """Unordered screened pairs that no one-element extension keeps the past of."""
    init = site.initial_elements()
    past_of = mutual_past if condition == "so1" else joint_past

    def screened(a, b):
        return (a and b and not a & b and site.spacelike(a, b)
                and not (condition == "so2w" and (a | b) & init))

    out = set()
    for a, b in stochastic._spacelike_pairs(site):
        if not screened(a, b):
            continue
        past = past_of(site, a, b)
        free = [1 << e for e in range(site.n) if not (a | b) >> e & 1]
        grown = [(a | x, b) for x in free] + [(a, b | x) for x in free]
        if not any(screened(*g) and past_of(site, *g) == past for g in grown):
            out.add((min(a, b), max(a, b)))
    return out


PRUNING_SITES = {
    # B = {x} can only grow by y, above x: a pair that needs a B-extension
    "chain-and-point": CausalSite([("x", 2), ("y", 2), ("z", 3)], [("x", "y")]),
    "blocked": CausalSite(
        [("r", 3), ("x", 2), ("l0", 2), ("l1", 2), ("l2", 2), ("y", 2)],
        [("r", "l0"), ("r", "l1"), ("r", "l2"), ("x", "l2"), ("x", "y")],
    ),
    "diamond": CausalSite(
        [("b", 2), ("l", 2), ("r", 2), ("t", 2), ("s", 2)],
        [("b", "l"), ("b", "r"), ("l", "t"), ("r", "t")],
    ),
}


def first_screened_pair(site: CausalSite, condition: str) -> tuple[int, int] | None:
    init = site.initial_elements() if condition == "so2w" else 0
    return next(((a, b) for a, b in stochastic._spacelike_pairs(site) if not (a | b) & init), None)


def expected_scans(model, condition: str, failure=None) -> tuple[set, int] | None:
    """The regions a holding check scans, and how many of its certificates fail.

    The first screened pair is scanned; then each group of pairs with one
    conditioning region P is proved by its certificate (every element of
    the group's union E_P, as singletons, given P) if it has more than one
    maximal pair, or else by each of its maximal pairs; where a certificate
    fails, the maximal pairs are scanned.  `failure(model, regions, past)`
    decides a certificate, by default `ref_factorization_failure`.  With
    that default (so1, so2, so2w) a failed group with more maximal pairs
    than C(|E_P|, 2) + 1 has its blocks searched first, and the result is
    None; the qso walks never search blocks.
    """
    site = model.site
    init = site.initial_elements()
    past_of = mutual_past if condition == "so1" else joint_past
    pairs = [(a, b) for a, b in stochastic._spacelike_pairs(site)
             if not (condition == "so2w" and (a | b) & init)]
    if not pairs:
        return set(), 0
    unions: dict[int, int] = {}
    for a, b in pairs:
        unions[past_of(site, a, b)] = unions.get(past_of(site, a, b), 0) | a | b
    maximal: dict[int, list] = {}
    for a, b in maximal_pairs(site, condition):
        maximal.setdefault(past_of(site, a, b), []).append((a, b))
    scans = {first_screened_pair(site, condition)}
    failed = 0
    for past, group in maximal.items():
        if len(group) > 1:
            certificate = tuple(1 << e for e in iter_bits(unions[past]))
            scans.add(certificate)
            if (failure or ref_factorization_failure)(model, certificate, past)[0] is None:
                continue
            failed += 1
            if failure is None and len(group) > comb(len(certificate), 2) + 1:
                return None
        scans.update(group)
    return scans, failed


def held_scans(site, rule, power: int, fails) -> list | None:
    """The (regions, past) scans of a holding check whose group proofs all hold, or None if one fails.

    Its first unit's steps are scanned, then each distinct group proof of
    its plan once; `fails(regions, past)` decides a proof by a reference scan.
    """
    regions, pasts = next(stochastic._check_units(site, rule))
    proofs = {(key[1], key[0]) for key, *_ in stochastic._screening_plan(site, rule, power)[2]}
    if any(fails(*proof) for proof in proofs):
        return None
    return sorted({(regions, past) for past in pasts} | proofs)


def skipped_steps(model, run) -> tuple[str, list[tuple[int, str]]]:
    """A check's outcome, and (P, how its group held) for each step the walk skipped before a failure.

    A group is named "proof" when its proof held and "blocks" when its
    block certificate did: the two ways a step goes undrawn.
    """
    walks = []
    walk = stochastic._walk

    def recorded(record, decide, get, search, stop=None):
        visited = set()
        result = walk(record, lambda *step: visited.add(step[:2]) or decide(*step), get, search, stop)
        walks.append((record, visited, get, result))
        return result

    with pytest.MonkeyPatch.context() as m:
        m.setattr(stochastic, "_walk", recorded)
        outcome = _outcome(lambda: run(model))
    skipped = []
    for (_, _, groups, plan, first, _), visited, get, (fail, regions, past, _) in walks:
        end = [step[:2] for step in plan].index((regions, past)) if fail else len(plan)
        for regions, past, *_ in plan[first:end]:
            if (regions, past) not in visited:
                proof = next(key for key, *_ in groups if key[0] == past)
                skipped.append((past, "proof" if get(proof)[0] is None else "blocks"))
    return outcome, skipped


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def ref_pair_matrix(q, regions):
    """Matrix of d-values between joint configuration cells of the regions."""
    site = q.site
    sizes = tuple(n_configs(site, r) for r in regions)
    index_maps = [config_indices(site, r) for r in regions]
    n_cells = 1
    for s in sizes:
        n_cells *= s
    n = n_histories(site)
    flat_of = [0] * n
    for h in range(n):
        flat = 0
        for ci, size in zip(index_maps, sizes):
            flat = flat * size + ci[h]
        flat_of[h] = flat
    m = [[(0, 0)] * n_cells for _ in range(n_cells)]
    for h in range(n):
        mrow = m[flat_of[h]]
        for u, br, bi in zip(flat_of, q._re[h * n : h * n + n], q._im[h * n : h * n + n]):
            if br or bi:  # a zero entry adds nothing; decohered models are mostly zeros
                ar, ai = mrow[u]
                mrow[u] = (ar + br, ai + bi)
    return sizes, m


@lru_cache(maxsize=512)  # (model, regions, past): ref_qso2 reads the scans of ref_qso1 where their pasts coincide
def ref_quantal_screening_failure(q, ra, rb, past):
    """First pseudo-atom triple breaking the product rule, or None.

    Ordered pairs of conditioning cells outermost, then left/right atoms of
    the first region, then of the second; null pseudo-cells are checked.
    """
    (np_, na, nb), m = ref_pair_matrix(q, (past, ra, rb))
    block = na * nb
    checked = 0
    for c1 in range(np_):
        for c2 in range(np_):
            base1 = c1 * block
            base2 = c2 * block
            ma_tab = [[(0, 0)] * na for _ in range(na)]
            mb_tab = [[(0, 0)] * nb for _ in range(nb)]
            mp = (0, 0)
            for f1 in range(block):
                row = m[base1 + f1]
                a1, b1 = divmod(f1, nb)
                for f2 in range(block):
                    er, ei = row[base2 + f2]
                    if not (er or ei):
                        continue
                    a2, b2 = divmod(f2, nb)
                    mp = (mp[0] + er, mp[1] + ei)
                    xr, xi = ma_tab[a1][a2]
                    ma_tab[a1][a2] = (xr + er, xi + ei)
                    xr, xi = mb_tab[b1][b2]
                    mb_tab[b1][b2] = (xr + er, xi + ei)
            for a1, a2, b1, b2 in itertools.product(range(na), range(na), range(nb), range(nb)):
                ma = ma_tab[a1][a2]
                mb = mb_tab[b1][b2]
                joint = m[base1 + a1 * nb + b1][base2 + a2 * nb + b2]
                checked += 1
                if _cmul(joint, mp) != _cmul(ma, mb):
                    return ((c1, c2, a1, a2, b1, b2), (joint, mp, ma, mb)), checked
    return None, checked


def ref_quantal_certificate_failure(q, regions, past):
    """(first pseudo-cell where a k-region certificate fails, or None,).

    On each pseudo-cell C the certificate demands J * muhat(C)^(k-1) ==
    prod M_i for every tuple of pseudo-atoms, and, where muhat(C) = 0, a
    zero joint block, summed here entry by entry from the matrix.
    """
    sizes, m = ref_pair_matrix(q, (past, *regions))
    n_past, atom_counts = sizes[0], sizes[1:]
    block = len(m) // n_past
    coords = tuple(itertools.product(*(range(s) for s in atom_counts)))
    for c1 in range(n_past):
        for c2 in range(n_past):
            joint = {}
            margins = [{} for _ in regions]
            mp = (0, 0)
            for f1 in range(block):
                for f2 in range(block):
                    e = m[c1 * block + f1][c2 * block + f2]
                    joint[f1, f2] = e
                    mp = (mp[0] + e[0], mp[1] + e[1])
                    for i, (x1, x2) in enumerate(zip(coords[f1], coords[f2])):
                        xr, xi = margins[i].get((x1, x2), (0, 0))
                        margins[i][x1, x2] = (xr + e[0], xi + e[1])
            if mp == (0, 0):
                if any(e != (0, 0) for e in joint.values()):
                    return ((c1, c2),)
                continue
            scale = (1, 0)
            for _ in regions[1:]:
                scale = _cmul(scale, mp)
            for (f1, f2), e in joint.items():
                rhs = (1, 0)
                for i, (x1, x2) in enumerate(zip(coords[f1], coords[f2])):
                    rhs = _cmul(rhs, margins[i][x1, x2])
                if _cmul(e, scale) != rhs:
                    return ((c1, c2),)
    return (None,)


def ref_quantal_counterexample(q, ra, rb, past, where, values):
    site = q.site
    c1, c2, a1, a2, b1, b2 = where
    joint, mp, ma, mb = values
    den = Fraction(q._den)

    def fmt(v, d=den):
        return format_complex(v[0] / d, v[1] / d)

    pa = full_specifications(site, ra)
    pb = full_specifications(site, rb)
    pc = full_specifications(site, past)
    return Counterexample(
        regions=(
            ("A", site.region_ids(ra)),
            ("B", site.region_ids(rb)),
            ("past", site.region_ids(past)),
        ),
        events=(
            ("A1", event_ref(site, pa[a1], ra, a1)),
            ("A2", event_ref(site, pa[a2], ra, a2)),
            ("B1", event_ref(site, pb[b1], rb, b1)),
            ("B2", event_ref(site, pb[b2], rb, b2)),
            ("C1", event_ref(site, pc[c1], past, c1)),
            ("C2", event_ref(site, pc[c2], past, c2)),
        ),
        values=(
            ("muhat(A&B&C)", fmt(joint)),
            ("muhat(C)", fmt(mp)),
            ("muhat(A&C)", fmt(ma)),
            ("muhat(B&C)", fmt(mb)),
            ("muhat(A&B&C)*muhat(C)", fmt(_cmul(joint, mp), den * den)),
            ("muhat(A&C)*muhat(B&C)", fmt(_cmul(ma, mb), den * den)),
        ),
        note="complex product rule fails for this pseudo-atom triple",
    )


def ref_quantal_pairwise_check(q, condition, past_of):
    q._require_valid()
    pairs = 0
    checked = 0
    for ra, rb in _spacelike_pairs(q.site):
        pairs += 1
        past = past_of(q.site, ra, rb)
        failure, c = ref_quantal_screening_failure(q, ra, rb, past)
        checked += c
        if failure is not None:
            cx = ref_quantal_counterexample(q, ra, rb, past, *failure)
            stats = {"region_pairs": pairs, "equations_checked": checked}
            return CheckReport(condition, VIOLATED, counterexample=cx, stats=stats)
    stats = {"region_pairs": pairs, "equations_checked": checked}
    if pairs == 0:
        return CheckReport(
            condition, VACUOUS, reason="no spacelike pairs of disjoint nonempty regions", stats=stats
        )
    return CheckReport(condition, HOLDS, stats=stats)


def ref_qso1(q):
    return ref_quantal_pairwise_check(q, "qso1", mutual_past)


def ref_qso2(q):
    return ref_quantal_pairwise_check(q, "qso2", joint_past)
