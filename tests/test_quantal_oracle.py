"""Differential oracle for the scaled Gaussian-integer quantal paths.

The reference code below is the ComplexFraction construction of random
quantal models, and the ComplexFraction validation of the matrix axioms,
that the generator and validator compute in scaled integers.  It also keeps
the per-pair qso scan: ``ref_pair_matrix`` rebuilds one (past, A, B) matrix
of d-values for every region pair, ``ref_quantal_screening_failure`` walks
it pseudo-atom by pseudo-atom, and ``ref_quantal_pairwise_check`` scans
every spacelike pair in order.  It is kept here, test-only, so that every
model, report and error text the program produces can be compared with it
byte for byte.
"""
from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pseudo_events import CF_ONE
from test_stochastic_oracle import (
    PRUNING_SITES,
    clear_screenoff_caches,
    expected_scans,
    held_scans,
    local_dynamics,
    maximal_pairs,
    proof_models,
    skipped_steps,
    two_roots,
)

import screenoff.quantal as quantal_mod
import screenoff.stochastic as stochastic_mod
from screenoff.corpus import (
    _decohered,
    _fuzz_model,
    _random_site,
    _rng,
    corpus_entries,
    random_diagonal_quantal,
    random_quantal,
)
from screenoff.events import config_indices, event_ref, full_specifications, n_configs, n_histories
from screenoff.modelfile import render_model_json
from screenoff.order import CausalSite
from screenoff.quantal import (
    CF_ZERO,
    POSITIVITY_ENUMERATION_LIMIT,
    ComplexFraction,
    QuantalError,
    QuantalModel,
    check_qso1,
    check_qso2,
    diagonal_reduction,
    validate_quantal,
)
from screenoff.report import HOLDS, VACUOUS, VIOLATED, CheckReport, Counterexample, format_complex
from screenoff.stochastic import _spacelike_pairs

F = Fraction
CF = ComplexFraction


# -- reference code ---------------------------------------------------------


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


def _dump(report: CheckReport) -> str:
    return json.dumps(report.to_json_dict(), sort_keys=True)


def _outcome(fn):
    """A report's JSON, or the text of the QuantalError it raised."""
    try:
        return _dump(fn())
    except QuantalError as e:
        return f"QuantalError: {e}"


# -- the seeded sweep -------------------------------------------------------

SHAPES = [(s, a, r) for s in range(2, 6) for a in (2, 3) for r in (1, 2, 3)]


@pytest.mark.parametrize("sites, alphabet, rank", SHAPES)
def test_generation_and_checks_match_the_reference(sites, alphabet, rank):
    # the widest shapes (up to 243 histories) cost seconds in the reference
    # arithmetic, so they get fewer seeds
    seeds = 4 if sites < 4 else 2 if (sites, alphabet) != (5, 3) else 1
    for seed in range(seeds):
        model = random_quantal(seed, sites, alphabet, rank)
        site, entries, witness = reference_random_quantal(seed, sites, alphabet, rank)
        ref = reference_model(site, entries, witness)
        assert render_model_json(model) == render_model_json(ref)
        assert model.positivity_witness == ref.positivity_witness
        assert (model._den, model._re, model._im) == (ref._den, ref._re, ref._im)
        assert _dump(validate_quantal(model)) == _dump(ref._validation)
        assert _dump(check_qso1(model)) == _dump(check_qso1(ref))
        assert _dump(check_qso2(model)) == _dump(check_qso2(ref))


# -- failing inputs: the full text must match -------------------------------


def _small_models(count=12):
    for seed in range(count):
        shape = (2 + seed % 3, 2 + seed % 2, 1 + seed % 3)
        yield seed, reference_random_quantal(seed, *shape)


@pytest.mark.parametrize("part", ["re", "im"])
def test_perturbed_witness_error_text(part):
    for seed, (site, entries, witness) in _small_models():
        t = seed % len(witness)
        w, vec = witness[t]
        j = (7 * seed) % len(vec)
        bump = CF(F(1, 3)) if part == "re" else CF(F(0), F(-2, 5))
        vec = list(vec)
        vec[j] = vec[j] + bump
        bad = list(witness)
        bad[t] = (w, vec)
        with pytest.raises(QuantalError) as got:
            validate_quantal(QuantalModel(site, entries, bad))
        with pytest.raises(QuantalError) as want:
            reference_witness_check(entries, bad)
        assert str(got.value) == str(want.value)


def test_witness_wrong_at_a_mirrored_pair_names_the_upper_entry():
    # an imaginary bump at (h, g) and its conjugate at (g, h) keeps the matrix
    # Hermitian and normalized, so only the witness check fails, at both
    # entries; the full-scan reference names the one above the diagonal
    for seed, (site, entries, witness) in _small_models():
        n = len(entries)
        g, h = seed % n, (seed + 1 + seed % (n - 1)) % n
        bad = _bumped(entries, [(h, g)], CF(F(0), F(1, 7)))
        bad = _bumped(bad, [(g, h)], CF(F(0), F(-1, 7)))
        with pytest.raises(QuantalError) as got:
            validate_quantal(QuantalModel(site, bad, witness))
        with pytest.raises(QuantalError) as want:
            reference_witness_check(bad, witness)
        assert str(got.value) == str(want.value)
        assert f"at entry ({min(h, g)}, {max(h, g)}):" in str(want.value)


def _bumped(entries, cells, delta):
    out = [list(row) for row in entries]
    for h, g in cells:
        out[h][g] = out[h][g] + delta
    return out


@pytest.mark.parametrize("case", ["non-hermitian", "unnormalized", "non-positive"])
def test_broken_axiom_counterexample_text(case):
    for seed, (site, entries, witness) in _small_models():
        n = len(entries)
        h, g = seed % n, (seed + 1) % n
        if case == "non-hermitian":
            bad = _bumped(entries, [(h, g)], CF(F(1, 7), F(2, 7)))
        elif case == "unnormalized":
            bad = _bumped(entries, [(h, h)], CF(F(1, 3)))
        else:  # a strong Hermitian coherence, offset on the diagonal
            bad = _bumped(entries, [(h, g), (g, h)], CF(F(3)))
            bad = _bumped(bad, [(h, h)], CF(F(-6)))
        for wit in (witness, None):
            model = QuantalModel(site, bad, wit)
            want = _outcome(lambda: reference_validate(site, model.entries, model.positivity_witness))
            assert _outcome(lambda: validate_quantal(model)) == want


def test_decohered_matrix_paths_match_the_reference():
    site = CausalSite([("x", 2), ("y", 2)], [])
    for diag in ([F(1, 2), F(-1, 4), F(1, 2), F(1, 4)], [F(1, 2), F(0), F(1, 4), F(1, 4)]):
        entries = [[CF(diag[h]) if h == g else CF_ZERO for g in range(4)] for h in range(4)]
        model = QuantalModel(site, entries)
        assert _dump(validate_quantal(model)) == _dump(reference_validate(site, model.entries, None))
    entries[1][2] = CF(F(0), F(1, 8))
    entries[2][1] = CF(F(0), F(-1, 8))
    with pytest.raises(QuantalError) as got:
        diagonal_reduction(QuantalModel(site, entries))
    assert str(got.value) == (
        "quantal error: off-diagonal entry at (1, 2); "
        "diagonal reduction needs a fully decohered matrix"
    )


def test_generation_and_validation_do_no_complex_fraction_arithmetic(monkeypatch):
    def forbidden(*args):
        raise AssertionError("ComplexFraction arithmetic on the scaled-integer path")

    for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "conjugate"):
        monkeypatch.setattr(quantal_mod.ComplexFraction, name, forbidden)
    for seed in range(6):
        model = random_quantal(seed, 4, 2, 3)
        assert validate_quantal(model).holds
        check_qso1(model)
        check_qso2(model)


# -- the scaled form is the model ---------------------------------------------


@settings(max_examples=40)
@given(
    seed=st.integers(0, 10**6),
    sites=st.integers(2, 5),
    alphabet=st.integers(2, 3),
    rank=st.integers(1, 3),
)
def test_the_public_constructor_rebuilds_a_generated_model(seed, sites, alphabet, rank):
    m = random_quantal(seed, sites, alphabet, rank)
    m2 = QuantalModel(m.site, m.entries, m.positivity_witness)
    assert (m._den, m._re, m._im) == (m2._den, m2._re, m2._im)
    assert gcd(m._den, *m._re, *m._im) == 1
    assert m == m2 and hash(m) == hash(m2)
    assert render_model_json(m) == render_model_json(m2)
    for check in (validate_quantal, check_qso1, check_qso2):
        assert _dump(check(m)) == _dump(check(m2))


def _no_views(q):
    return q._entry_view is None and q._witness_view is None


def test_generated_models_are_checked_without_fraction_views():
    # seed 143 of a 2-site rank-1 draw is a product amplitude, where both
    # checks hold; seed 0 of the default shape violates them
    for q, verdict in ((random_quantal(143, 2, 2, 1), HOLDS), (random_quantal(0), VIOLATED)):
        assert _no_views(q)
        assert check_qso1(q).verdict == check_qso2(q).verdict == verdict
        assert _no_views(q)
    for seed in range(4):
        q = random_diagonal_quantal(seed)
        assert diagonal_reduction(q).holds
        assert _no_views(q)


# -- the per-pair qso scan ----------------------------------------------------


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
            ar, ai = mrow[u]
            mrow[u] = (ar + br, ai + bi)
    return sizes, m


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
        past = past_of(ra, rb)
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
    return ref_quantal_pairwise_check(q, "qso1", q.site.mutual_past)


def ref_qso2(q):
    return ref_quantal_pairwise_check(q, "qso2", q.site.joint_past)


def _exact(run) -> str:
    """A report's JSON in its own key order, or the text of the error it raised."""
    try:
        return json.dumps(run().to_json_dict())
    except ValueError as e:
        return f"{type(e).__name__}: {e}"


def assert_qso_matches_reference(q, decohered=False) -> list[str]:
    """qso1, qso2 (and diag-reduce on a decohered matrix) against the per-pair scan."""
    runs = [("qso1", check_qso1, ref_qso1), ("qso2", check_qso2, ref_qso2)]
    outcomes = []
    for label, run, ref in runs:
        got = _exact(lambda: run(q))
        assert got == _exact(lambda: ref(q)), label
        outcomes.append(got)
    if decohered:
        got = _exact(lambda: diagonal_reduction(q))
        with pytest.MonkeyPatch.context() as m:
            m.setattr(quantal_mod, "check_qso1", ref_qso1)
            want = _exact(lambda: diagonal_reduction(q))
        assert got == want, "diag-reduce"
        outcomes.append(got)
    return outcomes


def product_amplitude_model(rng: random.Random, alphabets) -> QuantalModel:
    """A rank-one product amplitude on an antichain: every pair screens."""
    site = CausalSite([(f"s{i}", k) for i, k in enumerate(alphabets)])
    amps = []
    for k in alphabets:
        a = [CF(F(rng.randint(-4, 4), 4), F(rng.randint(-4, 4), 4)) for _ in range(k - 1)]
        rest = CF_ONE
        for x in a:
            rest = rest - x
        amps.append(a + [rest])
    psi = []
    for digits in itertools.product(*(range(k) for k in alphabets)):
        v = CF_ONE
        for amp, d in zip(amps, digits):
            v = v * amp[d]
        psi.append(v)
    entries = [[x * y.conjugate() for y in psi] for x in psi]
    return QuantalModel(site, entries, positivity_witness=[(F(1), psi)])


def decohered_common_cause(n_leaves: int, coupled: bool) -> QuantalModel:
    """A ternary root under binary leaves on the diagonal, root value 0 null.

    The null root value makes the diagonal pseudo-cell (0, 0) of the mutual
    past null, so the scan checks it rather than skipping it; with
    ``coupled`` the last two leaves are tied beyond the root.
    """
    elements = [("c", 3)] + [(f"l{i}", 2) for i in range(n_leaves)]
    site = CausalSite(elements, [("c", f"l{i}") for i in range(n_leaves)])
    weights = []
    for digits in itertools.product(range(3), *([range(2)] * n_leaves)):
        c, leaves = digits[0], digits[1:]
        w = F(0) if c == 0 else F(1)
        for i, v in enumerate(leaves):
            p = F(1 + (c + i) % 3, 5)
            w *= p if v else 1 - p
        if coupled:
            w *= 2 if leaves[-1] == leaves[-2] else 0
        weights.append(w)
    total = sum(weights)
    n = len(weights)
    entries = [[weights[h] / total if h == g else 0 for g in range(n)] for h in range(n)]
    return QuantalModel(site, entries)


@pytest.mark.parametrize(
    "entry",
    [e for e in corpus_entries() if isinstance(e.model, QuantalModel)],
    ids=lambda e: e.name,
)
def test_qso_corpus_entries_match_the_per_pair_scan(entry):
    q = entry.model
    n = len(q.entries)
    decohered = all((q._re[h * n + g], q._im[h * n + g]) == (0, 0) for h in range(n) for g in range(n) if h != g)
    assert_qso_matches_reference(q, decohered)


@given(
    seed=st.integers(0, 10**6),
    n_sites=st.integers(3, 5),
    alphabet=st.integers(2, 3),
    rank=st.integers(1, 3),
)
def test_random_quantal_matches_the_per_pair_scan(seed, n_sites, alphabet, rank):
    assert_qso_matches_reference(random_quantal(seed, n_sites, alphabet, rank))


@pytest.mark.parametrize("alphabets", [(2, 2, 2), (3, 2, 2), (2, 2, 2, 2), (2, 2, 2, 2, 2)])
def test_product_amplitudes_hold_like_the_per_pair_scan(alphabets):
    q = product_amplitude_model(random.Random(str(alphabets)), alphabets)
    outcomes = assert_qso_matches_reference(q)
    assert all('"verdict": "holds"' in o for o in outcomes)


@given(seed=st.integers(0, 10**6), n_sites=st.integers(2, 4))
def test_random_diagonal_quantal_matches_the_per_pair_scan(seed, n_sites):
    assert_qso_matches_reference(random_diagonal_quantal(seed, n_sites), decohered=True)


@pytest.mark.parametrize("coupled", [False, True])
def test_null_pseudo_cells_are_checked_like_the_per_pair_scan(coupled):
    q = decohered_common_cause(3, coupled)
    outcomes = assert_qso_matches_reference(q, decohered=True)
    verdict = "violated" if coupled else "holds"
    assert f'"verdict": "{verdict}"' in outcomes[0]
    # the root's null pseudo-cells are counted among the equations: all 12
    # pairs hold, and each of their pseudo-cells checks every pseudo-atom
    if not coupled:
        pairs = _spacelike_pairs(q.site)
        expected = sum(
            n_configs(q.site, q.site.mutual_past(a, b)) ** 2
            * (n_configs(q.site, a) * n_configs(q.site, b)) ** 2
            for a, b in pairs
        )
        assert json.loads(outcomes[0])["stats"]["equations_checked"] == expected


# -- the pruned walk ----------------------------------------------------------
#
# qso1 and qso2 scan the first pair themselves, then only the dominators of
# the so1/so2 plan.  Decohered matrices of local dynamics hold, so the walk
# reaches every maximal pair; a null root value adds null pseudo-cells, and
# a coupled pair of elements makes a dominator fail after held ones.

COUPLED = {"chain-and-point": ("y", "z"), "blocked": ("l0", "l1"), "diamond": ("l", "r")}


def decohered_local_dynamics(shape: str, variant: str = "plain") -> QuantalModel:
    """The diagonal of a `local_dynamics` measure on a pruning site.

    ``null-root`` gives the first element's value 0 no weight; ``coupled``
    ties the shape's COUPLED elements to equal values.
    """
    site = PRUNING_SITES[shape]
    weights = list(local_dynamics(random.Random(shape), site).weights)
    i, j = (site.elements.index(e) for e in COUPLED[shape])
    for h, digits in enumerate(itertools.product(*(range(k) for k in site.alphabets))):
        if (variant == "null-root" and digits[0] == 0) or (variant == "coupled" and digits[i] != digits[j]):
            weights[h] = F(0)
    total = sum(weights)
    n = len(weights)
    return QuantalModel(site, [[weights[h] / total if h == g else 0 for g in range(n)] for h in range(n)])


def recorded_scans(monkeypatch) -> list:
    scans = []
    original = quantal_mod._quantal_screening_failure
    monkeypatch.setattr(
        quantal_mod, "_quantal_screening_failure",
        lambda q, regions, past, **k: scans.append(regions) or original(q, regions, past, **k),
    )
    return scans


@pytest.mark.parametrize("variant", ["plain", "null-root"])
@pytest.mark.parametrize("shape", ["chain-and-point", "blocked", "diamond"])
def test_a_holding_qso_check_scans_the_first_and_each_maximal_pair_once(shape, variant, monkeypatch):
    # the first pair, then each group's certificate where it has more than
    # one maximal pair, and its maximal pairs where the certificate fails
    q = decohered_local_dynamics(shape, variant)
    scans = recorded_scans(monkeypatch)
    failed = 0
    for label, check in (("so1", check_qso1), ("so2", check_qso2)):
        del scans[:]
        assert check(q).verdict == HOLDS
        want, n_failed = expected_scans(q, label, ref_quantal_certificate_failure)
        assert len(scans) == len(set(scans)), label
        assert set(scans) == want, label
        assert scans[0] == _spacelike_pairs(q.site)[0], label
        failed += n_failed
    # on the diagonal a certificate holds where its classical one does: blocked
    # and diamond hold although a group's elements are not independent
    assert (failed > 0) == (shape != "chain-and-point")


@pytest.mark.parametrize("alphabets", [(2, 2), (2, 3, 2), (2, 2, 2, 2), (3, 2, 2, 2), (2,) * 5])
def test_a_product_amplitude_on_an_antichain_is_certified_at_once(alphabets, monkeypatch):
    # every pair has the empty past, whose one pseudo-cell has muhat 1, and
    # every site is independent of the others: after the first pair, the
    # certificate of all k sites holds; with k = 2 the one maximal pair is
    # the whole group, so no certificate is tried
    q = product_amplitude_model(random.Random(f"certified {alphabets}"), alphabets)
    outcomes = assert_qso_matches_reference(q)
    assert all('"verdict": "holds"' in o for o in outcomes)
    scans = recorded_scans(monkeypatch)
    singletons = tuple(1 << e for e in range(len(alphabets)))
    for check in (check_qso1, check_qso2):
        del scans[:]
        check(q)
        assert scans == [(1, 2)] + ([singletons] if len(alphabets) > 2 else [])


def test_a_maximal_first_pair_is_scanned_once(monkeypatch):
    # on two sites the first pair is the one maximal pair, and the second
    # pair's dominator
    q = product_amplitude_model(random.Random("two sites"), (2, 2))
    scans = recorded_scans(monkeypatch)
    for check in (check_qso1, check_qso2):
        del scans[:]
        report = check(q)
        assert report.verdict == HOLDS and report.stats["region_pairs"] == 2
        assert scans == [(1, 2)]


@pytest.mark.parametrize("variant", ["plain", "null-root", "coupled"])
@pytest.mark.parametrize("shape", ["chain-and-point", "blocked", "diamond"])
def test_pruning_sites_match_the_per_pair_scan(shape, variant):
    q = decohered_local_dynamics(shape, variant)
    outcomes = [json.loads(o) for o in assert_qso_matches_reference(q, decohered=True)]
    if variant != "coupled":
        assert all(o["verdict"] == HOLDS for o in outcomes[:2])
        return
    # the coupled pair fails at the first pair on chain-and-point, and on the
    # other shapes after the held first pair and later held dominators
    first_failure = {"chain-and-point": 1, "blocked": 12, "diamond": 2}[shape]
    for o in outcomes[:2]:
        assert o["verdict"] == VIOLATED
        assert o["stats"]["region_pairs"] == first_failure


@pytest.mark.parametrize("n_leaves", [4, 5])
def test_a_late_failure_scans_the_first_maximal_and_failing_pairs(n_leaves, monkeypatch):
    # the last two leaves are tied: the first pair holds, the certificate of
    # all leaves given the root fails, and every pair before the first that
    # splits them has a dominator that holds, A-first or B-first, so no pair
    # but the failing one is scanned on its own
    q = decohered_common_cause(n_leaves, coupled=True)
    outcomes = [json.loads(o) for o in assert_qso_matches_reference(q, decohered=True)]
    pairs = _spacelike_pairs(q.site)
    leaves = tuple(1 << e for e in range(1, n_leaves + 1))
    assert ref_quantal_certificate_failure(q, leaves, 1)[0] is not None
    scans = recorded_scans(monkeypatch)
    for (label, check), outcome in zip((("so1", check_qso1), ("so2", check_qso2)), outcomes):
        assert outcome["verdict"] == VIOLATED and outcome["stats"]["region_pairs"] > 1
        failing = pairs[outcome["stats"]["region_pairs"] - 1]
        del scans[:]
        check(q)
        assert len(scans) == len(set(scans)), label
        assert scans[:2] == [pairs[0], leaves], label
        assert set(scans) <= {pairs[0], leaves, failing} | maximal_pairs(q.site, label), label


def leaves_amplitude(root, leaves, coupled=None) -> QuantalModel | None:
    """The rank-one amplitude root[c] * prod_i leaves[i][c][l_i], normalized.

    A root element c below binary leaves l0, l1, ...; ``coupled``, a
    ((i, j), tables) pair, replaces the factors of leaves i and j by
    tables[c][l_i][l_j].  None if the amplitudes sum to zero.
    """
    n_leaves = len(leaves)
    elements = [("c", len(root))] + [(f"l{i}", 2) for i in range(n_leaves)]
    site = CausalSite(elements, [("c", f"l{i}") for i in range(n_leaves)])
    psi = []
    for c, *values in itertools.product(range(len(root)), *([range(2)] * n_leaves)):
        v = root[c]
        for i, x in enumerate(values):
            if coupled is None or i not in coupled[0]:
                v = v * leaves[i][c][x]
        if coupled is not None:
            (i, j), tables = coupled
            v = v * tables[c][values[i]][values[j]]
        psi.append(v)
    total = CF_ZERO
    for v in psi:
        total = total + v
    if not total:
        return None
    # divide by the total: times its conjugate over its squared modulus
    scale = total.conjugate() * CF(1 / (total.re * total.re + total.im * total.im))
    psi = [v * scale for v in psi]
    entries = [[x * y.conjugate() for y in psi] for x in psi]
    return QuantalModel(site, entries, positivity_witness=[(F(1), psi)])


def common_cause_amplitude(rng: random.Random, n_leaves: int) -> QuantalModel:
    """A rank-one amplitude r(c) * prod_i a_i(l_i | c) on a ternary root below binary leaves.

    Each leaf's amplitudes given the root sum to 1, so the leaves screen off
    given every pseudo-cell (c1, c2) of the root, and muhat of that cell,
    r(c1) * conj(r(c2)), is not real when the two root values differ in phase.
    """

    def draw():
        return CF(F(rng.randint(-4, 4), 4), F(rng.randint(-4, 4), 4))

    root = [draw(), draw()]
    root.append(CF_ONE - root[0] - root[1])
    leaves = []
    for _ in range(n_leaves):
        given_root = []
        for _ in range(3):
            a0 = draw()
            given_root.append((a0, CF_ONE - a0))
        leaves.append(given_root)
    return leaves_amplitude(root, leaves)


@pytest.mark.parametrize("n_leaves", [2, 3])
def test_complex_past_pseudo_cells_hold_like_the_per_pair_scan(n_leaves):
    q = common_cause_amplitude(random.Random(f"common cause {n_leaves}"), n_leaves)
    root_cells = full_specifications(q.site, 1)
    assert any(q.d_value(x, y).im for x in root_cells for y in root_cells)
    outcomes = assert_qso_matches_reference(q)
    assert all('"verdict": "holds"' in o for o in outcomes)


def test_a_nonzero_block_on_a_null_pseudo_cell_fails_the_certificate(monkeypatch):
    # given c = 0 the amplitude is +1 at (0, 0, 0) and -1 at (0, 1, 1): the
    # pseudo-cell (0, 0) of the root is null, yet its block is not zero.
    # There l0 is 0, so l0's margin is zero and so is every product of the
    # three leaves' margins; l1 and l2 are tied, so ({l1}, {l2}) fails.  The
    # certificate of the three leaves must fail at that pseudo-cell too
    half = CF(F(1, 2))
    zero_branch = {(0, 0): CF_ONE, (1, 1): CF(F(-1))}
    tables = [[[zero_branch.get((x, y), CF_ZERO) for y in range(2)] for x in range(2)],
              [[half * half] * 2] * 2]
    leaves = [[(CF_ONE, CF_ZERO), (half, half)]] * 3
    q = leaves_amplitude([CF_ONE, CF_ONE], leaves, ((1, 2), tables))
    certificate = (2, 4, 8)
    assert ref_quantal_certificate_failure(q, certificate, 1)[0] == (0, 0)
    assert quantal_mod._quantal_screening_failure(q, certificate, 1, tables={})[0][0][:2] == (0, 0)
    for o in assert_qso_matches_reference(q):
        report = json.loads(o)
        assert report["verdict"] == VIOLATED
        assert report["stats"]["region_pairs"] == 5
        assert report["counterexample"]["regions"] == {"A": ["l1"], "B": ["l2"], "past": ["c"]}
    scans = recorded_scans(monkeypatch)
    for check in (check_qso1, check_qso2):
        del scans[:]
        check(q)
        assert scans[:2] == [(2, 4), certificate]


@settings(max_examples=60)
@given(
    seed=st.integers(0, 10**6),
    n_root=st.integers(2, 3),
    n_leaves=st.integers(3, 4),
    coupled=st.booleans(),
    zero_share=st.sampled_from([0.0, 0.25, 0.5]),
)
def test_leaf_amplitudes_below_a_root(seed, n_root, n_leaves, coupled, zero_share):
    # drawn Gaussian-integer amplitudes of each leaf given each root value;
    # given a root value other than the first, with ``zero_share`` a leaf's
    # amplitudes sum to zero, which makes that value's pseudo-cells null
    # while their blocks are not.  With ``coupled`` two drawn leaves take a
    # joint amplitude table given each root value: a product, a generic
    # table, or (not given the first value) one that sums to zero, which
    # makes the pair fail on a null pseudo-cell where every other leaf's
    # margin is zero
    rng = random.Random(seed)

    def draw():
        return CF(F(rng.randint(-2, 2)), F(rng.randint(-2, 2)))

    root = [draw() for _ in range(n_root)]
    leaves = []
    for _ in range(n_leaves):
        given_root = []
        for c in range(n_root):
            a0 = draw()
            given_root.append((a0, CF_ZERO - a0 if c and rng.random() < zero_share else draw()))
        leaves.append(given_root)
    tied = None
    if coupled:
        tables = []
        for c in range(n_root):
            t = [draw(), draw(), draw()]
            kind = rng.random()
            if c and kind < 0.5:  # null, though its margins need not be
                t.append(CF_ZERO - t[0] - t[1] - t[2])
            elif kind > 0.9:
                t.append(draw())
            else:  # a product: the two leaves screen off given this value
                x, y = (draw(), draw()), (draw(), draw())
                t = [x[0] * y[0], x[0] * y[1], x[1] * y[0], x[1] * y[1]]
            tables.append([t[:2], t[2:]])
        tied = (tuple(sorted(rng.sample(range(n_leaves), 2))), tables)
    q = leaves_amplitude(root, leaves, tied)
    if q is not None:
        assert_qso_matches_reference(q)
        # the leaves' certificate given the root fails first where the
        # reference's does: a null pseudo-cell takes the direct scan
        certificate = tuple(2 << i for i in range(n_leaves))
        got, _, _ = quantal_mod._quantal_screening_failure(q, certificate, 1, tables={})
        assert (got and got[0][:2]) == ref_quantal_certificate_failure(q, certificate, 1)[0]


@pytest.mark.parametrize("seed, shape", [(43, (3, 2, 1)), (419, (2, 2, 2)), (462, (2, 2, 1))])
def test_a_failure_in_the_imaginary_part_alone_matches_the_per_pair_scan(seed, shape):
    # the first failing equation's two sides have equal real parts, so the
    # scan must find it by the imaginary parts
    q = random_quantal(seed, *shape)
    assert_qso_matches_reference(q)
    for ra, rb in _spacelike_pairs(q.site):
        failure, _ = ref_quantal_screening_failure(q, ra, rb, q.site.mutual_past(ra, rb))
        if failure is not None:
            break
    _, (joint, mp, ma, mb) = failure
    lhs, rhs = _cmul(joint, mp), _cmul(ma, mb)
    assert lhs[0] == rhs[0] and lhs[1] != rhs[1]


def test_a_first_pair_failure_scans_once_and_builds_no_plan(monkeypatch):
    # nearly every fuzz model fails at its first pair; such a check must cost
    # one scan and no plan
    failing = []
    for seed in range(40):
        q = _fuzz_model("qso1-qso2", seed, 4, 2, 3)
        for check, ref in ((check_qso1, ref_qso1), (check_qso2, ref_qso2)):
            if _spacelike_pairs(q.site) and ref(q).stats["region_pairs"] == 1:
                failing.append((q, check, ref))
    assert len(failing) >= 40

    def no_plan(*args):
        raise AssertionError("a plan was built for a first-pair failure")

    monkeypatch.setattr(stochastic_mod, "_screening_plan", no_plan)
    scans = recorded_scans(monkeypatch)
    for q, check, ref in failing:
        del scans[:]
        report = check(q)
        assert report.verdict == VIOLATED
        assert _dump(report) == _dump(ref(q))
        assert scans == [_spacelike_pairs(q.site)[0]]


# -- group proofs ---------------------------------------------------------------


@st.composite
def proof_quantal_models(draw) -> QuantalModel:
    """A decohered `proof_models` measure, a product amplitude on an antichain, or a `random_quantal` draw."""
    kind = draw(st.sampled_from(["decohered", "decohered", "amplitude", "random"]))
    if kind == "decohered":
        return _decohered(draw(proof_models()))
    seed = draw(st.integers(0, 10**6))
    if kind == "amplitude":
        return product_amplitude_model(random.Random(seed), draw(st.lists(st.integers(2, 3), min_size=1, max_size=4)))
    return random_quantal(seed, draw(st.integers(1, 4)), 2, draw(st.integers(1, 3)))


def test_every_qso_check_matches_the_reference_on_proof_models():
    # the pseudo-atom scan skips no null pseudo-cell, so a held proof adds
    # |Φ(P)|² per pseudo-atom tuple of each step: every report is the
    # per-pair scan's, and a check whose proofs all hold scans its first
    # pair and each distinct proof once
    held = Counter()

    @settings(max_examples=200)
    @given(proof_quantal_models())
    def proofs(q):
        outcomes = assert_qso_matches_reference(q)
        with pytest.MonkeyPatch.context() as m:
            scans = []
            scan = quantal_mod._quantal_screening_failure
            m.setattr(quantal_mod, "_quantal_screening_failure",
                      lambda q, regions, past, **k: scans.append((regions, past)) or scan(q, regions, past, **k))
            for (label, run), rule, outcome in zip((("qso1", check_qso1), ("qso2", check_qso2)), ("mutual", "joint"),
                                                   outcomes):
                if not outcome.startswith("{") or json.loads(outcome)["verdict"] != HOLDS:
                    continue
                want = held_scans(q.site, rule, 2,
                                  lambda regions, past: ref_quantal_certificate_failure(q, regions, past)[0] is not None)
                if want is None:
                    continue
                del scans[:]
                run(q)
                assert sorted(scans) == want, label
                held[label] += 1

    proofs()
    assert set(held) == {"qso1", "qso2"}, held


def test_a_holding_qso_check_never_builds_the_running_sums():
    # qso1 and qso2 hold on a product amplitude: the group totals give
    # their stats, and the plans' running sums stay unbuilt
    clear_screenoff_caches()
    q = product_amplitude_model(random.Random("running sums"), (2,) * 5)
    for check, rule in ((check_qso1, "mutual"), (check_qso2, "joint")):
        assert check(q).verdict == HOLDS
        assert stochastic_mod._screening_plan(q.site, rule, 2)[5] == [], rule


@pytest.mark.parametrize("tie", [(0, 1), (1, 2)])
def test_a_late_failure_after_held_groups_matches_the_per_pair_scan(tie):
    # on the diagonal, y leaves tied beyond their root d fail qso1 and qso2
    # late, after the walk skipped every step of the groups whose proofs
    # held: each adds |Φ(P)|²·|Φ(A)|²·|Φ(B)|² equations from the running sums
    q = _decohered(two_roots(random.Random(5), 2, tie, (True, True)))
    for label, run, ref in (("qso1", check_qso1, ref_qso1), ("qso2", check_qso2, ref_qso2)):
        outcome, skipped = skipped_steps(q, run)
        assert outcome == json.dumps(ref(q).to_json_dict(), sort_keys=True), label
        assert json.loads(outcome)["verdict"] == VIOLATED, label
        assert skipped and {kind for _, kind in skipped} == {"proof"}, label
