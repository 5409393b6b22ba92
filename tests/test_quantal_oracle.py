"""Differential oracle for the scaled Gaussian-integer quantal paths.

The reference code below is the ComplexFraction construction of random
quantal models, and the ComplexFraction validation of the matrix axioms,
that the generator and validator compute in scaled integers.  It is kept
here, test-only, so that every model, report and error text the program
produces can be compared with it byte for byte.
"""
from __future__ import annotations

import json
from fractions import Fraction
from math import lcm

import pytest

import screenoff.quantal as quantal_mod
from screenoff.corpus import _random_site, _rng, random_quantal
from screenoff.events import event_ref
from screenoff.modelfile import render_model_json
from screenoff.order import CausalSite
from screenoff.quantal import (
    CF_ONE,
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
from screenoff.report import HOLDS, VIOLATED, CheckReport, Counterexample

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
    den = 1
    for row in entries:
        for x in row:
            den = lcm(den, x.re.denominator, x.im.denominator)
    return den, tuple(
        tuple((int(x.re * den), int(x.im * den)) for x in row) for row in entries
    )


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
    q._den, q._ints = reference_ints(q.entries)
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
        assert (model._den, model._ints) == (ref._den, ref._ints)
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
