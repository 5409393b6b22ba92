"""A model whose witness is one term against its twin, the same vector as two halves.

With one witness term, D = w·ψψ†, a quantal scan is first decided from ψ's
sums over the union, and only a scan that fails there is taken by the
kernel; a witness of two terms always takes the kernel.  So on every drawn
ψ the two models must give the same qso1 and qso2 reports, counterexamples
and stats included, and multi-so's k-region walks at power 2 the same
verdicts and stats.  The draws are random, product and perturbed-product
amplitudes, and products with zero entries or with cells of zero sum, where
null pseudo-cells occur, on sites of 2-4 elements with alphabets 2-3, most
with nonempty pasts.

A third model carries ψψ†'s matrix and, as its one witness term, the
uniform vector, on which every scan holds: validation would refuse it, and
until validation has held its scans must be the twin's.
"""
from __future__ import annotations

import random
from math import prod

from definitions import joint_past, mutual_past
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference import _cmul, _outcome

import screenoff.quantal as quantal
import screenoff.stochastic as stochastic
from screenoff.events import history_digits, n_histories
from screenoff.order import CausalSite
from screenoff.quantal import QuantalModel, check_qso1, check_qso2


@st.composite
def rank_one_vectors(draw) -> tuple[CausalSite, list[tuple[int, int]]]:
    """A site of 2-4 elements and a Gaussian-integer amplitude vector ψ of one drawn kind."""
    n = draw(st.integers(2, 4))
    alphabets = draw(st.lists(st.integers(2, 3), min_size=n, max_size=n))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    relations = draw(st.lists(st.sampled_from(edges), unique=True))
    site = CausalSite([(f"e{i}", a) for i, a in enumerate(alphabets)], [(f"e{i}", f"e{j}") for i, j in relations])
    kind = draw(st.sampled_from(["random", "product", "perturbed", "zeros", "zero-sum"]))
    rng = random.Random(draw(st.integers(0, 10**6)))
    size = n_histories(site)
    if kind == "random":
        return site, [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(size)]
    factors = [[(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(a)] for a in alphabets]
    psi = []
    for h in range(size):
        amplitude = (1, 0)
        for factor, x in zip(factors, history_digits(site, h)):
            amplitude = _cmul(amplitude, factor[x])
        psi.append(amplitude)
    if kind == "perturbed":
        h = rng.randrange(size)
        psi[h] = (psi[h][0] + rng.choice((-1, 1)), psi[h][1])
    elif kind == "zeros":
        psi = [x if rng.random() < 0.6 else (0, 0) for x in psi]
    elif kind == "zero-sum":
        # where f has value 0, ψ at e = 1 is minus ψ at e = 0, and 0 above:
        # a cell of a past that holds f and not e then sums to 0, while its
        # block, split by e, is not 0
        e, f = rng.sample(range(n), 2)
        stride = size // prod(alphabets[: e + 1])
        for h in range(size):
            digits = history_digits(site, h)
            if digits[f] == 0 and digits[e]:
                x, y = psi[h - stride]
                psi[h] = (-x, -y) if digits[e] == 1 else (0, 0)
    return site, psi


def matrix(psi) -> tuple[int, list[int], list[int]]:
    """(den, re, im) of D = ψψ†/|Σψ|², flat and row-major over Gaussian-integer parts."""
    x, y = sum(a for a, _ in psi), sum(b for _, b in psi)
    re = [hr * gr + hi * gi for hr, hi in psi for gr, gi in psi]
    im = [hi * gr - hr * gi for hr, hi in psi for gr, gi in psi]
    return x * x + y * y, re, im


def model(site: CausalSite, psi, terms: int) -> QuantalModel:
    """D = ψψ†/|Σψ|² with ψ as its witness, split into `terms` equal parts."""
    den, re, im = matrix(psi)
    return QuantalModel._from_scaled(site, den, re, im, [(1, terms * den, 1, tuple(psi))] * terms)


@settings(max_examples=300, deadline=None)
@given(rank_one_vectors())
def test_a_one_term_witness_reports_as_its_two_halves(drawn):
    site, psi = drawn
    den, re, im = matrix(psi)
    assume(den)  # Σψ ≠ 0, or D cannot be normalized
    pure, twin = model(site, psi, 1), model(site, psi, 2)
    for label, check in (("qso1", check_qso1), ("qso2", check_qso2)):
        assert _outcome(lambda: check(pure)) == _outcome(lambda: check(twin)), label
    for n in (2, 3):
        reports = []
        for q in (pure, twin):
            steps, plan = stochastic._planned(site, n, 2)
            report = stochastic._screen(
                q, "multi-so", steps, "", plan=plan, scan=quantal._quantal_screening_failure, unit_key="region_tuples")
            reports.append((report.verdict, report.stats))
        assert reports[0] == reports[1], n
    uniform = QuantalModel._from_scaled(site, den, re, im, [(1, 1, 1, ((1, 0),) * len(psi))])
    for a, b in stochastic._spacelike_pairs(site):
        for past in {mutual_past(site, a, b), joint_past(site, a, b)}:
            got = quantal._quantal_screening_failure(uniform, (a, b), past)
            assert got == quantal._quantal_screening_failure(twin, (a, b), past), (a, b, past)
