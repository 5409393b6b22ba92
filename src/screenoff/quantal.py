"""Decoherence matrices, quantal measures, and the quantal screening checks.

The interference data of a process is a Hermitian, positive, normalized
matrix over history pairs.  Screening is phrased on pseudo-events — ordered
products of plain events — whose complex-valued measure is read straight off
the matrix.  As in the classical module, every equation is tested in
cross-multiplied product form over a common denominator, so the checks never
divide and never round.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .events import (
    config_indices,
    dom,
    event_ref,
    full_specifications,
    n_configs,
    n_histories,
)
from .order import CausalSite, iter_bits
from .report import (
    HOLDS,
    VIOLATED,
    CheckReport,
    Counterexample,
    InternalCheckError,
    format_complex,
)
from .stochastic import (
    StochasticModel,
    _atom_coords,
    _history_cells,
    _screen,
    _screening_units,
    _spacelike_pairs,
    _union_offsets,
    check_so1,
)

# |Omega| bound up to which positivity is checked by exhausting all events.
POSITIVITY_ENUMERATION_LIMIT = 16


class QuantalError(ValueError):
    """Raised for malformed or uncertifiable interference matrices."""


@dataclass(frozen=True)
class ComplexFraction:
    """A complex number with exact rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(value) -> "ComplexFraction":
        if isinstance(value, ComplexFraction):
            return value
        if isinstance(value, tuple):
            re, im = value
            return ComplexFraction(Fraction(re), Fraction(im))
        return ComplexFraction(Fraction(value), Fraction(0))

    def __add__(self, other) -> "ComplexFraction":
        o = ComplexFraction.of(other)
        return ComplexFraction(self.re + o.re, self.im + o.im)

    def __sub__(self, other) -> "ComplexFraction":
        o = ComplexFraction.of(other)
        return ComplexFraction(self.re - o.re, self.im - o.im)

    def __mul__(self, other) -> "ComplexFraction":
        o = ComplexFraction.of(other)
        return ComplexFraction(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __radd__ = __add__
    __rmul__ = __mul__

    def conjugate(self) -> "ComplexFraction":
        return ComplexFraction(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __str__(self) -> str:
        return format_complex(self.re, self.im)


CF_ZERO = ComplexFraction()
CF_ONE = ComplexFraction(Fraction(1), Fraction(0))


def _scaled(values) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The common denominator of complex fractions and their Gaussian-integer numerators."""
    values = tuple(values)
    den = lcm(*(d for x in values for d in (x.re.denominator, x.im.denominator)))
    return den, tuple(
        (x.re.numerator * (den // x.re.denominator), x.im.numerator * (den // x.im.denominator))
        for x in values
    )


@dataclass(frozen=True)
class PseudoEvent:
    """An ordered product of two plain events — a rectangle in Omega x Omega."""

    left: int
    right: int

    def __and__(self, other: "PseudoEvent") -> "PseudoEvent":
        return PseudoEvent(self.left & other.left, self.right & other.right)


class QuantalModel:
    """An interference matrix over the histories of a causal site.

    ``entries[h][g]`` is the complex weight attached to the ordered history
    pair (h, g).  An optional ``positivity_witness`` — a sequence of
    (weight, amplitude-vector) pairs whose weighted outer products sum to
    the matrix — certifies positivity without enumeration.
    """

    __slots__ = ("site", "entries", "positivity_witness", "_den", "_ints", "_validation")

    def __init__(self, site: CausalSite, entries, positivity_witness=None) -> None:
        n = n_histories(site)
        rows = tuple(tuple(ComplexFraction.of(x) for x in row) for row in entries)
        if len(rows) != n or any(len(row) != n for row in rows):
            shape = f"{len(rows)}x{len(rows[0]) if rows else 0}"
            raise QuantalError(
                f"quantal error: dimension mismatch: matrix is {shape} "
                f"for a history space of size {n}"
            )
        self.site = site
        self.entries = rows
        if positivity_witness is not None:
            positivity_witness = tuple(
                (Fraction(w), tuple(ComplexFraction.of(a) for a in vec))
                for w, vec in positivity_witness
            )
        self.positivity_witness = positivity_witness
        self._den, flat = _scaled(x for row in rows for x in row)
        self._ints = tuple(flat[i : i + n] for i in range(0, n * n, n))
        self._validation = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantalModel):
            return NotImplemented
        return self.site == other.site and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.site, self.entries))

    def __repr__(self) -> str:
        return f"QuantalModel(site={self.site!r}, n_histories={len(self.entries)})"

    # -- measures ----------------------------------------------------------

    def d_value(self, left: int, right: int) -> ComplexFraction:
        """The matrix summed over an ordered pair of events."""
        total = CF_ZERO
        for h in iter_bits(left):
            row = self.entries[h]
            for g in iter_bits(right):
                total = total + row[g]
        return total

    def mu_hat(self, p: PseudoEvent) -> ComplexFraction:
        """The complex measure of a pseudo-event."""
        return self.d_value(p.left, p.right)

    def mu_q(self, a: int) -> Fraction:
        """The real quantal measure of a plain event."""
        self._require_valid()
        v = self.d_value(a, a)
        if v.im != 0:
            raise InternalCheckError("internal error: diagonal value not real on a valid model")
        return v.re

    # -- validation --------------------------------------------------------

    def _require_valid(self) -> None:
        report = validate_quantal(self)
        if not report.holds:
            raise QuantalError(f"quantal error: invalid model: {report.counterexample.note}")

    def _validate(self) -> CheckReport:
        condition = "quantal-axioms"
        ints = self._ints
        n = len(ints)
        for h in range(n):
            for g in range(h, n):
                re, im = ints[g][h]
                if ints[h][g] != (re, -im):
                    cx = Counterexample(
                        values=(
                            ("axiom", "hermiticity"),
                            ("entry", f"({h}, {g})"),
                            (f"D[{h}][{g}]", str(self.entries[h][g])),
                            (f"conj(D[{g}][{h}])", str(self.entries[g][h].conjugate())),
                        ),
                        note=f"hermiticity fails at history pair ({h}, {g})",
                    )
                    return CheckReport(condition, VIOLATED, counterexample=cx)
        total_re = sum(x[0] for row in ints for x in row)
        total_im = sum(x[1] for row in ints for x in row)
        if (total_re, total_im) != (self._den, 0):
            total = ComplexFraction(Fraction(total_re, self._den), Fraction(total_im, self._den))
            cx = Counterexample(
                values=(("axiom", "normalization"), ("total", str(total))),
                note=f"matrix sums to {total}, not 1",
            )
            return CheckReport(condition, VIOLATED, counterexample=cx)
        bad = self._positivity_failure()
        if bad is not None:
            event, value = bad
            cx = Counterexample(
                events=(("A", event_ref(self.site, event)),),
                values=(("axiom", "positivity"), ("mu_q(A)", str(value))),
                note=f"event {event:#x} has negative measure {value}",
            )
            return CheckReport(condition, VIOLATED, counterexample=cx, stats={"positivity": "enumerated"})
        mode = "witness" if self.positivity_witness is not None else "enumerated"
        return CheckReport(condition, HOLDS, stats={"positivity": mode})

    def _positivity_failure(self):
        """None if every event has nonnegative measure, else (event, value)."""
        if self.positivity_witness is not None:
            self._check_witness()
            return None
        ints = self._ints
        n = len(ints)
        if all(x == (0, 0) for h, row in enumerate(ints) for g, x in enumerate(row) if h != g):
            # fully decohered: additivity reduces every event to its singletons
            for h in range(n):
                if ints[h][h][0] < 0:
                    return 1 << h, self.entries[h][h].re
            return None
        if n > POSITIVITY_ENUMERATION_LIMIT:
            raise QuantalError(
                f"quantal error: positivity is uncertifiable: {n} histories exceed "
                f"the enumeration limit ({POSITIVITY_ENUMERATION_LIMIT}) and no "
                "positivity witness was given"
            )
        # incremental double sum over one-bit-flip subset steps
        col = [(0, 0)] * n
        s_re = 0
        s_im = 0
        cur = 0
        for g in range(1, 1 << n):
            h = (g & -g).bit_length() - 1
            bit = 1 << h
            d_re, d_im = ints[h][h]
            if cur & bit:  # removing h
                cur ^= bit
                for x in range(n):
                    cr, ci = col[x]
                    er, ei = ints[h][x]
                    col[x] = (cr - er, ci - ei)
                s_re -= d_re + 2 * col[h][0]
                s_im -= d_im
            else:  # adding h
                cur ^= bit
                s_re += d_re + 2 * col[h][0]
                s_im += d_im
                for x in range(n):
                    cr, ci = col[x]
                    er, ei = ints[h][x]
                    col[x] = (cr + er, ci + ei)
            if s_im:
                raise InternalCheckError("internal error: event measure not real")
            if s_re < 0:
                return cur, Fraction(s_re, self._den)
        return None

    def _check_witness(self) -> None:
        n = len(self.entries)
        for w, vec in self.positivity_witness:
            if w <= 0:
                raise QuantalError(f"quantal error: witness weight {w} is not positive")
            if len(vec) != n:
                raise QuantalError(
                    f"quantal error: witness vector has {len(vec)} amplitudes "
                    f"for {n} histories"
                )
        # term w * vec vec^dagger, with w = p/q and vec = V/dv, is c * V V^dagger / L
        # over the common denominator L of every q * dv^2
        scaled = []
        for w, vec in self.positivity_witness:
            dv, ints = _scaled(vec)
            scaled.append((w.numerator, w.denominator * dv * dv, ints))
        big = lcm(*(q for _, q, _ in scaled))
        terms = [(p * (big // q), ints) for p, q, ints in scaled]
        den = self._den
        for h in range(n):
            row = self._ints[h]
            for g in range(n):
                acc_re = acc_im = 0
                for c, v in terms:
                    hr, hi = v[h]
                    gr, gi = v[g]
                    acc_re += c * (hr * gr + hi * gi)
                    acc_im += c * (hi * gr - hr * gi)
                er, ei = row[g]
                if acc_re * den != er * big or acc_im * den != ei * big:
                    acc = ComplexFraction(Fraction(acc_re, big), Fraction(acc_im, big))
                    raise QuantalError(
                        "quantal error: positivity witness does not reproduce "
                        f"the matrix at entry ({h}, {g}): {acc} != {self.entries[h][g]}"
                    )


def validate_quantal(q: QuantalModel) -> CheckReport:
    """Check hermiticity, normalization, and positivity; report the first failure."""
    if q._validation is None:
        q._validation = q._validate()
    return q._validation


def pdom(q: QuantalModel, p: PseudoEvent) -> int:
    """The least region deciding both components of a pseudo-event."""
    return dom(q.site, p.left) | dom(q.site, p.right)


def pseudo_full_specifications(q: QuantalModel, region: int) -> tuple[PseudoEvent, ...]:
    """All ordered products of full specifications of the region.

    These partition the space of history pairs; there are |Phi(region)|^2
    of them, enumerated with the left component outermost.
    """
    cells = full_specifications(q.site, region)
    return tuple(PseudoEvent(f, g) for f in cells for g in cells)


# -- the quantal screening conditions ----------------------------------------


def _cmul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _pair_matrix(q: QuantalModel, regions: tuple[int, ...], offsets) -> tuple[list[int], list[int]]:
    """d-values between configurations of the union U of disjoint regions.

    `offsets` holds each region's `_union_offsets` in U.  The n_U x n_U matrix
    is flat and row-major in U's config order, as real and imaginary parts.
    """
    union, cells = _history_cells(q.site, regions, offsets)
    n = n_configs(q.site, union)
    re, im = [0] * (n * n), [0] * (n * n)
    for row_cell, row in zip(cells, q._ints):
        base = row_cell * n
        for cell, (x, y) in zip(cells, row):
            re[base + cell] += x
            im[base + cell] += y
    return re, im


def _quantal_screening_failure(
    q: QuantalModel, regions: tuple[int, ...], past: int, *, tables: dict
):
    """First pseudo-atom tuple breaking the complex product rule, or None.

    The classical scan over doubled regions: a pseudo-cell (c1, c2) of P is
    a cell of P x P and a pseudo-atom (x1, x2) of X one of X x X, read from
    the matrix of U = P u X1 u ... u Xk through offsets on both axes, first
    coordinate most significant.  Each pseudo-cell's margins are summed out
    of its block as in `_factorization_failure`, and J * muhat(C)^(k-1) ==
    prod M_i is tested in Gaussian integers, on null pseudo-cells too.  For
    a pair that is muhat(A&B&C) * muhat(C) == muhat(A&C) * muhat(B&C).  A
    k > 2 scan is a group certificate, sound only where muhat(C) != 0: on a
    null pseudo-cell it demands a zero block, which zeroes every pair's
    margins.  Returns (failure-or-None, equations_checked, 0).
    """
    site = q.site
    parts = (past, *regions)
    union = sum(parts)  # the parts are disjoint
    offsets = [_union_offsets(site, r, union) for r in parts]
    if union not in tables:
        tables[union] = _pair_matrix(q, parts, offsets)
    re, im = tables[union]
    n = n_configs(site, union)
    doubled_p, *doubled = ([x * n + y for x in o for y in o] for o in offsets)
    block = doubled[0]
    for region_offsets in doubled[1:]:
        block = [b + x for b in block for x in region_offsets]
    sizes = tuple(map(len, doubled))
    power = len(regions) - 1
    checked = 0
    for p, base in enumerate(doubled_p):
        jr = [re[base + i] for i in block]
        ji = [im[base + i] for i in block]
        margins, mr, mi = [], jr, ji
        for size in reversed(sizes[1:]):
            margins.append(([sum(mr[c::size]) for c in range(size)], [sum(mi[c::size]) for c in range(size)]))
            mr = [sum(mr[t : t + size]) for t in range(0, len(mr), size)]
            mi = [sum(mi[t : t + size]) for t in range(0, len(mi), size)]
        margins.append((mr, mi))
        margins.reverse()
        pr, pi = sum(mr), sum(mi)
        if power > 1 and not (pr or pi):  # a certificate needs a zero block here
            lhs_re, lhs_im, rhs_re, rhs_im = jr, ji, [0] * len(jr), [0] * len(jr)
        else:
            sr, si = pr, pi
            for _ in range(power - 1):
                sr, si = sr * pr - si * pi, sr * pi + si * pr
            if si:
                lhs_re = [x * sr - y * si for x, y in zip(jr, ji)]
                lhs_im = [x * si + y * sr for x, y in zip(jr, ji)]
            else:  # muhat(C) is real, as on every pseudo-cell of an empty past
                lhs_re = [x * sr for x in jr]
                lhs_im = [y * sr for y in ji]
            rhs_re, rhs_im = margins[0]
            for ur, ui in margins[1:]:
                rhs_re, rhs_im = (
                    [x * u - y * v for x, y in zip(rhs_re, rhs_im) for u, v in zip(ur, ui)],
                    [x * v + y * u for x, y in zip(rhs_re, rhs_im) for u, v in zip(ur, ui)],
                )
        if lhs_re != rhs_re or lhs_im != rhs_im:
            i = next(
                i for i, (x, y, u, v) in enumerate(zip(lhs_re, rhs_re, lhs_im, rhs_im))
                if x != y or u != v
            )
            atom = _atom_coords(sizes)[i]
            where = tuple([x for o, c in zip(offsets, (p, *atom)) for x in divmod(c, len(o))])
            values = ((jr[i], ji[i]), (pr, pi), *[(m[0][c], m[1][c]) for m, c in zip(margins, atom)])
            return (where, values), checked + i + 1, 0
        checked += len(jr)
    return None, checked, 0


def _quantal_counterexample(
    q: QuantalModel, regions: tuple[int, int], names: tuple[str, str], past: int, fail, note: str
) -> Counterexample:
    site = q.site
    (c1, c2, a1, a2, b1, b2), (joint, mp, ma, mb) = fail
    den = q._den

    def fmt(v: tuple[int, int], d: int = den) -> str:
        return format_complex(Fraction(v[0], d), Fraction(v[1], d))

    labels = [(name, site.region_ids(r)) for name, r in zip(names, regions)]
    events = []
    for name, r, atoms in zip((*names, "C"), (*regions, past), ((a1, a2), (b1, b2), (c1, c2))):
        cells = full_specifications(site, r)
        events += [(f"{name}{k}", event_ref(site, cells[i], r, i)) for k, i in enumerate(atoms, 1)]
    return Counterexample(
        regions=(*labels, ("past", site.region_ids(past))),
        events=tuple(events),
        values=(
            ("muhat(A&B&C)", fmt(joint)),
            ("muhat(C)", fmt(mp)),
            ("muhat(A&C)", fmt(ma)),
            ("muhat(B&C)", fmt(mb)),
            ("muhat(A&B&C)*muhat(C)", fmt(_cmul(joint, mp), den * den)),
            ("muhat(A&C)*muhat(B&C)", fmt(_cmul(ma, mb), den * den)),
        ),
        note=note,
    )


def _quantal_pairwise_check(q: QuantalModel, condition: str, rule: str) -> CheckReport:
    """Screen the spacelike pairs, each given every pseudo-cell of its `rule` region.

    The complex product rule is linear in each pseudo-event component, so it
    decomposes like conditional independence and the walk is so1's or so2's:
    the first pair, then a step's group certificate, A-first and B-first
    dominator, the first that holds standing in for it.  A held stand-in
    counts |Φ(P)|²·|Φ(A)|²·|Φ(B)|² equations, null pseudo-cells included.
    """
    q._require_valid()
    return _screen(
        q,
        condition,
        _screening_units(q.site, rule, 2, _spacelike_pairs(q.site)),
        "complex product rule fails for this pseudo-atom triple",
        scan=_quantal_screening_failure,
        counterexample=_quantal_counterexample,
        count_keys=("equations_checked",),
    )


def check_qso1(q: QuantalModel) -> CheckReport:
    """Complex product rule over pseudo-atoms, conditioned on the mutual past.

    For every ordered pair of disjoint nonempty spacelike regions, every
    ordered product of that pair's atoms, and every pseudo-cell C of the
    mutual past: the complex measure satisfies
    muhat(A&B&C) * muhat(C) == muhat(A&C) * muhat(B&C).
    """
    return _quantal_pairwise_check(q, "qso1", "mutual")


def check_qso2(q: QuantalModel) -> CheckReport:
    """As check_qso1, conditioning on the joint past of the pair."""
    return _quantal_pairwise_check(q, "qso2", "joint")


# -- reduction to the classical check ----------------------------------------


def diagonal_reduction(q: QuantalModel) -> CheckReport:
    """On a fully decohered matrix, the quantal check must mirror the classical one.

    Builds the probability measure from the diagonal and verifies that the
    quantal and classical screening verdicts coincide — and, when both are
    violations, that they indict the same regions, atoms, and conditioning
    cell.  A nonzero off-diagonal entry is an error.
    """
    site = q.site
    n = len(q.entries)
    for h in range(n):
        for g in range(n):
            if h != g and q._ints[h][g] != (0, 0):
                raise QuantalError(
                    f"quantal error: off-diagonal entry at ({h}, {g}); "
                    "diagonal reduction needs a fully decohered matrix"
                )
    weights = []
    for h in range(n):
        d = q.entries[h][h]
        if d.im != 0:
            raise QuantalError(f"quantal error: diagonal entry {h} is not real")
        weights.append(d.re)
    induced = StochasticModel(site, weights)
    so = check_so1(induced)
    qso = check_qso1(q)
    stats = {"so1_verdict": so.verdict, "qso1_verdict": qso.verdict}
    condition = "diag-reduce"
    if so.verdict != qso.verdict:
        cx = Counterexample(
            values=(("so1", so.verdict), ("qso1", qso.verdict)),
            note="quantal and classical verdicts disagree on a decohered matrix",
        )
        return CheckReport(condition, VIOLATED, counterexample=cx, stats=stats)
    if so.violated:
        sc = so.counterexample
        qc = qso.counterexample
        matched = (
            sc.regions == qc.regions
            and sc.event("A").mask == qc.event("A1").mask == qc.event("A2").mask
            and sc.event("B").mask == qc.event("B1").mask == qc.event("B2").mask
            and sc.event("C").mask == qc.event("C1").mask == qc.event("C2").mask
        )
        stats["counterexamples_matched"] = matched
        if not matched:
            cx = Counterexample(
                values=(
                    ("classical A", sc.event("A").describe()),
                    ("quantal A1", qc.event("A1").describe()),
                    ("classical C", sc.event("C").describe()),
                    ("quantal C1", qc.event("C1").describe()),
                ),
                note="matching verdicts but different first counterexamples",
            )
            return CheckReport(condition, VIOLATED, counterexample=cx, stats=stats)
    return CheckReport(condition, HOLDS, stats=stats)


# -- the pseudo-event lemma toolbox, run as executable properties -------------


def verify_quantal_lemmas(q: QuantalModel, samples: int = 200, seed: int = 7) -> CheckReport:
    """Exercise the supporting lemmas behind the quantal equivalence proof.

    Three families: domains of intersections of pseudo-events with disjoint
    domains stay inside the union; pseudo-cells of a union of disjoint
    regions factor into componentwise intersections of the parts' cells;
    and the pure complex-rational identity that carries the equivalence
    argument, instantiated on random exact values satisfying its hypotheses.
    """
    site = q.site
    rng = random.Random(seed)
    n = n_histories(site)
    condition = "quantal-lemmas"

    # intersection domains stay inside the union of disjoint domains;
    # sample events decidable on disjoint regions so the hypothesis is live
    def cell_union(region: int) -> int:
        cells = full_specifications(site, region)
        return sum(c for c in cells if rng.random() < 0.5)

    pdom_checks = 0
    for _ in range(samples):
        r1 = rng.randrange(site.full_mask + 1)
        r2 = rng.randrange(site.full_mask + 1) & ~r1
        x = PseudoEvent(cell_union(r1), cell_union(r1))
        y = PseudoEvent(cell_union(r2), cell_union(r2))
        if pdom(q, x) & pdom(q, y):
            raise InternalCheckError("internal error: sampler produced overlapping domains")
        pdom_checks += 1
        inside = pdom(q, x & y)
        outside = inside & ~(pdom(q, x) | pdom(q, y))
        if outside:
            cx = Counterexample(
                events=(
                    ("X1", event_ref(site, x.left)),
                    ("X2", event_ref(site, x.right)),
                    ("Y1", event_ref(site, y.left)),
                    ("Y2", event_ref(site, y.right)),
                ),
                values=(("property", "intersection-domain"),),
                note=(
                    "domain of the intersection reaches "
                    f"{site.region_ids(outside)}, outside both factors' domains"
                ),
            )
            return CheckReport(condition, VIOLATED, counterexample=cx)

    # pseudo-cells of a disjoint union factor componentwise
    factev = 0
    full = site.full_mask
    for ra in range(1, full + 1):
        for rb in range(1, full + 1):
            if ra & rb:
                continue
            cis_a = config_indices(site, ra)
            cis_b = config_indices(site, rb)
            cells_a = full_specifications(site, ra)
            cells_b = full_specifications(site, rb)
            for f in pseudo_full_specifications(q, ra | rb):
                h1 = next(iter_bits(f.left))
                h2 = next(iter_bits(f.right))
                ga = PseudoEvent(cells_a[cis_a[h1]], cells_a[cis_a[h2]])
                gb = PseudoEvent(cells_b[cis_b[h1]], cells_b[cis_b[h2]])
                factev += 1
                if ga & gb != f:
                    cx = Counterexample(
                        events=(
                            ("F1", event_ref(site, f.left)),
                            ("F2", event_ref(site, f.right)),
                        ),
                        values=(("property", "cell-factorization"),),
                        note=(
                            f"pseudo-cell of {site.region_ids(ra | rb)} is not the "
                            "intersection of its component cells"
                        ),
                    )
                    return CheckReport(condition, VIOLATED, counterexample=cx)

    # the complex-rational identity: four product hypotheses force the fifth
    def draw() -> ComplexFraction:
        return ComplexFraction(
            Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)),
            Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)),
        )

    identity_checks = 0
    for _ in range(samples):
        m_p = draw()
        while not m_p:
            m_p = draw()
        m_ay = draw()
        m_bx = draw()
        m_x = draw()
        m_y = draw()
        # each composite measure is a product over m_p; the identity is
        # tested multiplied through by m_p**2, which is not zero
        m_abxy = m_ay * m_bx
        m_axy = m_ay * m_x
        m_bxy = m_y * m_bx
        m_xy = m_y * m_x
        identity_checks += 1
        if m_axy * m_bxy != m_abxy * m_xy:
            cx = Counterexample(
                values=(
                    ("property", "product-identity"),
                    ("base", str(m_p)),
                ),
                note="the composite product identity failed on exact values",
            )
            return CheckReport(condition, VIOLATED, counterexample=cx)

    stats = {
        "intersection_domain_samples": pdom_checks,
        "cell_factorizations": factev,
        "identity_samples": identity_checks,
    }
    return CheckReport(condition, HOLDS, stats=stats)
