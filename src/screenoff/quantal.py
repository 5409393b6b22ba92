"""Decoherence matrices, quantal measures, and the quantal screening checks.

The interference data of a process is a Hermitian, positive, normalized
matrix over history pairs.  Screening is phrased on pseudo-events — ordered
products of plain events — whose complex-valued measure is read straight off
the matrix.  As in the classical module, every equation is tested in
cross-multiplied product form over a common denominator, so the checks never
divide and never round.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm, prod

from .events import (
    check_event,
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
    _planned,
    _product_rule_failure,
    _screen,
    _spacelike_pairs,
    _union_table,
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


def _fractions(values, den: int) -> tuple[ComplexFraction, ...]:
    """Gaussian integers over `den` as complex fractions."""
    return tuple(ComplexFraction(Fraction(x, den), Fraction(y, den)) for x, y in values)


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
    the matrix — certifies positivity without enumeration.  Both are views,
    built on first use, of Gaussian-integer rows ``_ints`` over a reduced ``_den``.
    """

    __slots__ = ("site", "_den", "_ints", "_witness", "_entry_view", "_witness_view", "_validation")

    def __init__(self, site: CausalSite, entries, positivity_witness=None) -> None:
        n = n_histories(site)
        rows = tuple(tuple(ComplexFraction.of(x) for x in row) for row in entries)
        if len(rows) != n or any(len(row) != n for row in rows):
            shape = f"{len(rows)}x{len(rows[0]) if rows else 0}"
            raise QuantalError(
                f"quantal error: dimension mismatch: matrix is {shape} "
                f"for a history space of size {n}"
            )
        den, flat = _scaled(x for row in rows for x in row)
        witness = None if positivity_witness is None else [
            (*Fraction(w).as_integer_ratio(), *_scaled(map(ComplexFraction.of, vec)))
            for w, vec in positivity_witness
        ]
        self._setup(site, den, [flat[i : i + n] for i in range(0, n * n, n)], witness)

    @classmethod
    def _from_scaled(cls, site: CausalSite, den: int, ints, witness=None) -> "QuantalModel":
        """A model from Gaussian-integer rows over `den` and (p, q, dv, V) witness terms."""
        return cls.__new__(cls)._setup(site, den, ints, witness)

    def _setup(self, site: CausalSite, den: int, ints, witness) -> "QuantalModel":
        # divide out the common factor, so that (_den, _ints) is canonical
        g = gcd(den, *chain.from_iterable(chain.from_iterable(ints)))
        if g > 1:
            den, ints = den // g, [[(x // g, y // g) for x, y in row] for row in ints]
        self.site, self._den, self._ints = site, den, tuple(map(tuple, ints))
        self._witness = None if witness is None else tuple(witness)
        self._entry_view = self._witness_view = self._validation = None
        return self

    @property
    def entries(self) -> tuple[tuple[ComplexFraction, ...], ...]:
        if self._entry_view is None:
            self._entry_view = tuple(_fractions(row, self._den) for row in self._ints)
        return self._entry_view

    @property
    def positivity_witness(self):
        if self._witness_view is None and self._witness is not None:
            self._witness_view = tuple((Fraction(p, q), _fractions(v, dv)) for p, q, dv, v in self._witness)
        return self._witness_view

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantalModel):
            return NotImplemented
        return self.site == other.site and self._den == other._den and self._ints == other._ints

    def __hash__(self) -> int:
        return hash((self.site, self._den, self._ints))

    def __repr__(self) -> str:
        return f"QuantalModel(site={self.site!r}, n_histories={len(self._ints)})"

    # -- measures ----------------------------------------------------------

    def d_value(self, left: int, right: int) -> ComplexFraction:
        """The matrix summed over an ordered pair of events."""
        left, right = check_event(self.site, left), check_event(self.site, right)
        re = im = 0
        for h in iter_bits(left):
            row = self._ints[h]
            for g in iter_bits(right):
                x, y = row[g]
                re, im = re + x, im + y
        return ComplexFraction(Fraction(re, self._den), Fraction(im, self._den))

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
        mode = "witness" if self._witness is not None else "enumerated"
        return CheckReport(condition, HOLDS, stats={"positivity": mode})

    def _positivity_failure(self):
        """None if every event has nonnegative measure, else (event, value)."""
        if self._witness is not None:
            self._check_witness()
            return None
        ints = self._ints
        n = len(ints)
        if all(x == (0, 0) for h, row in enumerate(ints) for g, x in enumerate(row) if h != g):
            # fully decohered: additivity reduces every event to its singletons
            for h in range(n):
                if ints[h][h][0] < 0:
                    return 1 << h, Fraction(ints[h][h][0], self._den)
            return None
        if n > POSITIVITY_ENUMERATION_LIMIT:
            raise QuantalError(
                f"quantal error: positivity is uncertifiable: {n} histories exceed "
                f"the enumeration limit ({POSITIVITY_ENUMERATION_LIMIT}) and no "
                "positivity witness was given"
            )
        # incremental double sum over one-bit-flip subset steps: col[x] sums
        # column x over the rows of the event.  Adding (sign 1) or removing
        # (sign -1) h moves the measure by sign * (D[h][h] + 2 Re c), c being
        # col[h] over the event without h: D[h][h] + sign * 2 Re col[h] with
        # col read before the step
        negated = [[(-re, -im) for re, im in row] for row in ints]
        col = [(0, 0)] * n
        s_re = s_im = cur = 0
        for g in range(1, 1 << n):
            h = (g & -g).bit_length() - 1
            sign = -1 if cur >> h & 1 else 1
            cur ^= 1 << h
            d_re, d_im = ints[h][h]
            s_re += d_re + sign * 2 * col[h][0]
            s_im += sign * d_im
            for x, (er, ei) in enumerate(ints[h] if sign > 0 else negated[h]):
                cr, ci = col[x]
                col[x] = (cr + er, ci + ei)
            if s_im:
                raise InternalCheckError("internal error: event measure not real")
            if s_re < 0:
                return cur, Fraction(s_re, self._den)
        return None

    def _check_witness(self) -> None:
        n = len(self._ints)
        for p, q, _, vec in self._witness:
            if p <= 0:
                raise QuantalError(f"quantal error: witness weight {Fraction(p, q)} is not positive")
            if len(vec) != n:
                raise QuantalError(
                    f"quantal error: witness vector has {len(vec)} amplitudes "
                    f"for {n} histories"
                )
        # term w * vec vec^dagger, with w = p/q and vec = V/dv, is c * V V^dagger / L
        # over the common denominator L of every q * dv^2
        big = lcm(*(q * dv * dv for _, q, dv, _ in self._witness))
        terms = [(p * (big // (q * dv * dv)), vec) for p, q, dv, vec in self._witness]
        den = self._den
        # relies on _validate checking hermiticity first: the matrix and the sum of
        # terms are both Hermitian, so their differences are mirrored, first at h <= g
        for h in range(n):
            row = self._ints[h]
            for g in range(h, n):
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


def _pair_matrix(q: QuantalModel, regions: tuple[int, ...]) -> tuple[list[int], int]:
    """(d-values between configurations of the union U of disjoint regions, N), x + iy as x + y·N.

    The n_U x n_U matrix is flat and row-major in U's config order.  Let S
    be its sum of absolute parts, and N = 2·S^|U| + 1.  Every block sum z
    has |Re z| + |Im z| <= S, and that measure of a product is at most the
    product of its factors', so both sides of a product-rule identity over
    k <= |U| regions, a product of k block sums, have parts at most S^|U|,
    and their difference at most 2·S^|U| < N.  Mod N² + 1, i ↦ N is a ring
    homomorphism, as N² ≡ −1, and one-to-one on parts below N: a + bN ≡ 0
    with |a|, |b| < N gives |a + bN| < N² + 1, so a + bN = 0, which forces
    b = 0, then a = 0.  So every identity on this table holds in ℤ[i] iff
    it holds mod N² + 1.  Sums stay unreduced: one is zero iff its Gaussian
    sum is, and `_gaussian` decodes it.
    """
    union = sum(regions)  # the regions are disjoint
    cells = config_indices(q.site, union)
    n = n_configs(q.site, union)
    if n == len(cells):  # U's config order is the history order
        entries = list(chain.from_iterable(q._ints))
    else:
        re, im = [0] * (n * n), [0] * (n * n)
        for row_cell, row in zip(cells, q._ints):
            base = row_cell * n
            for cell, (x, y) in zip(cells, row):
                re[base + cell] += x
                im[base + cell] += y
        entries = list(zip(re, im))
    big = 2 * sum(map(abs, chain.from_iterable(entries))) ** union.bit_count() + 1
    return [x + y * big for x, y in entries], big


def _gaussian(value: int, big: int) -> tuple[int, int]:
    """The Gaussian integer x + iy with parts below big / 2 encoded as x + y·big."""
    y, x = divmod(value, big)
    return (x - big, y + 1) if 2 * x > big else (x, y)


def _quantal_screening_failure(
    q: QuantalModel, regions: tuple[int, ...], past: int, *, tables: dict
):
    """First pseudo-atom tuple breaking the complex product rule, or None.

    `_product_rule_failure` over doubled regions: a pseudo-cell (c1, c2) of
    P is a cell of P x P and a pseudo-atom (x1, x2) of X one of X x X, read
    from the encoded matrix of U = P u X1 u ... u Xk (`_pair_matrix`).  For
    a pair the rule is muhat(A&B&C) * muhat(C) == muhat(A&C) * muhat(B&C).
    A skipped null pseudo-cell counts its equations as checked.  Returns
    ((c1, c2, x1, x2, ...), Gaussian (joint, muhat(C), margins...)) or
    None, equations_checked, 0.
    """
    site = q.site
    parts = (past, *regions)
    union, (table, big) = _union_table(q, parts, tables, _pair_matrix)
    fail, checked, nulls = _product_rule_failure(site, table, union, regions, past, 2, big * big + 1)
    checked += nulls * prod(n_configs(site, r) ** 2 for r in regions)
    if fail is None:
        return None, checked, 0
    coords = (fail.past_index, *fail.atom_indexes)
    where = tuple([x for r, c in zip(parts, coords) for x in divmod(c, n_configs(site, r))])
    values = (fail.w_joint, fail.w_past, *fail.w_margins)
    return (where, tuple(_gaussian(v, big) for v in values)), checked, 0


def _quantal_counterexample(
    q: QuantalModel, regions: tuple[int, int], names: tuple[str, str], past: int, fail, note: str
) -> Counterexample:
    site = q.site
    (c1, c2, a1, a2, b1, b2), values = fail
    joint, mp, ma, mb = _fractions(values, q._den)
    labels = [(name, site.region_ids(r)) for name, r in zip(names, regions)]
    events = []
    for name, r, atoms in zip((*names, "C"), (*regions, past), ((a1, a2), (b1, b2), (c1, c2))):
        cells = full_specifications(site, r)
        events += [(f"{name}{k}", event_ref(site, cells[i], r, i)) for k, i in enumerate(atoms, 1)]
    return Counterexample(
        regions=(*labels, ("past", site.region_ids(past))),
        events=tuple(events),
        values=(
            ("muhat(A&B&C)", str(joint)),
            ("muhat(C)", str(mp)),
            ("muhat(A&C)", str(ma)),
            ("muhat(B&C)", str(mb)),
            ("muhat(A&B&C)*muhat(C)", str(joint * mp)),
            ("muhat(A&C)*muhat(B&C)", str(ma * mb)),
        ),
        note=note,
    )


def _quantal_pairwise_check(q: QuantalModel, condition: str, rule: str) -> CheckReport:
    """Screen the spacelike pairs, each given every pseudo-cell of its `rule` region.

    The complex product rule is linear in each pseudo-event component, so it
    decomposes like conditional independence and the walk is so1's or so2's:
    the first pair, then each group by its proof where that holds; else
    each step by its A-first, then its B-first dominator, the first that
    holds standing in for it, else by its own scan.  A held stand-in counts
    |Φ(P)|²·|Φ(A)|²·|Φ(B)|² equations, null pseudo-cells included.
    """
    q._require_valid()
    steps, plan = _planned(q.site, rule, 2, _spacelike_pairs(q.site))
    return _screen(
        q,
        condition,
        steps,
        "complex product rule fails for this pseudo-atom triple",
        plan=plan,
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
    n = len(q._ints)
    for h in range(n):
        for g in range(n):
            if h != g and q._ints[h][g] != (0, 0):
                raise QuantalError(
                    f"quantal error: off-diagonal entry at ({h}, {g}); "
                    "diagonal reduction needs a fully decohered matrix"
                )
    nums = []
    for h in range(n):
        re, im = q._ints[h][h]
        if im != 0:
            raise QuantalError(f"quantal error: diagonal entry {h} is not real")
        nums.append(re)
    induced = StochasticModel._from_scaled(site, q._den, nums)
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
