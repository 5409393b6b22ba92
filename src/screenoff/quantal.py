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
from functools import partial, reduce
from itertools import repeat
from math import gcd, lcm, prod
from operator import add, mul, neg, sub

from .events import (
    check_event,
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
    _cell_gather,
    _gaussian,
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


class QuantalModel:
    """An interference matrix over the histories of a causal site.

    ``entries[h][g]`` is the complex weight attached to the ordered history
    pair (h, g).  An optional ``positivity_witness`` — a sequence of
    (weight, amplitude-vector) pairs whose weighted outer products sum to
    the matrix — certifies positivity without enumeration.  Both are views,
    built on first use, of the matrix's Gaussian-integer parts, flat and
    row-major ``_re`` and ``_im``, over a reduced ``_den``.  ``_encoded``
    is the matrix as `_pair_matrix` encodes it, built on its first call.
    """

    __slots__ = ("site", "_den", "_re", "_im", "_witness", "_encoded", "_entry_view", "_witness_view", "_validation")

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
        self._setup(site, den, *zip(*flat), witness)

    @classmethod
    def _from_scaled(cls, site: CausalSite, den: int, re, im, witness=None) -> "QuantalModel":
        """A model from flat row-major Gaussian-integer parts over `den` and (p, q, dv, V) witness terms."""
        return cls.__new__(cls)._setup(site, den, re, im, witness)

    def _setup(self, site: CausalSite, den: int, re, im, witness) -> "QuantalModel":
        # divide out the common factor, so that (_den, _re, _im) is canonical
        g = gcd(den, *re, *im)
        if g > 1:
            den, re, im = den // g, [x // g for x in re], [y // g for y in im]
        self.site, self._den, self._re, self._im = site, den, tuple(re), tuple(im)
        self._witness = None if witness is None else tuple(witness)
        self._encoded = self._entry_view = self._witness_view = self._validation = None
        return self

    @property
    def entries(self) -> tuple[tuple[ComplexFraction, ...], ...]:
        if self._entry_view is None:
            flat, n = _fractions(zip(self._re, self._im), self._den), n_histories(self.site)
            self._entry_view = tuple(flat[i : i + n] for i in range(0, len(flat), n))
        return self._entry_view

    @property
    def positivity_witness(self):
        if self._witness_view is None and self._witness is not None:
            self._witness_view = tuple((Fraction(p, q), _fractions(v, dv)) for p, q, dv, v in self._witness)
        return self._witness_view

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantalModel):
            return NotImplemented
        return (self.site, self._den, self._re, self._im) == (other.site, other._den, other._re, other._im)

    def __hash__(self) -> int:
        return hash((self.site, self._den, self._re, self._im))

    def __repr__(self) -> str:
        return f"QuantalModel(site={self.site!r}, n_histories={n_histories(self.site)})"

    # -- measures ----------------------------------------------------------

    def d_value(self, left: int, right: int) -> ComplexFraction:
        """The matrix summed over an ordered pair of events."""
        left, right = check_event(self.site, left), check_event(self.site, right)
        n, re, im = n_histories(self.site), 0, 0
        for h in iter_bits(left):
            for g in iter_bits(right):
                re, im = re + self._re[h * n + g], im + self._im[h * n + g]
        return ComplexFraction(Fraction(re, self._den), Fraction(im, self._den))

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
        re, im, n = self._re, self._im, n_histories(self.site)
        for h in range(n):  # row h from the diagonal against column h from it
            d = h * n + h
            if re[d : h * n + n] != re[d::n] or im[d : h * n + n] != tuple(map(neg, im[d::n])):
                g = next(g for g in range(h, n) if (re[h * n + g], im[h * n + g]) != (re[g * n + h], -im[g * n + h]))
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
        total_re, total_im = sum(re), sum(im)
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
        re, im, n = self._re, self._im, n_histories(self.site)
        if self._first_off_diagonal() is None:
            # fully decohered: additivity reduces every event to its singletons
            for h, x in enumerate(re[:: n + 1]):
                if x < 0:
                    return 1 << h, Fraction(x, self._den)
            return None
        if n > POSITIVITY_ENUMERATION_LIMIT:
            raise QuantalError(
                f"quantal error: positivity is uncertifiable: {n} histories exceed "
                f"the enumeration limit ({POSITIVITY_ENUMERATION_LIMIT}) and no "
                "positivity witness was given"
            )
        # incremental double sum over one-bit-flip subset steps: col[x] sums
        # Re of column x over the rows of the event.  Adding (sign 1) or removing
        # (sign -1) h moves the measure by sign * (D[h][h] + 2 Re c), c being
        # col[h] over the event without h: D[h][h] + sign * 2 Re col[h] with
        # col read before the step
        col = [0] * n
        s_re = s_im = cur = 0
        for g in range(1, 1 << n):
            h = (g & -g).bit_length() - 1
            sign = -1 if cur >> h & 1 else 1
            cur ^= 1 << h
            s_re += re[h * n + h] + sign * 2 * col[h]
            s_im += sign * im[h * n + h]
            col = list(map(add if sign > 0 else sub, col, re[h * n : h * n + n]))
            if s_im:
                raise InternalCheckError("internal error: event measure not real")
            if s_re < 0:
                return cur, Fraction(s_re, self._den)
        return None

    def _first_off_diagonal(self):
        """(h, g) of the first nonzero entry off the diagonal, row by row, or None."""
        n = n_histories(self.site)
        i = next((i for i, z in enumerate(zip(self._re, self._im)) if i % (n + 1) and any(z)), None)
        return None if i is None else divmod(i, n)

    def _check_witness(self) -> None:
        n = n_histories(self.site)
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
        re, im, den = self._re, self._im, self._den
        # relies on _validate checking hermiticity first: the matrix and the sum of
        # terms are both Hermitian, so their differences are mirrored, first at h <= g
        for h in range(n):
            for g in range(h, n):
                acc_re = acc_im = 0
                for c, v in terms:
                    hr, hi = v[h]
                    gr, gi = v[g]
                    acc_re += c * (hr * gr + hi * gi)
                    acc_im += c * (hi * gr - hr * gi)
                er, ei = re[h * n + g], im[h * n + g]
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


# -- the quantal screening conditions ----------------------------------------


def _pair_matrix(q: QuantalModel, regions: tuple[int, ...]) -> tuple[list[int], int]:
    """(d-values between configurations of the union U of disjoint regions, N), x + iy as x + y·N.

    The n_U x n_U matrix is flat and row-major in U's config order, summed
    by `_cell_gather` over rows, then columns, from the model's matrix
    encoded on the first call.  Let S be that matrix's sum of absolute
    parts, and N = 2·S² + 1.  Every table entry, and every block sum, w,
    column and joint of a scan, is a sum of its entries, so it has
    |Re| + |Im| <= S, and that measure of a product is at most the product
    of its factors'.  So every comparison of degree 2, a step
    T_j·w = T_{j−1} ⊗ M_j, a pair J·w = M_A ⊗ M_B or a null cell 0 = J,
    has a difference with parts at most 2·S² < N.  Mod N² + 1, i ↦ N is a
    ring homomorphism, as N² ≡ −1, and one-to-one on parts below N:
    a + bN ≡ 0 with |a|, |b| < N gives |a + bN| < N² + 1, so a + bN = 0,
    which forces b = 0, then a = 0.  So each such identity holds in ℤ[i]
    iff it holds mod N² + 1.  The one test of degree k > 2, J·w^(k−1) =
    M_1 ⊗ … ⊗ M_k, runs only on a cell the steps rejected, to locate its
    first failing atom; `_product_rule_failure` takes it at N^k > 2·S^k,
    mod N^(2k) + 1.  Sums stay unreduced: one is zero iff its Gaussian sum
    is, and `_gaussian` decodes it.
    """
    if q._encoded is None:
        big = 2 * (sum(map(abs, q._re)) + sum(map(abs, q._im))) ** 2 + 1
        q._encoded = list(map(add, q._re, map(mul, q._im, repeat(big)))), big
    flat, big = q._encoded
    gather, per_cell = _cell_gather(q.site, sum(regions))  # the regions are disjoint
    if gather is None:  # U's config order is the history order
        return flat, big
    n, table = n_histories(q.site), []
    starts = gather(range(0, len(flat), n))  # the rows in U's cell order
    for i in range(0, n, per_cell):
        row = gather(list(reduce(partial(map, add), (flat[s : s + n] for s in starts[i : i + per_cell]))))
        table += map(sum, zip(*[iter(row)] * per_cell))
    return table, big


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
    n = n_histories(site)
    off = q._first_off_diagonal()
    if off is not None:
        raise QuantalError(
            f"quantal error: off-diagonal entry at {off}; "
            "diagonal reduction needs a fully decohered matrix"
        )
    for h, y in enumerate(q._im[:: n + 1]):
        if y != 0:
            raise QuantalError(f"quantal error: diagonal entry {h} is not real")
    induced = StochasticModel._from_scaled(site, q._den, q._re[:: n + 1])
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
