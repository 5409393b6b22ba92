"""Decoherence matrices, quantal measures, and the quantal screening checks.

The interference data of a process is a Hermitian, positive, normalized
matrix over history pairs.  Screening is phrased on pseudo-events — ordered
products of plain events — whose complex-valued measure is read straight off
the matrix.  As in the classical module, every equation is tested in
cross-multiplied product form over a common denominator, so the checks never
divide and never round.
"""
from __future__ import annotations

from fractions import Fraction
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
    _atom_block,
    _gaussian,
    _marginal,
    _margins,
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


class ComplexFraction:
    """A complex number with exact rational real and imaginary parts; immutable."""

    def __init__(self, re: Fraction = Fraction(0), im: Fraction = Fraction(0)) -> None:
        fields = self.__dict__
        fields["re"] = re
        fields["im"] = im

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.re, self.im) == (other.re, other.im)

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"ComplexFraction(re={self.re!r}, im={self.im!r})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

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
    the matrix — certifies positivity without enumeration.  A model holds
    either its matrix — flat, row-major Gaussian-integer parts ``_re`` and
    ``_im`` over a reduced ``_den`` — or, if built by `_from_terms`, its
    witness terms alone (``_terms``), whose matrix is summed into those
    three on the first read of any of them.  ``entries`` and
    ``positivity_witness`` are views, built on first use, of the matrix and
    the witness.  ``_encoded`` is what `_pair_matrix` builds its tables
    from, built on its first call; ``_memo``, empty at construction, holds
    what its checks computed (`_screen`): tables, scans, a one-term
    witness's sums per union (`_rank_one_holds`) and `diagonal_reduction`'s
    probability measure.
    """

    __slots__ = (
        "site", "_den", "_re", "_im", "_witness", "_terms", "_encoded", "_entry_view", "_witness_view", "_validation", "_memo",
    )

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
        self._setup(site, witness)._reduce(den, *zip(*flat))

    @classmethod
    def _from_scaled(cls, site: CausalSite, den: int, re, im, witness=None) -> "QuantalModel":
        """A model from flat row-major Gaussian-integer parts over `den` and (p, q, dv, V) witness terms."""
        return cls.__new__(cls)._setup(site, witness)._reduce(den, re, im)

    @classmethod
    def _from_terms(cls, site: CausalSite, witness) -> "QuantalModel":
        """A model held by its (p, q, dv, V) witness terms alone: D = Σ (p/q)·VV†/dv²."""
        return cls.__new__(cls)._setup(site, witness, _common_scale(witness))

    def _setup(self, site: CausalSite, witness, terms=None) -> "QuantalModel":
        self.site, self._terms = site, terms
        self._witness = None if witness is None else tuple(witness)
        self._encoded = self._entry_view = self._witness_view = self._validation = None
        self._memo = {}
        return self

    def _reduce(self, den: int, re, im) -> "QuantalModel":
        # divide out the common factor, so that (_den, _re, _im) is canonical
        g = gcd(den, *re, *im)
        if g > 1:
            den, re, im = den // g, [x // g for x in re], [y // g for y in im]
        self._den, self._re, self._im = den, tuple(re), tuple(im)
        return self

    def __getattr__(self, name: str):
        # Python calls this only where lookup fails: on a witness-held model
        # whose matrix slots are unset, the first read of one builds all three
        if name not in ("_den", "_re", "_im") or self._terms is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        den, terms = self._terms
        n = n_histories(self.site)
        re, im = [0] * (n * n), [0] * (n * n)
        for c, vec in terms:  # c * V[h] * conj(V[g]), on and right of the diagonal
            for h, (hr, hi) in enumerate(vec):
                i = h * n + h  # entry (h, g), from g = h
                for gr, gi in vec[h:]:
                    re[i] += c * (hr * gr + hi * gi)
                    im[i] += c * (hi * gr - hr * gi)
                    i += 1
        for h in range(n):  # the matrix is Hermitian: row h right of the diagonal is column h below it
            re[h * n + h + n :: n] = re[h * n + h + 1 : h * n + n]
            im[h * n + h + n :: n] = map(neg, im[h * n + h + 1 : h * n + n])
        return getattr(self._reduce(den, re, im), name)

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
        if self._terms is None:
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
            den, total_re, total_im = self._den, sum(re), sum(im)
        else:  # Σ c·VV† is Hermitian, and its entries sum to Σ c·|ΣV|²
            den, terms = self._terms
            total_re = sum(c * (sum(x for x, _ in v) ** 2 + sum(y for _, y in v) ** 2) for c, v in terms)
            total_im = 0
        if (total_re, total_im) != (den, 0):
            total = ComplexFraction(Fraction(total_re, den), Fraction(total_im, den))
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
        if self._terms is not None:  # with positive weights, a sum of outer products is positive
            return
        big, terms = _common_scale(self._witness)
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


def _common_scale(witness) -> tuple[int, list]:
    """(L, [(c, V)]): each term w·vv†, with w = p/q and v = V/dv, as c·VV†/L over the common denominator L of every q·dv²."""
    big = lcm(*(q * dv * dv for _, q, dv, _ in witness))
    return big, [(p * (big // (q * dv * dv)), vec) for p, q, dv, vec in witness]


def validate_quantal(q: QuantalModel) -> CheckReport:
    """Check hermiticity, normalization, and positivity; report the first failure."""
    if q._validation is None:
        q._validation = q._validate()
    return q._validation


# -- the quantal screening conditions ----------------------------------------


def _pair_matrix(q: QuantalModel, regions: tuple[int, ...]) -> tuple[list[int], int]:
    """(d-values between configurations of the union U of disjoint regions, N), x + iy as x + y·N.

    The n_U x n_U matrix is flat and row-major in U's config order.  A
    matrix-held model's is summed by `_marginal` over the history axes
    doubled, out of its matrix encoded on the first call.  A witness-held
    model's is Σ_t c_t·a_t(x)·conj(a_t(x′)), a_t being V_t summed over the
    cells of U, at the terms' common scale L, which `_encoded` keeps for the
    counterexample: a later view of the matrix is reduced.  Let S bound the
    sum of absolute parts of the matrix at its tables' scale: that sum
    itself, or from the terms S = Σ_t c_t·‖V_t‖₁², as |Re z| + |Im z| of
    each V_t(h)·conj(V_t(g)) is at most the product of its factors'.  Let
    N = 2·S² + 1, one N for every table of the model.  Every table entry,
    and every block sum, w, column and joint of a scan, is a sum of matrix
    entries, so it has |Re| + |Im| <= S, and that measure of a product is
    at most the product of its factors'.  So every comparison of degree 2,
    a step T_j·w = T_{j−1} ⊗ M_j, a pair J·w = M_A ⊗ M_B or a null cell
    0 = J, has a difference with parts at most 2·S² < N.  Mod N² + 1, i ↦ N
    is a ring homomorphism, as N² ≡ −1, and one-to-one on parts below N:
    a + bN ≡ 0 with |a|, |b| < N gives |a + bN| < N² + 1, so a + bN = 0,
    which forces b = 0, then a = 0.  So each such identity holds in ℤ[i]
    iff it holds mod N² + 1.  The one test of degree k > 2, J·w^(k−1) =
    M_1 ⊗ … ⊗ M_k, runs only on a cell the steps rejected, to locate its
    first failing atom; `_product_rule_failure` takes it at N^k > 2·S^k,
    mod N^(2k) + 1.  Sums stay unreduced: one is zero iff its Gaussian sum
    is, and `_gaussian` decodes it.
    """
    if q._encoded is None:
        if q._terms is None:
            big = 2 * (sum(map(abs, q._re)) + sum(map(abs, q._im))) ** 2 + 1
            q._encoded = list(map(add, q._re, map(mul, q._im, repeat(big)))), big, q._den
        else:
            den, terms = q._terms
            parts = [(c, *zip(*vec)) for c, vec in terms]
            bound = sum(abs(c) * (sum(map(abs, re)) + sum(map(abs, im))) ** 2 for c, re, im in parts)
            q._encoded = parts, 2 * bound * bound + 1, den
    union, (held, big, _) = sum(regions), q._encoded  # the regions are disjoint
    if q._terms is None:
        return _marginal(held, q.site.alphabets * 2, union | union << q.site.n), big
    rows = []
    for c, re, im in held:
        a = list(zip(_marginal(re, q.site.alphabets, union), _marginal(im, q.site.alphabets, union)))
        # c·a(x)·conj(a(x′)) is u·Re a(x′) + v·Im a(x′), encoded, with u and v from a(x)
        factors = [(c * (x + y * big), c * (y - x * big)) for x, y in a]
        rows.append([u * x + v * y for u, v in factors for x, y in a])
    return rows[0] if len(rows) == 1 else list(map(sum, zip(*rows))), big


def _quantal_screening_failure(q: QuantalModel, regions: tuple[int, ...], past: int):
    """`_product_rule_failure`'s (first failure or None, checked, 0) over doubled regions.

    A pseudo-cell (c1, c2) of P is a cell of P x P and a pseudo-atom
    (x1, x2) of X one of X x X, read from the encoded matrix of
    U = P u X1 u ... u Xk (`_pair_matrix`).  For a pair the rule is
    muhat(A&B&C) * muhat(C) == muhat(A&C) * muhat(B&C).  The failure keeps
    the kernel's pseudo-indexes and encoded sums: only a counterexample,
    when first read, decodes them (`_quantal_counterexample`).  A skipped
    null pseudo-cell counts its equations as checked.  Once validation has
    held, a model whose witness has one term, D = w·ψψ†, is first tested
    from ψ's sums over U (`_rank_one_holds`): a scan that holds there
    counts |Φ(P)|²·∏|Φ(X_i)|² equations, as the kernel would, and one that
    fails is scanned by the kernel, which locates its first failure.
    """
    valid = q._validation is not None and q._validation.holds
    if valid and len(q._witness or ()) == 1 and _rank_one_holds(q, regions, past):
        return None, prod(n_configs(q.site, r) ** 2 for r in (past, *regions)), 0
    union, (table, big) = _union_table(q, (past, *regions), _pair_matrix)
    fail, checked, nulls = _product_rule_failure(q.site, table, union, regions, past, 2, big * big + 1)
    return fail, checked + nulls * prod(n_configs(q.site, r) ** 2 for r in regions), 0


def _gmul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _rank_one_holds(q: QuantalModel, regions: tuple[int, ...], past: int) -> bool:
    """Whether the scan holds on a valid model whose witness is one term w·ψψ†, read from ψ alone.

    Every entry of U's table is w·a(x)·conj(a(x')), a summing ψ over the
    cells of U, kept per union in the model's memo.  Given a cell c of P
    with sum β(c) and region margins α_i(c, ·), the two sides of the scan
    are w^k·P ⊗ conj(P) and w^k·Q ⊗ conj(Q) over every pseudo-cell and
    pseudo-atom, with P(c, x) = a(c, x)·β(c)^(k−1) and Q(c, x) =
    ∏ α_i(c, x_i).  They agree iff P = λQ with |λ| = 1, and as P(c, ·) and
    Q(c, ·) both sum to β(c)^k, which a valid model makes nonzero at some
    c, iff P = Q (README, "Exactness and limits").  For k > 2 the kernel's
    zero-block demand on a null pseudo-cell is β(c) = 0 ⇒ a(c, ·) = 0.
    ψ's scale and w > 0 cancel from both sides, so ψ's Gaussian-integer
    numerators stand in for it.
    """
    site, union = q.site, past + sum(regions)
    tables = q._memo.setdefault(_rank_one_holds, {})
    if union not in tables:
        tables[union] = [_marginal(part, site.alphabets, union) for part in zip(*q._witness[0][3])]
    re, im = tables[union]
    sizes, block = _atom_block(site, regions, union, 1)
    exponent = len(regions) - 1
    for base in _atom_block(site, (past,), union, 1)[1]:
        cells = [re[base + i] for i in block], [im[base + i] for i in block]
        m_re, m_im = (_margins(part, sizes) for part in cells)
        beta = sum(m_re[0]), sum(m_im[0])
        if beta == (0, 0) and exponent > 1 and any(map(any, cells)):
            return False
        scale = (1, 0)
        for _ in range(exponent):
            scale = _gmul(scale, beta)
        factors = [(1, 0)]
        for margin in map(list, map(zip, m_re, m_im)):
            factors = [_gmul(f, m) for f in factors for m in margin]
        if any(_gmul(a, scale) != f for a, f in zip(zip(*cells), factors)):
            return False
    return True


def _quantal_counterexample(
    q: QuantalModel, regions: tuple[int, int], names: tuple[str, str], past: int, fail, note: str
) -> Counterexample:
    site, (_, big, den) = q.site, q._encoded  # the failing scan's tables, at their scale (`_pair_matrix`)
    values = map(_gaussian, (fail.w_joint, fail.w_past, *fail.w_margins), repeat(big))
    joint, mp, ma, mb = _fractions(values, den)
    labels = [(name, site.region_ids(r)) for name, r in zip(names, regions)]
    events = []
    for name, r, index in zip((*names, "C"), (*regions, past), (*fail.atom_indexes, fail.past_index)):
        cells = full_specifications(site, r)
        events += [(f"{name}{k}", event_ref(site, cells[i], r, i)) for k, i in enumerate(divmod(index, len(cells)), 1)]
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
    cell.  A nonzero off-diagonal entry is an error.  The probability
    measure is kept in the model's memo, so a later call shares its scans.
    """
    induced = q._memo.get(diagonal_reduction)
    if induced is None:
        n = n_histories(q.site)
        off = q._first_off_diagonal()
        if off is not None:
            raise QuantalError(
                f"quantal error: off-diagonal entry at {off}; "
                "diagonal reduction needs a fully decohered matrix"
            )
        for h, y in enumerate(q._im[:: n + 1]):
            if y != 0:
                raise QuantalError(f"quantal error: diagonal entry {h} is not real")
        induced = q._memo[diagonal_reduction] = StochasticModel._from_scaled(q.site, q._den, q._re[:: n + 1])
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
