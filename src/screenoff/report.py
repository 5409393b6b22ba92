"""Check reports: verdicts, counterexamples, serialization helpers."""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping, NamedTuple

HOLDS = "holds"
VIOLATED = "violated"
VACUOUS = "vacuous"


class InternalCheckError(RuntimeError):
    """An internal invariant of the checker itself failed."""


def format_rational(x: Fraction) -> str:
    return str(Fraction(x))


def format_complex(re: Fraction, im: Fraction) -> str:
    if im == 0:
        return str(re)
    sign = "+" if im >= 0 else "-"
    return f"{re} {sign} {abs(im)}i"


class EventRef(NamedTuple):
    """An event pinned down exactly: bitmask over the history space.

    expr, when present, is an equivalent expression in the event grammar;
    purely cosmetic, the mask is authoritative.
    """

    mask: int
    omega: int
    expr: str | None = None

    def to_json(self) -> dict:
        return {"mask": format(self.mask, "#x"), "omega": self.omega, "expr": self.expr}

    def describe(self) -> str:
        if self.expr is not None:
            return self.expr
        if self.mask == (1 << self.omega) - 1:
            return "<all histories>"
        return f"<mask {self.mask:#x} of {self.omega} histories>"


class Counterexample(NamedTuple):
    """The data needed to re-evaluate a violation exactly."""

    regions: tuple[tuple[str, tuple[str, ...]], ...] = ()
    events: tuple[tuple[str, EventRef], ...] = ()
    values: tuple[tuple[str, str], ...] = ()
    note: str = ""

    def event(self, name: str) -> EventRef:
        for key, ref in self.events:
            if key == name:
                return ref
        raise KeyError(name)

    def value(self, name: str) -> str:
        for key, val in self.values:
            if key == name:
                return val
        raise KeyError(name)

    def to_json(self) -> dict:
        return {
            "regions": {name: list(ids) for name, ids in self.regions},
            "events": {name: ref.to_json() for name, ref in self.events},
            "values": dict(self.values),
            "note": self.note,
        }


_REPORT_FIELDS = ("condition", "verdict", "counterexample", "reason", "stats")


class CheckReport:
    """A verdict, its counterexample when violated, and stats.

    `counterexample` may be given as a zero-argument callable that builds
    it: the build runs on first read, so a caller that reads only the
    verdict never pays for it.  A report is immutable; `_replace` returns a
    copy with some fields changed.
    """

    def __init__(
        self,
        condition: str,
        verdict: str,
        counterexample: Counterexample | Callable[[], Counterexample] | None = None,
        reason: str | None = None,
        stats: Mapping[str, object] | None = None,
    ) -> None:
        if verdict not in (HOLDS, VIOLATED, VACUOUS):
            raise InternalCheckError(f"internal error: bad verdict {verdict!r}")
        # a pending build counts as present, unbuilt
        if (counterexample is not None) != (verdict == VIOLATED):
            raise InternalCheckError(
                "internal error: counterexample present iff verdict is violated"
            )
        self.__dict__.update(
            condition=condition,
            verdict=verdict,
            counterexample=counterexample,
            reason=reason,
            stats={} if stats is None else stats,
        )

    @property
    def counterexample(self) -> Counterexample | None:
        """The counterexample; the first read of a pending build runs it and keeps the result.

        The kept object replaces the builder, so the builder and everything it
        holds are dropped; every later read, `==`, `repr`, `_replace` and
        `to_json_dict` see that one object.
        """
        value = self.__dict__["counterexample"]
        if callable(value):
            if (value := value()) is None:
                raise InternalCheckError("internal error: a counterexample builder returned None")
            self.__dict__["counterexample"] = value
        return value

    def _values(self) -> tuple:
        return self.condition, self.verdict, self.counterexample, self.reason, self.stats

    def _replace(self, **changes) -> CheckReport:
        return CheckReport(**dict(zip(_REPORT_FIELDS, self._values()), **changes))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())  # a TypeError while `stats` is a dict

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(_REPORT_FIELDS, self._values()))
        return f"CheckReport({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS

    @property
    def violated(self) -> bool:
        return self.verdict == VIOLATED

    @property
    def vacuous(self) -> bool:
        return self.verdict == VACUOUS

    def to_json_dict(self) -> dict:
        out: dict[str, object] = {
            "condition": self.condition,
            "verdict": self.verdict,
            "stats": {k: _jsonable(v) for k, v in sorted(self.stats.items())},
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample.to_json()
        if self.reason is not None:
            out["reason"] = self.reason
        return out


def _jsonable(v: object) -> object:
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, tuple):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    return v
