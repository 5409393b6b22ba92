"""Check reports: verdicts, counterexamples, serialization helpers."""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

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


@dataclass(frozen=True)
class EventRef:
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


@dataclass(frozen=True)
class Counterexample:
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


class _BuiltOnFirstRead:
    """A report's `counterexample` field: a Counterexample, None, or a pending build.

    A pending build is a zero-argument callable.  The first read calls it,
    keeps the Counterexample in its place and so drops the callable and
    everything it holds; every later read, `==`, `repr`, `replace` and
    `to_json_dict` see that one object.
    """

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, report, owner=None):
        if report is None:
            return None  # the field's default
        value = report.__dict__[self.name]
        if callable(value):
            if (value := value()) is None:
                raise InternalCheckError("internal error: a counterexample builder returned None")
            report.__dict__[self.name] = value
        return value

    def __set__(self, report, value) -> None:
        report.__dict__[self.name] = value


@dataclass(frozen=True)
class CheckReport:
    """A verdict, its counterexample when violated, and stats.

    `counterexample` may be given as a zero-argument callable that builds
    it: the build runs on first read, so a caller that reads only the
    verdict never pays for it.
    """

    condition: str
    verdict: str
    counterexample: Counterexample | None = _BuiltOnFirstRead()
    reason: str | None = None
    stats: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.verdict not in (HOLDS, VIOLATED, VACUOUS):
            raise InternalCheckError(f"internal error: bad verdict {self.verdict!r}")
        # a pending build counts as present, unbuilt
        if (self.__dict__["counterexample"] is not None) != (self.verdict == VIOLATED):
            raise InternalCheckError(
                "internal error: counterexample present iff verdict is violated"
            )

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
