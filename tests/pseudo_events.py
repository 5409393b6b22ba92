"""Pseudo-events: the test-only vocabulary of the quantal screening lemmas.

A pseudo-event is an ordered product of two plain events, a rectangle in
Omega x Omega, and ``mu_hat`` is its complex measure, the matrix summed over
the rectangle.  The scans read the same sums from their pair matrices, so
only the tests that check those sums and the pseudo-event lemmas use these.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from screenoff.events import dom, full_specifications
from screenoff.quantal import ComplexFraction, QuantalModel

CF_ONE = ComplexFraction(Fraction(1), Fraction(0))


@dataclass(frozen=True)
class PseudoEvent:
    """An ordered product of two plain events — a rectangle in Omega x Omega."""

    left: int
    right: int

    def __and__(self, other: "PseudoEvent") -> "PseudoEvent":
        return PseudoEvent(self.left & other.left, self.right & other.right)


def mu_hat(q: QuantalModel, p: PseudoEvent) -> ComplexFraction:
    """The complex measure of a pseudo-event."""
    return q.d_value(p.left, p.right)


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
