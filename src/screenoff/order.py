"""Finite causal orders.

A CausalSite is a finite set of labelled elements, each carrying a finite
alphabet of local values, partially ordered by causal precedence.  Regions
(subsets of elements) are plain int bitmasks: bit i stands for the i-th
declared element.  The declaration order is total and fixed; every other
module relies on it for deterministic enumeration.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Sequence


class OrderError(ValueError):
    """The relation input does not describe a partial order."""


class RegionError(ValueError):
    """A region mask refers to elements outside the site."""


class NotSpacelikeError(ValueError):
    """An operation required a spacelike pair of regions."""


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def submasks(mask: int) -> Iterator[int]:
    """All submasks of mask in ascending numeric order (includes 0 and mask)."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        # next submask: standard carry trick restricted to mask's bits
        sub = (sub - mask) & mask


class CausalSite:
    """Elements with alphabets under a causal partial order.

    Constructed from covering (or any generating) pairs; the reflexive
    transitive closure is taken and cycles are rejected.
    """

    __slots__ = ("elements", "alphabets", "below", "above", "_idx", "_hash")

    def __init__(
        self,
        sites: Sequence[tuple[str, int]],
        relations: Iterable[tuple[str, str]] = (),
    ):
        ids: list[str] = []
        alphas: list[int] = []
        for sid, k in sites:
            if not isinstance(sid, str) or not sid:
                raise OrderError(f"order error: bad element id {sid!r}")
            if sid in ids:
                raise OrderError(f"order error: duplicate element id {sid!r}")
            if not isinstance(k, int) or k < 1:
                raise OrderError(f"order error: alphabet of {sid!r} must be >= 1, got {k!r}")
            ids.append(sid)
            alphas.append(k)
        if not ids:
            raise OrderError("order error: a site needs at least one element")
        self.elements: tuple[str, ...] = tuple(ids)
        self.alphabets: tuple[int, ...] = tuple(alphas)
        self._idx = {sid: i for i, sid in enumerate(ids)}

        n = len(ids)
        below = [1 << i for i in range(n)]
        for lo, hi in relations:
            try:
                i, j = self._idx[lo], self._idx[hi]
            except KeyError as missing:
                raise OrderError(f"order error: unknown element {missing.args[0]!r} in relation") from None
            below[j] |= 1 << i
        for k in range(n):  # Warshall's transitive closure, on bitsets
            for j in range(n):
                if below[j] >> k & 1:
                    below[j] |= below[k]
        for i in range(n):
            for j in iter_bits(below[i]):
                if j != i and below[j] >> i & 1:
                    raise OrderError(
                        f"order error: cycle through {ids[i]!r} and {ids[j]!r}"
                    )
        above = [0] * n
        for i in range(n):
            for j in iter_bits(below[i]):
                above[j] |= 1 << i
        self.below: tuple[int, ...] = tuple(below)
        self.above: tuple[int, ...] = tuple(above)
        self._hash = hash((self.elements, self.alphabets, self.below))

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CausalSite)
            and self.elements == other.elements
            and self.alphabets == other.alphabets
            and self.below == other.below
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"CausalSite({len(self.elements)} elements, order pairs={self.relation_pairs()})"

    # -- basic views -------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.elements)) - 1

    def index(self, sid: str) -> int:
        try:
            return self._idx[sid]
        except KeyError:
            raise RegionError(f"region error: unknown element {sid!r}") from None

    def relation_pairs(self) -> tuple[tuple[str, str], ...]:
        """All strict pairs (lo, hi) with lo < hi, in declaration order."""
        out = []
        for j in range(self.n):
            for i in iter_bits(self.below[j] & ~(1 << j)):
                out.append((self.elements[i], self.elements[j]))
        return tuple(out)

    # -- regions -----------------------------------------------------------

    def region(self, ids: Iterable[str]) -> int:
        mask = 0
        for sid in ids:
            mask |= 1 << self.index(sid)
        return mask

    def region_ids(self, mask: int) -> tuple[str, ...]:
        self.check_region(mask)
        return tuple(self.elements[i] for i in iter_bits(mask))

    def check_region(self, mask: int) -> int:
        if mask >> len(self.elements):  # a bit above the last element, or a negative mask
            raise RegionError(f"region error: mask {mask:#x} has bits outside the site")
        return mask

    def regions(self) -> Iterator[int]:
        """All region masks, ascending."""
        return iter(range(self.full_mask + 1))

    # -- cones and relations -----------------------------------------------

    def past(self, r: int) -> int:
        """Inclusive causal past: everything at-or-below some element of r."""
        self.check_region(r)
        below = self.below
        acc = 0
        while r:  # iter_bits, inlined: the planners call this for every unit
            low = r & -r
            acc |= below[low.bit_length() - 1]
            r ^= low
        return acc

    def future(self, r: int) -> int:
        """Inclusive causal future of r."""
        self.check_region(r)
        acc = 0
        for i in iter_bits(r):
            acc |= self.above[i]
        return acc

    def spacelike(self, x: int, y: int) -> bool:
        """Neither region meets the past of the other."""
        return not (self.past(x) & y) and not (self.past(y) & x)

    def initial_elements(self) -> int:
        """Minimal elements of the order."""
        return sum(1 << i for i in range(self.n) if self.below[i] == 1 << i)

    def past_sets(self) -> Iterator[int]:
        """All down-closed region masks, ascending."""
        for r in range(self.full_mask + 1):
            if self.past(r) == r:
                yield r

    # -- dissections -------------------------------------------------------

    def comparability_components(self, vertices: int, removed: int) -> list[int]:
        """Connected components of the comparability graph on vertices - removed."""
        alive = vertices & ~removed
        comps: list[int] = []
        seen = 0
        for i in iter_bits(alive):
            if seen >> i & 1:
                continue
            comp = 1 << i
            frontier = 1 << i
            while frontier:
                nxt = 0
                for j in iter_bits(frontier):
                    nxt |= (self.below[j] | self.above[j]) & alive & ~comp
                comp |= nxt
                frontier = nxt
            comps.append(comp)
            seen |= comp
        return comps

    def enumerate_dissections(self, a: int, b: int) -> list[tuple[int, tuple[int, int]]]:
        """Regions whose removal splits the combined past of a and b.

        For spacelike a, b: every candidate region P inside
        past(a) | past(b) minus a | b such that, after removing P from the
        comparability graph restricted to past(a) | past(b), no connected
        component meets both a and b.  Returns (P, (side_a, side_b)) with
        side_a the union of components meeting a, side_b likewise for b,
        in ascending P order.
        """
        self.check_region(a)
        self.check_region(b)
        if not a or not b:
            raise NotSpacelikeError("dissection error: regions must be nonempty")
        if not self.spacelike(a, b):
            raise NotSpacelikeError(
                f"dissection error: regions {self.region_ids(a)} and {self.region_ids(b)} are not spacelike"
            )
        return self._dissections(a, b, self.past(a) | self.past(b))

    def _dissections(self, a: int, b: int, universe: int) -> list[tuple[int, tuple[int, int]]]:
        """`enumerate_dissections` of a spacelike pair, given past(a) | past(b) as `universe`."""
        candidates = universe & ~(a | b)
        if not candidates:
            # the combined past is a | b itself: nothing to remove, one empty dissection
            return [(0, (a, b))]
        out: list[tuple[int, tuple[int, int]]] = []
        for p in submasks(candidates):
            comps = self.comparability_components(universe, p)
            side_a = 0
            side_b = 0
            ok = True
            for comp in comps:
                hits_a = bool(comp & a)
                hits_b = bool(comp & b)
                if hits_a and hits_b:
                    ok = False
                    break
                if hits_a:
                    side_a |= comp
                if hits_b:
                    side_b |= comp
            if ok:
                out.append((p, (side_a, side_b)))
        return out
