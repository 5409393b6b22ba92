"""The shared cell-table kernel of the screening scans.

A union U = P ∪ A ∪ B of disjoint regions has one table, in U's config order
(``config_indices(site, U)``); every scan reads a region tuple's joint cells
from it through ``_block`` of the regions' ``_union_offsets`` and sums out
their margins with ``_margins``.  Each piece is compared here with a direct
computation: history by history for the classical table, by ``d_value`` over
cell pairs for the quantal matrix, and by ``itertools.product`` for the
block and margin kernels.  ``ref_cell_weights`` and ``ref_margins`` are the
per-element loops the builtin kernels replaced, kept as references.  The
step-wise factorization test ``_factorizes``, over ℤ and on Gaussian
integers encoded as x + y·N mod N² + 1, is compared with the outer-product
identity it stands in for, and the whole kernel ``_product_rule_failure`` on
encoded blocks, a rejected k-region cell re-encoded at N^k, with that
identity's first failing atom.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from screenoff.events import CapacityError, _block, config_indices, n_configs, n_histories
from screenoff.order import CausalSite, iter_bits
from screenoff.quantal import QuantalModel, _pair_matrix
from screenoff.stochastic import (
    StochasticModel,
    _atom_block,
    _cell_gather,
    _cell_weights,
    _factorizes,
    _gaussian,
    _margins,
    _product_rule_failure,
    _union_offsets,
)


def ref_cell_weights(model: StochasticModel, regions: tuple[int, ...]) -> list[int]:
    """The table of the regions' union, one history at a time."""
    union = sum(regions)
    table = [0] * n_configs(model.site, union)
    for f, w in zip(config_indices(model.site, union), model._nums):
        if w:
            table[f] += w
    return table


def ref_margins(cells: list[int], sizes: tuple[int, ...]) -> list[list[int]]:
    """Each region's margin, one sum per column and per row of the last axis."""
    margins = []
    joint = cells
    for size in reversed(sizes[1:]):
        margins.append([sum(joint[c::size]) for c in range(size)])
        joint = [sum(joint[t : t + size]) for t in range(0, len(joint), size)]
    margins.append(joint)
    margins.reverse()
    return margins


@st.composite
def interleaved_regions(draw):
    """A site with order relations and disjoint regions (P, A[, B]), P's elements between A's."""
    n = draw(st.integers(3, 5))
    alphabets = draw(st.lists(st.integers(2, 3), min_size=n, max_size=n))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    relations = draw(st.lists(st.sampled_from(edges), min_size=1, max_size=4, unique=True))
    site = CausalSite(
        [(f"e{i}", k) for i, k in enumerate(alphabets)],
        [(f"e{i}", f"e{j}") for i, j in relations],
    )
    k = draw(st.integers(2, 3))
    labels = draw(st.lists(st.integers(0, k), min_size=n, max_size=n))  # label k: in no region
    at = draw(st.integers(0, n - 3))
    labels[at : at + 3] = [1, 0, 1]  # an element of P between two of A
    regions = tuple(sum(1 << e for e, label in enumerate(labels) if label == i) for i in range(k))
    return site, regions, draw(st.integers(0, 2**32))


def config(site: CausalSite, digits: tuple[int, ...], region: int) -> int:
    """A history's configuration index on the region, lowest element most significant."""
    index = 0
    for i in iter_bits(region):
        index = index * site.alphabets[i] + digits[i]
    return index


def block_positions(site: CausalSite, regions: tuple[int, ...]) -> list[int]:
    """Each history's position in the regions' joint block, the first region most significant."""
    positions = []
    for digits in itertools.product(*(range(k) for k in site.alphabets)):
        pos = 0
        for r in regions:
            pos = pos * n_configs(site, r) + config(site, digits, r)
        positions.append(pos)
    return positions


def drawn_model(site: CausalSite, seed: int) -> StochasticModel:
    rng = random.Random(seed)
    nums = [rng.randrange(0, 4) for _ in range(n_histories(site))]
    nums[rng.randrange(len(nums))] += 1
    return StochasticModel._from_scaled(site, sum(nums), nums)


@given(interleaved_regions())
def test_cell_weights_sum_the_histories_of_each_cell(drawn):
    site, regions, seed = drawn
    model = drawn_model(site, seed)
    union = sum(regions)
    table = _cell_weights(model, regions)
    block = _block([_union_offsets(site, r, union) for r in regions])
    assert len(table) == n_configs(site, union)
    assert sorted(block) == list(range(len(table)))
    expected = [Fraction(0)] * len(block)
    for h, pos in enumerate(block_positions(site, regions)):
        expected[pos] += model.weights[h]
    assert [Fraction(table[i], model._den) for i in block] == expected


@given(interleaved_regions())
def test_pair_matrix_sums_d_values_over_cell_pairs(drawn):
    site, regions, seed = drawn
    rng = random.Random(seed)
    n = n_histories(site)
    # any Gaussian-integer matrix will do: the sums do not need a valid model,
    # and a non-Hermitian one tells rows from columns
    re, im = ([rng.randrange(-3, 4) for _ in range(n * n)] for _ in "ri")
    q = QuantalModel._from_scaled(site, rng.randrange(1, 7), re, im)
    union = sum(regions)
    _, first_big = _pair_matrix(q, regions[1:])  # the model is encoded once, whichever union comes first
    table, big = _pair_matrix(q, regions)
    assert big == first_big
    size = n_configs(site, union)
    assert len(table) == size * size
    block = _block([_union_offsets(site, r, union) for r in regions])
    events = [0] * len(block)
    for h, pos in enumerate(block_positions(site, regions)):
        events[pos] |= 1 << h
    for x, ex in zip(block, events):
        for y, ey in zip(block, events):
            d = q.d_value(ex, ey)
            re, im = _gaussian(table[x * size + y], big)
            assert (Fraction(re, q._den), Fraction(im, q._den)) == (d.re, d.im)


offset_lists = st.lists(st.lists(st.integers(-20, 20), max_size=4), max_size=4)


@given(offset_lists)
def test_block_sums_one_offset_per_list_first_most_significant(lists):
    assert _block(lists) == [sum(t) for t in itertools.product(*lists)]


@st.composite
def sized_blocks(draw):
    sizes = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    cells = draw(st.lists(st.integers(-9, 9), min_size=prod(sizes), max_size=prod(sizes)))
    return cells, sizes


@given(sized_blocks())
def test_margins_sum_out_every_other_region(drawn):
    cells, sizes = drawn
    coords = list(itertools.product(*(range(s) for s in sizes)))
    expected = [
        [sum(x for x, at in zip(cells, coords) if at[i] == c) for c in range(size)]
        for i, size in enumerate(sizes)
    ]
    assert _margins(cells, sizes) == expected == ref_margins(cells, sizes)


@st.composite
def sites_with_regions(draw):
    """A site whose alphabets may be 1 and 1-4 disjoint regions, any of them empty."""
    n = draw(st.integers(1, 5))
    alphabets = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    relations = draw(st.lists(st.sampled_from(edges), max_size=4, unique=True)) if edges else []
    site = CausalSite(
        [(f"e{i}", k) for i, k in enumerate(alphabets)],
        [(f"e{i}", f"e{j}") for i, j in relations],
    )
    k = draw(st.integers(1, 4))
    labels = draw(st.lists(st.integers(0, k), min_size=n, max_size=n))  # label k: in no region
    regions = tuple(sum(1 << e for e, label in enumerate(labels) if label == i) for i in range(k))
    return site, regions, draw(st.integers(0, 2**32))


ONE_HISTORY = CausalSite([("a", 1), ("b", 1)], [("a", "b")])
MIXED = CausalSite([("a", 2), ("u", 1), ("b", 3), ("c", 2)], [("a", "b")])


@given(sites_with_regions())
@example((ONE_HISTORY, (0,), 0))  # one history, the empty past
@example((ONE_HISTORY, (0b01, 0b10), 1))  # one history, the full union
@example((MIXED, (0b0001, 0b0100, 0b1000), 2))  # every element of alphabet >1: one history per cell
@example((MIXED, (0, 0b0001, 0b0100, 0b1000), 3))  # the same union with an empty past first
@example((MIXED, (0,), 4))  # the empty union: one cell holding every history
def test_builtin_kernels_equal_the_per_element_loops(drawn):
    site, regions, seed = drawn
    model = drawn_model(site, seed)
    union = sum(regions)
    table = _cell_weights(model, regions)
    assert type(table) is list
    assert table == ref_cell_weights(model, regions)
    offsets = [_union_offsets(site, r, union) for r in regions]
    for r, o in zip(regions, offsets):
        assert type(o) is tuple  # a shared cache entry, which no caller can mutate
        assert _union_offsets(site, r, union) is o
    sizes = tuple(map(len, offsets))
    block = _block(offsets)
    for base in _union_offsets(site, 0, union):
        cells = [table[base + i] for i in block]
        margins = _margins(cells, sizes)
        assert all(type(m) is list for m in margins)
        assert margins == ref_margins(cells, sizes)


def gmul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def gsum(xs) -> tuple[int, int]:
    re, im = zip(*xs)
    return sum(re), sum(im)


def direct_failure(cells: list[tuple[int, int]], sizes: tuple[int, ...]):
    """(atom, w, joint, margins) of the first failing atom of one cell's block, in Gaussian integers; None if it holds; "skip" for a null cell with a zero block.

    The kernel's rule without encodings or steps: J·w^(k−1) == ∏ M_i on
    each atom, and on a null cell of k > 2 regions, J == 0.
    """
    coords = list(itertools.product(*(range(s) for s in sizes)))
    margins = [[gsum(x for x, at in zip(cells, coords) if at[i] == c) for c in range(s)] for i, s in enumerate(sizes)]
    w = gsum(cells)
    if w == (0, 0) and not any(map(any, cells)):
        return "skip"
    null_certificate = w == (0, 0) and len(sizes) > 2
    scale = (1, 0)
    for _ in sizes[1:]:
        scale = gmul(scale, w)
    for x, at in zip(cells, coords):
        rhs = (1, 0)
        for m, c in zip(margins, at):
            rhs = gmul(rhs, m[c])
        if x != (0, 0) if null_certificate else gmul(x, scale) != rhs:
            return at, w, x, tuple(m[c] for m, c in zip(margins, at))
    return None


def outer_product_holds(cells: list[tuple[int, int]], sizes: tuple[int, ...]) -> bool:
    """J·w^(k−1) == ∏ M_i on every atom of a block of total w ≠ 0, in Gaussian integers: the direct test."""
    return direct_failure(cells, sizes) is None


@st.composite
def factorization_blocks(draw, gaussian: bool):
    """(cells as Gaussian integers, sizes): k = 2..5 regions of 1..4 atoms, a total w ≠ 0.

    The block is an outer product v_1 ⊗ … ⊗ v_k, which factorizes, or
    such a product with one cell moved, or two cells traded so that the
    total stays, or random cells; or, aligned, a product of nonnegative
    vectors with one cell maybe raised by 1, all turned by one unit, so
    that no sum cancels and the parts of both sides reach S^k.
    """
    sizes = tuple(draw(st.lists(st.integers(1, 4), min_size=2, max_size=5)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["product", "moved", "traded", "random", "aligned"]))

    def value() -> tuple[int, int]:
        return rng.randrange(-3, 4), rng.randrange(-3, 4) if gaussian else 0

    if kind == "random":
        cells = [value() for _ in range(prod(sizes))]
    else:
        cells = [(1, 0)]
        for s in sizes:
            v = [(rng.randrange(4), 0) if kind == "aligned" else value() for _ in range(s)]
            if gsum(v) == (0, 0):
                v[0] = (v[0][0] + 1, v[0][1])
            cells = [gmul(x, y) for x in cells for y in v]
        i, j = rng.randrange(len(cells)), rng.randrange(len(cells))
        d = value() if kind == "moved" else (rng.randrange(2), 0) if kind == "aligned" else (rng.choice((-1, 1)), 0)
        if kind != "product":
            cells[i] = (cells[i][0] + d[0], cells[i][1] + d[1])
        if kind == "traded":
            cells[j] = (cells[j][0] - d[0], cells[j][1] - d[1])
        if kind == "aligned":
            unit = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1))[: 4 if gaussian else 2])
            cells = [gmul(unit, x) for x in cells]
    if gsum(cells) == (0, 0):
        cells[-1] = (cells[-1][0] + 1, cells[-1][1])
    return cells, sizes


@given(factorization_blocks(gaussian=False))
@example(([(1, 0), (1, 0), (1, 0), (2, 0)], (2, 2)))  # a pair that fails
@example(([(1, 0)] * 8, (2, 2, 2)))
@example(([(1, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (1, 0)], (2, 2, 2)))  # pairwise but not jointly
def test_the_stepwise_test_is_the_outer_product_identity(drawn):
    cells, sizes = drawn
    real = [x for x, _ in cells]
    assert _factorizes(real, sizes, sum(real)) == outer_product_holds(cells, sizes)


def encoded(cells: list[tuple[int, int]]) -> tuple[list[int], int]:
    """The cells as x + y·N, N = 2·S² + 1 over their sum S of absolute parts, as `_pair_matrix` encodes a model."""
    big = 2 * sum(abs(x) + abs(y) for x, y in cells) ** 2 + 1
    return [x + y * big for x, y in cells], big


@given(factorization_blocks(gaussian=True))
@example(([(1, 1), (0, 1), (2, 0), (1, -1)], (2, 2)))  # a complex w, 4 + i, on a pair that fails
@example(([(1, 1), (1, 1), (1, 1), (1, 1), (1, 1), (1, 1), (1, 1), (1, 1)], (2, 2, 2)))  # w = 8 + 8i
@example(([(0, 0), (0, 9), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0)], (2, 2, 2)))  # parts reach S^k = 9^3
@example(([(5, -4), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (-4, 5)], (2, 2, 2)))  # w = 1 + i of S = 18
@example(([(-3, 3), (3, -3), (3, 3), (-3, -3), (3, 3), (3, -3), (-3, 3), (3, 3)], (2, 2, 2)))  # every part ±3
def test_the_gaussian_stepwise_test_is_the_outer_product_identity(drawn):
    cells, sizes = drawn
    ints, big = encoded(cells)
    assert _factorizes(ints, sizes, sum(ints), big * big + 1) == outer_product_holds(cells, sizes)


def test_the_encoding_separates_every_difference_up_to_the_bound():
    # two binary sites and three entries, so S = 3, the whole matrix's sum
    # of absolute parts; the first table built, of site a alone, sums two
    # of them to 0, yet N stays the model's.  A comparison of degree 2 has
    # a difference with parts at most 2·S² = 18, and each such nonzero
    # Gaussian integer must encode to a nonzero residue.  At N one too
    # small, 18, the difference (a, b) = (18, −1) would encode to 18 − 18 = 0
    site = CausalSite([("a", 2), ("b", 2)])
    re, im = [0] * 16, [0] * 16
    re[0], re[4], im[6] = 1, -1, -1  # D[0][0] = 1, D[1][0] = −1 and D[1][2] = −i
    q = QuantalModel._from_scaled(site, 1, re, im)
    small, first_big = _pair_matrix(q, (0b01,))
    table, big = _pair_matrix(q, (0b01, 0b10))
    assert [_gaussian(v, first_big) for v in small] == [(0, 0), (0, -1), (0, 0), (0, 0)]
    assert first_big == big
    bound = 2 * sum(abs(x) + abs(y) for x, y in (_gaussian(v, big) for v in table)) ** 2
    assert bound == 18
    assert (bound - big) % (big * big + 1) != 0
    parts = range(-bound, bound + 1)
    assert all((a + b * big) % (big * big + 1) for a in parts for b in parts if a or b)


def kernel_failure(cells: list[tuple[int, int]], sizes: tuple[int, ...]):
    """`_product_rule_failure` on one cell's block, encoded as `_pair_matrix` encodes, decoded as `direct_failure` reports."""
    site = CausalSite([(f"e{i}", s) for i, s in enumerate(sizes)])
    regions = tuple(1 << i for i in range(len(sizes)))
    table, big = encoded(cells)
    fail, checked, skipped = _product_rule_failure(site, table, sum(regions), regions, 0, 1, big * big + 1)
    if skipped:
        assert (fail, checked) == (None, 0)
        return "skip"
    if fail is None:
        assert checked == len(cells)
        return None
    assert checked == 1 + list(itertools.product(*(range(s) for s in sizes))).index(fail.atom_indexes)
    decoded = [_gaussian(v, big) for v in (fail.w_past, fail.w_joint, *fail.w_margins)]
    return fail.atom_indexes, decoded[0], decoded[1], tuple(decoded[2:])


# three binary regions, S = 51 and N = 2·S² + 1 = 5203.  The first atom's
# joint cell is 0, and the cells u, v, t beside it give it the margins
# u + v, u + t and v + t, whose product (9 + 14i)(17 + i)(16 + 9i) is
# 1 + 5203i = i·(N − i): the first failing atom's difference −i·(N − i)
# encodes to −(N² + 1), so a comparison at N passes it.  The last cell pads
# S to 51.  Of all 9^8 blocks of 2 × 2 × 2 cells with parts in {−1, 0, 1},
# none has a first failing atom whose difference collides at N
COLLIDING = [(0, 0), (5, 3), (4, 11), (0, 0), (12, -2), (0, 0), (0, 0), (14, 0)]


def test_a_rejected_block_is_tested_at_degree_k():
    sizes = (2, 2, 2)
    ints, big = encoded(COLLIDING)
    assert big == 5203
    assert not _factorizes(ints, sizes, sum(ints), big * big + 1)
    assert direct_failure(COLLIDING, sizes)[0] == (0, 0, 0)
    margins = _margins(ints, sizes)
    product = margins[0][0] * margins[1][0] * margins[2][0]
    assert product % (big * big + 1) == 0 and product != 0  # at N the first atom's test passes
    assert kernel_failure(COLLIDING, sizes) == direct_failure(COLLIDING, sizes)


@given(factorization_blocks(gaussian=True), st.booleans())
@example((COLLIDING, (2, 2, 2)), False)
@example(([(1, 1), (0, 1), (2, 0), (1, -1)], (2, 2)), False)  # a complex w on a pair that fails
@example(([(1, 0), (0, 0), (0, 0), (-1, 0)], (2, 2)), False)  # a null cell of a pair whose margins do not vanish
@example(([(1, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (-1, 0)], (2, 2, 2)), False)  # a null cell with a nonzero block
def test_the_encoded_kernel_is_the_direct_gaussian_test(drawn, null):
    cells, sizes = drawn
    if null:  # move the total out of the last cell: a null cell, its block zero or not
        w = gsum(cells)
        cells = [*cells[:-1], (cells[-1][0] - w[0], cells[-1][1] - w[1])]
    assert kernel_failure(cells, sizes) == direct_failure(cells, sizes)


@given(sites_with_regions())
@example((MIXED, (0b0001, 0b0100, 0b1000), 2))
def test_atom_blocks_are_cached_and_read_the_block_of_the_offsets(drawn):
    site, regions, _ = drawn
    union = sum(regions)
    offsets = [_union_offsets(site, r, union) for r in regions]
    sizes, block = _atom_block(site, regions, union)
    assert _atom_block(site, regions, union) == (sizes, block)
    assert _atom_block(site, regions, union)[1] is block
    assert sizes == tuple(map(len, offsets))
    assert list(block) == _block(offsets)
    assert isinstance(block, range) == (_block(offsets) == list(range(len(block))))
    n = n_configs(site, union)
    doubled = [[x * n + y for x in o for y in o] for o in offsets]
    sizes2, block2 = _atom_block(site, regions, union, 2)
    assert sizes2 == tuple(len(o) ** 2 for o in offsets)
    assert list(block2) == _block(doubled)


def test_the_gather_refuses_a_site_over_the_history_limit():
    site = CausalSite([(f"e{i}", 2) for i in range(17)])
    with pytest.raises(CapacityError) as refused:
        _cell_gather(site, 0b11)
    with pytest.raises(CapacityError) as direct:
        n_histories(site)
    assert str(refused.value) == str(direct.value)
