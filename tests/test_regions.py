import itertools
import random

import pytest

from multireg import (
    Region,
    betti,
    betti_bound_L,
    betti_bound_Q,
    ci_regularity,
    free_resolution,
    region_L,
    region_Q,
    region_intersect,
    region_subset,
    region_union,
)
from multireg.regions import staircase_svg, staircase_text
from multireg.resolution import BettiTable


FIGURE_L = {
    0: ((1, 2),),
    1: ((0, 2), (1, 1)),
    2: ((-1, 2), (0, 1), (1, 0)),
    3: ((-2, 2), (-1, 1), (0, 0), (1, -1)),
}

FIGURE_Q = {
    0: ((1, 2),),
    1: ((0, 1),),
    2: ((-1, 1), (0, 0)),
    3: ((-2, 1), (-1, 0), (0, -1)),
}


@pytest.mark.parametrize("i", [0, 1, 2, 3])
def test_figure_regions_L(i):
    assert region_L(i, (1, 2)).minimal_generators == FIGURE_L[i]


@pytest.mark.parametrize("i", [0, 1, 2, 3])
def test_figure_regions_Q(i):
    assert region_Q(i, (1, 2)).minimal_generators == FIGURE_Q[i]


def test_region_membership_antichain():
    R = Region(2, [(0, 2), (1, 1), (2, 2)])
    assert R.minimal_generators == ((0, 2), (1, 1))
    assert R.contains((5, 5))
    assert not R.contains((1, 0))
    assert Region.empty(2).is_empty()


def test_intersect_orthants():
    A = region_intersect(region_L(0, (1, 2)), region_Q(0, (1, 2)))
    assert A.minimal_generators == ((1, 2),)
    B = region_intersect(Region(2, [(0, 2)]), Region(2, [(1, 1)]))
    assert B.minimal_generators == ((1, 2),)


def test_union_staircase():
    U = region_union(Region(2, [(0, 2)]), Region(2, [(1, 1)]))
    assert U.minimal_generators == ((0, 2), (1, 1))
    assert region_Q(2, (2, 3)).minimal_generators == ((0, 2), (1, 1))


def test_set_semantics():
    A = Region(2, [(0, 1), (1, 0)])
    B = Region(2, [(1, 0), (0, 1), (1, 1)])
    assert A == B
    assert A.contains((1, 0))
    assert region_subset(Region(2, [(1, 1)]), A)
    assert not region_subset(A, Region(2, [(1, 1)]))


def test_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        region_intersect(Region(2, [(0, 0)]), Region(3, [(0, 0, 0)]))


def positive_part_weight(v):
    """Sum of the positive components."""
    return sum(x for x in v if x > 0)


def membership_by_positive_parts(i, d, b):
    """The closed-form membership test for region_L(i, d)."""
    return positive_part_weight(tuple(x - y for x, y in zip(d, b))) <= i


def test_membership_criterion_equivalence():
    """Generator membership equals the positive-part criterion."""
    for i in range(0, 6):
        for d in itertools.product(range(-2, 3), repeat=2):
            R = region_L(i, d)
            for b in itertools.product(range(-5, 4), repeat=2):
                assert R.contains(b) == membership_by_positive_parts(i, d, b)


def test_L_subset_Q():
    rng = random.Random(2)
    for _ in range(30):
        d = tuple(rng.randint(-3, 3) for _ in range(rng.choice((2, 3))))
        i = rng.randint(0, 5)
        assert region_subset(region_L(i, d), region_Q(i, d))


def test_monotonicity_in_level():
    rng = random.Random(3)
    for _ in range(30):
        d = tuple(rng.randint(-3, 3) for _ in range(2))
        for i in range(0, 4):
            assert region_subset(region_L(i, d), region_L(i + 1, d))
            if i >= 1:
                assert region_subset(region_Q(i, d), region_Q(i + 1, d))


def test_q_inclusions_for_positive_degrees():
    """For strictly positive b and c, the level-(i+1) region of b + c
    sits inside the level-i region of b."""
    rng = random.Random(4)
    for _ in range(40):
        r = rng.choice((2, 3))
        b = tuple(rng.randint(1, 3) for _ in range(r))
        c = tuple(rng.randint(1, 3) for _ in range(r))
        i = rng.randint(1, 4)
        big = region_Q(i + 1, tuple(x + y for x, y in zip(b, c)))
        assert region_subset(big, region_Q(i, b))


def test_staircase_generator_counts_rank2():
    for i in range(1, 6):
        d = (2, 3)
        assert len(region_L(i, d).minimal_generators) == i + 1
        assert len(region_Q(i, d).minimal_generators) == i


def test_betti_bound_of_free(P11):
    from multireg import Presentation
    t = betti(free_resolution(Presentation.free(P11)))
    assert betti_bound_L(t).minimal_generators == ((0, 0),)
    assert betti_bound_Q(t).minimal_generators == ((0, 0),)


def test_betti_bound_golden_hyperelliptic(hyperelliptic_module):
    t = betti(free_resolution(hyperelliptic_module))
    assert betti_bound_L(t).minimal_generators == ((2, 7),)
    assert betti_bound_Q(t).minimal_generators == ((2, 7),)


def test_betti_bound_empty_rejected():
    with pytest.raises(ValueError):
        betti_bound_L(BettiTable(2, {}))


@pytest.mark.parametrize("call", [
    lambda: region_L(1, ()), lambda: region_L(0, ()),
    lambda: region_Q(2, ()), lambda: ci_regularity([()]),
], ids=["L1", "L0", "Q2", "ci"])
def test_degree_without_coordinates_rejected(call):
    # used to recurse without end in ringcore._compositions(total, 0)
    with pytest.raises(ValueError, match="no coordinates"):
        call()


def test_staircase_renderings():
    R = Region(2, [(1, 5), (2, 2), (4, 1)])
    text = staircase_text(R)
    assert "o" in text and "#" in text
    # the plot box runs from one below the generators to three above
    lines = text.splitlines()
    assert lines[0].startswith("   8 ") and lines[-2].startswith("   0 ")
    assert lines[-1].split() == [str(x) for x in range(8)]
    svg = staircase_svg(R)
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    with pytest.raises(ValueError):
        staircase_text(Region(3, [(0, 0, 0)]))


def test_staircase_footer_reads_the_coordinates():
    # a box crossing 10: every cell is as wide as the widest label
    assert staircase_text(Region(2, [(8, 0)])) == "\n".join([
        "   3  .  #  #  #  #",
        "   2  .  #  #  #  #",
        "   1  .  #  #  #  #",
        "   0  .  o  #  #  #",
        "  -1  .  .  .  .  .",
        "      7  8  9 10 11",
    ])


def test_region_json():
    js = Region(2, [(0, 1), (1, 0)]).to_json()
    assert js["schema"] == "multireg/region/v1"
    assert js["minimal_generators"] == [[0, 1], [1, 0]]
