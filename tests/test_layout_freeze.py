"""Frozen brick layout geometry.

The layout generator's outputs feed the library model (area), the
floorplanner (width, height, pins) and the reports, so a faster
pattern-legality check must not move any of them.  Each case below was
recorded before the checker moved onto a tag-code array: width, height,
the array rectangle, every strip, every pin and the pattern grid's tag
counts, hashed as exact float reprs.
"""

from __future__ import annotations

import hashlib
from dataclasses import astuple

import pytest

from repro.bricks import compile_brick, generate_layout
from repro.bricks.spec import BrickSpec

#: "type-WORDSxBITS-sSTACK" -> (width um, height um, pins, sha256)
FROZEN = {
    "6T-16x8-s1": (11.704820551249536, 11.026399067976005, 33,
        "457b5c4620f676bf35d0ca1433ab40a0fb6b4f5c7b87bf3222d8cfcca6239f59"),
    "6T-16x8-s4": (11.704820551249536, 12.462709542633137, 33,
        "d235bb26ca48dc005fef45cf36e5ab6648093b13216418c9ab9e6ac7f6645236"),
    "6T-128x64-s1": (85.62914699028491, 79.49936696609142, 257,
        "69241d0dcfaa98d61b7d4c549dc049ff49087bbed66e42cc097e56bb7560a082"),
    "6T-128x64-s4": (85.62914699028491, 79.49936696609142, 257,
        "69241d0dcfaa98d61b7d4c549dc049ff49087bbed66e42cc097e56bb7560a082"),
    "8T-16x8-s1": (14.398816361636053, 10.954682841236261, 33,
        "1514ea4382b7066e562fa46568695f75839c41ac36c925db47c077e18fc710bc"),
    "8T-16x8-s4": (14.398816361636053, 12.289752474792971, 33,
        "6c1ef39f0ebcd7624e5dc56a116c80396cc51957c9055843130c01eb8ea93f7b"),
    "8T-128x64-s1": (108.54907672039084, 79.31424058696145, 257,
        "7497022b315477d0d7cbd75d4063ab96eaf388c01b05e1b27f98c31d5e88cf8d"),
    "8T-128x64-s4": (108.54907672039084, 79.31424058696145, 257,
        "7497022b315477d0d7cbd75d4063ab96eaf388c01b05e1b27f98c31d5e88cf8d"),
    "CAM-16x8-s1": (21.86276053593074, 11.751002083697871, 57,
        "7fb26f15fbdd5dae03ddeefd9e5bacdd7e9e31a360189dfec75603dc246e8969"),
    "CAM-16x8-s4": (21.86276053593074, 12.977563781982097, 57,
        "9d2a8ad149efe25b5e86b29e6c0803e4386db3eee575f3ccb304f4a2765b4a3b"),
    "CAM-128x64-s1": (163.97874096868182, 80.11045694996616, 449,
        "b5c325f8de3fdd847faab6cc3d7d9a033c81ccb3005d2e690805580792f84e2d"),
    "CAM-128x64-s4": (163.97874096868182, 80.11045694996616, 449,
        "b5c325f8de3fdd847faab6cc3d7d9a033c81ccb3005d2e690805580792f84e2d"),
    "EDRAM-16x8-s1": (7.033936662143274, 7.873410628617184, 33,
        "b1221b537fbe640b6e58999b2fce2341248a1fe7b50895d6a88195abb8cdde33"),
    "EDRAM-16x8-s4": (7.033936662143274, 9.678960514265357, 33,
        "6d344e1ab7f18b190244725a46faa99e490acd0a35a983d50d0a124cd97e1209"),
    "EDRAM-128x64-s1": (40.00239646945231, 54.88969102983614, 257,
        "055834e411462c8457fa4524eb2702fe3bcea609811b5fb1459e12d03120a51d"),
    "EDRAM-128x64-s4": (40.00239646945231, 54.88969102983614, 257,
        "055834e411462c8457fa4524eb2702fe3bcea609811b5fb1459e12d03120a51d"),
    "DP-16x8-s1": (16.631769924180297, 10.95100208369787, 33,
        "2139378fda8e9212264d220d1666c8e32e10ad4affd62aa4cfc514d38f8f792e"),
    "DP-16x8-s4": (16.631769924180297, 12.242593217624483, 33,
        "d3d2b6ceed127436f88325a2c3077e515c67921d6455f8282f2fdb74226af2d8"),
    "DP-128x64-s1": (126.80207955866356, 79.31045694996617, 257,
        "2f708bc3c39066d986223e8b5ac8a85554d8aeed79311a574a965d83831b06c8"),
    "DP-128x64-s4": (126.80207955866356, 79.31045694996617, 257,
        "2f708bc3c39066d986223e8b5ac8a85554d8aeed79311a574a965d83831b06c8"),
}


def layout_record(layout) -> tuple:
    """Everything the generator emits except the brick name, exactly."""
    return (
        layout.width_um,
        layout.height_um,
        astuple(layout.array),
        tuple((name, astuple(rect))
              for name, rect in sorted(layout.strips.items())),
        tuple((pin.name, pin.side, pin.offset_um) for pin in layout.pins),
        tuple(sorted(layout.pattern_grid.counts().items())),
    )


def layout_digest(layout) -> str:
    return hashlib.sha256(repr(layout_record(layout)).encode()).hexdigest()


def build(case: str, tech):
    memory_type, shape, stack = case.split("-")
    words, bits = (int(n) for n in shape.split("x"))
    compiled = compile_brick(BrickSpec(memory_type, words, bits), tech,
                             target_stack=int(stack[1:]))
    return generate_layout(compiled, tech)


@pytest.mark.parametrize("case", sorted(FROZEN))
def test_layout_geometry_is_frozen(case, tech):
    width, height, n_pins, digest = FROZEN[case]
    layout = build(case, tech)
    assert layout.width_um == width
    assert layout.height_um == height
    assert len(layout.pins) == n_pins
    assert layout_digest(layout) == digest


@pytest.mark.parametrize("case", sorted(FROZEN))
def test_tag_counts_match_the_array(case, tech):
    """One bitcell tile per word and bit, periphery everywhere else;
    CAM adds one row and one column of periphery."""
    memory_type, shape, _ = case.split("-")
    words, bits = (int(n) for n in shape.split("x"))
    cam = memory_type == "CAM"
    tiles = (words + 2 + cam) * (bits + 1 + cam)
    assert build(case, tech).pattern_grid.counts() == {
        "PH": tiles - words * bits, "BC": words * bits}
