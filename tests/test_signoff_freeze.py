"""Frozen random streams of the defect draw and the bootstrap.

Signoff reports, yield reports and the benchmark goldens are pure
functions of these streams, so the cost of producing them may change
but not a single drawn number.  The digests below pin:

* the shared-stream defect draw (``yield_analysis`` and
  ``silicon.measure`` draw many bricks from one ``random.Random``):
  every brick's defects *and* the next ``rng.random()`` after it, which
  pins the stream position, not just the result;
* the per-die chunk worker of the signoff engine: pass/fail flags,
  delay derates and defect counts;

and the blocked :func:`~repro.signoff.rng.resample_indices` is held
``==`` to the one-shot formula it replaced, kept here as the oracle.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest

from repro.bricks.spec import BrickSpec
from repro.errors import FaultError
from repro.faults.defects import DEFECT_KINDS, DefectModel, _poisson
from repro.faults.repair import RepairPlan
from repro.signoff import rng as streams
from repro.signoff.engine import _chunk_worker
from repro.signoff.rng import resample_indices, stream_key, uniforms
from repro.signoff.stats import _resample_means, bootstrap_mean_ci
from repro.silicon.variation import VariationModel

HIGH_RATES = DefectModel(p_stuck_at=0.01, p_wordline_bridge=0.05,
                         p_weak_sense=0.1, p_open_via=0.1)

#: case -> (spec, model, master seed, bricks drawn in sequence)
SHARED_CASES = {
    "single_word": (BrickSpec("8T", 1, 32), HIGH_RATES, 5, 400),
    "zero_rates": (BrickSpec("8T", 16, 10),
                   DefectModel(p_stuck_at=0.0, p_wordline_bridge=0.0,
                               p_weak_sense=0.0, p_open_via=0.0), 6, 200),
    "default_rates": (BrickSpec("6T", 64, 128), DefectModel(), 7, 400),
    "high_rates": (BrickSpec("CAM", 32, 16), HIGH_RATES, 8, 400),
}

SHARED_DIGESTS = {
    "single_word":
        "b89625769647da6e80202fd36c939fb41287f6da9ecd28ef6416c1e7d010078c",
    "zero_rates":
        "3ec4386cfc03f3e8286ce59fc08ace89a9194ae4ba729c279db1ce6b99b1c5c1",
    "default_rates":
        "41a7a25b415a8ddd32bfcd927342463011dbf7951d8614f57f2857adfe7af0e1",
    "high_rates":
        "581bd80af6e523897b6da56f1bb7170ad3e79a6c5c48d7b65aa3696dda47c637",
}

#: case -> (spec, defect model, repair plan, first die, last die + 1)
CHUNK_CASES = {
    "6T": (BrickSpec("6T", 16, 10), DefectModel(), RepairPlan(),
           0, 1500),
    "CAM": (BrickSpec("CAM", 16, 10), HIGH_RATES,
            RepairPlan(ecc=True), 250, 1250),
    "1x4": (BrickSpec("8T", 1, 4), HIGH_RATES, RepairPlan(), 0, 1500),
    "64x128": (BrickSpec("8T", 64, 128), DefectModel(),
               RepairPlan(spare_rows=4, spare_cols=2, ecc=True),
               4096, 5096),
}

CHUNK_DIGESTS = {
    "6T":
        "14d6d38f3f676ff95b4e8805905c8de319bb4dc5cb195e8c1f1bba89f92f2a41",
    "CAM":
        "ef7364ead1053373e742e91ca35512149a6fd55f97c3db5d6eedb3d191c6899c",
    "1x4":
        "67fff06a9cb2fa8383fa967e7fa4a76f71fa5dd62650855a46aed181f4321a12",
    "64x128":
        "704ec472b08eaabc86aa643f74b754cb6ed55218bed7d46fcca54606d1b13c45",
}


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def shared_stream_records(case: str):
    """Per brick: its defects and the stream's next uniform."""
    spec, model, seed, bricks = SHARED_CASES[case]
    rng = random.Random(seed)
    records = []
    for _ in range(bricks):
        defects = model.sample(spec, rng)
        records.append((tuple((d.kind, d.row, d.bit) for d in defects),
                        rng.random()))
    return records


def chunk_record(case: str):
    """The seed-independent outputs of one chunk-worker call."""
    spec, defects, repair, start, stop = CHUNK_CASES[case]
    key = stream_key(2015, f"freeze:{case}")
    result = _chunk_worker((spec, VariationModel(), defects, repair,
                            0, start, stop, key))
    return (result.raw_ok.tolist(), result.repaired_ok.tolist(),
            result.derate.tolist(), sorted(result.defect_counts.items()))


class TestDefectStreamFrozen:
    @pytest.mark.parametrize("case", sorted(SHARED_CASES))
    def test_shared_stream(self, case):
        assert _digest(shared_stream_records(case)) == \
            SHARED_DIGESTS[case]

    def test_high_rates_hit_every_mechanism(self):
        kinds = {kind for defects, _ in
                 shared_stream_records("high_rates")
                 for kind, _, _ in defects}
        assert kinds == set(DEFECT_KINDS)

    def test_single_word_has_no_bridges(self):
        kinds = {kind for defects, _ in
                 shared_stream_records("single_word")
                 for kind, _, _ in defects}
        assert "wordline_bridge" not in kinds
        assert {"stuck_at_0", "weak_sense", "open_via"} <= kinds

    @pytest.mark.parametrize("case", sorted(CHUNK_CASES))
    def test_chunk_worker(self, case):
        assert _digest(chunk_record(case)) == CHUNK_DIGESTS[case]


class TestPoissonRange:
    def test_rejects_rates_beyond_the_product_method(self):
        # Knuth's product of uniforms underflows near exp(-745): it
        # used to return ~730 stuck cells here instead of ~4096.
        model = DefectModel(p_stuck_at=0.5)
        with pytest.raises(FaultError, match="stuck_at"):
            model.sample(BrickSpec("8T", 64, 128), random.Random(1))

    def test_names_the_mechanism(self):
        model = DefectModel(p_stuck_at=0.0, p_wordline_bridge=0.9)
        with pytest.raises(FaultError, match="wordline_bridge"):
            model.sample(BrickSpec("8T", 1024, 1), random.Random(1))

    def test_largest_mean_still_draws(self):
        rng = random.Random(3)
        counts = [_poisson(rng, 700.0, "stuck_at") for _ in range(20)]
        assert 600 < sum(counts) / len(counts) < 800
        with pytest.raises(FaultError, match="open_via"):
            _poisson(rng, 700.5, "open_via")


def _oracle_uniforms(key: int, counters: np.ndarray) -> np.ndarray:
    """splitmix64 uniforms, one full-size temporary per operation."""
    z = np.uint64(key) + (counters + np.uint64(1)) \
        * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return ((z >> np.uint64(11)) + np.uint64(1)).astype(np.float64) \
        * float(2.0 ** -53)


def _oracle_resample_indices(key: int, n_values: int, n_boot: int,
                             block: int = 0) -> np.ndarray:
    """The one-shot index matrix (full-size temporaries throughout)."""
    total = n_boot * n_values
    offset = np.uint64(block) * np.uint64(0x1000000000)
    counters = offset + np.arange(total, dtype=np.uint64)
    u = _oracle_uniforms(key, counters)
    idx = np.floor((1.0 - u) * n_values).astype(np.int64)
    return idx.reshape(n_boot, n_values)


class TestResampleOracle:
    def test_uniforms_match_one_shot(self):
        key = stream_key(2015, "pvt:freeze")
        counters = np.arange(3 * streams.BLOCK_COUNTERS + 17,
                             dtype=np.uint64) * np.uint64(7)
        assert np.array_equal(uniforms(key, counters),
                              _oracle_uniforms(key, counters))

    @pytest.mark.parametrize("n", [1, 2, 3, 1024, 6656])
    @pytest.mark.parametrize("block", [0, 1, 7])
    def test_matches_one_shot(self, n, block):
        key = stream_key(2015, "signoff-boot:freeze")
        got = resample_indices(key, n, 200, block=block)
        assert got.dtype == np.int64 and got.shape == (200, n)
        assert np.array_equal(got, _oracle_resample_indices(
            key, n, 200, block=block))

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    @pytest.mark.parametrize("blocks", [1, 2])
    def test_straddles_block_boundary(self, extra, blocks):
        key = stream_key(9, "boot")
        total = blocks * streams.BLOCK_COUNTERS + extra
        for n_boot, n in ((1, total), (total, 1)):
            assert np.array_equal(
                resample_indices(key, n, n_boot, block=3),
                _oracle_resample_indices(key, n, n_boot, block=3))

    def test_counter_offset_wraps_like_uint64(self):
        key = stream_key(4, "wrap")
        block = 2 ** 28 + 5  # block * 2**36 overflows 64 bits
        with np.errstate(over="ignore"):
            want = _oracle_resample_indices(key, 37, 11, block=block)
        assert np.array_equal(
            resample_indices(key, 37, 11, block=block), want)


class TestResampleMeansOracle:
    @pytest.mark.parametrize("n", [2, 3, 1024, 6656, 9000])
    def test_matches_one_shot_mean(self, n):
        values = np.exp(np.random.default_rng(n).normal(size=n))
        idx = resample_indices(stream_key(1, "means"), n, 200)
        assert np.array_equal(_resample_means(values, idx),
                              values[idx].mean(axis=1))

    def test_rows_straddle_blocks(self):
        n = streams.BLOCK_COUNTERS // 3 + 1
        values = np.random.default_rng(7).random(n)
        idx = resample_indices(stream_key(2, "means"), n, 7)
        assert np.array_equal(_resample_means(values, idx),
                              values[idx].mean(axis=1))

    def test_indices_must_cover_the_values(self):
        idx = resample_indices(stream_key(3, "means"), 10, 5)
        with pytest.raises(ValueError, match="cover 10 values"):
            bootstrap_mean_ci(np.ones(11), 0, idx=idx)
