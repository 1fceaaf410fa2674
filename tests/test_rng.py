from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paralangevin.rng import (
    NoisePlan,
    _polar_scalar,
    derive_seed,
    derive_seeds,
    gaussian_stream,
    gaussian_streams,
)


STREAM_DIGESTS = {
    1: "4b045f3e62c8a9bc7127579a1ec434521fcfd3f84877115044421b8d0d3012eb",
    2: "6c553d4a2867cb1d5508b006d76dc4e0df146ee95df8407276ff9810c5b59290",
    3: "774d6622b595bedc977bbf75539ff301cd6a4b44e84b36d1b50a23153c5984c7",
    5: "76f8ae3dbba0102ce1acebcc1625894ce1ca7a8f83b6ded04c6f940c115ee900",
    15: "b5d311f52278fcc3fec00cb548f64a2ffaf0754f1d432f9b01f7d366366edf9f",
    16: "1e25b4e0466a58033a6811fdfb90e914cf2053e4edddea0610ea99e35487cf8a",
    17: "1294a29246684cd12f4d0dfc7e6a02c930fa27df4272d13907e3021ea61f6f11",
    30: "58d3283c3d3b649a810e16809fb74af21fe3e0fb816b0fc54f9cdb159ca6a488",
    42: "1944160c867c9021dbe1e4e9d349a8040f4c866e7c54d8a225910575844a42ad",
    63: "21064babf25b0701ce790c060656c1556bb987a878725e3ded4f9682cab3d46d",
    64: "24992dfb51f45dd0b63801fe0251a1fce55e35b09c36d9c3a0e24cfe260a40ad",
    129: "e9ec5cf59b1cd42cd2527217152f190f999af6e23f9700a909e9f02608febd12",
    301: "2e625f72a8d3233ca5e7a7128638d462a319e627c60f447d443a03dfa685e922",
}


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(12345, 7) == derive_seed(12345, 7)

    def test_distinct_over_million_windows(self):
        seeds = derive_seeds(987654321, 10**6)
        assert np.unique(seeds).size == 10**6

    def test_vectorized_matches_scalar(self):
        master = 0xDEADBEEFCAFEBABE
        block = derive_seeds(master, 500)
        for n in (1, 2, 17, 499, 500):
            assert int(block[n - 1]) == derive_seed(master, n)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            derive_seed(-1, 1)
        with pytest.raises(ValueError):
            derive_seed(2**64, 1)
        with pytest.raises(ValueError):
            derive_seed(5, 0)
        with pytest.raises(TypeError):
            derive_seed(1.5, 1)

    def test_seeds_match_recorded_digest(self):
        h = hashlib.sha256()
        for master in (0, 7, 2**63 + 5, 2**64 - 1):
            h.update(derive_seeds(master, 1000).tobytes())
        assert h.hexdigest() == "f8e259374dc9274d1024a3f6f95ac6b062174f80c528ac0380ec7012d193efce"

    def test_full_u64_master_range(self):
        assert 0 <= derive_seed(0, 1) < 2**64
        assert 0 <= derive_seed(2**64 - 1, 1) < 2**64

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=1, max_value=10**9))
    @settings(max_examples=200, deadline=None)
    def test_pure_function(self, master, n):
        assert derive_seed(master, n) == derive_seed(master, n)
        assert 0 <= derive_seed(master, n) < 2**64


class TestGaussianStream:
    def test_deterministic(self):
        a = gaussian_stream(42, 1000)
        b = gaussian_stream(42, 1000)
        assert np.array_equal(a, b)

    def test_count_edges(self):
        assert gaussian_stream(1, 0).shape == (0,)
        assert gaussian_stream(1, 1).shape == (1,)
        # odd counts drop the second half of the final accepted pair
        odd = gaussian_stream(1, 7)
        even = gaussian_stream(1, 8)
        assert np.array_equal(odd, even[:7])

    def test_prefix_stability(self):
        # longer requests extend the stream without changing the prefix
        short = gaussian_stream(1234, 50)
        long = gaussian_stream(1234, 400)
        assert np.array_equal(short, long[:50])

    def test_law_of_large_numbers(self):
        g = gaussian_stream(2024, 10**6)
        assert abs(g.mean()) <= 4.0 / np.sqrt(10**6)
        assert abs(g.var() - 1.0) <= 0.01

    def test_distinct_windows_independent(self):
        # two-sample mean test at 4 sigma
        n = 10**5
        a = gaussian_stream(derive_seed(7, 1), n)
        b = gaussian_stream(derive_seed(7, 2), n)
        assert abs(a.mean() - b.mean()) <= 4.0 * np.sqrt(2.0 / n)

    def test_batch_bitwise_equals_scalar(self):
        seeds = derive_seeds(31337, 11)
        for count in (1, 2, 3, 15, 16, 17, 128, 205):
            batch = gaussian_streams(seeds, count)
            assert batch.shape == (11, count)
            for row, seed in enumerate(seeds):
                assert np.array_equal(batch[row], gaussian_stream(int(seed), count)), (
                    f"count={count} row={row}"
                )

    def test_batch_rows_match_recorded_digests(self):
        # sha256 of the stacked rows per count; counts on both sides of
        # _SCALAR_CUTOFF, seeds including 0 and 2^64 - 1
        seeds = np.concatenate([
            derive_seeds(7, 40),
            derive_seeds(2**63 + 5, 24),
            np.array([0, 1, 2**64 - 1], dtype=np.uint64),
        ])
        digests = {
            count: hashlib.sha256(gaussian_streams(seeds, count).tobytes()).hexdigest()
            for count in STREAM_DIGESTS
        }
        assert digests == STREAM_DIGESTS
        h = hashlib.sha256()
        for seed in seeds[:10]:
            for count in (3, 16, 42):
                h.update(gaussian_stream(int(seed), count).tobytes())
        assert h.hexdigest() == "afa0b7fabe84c693598c401ad2980160ac71df9e03d9b4de4cfaff37cd96c9ad"

    def test_short_streams_equal_the_scalar_reference_row_for_row(self):
        # about 1 row in 200 differs in its last bit under np.log, so many
        # rows per count: 6 master seeds x 300 windows, plus the extremes
        seeds = np.concatenate(
            [derive_seeds(m, 300) for m in (0, 1, 7, 2026, 2**63, 2**64 - 1)]
            + [np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)]
        )
        for count in range(1, 16):
            rows = gaussian_streams(seeds, count)
            for seed, row in zip(seeds.tolist(), rows):
                assert row.tobytes() == _polar_scalar(seed, count).tobytes(), (seed, count)

    @settings(max_examples=60, deadline=None)
    @given(
        count=st.integers(1, 15),
        seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40),
    )
    def test_streams_equal_the_scalar_reference_for_any_seeds(self, count, seeds):
        seeds = [0, 2**64 - 1] + seeds
        rows = gaussian_streams(np.array(seeds, dtype=np.uint64), count)
        assert rows.shape == (len(seeds), count)
        for seed, row in zip(seeds, rows):
            assert row.tobytes() == _polar_scalar(seed, count).tobytes()

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            gaussian_stream(1, -1)
        with pytest.raises(ValueError):
            gaussian_stream(-1, 10)


class TestNoisePlan:
    def test_reproducible(self):
        plan1 = NoisePlan.for_windows(99, 64)
        plan2 = NoisePlan.for_windows(99, 64)
        assert plan1 == plan2
        assert plan1.n_windows == 64

    def test_seed_for_matches_derivation(self):
        plan = NoisePlan.for_windows(5150, 10)
        for n in range(1, 11):
            assert plan.seed_for(n) == derive_seed(5150, n)

    def test_seed_for_bounds(self):
        plan = NoisePlan.for_windows(1, 3)
        with pytest.raises(IndexError):
            plan.seed_for(0)
        with pytest.raises(IndexError):
            plan.seed_for(4)

    def test_rejects_tampered_seeds(self):
        plan = NoisePlan.for_windows(1, 3)
        bad = list(plan.window_seeds)
        bad[1] ^= 1
        with pytest.raises(ValueError):
            NoisePlan(master_seed=1, window_seeds=tuple(bad))

    def test_rejects_one_wrong_seed_among_many(self):
        seeds = [int(s) for s in derive_seeds(77, 50)]
        seeds[-1] = derive_seed(77, 51)
        with pytest.raises(ValueError, match="not the seeds derived"):
            NoisePlan(master_seed=77, window_seeds=tuple(seeds))
