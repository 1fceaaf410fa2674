"""Tests for the cost model and gain reports.

The numeric expectations are hand arithmetic on the cost formulas (all
integer-valued, so the floats are exact); the property tests draw random
valid slab tilings and check monotonicity and the ideal-gain bound.
"""

from __future__ import annotations

import csv
import itertools

import pytest
from hypothesis import given, strategies as st

from paralangevin import (
    GAIN_CSV_HEADER,
    GainReport,
    SlabAttempt,
    SlabRecord,
    adaptive_cost,
    adaptive_gain,
    classic_gain,
    gain_csv_row,
    write_gain_csv,
)


def _slab(index, n_init, attempts, n_final):
    return SlabRecord(
        slab_index=index,
        n_init=n_init,
        attempts=tuple(SlabAttempt(e, k) for e, k in attempts),
        n_final=n_final,
        k_conv=sum(k for _, k in attempts),
    )


@st.composite
def tiled_slabs(draw):
    """A random valid slab tiling plus its window count."""
    widths = draw(st.lists(st.integers(1, 8), min_size=1, max_size=4))
    bounds = list(itertools.accumulate(widths))
    n = bounds[-1]
    slabs = []
    n_init = 0
    for i, n_final in enumerate(bounds, start=1):
        n_extra = draw(st.integers(0, 2))
        extra = sorted(
            draw(
                st.lists(
                    st.integers(n_final, n), min_size=n_extra, max_size=n_extra
                )
            ),
            reverse=True,
        )
        attempts = [(e, draw(st.integers(1, 5))) for e in extra]
        attempts.append((n_final, draw(st.integers(1, 5))))
        slabs.append(_slab(i, n_init, attempts, n_final))
        n_init = n_final
    return slabs, n


class TestClassicGain:
    def test_hand_case(self):
        report = classic_gain(10, 2, 100.0, 1.0)
        assert report.total_cost == 232.0
        assert report.sequential_cost == 1000.0
        assert report.gain == 1000.0 / 232.0
        assert report.ideal_gain == 5.0
        assert report.n_slab == 1
        assert report.total_iterations == 2
        # summed CPU effort over all ranks: N*cc + k*(N*(cf+cc) + 2*N*cc)
        assert report.total_effort == 10.0 + 2 * (10 * 101.0 + 20.0)

    def test_free_coarse_reaches_ideal(self):
        report = classic_gain(10, 2, 100.0, 0.0)
        assert report.gain == report.ideal_gain == 5.0

    @pytest.mark.parametrize("cc", [0.5, 1.0, 5.0])
    def test_k_conv_equal_to_n_loses(self, cc):
        assert classic_gain(10, 10, 100.0, cc).gain < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            classic_gain(0, 1, 100.0, 1.0)
        with pytest.raises(ValueError):
            classic_gain(10, 0, 100.0, 1.0)
        with pytest.raises(ValueError):
            classic_gain(10, 1, 0.0, 1.0)
        with pytest.raises(ValueError):
            classic_gain(10, 1, 100.0, -1.0)


class TestAdaptiveCost:
    def test_single_slab_single_attempt_hand_case(self):
        slabs = [_slab(1, 0, [(10, 2)], 10)]
        assert adaptive_cost(slabs, 10, 100.0, 1.0) == 232.0

    def test_two_slab_hand_case(self):
        # slab 1 spends 2 iterations on [0, 10], explodes, 1 more on [0, 5];
        # slab 2 converges [5, 10] in one iteration
        slabs = [
            _slab(1, 0, [(10, 2), (5, 1)], 5),
            _slab(2, 5, [(10, 1)], 10),
        ]
        expected = 10 + (2 * (101 + 10) + 1 * (101 + 5)) + 5 + 1 * (101 + 5)
        assert expected == 449
        assert adaptive_cost(slabs, 10, 100.0, 1.0) == 449.0

    @given(tiled_slabs())
    def test_free_coarse_collapses_to_iteration_count(self, drawn):
        slabs, n = drawn
        iterations = sum(a.iterations for s in slabs for a in s.attempts)
        assert adaptive_cost(slabs, n, 100.0, 0.0) == 100.0 * iterations

    @given(tiled_slabs(), st.floats(0.1, 10.0), st.floats(0.0, 5.0))
    def test_single_slab_single_attempt_matches_classic(self, drawn, cf, cc):
        _, n = drawn
        k = 3
        slabs = [_slab(1, 0, [(n, k)], n)]
        # the classic formula of the module docstring, which classic_gain reports
        assert adaptive_cost(slabs, n, cf, cc) == n * cc + k * ((cf + cc) + n * cc)
        assert classic_gain(n, k, cf, cc).total_cost == adaptive_cost(slabs, n, cf, cc)

    def test_tiling_validation(self):
        good = [_slab(1, 0, [(10, 1)], 10)]
        with pytest.raises(ValueError, match="empty"):
            adaptive_cost([], 10, 100.0, 1.0)
        with pytest.raises(ValueError, match="expected 10"):
            adaptive_cost([_slab(1, 0, [(5, 1)], 5)], 10, 100.0, 1.0)
        with pytest.raises(ValueError, match="tile"):
            adaptive_cost(
                [_slab(1, 0, [(4, 1)], 4), _slab(2, 5, [(10, 1)], 10)], 10, 100.0, 1.0
            )
        with pytest.raises(ValueError, match="starts at"):
            adaptive_cost([_slab(1, 2, [(10, 1)], 10)], 10, 100.0, 1.0)
        with pytest.raises(ValueError, match="indices"):
            adaptive_cost([_slab(2, 0, [(10, 1)], 10)], 10, 100.0, 1.0)
        assert adaptive_cost(good, 10, 100.0, 1.0) > 0


class TestAdaptiveGain:
    def test_two_slab_hand_case(self):
        slabs = [
            _slab(1, 0, [(10, 2), (5, 1)], 5),
            _slab(2, 5, [(10, 1)], 10),
        ]
        report = adaptive_gain(slabs, 10, 100.0, 1.0)
        assert report.total_cost == 449.0
        assert report.gain == 1000.0 / 449.0
        assert report.ideal_gain == 2.5
        assert report.n_slab == 2
        assert report.total_iterations == 4
        assert report.total_effort is None

    def test_free_coarse_reaches_ideal(self):
        slabs = [_slab(1, 0, [(10, 2)], 10)]
        report = adaptive_gain(slabs, 10, 100.0, 0.0)
        assert report.gain == report.ideal_gain == 5.0

    @given(tiled_slabs(), st.floats(0.1, 10.0), st.floats(0.01, 5.0))
    def test_gain_below_ideal_for_costly_coarse(self, drawn, cf, cc):
        slabs, n = drawn
        report = adaptive_gain(slabs, n, cf, cc)
        assert report.gain < report.ideal_gain

    @given(tiled_slabs(), st.floats(0.1, 10.0), st.floats(0.0, 2.0), st.floats(0.1, 2.0))
    def test_gain_decreases_with_coarse_cost(self, drawn, cf, cc, bump):
        slabs, n = drawn
        cheap = adaptive_gain(slabs, n, cf, cc)
        costly = adaptive_gain(slabs, n, cf, cc + bump)
        assert costly.gain < cheap.gain

    @given(tiled_slabs(), st.data())
    def test_gain_decreases_with_every_iteration_count(self, drawn, data):
        slabs, n = drawn
        i = data.draw(st.integers(0, len(slabs) - 1))
        j = data.draw(st.integers(0, len(slabs[i].attempts) - 1))
        bumped_attempts = [
            SlabAttempt(a.n_final, a.iterations + (1 if jj == j else 0))
            for jj, a in enumerate(slabs[i].attempts)
        ]
        bumped = list(slabs)
        bumped[i] = SlabRecord(
            slab_index=slabs[i].slab_index,
            n_init=slabs[i].n_init,
            attempts=tuple(bumped_attempts),
            n_final=slabs[i].n_final,
            k_conv=slabs[i].k_conv + 1,
        )
        before = adaptive_gain(slabs, n, 10.0, 0.5)
        after = adaptive_gain(bumped, n, 10.0, 0.5)
        assert after.gain < before.gain
        assert after.ideal_gain < before.ideal_gain


class TestGainReport:
    def test_rejects_negative_fields(self):
        with pytest.raises(ValueError):
            GainReport(
                total_cost=-1.0,
                sequential_cost=1.0,
                gain=1.0,
                ideal_gain=1.0,
                n_slab=1,
                total_iterations=1,
            )
        with pytest.raises(ValueError):
            GainReport(
                total_cost=1.0,
                sequential_cost=1.0,
                gain=1.0,
                ideal_gain=1.0,
                n_slab=0,
                total_iterations=1,
            )

    def test_as_dict_round_trip(self):
        report = classic_gain(10, 2, 100.0, 1.0)
        payload = report.as_dict()
        assert payload["total_cost"] == 232.0
        assert payload["n_slab"] == 1
        assert set(payload) == {
            "total_cost",
            "sequential_cost",
            "gain",
            "ideal_gain",
            "n_slab",
            "total_iterations",
            "total_effort",
        }


class TestGainCsv:
    def test_row_layout(self):
        report = classic_gain(10, 2, 100.0, 1.0)
        row = gain_csv_row(report, dt=0.05, delta_expl=0.35, delta_conv=1e-5)
        assert row == (
            format(0.05, ".17g"),
            format(0.35, ".17g"),
            format(1e-5, ".17g"),
            format(5.0, ".17g"),
            format(1000.0 / 232.0, ".17g"),
            "2" if report.n_slab == 2 else "1",
        )
        assert gain_csv_row(report, 0.05, None, 1e-5)[1] == ""

    def test_write_round_trip(self, tmp_path):
        report = classic_gain(10, 2, 100.0, 1.0)
        rows = [gain_csv_row(report, 0.05, 0.35, 1e-5)]
        path = tmp_path / "gains.csv"
        write_gain_csv(path, rows)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ",".join(GAIN_CSV_HEADER)
        values = lines[1].split(",")
        assert float(values[0]) == 0.05
        assert float(values[4]) == 1000.0 / 232.0
        assert values[5] == "1"


def _csv_writer_gains(path, rows):
    """The gain-table writer as it was written with csv.writer (frozen reference)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(GAIN_CSV_HEADER)
        for row in rows:
            writer.writerow(row)


def test_gain_csv_bytes_equal_the_csv_writer_reference(tmp_path):
    two_slabs = [_slab(1, 0, [(10, 3), (6, 2)], 6), _slab(2, 6, [(10, 4)], 10)]
    rows = [
        gain_csv_row(classic_gain(10, 2, 100.0, 1.0), 0.05, 0.35, 1e-5),
        gain_csv_row(adaptive_gain(two_slabs, 10, 175.0, 1.0), 0.1, None, 1e-10),
        gain_csv_row(adaptive_gain(two_slabs, 10, 2.0 / 3.0, 0.0), 5e-324, 1e308, 1e-300),
    ]
    assert rows[1][1] == ""  # no explosion threshold: an empty field
    write_gain_csv(tmp_path / "new.csv", rows)
    _csv_writer_gains(tmp_path / "ref.csv", rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    write_gain_csv(tmp_path / "empty.csv", [])
    _csv_writer_gains(tmp_path / "ref_empty.csv", [])
    assert (tmp_path / "empty.csv").read_bytes() == (tmp_path / "ref_empty.csv").read_bytes()
