"""Tests for basin labeling, residence-time extraction, and intervals.

Expected values are hand-computed run-length encodings and the textbook
normal-interval arithmetic; the property tests check the length-conservation
invariant (durations, censored included, always sum to the sequence length).
"""

from __future__ import annotations

import csv

import numpy as np
import pytest
from hypothesis import given, strategies as st

from paralangevin import (
    BasinCatalog,
    DoubleWell,
    InsufficientDataError,
    ResidenceEvent,
    ResidenceStats,
    compare_ensembles,
    label_basin,
    label_positions,
    mean_ci,
    residence_histogram,
    residence_stats,
    residence_times,
    write_residence_histogram_csv,
)

RESIDENCE_HISTOGRAM_HEADER = ("bin_start", "bin_end", "count")


def _double_well_catalog():
    return BasinCatalog(minima=(np.array([-1.0]), np.array([1.0])))


class TestBasinCatalog:
    def test_from_potential_finds_both_wells(self):
        catalog = BasinCatalog.from_potential(
            DoubleWell(a=1.0, b=1.0), starts=[[-2.0], [2.0]]
        )
        assert catalog.size == 2
        assert catalog.minima[0][0] == pytest.approx(-1.0, abs=1e-6)
        assert catalog.minima[1][0] == pytest.approx(1.0, abs=1e-6)

    def test_rejects_empty_and_coincident(self):
        with pytest.raises(ValueError, match="at least one"):
            BasinCatalog(minima=())
        with pytest.raises(ValueError, match="coincide"):
            BasinCatalog(minima=(np.array([1.0]), np.array([1.0 + 1e-12])))
        with pytest.raises(ValueError, match="dimension"):
            BasinCatalog(minima=(np.array([1.0]), np.array([1.0, 2.0])))


class TestLabelBasin:
    def test_nearest_minimum(self):
        catalog = _double_well_catalog()
        assert label_basin([0.9], catalog) == 1
        assert label_basin([-0.3], catalog) == 0

    def test_tie_breaks_to_lowest_index(self):
        catalog = _double_well_catalog()
        assert label_basin([0.0], catalog) == 0

    def test_small_perturbation_keeps_label(self):
        # three catalogued points; a 1e-3 perturbation never flips the label
        catalog = BasinCatalog(
            minima=(np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        )
        rng = np.random.default_rng(7)
        for want, minimum in enumerate(catalog.minima):
            q = minimum + 1e-3 * rng.standard_normal(2)
            assert label_basin(q, catalog) == want

    def test_vectorized_labels_match_scalar(self):
        catalog = _double_well_catalog()
        positions = np.linspace(-2.0, 2.0, 41).reshape(-1, 1)
        vectorized = label_positions(positions, catalog)
        assert vectorized.tolist() == [label_basin(q, catalog) for q in positions]

    def test_vectorized_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            label_positions(np.zeros((4, 2)), _double_well_catalog())


class TestResidenceTimes:
    def test_hand_case(self):
        events = residence_times([0, 0, 0, 1, 1, 0])
        assert events == [
            ResidenceEvent(0, 3, False),
            ResidenceEvent(1, 2, False),
            ResidenceEvent(0, 1, True),
        ]

    def test_empty_sequence(self):
        assert residence_times([]) == []

    def test_never_exiting_run_is_censored(self):
        events = residence_times([7] * 2000)
        assert events == [ResidenceEvent(7, 2000, True)]

    def test_single_node(self):
        assert residence_times([3]) == [ResidenceEvent(3, 1, True)]

    @given(st.lists(st.integers(0, 3), max_size=60), st.integers(1, 4))
    def test_durations_partition_the_sequence(self, labels, min_run):
        events = residence_times(labels, min_run=min_run)
        assert sum(e.duration for e in events) == len(labels)
        assert all(e.duration >= 1 for e in events)
        if events:
            assert events[-1].censored
            assert not any(e.censored for e in events[:-1])

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=60))
    def test_events_reconstruct_the_sequence(self, labels):
        events = residence_times(labels)
        rebuilt = [e.basin for e in events for _ in range(e.duration)]
        assert rebuilt == labels

    def test_debounce_suppresses_short_recrossing(self):
        assert residence_times([0, 0, 1, 0, 0], min_run=2) == [
            ResidenceEvent(0, 5, True)
        ]

    def test_debounce_keeps_long_transition(self):
        assert residence_times([0, 0, 1, 1, 0], min_run=2) == [
            ResidenceEvent(0, 2, False),
            ResidenceEvent(1, 3, True),
        ]

    def test_debounce_leading_run_sets_the_state(self):
        assert residence_times([1, 0, 0, 0], min_run=3) == [
            ResidenceEvent(1, 1, False),
            ResidenceEvent(0, 3, True),
        ]

    def test_min_run_validation(self):
        with pytest.raises(ValueError):
            residence_times([0, 1], min_run=0)


class TestMeanCi:
    def test_zero_variance(self):
        assert mean_ci([5, 5, 5, 5]) == (5.0, 5.0, 5.0)

    def test_two_point_hand_case(self):
        # s = sqrt(2), half-width 1.96 * sqrt(2) / sqrt(2) = 1.96
        mean, lo, hi = mean_ci([1, 3])
        assert mean == 2.0
        assert lo == pytest.approx(0.04, abs=1e-12)
        assert hi == pytest.approx(3.96, abs=1e-12)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            mean_ci([5])
        with pytest.raises(InsufficientDataError):
            mean_ci([])

    def test_rejects_nonpositive_durations(self):
        with pytest.raises(ValueError, match="positive"):
            mean_ci([3, 0])


class TestResidenceStats:
    def test_from_events(self):
        events = residence_times([0, 0, 0, 1, 1, 0])
        stats = residence_stats(events)
        assert stats.durations == ((0, 3), (1, 2), (0, 1))
        assert stats.mean == 2.5
        assert stats.n_events == 2
        assert stats.censored == 1
        assert stats.ci_low <= stats.mean <= stats.ci_high
        assert sum(d for _, d in stats.durations) == 6

    def test_censored_only_events_are_insufficient(self):
        with pytest.raises(InsufficientDataError):
            residence_stats(residence_times([0, 0]))

    def test_interval_must_bracket_mean(self):
        with pytest.raises(ValueError, match="bracket"):
            ResidenceStats(
                durations=((0, 5),),
                mean=5.0,
                ci_low=6.0,
                ci_high=7.0,
                n_events=1,
                censored=0,
            )

    def test_as_dict(self):
        stats = residence_stats(residence_times([0, 0, 1, 1, 0]))
        payload = stats.as_dict()
        assert payload["n_events"] == 2
        assert payload["durations"] == [[0, 2], [1, 2], [0, 1]]


class TestCompareEnsembles:
    def _stats(self, lo, hi):
        return ResidenceStats(
            durations=((0, 1),),
            mean=0.5 * (lo + hi),
            ci_low=lo,
            ci_high=hi,
            n_events=2,
            censored=0,
        )

    def test_identical_intervals_overlap(self):
        a = self._stats(1.0, 2.0)
        result = compare_ensembles(a, a)
        assert result.overlap
        assert result.intervals == ((1.0, 2.0), (1.0, 2.0))

    def test_disjoint_intervals(self):
        assert not compare_ensembles(self._stats(1.0, 2.0), self._stats(3.0, 4.0)).overlap

    def test_reference_scale_intervals_overlap(self):
        a = self._stats(268.74, 371.78)
        b = self._stats(300.9, 411.83)
        assert compare_ensembles(a, b).overlap
        assert compare_ensembles(b, a).overlap


def _csv_writer_histogram(path, durations, bin_width):
    """The histogram writer as it was written with csv.writer (frozen reference)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESIDENCE_HISTOGRAM_HEADER)
        for lo, hi, count in residence_histogram(durations, bin_width):
            writer.writerow([str(lo), str(hi), str(count)])


class TestHistogram:
    def test_bins_and_empties(self):
        assert residence_histogram([1, 2, 3, 7], bin_width=2) == [
            (0, 2, 1),
            (2, 4, 2),
            (4, 6, 0),
            (6, 8, 1),
        ]

    def test_empty_input(self):
        assert residence_histogram([], bin_width=5) == []

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "hist.csv"
        write_residence_histogram_csv(path, [1, 2, 3, 7], bin_width=2)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ",".join(RESIDENCE_HISTOGRAM_HEADER)
        assert lines[1:] == ["0,2,1", "2,4,2", "4,6,0", "6,8,1"]

    @pytest.mark.parametrize(
        "durations, bin_width",
        [([1, 2, 3, 7], 2), ([], 50), ([120, 5, 5, 999], 50), (np.array([3, 3, 10]), 1)],
        ids=["small", "no-durations", "wide", "numpy-ints"],
    )
    def test_csv_bytes_equal_the_csv_writer_reference(self, tmp_path, durations, bin_width):
        write_residence_histogram_csv(tmp_path / "new.csv", durations, bin_width)
        _csv_writer_histogram(tmp_path / "ref.csv", durations, bin_width)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        if not len(durations):
            assert (tmp_path / "new.csv").read_bytes() == b"bin_start,bin_end,count\r\n"

    def test_validation(self):
        with pytest.raises(ValueError):
            residence_histogram([1], bin_width=0)
        with pytest.raises(ValueError, match="positive"):
            residence_histogram([0], bin_width=2)
