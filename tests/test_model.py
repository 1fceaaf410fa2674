from __future__ import annotations

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paralangevin.accounting import write_gain_csv
from paralangevin.model import (
    LangevinParams,
    NodeTrajectory,
    PhaseState,
    atomic_open,
    read_trajectory_csv,
    write_trajectory_csv,
)


def _traj(positions, momenta=None):
    q = np.array(positions, dtype=float)
    return NodeTrajectory(q=q, p=np.zeros_like(q) if momenta is None else momenta)


class TestPhaseState:
    def test_basic(self):
        s = PhaseState(q=[1.0, 2.0], p=[3.0, 4.0])
        assert s.dim == 2
        assert np.array_equal(s.q, [1.0, 2.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PhaseState(q=[np.nan], p=[0.0])
        with pytest.raises(ValueError):
            PhaseState(q=[0.0], p=[np.inf])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            PhaseState(q=[1.0, 2.0], p=[1.0])

    def test_rejects_empty_and_nonvector(self):
        with pytest.raises(ValueError):
            PhaseState(q=[], p=[])
        with pytest.raises(ValueError):
            PhaseState(q=[[1.0]], p=[[1.0]])

    def test_immutable(self):
        s = PhaseState(q=[1.0], p=[2.0])
        with pytest.raises(ValueError):
            s.q[0] = 5.0

    def test_input_aliasing_is_safe(self):
        src = np.array([1.0, 2.0])
        s = PhaseState(q=src, p=[0.0, 0.0])
        src[0] = 99.0
        assert s.q[0] == 1.0

    def test_equality(self):
        assert PhaseState(q=[1.0], p=[2.0]) == PhaseState(q=[1.0], p=[2.0])
        assert PhaseState(q=[1.0], p=[2.0]) != PhaseState(q=[1.0], p=[2.5])


class TestLangevinParams:
    def test_window_dt_derived(self):
        p = LangevinParams(gamma=1.0, inv_beta=1.0, dt=0.25, substeps=4)
        assert p.window_dt == 1.0

    def test_rejects_gamma_dt_at_stability_bound(self):
        with pytest.raises(ValueError):
            LangevinParams(gamma=2.0, inv_beta=1.0, dt=1.0)
        LangevinParams(gamma=1.9, inv_beta=1.0, dt=1.0)  # below the bound is fine

    def test_gamma_zero_allowed(self):
        p = LangevinParams(gamma=0.0, inv_beta=0.0, dt=0.1)
        assert p.gamma == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(gamma=-1.0, inv_beta=1.0, dt=0.1),
            dict(gamma=1.0, inv_beta=-0.5, dt=0.1),
            dict(gamma=1.0, inv_beta=1.0, dt=0.0),
            dict(gamma=1.0, inv_beta=1.0, dt=0.1, substeps=0),
            dict(gamma=1.0, inv_beta=1.0, dt=0.1, mass=[0.0]),
            dict(gamma=1.0, inv_beta=1.0, dt=0.1, mass=[1.0, -2.0]),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            LangevinParams(**kwargs)

    def test_mass_vector(self):
        p = LangevinParams(gamma=1.0, inv_beta=1.0, dt=0.1, mass=[1.0, 2.0])
        assert np.array_equal(p.mass_vector(2), [1.0, 2.0])
        with pytest.raises(ValueError):
            p.mass_vector(3)
        unit = LangevinParams(gamma=1.0, inv_beta=1.0, dt=0.1)
        assert np.array_equal(unit.mass_vector(3), [1.0, 1.0, 1.0])


class TestNodeTrajectory:
    def test_slice_reindexes(self):
        t = _traj([[0.0], [1.0], [2.0], [3.0]])
        s = t.slice(1, 3)
        assert s.n_windows == 2
        assert s[0].q[0] == 1.0
        assert s[2].q[0] == 3.0

    def test_slice_range_errors(self):
        t = _traj([[0.0], [1.0], [2.0]])
        with pytest.raises(IndexError):
            t.slice(2, 1)
        with pytest.raises(IndexError):
            t.slice(0, 3)
        with pytest.raises(IndexError):
            t.slice(-1, 1)

    def test_single_node_trajectory(self):
        t = _traj([[5.0]])
        assert t.n_windows == 0
        assert t.slice(0, 0) == t

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError, match="one shape"):
            NodeTrajectory(q=[[1.0], [2.0]], p=[[0.0, 0.0], [0.0, 0.0]])

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=12),
        st.random_module(),
    )
    @settings(max_examples=50, deadline=None)
    def test_slice_concat_roundtrip(self, n_windows, cut, _rng):
        cut = min(cut, n_windows)
        rng = np.random.default_rng(0)
        qs = rng.normal(size=(n_windows + 1, 2))
        t = _traj(qs.tolist())
        left = t.slice(0, cut)
        right = t.slice(cut, n_windows)
        rebuilt = NodeTrajectory(
            q=np.vstack([left.positions(), right.positions()[1:]]),
            p=np.vstack([left.momenta(), right.momenta()[1:]]),
        )
        assert rebuilt == t


class TestArrayBackedTrajectory:
    @given(
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_arrays_equal_states_node_for_node(self, n_windows, d, seed):
        rng = np.random.default_rng(seed)
        q = rng.normal(size=(n_windows + 1, d))
        p = rng.normal(size=(n_windows + 1, d))
        from_arrays = NodeTrajectory(q=q, p=p)
        states = tuple(PhaseState(q=a, p=b) for a, b in zip(q, p))
        assert len(from_arrays) == len(states) == n_windows + 1
        assert from_arrays.dim == d
        for n, (a, b) in enumerate(zip(from_arrays, states)):
            assert a.q.tobytes() == b.q.tobytes() == q[n].tobytes()
            assert a.p.tobytes() == b.p.tobytes() == p[n].tobytes()
            assert from_arrays[n] == b
        assert from_arrays.states == states

    def test_rows_are_read_only_and_the_input_is_copied(self):
        q = np.array([[0.0, 1.0], [2.0, 3.0]])
        p = np.zeros((2, 2))
        t = NodeTrajectory(q=q, p=p)
        q[1, 0] = 99.0  # the trajectory keeps its own copy
        assert t[1].q[0] == 2.0
        for state in (t[1], next(iter(t)), t.states[0]):
            with pytest.raises(ValueError):
                state.q[0] = 5.0
            with pytest.raises(ValueError):
                state.p[0] = 5.0

    def test_positions_and_momenta_do_not_alias(self):
        t = _traj([[0.0, 1.0], [2.0, 3.0]], [[4.0, 5.0], [6.0, 7.0]])
        positions, momenta = t.positions(), t.momenta()
        positions[:] = -1.0
        momenta[:] = -1.0
        assert t[1].q.tolist() == [2.0, 3.0]
        assert t[1].p.tolist() == [6.0, 7.0]
        assert not np.shares_memory(t.positions(), t[0].q)
        assert not np.shares_memory(t.momenta(), t[0].p)

    def test_rejects_bad_arrays(self):
        with pytest.raises(ValueError, match="finite"):
            NodeTrajectory(q=[[0.0], [np.nan]], p=[[0.0], [0.0]])
        with pytest.raises(ValueError, match="one shape"):
            NodeTrajectory(q=[[0.0], [1.0]], p=[[0.0]])
        with pytest.raises(ValueError, match="one shape"):
            NodeTrajectory(q=[0.0, 1.0], p=[0.0, 1.0])
        with pytest.raises(ValueError, match="initial node"):
            NodeTrajectory(q=np.empty((0, 2)), p=np.empty((0, 2)))
        with pytest.raises(TypeError):
            NodeTrajectory((PhaseState(q=[0.0], p=[0.0]),), q=[[0.0]], p=[[0.0]])
        with pytest.raises(TypeError):
            NodeTrajectory(q=[[0.0]])


def _csv_writer_trajectory(trajectory, path, window_dt):
    """The trajectory writer as it was written with csv.writer (frozen reference)."""
    d = trajectory.dim
    header = ["n", "t"] + [f"q_{i}" for i in range(d)] + [f"p_{i}" for i in range(d)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for n, state in enumerate(trajectory):
            row = [str(n), format(n * window_dt, ".17g")]
            row += [format(x, ".17g") for x in state.q]
            row += [format(x, ".17g") for x in state.p]
            writer.writerow(row)


class TestTrajectoryCsv:
    @pytest.mark.parametrize("window_dt", [0.125, 0.1, 1e-3])
    def test_bytes_equal_the_csv_writer_reference(self, tmp_path, window_dt):
        rng = np.random.default_rng(3)
        q = rng.normal(size=(12, 3)) * 10.0 ** rng.integers(-300, 300, size=(12, 3))
        p = rng.normal(size=(12, 3))
        q[0] = [0.0, -0.0, 5e-324]
        p[0] = [1e308, -1e308, -5e-324]
        t = NodeTrajectory(q=q, p=p)
        write_trajectory_csv(t, tmp_path / "new.csv", window_dt)
        _csv_writer_trajectory(t, tmp_path / "ref.csv", window_dt)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert read_trajectory_csv(tmp_path / "new.csv") == t

    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(7)
        q = rng.normal(size=(7, 3)) * 10.0 ** np.arange(-3, 4)[:, None]
        t = NodeTrajectory(q=q, p=rng.normal(size=(7, 3)))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(t, path, window_dt=0.125)
        back = read_trajectory_csv(path)
        assert back == t

    def test_header_and_time_column(self, tmp_path):
        t = _traj([[0.0, 0.0], [1.0, -1.0]])
        path = tmp_path / "traj.csv"
        write_trajectory_csv(t, path, window_dt=0.5)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n,t,q_0,q_1,p_0,p_1"
        assert lines[1].startswith("0,0,")
        assert lines[2].startswith("1,0.5,")

    def test_rejects_unknown_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_trajectory_csv(path)

    def test_rejects_odd_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("n,t,q_0,q_1,p_0\r\n0,0,1,2,3\r\n")
        with pytest.raises(ValueError, match="as many p as q"):
            read_trajectory_csv(path)

    @pytest.mark.parametrize(
        "body",
        [
            "0,0,1,2,3,4\r\n1,1,5,6,7,8\r\n",  # every row twice the header's width
            "0,0,1,2\r\n1,1,3\r\n",  # one row short
            "0,0\r\n",  # no values at all
        ],
    )
    def test_rejects_rows_of_the_wrong_width(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_text("n,t,q_0,p_0\r\n" + body)
        with pytest.raises(ValueError):
            read_trajectory_csv(path)

    def test_rejects_an_empty_body(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("n,t,q_0,p_0\r\n")
        with pytest.raises(ValueError, match="initial node"):
            read_trajectory_csv(path)


class TestAtomicWrites:
    def test_failed_write_keeps_the_old_file_and_leaves_no_temporary(self, tmp_path):
        path = tmp_path / "gains.csv"
        path.write_text("old content\n")

        def rows():
            yield ("1", "2", "3", "4", "5", "6")
            raise RuntimeError("writer failed mid-way")

        with pytest.raises(RuntimeError, match="mid-way"):
            write_gain_csv(path, rows())
        assert path.read_text() == "old content\n"
        assert [f.name for f in tmp_path.iterdir()] == ["gains.csv"]

    def test_interrupted_block_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        with pytest.raises(KeyboardInterrupt):
            with atomic_open(path) as fh:
                fh.write("new")
                raise KeyboardInterrupt
        assert path.read_text() == "old"
        assert [f.name for f in tmp_path.iterdir()] == ["out.txt"]

    def test_success_replaces_the_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        with atomic_open(path) as fh:
            fh.write("new\r\n")
        assert path.read_bytes() == b"new\r\n"
        assert [f.name for f in tmp_path.iterdir()] == ["out.txt"]
