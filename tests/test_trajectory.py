import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsemp import trajectory
from sparsemp.trajectory import (
    DemoSet,
    JointTrajectory,
    SegmentationError,
    center,
    center_stacked,
    joint_speed,
    load_trajectory_csv,
    save_trajectory_csv,
    segment_demonstrations,
    stack_demoset,
    synth_demoset,
)


def make_traj(N=10, n=2, dt=0.01, seed=0):
    rng = np.random.default_rng(seed)
    return JointTrajectory(t=np.arange(N) * dt, Q=rng.standard_normal((N, n)))


class TestJointTrajectory:
    def test_basic_properties(self):
        traj = make_traj(N=20, n=3, dt=0.002)
        assert traj.n_samples == 20
        assert traj.n_dof == 3
        assert traj.dt == pytest.approx(0.002)
        assert traj.duration == pytest.approx(19 * 0.002)

    def test_one_dof_vector_promoted(self):
        traj = JointTrajectory(t=np.array([0.0, 0.1]), Q=np.array([1.0, 2.0]))
        assert traj.Q.shape == (2, 1)

    def test_rejects_nonuniform_grid(self):
        with pytest.raises(ValueError, match="non-uniform"):
            JointTrajectory(t=np.array([0.0, 0.1, 0.3]), Q=np.zeros((3, 1)))

    def test_rejects_decreasing_time(self):
        with pytest.raises(ValueError):
            JointTrajectory(t=np.array([0.0, -0.1]), Q=np.zeros((2, 1)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            JointTrajectory(t=np.array([0.0, 0.1]), Q=np.array([[np.nan], [0.0]]))

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            JointTrajectory(t=np.array([0.0]), Q=np.zeros((1, 1)))


class TestDemoSet:
    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="incompatible"):
            DemoSet(demos=[make_traj(N=10), make_traj(N=12)])

    def test_rejects_dt_mismatch(self):
        with pytest.raises(ValueError):
            DemoSet(demos=[make_traj(dt=0.01), make_traj(dt=0.02)])

    def test_rejects_time_origin_mismatch(self):
        late = make_traj(seed=1)
        late = JointTrajectory(t=late.t + 5.0, Q=late.Q)
        with pytest.raises(ValueError, match="demo 1 starts at t=5"):
            DemoSet(demos=[make_traj(seed=0), late])

    def test_properties(self):
        ds = DemoSet(demos=[make_traj(seed=0), make_traj(seed=1)])
        assert ds.n_demos == 2
        assert ds.n_samples == 10
        assert ds.n_dof == 2


class TestCentering:
    def test_constant_column(self):
        traj = JointTrajectory(t=np.arange(4) * 0.1, Q=np.full((4, 1), 0.7))
        cd = center(traj)
        assert cd.intercepts[0] == pytest.approx(0.7)
        np.testing.assert_allclose(cd.centered, 0.0)

    def test_linear_column(self):
        traj = JointTrajectory(t=np.arange(3) * 0.1, Q=np.array([[1.0], [2.0], [3.0]]))
        cd = center(traj)
        assert cd.intercepts[0] == pytest.approx(2.0)
        np.testing.assert_allclose(cd.centered[:, 0], [-1.0, 0.0, 1.0])

    def test_random_columns_have_zero_mean(self):
        traj = make_traj(N=500, n=7, seed=5)
        cd = center(traj)
        assert np.all(np.abs(cd.centered.mean(axis=0)) <= 1e-10)

    def test_round_trip(self):
        traj = make_traj(N=50, n=3, seed=2)
        cd = center(traj)
        np.testing.assert_allclose(
            cd.centered + cd.intercepts, traj.Q, rtol=0, atol=1e-14
        )


class TestStacking:
    def test_single_demo_single_dof_identity(self):
        traj = make_traj(N=6, n=1)
        stacked = stack_demoset(DemoSet(demos=[traj]))
        np.testing.assert_array_equal(stacked.Y[:, 0], traj.Q[:, 0])

    def test_mapping_small_case(self):
        Q = np.array([[1.0, 2.0], [3.0, 4.0]])
        traj = JointTrajectory(t=np.array([0.0, 0.1]), Q=Q)
        stacked = stack_demoset(DemoSet(demos=[traj]))
        np.testing.assert_array_equal(stacked.Y[:, 0], [1.0, 3.0, 2.0, 4.0])

    def test_row_index_map(self):
        demos = DemoSet(demos=[make_traj(N=5, n=3, seed=j) for j in range(2)])
        stacked = stack_demoset(demos)
        for i in range(3):
            for k in range(5):
                for j in range(2):
                    assert stacked.Y[5 * i + k, j] == (
                        demos.demos[j].Q[k, i]
                    )

    def test_paper_scale_shape(self):
        demos = DemoSet(demos=[make_traj(N=500, n=7, seed=j) for j in range(5)])
        assert stack_demoset(demos).Y.shape == (3500, 5)

    def test_center_stacked_per_demo_blocks(self):
        demos = DemoSet(demos=[make_traj(N=8, n=4, seed=j) for j in range(3)])
        stacked = stack_demoset(demos)
        intercepts, centered = center_stacked(stacked)
        assert intercepts.shape == (4, 3)
        for i in range(4):
            block = centered.Y[8 * i: 8 * (i + 1)]
            assert np.all(np.abs(block.mean(axis=0)) <= 1e-10)
        # reconstruction is exact per demo
        for i in range(4):
            block = slice(8 * i, 8 * (i + 1))
            rec = centered.Y[block] + intercepts[i]
            np.testing.assert_allclose(rec, stacked.Y[block], atol=1e-12)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(1, 5), st.integers(1, 7), st.integers(2, 299), st.integers(0, 2**32 - 1))
    def test_array_forms_equal_the_per_column_and_per_block_loops(self, d, n, N, seed):
        demos = DemoSet(demos=[make_traj(N=N, n=n, seed=seed + j) for j in range(d)])
        Y = np.empty((N * n, d))
        for j, demo in enumerate(demos.demos):
            Y[:, j] = demo.Q.T.reshape(-1)
        intercepts, centered = np.empty((n, d)), Y.copy()
        for i in range(n):
            block = slice(N * i, N * (i + 1))
            intercepts[i] = centered[block].mean(axis=0)
            centered[block] -= intercepts[i]
        stacked = stack_demoset(demos)
        np.testing.assert_array_equal(stacked.Y, Y)
        got_intercepts, got = center_stacked(stacked)
        np.testing.assert_array_equal(got_intercepts, intercepts)
        np.testing.assert_array_equal(got.Y, centered)


class TestSegmentation:
    @staticmethod
    def spike_stream(spike_times, N=2500, dt=0.002, n=2):
        t = np.arange(N) * dt
        Q = np.zeros((N, n))
        for ts in spike_times:
            Q[:, 0] += 1.0 * np.exp(-((t - ts) ** 2) / (2 * 0.005 ** 2))
        return JointTrajectory(t=t, Q=Q)

    def test_two_spikes_found(self):
        stream = self.spike_stream([1.0, 3.0], N=2500)
        demos, peaks = segment_demonstrations(stream, 2, 1.0)
        assert demos.n_demos == 2
        assert demos.n_samples == 500
        peak_times = sorted(stream.t[i] for i in peaks)
        assert abs(peak_times[0] - 1.0) < 0.05
        assert abs(peak_times[1] - 3.0) < 0.05

    def test_peak_matches_exhaustive_scan(self):
        stream = self.spike_stream([1.0, 3.0], N=2500)
        speed = joint_speed(stream.Q, stream.dt)
        _, peaks = segment_demonstrations(stream, 1, 1.0)
        length = 500
        half = length // 2
        lo, hi = half, stream.n_samples - (length - half)
        best = lo + int(np.argmax(speed[lo:hi + 1]))
        assert peaks[0] == best

    def test_windows_never_clipped(self):
        # Spike too close to the start: its window cannot fit.
        stream = self.spike_stream([0.2, 3.0], N=2500)
        demos, peaks = segment_demonstrations(stream, 1, 1.0)
        assert abs(stream.t[peaks[0]] - 3.0) < 0.05

    def test_separation_at_least_one_window(self):
        stream = self.spike_stream([2.0, 2.2, 4.0], N=3000)
        _, peaks = segment_demonstrations(stream, 2, 1.0)
        assert abs(peaks[0] - peaks[1]) >= 500

    def test_too_few_peaks_errors(self):
        stream = self.spike_stream([2.0], N=2000)
        with pytest.raises(SegmentationError, match="fewer than 5"):
            segment_demonstrations(stream, 5, 1.0)

    def test_constant_stream_tie_break(self):
        # Zero velocity everywhere: the documented tie-break picks the
        # earliest admissible window.
        stream = JointTrajectory(t=np.arange(1000) * 0.002, Q=np.ones((1000, 2)))
        _, peaks = segment_demonstrations(stream, 1, 1.0)
        assert peaks[0] == 250

    def test_translation_equivariance(self):
        stream = self.spike_stream([1.0, 3.0], N=2500)
        m = 40
        shifted = JointTrajectory(
            t=stream.t[: stream.n_samples - m],
            Q=stream.Q[m:],
        )
        _, peaks = segment_demonstrations(stream, 2, 1.0)
        _, peaks_shifted = segment_demonstrations(shifted, 2, 1.0)
        assert sorted(p + m for p in peaks_shifted) == sorted(peaks)


@st.composite
def streams(draw):
    """A stream of 20-200 samples and a window of 2 samples up to the whole
    stream. Integer-step streams make speed ties common."""
    n_samples = draw(st.integers(20, 200))
    n_dof = draw(st.integers(1, 3))
    dt = draw(st.sampled_from([0.002, 0.01, 0.05]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        steps = rng.standard_normal((n_samples, n_dof))
    else:
        steps = rng.integers(-1, 2, (n_samples, n_dof)).astype(float)
    stream = JointTrajectory(t=np.arange(n_samples) * dt, Q=np.cumsum(steps, axis=0))
    return stream, draw(st.integers(2, n_samples))


class TestSegmentationProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(streams(), st.integers(1, 6))
    def test_selected_windows(self, data, count):
        stream, length = data
        try:
            demos, peaks = segment_demonstrations(stream, count, length * stream.dt)
        except SegmentationError:
            return
        half = length // 2
        assert len(peaks) == count == demos.n_demos
        # Pairwise at least one window apart.
        assert all(abs(a - b) >= length for i, a in enumerate(peaks) for b in peaks[:i])
        for peak, demo in zip(peaks, demos.demos):
            start = peak - half
            # The whole window lies inside the stream ...
            assert 0 <= start and start + length <= stream.n_samples
            # ... and the demo is that slice of it, on a clock starting at 0.
            np.testing.assert_array_equal(demo.Q, stream.Q[start:start + length])
            assert demo.t[0] == 0.0 and demo.n_samples == length
            assert demo.dt == pytest.approx(stream.dt)
        # Peaks are taken in order of non-increasing speed.
        speed = joint_speed(stream.Q, stream.dt)[peaks]
        assert np.all(np.diff(speed) <= 0)

    @settings(max_examples=40, deadline=None)
    @given(streams(), st.integers(1, 3))
    def test_more_windows_than_fit(self, data, extra):
        # At most N // length disjoint windows fit in a stream of N samples.
        stream, length = data
        count = stream.n_samples // length + extra
        with pytest.raises(SegmentationError):
            segment_demonstrations(stream, count, length * stream.dt)


class TestSynthDemoset:
    def test_deterministic(self):
        a, _ = synth_demoset(n_demos=2, n_dof=2, n_samples=50, k_features=3, seed=9)
        b, _ = synth_demoset(n_demos=2, n_dof=2, n_samples=50, k_features=3, seed=9)
        for da, db in zip(a.demos, b.demos):
            np.testing.assert_array_equal(da.Q, db.Q)

    def test_noise_free_single_bump(self):
        demos, truth = synth_demoset(
            n_demos=1, n_dof=1, n_samples=100, dt=0.01, k_features=1,
            noise=0.0, seed=1,
        )
        t = demos.demos[0].t
        bump = truth.W[0, 0, 0] * np.exp(
            -((t - truth.centers[0]) ** 2) / (2 * truth.widths[0])
        )
        np.testing.assert_allclose(
            demos.demos[0].Q[:, 0], bump + truth.intercepts[0, 0], atol=1e-12
        )

    def test_oracle_residual_matches_noise_level(self):
        demos, truth = synth_demoset(
            n_demos=5, n_dof=7, n_samples=500, dt=0.002, k_features=12,
            noise=0.01, seed=42,
        )
        t = demos.demos[0].t
        Phi = np.exp(
            -((t[:, None] - truth.centers[None, :]) ** 2)
            / (2.0 * truth.widths[None, :])
        )
        rms = []
        for j, demo in enumerate(demos.demos):
            resid = demo.Q - (Phi @ truth.W[:, :, j] + truth.intercepts[:, j])
            rms.append(np.sqrt(np.mean(resid ** 2)))
        assert abs(np.mean(rms) - 0.01) <= 0.002


class TestCsvRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        traj = make_traj(N=30, n=4, seed=7)
        path = tmp_path / "demo.csv"
        save_trajectory_csv(path, traj)
        back = load_trajectory_csv(path)
        np.testing.assert_array_equal(back.t, traj.t)
        np.testing.assert_array_equal(back.Q, traj.Q)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        with pytest.raises(ValueError, match="header"):
            load_trajectory_csv(path)

    def test_missing_samples_rejected(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("time,q1\n0.0,1.0\n0.01,\n0.02,3.0\n")
        with pytest.raises(ValueError, match="rejected"):
            load_trajectory_csv(path)
