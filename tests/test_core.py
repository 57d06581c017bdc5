import warnings

import numpy as np
import pytest

from stablemotion.core import (
    GaussianComponent,
    GeometricDescriptor,
    Pose,
    Trajectory,
    compute_velocities,
    frame_from_two_points,
    frame_rotations,
)
from stablemotion.errors import (
    DegenerateFrame,
    NonMonotoneTimestamps,
    ValidationError,
)


class TestFrameFromTwoPoints:
    def test_identity_frame(self):
        pose = frame_from_two_points(np.zeros(2), np.array([1.0, 0.0]))
        assert np.allclose(pose.position, [0, 0])
        assert np.allclose(pose.rotation, np.eye(2))

    def test_ccw_completion_2d(self):
        pose = frame_from_two_points(np.zeros(2), np.array([0.0, 2.0]))
        assert np.allclose(pose.x_axis, [0, 1])
        assert np.allclose(pose.rotation[:, 1], [-1, 0])
        assert np.allclose(pose.rotation.T @ pose.rotation, np.eye(2),
                           atol=1e-12)

    def test_coincident_points_raise(self):
        with pytest.raises(DegenerateFrame):
            frame_from_two_points(np.ones(3), np.ones(3))

    @pytest.mark.parametrize("d", [2, 3])
    def test_orthonormal_random_sweep(self, d, rng):
        for _ in range(10_000 // 10):  # 1000 per dim keeps the sweep fast
            a, b = rng.normal(size=(2, d))
            if np.linalg.norm(b - a) < 1e-6:
                continue
            R = frame_from_two_points(a, b).rotation
            assert np.max(np.abs(R.T @ R - np.eye(d))) < 1e-9
            assert abs(np.linalg.det(R) - 1.0) < 1e-9

    def test_near_vertical_3d_uses_world_y(self):
        pose = frame_from_two_points(np.zeros(3), np.array([0.0, 0.0, 1.0]))
        R = pose.rotation
        assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-9
        assert abs(np.linalg.det(R) - 1.0) < 1e-9


class TestFrameRotations:
    @pytest.mark.parametrize("d", [2, 3])
    def test_stack_is_proper_and_points_along_each_link(self, d, rng):
        origins = rng.normal(size=(500, d))
        delta = rng.normal(size=(500, d))
        if d == 3:
            # both completion branches: |x_z| above and below 0.99
            delta[:200, :2] *= 1e-3
            delta[:100, 2] = np.where(delta[:100, 2] < 0, -1.0, 1.0)
            delta[200, :] = [0.0, 0.0, -2.0]
        R = frame_rotations(origins, origins + delta)
        eye = np.eye(d)
        assert np.abs(R.swapaxes(1, 2) @ R - eye).max() < 1e-12
        assert np.abs(np.linalg.det(R) - 1.0).max() < 1e-12
        x = delta / np.linalg.norm(delta, axis=1, keepdims=True)
        assert np.abs(R[:, :, 0] - x).max() < 1e-12
        if d == 3:
            vertical = np.abs(x[:, 2]) > 0.99
            assert 0 < vertical.sum() < len(x)
            # y = x cross world y (near vertical), x cross world z otherwise
            assert np.all(R[vertical, 1, 1] == 0.0)
            assert np.all(R[~vertical, 2, 1] == 0.0)

    @pytest.mark.parametrize("d", [2, 3])
    def test_single_frame_is_a_batch_of_one(self, d, rng):
        for _ in range(20):
            a, b = rng.normal(size=(2, d))
            assert np.array_equal(frame_from_two_points(a, b).rotation,
                                  frame_rotations(a[None], b[None])[0])

    def test_far_apart_ends_do_not_overflow(self):
        """Ends at -+1.7e308 are past B, and the reader names them; ends
        at -+B, the farthest apart the reader passes, give the identity."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"origins must be "
                               r"finite, every entry at most 1e\+100"):
                frame_rotations(np.array([[-1.7e308, 0.0]]),
                                np.array([[1.7e308, 0.0]]))
            R = frame_rotations(np.array([[-1e100, 0.0]]),
                                np.array([[1e100, 0.0]]))
        assert np.array_equal(R[0], np.eye(2))

    def test_one_coincident_pair_raises(self, rng):
        ends = rng.normal(size=(4, 3))
        towards = ends + 1.0
        towards[2] = ends[2]
        with pytest.raises(DegenerateFrame):
            frame_rotations(ends, towards)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_end_raises(self, bad):
        ends = np.zeros((2, 2))
        towards = np.ones((2, 2))
        towards[1, 0] = bad
        with pytest.raises(ValidationError):
            frame_rotations(ends, towards)


class TestPose:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValidationError):
            Pose(np.zeros(2), np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_huge_rotation_entries_are_rejected_without_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="orthonormal"):
                Pose(np.zeros(2), np.array([[1e300, 0.0], [0.0, 1.0]]))

    def test_rejects_reflection(self):
        with pytest.raises(ValidationError):
            Pose(np.zeros(2), np.diag([1.0, -1.0]))


class TestComputeVelocities:
    def test_uniform_line(self):
        traj = Trajectory(np.array([[0.0, 0], [1, 0], [2, 0]]),
                          np.array([0.0, 1.0, 2.0]))
        out = compute_velocities(traj)
        assert np.allclose(out.velocities, [[1, 0], [1, 0], [0, 0]])

    def test_repeated_point_pair(self):
        traj = Trajectory(np.array([[1.0, 1], [1, 1]]), np.array([0.0, 1.0]))
        out = compute_velocities(traj)
        assert np.allclose(out.velocities, 0)

    def test_non_monotone_timestamps(self):
        with pytest.raises(NonMonotoneTimestamps):
            Trajectory(np.zeros((3, 2)), np.array([0.0, 1.0, 1.0]))

    def test_euler_reintegration_roundtrip(self, rng):
        ts = np.cumsum(rng.uniform(0.05, 0.3, size=50))
        pts = rng.normal(size=(50, 3))
        out = compute_velocities(Trajectory(pts, ts))
        rebuilt = [pts[0]]
        for i in range(len(pts) - 1):
            rebuilt.append(rebuilt[-1] + (ts[i + 1] - ts[i]) * out.velocities[i])
        assert np.allclose(rebuilt, pts, atol=1e-9)


class TestDataModel:
    def test_trajectory_too_short(self):
        with pytest.raises(ValidationError):
            Trajectory(np.zeros((1, 2)), np.zeros(1))

    def test_descriptor_needs_a_pose(self):
        with pytest.raises(ValidationError):
            GeometricDescriptor()

    def test_descriptor_single_pose_ok(self):
        d = GeometricDescriptor(exit=Pose(np.zeros(2), np.eye(2)))
        assert d.dim == 2

    def test_gaussian_component_validation(self):
        with pytest.raises(ValidationError):
            GaussianComponent(0.5, np.zeros(2), -np.eye(2))
        with pytest.raises(ValidationError):
            GaussianComponent(1.5, np.zeros(2), np.eye(2))

    def test_immutability(self):
        traj = Trajectory(np.zeros((2, 2)), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            traj.points[0, 0] = 5.0
