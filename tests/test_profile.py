import warnings

import numpy as np
import pytest

from stablemotion.chain import build_chain
from stablemotion.errors import (DegenerateFrame, IndexCollision,
                                 ValidationError)
from stablemotion.gmm import GmmFitConfig, fit_gmm, order_components
from stablemotion.profile import ProfileConfig, regenerate_profile
from conftest import s_curve_demo


def joint_indices(joints, p):
    """Each joint's index on a p-point profile: floor(lambda (p - 1)),
    lambda the joint's share of the polyline's length."""
    cum = np.concatenate([[0.0], np.cumsum(
        np.linalg.norm(np.diff(joints, axis=0), axis=1))])
    return np.floor(cum / cum[-1] * (p - 1)).astype(int)


def points_at(joints, p, indices):
    """The profile's points at the given indices."""
    return regenerate_profile(np.array(joints, float),
                              ProfileConfig(p=p, dt=0.1)).points[indices]


class TestJointProgress:
    """Each joint sits on the profile by its share of the polyline's
    length."""

    def test_equally_spaced(self):
        joints = [[0.0, 0], [1, 0], [2, 0]]
        assert np.array_equal(points_at(joints, 11, [0, 5, 10]), joints)

    def test_unequal_spacing(self):
        joints = [[0.0, 0], [1, 0], [4, 0]]
        assert np.array_equal(points_at(joints, 5, [0, 1, 4]), joints)

    def test_coincident_joints_raise(self):
        with pytest.raises(DegenerateFrame):
            regenerate_profile(np.array([[0.0, 0], [0, 0], [1, 0]]),
                               ProfileConfig(p=11, dt=0.1))


class TestMapJointIndices:
    """Joint q sits at index floor(lambda_q (p - 1)), and two joints on
    one index are an IndexCollision."""

    def test_midpoint(self):
        joints = [[0.0, 0], [1, 1], [2, 0]]
        assert np.array_equal(points_at(joints, 11, [0, 5, 10]), joints)

    def test_quarter(self):
        # lambda = 0.25 on 6 points is 1.25, which floors to 1
        joints = [[0.0, 0], [1, 0], [4, 0]]
        assert np.array_equal(points_at(joints, 6, [0, 1, 5]), joints)

    def test_collision(self):
        with pytest.raises(IndexCollision):
            regenerate_profile(np.array([[0.0, 0], [0.01, 0], [1, 0]]),
                               ProfileConfig(p=5, dt=0.1))


class TestRegenerateProfile:
    def test_collinear_uniform_speed(self):
        joints = np.array([[0.0, 0], [1, 0], [2, 0]])
        traj = regenerate_profile(joints, ProfileConfig(p=21, dt=0.1))
        gaps = np.linalg.norm(np.diff(traj.points, axis=0), axis=1)
        assert np.allclose(gaps, gaps[0], atol=1e-9)
        speeds = np.linalg.norm(traj.velocities[:-1], axis=1)
        assert np.allclose(speeds, speeds[0], atol=1e-8)
        assert np.allclose(traj.velocities[-1], 0)

    def test_right_angle_passes_through_corner(self):
        joints = np.array([[0.0, 0], [1, 0], [1, 1]])
        cfg = ProfileConfig(p=21, dt=0.05)
        traj = regenerate_profile(joints, cfg)
        idx = joint_indices(joints, 21)
        for q, j in enumerate(idx):
            assert np.linalg.norm(traj.points[j] - joints[q]) < 1e-9

    def test_interpolation_follows_the_joint_polyline(self):
        joints = np.array([[0.0, 0], [1, 0.5], [2.5, -0.5], [3, 1]])
        cfg = ProfileConfig(p=57, dt=0.05)
        traj = regenerate_profile(joints, cfg)
        idx = joint_indices(joints, cfg.p)
        assert idx[0] == 0 and idx[-1] == cfg.p - 1
        for q in range(len(idx) - 1):
            j0, j1 = idx[q], idx[q + 1]
            for j in range(j0, j1 + 1):
                frac = (j - j0) / (j1 - j0)
                want = joints[q] * (1.0 - frac) + joints[q + 1] * frac
                assert np.max(np.abs(traj.points[j] - want)) < 1e-12

    def test_identity_chain_arc_length_close_to_demo(self):
        demo = s_curve_demo()
        comps = fit_gmm(demo.points, GmmFitConfig(k_max=6, restarts=3))
        chain = build_chain(order_components(comps, demo), demo)
        traj = regenerate_profile(chain.joints, ProfileConfig.for_demo(demo))
        assert len(traj) == len(demo)
        arc = lambda pts: np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1))
        assert abs(arc(traj.points) - arc(demo.points)) < \
            0.05 * arc(demo.points)

    def test_translation_equivariance(self):
        joints = np.array([[0.0, 0], [1, 0.5], [2, -0.5], [3, 0.2]])
        t = np.array([4.0, -2.0])
        cfg = ProfileConfig(p=30, dt=0.1)
        a = regenerate_profile(joints, cfg)
        b = regenerate_profile(joints + t, cfg)
        assert np.max(np.abs(b.points - (a.points + t))) < 1e-9

    def test_speed_bounded_by_max_gap_over_dt(self):
        joints = np.array([[0.0, 0], [0.5, 1.5], [3, 0]])
        cfg = ProfileConfig(p=25, dt=0.2)
        traj = regenerate_profile(joints, cfg)
        max_gap = np.max(np.linalg.norm(np.diff(traj.points, axis=0), axis=1))
        speeds = np.linalg.norm(traj.velocities, axis=1)
        assert np.all(speeds <= max_gap / cfg.dt + 1e-12)
        assert np.allclose(traj.velocities[-1], 0)


class TestProfileRules:
    def test_more_points_than_a_profile_may_hold_are_refused(self):
        """One row per point: 10^6 points are the most (the config is
        checked, no profile allocated)."""
        assert ProfileConfig(10 ** 6, 0.1).p == 10 ** 6
        for p in (10 ** 6 + 1, 10 ** 400):
            with pytest.raises(ValidationError, match="profile points"):
                ProfileConfig(p, 0.1)

    def test_a_link_whose_length_overflows_is_named(self):
        """Joints 1e200 apart have finite coordinates past B, so no link
        length is taken: the reader names the joints, with no
        RuntimeWarning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValidationError, match=r"joints must be "
                               r"finite, every entry at most 1e\+100"):
                regenerate_profile([[0, 0], [1e200, 0], [1.1e200, 0]],
                                   ProfileConfig(11, 0.1))
