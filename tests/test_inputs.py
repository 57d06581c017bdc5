"""Malformed and far arrays handed to the library's entries: each call
ends in a StableMotionError or succeeds, never in another exception or a
RuntimeWarning (the suite makes one an error), and a position past B, the
library's bound on a coordinate, is the reader's ValidationError."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stablemotion.core import (_POSITION_BOUND, GeometricDescriptor, Pose,
                               Trajectory, frame_rotations)
from stablemotion.errors import StableMotionError, ValidationError
from stablemotion.evaluation import (RolloutConfig, rollout, rollout_batch,
                                     sample_field)
from stablemotion.fileio import field_csv, field_svg, rollout_csv
from stablemotion.gmm import GmmFitConfig, fit_gmm, responsibilities_batch
from stablemotion.pipeline import adapt, learn
from stablemotion.policy import (estimate, evaluate, evaluate_batch,
                                 lyapunov_value)
from stablemotion.profile import regenerate_profile
from stablemotion.sequence import split_demo
from conftest import (FAR_MAGNITUDES, NEAR_BOUND_MAGNITUDES,
                      far_sample_points, s_curve_demo)

_CFG = GmmFitConfig(k_max=3, restarts=1)
# the entries' slots that are not positions, and so do not draw an entry
# past B
_NOT_POSITIONS = {"estimate_velocities", "rollout_csv",
                  "field_csv_velocities", "field_svg_velocities"}


@functools.lru_cache(maxsize=None)
def _entries() -> dict:
    """Each entry, by name, as (a valid array it reads, the call with one
    array in its place); the other arguments are valid."""
    demo = s_curve_demo(80)
    chain, policy = learn(demo, _CFG)
    comps, pts, vel, ts = (policy.components, demo.points, demo.velocities,
                           demo.timestamps)
    ends = chain.endpoint_descriptor()
    return {
        "learn": (pts, lambda x: learn(Trajectory(x, ts), _CFG)),
        "adapt": (ends.enter.position + 0.05, lambda x: adapt(
            chain, GeometricDescriptor(Pose(x, ends.enter.rotation),
                                       ends.exit), chain.timing)),
        "estimate_data": (pts, lambda x: estimate(comps, x, vel, demo.end)),
        "estimate_velocities": (
            vel, lambda x: estimate(comps, pts, x, demo.end)),
        "estimate_attractor": (
            demo.end, lambda x: estimate(comps, pts, vel, x)),
        "fit_gmm": (pts, lambda x: fit_gmm(x, _CFG)),
        "rollout": (pts[10], lambda x: rollout(policy, x)),
        "rollout_batch": (pts[::20], lambda x: rollout_batch(policy, x)),
        "evaluate": (pts[10], lambda x: evaluate(policy, x)),
        "evaluate_batch": (pts, lambda x: evaluate_batch(policy, x)),
        "lyapunov_value": (pts, lambda x: lyapunov_value(policy, x)),
        "sample_field": (np.array([[0.0, 2.0], [-0.5, 0.5]]),
                         lambda x: sample_field(policy, x, 3)),
        "split_demo": (pts[40:41], lambda x: split_demo(demo, x, 1e-9)),
        "regenerate_profile": (
            chain.joints, lambda x: regenerate_profile(x, chain.timing)),
        "responsibilities_batch": (
            pts, lambda x: responsibilities_batch(comps, x)),
        "frame_rotations_origins": (
            pts[:-1], lambda x: frame_rotations(x, pts[1:])),
        "frame_rotations_towards": (
            pts[1:], lambda x: frame_rotations(pts[:-1], x)),
        "rollout_csv": (ts, lambda x: rollout_csv(demo, x)),
        "field_csv_points": (pts, lambda x: field_csv(x, vel)),
        "field_csv_velocities": (vel, lambda x: field_csv(pts, x)),
        "field_svg_points": (pts, lambda x: field_svg(x, vel)),
        "field_svg_velocities": (vel, lambda x: field_svg(pts, x)),
        "field_svg_rollout": (pts, lambda x: field_svg(pts, vel, x)),
    }


def _with_entry(a: np.ndarray, i: int, value) -> list:
    """a as nested lists, its i-th entry (row-major) replaced by value."""
    out = a.astype(object)
    out.flat[i] = value
    return out.tolist()


# the ways `_malformed` makes an array malformed; a position also draws
# "beyond", an entry past B
_KINDS = ["rank", "dimension", "nan", "inf", "empty", "ragged", "strings",
          "numerals", "bool"]


def _malformed(data, a: np.ndarray, kind: str):
    """a made malformed in the way `kind` names: another rank or last
    dimension, a NaN or an inf, empty, ragged rows, strings, numeral
    strings, a bool among its numbers, or an entry beyond B."""
    i = data.draw(st.integers(0, a.size - 1))
    if kind == "beyond":
        out = a.copy()
        out.flat[i] = data.draw(st.sampled_from([1.0, -1.0])) * data.draw(
            st.floats(_POSITION_BOUND, 1.7e308, exclude_min=True))
        return out
    if kind == "rank":
        return data.draw(st.sampled_from([a[None], a[..., None], a.flat[i]]))
    if kind == "dimension":
        return data.draw(st.sampled_from(
            [a[..., :1], a[..., :0], np.concatenate([a, a[..., :1]], -1)]))
    if kind in ("nan", "inf"):
        out = a.copy()
        out.flat[i] = np.nan if kind == "nan" else data.draw(
            st.sampled_from([np.inf, -np.inf]))
        return out
    if kind == "empty":
        return a[:0]
    if kind == "ragged":
        rows = np.atleast_2d(a).tolist()
        return rows + [rows[0][:-1]]
    if kind == "strings":
        return np.full(a.shape, "a").tolist()
    if kind == "numerals":
        return a.astype(str).tolist()
    return _with_entry(a, i, data.draw(st.sampled_from([True, np.True_])))


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(data=st.data())
def test_malformed_array_ends_in_a_library_error(data):
    """Each library entry, handed one malformed array, raises a
    StableMotionError or succeeds; a position with an entry beyond B
    raises the reader's ValidationError."""
    name = data.draw(st.sampled_from(sorted(_entries())))
    valid, call = _entries()[name]
    kind = data.draw(st.sampled_from(
        _KINDS + ["beyond"] * (name not in _NOT_POSITIONS)))
    bad = _malformed(data, valid, kind)
    if kind == "beyond":
        with pytest.raises(ValidationError, match="must be finite, every "
                           r"entry at most 1e\+100"):
            call(bad)
        return
    try:
        call(bad)
    except StableMotionError:
        pass


@functools.lru_cache(maxsize=None)
def _far_entries() -> dict:
    """Each entry that reads a position, by name, as the call with one
    coordinate at a magnitude m: a far sample of the data, a far state,
    start, via-point, joint or exit, or far field bounds or frame ends.
    The rollouts stop after 5 steps: from 1e100 one takes seconds to
    converge."""
    demo = s_curve_demo()
    chain, policy = learn(demo, GmmFitConfig(k_min=3, k_max=3, restarts=1))
    comps, ends = policy.components, chain.endpoint_descriptor()
    short = RolloutConfig(max_steps=5)
    return {
        "learn": lambda m: learn(Trajectory(far_sample_points(m),
                                            demo.timestamps), _CFG),
        "estimate": lambda m: estimate(comps, far_sample_points(m),
                                       demo.velocities, demo.end),
        "fit_gmm": lambda m: fit_gmm(far_sample_points(m), _CFG),
        "responsibilities_batch": lambda m: responsibilities_batch(
            comps, [[m, 0.0]]),
        "evaluate": lambda m: evaluate(policy, [m, 0.0]),
        "evaluate_batch": lambda m: evaluate_batch(policy, [[m, 0.0]]),
        "lyapunov_value": lambda m: lyapunov_value(policy, [m, 0.0]),
        "sample_field": lambda m: sample_field(policy, [[-m, m], [-m, m]],
                                               3),
        "rollout": lambda m: rollout(policy, [m, 0.0], short),
        "rollout_batch": lambda m: rollout_batch(policy, [[m, 0.0]], short),
        "split_demo": lambda m: split_demo(demo, [[m, 0.0]], 1.0),
        "frame_rotations": lambda m: frame_rotations([[-m, 0.0]],
                                                     [[m, 0.0]]),
        "regenerate_profile": lambda m: regenerate_profile(
            [[0.0, 0.0], [0.5 * m, 0.0], [m, 0.0]], chain.timing),
        "adapt_far_exit": lambda m: adapt(chain, GeometricDescriptor(
            exit=Pose([m, 0.0], ends.exit.rotation)), chain.timing),
    }


@pytest.mark.parametrize("name", [
    "learn", "estimate", "fit_gmm", "responsibilities_batch", "evaluate",
    "evaluate_batch", "lyapunov_value", "sample_field", "rollout",
    "rollout_batch", "split_demo", "frame_rotations", "regenerate_profile",
    "adapt_far_exit"])
def test_a_position_entry_fits_or_refuses_up_to_the_bound(name):
    """At every decade from 1e10 to B each entry fits or raises a typed
    error, with no RuntimeWarning; past B the reader refuses the value."""
    call = _far_entries()[name]
    for m in NEAR_BOUND_MAGNITUDES:
        try:
            call(m)
        except StableMotionError:
            pass
    for m in FAR_MAGNITUDES[1:]:
        with pytest.raises(ValidationError, match="must be finite, every "
                           r"entry at most 1e\+100"):
            call(m)


@pytest.mark.parametrize("name, m", [
    ("evaluate", 1e153), ("evaluate_batch", 1e153), ("sample_field", 1e153),
    ("rollout", 1e153), ("rollout_batch", 1e153),
    ("lyapunov_value", 1e155), ("split_demo", 1e155),
])
def test_a_value_that_overflowed_a_stage_is_refused_by_the_reader(name, m):
    """Each of these warned of an overflow in the kernel, V or the split
    distance before the bound; the reader now refuses the value first."""
    with pytest.raises(ValidationError, match="must be finite, every "
                       r"entry at most 1e\+100"):
        _far_entries()[name](m)
