"""Malformed arrays handed to the library's entries: each call ends in a
StableMotionError or succeeds, never in another exception or a
RuntimeWarning (the suite makes one an error)."""

import functools

import numpy as np
from hypothesis import given, settings, strategies as st

from stablemotion.core import (GeometricDescriptor, Pose, Trajectory,
                               frame_rotations)
from stablemotion.errors import StableMotionError
from stablemotion.evaluation import rollout, rollout_batch
from stablemotion.fileio import field_csv, field_svg, rollout_csv
from stablemotion.gmm import GmmFitConfig, fit_gmm, responsibilities_batch
from stablemotion.pipeline import adapt, learn
from stablemotion.policy import estimate, evaluate, evaluate_batch
from stablemotion.profile import regenerate_profile
from stablemotion.sequence import split_demo
from conftest import s_curve_demo

_CFG = GmmFitConfig(k_max=3, restarts=1)


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


def _malformed(data, a: np.ndarray):
    """a made malformed in one drawn way: another rank or last dimension,
    a NaN or an inf, empty, ragged rows, strings, numeral strings or a
    bool among its numbers."""
    kind = data.draw(st.sampled_from(
        ["rank", "dimension", "nan", "inf", "empty", "ragged", "strings",
         "numerals", "bool"]))
    i = data.draw(st.integers(0, a.size - 1))
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
    StableMotionError or succeeds."""
    name = data.draw(st.sampled_from(sorted(_entries())))
    valid, call = _entries()[name]
    try:
        call(_malformed(data, valid))
    except StableMotionError:
        pass
