import json

import numpy as np
import pytest

from stablemotion.core import (GeometricDescriptor, Pose, Trajectory,
                               frame_from_two_points)
from stablemotion.errors import ValidationError
from stablemotion.fileio import (
    FORMAT_VERSION,
    demo_from_dict,
    demo_to_dict,
    descriptor_from_dict,
    descriptor_to_dict,
    field_csv,
    field_svg,
    load_demo,
    load_policy,
    make_provenance,
    policy_from_dict,
    policy_to_dict,
    rollout_csv,
    save_demo,
    save_policy,
)
from stablemotion.gmm import GmmFitConfig
from stablemotion.pipeline import learn
from stablemotion.policy import evaluate, evaluate_batch
from stablemotion.profile import ProfileConfig
from conftest import s_curve_demo


def rot2(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def awkward_traj():
    """Values with no short decimal representation."""
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(5, 2)) * np.pi
    return Trajectory(pts, np.cumsum(rng.uniform(0.01, 0.3, size=5)))


class TestDemoRoundTrip:
    def test_lossless_float_round_trip(self):
        t = awkward_traj()
        blob = json.dumps(demo_to_dict([t]))
        back, via = demo_from_dict(json.loads(blob))
        assert np.array_equal(back[0].points, t.points)
        assert np.array_equal(back[0].timestamps, t.timestamps)
        assert via is None

    def test_via_points_round_trip_descriptor_ignored(self, tmp_path):
        t = awkward_traj()
        via = np.array([[0.1, 0.2]])
        p = tmp_path / "demo.json"
        save_demo(p, [t], via)
        back, via2 = load_demo(p)
        assert np.array_equal(back[0].points, t.points)
        assert np.array_equal(via2, via)
        # files written before could hold a descriptor, which is not read
        obj = json.loads(p.read_text())
        obj["descriptor"] = descriptor_to_dict(GeometricDescriptor(
            Pose(np.array([0.0, 0.0]), rot2(0.3)),
            Pose(np.array([1.0, 1.0]), rot2(-0.7))), header=False)
        back, via2 = demo_from_dict(obj)
        assert np.array_equal(back[0].points, t.points)
        assert np.array_equal(via2, via)

    def test_mixed_dimensions_rejected(self):
        t2 = awkward_traj()
        t3 = Trajectory(np.zeros((3, 3)) + np.arange(3)[:, None],
                        np.arange(3.0))
        with pytest.raises(ValidationError):
            demo_to_dict([t2, t3])

    def test_bad_header_rejected(self):
        obj = demo_to_dict([awkward_traj()])
        obj["format"] = "something-else"
        with pytest.raises(ValidationError):
            demo_from_dict(obj)
        obj = demo_to_dict([awkward_traj()])
        obj["version"] = FORMAT_VERSION + 1
        with pytest.raises(ValidationError):
            demo_from_dict(obj)

    def test_dimension_mismatch_rejected(self):
        obj = demo_to_dict([awkward_traj()])
        obj["dimension"] = 3
        with pytest.raises(ValidationError):
            demo_from_dict(obj)


class TestDescriptor:
    def test_round_trip(self):
        desc = GeometricDescriptor(Pose(np.array([0.5, -0.5]), rot2(1.1)),
                                   None)
        back = descriptor_from_dict(
            json.loads(json.dumps(descriptor_to_dict(desc))))
        assert back.exit is None
        assert np.allclose(back.enter.rotation, rot2(1.1), atol=1e-9)

    def test_non_orthonormal_rotation_rejected(self):
        obj = descriptor_to_dict(
            GeometricDescriptor(Pose(np.zeros(2), rot2(0.2)), None))
        obj["enter"]["rotation"] = [[1.0, 0.1], [0.0, 1.0]]
        with pytest.raises(ValidationError):
            descriptor_from_dict(obj)

    def test_reflection_rejected(self):
        obj = descriptor_to_dict(
            GeometricDescriptor(Pose(np.zeros(2), rot2(0.0)), None))
        obj["enter"]["rotation"] = [[1.0, 0.0], [0.0, -1.0]]
        with pytest.raises(ValidationError):
            descriptor_from_dict(obj)

    def test_slightly_off_rotation_reorthonormalized(self):
        noisy = rot2(0.4) + 1e-8
        obj = {"format": "stablemotion-descriptor",
               "version": FORMAT_VERSION, "dimension": 2,
               "enter": {"position": [0.0, 0.0],
                         "rotation": noisy.tolist()}, "exit": None}
        back = descriptor_from_dict(obj)
        R = back.enter.rotation
        assert np.max(np.abs(R.T @ R - np.eye(2))) < 1e-12


def old_link_frames(policy, chain):
    """The `link_frames` entries of files written before: each
    component's mean and covariance eigenbasis in its link's frame, and
    the index of the eigenvector most aligned with the link."""
    out = []
    for k, comp in enumerate(policy.components):
        R = frame_from_two_points(chain.joints[k],
                                  chain.joints[k + 1]).rotation
        vals, vecs = np.linalg.eigh(comp.covariance)
        local = R.T @ vecs
        out.append({"local_mean": (R.T @ (comp.mean - chain.joints[k]))
                    .tolist(), "local_eigvecs": local.tolist(),
                    "eigvals": vals.tolist(),
                    "along_index": int(np.argmax(np.abs(local[0])))})
    return out


def _set(*path, value):
    """An edit that sets the entry at `path` of a JSON object to `value`."""
    def edit(obj):
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
    return edit


class TestPolicyRoundTrip:
    @pytest.fixture(scope="class")
    @staticmethod
    def learned():
        demo = s_curve_demo()
        return learn(demo, GmmFitConfig(k_max=3, restarts=2))

    def test_bit_exact_numbers(self, learned, tmp_path):
        chain, policy = learned
        p = tmp_path / "policy.json"
        save_policy(p, policy, chain, make_provenance())
        policy2, chain2 = load_policy(p)
        assert np.array_equal(policy2.A, policy.A)
        assert np.array_equal(policy2.P, policy.P)
        assert np.array_equal(policy2.attractor, policy.attractor)
        assert np.array_equal(chain2.joints, chain.joints)
        assert np.array_equal(chain2.link_lengths, chain.link_lengths)
        for c1, c2, c3 in zip(policy.components, policy2.components,
                              chain2.components.components):
            assert c1.prior == c2.prior == c3.prior
            assert np.array_equal(c1.mean, c2.mean)
            assert np.array_equal(c1.covariance, c2.covariance)
            assert np.array_equal(c2.mean, c3.mean)
            assert np.array_equal(c2.covariance, c3.covariance)

    def test_reloaded_policy_evaluates_identically(self, learned, tmp_path):
        chain, policy = learned
        p = tmp_path / "policy.json"
        save_policy(p, policy, chain, make_provenance())
        policy2, _ = load_policy(p)
        rng = np.random.default_rng(4)
        X = rng.uniform(-1.0, 3.0, size=(200, 2))
        assert np.array_equal(evaluate_batch(policy2, X),
                              evaluate_batch(policy, X))
        for x in X[:20]:
            assert np.array_equal(evaluate(policy2, x), evaluate(policy, x))

    def test_double_round_trip_identical_text(self, learned):
        chain, policy = learned
        blob1 = json.dumps(policy_to_dict(policy, chain))
        policy2, chain2 = policy_from_dict(json.loads(blob1))
        blob2 = json.dumps(policy_to_dict(policy2, chain2))
        assert blob1 == blob2

    @pytest.mark.parametrize("edit", [
        lambda o: None,
        _set("components", 0, "b", 0, value=1e300),
        _set("chain", "link_lengths", 0, value=-1.0),
        _set("chain", "link_lengths", 0, value=1e300),
        _set("chain", "link_frames", value={}),
        _set("chain", "link_frames", 0, "eigvals", value=[1.0]),
        _set("chain", "link_frames", 0, "eigvals", 1, value=1e300),
        _set("chain", "link_frames", 1, "local_mean", 0, value=1e300),
        _set("chain", "link_frames", 2, "local_eigvecs", 0, 1, value=1e300),
        _set("chain", "link_frames", 0, "along_index", value=7),
        _set("chain", "link_frames", 0, "along_index", value=0.5),
        lambda o: o["chain"].update(order_scores=o["chain"]["order_scores"]
                                    [::-1] + [0.0]),
        lambda o: o["chain"].update(order_scores=["a"] * len(
            o["chain"]["order_scores"])),
        _set("chain", "order_scores", -1, value=1e300),
    ], ids=["as_written", "far_b", "negative_link_lengths", "far_link_length",
            "link_frames_not_a_list", "link_frame_eigvals_shape",
            "far_link_frame_eigval", "far_link_frame_local_mean",
            "far_link_frame_eigvec", "along_index_out_of_range",
            "along_index_not_an_integer", "order_scores_count",
            "order_scores_not_numbers", "far_order_score"])
    def test_old_files_still_load(self, learned, edit):
        """A file that still carries each component's `b` and the chain's
        link lengths (derived values that files no longer store), link
        frames (which chains no longer hold) and order scores (which
        nothing reads) loads to the same policy and chain, whatever those
        keys hold."""
        chain, policy = learned
        obj = policy_to_dict(policy, chain)
        for comp, b in zip(obj["components"], -policy.A @ policy.attractor):
            comp["b"] = b.tolist()
        K = len(policy.components)
        obj["chain"]["order_scores"] = [(k + 0.5) / K for k in range(K)]
        obj["chain"]["link_lengths"] = np.linalg.norm(
            np.diff(chain.joints, axis=0), axis=1).tolist()
        obj["chain"]["link_frames"] = old_link_frames(policy, chain)
        edit(obj)
        policy2, chain2 = policy_from_dict(json.loads(json.dumps(obj)))
        assert policy_to_dict(policy2, chain2) == policy_to_dict(policy,
                                                                 chain)

    def test_saved_file_holds_no_order_scores(self, learned, tmp_path):
        chain, policy = learned
        p = tmp_path / "policy.json"
        save_policy(p, policy, chain)
        assert set(json.loads(p.read_text())["chain"]) == {"joints", "timing"}

    def test_timing_round_trips_exactly(self, learned, tmp_path):
        """The chain's timing is the demo's, and a saved file keeps it."""
        chain, policy = learned
        assert chain.timing == ProfileConfig.for_demo(s_curve_demo())
        p = tmp_path / "policy.json"
        save_policy(p, policy, chain)
        assert load_policy(p)[1].timing == chain.timing

    def test_provenance(self, learned, tmp_path):
        chain, policy = learned
        src = tmp_path / "src.json"
        src.write_bytes(b"{}")
        prov = make_provenance(source_path=src,
                               descriptor=chain.endpoint_descriptor())
        assert len(prov["source_sha256"]) == 64
        assert "created" in prov and "descriptor" in prov


class TestDenseFormats:
    def test_rollout_csv_shape_and_parse(self):
        t = awkward_traj()
        V = np.linspace(5.0, 1.0, len(t))
        text = rollout_csv(t, V)
        lines = text.strip().split("\n")
        assert lines[0] == "t,px,py,vx,vy,V"
        assert len(lines) == len(t) + 1
        row = [float(x) for x in lines[1].split(",")]
        assert row[0] == t.timestamps[0]          # repr round-trips exactly
        assert row[1] == t.points[0, 0]
        assert row[-1] == V[0]

    def test_field_csv(self):
        pts = np.array([[0.0, 1.0], [2.0, 3.0]])
        vel = np.array([[0.5, -0.5], [1.0, 0.0]])
        text = field_csv(pts, vel)
        lines = text.strip().split("\n")
        assert lines[0] == "px,py,vx,vy"
        assert [float(x) for x in lines[2].split(",")] == [2.0, 3.0, 1.0, 0.0]

    @pytest.mark.parametrize("write", [
        lambda: field_csv([[0.0, 1.0]], [[0.5, -0.5], [1.0, 0.0]]),
        lambda: field_svg([[0.0, 1.0]], [[0.5, -0.5], [1.0, 0.0]]),
        lambda: rollout_csv(awkward_traj(), np.zeros(6))],
        ids=["field_csv", "field_svg", "rollout_csv"])
    def test_writer_refuses_arrays_of_another_length(self, write):
        # one point against two velocities, five samples against six
        # Lyapunov values: an error, not a silently shorter file
        with pytest.raises(ValidationError, match="has shape"):
            write()

    def test_field_svg_structure(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-1, 1, size=(16, 2))
        vel = rng.normal(size=(16, 2))
        vel[0] = 0.0  # degenerate glyph becomes a dot
        svg = field_svg(pts, vel, rollout_points=np.array([[0, 0], [1, 1.0]]))
        assert svg.startswith("<svg")
        assert svg.count("<line") == 15
        assert "<polyline" in svg
        assert "</svg>" in svg
