import copy
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stablemotion import fileio
from stablemotion.cli import (
    CONFIG_ENV,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    main,
)
from stablemotion.core import (_CERTIFICATE_BOUND, _GAIN_BOUND, _THINNEST_SD,
                               GeometricDescriptor, Pose, Trajectory)
from stablemotion.evaluation import (RolloutConfig, convergence_radius_for,
                                     rollout)
from stablemotion.pipeline import adapt
from stablemotion.profile import ProfileConfig
from conftest import hairpin_demo, helix_demo, s_curve_demo


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.json"
    fileio.save_demo(path, [s_curve_demo()])
    return str(path)


@pytest.fixture
def policy_file(tmp_path, demo_file):
    path = tmp_path / "policy.json"
    rc = main(["--quiet", "fit", demo_file, "-o", str(path),
               "--k-max", "3", "--restarts", "2"])
    assert rc == EXIT_OK
    return str(path)


class TestFit:
    def test_fit_writes_policy_and_reports(self, tmp_path, demo_file, capsys):
        out = tmp_path / "p.json"
        rc = main(["fit", demo_file, "-o", str(out), "--k-max", "3",
                   "--restarts", "2"])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "fit"
        assert report["mse"] < 0.1
        policy, chain = fileio.load_policy(out)
        assert 1 <= len(policy.components) <= 3

    def test_hairpin_demo_fits(self, tmp_path):
        # a valid demo on which EM's log-likelihood falls near a fixed
        # point (the covariance floor is additive): the run stops there
        path = tmp_path / "hairpin.json"
        fileio.save_demo(path, [hairpin_demo(0.02)])
        rc = main(["--quiet", "fit", str(path), "-o",
                   str(tmp_path / "p.json")])
        assert rc == EXIT_OK

    def test_k_max_one_forces_single_component(self, tmp_path, demo_file):
        out = tmp_path / "p.json"
        rc = main(["--quiet", "fit", demo_file, "-o", str(out),
                   "--k-max", "1", "--restarts", "2"])
        assert rc == EXIT_OK
        policy, _ = fileio.load_policy(out)
        assert len(policy.components) == 1

    def test_seed_determinism(self, tmp_path, demo_file):
        # EM seeds from the demo's order: a fit has no random state
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            main(["--quiet", "fit", demo_file,
                  "-o", str(out), "--k-max", "3", "--restarts", "2"])
        pa = json.loads(a.read_text())
        pb = json.loads(b.read_text())
        del pa["provenance"], pb["provenance"]  # timestamps differ
        assert pa == pb


class TestTransform:
    def test_transform_and_metrics(self, tmp_path, policy_file, capsys):
        _, chain = fileio.load_policy(policy_file)
        base = chain.endpoint_descriptor()
        from stablemotion.core import (_CERTIFICATE_BOUND, _GAIN_BOUND, _THINNEST_SD,
                               GeometricDescriptor, Pose, Trajectory)
        moved = GeometricDescriptor(
            Pose(base.enter.position + [0.2, 0.1], base.enter.rotation),
            Pose(base.exit.position + [-0.1, 0.2], base.exit.rotation))
        desc = tmp_path / "desc.json"
        fileio.save_descriptor(desc, moved)
        out = tmp_path / "adapted.json"
        rc = main(["transform", policy_file, str(desc), "-o", str(out)])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["converged"]
        assert report["start_cos"] > 0.9
        assert report["goal_cos"] > 0.9
        # re-targeted chain actually lands on the requested endpoints
        _, new_chain = fileio.load_policy(out)
        assert np.allclose(new_chain.joints[0], moved.enter.position,
                           atol=1e-9)
        assert np.allclose(new_chain.joints[-1], moved.exit.position,
                           atol=1e-9)

    def test_transform_does_not_mutate_input(self, tmp_path, policy_file):
        before = open(policy_file).read()
        _, chain = fileio.load_policy(policy_file)
        desc = tmp_path / "d.json"
        fileio.save_descriptor(desc, chain.endpoint_descriptor())
        rc = main(["--quiet", "transform", policy_file, str(desc),
                   "-o", str(tmp_path / "o.json")])
        assert rc == EXIT_OK
        assert open(policy_file).read() == before


class TestTiming:
    """A policy file carries its demo's timing, so `transform` re-targets
    at the demo's pace, as the library's `adapt` does."""

    @pytest.mark.parametrize("make_demo", [s_curve_demo, helix_demo])
    def test_identity_transform_keeps_the_speed_and_matches_adapt(
            self, tmp_path, make_demo):
        """A fitted policy and its transform to the chain's own endpoint
        descriptor reach the goal from the demo start within 20% of each
        other's time, and the transform fits the library's `A`."""
        demo = make_demo()
        demo_path, desc_path = tmp_path / "demo.json", tmp_path / "desc.json"
        fitted, moved = tmp_path / "fit.json", tmp_path / "moved.json"
        fileio.save_demo(demo_path, [demo])
        assert main(["--quiet", "fit", str(demo_path), "-o", str(fitted),
                     "--k-max", "6"]) == EXIT_OK
        policy, chain = fileio.load_policy(fitted)
        fileio.save_descriptor(desc_path, chain.endpoint_descriptor())
        assert main(["--quiet", "transform", str(fitted), str(desc_path),
                     "-o", str(moved)]) == EXIT_OK
        adapted, _ = fileio.load_policy(moved)
        cfg = RolloutConfig(
            convergence_radius=convergence_radius_for(chain.joints))
        runs = [rollout(p, demo.start, cfg) for p in (policy, adapted)]
        assert all(run.converged for run in runs)
        fit_steps, moved_steps = (len(run.trajectory) for run in runs)
        assert abs(moved_steps - fit_steps) <= 0.2 * fit_steps
        expected = adapt(chain, fileio.load_descriptor(desc_path),
                         ProfileConfig.for_demo(demo))[2]
        assert np.array_equal(adapted.A, expected.A)


class TestRolloutField:
    def test_rollout_csv_lyapunov_decreasing(self, tmp_path, policy_file):
        out = tmp_path / "run.csv"
        rc = main(["--quiet", "rollout", policy_file, "-o", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0].split(",")[-1] == "V"
        V = np.array([float(l.split(",")[-1]) for l in lines[1:]])
        assert len(V) > 10
        assert np.all(np.diff(V) <= 1e-12)

    def test_rollout_csv_lyapunov_is_the_quadratic_form(self, tmp_path,
                                                        policy_file):
        out = tmp_path / "run.csv"
        assert main(["--quiet", "rollout", policy_file, "-o",
                     str(out)]) == EXIT_OK
        policy, _ = fileio.load_policy(policy_file)
        rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        y = rows[:, 1:1 + policy.dim] - policy.attractor
        want = np.array([float(v @ policy.P @ v) for v in y])
        np.testing.assert_allclose(rows[:, -1], want, rtol=1e-15, atol=0.0)

    def test_rollout_custom_start(self, tmp_path, policy_file):
        out = tmp_path / "run.csv"
        rc = main(["--quiet", "rollout", policy_file, "-o", str(out),
                   "--start", "0.5,0.5"])
        assert rc == EXIT_OK
        first = out.read_text().split("\n")[1].split(",")
        assert float(first[1]) == 0.5 and float(first[2]) == 0.5

    def test_field_csv_and_svg(self, tmp_path, policy_file):
        csv = tmp_path / "field.csv"
        svg = tmp_path / "field.svg"
        rc = main(["--quiet", "field", policy_file, "-o", str(csv),
                   "--svg", str(svg), "--resolution", "8"])
        assert rc == EXIT_OK
        assert len(csv.read_text().strip().split("\n")) == 65
        text = svg.read_text()
        assert text.startswith("<svg") and "<polyline" in text
        assert text.count("<line") >= 60

    def test_metrics_command(self, tmp_path, policy_file, capsys):
        rc = main(["metrics", policy_file])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert {"start_cos", "goal_cos", "endpoints_distance",
                "converged"} <= report.keys()


class TestBench:
    def test_bench_rows(self, demo_file, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        rc = main(["bench", demo_file, "--lengths", "80,120",
                   "--repeats", "1", "-o", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "T_n,transform_ms,estimate_ms,total_ms,converged"
        assert len(lines) == 3
        assert lines[1].startswith("80,") and lines[2].startswith("120,")
        assert all(line.endswith(",True") for line in lines[1:])
        for line in lines[1:]:  # each time is rounded to 1e-3 ms
            _, transform, estimate, total, _ = line.split(",")
            assert float(total) == pytest.approx(
                float(transform) + float(estimate), abs=2e-3)

    def test_bench_rolls_out_with_the_config(self, tmp_path, demo_file,
                                             policy_file, capsys):
        # one RK4 step cannot reach the goal, in bench as in metrics
        cfg = _config(tmp_path, rollout_max_steps=1)
        assert main(["--quiet", *cfg, "bench", demo_file, "--lengths", "80",
                     "--repeats", "1", "-o", str(tmp_path / "b.csv")]) == \
            EXIT_OK
        assert (tmp_path / "b.csv").read_text().split()[1].endswith(",False")
        assert main([*cfg, "metrics", policy_file]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["converged"] is False


class TestSplitStitch:
    def test_split_then_fit_then_stitch(self, tmp_path, demo_file, capsys):
        demo = s_curve_demo()
        via = demo.points[100]
        prefix = str(tmp_path / "seg_")
        rc = main(["split", demo_file, "--via", f"{via[0]},{via[1]}",
                   "--radius", "1e-6", "--output-prefix", prefix])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["segments"] == 2

        policies = []
        for seg in report["outputs"]:
            out = seg.replace(".json", "_policy.json")
            assert main(["--quiet", "fit", seg, "-o", out,
                         "--k-max", "2", "--restarts", "2"]) == EXIT_OK
            policies.append(out)
        stitched = str(tmp_path / "stitched.json")
        rc = main(["--quiet", "stitch", *policies, "-o", stitched])
        assert rc == EXIT_OK
        policy, chain = fileio.load_policy(stitched)
        assert len(policy.components) == sum(
            len(fileio.load_policy(p)[0].components) for p in policies)
        assert np.allclose(chain.joints[-1], demo.end, atol=1e-9)

    def test_stitch_keeps_the_demo_timing(self, tmp_path, demo_file):
        """Split, fit and stitch give the whole demo's sample count and
        sampling interval."""
        demo = s_curve_demo()
        via = demo.points[100]
        prefix = str(tmp_path / "seg_")
        assert main(["--quiet", "split", demo_file, "--via",
                     f"{via[0]},{via[1]}", "--radius", "1e-6",
                     "--output-prefix", prefix]) == EXIT_OK
        policies = [f"{prefix}{i}_policy.json" for i in (0, 1)]
        for i, out in enumerate(policies):
            assert main(["--quiet", "fit", f"{prefix}{i}.json", "-o", out,
                         "--k-max", "3"]) == EXIT_OK
        stitched = tmp_path / "stitched.json"
        assert main(["--quiet", "stitch", *policies,
                     "-o", str(stitched)]) == EXIT_OK
        timing = json.loads(stitched.read_text())["chain"]["timing"]
        expected = ProfileConfig.for_demo(demo)
        assert timing["p"] == expected.p == len(demo)
        assert abs(timing["dt"] - expected.dt) <= 1e-12 * expected.dt

    def test_split_without_via_points_fails(self, demo_file, tmp_path):
        rc = main(["--quiet", "split", demo_file,
                   "--output-prefix", str(tmp_path / "s_")])
        assert rc == EXIT_VALIDATION


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE
        assert main(["fit"]) == EXIT_USAGE
        capsys.readouterr()

    def test_missing_file(self, tmp_path):
        rc = main(["--quiet", "rollout", str(tmp_path / "none.json"),
                   "-o", str(tmp_path / "o.csv")])
        assert rc == EXIT_VALIDATION

    def test_empty_file_parse_error(self, tmp_path):
        bad = tmp_path / "empty.json"
        bad.write_text("")
        rc = main(["--quiet", "rollout", str(bad),
                   "-o", str(tmp_path / "o.csv")])
        assert rc == EXIT_VALIDATION

    def test_non_orthonormal_rotation_rejected(self, tmp_path, policy_file):
        desc = tmp_path / "desc.json"
        desc.write_text(json.dumps({
            "format": "stablemotion-descriptor", "version": 1, "dimension": 2,
            "enter": {"position": [0.0, 0.0],
                      "rotation": [[1.0, 0.3], [0.0, 1.0]]},
            "exit": None}))
        rc = main(["--quiet", "transform", policy_file, str(desc),
                   "-o", str(tmp_path / "o.json")])
        assert rc == EXIT_VALIDATION

    def test_degenerate_demo_is_numerical_error(self, tmp_path):
        from stablemotion.core import Trajectory
        pts = np.zeros((40, 2))
        pts[:, 0] = 1e-16 * np.arange(40)  # collapses to one point
        demo = tmp_path / "flat.json"
        fileio.save_demo(demo, [Trajectory(pts + 1.0,
                                           np.linspace(0, 1, 40))])
        rc = main(["--quiet", "fit", str(demo),
                   "-o", str(tmp_path / "o.json"), "--k-max", "2",
                   "--restarts", "1"])
        assert rc in (EXIT_NUMERICAL, EXIT_VALIDATION)

    def test_config_via_env(self, tmp_path, demo_file, monkeypatch):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"k_max": 1, "restarts": 1}))
        monkeypatch.setenv(CONFIG_ENV, str(cfgp))
        out = tmp_path / "p.json"
        rc = main(["--quiet", "fit", demo_file, "-o", str(out)])
        assert rc == EXIT_OK
        policy, _ = fileio.load_policy(out)
        assert len(policy.components) == 1

    def test_bad_config_rejected(self, tmp_path, demo_file):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text("[1, 2]")
        rc = main(["--quiet", "--config", str(cfgp), "fit", demo_file,
                   "-o", str(tmp_path / "o.json")])
        assert rc == EXIT_VALIDATION


class TestMalformedFiles:
    """Bad files fail at load with exit code 2, never with a traceback."""

    @staticmethod
    def _rollout_edited(tmp_path, policy_file, edit):
        obj = json.loads(open(policy_file).read())
        edit(obj)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        return main(["--quiet", "rollout", str(bad),
                     "-o", str(tmp_path / "o.csv")])

    def test_components_not_a_list(self, tmp_path, policy_file):
        rc = self._rollout_edited(tmp_path, policy_file,
                                  lambda o: o.update(components=5))
        assert rc == EXIT_VALIDATION

    def test_margin_not_a_number(self, tmp_path, policy_file):
        rc = self._rollout_edited(tmp_path, policy_file,
                                  lambda o: o.update(margin="x"))
        assert rc == EXIT_VALIDATION

    def test_uncertified_policy_rejected(self, tmp_path, policy_file):
        def unstable(obj):
            d = obj["dimension"]
            obj["components"][0]["A"] = (5.0 * np.eye(d)).tolist()
        rc = self._rollout_edited(tmp_path, policy_file, unstable)
        assert rc == EXIT_VALIDATION

    def test_ragged_demo_points(self, tmp_path, demo_file):
        obj = json.loads(open(demo_file).read())
        obj["trajectories"][0]["points"][3] = [0.5]
        bad = tmp_path / "ragged.json"
        bad.write_text(json.dumps(obj))
        rc = main(["--quiet", "fit", str(bad), "-o", str(tmp_path / "o.json"),
                   "--k-max", "2", "--restarts", "1"])
        assert rc == EXIT_VALIDATION

    @pytest.mark.parametrize("edit", [
        lambda o: o.update(chain=5),
        lambda o: o["chain"].update(joints=o["chain"]["joints"][:-1]),
        lambda o: o["chain"]["joints"][1].append(0.0),
        lambda o: o["components"][0].update(prior=0.9),
    ], ids=["chain_not_an_object", "too_few_joints", "ragged_joints",
            "priors_do_not_sum_to_one"])
    def test_malformed_policy(self, tmp_path, policy_file, edit):
        assert self._rollout_edited(tmp_path, policy_file, edit) == \
            EXIT_VALIDATION

    @pytest.mark.parametrize("pose", [
        {"position": [0.0, "a"], "rotation": [[1.0, 0.0], [0.0, 1.0]]},
        {"position": [[0.0], [1.0]], "rotation": [[1.0, 0.0], [0.0, 1.0]]},
        {"position": [0.0, 1.0], "rotation": [[1.0, 0.0], [0.0, None]]},
        {"position": [0.0, 1.0], "rotation": [1.0, 0.0]},
        5,
    ], ids=["position_not_numbers", "position_not_a_vector",
            "rotation_not_numbers", "rotation_shape", "pose_not_an_object"])
    def test_malformed_descriptor(self, tmp_path, policy_file, pose):
        desc = tmp_path / "desc.json"
        desc.write_text(json.dumps({
            "format": "stablemotion-descriptor", "version": 1,
            "dimension": 2, "enter": pose, "exit": None}))
        rc = main(["--quiet", "transform", policy_file, str(desc),
                   "-o", str(tmp_path / "o.json")])
        assert rc == EXIT_VALIDATION

    def test_demo_descriptor_not_an_object(self, tmp_path, demo_file):
        """Demo files written before could hold a descriptor; no command
        reads it, so a malformed one fits as well as a valid one."""
        obj = json.loads(open(demo_file).read())
        valid = {"enter": None, "exit": {"position": [2.0, 0.0], "rotation":
                                         [[1.0, 0.0], [0.0, 1.0]]}}
        for descriptor in (5, valid):
            obj["descriptor"] = descriptor
            old = _json_file(tmp_path, "old.json", obj)
            rc = main(["--quiet", "fit", old, "-o", str(tmp_path / "o.json"),
                       "--k-max", "2", "--restarts", "1"])
            assert rc == EXIT_OK


def _json_file(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _config(tmp_path, **cfg):
    return ["--config", _json_file(tmp_path, "cfg.json", cfg)]


def _demo_with(tmp_path, demo_file, **fields):
    obj = json.loads(open(demo_file).read())
    obj.update(fields)
    return _json_file(tmp_path, "edited_demo.json", obj)


def _policy_with_bool_mean(tmp_path, policy_file):
    obj = json.loads(open(policy_file).read())
    obj["components"][0]["mean"][0] = True
    return _json_file(tmp_path, "bool_policy.json", obj)


def _rollout_argv(tmp_path, policy_file, edit):
    """A rollout of the policy file with `edit` applied to its JSON."""
    obj = json.loads(open(policy_file).read())
    edit(obj)
    return ["rollout", _json_file(tmp_path, "edited_policy.json", obj),
            "-o", str(tmp_path / "o.csv")]


def _without_timing(obj):
    del obj["chain"]["timing"]


def _timing(**fields):
    """An edit that sets entries of a policy file's chain timing."""
    return lambda obj: obj["chain"]["timing"].update(fields)


def _helix_policy(tmp_path):
    """A 3-D policy file."""
    demo, out = tmp_path / "helix.json", str(tmp_path / "helix_policy.json")
    fileio.save_demo(demo, [helix_demo()])
    assert main(["--quiet", "fit", str(demo), "-o", out,
                 "--k-max", "2"]) == EXIT_OK
    return out


def _conflicting_pins(tmp_path, demo_file):
    """A transform of a K = 2 policy (3 joints, so both ends pin the
    middle one) whose descriptor moves the entry by (0, 0.3) and the exit
    by (0.3, 0): the two ends ask for two places of that joint."""
    policy = str(tmp_path / "k2_policy.json")
    assert main(["--quiet", "fit", demo_file, "-o", policy, "--k-min", "2",
                 "--k-max", "2", "--restarts", "1"]) == EXIT_OK
    base = fileio.load_policy(policy)[1].endpoint_descriptor()
    desc = tmp_path / "conflicting.json"
    fileio.save_descriptor(desc, GeometricDescriptor(
        Pose(base.enter.position + [0.0, 0.3], base.enter.rotation),
        Pose(base.exit.position + [0.3, 0.0], base.exit.rotation)))
    return ["transform", policy, str(desc), "-o", str(tmp_path / "o.json")]


def _far_sample_demo(tmp_path):
    """A demo file of the S-curve with one sample at (1e155, 0), past B:
    the reader refuses it before the spread could overflow."""
    obj = fileio.demo_to_dict([s_curve_demo()])
    obj["trajectories"][0]["points"][100] = [1e155, 0.0]
    return _json_file(tmp_path, "far_demo.json", obj)


def _non_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"format": "stablemotion-policy\xff"}')
    return str(path)


# (argv builder from (tmp_path, demo file, policy file), expected exit code)
_BAD_INPUTS = [
    pytest.param(lambda t, d, p: ["fit", d, "-o", str(t / "o.json"),
                                  "--k-min", "5", "--k-max", "2"],
                 EXIT_VALIDATION, id="k_min_above_k_max"),
    pytest.param(lambda t, d, p: ["rollout", p, "-o", str(t / "o.csv"),
                                  "--start", "a,b"],
                 EXIT_USAGE, id="start_not_numbers"),
    pytest.param(lambda t, d, p: ["rollout", p, "-o", str(t / "o.csv"),
                                  "--start", "1,2,3"],
                 EXIT_VALIDATION, id="start_wrong_dimension"),
    pytest.param(lambda t, d, p: ["field", p, "-o", str(t / "o.csv"),
                                  "--resolution", "1"],
                 EXIT_VALIDATION, id="field_resolution_one"),
    pytest.param(lambda t, d, p: ["field", p, "-o", str(t / "o.csv"),
                                  "--resolution", "10000000"],
                 EXIT_VALIDATION, id="field_resolution_huge"),
    pytest.param(lambda t, d, p: ["bench", d, "--lengths", "a"],
                 EXIT_USAGE, id="bench_lengths_not_numbers"),
    pytest.param(lambda t, d, p: ["bench", d, "--lengths", "-5"],
                 EXIT_USAGE, id="bench_length_negative"),
    pytest.param(lambda t, d, p: ["bench", d, "--lengths", "80",
                                  "--repeats", "0"],
                 EXIT_VALIDATION, id="bench_repeats_zero"),
    pytest.param(lambda t, d, p: ["split", d, "--via", "1,x",
                                  "--output-prefix", str(t / "s_")],
                 EXIT_USAGE, id="via_not_numbers"),
    pytest.param(lambda t, d, p: [*_config(t, rollout_dt=-1), "rollout", p,
                                  "-o", str(t / "o.csv")],
                 EXIT_VALIDATION, id="config_rollout_dt_negative"),
    pytest.param(lambda t, d, p: [*_config(t, k_max="a"), "fit", d,
                                  "-o", str(t / "o.json")],
                 EXIT_VALIDATION, id="config_k_max_string"),
    pytest.param(lambda t, d, p: [*_config(t, k_max=2.5), "fit", d,
                                  "-o", str(t / "o.json")],
                 EXIT_VALIDATION, id="config_k_max_float"),
    pytest.param(lambda t, d, p: [*_config(t, restarts=0), "fit", d,
                                  "-o", str(t / "o.json")],
                 EXIT_VALIDATION, id="config_restarts_zero"),
    pytest.param(lambda t, d, p: [*_config(t, margin=-1), "fit", d,
                                  "-o", str(t / "o.json"), "--k-max", "2",
                                  "--restarts", "1"],
                 EXIT_VALIDATION, id="config_margin_negative"),
    pytest.param(lambda t, d, p: [*_config(t, margin="x"), "fit", d,
                                  "-o", str(t / "o.json")],
                 EXIT_VALIDATION, id="config_margin_string"),
    pytest.param(lambda t, d, p: [*_config(t, rollout_max_steps="a"),
                                  "rollout", p, "-o", str(t / "o.csv")],
                 EXIT_VALIDATION, id="config_max_steps_string"),
    pytest.param(lambda t, d, p: [*_config(t, rollout_max_steps=-3),
                                  "rollout", p, "-o", str(t / "o.csv")],
                 EXIT_VALIDATION, id="config_max_steps_negative"),
    pytest.param(lambda t, d, p: [*_config(t, margin=1e308),
                                  "fit", d, "-o", str(t / "o.json")],
                 EXIT_VALIDATION, id="config_margin_overflows"),
    pytest.param(lambda t, d, p: [*_config(t, rollout_convergence_radius=1e200),
                                  "rollout", p, "-o", str(t / "o.csv")],
                 EXIT_VALIDATION, id="config_rollout_radius_square_overflows"),
    pytest.param(lambda t, d, p: [*_config(t, rollout_convergence_radius=1e155),
                                  "metrics", p],
                 EXIT_VALIDATION, id="config_metrics_radius_square_overflows"),
    pytest.param(lambda t, d, p: [*_config(t, rollout_convergence_radius=float(
        "inf")), "rollout", p, "-o", str(t / "o.csv")],
                 EXIT_VALIDATION, id="config_rollout_radius_inf"),
    pytest.param(lambda t, d, p: _conflicting_pins(t, d),
                 EXIT_VALIDATION, id="transform_conflicting_pins"),
    pytest.param(lambda t, d, p: [*_config(t, k_mx=3, margins=0.5), "fit", d,
                                  "-o", str(t / "o.json")],
                 EXIT_VALIDATION, id="config_unknown_key"),
    pytest.param(lambda t, d, p: [*_config(t, profile_points=300), "rollout",
                                  p, "-o", str(t / "o.csv")],
                 EXIT_VALIDATION, id="config_profile_points_deleted"),
    pytest.param(lambda t, d, p: _rollout_argv(t, p, _without_timing),
                 EXIT_VALIDATION, id="policy_without_timing"),
    pytest.param(lambda t, d, p: _rollout_argv(t, p, _timing(p=200.5)),
                 EXIT_VALIDATION, id="timing_p_not_an_integer"),
    pytest.param(lambda t, d, p: _rollout_argv(t, p, _timing(p=10 ** 7)),
                 EXIT_VALIDATION, id="timing_p_too_large"),
    pytest.param(lambda t, d, p: _rollout_argv(t, p, _timing(dt=0.0)),
                 EXIT_VALIDATION, id="timing_dt_zero"),
    pytest.param(lambda t, d, p: _rollout_argv(t, p, _timing(dt=-0.01)),
                 EXIT_VALIDATION, id="timing_dt_negative"),
    pytest.param(lambda t, d, p: ["stitch", p, _helix_policy(t),
                                  "-o", str(t / "o.json")],
                 EXIT_VALIDATION, id="stitch_mixed_dimensions"),
    pytest.param(lambda t, d, p: ["split", d, "--via", "1,5", "--radius",
                                  "inf", "--output-prefix", str(t / "s_")],
                 EXIT_VALIDATION, id="split_radius_inf"),
    pytest.param(lambda t, d, p: ["fit", _far_sample_demo(t), "-o",
                                  str(t / "o.json")],
                 EXIT_VALIDATION, id="fit_a_sample_at_1e155"),
    pytest.param(lambda t, d, p: ["split", d, "--via", "1,0,0",
                                  "--output-prefix", str(t / "s_")],
                 EXIT_VALIDATION, id="split_via_wrong_dimension"),
    pytest.param(lambda t, d, p: ["fit", _demo_with(t, d, trajectories=5),
                                  "-o", str(t / "o.json")],
                 EXIT_VALIDATION, id="demo_trajectories_a_number"),
    pytest.param(lambda t, d, p: ["fit", _demo_with(t, d, trajectories=[5]),
                                  "-o", str(t / "o.json")],
                 EXIT_VALIDATION, id="demo_trajectory_a_number"),
    pytest.param(lambda t, d, p: ["split",
                                  _demo_with(t, d, via_points=[[1, "a"]]),
                                  "--output-prefix", str(t / "s_")],
                 EXIT_VALIDATION, id="demo_via_points_not_numbers"),
    pytest.param(lambda t, d, p: ["rollout", _policy_with_bool_mean(t, p),
                                  "-o", str(t / "o.csv")],
                 EXIT_VALIDATION, id="policy_mean_holds_a_bool"),
    pytest.param(lambda t, d, p: ["rollout", p, "-o", str(t)],
                 EXIT_VALIDATION, id="output_is_a_directory"),
    pytest.param(lambda t, d, p: ["rollout", str(t), "-o", str(t / "o.csv")],
                 EXIT_VALIDATION, id="input_is_a_directory"),
    pytest.param(lambda t, d, p: ["rollout", _non_utf8(t),
                                  "-o", str(t / "o.csv")],
                 EXIT_VALIDATION, id="input_not_utf8"),
    pytest.param(lambda t, d, p: ["fit", d, "-o", str(t / "o.json"),
                                  "--k-max", "0", "--restarts", "0"],
                 EXIT_VALIDATION, id="zero_flags_reach_the_config"),
    pytest.param(lambda t, d, p: ["--seed", "7", "fit", d,
                                  "-o", str(t / "o.json")],
                 EXIT_USAGE, id="seed_is_not_a_flag"),
]


@pytest.mark.parametrize("argv, expected", _BAD_INPUTS)
def test_bad_input_exit_code(tmp_path, demo_file, policy_file, argv,
                             expected, capsys):
    """Each bad flag, config value or file ends in its documented exit
    code; main raises nothing."""
    assert main(["--quiet", *argv(tmp_path, demo_file, policy_file)]) == \
        expected
    capsys.readouterr()


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """An 80-sample demo (with a via-point), the K = 3
    policies of its two halves, a descriptor that moves the first half's
    ends and a config: every file a subcommand reads, each valid."""
    tmp = tmp_path_factory.mktemp("valid")
    demo = s_curve_demo(80)
    via = demo.points[40:41]
    paths = {"config": _json_file(tmp, "cfg.json", {
        "k_max": 2, "restarts": 1, "margin": 0.01, "rollout_dt": 0.01,
        "rollout_max_steps": 5000})}
    halves = []
    for i in (0, 1):
        half = tmp / f"half{i}.json"
        part = slice(40 * i, 40 * i + 41)
        fileio.save_demo(half, [Trajectory(demo.points[part],
                                           demo.timestamps[part])])
        out = str(tmp / f"policy{i}.json")
        assert main(["--quiet", "--config", paths["config"], "fit",
                     str(half), "-o", out, "--k-min", "3",
                     "--k-max", "3"]) == EXIT_OK
        halves.append(out)
    paths["policy"], paths["segment"] = halves
    _, chain = fileio.load_policy(paths["policy"])
    base = chain.endpoint_descriptor()
    moved = GeometricDescriptor(
        Pose(base.enter.position + [0.05, 0.05], base.enter.rotation),
        Pose(base.exit.position + [0.05, -0.05], base.exit.rotation))
    paths["descriptor"] = str(tmp / "desc.json")
    fileio.save_descriptor(paths["descriptor"], moved)
    paths["demo"] = str(tmp / "demo.json")
    fileio.save_demo(paths["demo"], [demo], via)
    return paths


# each subcommand, as argv from (file paths, output directory)
_COMMANDS = {
    "fit": lambda f, o: ["fit", f["demo"], "-o", f"{o}/p.json"],
    "transform": lambda f, o: ["transform", f["policy"], f["descriptor"],
                               "-o", f"{o}/p.json"],
    "rollout": lambda f, o: ["rollout", f["policy"], "-o", f"{o}/r.csv"],
    "field": lambda f, o: ["field", f["policy"], "-o", f"{o}/f.csv",
                           "--resolution", "4"],
    "metrics": lambda f, o: ["metrics", f["policy"]],
    "bench": lambda f, o: ["bench", f["demo"], "--lengths", "40",
                           "--repeats", "1"],
    "stitch": lambda f, o: ["stitch", f["policy"], f["segment"],
                            "-o", f"{o}/p.json"],
    "split": lambda f, o: ["split", f["demo"], "--output-prefix", f"{o}/s_"],
}
# the subcommands that read each file
_READERS = {
    "config": sorted(_COMMANDS),
    "demo": ["bench", "fit", "split"],
    "descriptor": ["transform"],
    "policy": ["field", "metrics", "rollout", "stitch", "transform"],
}
# one value of each JSON type
_JSON_VALUES = [None, True, 0, "x", [], {}]


def _json_type(value) -> str:
    if isinstance(value, bool):
        return "bool"
    return "number" if isinstance(value, (int, float)) else \
        type(value).__name__


def _mutate(data, obj):
    """obj with one value deep inside it dropped, swapped for a value of
    another JSON type, shortened or lengthened (a list), given a boolean
    as its last element (a list) or nested; or, in a policy, with one
    component mean moved out to 1e300, or one covariance shrunk to
    1e-200 I or the chain's timing dt to 1e-300."""
    obj = copy.deepcopy(obj)
    parent, key = None, None
    node = obj
    while isinstance(node, (dict, list)) and node and (
            parent is None or not data.draw(st.booleans())):
        parent = node
        key = data.draw(st.sampled_from(
            list(node) if isinstance(node, dict) else range(len(node))))
        node = parent[key]
    kind = data.draw(st.sampled_from(["drop", "swap", "resize", "bool",
                                      "nest", "far", "tiny"]))
    if kind == "drop":
        del parent[key]
    elif kind == "swap":
        parent[key] = data.draw(st.sampled_from(
            [v for v in _JSON_VALUES if _json_type(v) != _json_type(node)]))
    elif kind == "resize" and isinstance(node, list) and node:
        parent[key] = node[:-1] if data.draw(st.booleans()) \
            else node + node[-1:]
    elif kind == "bool" and isinstance(node, list) and node:
        parent[key] = node[:-1] + [True]
    elif kind == "far" and "components" in obj:
        comp = data.draw(st.sampled_from(obj["components"]))
        comp["mean"] = [1e300] * len(comp["mean"])
    elif kind == "tiny" and "chain" in obj and data.draw(st.booleans()):
        obj["chain"]["timing"]["dt"] = 1e-300
    elif kind == "tiny" and "components" in obj:
        comp = data.draw(st.sampled_from(obj["components"]))
        comp["covariance"] = (1e-200 * np.eye(len(comp["mean"]))).tolist()
    else:
        parent[key] = [node]
    return obj


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(data=st.data())
def test_mutated_files_never_raise(valid_files, data):
    """Every subcommand ends in exit code 0-3 on a file with one mutated
    value, and main raises nothing."""
    target = data.draw(st.sampled_from(sorted(_READERS)))
    command = data.draw(st.sampled_from(_READERS[target]))
    obj = json.loads(Path(valid_files[target]).read_text())
    with tempfile.TemporaryDirectory() as out:
        files = dict(valid_files)
        files[target] = _json_file(Path(out), "mutated.json",
                                   _mutate(data, obj))
        rc = main(["--quiet", "--config", files["config"],
                   *_COMMANDS[command](files, out)])
    assert rc in (EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, EXIT_NUMERICAL)


def test_far_field_mean_is_rejected_at_load(valid_files, tmp_path, capsys):
    """A component mean at 1e300, past B, fails to load with exit 2 from
    the reader, before the mixture's quadratic forms can overflow; one at
    1e50 is within B, and the chain's reach refuses it."""
    for far, error in (
            (1e300, "means must be finite, every entry at most 1e+100"),
            (1e50, "joint diameters from the attractor")):
        obj = json.loads(Path(valid_files["policy"]).read_text())
        obj["components"][0]["mean"] = [far] * len(obj["attractor"])
        path = _json_file(tmp_path, "far.json", obj)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["--quiet", "rollout", path,
                       "-o", str(tmp_path / "r.csv")])
        assert rc == EXIT_VALIDATION
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        assert error in capsys.readouterr().err


def test_a_demo_sample_past_the_bound_is_named(tmp_path, capsys):
    """`fit` of a demo with one sample at (1e155, 0) exits 2, the reader
    naming the points, with no RuntimeWarning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["--quiet", "fit", _far_sample_demo(tmp_path),
                   "-o", str(tmp_path / "o.json")])
    assert rc == EXIT_VALIDATION
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert ("points must be finite, every entry at most 1e+100"
            in capsys.readouterr().err)


def _policy_values(A=None, P=None, sd=None):
    """An edit that sets every component's gain to A I, the certificate
    to P I or the first component's sd to sd."""
    def edit(obj):
        d = len(obj["attractor"])
        if A is not None:
            for comp in obj["components"]:
                comp["A"] = (A * np.eye(d)).tolist()
        if P is not None:
            obj["P"] = (P * np.eye(d)).tolist()
        if sd is not None:
            obj["components"][0]["covariance"] = \
                (sd * sd * np.eye(d)).tolist()
    return edit


@pytest.mark.parametrize("edit, error", [
    (_policy_values(sd=_THINNEST_SD * (1.0 - 1e-9)), "thinner than"),
    (_policy_values(A=-_GAIN_BOUND * (1.0 + 1e-9)), "gain entry exceeds"),
    (_policy_values(P=_CERTIFICATE_BOUND * (1.0 + 1e-9)), "P entry exceeds"),
    (_policy_values(P=1e300), "P entry exceeds"),
    (_policy_values(A=-1e250), "gain entry exceeds"),
    (_policy_values(sd=1e-100), "thinner than"),
], ids=["sd_past_S", "gain_past_G", "P_past_its_bound", "P_1e300",
        "A_minus_1e250", "covariance_1e-200"])
def test_a_policy_value_past_its_bound_exits_2(valid_files, tmp_path, capsys,
                                               edit, error):
    """A policy file holding a value past the policy's bounds fails to
    load: `rollout` exits 2, with no RuntimeWarning. A thin component is
    thinner than the chain's own rule allows too, which refuses it
    first."""
    obj = json.loads(Path(valid_files["policy"]).read_text())
    edit(obj)
    path = _json_file(tmp_path, "bounded.json", obj)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["--quiet", "rollout", path, "-o", str(tmp_path / "r.csv")])
    assert rc == EXIT_VALIDATION
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert error in capsys.readouterr().err


def test_tiny_covariance_is_rejected_at_load(valid_files, tmp_path, capsys):
    """A component covariance of 1e-200 I, whose determinant underflows,
    fails to load with exit 2 rather than failing in the rollout."""
    obj = json.loads(Path(valid_files["policy"]).read_text())
    obj["components"][0]["covariance"] = \
        (1e-200 * np.eye(len(obj["attractor"]))).tolist()
    tiny = _json_file(tmp_path, "tiny.json", obj)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["--quiet", "rollout", tiny, "-o",
                   str(tmp_path / "r.csv")])
    assert rc == EXIT_VALIDATION
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "thinner than" in capsys.readouterr().err


def test_an_attractor_off_the_last_joint_is_refused_at_load(
        valid_files, tmp_path, capsys):
    """fit, transform and stitch write the attractor bit-equal to the
    chain's last joint; a file whose attractor lies elsewhere fails to
    load with exit 2."""
    for command in ("transform", "stitch"):
        assert main(["--quiet", *_COMMANDS[command](valid_files, tmp_path)
                     ]) == EXIT_OK
        written = json.loads((tmp_path / "p.json").read_text())
        assert written["attractor"] == written["chain"]["joints"][-1]
    obj = json.loads(Path(valid_files["policy"]).read_text())
    assert obj["attractor"] == obj["chain"]["joints"][-1]
    obj["attractor"][0] += 1e-3
    off = _json_file(tmp_path, "off.json", obj)
    rc = main(["--quiet", "rollout", off, "-o", str(tmp_path / "r.csv")])
    assert rc == EXIT_VALIDATION
    assert "the chain's last joint" in capsys.readouterr().err


@pytest.mark.parametrize("dt, code, error", [
    pytest.param(1e-20, EXIT_NUMERICAL, "OptimizationDiverged", id="1e-20"),
    pytest.param(1e-300, EXIT_NUMERICAL, "OptimizationDiverged",
                 id="1e-300"),
    pytest.param(5e-324, EXIT_VALIDATION, "no finite reciprocal",
                 id="5e-324")])
def test_tiny_timing_dt_exits_numerical(demo_file, tmp_path, capsys, dt,
                                        code, error):
    """A tiny positive chain timing dt ends a transform to the chain's own
    endpoints with an exit code, never a traceback or a RuntimeWarning.
    The regenerated profile's velocities grow as 1/dt: at 1e-20 this
    K = 6 fit's Newton system loses definiteness, and at 1e-300 their
    squares overflow in the estimator's set-up (both exit 3); 5e-324 has
    no finite reciprocal and fails to load (exit 2)."""
    fitted = str(tmp_path / "policy.json")
    assert main(["--quiet", "fit", demo_file, "-o", fitted,
                 "--k-max", "6"]) == EXIT_OK
    obj = json.loads(Path(fitted).read_text())
    obj["chain"]["timing"]["dt"] = dt
    tiny = _json_file(tmp_path, "tiny_dt.json", obj)
    _, chain = fileio.load_policy(fitted)
    own = tmp_path / "own.json"
    fileio.save_descriptor(own, chain.endpoint_descriptor())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["--quiet", "transform", tiny, str(own),
                   "-o", str(tmp_path / "o.json")])
    assert rc == code
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert error in capsys.readouterr().err


@pytest.mark.parametrize("reach, scale, code, error", [
    pytest.param(1.0, 1e-300, EXIT_NUMERICAL, "OptimizationDiverged",
                 id="1e-300"),
    pytest.param(1.0, 1e-310, EXIT_VALIDATION, "no finite reciprocal",
                 id="1e-310"),
    pytest.param(1e4, 5e-307, EXIT_VALIDATION, "velocities must be finite",
                 id="1e4-over-5e-307")])
def test_tiny_timestamps_end_fit_without_warning(tmp_path, capsys, reach,
                                                 scale, code, error):
    """A demo whose timestamps are scaled down to the subnormal range ends
    `fit` with an exit code, never a traceback or a RuntimeWarning. At
    1e-300 the velocities' squares overflow in the estimator's set-up
    (exit 3); at 1e-310 the sampling intervals have no finite reciprocal,
    and with positions scaled by 1e4 at 5e-307 the velocities themselves
    overflow (both exit 2)."""
    demo = s_curve_demo()
    path = tmp_path / "tiny_ts.json"
    fileio.save_demo(path, [Trajectory(reach * demo.points,
                                       scale * demo.timestamps)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["--quiet", "fit", str(path),
                   "-o", str(tmp_path / "o.json")])
    assert rc == code
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert error in capsys.readouterr().err


def _far(*path):
    """An edit that moves the value at `path` out to 1e300."""
    def edit(obj):
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = 1e300
    return edit


def _both(*edits):
    """The edits applied together."""
    def edit(obj):
        for one in edits:
            one(obj)
    return edit


@pytest.mark.parametrize("target, edit", [
    ("policy", _far("chain", "joints", 1, 0)),
    ("policy", _far("components", 1, "covariance", 0, 0)),
    ("policy", lambda o: o["components"][1].update(
        covariance=(1e300 * np.eye(len(o["attractor"]))).tolist())),
    ("descriptor", _far("enter", "position", 0)),
    ("descriptor", _far("exit", "rotation", 1, 0)),
    # far pairs that agree, so neither is far from the other
    ("policy", _both(_far("components", 0, "mean", 0),
                     _far("chain", "joints", 1, 0))),
    ("policy", _both(_far("attractor", 0), _far("chain", "joints", -1, 0))),
], ids=["chain_joint", "covariance", "covariance_spread",
        "descriptor_position", "descriptor_rotation", "mean_and_joint",
        "attractor_and_last_joint"])
def test_far_value_is_rejected_without_overflow(valid_files, tmp_path, target,
                                                edit):
    """A value moved out to 1e300 in the policy or the descriptor ends a
    transform with exit 2, before any arithmetic on it overflows."""
    obj = json.loads(Path(valid_files[target]).read_text())
    edit(obj)
    files = dict(valid_files)
    files[target] = _json_file(tmp_path, "far.json", obj)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["--quiet", *_COMMANDS["transform"](files, tmp_path)])
    assert rc == EXIT_VALIDATION
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
