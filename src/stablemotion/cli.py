"""Command-line surface tying the pipeline together.

Exit codes: 0 success, 1 usage, 2 validation/parse error, 3 numerical
failure. A JSON config of option defaults may be passed with --config or
the STABLEMOTION_CONFIG environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import fileio
from .chain import transform_chain
from .core import GeometricDescriptor, Pose, Trajectory, compute_velocities
from .errors import StableMotionError, ValidationError
from .evaluation import (
    RolloutConfig,
    adaptation_metrics,
    convergence_radius_for,
    rollout,
    sample_field,
)
from .gmm import GmmFitConfig
from .pipeline import adapt, learn, reestimate
from .policy import EstimateOptions, evaluate_batch, lyapunov_value
from .sequence import split_demo, stitch_chains

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

CONFIG_ENV = "STABLEMOTION_CONFIG"
# the only config keys; the config each one reaches checks its value
_CONFIG_KEYS = ("k_min", "k_max", "restarts", "margin", "rollout_dt",
                "rollout_max_steps", "rollout_convergence_radius")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_config(args) -> dict:
    """The config file's options, overridden by the flags of the same name."""
    cfg = {}
    path = args.config or os.environ.get(CONFIG_ENV)
    if path:
        with open(path) as fh:
            cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValidationError("config must be a JSON object")
    unknown = sorted(set(cfg) - set(_CONFIG_KEYS))
    if unknown:
        raise ValidationError(f"unknown config keys {unknown}")
    cfg.update((key, value) for key, value in vars(args).items()
               if key in _CONFIG_KEYS and value is not None)
    return cfg


def _report(args, payload: dict) -> None:
    if not args.quiet:
        print(json.dumps(payload))


def _single_demo(path):
    trajectories, via = fileio.load_demo(path)
    if len(trajectories) != 1:
        raise ValidationError("command expects a single-trajectory demo file")
    return compute_velocities(trajectories[0]), via


def _given(cfg, prefix: str, names) -> dict:
    """The options among `names` that the config or a flag sets, each read
    from key `prefix + name`; the others keep the library's defaults."""
    return {name: cfg[prefix + name] for name in names if prefix + name in cfg}


def _gmm_cfg(cfg) -> GmmFitConfig:
    return GmmFitConfig(**_given(cfg, "", ("k_min", "k_max", "restarts")))


def _estimate_opts(cfg) -> EstimateOptions:
    return EstimateOptions(**_given(cfg, "", ("margin",)))


def _mse(policy, points, velocities) -> float:
    r = velocities - evaluate_batch(policy, points)
    return float(np.mean(np.sum(r * r, axis=1)))


def cmd_fit(args, cfg) -> int:
    demo, _ = _single_demo(args.demo)
    t0 = time.perf_counter()
    chain, policy = learn(demo, _gmm_cfg(cfg), _estimate_opts(cfg))
    elapsed = time.perf_counter() - t0
    fileio.save_policy(args.output, policy, chain,
                       fileio.make_provenance(source_path=args.demo))
    _report(args, {"command": "fit", "k": len(policy.components),
                   "mse": _mse(policy, demo.points, demo.velocities),
                   "fit_time_s": elapsed, "output": args.output})
    return EXIT_OK


def cmd_transform(args, cfg) -> int:
    policy, chain = fileio.load_policy(args.policy)
    descriptor = fileio.load_descriptor(args.descriptor)
    t0 = time.perf_counter()
    new_chain, profile, new_policy = adapt(chain, descriptor, chain.timing,
                                           _estimate_opts(cfg))
    elapsed = time.perf_counter() - t0
    fileio.save_policy(args.output, new_policy, new_chain,
                       fileio.make_provenance(source_path=args.policy,
                                              descriptor=descriptor))
    _report(args, {
        "command": "transform",
        **adaptation_metrics(new_policy, new_chain,
                             _rollout_cfg_for(new_chain, cfg)),
        "total_time_s": elapsed, "output": args.output})
    return EXIT_OK


def _rollout_cfg_for(chain, cfg) -> RolloutConfig:
    return RolloutConfig(**{
        "convergence_radius": convergence_radius_for(chain.joints),
        **_given(cfg, "rollout_", ("dt", "max_steps", "convergence_radius"))})


def cmd_rollout(args, cfg) -> int:
    policy, chain = fileio.load_policy(args.policy)
    start = args.start if args.start is not None else chain.joints[0]
    run = rollout(policy, start, _rollout_cfg_for(chain, cfg))
    traj = run.trajectory
    with open(args.output, "w") as fh:
        fh.write(fileio.rollout_csv(compute_velocities(traj),
                                    lyapunov_value(policy, traj.points)))
    _report(args, {"command": "rollout", "steps": len(traj),
                   "converged": run.converged, "output": args.output})
    return EXIT_OK


def cmd_field(args, cfg) -> int:
    policy, chain = fileio.load_policy(args.policy)
    joints = chain.joints
    lo = joints.min(axis=0)
    hi = joints.max(axis=0)
    pad = 0.25 * max(float(np.max(hi - lo)), 1e-9)
    bounds = ((lo[0] - pad, hi[0] + pad), (lo[1] - pad, hi[1] + pad))
    points, velocities = sample_field(policy, bounds, args.resolution)
    with open(args.output, "w") as fh:
        fh.write(fileio.field_csv(points, velocities))
    if args.svg:
        run = rollout(policy, chain.joints[0], _rollout_cfg_for(chain, cfg))
        with open(args.svg, "w") as fh:
            fh.write(fileio.field_svg(points, velocities,
                                      run.trajectory.points))
    _report(args, {"command": "field", "samples": len(points),
                   "output": args.output, "svg": args.svg})
    return EXIT_OK


def cmd_metrics(args, cfg) -> int:
    policy, chain = fileio.load_policy(args.policy)
    payload = adaptation_metrics(policy, chain, _rollout_cfg_for(chain, cfg))
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=1)
    _report(args, {"command": "metrics", **payload})
    return EXIT_OK


def _resample(demo: Trajectory, n: int) -> Trajectory:
    t = np.linspace(demo.timestamps[0], demo.timestamps[-1], n)
    pts = np.column_stack([
        np.interp(t, demo.timestamps, demo.points[:, j])
        for j in range(demo.dim)])
    return Trajectory(pts, t)


def cmd_bench(args, cfg) -> int:
    if args.repeats < 1:
        raise ValidationError("repeats must be >= 1")
    demo, _ = _single_demo(args.demo)
    opts = _estimate_opts(cfg)
    rows = []
    for n in args.lengths:
        resampled = compute_velocities(_resample(demo, n))
        chain, _ = learn(resampled, _gmm_cfg(cfg), opts)
        # shift both ends by a tenth of the span: a representative re-target
        span = resampled.end - resampled.start
        offset = 0.1 * np.linalg.norm(span) * np.ones(resampled.dim) / \
            np.sqrt(resampled.dim)
        desc = chain.endpoint_descriptor()
        moved = GeometricDescriptor(*(Pose(p.position + offset, p.rotation)
                                      for p in (desc.enter, desc.exit)))
        times = []
        for _ in range(args.repeats):  # the last repeat's policy is scored
            t0 = time.perf_counter()
            new_chain = transform_chain(chain, moved)
            t1 = time.perf_counter()
            _, policy = reestimate(new_chain, opts)
            times.append((t1 - t0, time.perf_counter() - t1))
        t_transform, t_estimate = np.median(times, axis=0)
        converged = adaptation_metrics(
            policy, new_chain, _rollout_cfg_for(new_chain, cfg))["converged"]
        rows.append(f"{n},{1e3 * t_transform:.3f},{1e3 * t_estimate:.3f},"
                    f"{1e3 * (t_transform + t_estimate):.3f},{converged}")
    table = ("T_n,transform_ms,estimate_ms,total_ms,converged\n"
             + "\n".join(rows) + "\n")
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(table)
    if not args.quiet:
        sys.stdout.write(table)
    return EXIT_OK


def cmd_stitch(args, cfg) -> int:
    chains = []
    for path in args.policies:
        _, chain = fileio.load_policy(path)
        chains.append(chain)
    stitched = stitch_chains(chains)
    _, policy = reestimate(stitched, _estimate_opts(cfg))
    fileio.save_policy(args.output, policy, stitched,
                       fileio.make_provenance())
    _report(args, {"command": "stitch", "segments": len(args.policies),
                   "k": len(policy.components), "output": args.output})
    return EXIT_OK


def cmd_split(args, cfg) -> int:
    demo, via_from_file = _single_demo(args.demo)
    via = args.via if args.via is not None else via_from_file
    if via is None:
        raise ValidationError("no via-points given (flag or demo file)")
    segments = split_demo(demo, via, args.radius)
    outputs = []
    for i, seg in enumerate(segments):
        path = f"{args.output_prefix}{i}.json"
        fileio.save_demo(path, [seg])
        outputs.append(path)
    _report(args, {"command": "split", "segments": len(segments),
                   "outputs": outputs})
    return EXIT_OK


def _point(text: str) -> np.ndarray:
    """A comma-separated point, e.g. '0.5,1'."""
    return np.array([float(v) for v in text.split(",")])


def _points(text: str) -> np.ndarray:
    """Semicolon-separated points of one dimension, e.g. '1,2;3,4'."""
    return np.array([_point(p) for p in text.split(";")])


def _lengths(text: str) -> list:
    """Comma-separated demo lengths of at least 2 samples each."""
    lengths = [int(v) for v in text.split(",")]
    if min(lengths) < 2:
        raise argparse.ArgumentTypeError("a demo length is at least 2 samples")
    return lengths


def build_parser() -> _Parser:
    parser = _Parser(prog="stablemotion",
                     description="Learn, re-target, and execute stable "
                                 "motion policies from one demonstration.")
    parser.add_argument("--config", default=None,
                        help=f"JSON defaults (or ${CONFIG_ENV})")
    parser.add_argument("--quiet", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a policy from a demo file")
    p.add_argument("demo")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--k-min", dest="k_min", type=int, default=None)
    p.add_argument("--k-max", dest="k_max", type=int, default=None)
    p.add_argument("--restarts", type=int, default=None)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("transform", help="re-target a policy to a descriptor")
    p.add_argument("policy")
    p.add_argument("descriptor")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("rollout", help="integrate a policy, emit CSV")
    p.add_argument("policy")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--start", type=_point, default=None,
                   help="comma-separated start point")
    p.set_defaults(func=cmd_rollout)

    p = sub.add_parser("field", help="sample the vector field (CSV + SVG)")
    p.add_argument("policy")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--svg", default=None)
    p.add_argument("--resolution", type=int, default=20)
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("metrics", help="adaptation metrics as JSON")
    p.add_argument("policy")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("bench", help="timing sweep over demo lengths")
    p.add_argument("demo")
    p.add_argument("--lengths", type=_lengths, default="100,200,400")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("stitch", help="combine segment policies into one")
    p.add_argument("policies", nargs="+")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_stitch)

    p = sub.add_parser("split", help="cut a demo at via-points")
    p.add_argument("demo")
    p.add_argument("--via", type=_points, default=None,
                   help="semicolon-separated comma points, e.g. '1,2;3,4'")
    p.add_argument("--radius", type=float, default=0.05)
    p.add_argument("--output-prefix", default="segment_")
    p.set_defaults(func=cmd_split)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _load_config(args)
        return args.func(args, cfg)
    except (ValidationError, OSError, json.JSONDecodeError,
            UnicodeDecodeError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except StableMotionError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
