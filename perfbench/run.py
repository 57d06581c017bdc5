"""Benchmark of stablemotion: learn, re-target and control-loop rollout.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload learn --seed 1 --seconds 15 --trace 0

The library is imported from the checkout's ``src/``. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``). The full record of the run goes to
``perfbench/out/``. See perfbench/README.md.
"""

import os

# one BLAS thread, set before numpy loads, so that the figures measure the
# library and not the scheduler
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3


def import_library():
    """Import stablemotion from this checkout's src/, or fail."""
    if not (SRC / "stablemotion" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library source at {SRC}")
    sys.path.insert(0, str(SRC))
    import stablemotion
    if Path(stablemotion.__file__).resolve().parent.parent != SRC:
        raise SystemExit("perfbench: stablemotion was not imported from "
                         f"{SRC} but from {stablemotion.__file__}")
    return stablemotion


def declared_metrics(trace: bool):
    """Metric names BENCHMARK.json declares for this mode, if it exists."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("learn", "retarget", "control"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    import checks
    import spans
    import speed
    import workloads
    import stablemotion as sm

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[args.workload]
    out_dir = HERE / "out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)

    try:
        setup_seconds = []
        for _ in range(SETUP_REPEATS):
            before = speed.kernel_seconds()
            if tracer:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                state = workload.setup(args.seed, str(workdir))
            except checks.CheckFailed as exc:
                raise SystemExit(f"perfbench: set-up check failed: {exc}")
            wall = time.perf_counter() - t0
            if tracer:
                tracer.active = False
            setup_seconds.append(
                speed.rescaled(wall, before, speed.kernel_seconds()))

        if tracer:
            tracer.phase = "timed"
        rec = workloads.Recorder(tracer)
        rounds = 0
        start = time.perf_counter()
        while rounds == 0 or time.perf_counter() - start < args.seconds:
            workload.round(state, rec)
            rounds += 1
        measured = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    self_test = checks.self_test(rec.samples, sm.gmm.responsibilities_batch)
    errors = rec.errors + [f"self-test: the {name} check accepted a "
                           "corrupted output"
                           for name, rejected in self_test.items()
                           if not rejected]
    end_to_end = rec.metrics(setup_seconds)
    per_layer = tracer.metrics() if tracer else None
    metrics = per_layer if args.trace else end_to_end
    declared = declared_metrics(bool(args.trace))
    if declared is not None and declared != set(metrics):
        errors.append("metrics differ from BENCHMARK.json: "
                      f"{sorted(declared ^ set(metrics))}")

    result = {"correct": not errors, "attempted": rec.attempted,
              "failed": rec.failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, rounds=rounds, measured_s=measured,
                  setup_s=setup_seconds, end_to_end=end_to_end,
                  per_layer=per_layer, errors=errors,
                  failures=rec.failures, self_test=self_test,
                  times={f"{kind} {item}": seconds for (kind, item), seconds
                         in rec.times.items()},
                  raw_times={f"{kind} {item}": seconds for (kind, item), seconds
                             in rec.raw_times.items()})
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1, default=str))
    for line in errors:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
