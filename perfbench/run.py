"""Benchmark for cocyclelab: time to a certificate on three workloads.

    python3 perfbench/run.py --workload surgery --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root.  Each round of a workload runs in a fresh
process (a child of this one), one at a time: it imports the program from
`src/`, builds the inputs from the seed, times the certified computation,
checks the outputs and reports one JSON line.  Rounds repeat until `--seconds`
have passed (at least one).  With `--trace 1` the untraced rounds are followed
by as many seconds of traced rounds, which give the per-layer metrics; the
difference of the two medians of solve_s is the tracing overhead.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  The exit code is 0 when every check
passed, 1 when a check failed, 2 when the program or a round could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ROUND_TIMEOUT_S = 170.0
MIN_SETUP_SAMPLES = 9

END_TO_END = {"setup_s": "s", "solve_s": "s", "peak_rss_mib": "MiB"}


def program_present() -> bool:
    return (SRC / "cocyclelab" / "surgery.py").is_file()


# -- child: one round ------------------------------------------------------------------


def child(args) -> int:
    sys.path.insert(0, str(SRC))
    import numpy as np

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.build(args.seed)
    setup_s = time.monotonic() - args.spawned_at
    if args.probe_setup:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    import cocyclelab.surgery as loaded

    # src/cocyclelab has no __init__.py, so an installed regular package of
    # the same name would win the import: refuse to time the wrong code
    if not Path(loaded.__file__).resolve().is_relative_to(SRC):
        print(f"cocyclelab imported from {loaded.__file__}, not {SRC}", file=sys.stderr)
        return 2

    rec = tracer = None
    if args.trace:
        import tracing

        rec = tracing.Recorder(f"{args.workload}-{args.seed}-{args.round}-{os.getpid()}")
        tracer = tracing.Tracer(rec)
        tracer.install()
    try:
        rnd = wl.run(inputs)
    finally:
        if tracer is not None:
            tracer.uninstall()
    # the peak so far is the program's: the checks below allocate too
    result = {"setup_s": setup_s, "solve_s": rnd.solve_s,
              "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "attempted": rnd.attempted, "failed": rnd.failed, "sizes": rnd.sizes,
              "correct": True, "check": ""}
    if rnd.attempted > rnd.failed:
        import checks

        try:
            wl.check(inputs, rnd, np.random.default_rng([args.seed, 1, args.round]))
        except checks.CheckFailed as e:
            result.update(correct=False, check=str(e))
    if rec is not None:
        import tracing

        result["layers"] = tracing.layer_metrics(rec.spans, rec.counts())
        names = ("surgery.build_config", "surgery.assemble_perturbation", "surgery.verify_growth")
        stages = sum(t1 - t0 for _, n, t0, t1, _ in rec.spans if n in names)
        result["stage_share"] = stages / rnd.solve_s
        workloads.OUT.mkdir(exist_ok=True)
        path = workloads.OUT / f"trace-{args.workload}-{args.seed}-{args.round}.json"
        path.write_text(json.dumps(rec.to_json()))
    print(json.dumps(result))
    return 0


# -- parent: rounds and metrics ----------------------------------------------------------


class RoundFailed(Exception):
    pass


def spawn(workload: str, seed: int, index: int, trace: bool, probe: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", "--workload", workload,
           "--seed", str(seed), "--round", str(index), "--trace", str(int(trace))]
    if probe:
        cmd.append("--probe-setup")
    # the child reads the same system-wide monotonic clock once its inputs are built
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"{workload} round {index} ran past the time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundFailed(f"{workload} round {index} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def rounds_for(workload: str, seed: int, seconds: float, trace: bool, first: int,
               deadline: float) -> list[dict]:
    out = []
    start = time.monotonic()
    while not out or time.monotonic() - start < seconds:
        r = spawn(workload, seed, first + len(out), trace, False, deadline)
        sizes = " ".join(f"{k}={v}" for k, v in r["sizes"].items())
        print(f"  {workload} round {first + len(out)}{' traced' if trace else ''}: "
              f"solve {r['solve_s']:.3f} s, {r['attempted'] - r['failed']}/{r['attempted']} ok"
              f"{'' if r['correct'] else ', CHECK FAILED: ' + r['check']}  {sizes}",
              file=sys.stderr)
        out.append(r)
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + ROUND_TIMEOUT_S
    plain = rounds_for(workload, seed, seconds, False, 0, deadline)
    setups = [r["setup_s"] for r in plain]
    while not trace and len(setups) < MIN_SETUP_SAMPLES:
        setups.append(spawn(workload, seed, -1, False, True, deadline)["setup_s"])
    traced = rounds_for(workload, seed, seconds, True, len(plain), deadline) if trace else []
    every = plain + traced
    solve = statistics.median(r["solve_s"] for r in plain)
    if trace:
        layers = {k: statistics.median(r["layers"][k] for r in traced)
                  for k in traced[0]["layers"]}
        layers["trace.overhead_s"] = statistics.median(r["solve_s"] for r in traced) - solve
        units = layer_units()
        metrics = {k: {"value": layers[k], "unit": units[k]} for k in units}
        if workload == "surgery":
            share = statistics.median(r["stage_share"] for r in traced)
            print(f"  surgery stage spans cover {100 * share:.2f}% of the traced round",
                  file=sys.stderr)
    else:
        values = {"setup_s": statistics.median(setups), "solve_s": solve,
                  "peak_rss_mib": statistics.median(r["rss_mib"] for r in plain)}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return {"correct": all(r["correct"] for r in every),
            "attempted": sum(r["attempted"] for r in every),
            "failed": sum(r["failed"] for r in every),
            "metrics": metrics}


def layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def report(workload: str, result: dict) -> None:
    print(f"{workload}: {result['attempted'] - result['failed']}/{result['attempted']} "
          f"operations ok, checks {'passed' if result['correct'] else 'FAILED'}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--round", type=int, default=0, help=argparse.SUPPRESS)
    p.add_argument("--spawned-at", type=float, default=0.0, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not program_present():
        print(f"cocyclelab sources not found under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.child:
        return child(args)
    results = {}
    for name in names:
        try:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
        except RoundFailed as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        report(name, results[name])
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": m for w, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
