"""phenkf benchmark: exact-verification workloads driven through the CLI.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --all [--seed N] [--seconds S]
    python3 bench/run.py --record-digests

Run from anywhere inside a checkout; the program is imported from its src/
with no install.  Each run measures set-up in fresh interpreters, then runs
the workload's passes in one more fresh interpreter (bench/worker.py).

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics from a traced run.  Human-readable lines come first; the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Every run also writes bench/results/<workload>-seed<N>-
trace<T>.json with all passes and, when traced, all spans.

--all runs every workload untraced and traced, prints every metric, the
per-command times and failed_ratio, and writes bench/results/all-seed<N>.json.

--record-digests runs the default seed once and rewrites
bench/expected_digests.json, the stdout digests the digest gate compares
against.  Do that only at a commit whose output bytes are known good.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import scale
from tracer import median_metrics
from workloads import DEFAULT_SEED, DIGESTS, WORKLOADS, argv_key

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SCHEMA = "phenkf-bench/1"
SETUP_RUNS = 11
DEADLINE_S = 170  # a run must end within 180 s
SETUP_SNIPPET = ("import time; t = time.perf_counter(); import phenkf.cli; "
                 "phenkf.cli.build_parser(); t = time.perf_counter() - t; "
                 "import calibrate; print(t, calibrate.kernel_seconds())")


class BenchError(RuntimeError):
    """The benchmark cannot run here or a program process failed."""


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _program(args, timeout):
    """Run a fresh interpreter on the program's sources; returns its stdout."""
    if not (ROOT / "src" / "phenkf" / "cli.py").is_file():
        raise BenchError(f"no phenkf sources under {ROOT / 'src'}")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(BENCH)])}
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args[0]} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args[:2])} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def measure_setup():
    """(seconds, kernel seconds) to import phenkf.cli and build its parser,
    per fresh interpreter, with the calibration kernel timed right after.

    One unreported run first writes the bytecode caches, which a user pays
    once per install, not once per command.
    """
    samples = [tuple(map(float, _program(["-c", SETUP_SNIPPET], 60).split()))
               for _ in range(SETUP_RUNS + 1)]
    return samples[1:]


def run_workload(name, seed, seconds, trace, deadline):
    setup = [] if trace else measure_setup()
    out = _program([str(BENCH / "worker.py"), name, str(seed), str(seconds), str(int(trace))],
                   deadline - time.monotonic())
    doc = json.loads(out)
    doc.update(setup_s=setup, workload=name, seed=seed, seconds=seconds, trace=int(trace))
    return doc


def _median_by_label(passes):
    """Median over passes of each per-command time, summed by label."""
    labels = dict.fromkeys(c["label"] for p in passes for c in p["commands"])
    return {label: statistics.median(sum(c["seconds"] for c in p["commands"] if c["label"] == label)
                                     for p in passes)
            for label in labels}


def _unit(name):
    if name.endswith((".s", "_s")):
        return "s"
    return {"cli.stdout_bytes": "B", "extremal_search.solves_per_code": "ratio"}.get(name, "count")


def summarize(doc):
    """All metrics of one run, by name: {name: (value, unit)}."""
    plain = [p for p in doc["passes"] if not p["traced"]]
    traced = [p for p in doc["passes"] if p["traced"]]
    commands = [c for p in doc["passes"] for c in p["commands"]]
    failed = sum(1 for c in commands if c["problems"])
    wall = statistics.median(p["wall_s"] for p in plain)
    metrics = {
        "wall_s": (wall, "s"),
        "raw_wall_s": (statistics.median(p["raw_wall_s"] for p in plain), "s"),
        "codes_per_s": (statistics.median(
            sum(c["codes"] for c in p["commands"]) / p["wall_s"] for p in plain), "1/s"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
        "failed_ratio": (failed / len(commands), "ratio"),
    }
    if doc["setup_s"]:
        metrics["setup_s"] = (statistics.median(scale(t, k) for t, k in doc["setup_s"]), "s")
        metrics["raw_setup_s"] = (statistics.median(t for t, _ in doc["setup_s"]), "s")
    for label, value in _median_by_label(plain).items():
        metrics[label] = (value, "s")
    if traced:
        for name, value in median_metrics([p["layers"] for p in traced]).items():
            metrics[name] = (value, _unit(name))
        metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced) - wall, "s")
    return metrics, len(commands), failed


def result_line(doc, bench_spec):
    """The final JSON object: exactly the metrics BENCHMARK.json lists for this mode."""
    metrics, attempted, failed = summarize(doc)
    listed = bench_spec["per_layer" if doc["trace"] else "end_to_end"]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in listed},
    }


def write_json(path, obj, indent=None):
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(obj, indent=indent) + "\n")


def write_results(path, doc):
    write_json(path, {"schema": SCHEMA, **doc})


def read_results(path):
    doc = json.loads(path.read_text())
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"{path}: not a {SCHEMA} results file")
    missing = {"workload", "seed", "seconds", "trace", "passes", "peak_rss_mb", "setup_s",
               "result"} - doc.keys()
    if missing:
        raise ValueError(f"{path}: missing {sorted(missing)}")
    result = doc["result"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"{path}: malformed result")
    return doc


def _print_metrics(name, doc):
    metrics, attempted, failed = summarize(doc)
    plain = sum(1 for p in doc["passes"] if not p["traced"])
    print(f"# {name} seed={doc['seed']} trace={doc['trace']}: {len(doc['passes'])} passes "
          f"({plain} untraced), {attempted} commands, {failed} failed")
    for metric, (value, unit) in metrics.items():
        print(f"{name:13s} {metric:52s} {value:16.6f} {unit}")
    for p in doc["passes"]:
        for c in p["commands"]:
            for problem in c["problems"]:
                print(f"FAILED {argv_key(c['argv'])}: {problem}")


def run_one(args, bench_spec, deadline):
    doc = run_workload(args.workload, args.seed, args.seconds, args.trace, deadline)
    doc["result"] = result_line(doc, bench_spec)
    write_results(RESULTS / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json", doc)
    _print_metrics(args.workload, doc)
    print(json.dumps(doc["result"]))


def run_all(args):
    point = {"python": platform.python_version(), "platform": platform.platform(),
             "cpu_count": os.cpu_count(), "seed": args.seed, "seconds": args.seconds,
             "workloads": {}}
    for name in WORKLOADS:
        entry = point["workloads"][name] = {}
        for trace in (False, True):
            doc = run_workload(name, args.seed, args.seconds, trace, time.monotonic() + DEADLINE_S)
            _print_metrics(name, doc)
            metrics, attempted, failed = summarize(doc)
            entry["traced" if trace else "untraced"] = {
                "correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}}
    path = RESULTS / f"all-seed{args.seed}.json"
    write_json(path, point, indent=1)
    print(f"wrote {path.relative_to(ROOT)}")


def record_digests():
    digests = {}
    for name in WORKLOADS:
        out = _program([str(BENCH / "worker.py"), name, str(DEFAULT_SEED), "0", "0", "record"],
                       DEADLINE_S)
        for c in json.loads(out)["passes"][0]["commands"]:
            if c["problems"]:
                raise BenchError(f"{argv_key(c['argv'])}: {c['problems']}")
            digests[argv_key(c["argv"])] = {"rc": c["rc"], "sha256": c["sha256"],
                                            "stdout_bytes": c["stdout_bytes"]}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS.relative_to(ROOT)}: {len(digests)} commands")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(WORKLOADS))
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--record-digests", action="store_true")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        bench_spec = spec()
        if args.seconds is None:
            args.seconds = bench_spec["run_seconds"]
        if args.record_digests:
            record_digests()
        elif args.all:
            run_all(args)
        else:
            run_one(args, bench_spec, deadline)
    except (BenchError, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
