"""Runs the passes of one workload in a fresh interpreter.

Started by run.py with PYTHONPATH holding the repository's src/ and bench/:

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE [record]

One pass runs every command of the workload through ``phenkf.cli.main``
with stdout captured.  Passes repeat until another one would end after
SECONDS (at least one runs).  With TRACE=1 each round is an untraced pass
followed by a traced one, so that the two can be compared.  Command times
are reported both as measured and calibrated to the reference machine
speed (calibrate.py), from kernel runs before, during and after each
command.  Outputs are checked after each pass, outside the timed region,
and only their digests are kept.  Prints one JSON object with every pass
and the peak RSS.  With ``record``, the recorded digests are not consulted.
"""

import contextlib
import io
import json
import statistics
import sys
import time
import traceback

import calibrate
import phenkf.cli
from tracer import Tracer, layer_metrics
from workloads import WORKLOADS, Record, load_digests, problems


def peak_rss_mb():
    """Peak resident set size of this process in MiB (Linux).

    VmHWM starts afresh at exec, whereas ru_maxrss also carries the
    parent's resident size at the fork.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise OSError("no VmHWM in /proc/self/status")


def run_command(command):
    """The command's record (kernel runs excluded from its seconds) and the
    kernel times sampled while it ran."""
    out, err = io.StringIO(), io.StringIO()
    with calibrate.Sampler() as sampler:
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = phenkf.cli.main(list(command.argv))
            except SystemExit as exc:  # argparse rejects the argv
                rc = exc.code
            except Exception:  # a crash is a failed command, not a failed benchmark
                rc = traceback.format_exc()
        elapsed = time.perf_counter() - start
    return Record(command, rc, out.getvalue(), elapsed - sum(sampler.samples)), sampler.samples


def run_pass(workload, commands, digests, tracer=None):
    """Run every command once, timing the calibration kernel around and
    during each."""
    if tracer is not None:
        tracer.install()
    try:
        records, around = [], []
        before = calibrate.kernel_seconds()
        for command in commands:
            record, samples = run_command(command)
            after = calibrate.kernel_seconds()
            records.append(record)
            around.append(statistics.fmean([before, after, *samples]))
            before = after
    finally:
        if tracer is not None:
            tracer.uninstall()
    found = problems(workload, records, digests)
    entry = {
        "traced": tracer is not None,
        "wall_s": sum(calibrate.scale(r.seconds, k) for r, k in zip(records, around)),
        "raw_wall_s": sum(r.seconds for r in records),
        "commands": [{
            "argv": list(r.command.argv),
            "label": r.command.label,
            "codes": r.command.codes,
            "rc": r.rc,
            "seconds": calibrate.scale(r.seconds, k),
            "raw_seconds": r.seconds,
            "kernel_s": k,
            "stdout_bytes": len(r.stdout.encode()),
            "sha256": r.sha256,
            "problems": p,
        } for r, k, p in zip(records, around, found)],
    }
    if tracer is not None:
        spans = tracer.take_spans()
        # calibrate layer times by the pass's factor; they include the kernel
        # samples taken inside them, about 3 % of the time
        entry["layers"] = layer_metrics(spans, sum(c["stdout_bytes"] for c in entry["commands"]),
                                        entry["wall_s"] / entry["raw_wall_s"])
        entry["spans"] = [list(s) for s in spans]
    return entry


def main(argv):
    name, seed, seconds, trace = argv[:4]
    workload = WORKLOADS[name]
    commands = workload.commands(int(seed))
    digests = {} if argv[4:] == ["record"] else load_digests()
    modes = (None, Tracer) if trace == "1" else (None,)
    passes, rounds = [], []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        for make_tracer in modes:
            tracer = make_tracer() if make_tracer else None
            passes.append(run_pass(workload, commands, digests, tracer))
        rounds.append(time.perf_counter() - start)
        if time.perf_counter() - begin + statistics.median(rounds) > float(seconds):
            break
    json.dump({"passes": passes, "peak_rss_mb": peak_rss_mb()}, sys.stdout)


if __name__ == "__main__":
    main(sys.argv[1:])
