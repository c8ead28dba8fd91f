"""Workload process of the benchmark; started by ``run.py``.

``worker.py setup``  imports pvdkit, generates the workload's inputs from the
seed and writes them; prints the elapsed time and the mean calibration unit
timed after it.

``worker.py run``    drives ``pvdkit.cli.main(argv)`` in-process over the
workload's job list, in whole rounds, while a round still fits in
``--seconds`` (a closed loop: each job starts when the previous one
returns).  With
``--trace 1`` every second round runs under the span recorder and the rounds
in between stay untraced, so the recorder's overhead is measured against
untraced rounds of the same process.  After the timed rounds every report of
the first round is checked independently (``checks.py``) and every later
report must be byte-identical to its first-round copy.  The last line of
standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: A virtual machine on a shared host can run at two speeds, which alternate
#: within seconds and for minutes at a time settle on the slower one (on a
#: 2-vCPU VM a unit below took 6.5 or 10 ms); with no steal time accounted,
#: CPU time drifts with wall time.  A unit
#: of a fixed calibration kernel (no pvdkit code) runs before every job and
#: after every set-up, and times are scaled by REF_UNIT_S over the mean unit
#: of the same run: figures read as seconds on a host whose unit takes
#: REF_UNIT_S, and a change of pvdkit's speed is not hidden by the scaling.
REF_UNIT_S = 0.017
#: units timed after each set-up
SETUP_UNITS = 10


def import_cli():
    """pvdkit.cli from this checkout's ``src/``, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        from pvdkit import cli
    except ImportError as exc:
        sys.exit(f"error: cannot import pvdkit from {SRC}: {exc}")
    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"error: pvdkit was imported from {cli.__file__}, not from {SRC}")
    return cli


def calibration_unit() -> float:
    """Seconds taken by one unit of the calibration kernel: pure-Python
    dictionary updates, small NumPy calls and small BLAS products, the three
    kinds of work pvdkit's commands do (about 17 ms in all)."""
    import numpy as np      # here, so that set-up times its own import of numpy
    M = np.random.default_rng(0).standard_normal((120, 120))
    v = np.arange(64.0)
    acc: dict = {}
    start = perf_counter()
    for i in range(40_000):
        acc[i & 1023] = acc.get(i & 1023, 0) + i
    for _ in range(1_500):
        v = np.abs(v * 0.5 - 1.0)
    for _ in range(6):
        M @ M
    return perf_counter() - start


def setup(args) -> None:
    start = perf_counter()
    import_cli()
    sys.path.insert(0, HERE)
    import workloads
    workloads.build(args.workload, args.seed).write(args.inputs)
    elapsed = perf_counter() - start
    unit = statistics.fmean(calibration_unit() for _ in range(SETUP_UNITS))
    print(json.dumps({"setup_s": elapsed, "unit_s": unit}))


def run_round(cli, jobs, input_dir: str, report_dir: str) -> tuple:
    times, codes, units = [], [], []
    for i, job in enumerate(jobs):
        out = os.path.join(report_dir, f"{i:02d}.json")
        if os.path.exists(out):
            os.remove(out)
        argv = job.argv(input_dir, out)
        units.append(calibration_unit())
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:       # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        times.append(perf_counter() - start)
        codes.append(code)
    return times, codes, units


def read_reports(n: int, report_dir: str) -> list:
    out = []
    for i in range(n):
        try:
            with open(os.path.join(report_dir, f"{i:02d}.json"), "rb") as fh:
                out.append(fh.read())
        except FileNotFoundError:
            out.append(None)
    return out


def check_reports(workload, reports) -> list:
    """Per job: None when the report is certified and agrees with the
    independent checks, else (kind, reason) for why it counts as failed."""
    import checks
    verdicts = []
    for job, raw in zip(workload.jobs, reports):
        if raw is None:
            verdicts.append(("error", "no report written"))
            continue
        report = json.loads(raw)
        try:
            bad = checks.check(job, report, workload.arrays[job.input])
        except Exception:  # a malformed report must not stop the benchmark
            bad = ["check raised: " + traceback.format_exc(limit=2).strip().replace("\n", " | ")]
        if bad:
            verdicts.append(("error", "; ".join(bad)))
        elif not report["certificates"]:
            verdicts.append(("uncertified", "report lists no certificates"))
        else:
            verdicts.append(None)
    return verdicts


def run(args) -> None:
    cli = import_cli()
    sys.path.insert(0, HERE)
    import workloads
    from recorder import Recorder

    workload = workloads.build(args.workload, args.seed)
    jobs = workload.jobs
    report_dir = os.path.join(args.inputs, "reports")
    os.makedirs(report_dir, exist_ok=True)

    # with --trace 1 every second round runs under the recorder
    rounds = []
    first = None
    deadline = perf_counter() + args.seconds
    last = 0.0      # duration of the last round; a round is begun only if it fits
    while not rounds or (args.trace and len(rounds) % 2) \
            or perf_counter() + last < deadline:
        begun = perf_counter()
        recorder = Recorder().install() if args.trace and len(rounds) % 2 == 1 else None
        try:
            times, codes, units = run_round(cli, jobs, args.inputs, report_dir)
        finally:
            if recorder is not None:
                recorder.uninstall()
        reports = read_reports(len(jobs), report_dir)
        first = first or reports
        same = [r is not None and r == f for r, f in zip(reports, first)]
        rounds.append({"times": times, "codes": codes, "units": units, "same": same,
                       "recorder": recorder})
        last = perf_counter() - begun
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verdicts = check_reports(workload, first)
    attempted = failed = 0
    unexpected = []
    for r, rnd in enumerate(rounds):
        for i, job in enumerate(jobs):
            attempted += 1
            reason = verdicts[i]
            if rnd["codes"][i] != 0:
                reason = ("error", f"exit code {rnd['codes'][i]}")
            elif not rnd["same"][i]:
                reason = ("error", "report differs from the first round")
            if reason is not None:
                failed += 1
                if reason[0] == "error":
                    unexpected.append(f"round {r} job {i} ({job.command} {job.input}): {reason[1]}")
                elif r == 0:
                    print(f"failed: job {i} ({job.command} {job.input}): {reason[1]}",
                          file=sys.stderr)
    for line in unexpected[:20]:
        print("incorrect: " + line, file=sys.stderr)

    untraced = [rnd for rnd in rounds if rnd["recorder"] is None]
    if args.trace:
        traced = [rnd for rnd in rounds if rnd["recorder"] is not None]
        per_round = [rnd["recorder"].metrics() for rnd in traced]
        metrics = {name: {"value": statistics.median(m[name] for m in per_round),
                          "unit": _unit(name)} for name in per_round[0]}
        overhead = job_list_time(traced) / job_list_time(untraced) - 1.0
        metrics["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
        metrics["trace.spans"] = {"value": statistics.median(len(rnd["recorder"].spans)
                                                             for rnd in traced),
                                  "unit": "count"}
        write_trace(args, traced)
    else:
        measured = untraced[:1]     # the same jobs for a faster and a slower build
        metrics = {"run_norm_s": {"value": job_list_time(measured), "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
        print(f"unscaled run_s {job_list_time(measured, scaled=False):.6f} s, calibration "
              f"unit mean {statistics.fmean(unit_times(measured)):.6f} s")
        # per-subcommand latencies: medians over every job of that kind
        by_metric: dict = {}
        for rnd in rounds:
            for job, t in zip(jobs, rnd["times"]):
                by_metric.setdefault(job.metric, []).append(t)
        for name, samples in by_metric.items():
            print(f"latency {name} median {statistics.median(samples):.6f} s "
                  f"over {len(samples)} jobs")
    print(f"rounds {len(rounds)} attempted {attempted} failed {failed}")
    print(json.dumps({"correct": not unexpected, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def job_list_time(rounds, scaled: bool = True) -> float:
    """Time of one pass over the job list: the mean over the rounds of the
    sum of their job latencies, scaled to the reference speed by the mean
    calibration unit of the same rounds.  Means, not medians: the host's
    two speeds mix in a share that drifts, and a job's time, like the mean
    unit, grows with the share of the slow speed while the median unit
    jumps from one speed to the other."""
    total = statistics.fmean(sum(rnd["times"]) for rnd in rounds)
    return total * REF_UNIT_S / statistics.fmean(unit_times(rounds)) if scaled else total


def unit_times(rounds) -> list:
    return [u for rnd in rounds for u in rnd["units"]]


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def write_trace(args, traced_rounds) -> None:
    """Spans of the traced rounds as JSON lines, written once at the end."""
    out_dir = os.path.join(ROOT, ".bench_run")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for r, rnd in enumerate(traced_rounds):
            rec = rnd["recorder"]
            fh.write(json.dumps({"round": r, "calls": dict(rec.calls)}) + "\n")
            for sid, parent, layer, start, end in rec.spans:
                fh.write(json.dumps({"round": r, "id": sid, "parent": parent,
                                     "name": layer, "start": start, "end": end}) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "run"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", required=True, help="directory for inputs and reports")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    (setup if args.mode == "setup" else run)(args)


if __name__ == "__main__":
    main()
