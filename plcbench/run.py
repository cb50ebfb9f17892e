"""Benchmark of plc: four closed-loop workloads with one client each.

Run from the repository root:

    python3 plcbench/run.py --workload validity|explain|update|cli|all \
        --seed N --seconds S --trace 0|1

With `--trace 0` it sets up the workload several times (reporting the median
set-up time), runs whole rounds of queries until `--seconds` have passed, at
least MIN_QUERIES were attempted and the workload's `min_rounds` are done,
checks every answer with the checkers in `check.py`, plants one wrong answer
to show the checks catch it, and prints the end-to-end metrics.  With
`--trace 1` it runs a fixed number of rounds with the layer wrappers of
`tracing.py` installed and prints the per-layer metrics.  `--workload all`
runs the four workloads one after the other.  The last line of stdout is
the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SETUP_REPS_BEFORE, SETUP_REPS_AFTER = 3, 4  # setup_s is the median of these set-ups
MIN_QUERIES = 100  # so that at least ten queries lie beyond the 90th percentile
WORKLOAD_NAMES = ("validity", "explain", "update", "cli")
IMPORT_PROBE = "import time; t = time.perf_counter(); import plc; print(time.perf_counter() - t)"


def fail(message: str) -> None:
    print(f"plcbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def import_seconds() -> float:
    """`import plc` in a fresh interpreter, timed inside it."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(), cwd=ROOT,
                         capture_output=True, text=True, check=True)
    return float(out.stdout)


def set_up(wl, seed: int, work: str, reps: int) -> list[float]:
    """Set the workload up `reps` times; the last set-up is the one used."""
    times = []
    for _ in range(reps):
        t_import = import_seconds()
        t0 = time.perf_counter()
        wl.setup(seed, work)
        times.append(t_import + time.perf_counter() - t0)
    return times


def warm_up(wl) -> None:
    """Untimed queries of round 0, for workloads with `warmup_queries`;
    their answers are dropped."""
    for q in wl.round(0)[: getattr(wl, "warmup_queries", 0)]:
        try:
            wl.run(q)
        except Exception:  # the timed phase counts failures
            pass


def measure(wl, seconds: float, rounds: int | None, tracer=None):
    """Closed loop: each query starts when the previous one returns."""
    records, latencies = [], []
    collect = getattr(wl, "collect", None)
    min_rounds = getattr(wl, "min_rounds", 1)
    warm_up(wl)
    t_start = time.perf_counter()
    r = 0
    while True:
        for q in wl.round(r):
            if tracer is not None:
                tracer.qid = q.qid
            t0 = time.perf_counter()
            try:
                answer, error = wl.run(q), None
            except Exception as exc:  # a failed query is counted, not fatal
                answer, error = None, exc
            latencies.append(time.perf_counter() - t0)
            if error is None and collect is not None:
                answer = collect(q, answer)
            records.append((q, answer, error))
        r += 1
        elapsed = time.perf_counter() - t_start
        if rounds is not None:
            if r >= rounds:
                break
        elif elapsed >= seconds and len(latencies) >= MIN_QUERIES and r >= min_rounds:
            break
    return records, latencies, time.perf_counter() - t_start


def judge(wl, records):
    """(failed, wrong answers, self-test message); runs after timing."""
    failed, wrong, failures, plantable = 0, [], [], None
    for q, answer, error in records:
        if error is not None:
            failed += 1
            failures.append(f"{q.label or q.qid}:{type(error).__name__}")
            continue
        problem = wl.check(q, answer)
        if problem is None:
            if plantable is None and wl.plant(q, answer) is not None:
                plantable = (q, answer)
        elif q.known_fault:
            failed += 1
            failures.append(f"{q.label or q.qid}:wrong-answer")
        else:
            wrong.append(f"query {q.qid}: {problem}")
    if failures:
        print(f"failed queries: {' '.join(sorted(set(failures)))}", file=sys.stderr)
    if plantable is None:
        wrong.append("self-test: no correct answer to plant a wrong copy of")
        return failed, wrong, None
    q, answer = plantable
    bad, what = wl.plant(q, answer)
    if wl.check(q, bad) is None:
        wrong.append(f"self-test: {what} in query {q.qid} was not flagged")
        return failed, wrong, None
    return failed, wrong, f"self-test: {what} in query {q.qid} was flagged"


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(wl, args, work):
    # set-ups before and after the timed phase, so that their median spans
    # the run rather than one moment of it
    setups = set_up(wl, args.seed, work, 1 if args.rounds else SETUP_REPS_BEFORE)
    records, lat, wall = measure(wl, args.seconds, args.rounds)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB
    failed, wrong, selftest = judge(wl, records)
    if not args.rounds:
        setups += set_up(wl, args.seed, work, SETUP_REPS_AFTER)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "queries_per_s": metric(len(lat) / wall, "1/s"),
        "query_p50_ms": metric(statistics.median(lat) * 1e3, "ms"),
        "query_p90_ms": metric(statistics.quantiles(lat, n=10)[-1] * 1e3, "ms"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }
    return records, failed, wrong, selftest, metrics, wall


def cli_layer_metrics(children: list[dict]) -> dict:
    """Per-invocation means of the CLI layers, from the launchers' summaries."""
    def per_call(name):
        used = [c["summary"]["total"].get(name, 0.0) for c in children
                if c["summary"]["calls"].get(name, 0)]
        return 1e3 * sum(used) / len(used) if used else 0.0

    n = len(children)
    command = [c["summary"]["total"].get("cli", 0.0) - c["summary"]["total"].get("modelio.load", 0.0)
               - c["summary"]["total"].get("modelio.dump", 0.0) for c in children]
    return {
        "cli.startup_ms": 1e3 * sum(c["startup_s"] for c in children) / n if n else 0.0,
        "cli.command_ms": 1e3 * sum(command) / n if n else 0.0,
        "modelio.load_ms": per_call("modelio.load"),
        "modelio.dump_ms": per_call("modelio.dump"),
        "models.normalize_ms": per_call("models.normalize"),
    }


def merge(summary: dict, other: dict) -> None:
    for key in ("total", "self", "calls", "counts"):
        for name, value in other[key].items():
            summary[key][name] = summary[key].get(name, 0) + value
    summary["absent"] = sorted(set(summary["absent"]) | set(other["absent"]))


UNITS = {"_s": "s", "_ms": "ms", "_pct": "%"}


def run_traced(wl, args, work):
    import tracing

    # the untraced reference: the same rounds in a fresh process
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
           "--rounds", str(wl.rounds_for_trace)]
    ref = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if ref.returncode != 0:
        fail(f"untraced reference run failed: {ref.stderr.strip()[-300:]}")
    ref_result = json.loads(ref.stdout.strip().splitlines()[-1])
    ref_wall = ref_result["attempted"] / ref_result["metrics"]["queries_per_s"]["value"]

    tracer = tracing.Tracer()
    tracer.install()
    if wl.name == "cli":
        wl.launcher = os.path.join(HERE, "cli_launch.py")
    set_up(wl, args.seed, work, 1)
    records, lat, wall = measure(wl, 0, wl.rounds_for_trace, tracer)
    tracer.uninstall()
    failed, wrong, selftest = judge(wl, records)
    summary = tracer.summary()
    children = getattr(wl, "child_traces", [])
    for child in children:
        merge(summary, child["summary"])
    layers = tracing.layer_metrics(summary)
    layers.update(cli_layer_metrics(children))
    layers["trace.overhead_pct"] = 100 * (wall / ref_wall - 1)
    if summary["absent"]:
        print(f"absent layers (read as 0): {' '.join(summary['absent'])}", file=sys.stderr)
    out_dir = os.path.join(HERE, "_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.dump(os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json"),
                {"workload": args.workload, "seed": args.seed, "children": children})
    metrics = {}
    for name, value in layers.items():
        unit = next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "count")
        metrics[name] = metric(value, "ratio" if name.endswith("per_axp") else unit)
    return records, failed, wrong, selftest, metrics, wall


def run_all(args) -> None:
    """Each workload in its own process, one after the other; the last line
    sums the counts and prefixes each metric with its workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            fail(f"workload {name} exited with code {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric_name, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric_name}"] = value
    print(json.dumps(combined))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rounds", type=int, help="run exactly this many rounds (reference runs)")
    args = ap.parse_args()
    if os.environ.get("PYTHONHASHSEED") != "0":
        # plc iterates over sets of atom names, whose order follows string
        # hashing; a fixed hash seed makes the work, and so the counts, repeat
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})

    if not os.path.isfile(os.path.join(SRC, "plc", "__init__.py")):
        fail("no plc sources under ./src; run this from the root of a plc checkout")
    if args.workload == "all":
        run_all(args)
        return
    sys.path.insert(0, SRC)
    import plc

    if not os.path.abspath(plc.__file__).startswith(SRC + os.sep):
        fail(f"imported plc from {plc.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](ROOT)
    work = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        runner = run_traced if args.trace else run_untraced
        records, failed, wrong, selftest, metrics, wall = runner(wl, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in wrong[:20]:
        print(f"WRONG {line}", file=sys.stderr)
    if selftest:
        print(selftest)
    print(f"{args.workload}: {len(records)} queries in {wall:.2f} s, {failed} failed, "
          f"{len(wrong)} wrong")
    print(json.dumps({"correct": not wrong, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
