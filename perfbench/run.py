"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mine-medium --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --self-check

Each workload runs in a process of its own with a fixed ``PYTHONHASHSEED``
(so set and dict orders, and with them the work counts, repeat from run
to run) and with ``TMPDIR`` inside the checkout.  The program is imported
from ``src/`` of the checkout; nothing is installed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Above it a table lists every metric of the workload by name, unit and
sample count, and the full report (plus the spans of a traced run) is
written under ``.perfbench_out/``.  The exit code is 0 only if every
operation succeeded and every answer matched its oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("mine-medium", "stream-churn", "service-mixed", "mine-sharded")
CHILD_TIMEOUT_S = 170

#: Which metrics the last JSON line carries is fixed by ``BENCHMARK.json``:
#: its ``end_to_end`` list with ``--trace 0``, its ``per_layer`` list with
#: ``--trace 1``.  Every workload reports all of them; the report file and
#: the table hold the workload-specific rest.
CONTRACT = ROOT / "BENCHMARK.json"


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--self-check",
        action="store_true",
        help="run mine-medium, stream-churn and mine-sharded twice each and "
        "check that their deterministic work counts repeat exactly",
    )
    return parser.parse_args(argv)


def spawn(argv) -> int:
    """Run this script again as a child process and wait for it and its children."""
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0", PERFBENCH_CHILD="1", TMPDIR=str(tmp))
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *argv],
        env=env,
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        return child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"workload exceeded {CHILD_TIMEOUT_S}s; stopped", file=sys.stderr)
        return 1
    finally:
        # The child's process group holds any worker processes it started.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
        shutil.rmtree(tmp, ignore_errors=True)


def report_path(workload: str, seed: int, trace: int) -> Path:
    return OUT / f"{workload}-seed{seed}-trace{trace}.json"


def run_child(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    report = workloads.Report(args.workload, args.seed, args.seconds, bool(args.trace))
    workloads.WORKLOADS[args.workload](report)
    report.finish_common()
    if args.trace:
        workloads.finish_layers(report)
    OUT.mkdir(exist_ok=True)
    path = report_path(args.workload, args.seed, args.trace)
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": report.attempted,
        "failed": report.failed,
        "failures": report.failures,
        "end_to_end": report.metrics,
        "per_layer": report.layers,
        "counts": report.counts,
        "notes": report.notes,
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    if report.tracer is not None:
        report.tracer.write(path.with_suffix(".spans.ndjson"))

    print(f"# {args.workload}  seed={args.seed}  seconds={args.seconds:g}  "
          f"trace={args.trace}  attempted={report.attempted}  failed={report.failed}")
    for name, entry in sorted(report.metrics.items()):
        tail = f"  ({entry['beyond']} beyond)" if "beyond" in entry else ""
        print(f"  {name:<22} {entry['value']:>14.6g} {entry['unit']:<5} "
              f"n={entry['samples']}{tail}")
    for name, entry in sorted(report.layers.items()):
        print(f"  {name:<30} {entry['value']:>14.6g} {entry['unit']}")
    for why in report.failures:
        print(f"  FAILED: {why}")
    print(f"  report: {path.relative_to(ROOT)}")

    contract = json.loads(CONTRACT.read_text())
    listed = contract["per_layer" if args.trace else "end_to_end"]
    measured = report.layers if args.trace else report.metrics
    chosen = {entry["name"]: measured[entry["name"]] for entry in listed}
    print(
        json.dumps(
            {
                "correct": report.failed == 0,
                "attempted": report.attempted,
                "failed": report.failed,
                "metrics": {
                    name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in chosen.items()
                },
            }
        )
    )
    sys.stdout.flush()
    return 0 if report.failed == 0 else 1


def self_check(args) -> int:
    """Deterministic work counts must repeat exactly across same-seed runs."""
    status = 0
    for workload in ("mine-medium", "stream-churn", "mine-sharded"):
        seen = []
        for _ in range(2):
            argv = ["--workload", workload, "--seed", str(args.seed),
                    "--seconds", "1", "--trace", "0"]
            if spawn(argv) != 0:
                print(f"self-check: {workload} run failed", file=sys.stderr)
                return 1
            seen.append(json.loads(report_path(workload, args.seed, 0).read_text())["counts"])
        same = seen[0] == seen[1] and bool(seen[0])
        print(f"self-check {workload}: counts {'repeat' if same else 'DIFFER'}: "
              f"{json.dumps(seen[0], sort_keys=True)}")
        if not same:
            print(f"  second run: {json.dumps(seen[1], sort_keys=True)}")
            status = 1
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse(argv)
    if os.environ.get("PERFBENCH_CHILD") == "1":
        return run_child(args)
    # Stopping this process stops the workload's process group too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.self_check:
        return self_check(args)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        child_argv = ["--workload", name, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, spawn(child_argv))
    return status


if __name__ == "__main__":
    sys.exit(main())
