"""Benchmark entry point: one command for the train and serve paths.

    python3 perfbench/run.py --workload train-sbm --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  Workloads: ``train-sbm`` and
``tcp-sharded`` (see ``perfbench/NOTES.md``).  The
inputs are generated from ``--seed`` once and cached under
``perfbench/.cache``; the run measures for about ``--seconds`` seconds,
checks the program's outputs against a reference, prints every metric
by name and unit, and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
layers' public functions with spans and reports the per-layer metrics,
writing a Chrome trace-event file and a self-time table per layer to
``perfbench/out``.  Exits 1 when an output check fails, 2 when the
program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread per process: the pool workers and shard processes
# already fill both cores, and nested BLAS threads only add scheduling
# noise.  Set before numpy loads; children and the server inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    OUT_DIR,
    ROOT,
    become_subreaper,
    environment,
    loadavg,
    reap_all,
)

WORKLOADS = ("train-sbm", "tcp-sharded")


def _declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def _own_layers(workload: str) -> list:
    """Per-layer metrics the workload measures; the others read 0, as
    their layers do no work on it."""
    import serve
    import train_sbm

    if workload == "train-sbm":
        return train_sbm.PER_LAYER + ["trace.overhead_share"]
    return serve.PER_LAYER


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing (run from the root of a checkout)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    declared = _declared()
    load_before = loadavg()
    become_subreaper()
    # a SIGTERM unwinds through the finally below, so the run still
    # stops its servers and pools and waits for them
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    t0 = time.perf_counter()
    try:
        if args.workload == "train-sbm":
            import train_sbm

            out = train_sbm.run(args.seed, args.seconds, bool(args.trace))
        else:
            import serve

            out = serve.run(args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        print(f"error: workload {args.workload} failed", file=sys.stderr)
        return 1
    finally:
        # every process the run started, the resource trackers and the
        # server's orphans included, has ended before the result prints
        killed = reap_all()
    elapsed = time.perf_counter() - t0
    out.check("no_process_left_at_exit", not killed)
    if killed:
        out.notes["killed_at_exit"] = killed

    names = declared["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        own = _own_layers(args.workload)
        for name, unit in names.items():
            if name not in own:
                out.put(name, 0.0, unit)
    wrong = [n for n, unit in names.items() if out.units.get(n) != unit]
    if wrong:
        print(f"error: metrics not measured as declared: {wrong}",
              file=sys.stderr)
        return 1

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "elapsed_s": elapsed,
        "environment": environment(numpy.__version__),
        "loadavg_before": load_before,
        "loadavg_after": loadavg(),
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "checks": out.checks,
        "metrics": {n: {"value": v, "unit": out.units[n]}
                    for n, v in out.metrics.items()},
        "notes": out.notes,
    }
    if out.tracer is not None:
        trace_path = OUT_DIR / f"{args.workload}-seed{args.seed}.trace.json"
        ledger_path = OUT_DIR / f"{args.workload}-seed{args.seed}.ledger.txt"
        out.tracer.write_chrome(trace_path)
        rows = out.tracer.ledger(out.root)
        lines = [f"{'layer':<24}{'self_s':>10}{'share':>9}"]
        lines += [f"{layer:<24}{sec:>10.4f}{share:>8.1%}"
                  for layer, sec, share in rows]
        lines.append(f"(self time inside the traced {out.root} spans, as a "
                     "share of their wall time; spans on executor threads "
                     "overlap the main thread)")
        ledger_path.write_text("\n".join(lines) + "\n")
        record["trace_file"] = trace_path.name
        record["ledger"] = [
            {"layer": layer, "self_s": sec, "share": share}
            for layer, sec, share in rows
        ]
        print("\n".join(lines))
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    env = record["environment"]
    print(f"{args.workload} seed={args.seed} nproc={env['nproc']} "
          f"python={env['python']} numpy={env['numpy']} "
          f"load={load_before}->{record['loadavg_after']} "
          f"elapsed={elapsed:.1f}s")
    for key, value in out.notes.items():
        print(f"  note {key} = {value}")
    for name in names:
        print(f"  {name:<30} {out.metrics[name]:>16.6g} {out.units[name]}")
    for name, ok in out.checks.items():
        if not ok:
            print(f"  CHECK FAILED: {name}")
    result = {
        "correct": out.correct,
        "attempted": max(1, out.attempted),
        "failed": out.failed,
        "metrics": {n: {"value": out.metrics[n], "unit": out.units[n]}
                    for n in names},
    }
    print(json.dumps(result))
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
