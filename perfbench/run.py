"""sensetrace benchmark: one workload per invocation.

    python3 perfbench/run.py --workload standard --seed 42 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
its per-layer metrics from a traced pass. Outputs are checked before any
number is reported; on a mismatch the run prints the problems on stderr and
exits 3 without a result. The last stdout line is the result object; the
lines before it are the run's stamp and a readable summary. The full record
(and, when traced, the spans) is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("standard", "scaled10", "protocol")


def git_sha(root: Path) -> str:
    """HEAD's commit read from ``.git`` without running git; "unknown" in
    an export that carries no repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def emit(spec: dict, section: str, values: dict, idle_layers: tuple[str, ...]) -> dict:
    """The result's metrics: every metric ``section`` of BENCHMARK.json
    names, with its unit. A layer the workload never calls reads 0."""
    metrics = {}
    for m in spec[section]:
        name = m["name"]
        if name in values:
            value = values[name]
        elif name.startswith(idle_layers):
            value = 0
        else:
            raise KeyError(f"the workload measured no value for {name}")
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path):
    """Dispatch; returns (values, attempted, failed, details, problems, idle layers)."""
    # Imported here: both import sensetrace, which main() puts on sys.path.
    import pipeline
    import protocol_bench

    if workload == "protocol":
        return (*protocol_bench.run(seed, seconds, trace), pipeline.LAYERS)
    return (*pipeline.run(workload, ROOT, seed, seconds, trace, out_dir), protocol_bench.LAYERS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0, help="measure at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("BENCHMARK.json", "src/sensetrace", "configs/standard.yaml") if not (ROOT / p).exists()]
    if missing:
        print(json.dumps({"error": "not a sensetrace checkout", "missing": missing}), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    # All load comes from this one process: no BLAS or OpenMP pools.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "load_1min_at_start": os.getloadavg()[0],
    }
    print(json.dumps({"stamp": stamp}))

    values, attempted, failed, details, problems, idle = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), OUT
    )
    if problems:
        print(json.dumps({"error": "output check failed", "problems": problems}), file=sys.stderr)
        return 3

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        # A traced run prints its untraced part too, so that one command
        # shows every metric; only the per-layer ones form the result.
        details["peak_rss_mb"] = peak_rss_mb
        metrics = emit(spec, "per_layer", values, idle)
    else:
        metrics = emit(spec, "end_to_end", dict(values, peak_rss_mb=peak_rss_mb), idle)
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = details.pop("tracer", None)
    if tracer is not None:
        tracer.write_jsonl(OUT / f"{name}-spans.jsonl", {"stamp": stamp})
    record = {"stamp": stamp, "attempted": attempted, "failed": failed, "details": details, "metrics": metrics}
    (OUT / f"{name}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )

    print(json.dumps({"details": details}))
    print(f"fail_ratio {failed}/{attempted} operations")
    for mode, ratio in details.get("missed_notifications", {}).items():
        print(f"fail_ratio {ratio} {mode} notifications missed")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in details.get("untraced", {}).items():
        print(f"{name} {value} {units[name]} (untraced part of this run)")
    if args.trace:
        print(f"peak_rss_mb {peak_rss_mb} MB (whole run, traced pass included)")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
