"""Command-line entry points.

    sensetrace generate --config scenario.yaml --out runs/demo [--seed N]
    sensetrace detect   --data runs/demo --config scenario.yaml --tier FULL
    sensetrace evaluate --data runs/demo --decisions decisions_full.jsonl
    sensetrace report   --data runs/demo --decisions decisions_full.jsonl

``generate`` writes per-device JSONL traces, the ground truth and the
instance list; ``detect`` replays the fusion pipeline over the traces;
``evaluate`` emits the confusion counts and accuracy; ``report`` emits
plot-ready CSVs (distance-error CDF, magnetic separation per distance band).
Output files are written atomically and embed the seed and a config digest.
Errors print machine-readable JSON on stderr and exit non-zero.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .core import (
    atomic_write,
    canonical_pair,
    label_from_record,
    label_to_json,
    read_jsonl,
    read_trace,
    write_trace,
)
from .errors import SenseTraceError
from .evaluation import (
    TierSpec,
    accuracy,
    confusion,
    distance_error_cdf,
    detect_instances,
    magnetic_separation_report,
    magnitude_sequences,
    tier_gates,
)
from .fusion import decision_from_record, decision_to_json
from .simulator import config_hash, generate_traces, load_scenario


Instance = tuple[tuple[str, str], float, float]


def _instance_to_json(pair: tuple[str, str], window: tuple[float, float]) -> str:
    return json.dumps({"pair": sorted(pair), "window": list(window)}, separators=(",", ":"))


def _read_instances(path: Path) -> list[Instance]:
    """Every (pair, start, end) line of ``path``; a repeated instance is an error."""
    seen: set[Instance] = set()

    def parse(record: dict) -> Instance:
        start, end = record["window"]
        if not end > start:
            raise ValueError("window end must exceed start")
        instance = (canonical_pair(record["pair"]), start, end)
        if instance in seen:
            raise ValueError(f"duplicate instance {instance}")
        seen.add(instance)
        return instance

    return read_jsonl(path, parse)


def _read_meta(data_dir: Path) -> dict:
    path = data_dir / "meta.json"
    if not path.exists():
        return {}
    try:
        meta = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise SenseTraceError(f"{path}:{getattr(exc, 'lineno', 1)}: {type(exc).__name__}: {exc}") from exc
    if not isinstance(meta, dict):
        raise SenseTraceError(f"{path}:1: expected a JSON object")
    return meta


def _load_traces(data_dir: Path) -> dict:
    traces = {}
    for path in sorted((data_dir / "traces").glob("*.jsonl")):
        traces[path.stem] = read_trace(path)
    if not traces:
        raise SenseTraceError(f"no trace files under {data_dir / 'traces'}")
    return traces


def _csv_text(header_comments: Sequence[str], columns: Sequence[str], rows) -> str:
    buf = io.StringIO()
    for comment in header_comments:
        buf.write(f"# {comment}\n")
    writer = csv.writer(buf)
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def cmd_generate(args: argparse.Namespace) -> int:
    scenario, raw = load_scenario(args.config, seed=args.seed)
    data = generate_traces(scenario)
    out = Path(args.out)

    for device, samples in sorted(data.traces.items()):
        write_trace(out / "traces" / f"{device}.jsonl", samples)
    atomic_write(out / "truth.jsonl", "".join(label_to_json(lb) + "\n" for lb in data.labels))
    atomic_write(
        out / "instances.jsonl",
        "".join(_instance_to_json(inst.pair, data.window) + "\n" for inst in data.instances),
    )

    meta = {
        "seed": data.seed,
        "config_sha256": config_hash(raw),
        "instances": len(data.instances),
        "devices": len(data.traces),
    }
    atomic_write(out / "meta.json", json.dumps(meta, indent=2) + "\n")
    print(f"generated {len(data.instances)} instances / {len(data.traces)} traces -> {out}")
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    data_dir = Path(args.data)
    scenario, _ = load_scenario(args.config)
    tier = TierSpec(args.tier)
    traces = _load_traces(data_dir)

    instances = _read_instances(data_dir / "instances.jsonl")
    records = detect_instances(traces, instances, scenario.fusion, tier_gates(tier))
    name = args.out or f"decisions_{tier.value.lower()}.jsonl"
    atomic_write(data_dir / name, "".join(decision_to_json(r) + "\n" for r in records))
    contacts = sum(1 for r in records if r.decision.contact)
    print(f"{tier.value}: {contacts}/{len(records)} contacts -> {data_dir / name}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    data_dir = Path(args.data)
    truth = read_jsonl(data_dir / "truth.jsonl", label_from_record)
    records = read_jsonl(data_dir / args.decisions, decision_from_record)

    counts = confusion(records, truth)
    acc = accuracy(counts)
    meta = _read_meta(data_dir)
    comments = [
        f"seed={meta.get('seed', 'unknown')}",
        f"config_sha256={meta.get('config_sha256', 'unknown')}",
    ]
    rows = [
        ["tp", counts.tp],
        ["fp", counts.fp],
        ["tn", counts.tn],
        ["fn", counts.fn],
        ["accuracy", f"{acc:.6f}"],
    ]
    atomic_write(data_dir / "metrics.csv", _csv_text(comments, ["metric", "value"], rows))
    payload = {**counts.as_dict(), "accuracy": acc, **meta}
    atomic_write(data_dir / "confusion.json", json.dumps(payload, indent=2) + "\n")
    print(
        f"tp={counts.tp} fp={counts.fp} tn={counts.tn} fn={counts.fn} "
        f"accuracy={acc:.4f} -> {data_dir / 'metrics.csv'}"
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    data_dir = Path(args.data)
    truth = read_jsonl(data_dir / "truth.jsonl", label_from_record)
    records = read_jsonl(data_dir / args.decisions, decision_from_record)
    traces = _load_traces(data_dir)
    meta = _read_meta(data_dir)
    comments = [
        f"seed={meta.get('seed', 'unknown')}",
        f"config_sha256={meta.get('config_sha256', 'unknown')}",
    ]

    by_key = {(lb.pair, lb.start, lb.end): lb for lb in truth}
    estimated, actual = [], []
    for rec in records:
        label = by_key.get(rec.key)
        if label is not None and rec.decision.mean_distance is not None:
            estimated.append(rec.decision.mean_distance)
            actual.append(label.true_distance)
    if estimated:
        cdf = distance_error_cdf(estimated, actual)
        atomic_write(
            data_dir / "cdf.csv",
            _csv_text(comments, ["abs_error_m", "cumulative_fraction"], cdf),
        )

    items = []
    for label in truth:
        a, b = label.pair
        seq_a = magnitude_sequences(traces, a)
        seq_b = magnitude_sequences(traces, b)
        if seq_a and seq_b:
            items.append((label.true_distance, seq_a, seq_b))
    stats = magnetic_separation_report(items)
    rows = [
        [s.d_lo, s.d_hi, s.count,
         "" if s.mean is None else f"{s.mean:.6f}",
         "" if s.std is None else f"{s.std:.6f}"]
        for s in stats
    ]
    atomic_write(
        data_dir / "magnetic_buckets.csv",
        _csv_text(comments, ["d_lo_m", "d_hi_m", "count", "mean_euclid_ut", "std_euclid_ut"], rows),
    )
    print(f"reports -> {data_dir / 'cdf.csv'}, {data_dir / 'magnetic_buckets.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sensetrace",
        description="Multi-sensor contact tracing: simulate, detect, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="scenario config -> traces + ground truth")
    g.add_argument("--config", required=True, help="scenario YAML file")
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--seed", type=int, default=None, help="override the config seed")
    g.set_defaults(func=cmd_generate)

    d = sub.add_parser("detect", help="traces -> contact decisions")
    d.add_argument("--data", required=True, help="directory produced by generate")
    d.add_argument("--config", required=True, help="scenario YAML file")
    d.add_argument(
        "--tier",
        default=TierSpec.FULL.value,
        choices=[t.value for t in TierSpec],
    )
    d.add_argument("--out", default=None, help="decisions filename (within --data)")
    d.set_defaults(func=cmd_detect)

    e = sub.add_parser("evaluate", help="decisions + truth -> metrics")
    e.add_argument("--data", required=True)
    e.add_argument("--decisions", required=True, help="decisions filename (within --data)")
    e.set_defaults(func=cmd_evaluate)

    r = sub.add_parser("report", help="plot-ready CSVs (CDF, magnetic buckets)")
    r.add_argument("--data", required=True)
    r.add_argument("--decisions", required=True)
    r.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SenseTraceError as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1
    except OSError as exc:
        print(json.dumps({"error": "OSError", "message": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
