"""Pipeline workloads: the CLI sequence generate -> detect x3 -> evaluate x3
-> report, run in process through ``sensetrace.cli.main``.

``standard`` is the 240-instance scenario of ``configs/standard.yaml``;
``scaled10`` multiplies every bucket count by ten (2,400 instances). Each
pass writes into a fresh directory. Outputs are checked after every pass,
outside the timed interval, before any timing is reported.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import shutil
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import yaml

from sensetrace import cli, envmatch, evaluation, fusion
from sensetrace.core import SensorSample, make_window, read_trace
from sensetrace.evaluation import TierSpec, tier_gates
from sensetrace.fusion import DecisionRecord, build_evidence, decide, decision_to_json
from sensetrace.simulator import load_scenario, scenario_from_dict, write_config
from sensetrace.simulator import scenario as sim_scenario

from hostspeed import SpeedClock, json_probe
from tracing import END, NAME, START, NullTracer, Tracer

TIERS = tuple(t.value for t in TierSpec)
SCALES = {"standard": 1, "scaled10": 10}
SETUP_REPEATS = 9
SPOT_CHECKS = 4
LAYERS = ("cli.", "simulator.", "core.", "fusion.", "envmatch.", "ranging.", "evaluation.")

# Outputs of the seed commit at seed 42: SHA-256 of the trace files (see
# ``trace_digest``), of each tier's decision file, and (tp, fp, tn, fn).
PINNED_SEED = 42
PINNED = {
    "standard": {
        "traces": "5b4ec571d16807be41277c164cd64f157e8d7e9e975032e28b6129b7e7b49f16",
        "decisions": {
            "APPEARANCE_ONLY": "27ab1fe1a05b69d2d51c46cec60160999186018d8f8eb162bf78cd89ad6b6ce4",
            "APPEARANCE_DISTANCE": "b73b3a81cb66ddcfa763db1b02d0d39a2173681de1fd79a801bf2bcbc4df1d26",
            "FULL": "be9db7143bca3b205dc5ac7520703d3e0ac50815e2a1c5feee82444130fb8cda",
        },
        "counts": {
            "APPEARANCE_ONLY": (60, 175, 5, 0),
            "APPEARANCE_DISTANCE": (41, 15, 165, 19),
            "FULL": (41, 9, 171, 19),
        },
    },
    "scaled10": {
        "traces": "585bd11e23804e62ab6165716b125a297c4f6dd60bc365af06fbe6ffe84ab7ba",
        "decisions": {
            "APPEARANCE_ONLY": "041993445b2b3cfde0d739a1053af61720a6292beaaf0ae6e64ffee2f6f483a0",
            "APPEARANCE_DISTANCE": "c0ff4fac89254abd8df61c69d7b367e541828b5f7934804f6e3351e9b16128be",
            "FULL": "90a407c76635473abb282f495f54aced02dae2e683616ff1ded9461e59b6a444",
        },
        "counts": {
            "APPEARANCE_ONLY": (600, 1749, 51, 0),
            "APPEARANCE_DISTANCE": (389, 119, 1681, 211),
            "FULL": (386, 107, 1693, 214),
        },
    },
}


@dataclass
class PassOutput:
    step_s: list[float]  # wall time of each subcommand, probes excluded
    step_ref_s: list[float]  # the same, corrected for host speed
    attempted: int
    failed: int
    digests: dict[str, str] = field(default_factory=dict)
    counts: dict[str, tuple[int, int, int, int]] = field(default_factory=dict)
    cli_output: str = ""


def scaled_config(root: Path, factor: float) -> dict:
    """``configs/standard.yaml`` with every bucket count multiplied by
    ``factor`` (rounded), validated by the package's own parser."""
    raw = yaml.safe_load((root / "configs" / "standard.yaml").read_text(encoding="utf-8"))
    for bucket in raw["instances"]["buckets"]:
        bucket["indoor"] = int(round(bucket["indoor"] * factor))
        bucket["outdoor"] = int(round(bucket["outdoor"] * factor))
    scenario_from_dict(raw)
    return raw


def setup(root: Path, factor: float, work: Path) -> tuple[Path, int]:
    """Write the run's config into a fresh work directory; returns the
    config path and the number of instances it plans."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    raw = scaled_config(root, factor)
    path = work / "config.yaml"
    write_config(path, raw)
    planned = sum(b["indoor"] + b["outdoor"] for b in raw["instances"]["buckets"])
    return path, planned


def cli_steps(config: Path, data: Path, seed: int) -> list[tuple[str, Optional[str], list[str]]]:
    steps = [("generate", None, ["generate", "--config", str(config), "--out", str(data), "--seed", str(seed)])]
    for tier in TIERS:
        decisions = f"decisions_{tier.lower()}.jsonl"
        steps.append(("detect", tier, ["detect", "--data", str(data), "--config", str(config), "--tier", tier]))
        steps.append(("evaluate", tier, ["evaluate", "--data", str(data), "--decisions", decisions]))
    steps.append(("report", None, ["report", "--data", str(data), "--decisions", "decisions_full.jsonl"]))
    return steps


def _call_cli(argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        return exc.code if isinstance(exc.code, int) and exc.code else 1
    except Exception as exc:  # a crash is a failed subcommand, reported below
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 1


def _traced_cli(tracer, name: str, argv: list[str]) -> int:
    with tracer.span("cli." + name):
        return _call_cli(argv)


def run_pass(config: Path, data: Path, seed: int, clock: SpeedClock, tracer=NullTracer()) -> PassOutput:
    """One timed CLI sequence into ``data``; outputs are digested afterwards."""
    attempted = failed = 0
    step_s, step_ref_s = [], []
    confusion_json: dict[str, bytes] = {}
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        for name, tier, argv in cli_steps(config, data, seed):
            rc, wall, corrected = clock.measure(_traced_cli, tracer, name, argv)
            step_s.append(wall)
            step_ref_s.append(corrected)
            attempted += 1
            failed += rc != 0
            if name == "evaluate" and rc == 0:
                confusion_json[tier] = (data / "confusion.json").read_bytes()
    out = PassOutput(step_s, step_ref_s, attempted, failed)
    if failed:
        out.cli_output = sink.getvalue()[-2000:]
        return out
    out.digests["traces"] = trace_digest(data)
    for tier in TIERS:
        out.digests[tier] = _sha256(data / f"decisions_{tier.lower()}.jsonl")
        c = json.loads(confusion_json[tier])
        out.counts[tier] = (c["tp"], c["fp"], c["tn"], c["fn"])
    for report in ("cdf.csv", "magnetic_buckets.csv"):
        out.digests[report] = _sha256(data / report)
    return out


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def trace_digest(data: Path) -> str:
    """SHA-256 over every trace file's name and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted((data / "traces").glob("*.jsonl")):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def check_outputs(data: Path, out: PassOutput, planned: int, seed: int, workload: str) -> list[str]:
    """Mismatches between one pass's files and what they must contain.

    The confusion counts are tallied again here from the decision and truth
    files, without the package's evaluation code.
    """
    if out.failed:
        return [f"{out.failed} of {out.attempted} CLI subcommands failed: {out.cli_output}"]
    problems = []
    instances = _jsonl(data / "instances.jsonl")
    if len(instances) != planned:
        problems.append(f"{len(instances)} instances, planned {planned}")
    n_traces = len(list((data / "traces").glob("*.jsonl")))
    if n_traces != 2 * planned:
        problems.append(f"{n_traces} trace files for {planned} instances")
    truth = {(tuple(r["pair"]), *r["window"]): r["is_contact"] for r in _jsonl(data / "truth.jsonl")}
    for tier in TIERS:
        records = _jsonl(data / f"decisions_{tier.lower()}.jsonl")
        decided = {(tuple(r["pair"]), *r["window"]): r["contact"] for r in records}
        if len(decided) != len(records) or set(decided) != set(truth):
            problems.append(f"{tier}: decisions do not match the labelled instances one to one")
            continue
        tally = [0, 0, 0, 0]
        for key, got in decided.items():
            want = truth[key]
            tally[(0 if want else 1) if got else (2 if not want else 3)] += 1
        if tuple(tally) != out.counts[tier]:
            problems.append(f"{tier}: CLI counts {out.counts[tier]} but decisions tally {tuple(tally)}")
    for report in ("cdf.csv", "magnetic_buckets.csv"):
        if (data / report).stat().st_size == 0:
            problems.append(f"{report} is empty")
    pinned = PINNED.get(workload) if seed == PINNED_SEED else None
    if pinned:
        for tier, want in pinned["counts"].items():
            if out.counts[tier] != want:
                problems.append(f"{tier}: counts {out.counts[tier]}, pinned {want}")
        if out.digests["traces"] != pinned["traces"]:
            problems.append("trace digest differs from the pinned seed-42 traces")
        for tier, want in pinned["decisions"].items():
            if out.digests[tier] != want:
                problems.append(f"{tier}: decision file differs from the pinned one")
    return problems


def spot_check(config: Path, data: Path, seed: int, k: int = SPOT_CHECKS) -> list[str]:
    """Decide ``k`` seeded instances again one at a time from their two
    trace files and compare with the CLI's decision lines."""
    scenario, _ = load_scenario(config)
    instances = _jsonl(data / "instances.jsonl")
    lines = {
        tier: {(tuple(r["pair"]), *r["window"]): json.dumps(r, separators=(",", ":"))
               for r in _jsonl(data / f"decisions_{tier.lower()}.jsonl")}
        for tier in TIERS
    }
    problems = []
    for inst in random.Random(seed).sample(instances, min(k, len(instances))):
        a, b = inst["pair"]
        start, end = inst["window"]
        samples = read_trace(data / "traces" / f"{a}.jsonl") + read_trace(data / "traces" / f"{b}.jsonl")
        window = make_window(samples, (a, b), start, end - start)
        evidence = build_evidence(window, scenario.fusion)
        for tier in TIERS:
            decision = decide(evidence, scenario.fusion, tier_gates(TierSpec(tier)))
            line = decision_to_json(DecisionRecord(window.pair, start, end, decision))
            if lines[tier].get((window.pair, start, end)) != line:
                problems.append(f"{tier}: {window.pair} decided differently outside the CLI")
    return problems


def same_outputs(passes: list[PassOutput]) -> list[str]:
    first = passes[0]
    return [
        f"pass {i} outputs differ from pass 0"
        for i, p in enumerate(passes[1:], 1)
        if (p.digests, p.counts) != (first.digests, first.counts)
    ]


# --- tracing ------------------------------------------------------------------


def _count_samples(tracer, args, result):
    tracer.counts["simulator.samples"] += sum(len(v) for v in result.traces.values())


def _count_pairs(tracer, args, result):
    evidence = args[0]
    tracer.counts["fusion.distance_pair_checks"] += len(evidence.wifi_distances) * len(evidence.sound_distances)


def _count_degraded(tracer, args, result):
    tracer.counts["fusion.degraded"] += result.degraded_reason is not None


def _count_cells(tracer, args, result):
    tracer.counts["envmatch.dtw_cells"] += len(args[0]) * len(args[1])


def instrument(tracer: Tracer) -> None:
    """Wrap each layer's entry points where the package looks them up."""
    tracer.wrap(cli, "generate_traces", "simulator.generate", observe=_count_samples)
    tracer.wrap(sim_scenario, "place_instances", "simulator.place")
    tracer.wrap(cli, "write_trace", "core.encode")
    tracer.wrap(cli, "read_trace", "core.decode")
    tracer.wrap(evaluation, "make_window", "core.make_window")
    tracer.wrap(evaluation, "build_evidence", "fusion.build_evidence")
    tracer.wrap(evaluation, "decide", "fusion.decide", observe=_count_degraded)
    tracer.wrap(fusion, "stage_appearance", "fusion.appearance")
    tracer.wrap(fusion, "stage_distance", "fusion.distance", observe=_count_pairs)
    tracer.wrap(fusion, "stage_environment", "fusion.environment")
    tracer.wrap(envmatch, "dtw_score", "envmatch.dtw", observe=_count_cells)
    tracer.wrap(fusion, "distance_from_rss", "ranging.convert", leaf=True)
    tracer.wrap(fusion, "sound_distance", "ranging.convert", leaf=True)
    tracer.wrap(cli, "confusion", "evaluation.confusion")
    for name in ("distance_error_cdf", "magnitude_sequences", "magnetic_separation_report"):
        tracer.wrap(cli, name, "evaluation.report")


def per_instance_ms(tracer: Tracer) -> list[float]:
    """Window + evidence + decision time of each (instance, tier), in ms."""
    out, acc = [], 0.0
    for rec in tracer.spans:
        name = rec[NAME]
        if name in ("core.make_window", "fusion.build_evidence", "fusion.decide"):
            acc += rec[END] - rec[START]
            if name == "fusion.decide":
                out.append(acc * 1e3)
                acc = 0.0
    return out


def sample_build(tracer: Tracer, data: Path) -> int:
    """Time re-constructing (and so re-validating) every decoded sample."""
    samples = [s for p in sorted((data / "traces").glob("*.jsonl")) for s in read_trace(p)]
    with tracer.span("core.sample_build"):
        for s in samples:
            SensorSample(s.timestamp, s.kind, s.value, s.src, s.obs)
    return len(samples)


def layer_metrics(tracer: Tracer, data: Path) -> dict[str, float]:
    st = tracer.self_times()
    c = tracer.counts
    decide_ms = per_instance_ms(tracer)
    p99 = statistics.quantiles(decide_ms, n=100)[98] if len(decide_ms) > 1 else decide_ms[0]
    trace_bytes = sum(p.stat().st_size for p in (data / "traces").glob("*.jsonl"))
    values = {f"{name}_s": st.get(name, 0.0) for name in (
        "cli.generate", "cli.detect", "cli.evaluate", "cli.report",
        "simulator.place", "simulator.generate",
        "core.encode", "core.decode", "core.sample_build", "core.make_window",
        "fusion.build_evidence", "fusion.appearance", "fusion.distance", "fusion.environment", "fusion.decide",
        "envmatch.dtw", "ranging.convert", "evaluation.confusion", "evaluation.report",
    )}
    values.update({
        "simulator.samples": c["simulator.samples"],
        "core.trace_mb": trace_bytes / 1e6,
        "fusion.decide_ms_p50": statistics.median(decide_ms),
        "fusion.decide_ms_p99": p99,
        "fusion.distance_pair_checks": c["fusion.distance_pair_checks"],
        "fusion.degraded": c["fusion.degraded"],
        "envmatch.dtw_calls": len(tracer.durations("envmatch.dtw")),
        "envmatch.dtw_cells": c["envmatch.dtw_cells"],
        "envmatch.dtw_ns_per_cell": st.get("envmatch.dtw", 0.0) / max(1, c["envmatch.dtw_cells"]) * 1e9,
        "ranging.conversions": c["ranging.convert"],
    })
    return values


# --- workload -------------------------------------------------------------------


def run(workload: str, root: Path, seed: int, seconds: float, trace: bool, out_dir: Path, factor=None):
    """Run one pipeline workload; returns (values, attempted, failed,
    details, problems).

    Passes repeat until ``seconds`` have passed (at least one). ``e2e_s`` is
    the time of one pass, taken as the sum over its subcommands of each
    one's median across passes, so a burst of load on a shared host moves
    one subcommand's sample, not the result. Times are corrected for host
    speed (``hostspeed``). A traced run adds one traced pass, whose outputs
    must equal the untraced ones. ``factor`` overrides the workload's bucket
    multiplier.
    """
    factor = SCALES[workload] if factor is None else factor
    work = out_dir / "work"
    # A traced run probes only between units, so no probe lands in a span.
    clock = SpeedClock(json_probe, inside=not trace)
    setup_s = []
    for _ in range(SETUP_REPEATS):
        (config, planned), _, corrected = clock.measure(setup, root, factor, work)
        setup_s.append(corrected)

    passes: list[PassOutput] = []
    problems: list[str] = []
    started = time.perf_counter()
    while not problems and (not passes or time.perf_counter() - started < seconds):
        data = work / f"pass{len(passes)}"
        passes.append(run_pass(config, data, seed, clock))
        problems += check_outputs(data, passes[-1], planned, seed, workload)
        if len(passes) == 1 and not problems:
            problems += spot_check(config, data, seed)
        shutil.rmtree(data)
    problems += same_outputs(passes)

    e2e = sum(statistics.median(steps) for steps in zip(*(p.step_ref_s for p in passes)))
    values = {"e2e_s": e2e, "setup_s": statistics.median(setup_s)}
    details = {
        "instances": planned,
        "pass_wall_s": [sum(p.step_s) for p in passes],
        "e2e_wall_s": sum(statistics.median(steps) for steps in zip(*(p.step_s for p in passes))),
        "digests": passes[0].digests,
        "counts": passes[0].counts,
        "probe_s_median": statistics.median(clock.samples),
    }
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    if trace and not problems:
        tracer = Tracer(run_id=f"{workload}-seed{seed}")
        data = work / "traced"
        instrument(tracer)
        try:
            traced = run_pass(config, data, seed, clock, tracer)
        finally:
            tracer.restore()
        attempted += traced.attempted
        failed += traced.failed
        problems += check_outputs(data, traced, planned, seed, workload)
        problems += [f"traced pass: {p}" for p in same_outputs([passes[0], traced])]
        if not problems:
            sample_build(tracer, data)
            details["untraced"] = values
            values = layer_metrics(tracer, data)
            values["trace.overhead_s"] = sum(traced.step_ref_s) - e2e
            values["trace.spans"] = len(tracer.spans)
            details["traced_pass_wall_s"] = sum(traced.step_s)
            details["tracer"] = tracer

    shutil.rmtree(work, ignore_errors=True)
    return values, attempted, failed, details, problems
