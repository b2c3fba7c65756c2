"""Command-line entry points.

    sensetrace generate --config scenario.yaml --out runs/demo [--seed N]
    sensetrace detect   --data runs/demo --config scenario.yaml --tier FULL
    sensetrace evaluate --data runs/demo --decisions decisions_full.jsonl
    sensetrace report   --data runs/demo --decisions decisions_full.jsonl

``generate`` writes per-device JSONL traces into a fresh hidden directory
that it swaps in for ``traces/`` whole (``_swap_in_traces``, so no file an
earlier run left there survives), the ground truth, the instance list and
``trace_columns.npy``, the traces' decoded columns keyed by each file's
SHA-256 (a cache: ``detect`` and ``report`` decode any file it does not
match), each simulator batch's traces and cache records as soon as the
batch is done. The main thread simulates, encodes and hashes each trace and
appends its cache record; one writer process (``sys.executable``, which
must be a Python interpreter) creates the trace files from a pipe, so that
file creation runs beside that work. The pipe's capacity bounds how far the
writer lags: beyond it, the main thread waits. The writer ignores SIGINT:
on success ``generate`` waits for it, and raises if it failed, before
``traces/`` is swapped in; on any error or interrupt it kills and reaps it
before the new directory is removed. ``detect`` replays
the fusion pipeline over the traces and keeps each window's assessment in
``assessments.json``, keyed by the config, the detector's source, the
instances and the traces, so that a later ``detect`` of the run, for any
tier, only fuses them. Every command but ``generate`` first reads
``meta.json`` (``_read_meta``), which must hold exactly ``seed``,
``config_sha256``, ``instances`` and ``devices``; a run without it is
refused, and so is one whose ``instances`` is not the number of lines of
``instances.jsonl`` (``detect``) or ``truth.jsonl`` (``evaluate`` and
``report``), or, in ``detect`` and ``report``, whose ``devices`` is not the
number of devices those lines name (``_check_counts``). ``detect`` and
``report`` open the traces through one call (``_RunTraces``) that hashes
them and refuses a run that lacks the trace file of a device an instance
names; it loads each trace when its first window or label comes and lets
it go after its last, so no command holds the whole run, and refuses
another device's rows and a repeated row.
Every record of a run file must have exactly its type's keys
(``core.exact_fields``). ``evaluate`` emits the confusion counts and
accuracy; ``report`` emits plot-ready CSVs (distance-error CDF, magnetic
separation per distance band).
Every other output file is written atomically, and the metrics and report
CSVs embed ``meta.json``'s seed and config digest.
Errors print one machine-readable JSON object on stderr and exit non-zero;
a usage error, such as an unknown ``--tier``, exits 2.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import secrets
import shutil
import subprocess
import sys
from contextlib import contextmanager
from itertools import islice
from pathlib import Path
from typing import Callable, Iterator, NoReturn, Optional, Sequence

from .core import (
    TRACE_CACHE,
    CachedTrace,
    Trace,
    atomic_write,
    canonical_pair,
    encode_trace,
    exact_fields,
    label_from_record,
    label_to_json,
    read_jsonl,
    read_cached_traces,
    read_trace,
    read_trace_cache,
    window_bounds,
    write_trace,  # not called here, but perfbench/pipeline.py wraps cli.write_trace
    write_trace_cache,
)
from .errors import SenseTraceError
from .evaluation import (
    ASSESSMENT_CACHE,
    Instance,
    accuracy,
    assess_instances,
    confusion,
    detector_digest,
    distance_error_cdf,
    fuse_instances,
    magnetic_separation_report,
    magnitude_sequences,
    matched,
    read_assessment_cache,
    write_assessment_cache,
)
from .fusion import TierSpec, decision_from_record, decision_to_json
from .simulator import config_hash, generate_traces, load_scenario


def _instance_to_json(pair: tuple[str, str], window: tuple[float, float]) -> str:
    return json.dumps({"pair": sorted(pair), "window": list(window)}, separators=(",", ":"))


def _read_instances(path: Path) -> list[Instance]:
    """Every (pair, start, end) line of ``path``, each exactly a ``pair``
    and a ``window``; a repeated instance is an error."""
    seen: set[Instance] = set()

    def parse(record: dict) -> Instance:
        pair, window = exact_fields(record, ("pair", "window"))
        start, end = window_bounds(window)
        instance = (canonical_pair(pair), start, end)
        if instance in seen:
            raise ValueError(f"duplicate instance {instance}")
        seen.add(instance)
        return instance

    return read_jsonl(path, parse)


# The keys of ``meta.json``, in the order ``generate`` writes them.
_META_KEYS = ("seed", "config_sha256", "instances", "devices")


def _read_meta(data_dir: Path) -> tuple[dict, list[str]]:
    """The run's ``meta.json``, which every command reads first: an object
    of exactly the ``_META_KEYS``, the seed and the counts non-negative
    integers and the digest a string. With it, the comment lines that start
    each CSV the run's reports write."""
    path = data_dir / "meta.json"
    try:
        meta = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(meta, dict):
            raise SenseTraceError(f"{path}:1: expected a JSON object")
        seed, digest, *counts = exact_fields(meta, _META_KEYS)
        if not all(type(n) is int and n >= 0 for n in (seed, *counts)) or type(digest) is not str:
            raise TypeError("seed, instances and devices must be non-negative integers, config_sha256 a string")
    except (ValueError, KeyError, TypeError) as exc:
        raise SenseTraceError(f"{path}:{getattr(exc, 'lineno', 1)}: {type(exc).__name__}: {exc}") from exc
    return meta, [f"seed={seed}", f"config_sha256={digest}"]


def _check_counts(data_dir: Path, meta: dict, source: str, instances: Sequence[Instance], devices: bool) -> None:
    """Refuses a run whose ``meta.json`` miscounts what its file ``source``
    holds: ``instances`` against the instances read from it, and with
    ``devices``, ``devices`` against the distinct devices they name."""
    counts = {"instances": len(instances)}
    if devices:
        counts["devices"] = len({device for pair, _, _ in instances for device in pair})
    for key, count in counts.items():
        if meta[key] != count:
            raise SenseTraceError(f"{data_dir / 'meta.json'}: {key} is {meta[key]}, but {source} has {count}")


def _sha256(path: str | Path, dir_fd: Optional[int] = None) -> str:
    """The SHA-256 of the file at ``path`` (relative to the directory open
    as ``dir_fd``, if given), read 64 KiB at a time so that a large file is
    never held whole."""
    h, fd = hashlib.sha256(), os.open(path, os.O_RDONLY, dir_fd=dir_fd)
    try:
        while chunk := os.read(fd, 1 << 16):
            h.update(chunk)
    finally:
        os.close(fd)
    return h.hexdigest()


def _trace_digests(data_dir: Path) -> dict[str, str]:
    """The name of every trace file of the run, in order, with its SHA-256.
    ``detect`` and ``report`` hash every one, so the directory is opened
    once and each file is opened through it."""
    directory = data_dir / "traces"
    try:
        dir_fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
    except FileNotFoundError:
        raise SenseTraceError(f"no trace files under {directory}") from None
    try:
        names = sorted(name for name in os.listdir(dir_fd) if name.endswith(".jsonl"))
        if not names:
            raise SenseTraceError(f"no trace files under {directory}")
        digests = {}
        for name in names:
            try:
                digests[name] = _sha256(name, dir_fd)
            except OSError as exc:
                exc.filename = str(directory / name)  # its path, not its name in the directory
                raise
        return digests
    finally:
        os.close(dir_fd)


# Traces loaded together: enough for one ``_intact`` check to cost little
# per trace, few enough that the traces waiting to be asked for stay small.
_LOAD_AHEAD = 32


class _RunTraces:
    """The run's trace files by device, each loaded when ``get`` asks for
    it: from the column cache when the file's SHA-256 is the one the cache
    holds, else decoded. Opening hashes every file (``digests``) and refuses
    a run that lacks the file of a device that ``instances`` (read from the
    run's file ``source``) names; a file that no instance names is allowed.

    The devices are asked for in the order ``instances`` names them. A load
    takes the next ``_LOAD_AHEAD`` of them, and ``get`` hands a trace over
    without keeping it, so that at most those wait in memory; a device
    asked for again is loaded again.
    """

    def __init__(self, data_dir: Path, source: str, instances: Sequence[Instance]) -> None:
        self.data_dir, self.digests = data_dir, _trace_digests(data_dir)
        for pair, start, end in instances:
            for device in pair:
                if f"{device}.jsonl" not in self.digests:
                    path, instance = data_dir / "traces" / f"{device}.jsonl", f"{list(pair)} [{start}, {end})"
                    raise SenseTraceError(f"{path}: no such trace file, for {source} instance {instance}")
        self.upcoming = iter(dict.fromkeys(device for pair, _, _ in instances for device in pair))
        self.ready: dict[str, Trace] = {}
        self.index: Optional[dict[str, CachedTrace]] = None

    def get(self, device: str, default=None):
        if device not in self.ready:
            chunk = list(islice(self.upcoming, _LOAD_AHEAD))
            self._load(chunk if device in chunk else [*chunk, device])
        return self.ready.pop(device, default)

    def _load(self, devices: list[str]) -> None:
        names = [f"{device}.jsonl" for device in devices]  # each has a file: ``__init__`` checked
        if self.index is None:
            self.index = read_trace_cache(self.data_dir / TRACE_CACHE)
        # An entry is used once: a device asked for again is decoded.
        entries = [self.index.pop(name, None) for name in names]
        hits = [entry for entry in entries if entry is not None and entry.sha256 == self.digests[entry.name]]
        cached = dict(zip((entry.name for entry in hits), read_cached_traces(self.data_dir / TRACE_CACHE, hits)))
        traces = self.data_dir / "traces"
        for name in names:
            device, trace = name[: -len(".jsonl")], cached.get(name)
            self.ready[device] = _own_rows(traces, device, read_trace(traces / name) if trace is None else trace)


def _own_rows(traces: Path, device: str, trace: Trace) -> Trace:
    """``trace``, loaded from ``traces/<device>.jsonl``, if every row's
    ``src`` is ``device``; else SenseTraceError naming the first other row."""
    wrong = trace.src != (trace.names.index(device) if device in trace.names else -1)
    if wrong.any():
        path = traces / f"{device}.jsonl"
        row, lines = int(wrong.argmax()), path.read_bytes().split(b"\n")
        lineno = [n for n, line in enumerate(lines, 1) if line.strip()][row]  # row i is the i-th non-blank line
        other = trace.names[trace.src[row]]
        raise SenseTraceError(f"{path}:{lineno}: ValueError: a row of {other!r} in {device}'s trace")
    return trace


def _assessment_key(data_dir: Path, config_sha256: str, digests: dict[str, str]) -> dict:
    """What the run's assessments are made from: the config, the detector's
    source, ``instances.jsonl`` and the trace files, these as one SHA-256
    over their names and digests, so that the key's size does not grow with
    the run. A column-cache record is used only when it matches its file."""
    traces = hashlib.sha256()
    for name, digest in digests.items():
        traces.update(f"{name}\0{digest}\n".encode("utf-8"))
    return {
        "config_sha256": config_sha256,
        "detector_sha256": detector_digest(),
        "instances_sha256": _sha256(data_dir / "instances.jsonl"),
        "traces_sha256": traces.hexdigest(),
    }


def _csv_text(header_comments: Sequence[str], columns: Sequence[str], rows) -> str:
    buf = io.StringIO()
    for comment in header_comments:
        buf.write(f"# {comment}\n")
    writer = csv.writer(buf)
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


# The writer process's program. It reads frames from its stdin, each the
# name's and the data's byte lengths (8 bytes each, little-endian), the name
# and the data, and creates each file in its working directory. A frame cut
# short means the parent is gone: it writes no more. A failed file creation
# or write prints [errno, strerror, name] as one JSON line on stderr and
# exits 1. Interruption is the parent's to handle, so it ignores SIGINT.
_WRITER = """\
import signal, sys
signal.signal(signal.SIGINT, signal.SIG_IGN)
read = sys.stdin.buffer.read
while len(head := read(16)) == 16:
    name_size, size = int.from_bytes(head[:8], "little"), int.from_bytes(head[8:], "little")
    frame = read(name_size + size)
    if len(frame) < name_size + size:
        break
    name = frame[:name_size].decode()
    try:
        with open(name, "xb") as fh:
            fh.write(memoryview(frame)[name_size:])
    except OSError as exc:
        import json
        print(json.dumps([exc.errno, exc.strerror, name]), file=sys.stderr)
        sys.exit(1)
"""


def _wait_for_writer(writer: subprocess.Popen, staging: Path) -> None:
    """Waits for the writer process to exit. If it failed, raises the write
    error it reported, rebuilt, or else how it ended."""
    report = writer.communicate()[1]
    if writer.returncode == 0:
        return
    try:
        number, strerror, name = json.loads(report)
    except (ValueError, TypeError):
        text = report.decode("utf-8", "replace").strip()
        raise OSError(f"the trace writer exited with status {writer.returncode}: {text}") from None
    raise OSError(number, strerror, str(staging / name)) from None


@contextmanager
def _swap_in_traces(out: Path) -> Iterator[Callable[[str, bytes], None]]:
    """A fresh hidden directory beside ``out/traces`` that the block fills
    through ``put(name, data)``, one trace file per device; when the block
    ends, it is swapped in for ``traces/``, whole.

    One writer process (``_WRITER``, run by ``sys.executable``, which must
    be a Python interpreter) creates the files, so that the kernel's file
    creation runs beside the main thread's work: it has an interpreter lock
    of its own. ``put`` writes the file to the writer's stdin and returns;
    the pipe's capacity is the bound, so ``put`` blocks while the writer
    lags a pipe's worth behind. Once a write fails the writer exits, and the
    next ``put`` raises the error it reported, as an ``OSError``. The
    writer ignores SIGINT. On success the block closes the writer's stdin,
    waits for it and raises if it failed, before the directory is swapped
    in; on any exception, ``KeyboardInterrupt`` included, the writer is
    killed and reaped before the directory is removed. So no write lands
    after ``generate`` and no process outlives it.

    ``traces/`` so holds the complete old set or the complete new set, never
    a mix, and never a file an earlier run left. The swap is two renames:
    between them there is no ``traces/``, and a ``detect`` or ``report``
    that lists it then fails with "no trace files". A failure before the
    swap removes the new directory and leaves ``traces/`` as it was.
    """
    out.mkdir(parents=True, exist_ok=True)
    staging = out / f".traces-{secrets.token_hex(8)}"
    staging.mkdir()
    target, old = out / "traces", out / f"{staging.name}-old"
    writer = None

    def put(name: str, data: bytes) -> None:
        encoded = name.encode("utf-8")
        head = len(encoded).to_bytes(8, "little") + len(data).to_bytes(8, "little")
        try:
            writer.stdin.write(head + encoded + data)
            writer.stdin.flush()
        except BrokenPipeError:  # the writer has exited: raise the error it reported
            _wait_for_writer(writer, staging)
            raise

    try:
        # Isolated and without ``site``, the writer starts in about 15 ms,
        # while the simulator works on its first batch.
        writer = subprocess.Popen(
            [sys.executable, "-I", "-S", "-c", _WRITER],
            stdin=subprocess.PIPE, stderr=subprocess.PIPE, cwd=staging,
        )
        yield put
        _wait_for_writer(writer, staging)
        if target.exists():
            target.rename(old)
        staging.rename(target)
    except BaseException:
        if writer is not None:
            writer.kill()
            writer.communicate()
        if old.exists() and not target.exists():
            old.rename(target)
        shutil.rmtree(staging, ignore_errors=True)
        raise
    if old.exists():
        shutil.rmtree(old)


def cmd_generate(args: argparse.Namespace) -> int:
    scenario, raw = load_scenario(args.config, seed=args.seed)
    out = Path(args.out)

    # Each batch's trace files and cache records are written as the
    # simulator finishes the batch, so no more than a batch is held. The
    # writer is finished before the cache is moved into place, so a failed
    # write leaves the earlier cache too.
    with write_trace_cache(out / TRACE_CACHE) as cache, _swap_in_traces(out) as put:

        def write(device: str, trace: Trace) -> CachedTrace:
            name, data = f"{device}.jsonl", encode_trace(trace)
            put(name, data)
            return cache(name, hashlib.sha256(data).hexdigest(), trace)

        data = generate_traces(scenario, write=write)
    atomic_write(out / "truth.jsonl", "".join(label_to_json(lb) + "\n" for lb in data.labels))
    atomic_write(
        out / "instances.jsonl",
        "".join(_instance_to_json(lb.pair, (lb.start, lb.end)) + "\n" for lb in data.labels),
    )

    meta = dict(zip(_META_KEYS, (scenario.seed, config_hash(raw), len(data.instances), len(data.traces))))
    atomic_write(out / "meta.json", json.dumps(meta, indent=2) + "\n")
    print(f"generated {len(data.instances)} instances / {len(data.traces)} traces -> {out}")
    return 0


# The run's own files, which detect --out must not overwrite.
_RUN_FILES = ("instances.jsonl", "truth.jsonl", "meta.json", TRACE_CACHE, ASSESSMENT_CACHE)


def cmd_detect(args: argparse.Namespace) -> int:
    data_dir = Path(args.data)
    tier = TierSpec(args.tier)
    name = f"decisions_{tier.value.lower()}.jsonl" if args.out is None else args.out
    if name in ("", ".", "..", *_RUN_FILES) or Path(name).name != name:
        raise SenseTraceError(f"--out must be a file name with no directory part, not one of {_RUN_FILES}: {name!r}")
    meta, _ = _read_meta(data_dir)
    # Hashed with the run's seed applied, as generate --seed hashes it.
    scenario, raw = load_scenario(args.config, seed=meta["seed"])
    if config_hash(raw) != meta["config_sha256"]:
        raise SenseTraceError(
            f"{args.config} has config_sha256 {config_hash(raw)} but the run in {data_dir} "
            f"was generated with config_sha256 {meta['config_sha256']}"
        )
    cfg = scenario.fusion
    instances = _read_instances(data_dir / "instances.jsonl")
    _check_counts(data_dir, meta, "instances.jsonl", instances, devices=True)
    traces = _RunTraces(data_dir, "instances.jsonl", instances)
    key = _assessment_key(data_dir, meta["config_sha256"], traces.digests)
    assessments = read_assessment_cache(data_dir / ASSESSMENT_CACHE, key, len(instances))
    if assessments is None:
        assessments = assess_instances(traces, instances, cfg)
        write_assessment_cache(data_dir / ASSESSMENT_CACHE, key, assessments)
    records = fuse_instances(instances, assessments, cfg, tier)
    atomic_write(data_dir / name, "".join(decision_to_json(r) + "\n" for r in records))
    contacts = sum(1 for r in records if r.decision.contact)
    print(f"{tier.value}: {contacts}/{len(records)} contacts -> {data_dir / name}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    data_dir = Path(args.data)
    meta, comments = _read_meta(data_dir)
    truth = read_jsonl(data_dir / "truth.jsonl", label_from_record)
    _check_counts(data_dir, meta, "truth.jsonl", [(lb.pair, lb.start, lb.end) for lb in truth], devices=False)
    records = read_jsonl(data_dir / args.decisions, decision_from_record)

    counts = confusion(records, truth)
    acc = accuracy(counts)
    rows = [*counts.as_dict().items(), ("accuracy", f"{acc:.6f}")]
    atomic_write(data_dir / "metrics.csv", _csv_text(comments, ["metric", "value"], rows))
    payload = {**counts.as_dict(), "accuracy": acc, **meta}  # meta.json has none of the computed keys
    atomic_write(data_dir / "confusion.json", json.dumps(payload, indent=2) + "\n")
    print(
        f"tp={counts.tp} fp={counts.fp} tn={counts.tn} fn={counts.fn} "
        f"accuracy={acc:.4f} -> {data_dir / 'metrics.csv'}"
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    data_dir = Path(args.data)
    meta, comments = _read_meta(data_dir)
    truth = read_jsonl(data_dir / "truth.jsonl", label_from_record)
    instances = [(label.pair, label.start, label.end) for label in truth]
    _check_counts(data_dir, meta, "truth.jsonl", instances, devices=True)
    records = read_jsonl(data_dir / args.decisions, decision_from_record)
    traces = _RunTraces(data_dir, "truth.jsonl", instances)

    estimated, actual = [], []
    for rec, label in matched(records, truth):
        if rec.decision.mean_distance is not None:
            estimated.append(rec.decision.mean_distance)
            actual.append(label.true_distance)
    # With no estimates the CDF is written with no rows, not left stale.
    cdf = distance_error_cdf(estimated, actual) if estimated else []

    def items():
        for label in truth:
            a, b = label.pair
            seq_a = magnitude_sequences(traces, a)
            seq_b = magnitude_sequences(traces, b)
            if seq_a and seq_b:
                yield label.true_distance, seq_a, seq_b

    stats = magnetic_separation_report(items())
    atomic_write(
        data_dir / "cdf.csv",
        _csv_text(comments, ["abs_error_m", "cumulative_fraction"], cdf),
    )
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


class _Parser(argparse.ArgumentParser):
    """A usage error prints one JSON object on stderr, as every other error
    does, and exits 2; its subparsers are of this class too."""

    def error(self, message: str) -> NoReturn:
        print(json.dumps({"error": "ArgumentError", "message": message}), file=sys.stderr)
        self.exit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    d.add_argument("--out", default=None, help="decisions file name, written in --data (no directory part)")
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
