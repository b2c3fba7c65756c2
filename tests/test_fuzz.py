"""Seeded input fuzzing of a 12-instance run through ``cli.main``.

Each example damages one input of the run (the instance list, the truth,
``meta.json``, a decision file, a trace file or either cache) by a flipped
bit, a truncation, a dropped, repeated or swapped line, or a JSON token
swapped for ``null``, ``[]``, ``"x"``, ``-1``, ``1e400`` or ``NaN``, and
runs each command that reads it. Every run exits 0, or exits non-zero with
exactly one JSON object line on stderr. A damaged trace gives the decisions
it encodes or an error, and a repeated trace row is an error; a damaged
cache gives the run's own decisions or an error.
"""

import io
import json
import re
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensetrace.cli import main
from sensetrace.core import label_from_record, read_jsonl, read_trace
from sensetrace.errors import SenseTraceError
from sensetrace.evaluation import TierSpec
from sensetrace.fusion import decision_to_json
from sensetrace.simulator import load_scenario

from .oracles import run_tier

TRACE = "traces/i005a.jsonl"
CACHES = ("trace_columns.npy", "assessments.json")
# Each input, and the commands that read it.
COMMANDS = {
    "instances.jsonl": ("detect",),
    "truth.jsonl": ("evaluate", "report"),
    "meta.json": ("detect", "evaluate"),
    "decisions_full.jsonl": ("evaluate", "report"),
    TRACE: ("detect", "report"),
    "trace_columns.npy": ("detect",),
    "assessments.json": ("detect",),
}
TOKEN = re.compile(rb'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|true|false|null')
REPLACEMENTS = (b"null", b"[]", b'"x"', b"-1", b"1e400", b"NaN")


def damage(data: bytes, how: str, k: int, j: int) -> bytes:
    """``data`` damaged ``how``, at the places ``k`` and ``j`` pick."""
    lines = data.splitlines(keepends=True)
    if how == "bit flip":
        i = k % len(data)
        return data[:i] + bytes([data[i] ^ (1 << j % 8)]) + data[i + 1 :]
    if how == "truncate":
        return data[: k % len(data)]
    if how == "drop line":
        del lines[k % len(lines)]
    elif how == "repeat line":
        lines.insert(k % len(lines), lines[k % len(lines)])
    elif how == "swap lines":
        a, b = k % len(lines), j % len(lines)
        lines[a], lines[b] = lines[b], lines[a]
    else:
        tokens = list(TOKEN.finditer(data))
        if not tokens:
            return data
        token = tokens[k % len(tokens)]
        return data[: token.start()] + REPLACEMENTS[j % len(REPLACEMENTS)] + data[token.end() :]
    return b"".join(lines)


def command(name: str, run: Path, config: Path) -> list[str]:
    argv = {
        "detect": ["detect", "--data", run, "--config", config, "--tier", "FULL"],
        "evaluate": ["evaluate", "--data", run, "--decisions", "decisions_full.jsonl"],
        "report": ["report", "--data", run, "--decisions", "decisions_full.jsonl"],
    }[name]
    return [str(a) for a in argv]


def decisions_encoded(run: Path, config: Path) -> list[str]:
    """The FULL decision lines that the run's trace files encode, decoded
    one file at a time, as the oracle's batch path decides them."""
    traces = {path.stem: read_trace(path) for path in sorted((run / "traces").glob("*.jsonl"))}
    truth = read_jsonl(run / "truth.jsonl", label_from_record)
    records = run_tier(traces, truth, TierSpec.FULL, load_scenario(config)[0].fusion)[0]
    return [decision_to_json(r) + "\n" for r in records]


@pytest.mark.parametrize("how", ["bit flip", "truncate", "drop line", "repeat line", "swap lines", "token"])
@pytest.mark.parametrize("target", sorted(COMMANDS))
@settings(max_examples=3, deadline=None, derandomize=True)
@given(st.integers(0, 2**16), st.integers(0, 2**16))
def test_damaged_input_gives_an_answer_or_one_json_error(small_run, target, how, k, j):
    config, pristine = small_run
    with tempfile.TemporaryDirectory() as tmp:
        run = Path(tmp) / "run"
        shutil.copytree(pristine, run)
        (run / target).write_bytes(damage((run / target).read_bytes(), how, k, j))
        for name in COMMANDS[target]:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(command(name, run, config))
            if code != 0:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1, err.getvalue()
                assert set(json.loads(lines[0])) == {"error", "message"}
                continue
            assert err.getvalue() == ""
            if name != "detect":
                continue
            got = (run / "decisions_full.jsonl").read_text().splitlines(keepends=True)
            if target == TRACE:
                assert how != "repeat line", "a repeated trace row was accepted"
                try:
                    want = decisions_encoded(run, config)
                except SenseTraceError as exc:
                    raise AssertionError(f"detect took a trace the decoder refuses: {exc}")
                assert got == want
            elif target in CACHES:
                assert got == (pristine / "decisions_full.jsonl").read_text().splitlines(keepends=True)
