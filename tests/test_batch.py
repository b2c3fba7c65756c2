"""The batch that assesses a run's windows at once against the per-window
reference path, ``assess(build_evidence(make_window(...)))``: equal field for
field, bit for bit, on seeded random runs built to hit every tie and edge
the stages have."""

import inspect
import math
import pathlib
import random
import sys
from dataclasses import astuple

import numpy as np
import pytest

from sensetrace import envmatch, evaluation
from sensetrace.core import SensorKind, SensorSample, Trace, as_trace, make_window
from sensetrace.envmatch import dtw_score, dtw_scores
from sensetrace.errors import EmptyWindow
from sensetrace.evaluation import assess_instances, detector_digest
from sensetrace.fusion import FusionConfig, build_evidence
from sensetrace.ranging import (
    ChirpSpec,
    PathLossParams,
    distance_from_rss,
    distances_from_rss,
    sound_distance,
    sound_distances,
)

from .oracles import assess_window

DEVICES = ("a", "b", "c", "d", "e")
PEER_KINDS = (SensorKind.BLE_RSS, SensorKind.WIFI_RSS, SensorKind.SOUND_AMPLITUDE)


def reference(traces, instances, cfg):
    """Each instance's assessment, one window at a time."""
    return [assess_window(traces, pair, start, end, cfg) for pair, start, end in instances]


def bits(assessments):
    """Every field as ``repr`` gives it: floats compare bit for bit."""
    return [tuple(map(repr, astuple(a))) for a in assessments]


def random_config(rng):
    return FusionConfig(
        ble_scan_period=rng.choice([30.0, 0.3, 0.7, 7.0]),
        appearance_quorum=rng.choice([0.5, 0.25, 1.0]),
        radio_params=PathLossParams(power_at_1m=rng.choice([-59.0, -41.3]), exponent=rng.choice([2.0, 2.7])),
        sound_exponent=rng.choice([2.0, 1.3]),
    )


def random_value(rng, kind, cfg):
    if kind in (SensorKind.BLE_RSS, SensorKind.WIFI_RSS):
        return rng.choice([-60.0, -71.5, round(rng.uniform(-120.0, 0.0), rng.choice([1, 9]))])
    if kind is SensorKind.SOUND_AMPLITUDE:  # sometimes above the chirp's amplitude
        return rng.choice([12.0, cfg.chirp.amplitude, rng.uniform(0.0, cfg.chirp.amplitude + 3.0)])
    if kind is SensorKind.AMBIENT_NOISE:  # the gate holds at equality
        return cfg.noise_gate_db + rng.choice([-1.0, 0.0, 0.0, 1.0])
    if kind is SensorKind.BAROMETER:
        return rng.choice([1000.0, 1000.1, round(rng.uniform(999.0, 1001.0), 3)])
    if kind is SensorKind.MAGNETOMETER:
        return tuple(rng.choice([0.0, 30.0, rng.uniform(-60.0, 60.0)]) for _ in range(3))
    return rng.choice([0.0, 1.0])


def random_run(rng, cfg):
    """Traces and instances with devices in several instances, windows that
    are not whole BLE periods, many equal times (a 0.1 s grid, times shared
    by every device, and chirps heard within SAME_INSTANT_S), WiFi estimates
    equidistant from two sounds, duplicate sound times, the same row in two
    files, rows from or of devices outside a file's pair, traces out of time
    order and devices with no trace file."""
    start = rng.choice([0.0, 0.1, 10.0, 12.3])
    length = rng.choice([3.0, 9.5, 10.0, 2.9, 30.0, 95.0])
    samples = {device: [] for device in DEVICES}
    shared = [start + rng.randrange(0, int(length * 10)) / 10 for _ in range(3)]

    def tick():
        if rng.random() < 0.3:
            return rng.choice(shared)
        return start + rng.randrange(-3, int(length * 10) + 3) / 10

    for device in DEVICES:
        for _ in range(rng.randrange(0, 40)):
            kind = rng.choice(list(SensorKind))
            src = device if rng.random() < 0.9 else rng.choice(DEVICES)
            obs = rng.choice([d for d in DEVICES if d != src]) if kind in PEER_KINDS else None
            samples[device].append(SensorSample(tick(), kind, random_value(rng, kind, cfg), src, obs))
        for _ in range(rng.randrange(0, 6)):  # chirp attempts, heard or not, and WiFi scans around them
            t, peer, gap = tick(), rng.choice([d for d in DEVICES if d != device]), rng.choice([0.5, 1.0, 15.0, 20.0])
            for at in rng.sample([t, t + 2 * gap], rng.randrange(1, 3)):  # a WiFi scan at t + gap is equidistant
                noise = random_value(rng, SensorKind.AMBIENT_NOISE, cfg)
                samples[device].append(SensorSample(at, SensorKind.AMBIENT_NOISE, noise, device))
                for _ in range(rng.choice([0, 1, 1, 2])):  # two sounds at one time: _nearest walks back
                    heard_at = at + rng.choice([0.0, 0.0, 5e-7, 2e-6])
                    amp = random_value(rng, SensorKind.SOUND_AMPLITUDE, cfg)
                    samples[device].append(SensorSample(heard_at, SensorKind.SOUND_AMPLITUDE, amp, device, peer))
            for wifi_at in rng.sample([t - gap, t + gap, t], rng.randrange(0, 4)):
                rss = random_value(rng, SensorKind.WIFI_RSS, cfg)
                samples[device].append(SensorSample(wifi_at, SensorKind.WIFI_RSS, rss, device, peer))
    for device in DEVICES:  # another file's rows, some with other values
        other = rng.choice(DEVICES)
        for row in rng.sample(samples[other], min(len(samples[other]), rng.randrange(0, 4))):
            value = row.value if rng.random() < 0.5 else random_value(rng, row.kind, cfg)
            samples[device].append(SensorSample(row.timestamp, row.kind, value, row.src, row.obs))
    traces = {}
    for device, rows in samples.items():
        rows = [s for s in rows if s.timestamp >= 0]
        if rng.random() < 0.1:
            continue  # no trace file
        if rng.random() < 0.5:
            rows.sort(key=lambda s: s.timestamp)
        traces[device] = Trace.from_samples(rows)
    instances = []
    for _ in range(rng.randrange(1, 7)):
        pair = tuple(rng.sample(DEVICES, 2))
        instances.append((pair, start, start + length))
    return traces, instances


def slot_edge_run(rng):
    """Sightings on and beside the edges of BLE slots whose period and
    start float arithmetic rounds: start + k * period, that + period, and
    the floats next to each."""
    period = rng.choice([0.1, 0.3, 1 / 3, 0.7, 29.9])
    start = rng.choice([0.0, 0.1, 0.7, 1e5 + 0.3])
    slots = rng.randrange(1, 40)
    length = slots * period + rng.choice([0.0, period / 3, -period / 3])
    rows = {"a": [], "b": []}
    for device, peer in (("a", "b"), ("b", "a")):
        for _ in range(rng.randrange(1, 2 * slots + 2)):
            edge = start + rng.randrange(0, slots + 1) * period
            t = rng.choice([edge, edge + period, np.nextafter(edge, -math.inf), np.nextafter(edge, math.inf)])
            if start <= t < start + length:
                rows[device].append(SensorSample(float(t), SensorKind.BLE_RSS, -60.0, device, peer))
    cfg = FusionConfig(ble_scan_period=period, appearance_quorum=rng.choice([0.25, 0.5, 0.75]))
    traces = {device: Trace.from_samples(r) for device, r in rows.items()}
    return cfg, traces, [(("a", "b"), start, start + length)]


def nonempty(traces, instances):
    """The instances whose window the reference can cut."""
    kept = []
    for instance in instances:
        try:
            reference(traces, [instance], FusionConfig())
        except EmptyWindow:
            continue
        kept.append(instance)
    return kept


class TestBatchEqualsReference:
    @pytest.mark.parametrize("seed", range(120))
    def test_random_runs(self, seed):
        rng = random.Random(seed)
        cfg = random_config(rng)
        traces, instances = random_run(rng, cfg)
        instances = nonempty(traces, instances)
        assert bits(assess_instances(traces, instances, cfg)) == bits(reference(traces, instances, cfg))

    @pytest.mark.parametrize("seed", range(60))
    def test_ble_slot_edges(self, seed):
        cfg, traces, instances = slot_edge_run(random.Random(seed))
        instances = nonempty(traces, instances)
        assert bits(assess_instances(traces, instances, cfg)) == bits(reference(traces, instances, cfg))

    def test_standard_run(self, standard_data, standard_scenario_obj):
        cfg = standard_scenario_obj.fusion
        instances = [(lb.pair, lb.start, lb.end) for lb in standard_data.labels]
        assert bits(assess_instances(standard_data.traces, instances, cfg)) == bits(
            reference(standard_data.traces, instances, cfg)
        )

    def test_edges_occur(self):
        """The random runs reach the edges they are built for."""
        seen = set()
        for seed in range(120):
            rng = random.Random(seed)
            cfg = random_config(rng)
            traces, instances = random_run(rng, cfg)
            for pair, start, end in nonempty(traces, instances):
                a = assess_window(traces, pair, start, end, cfg)
                seen.add(("distance", a.mean_distance is not None))
                seen.add(("environment", a.env_score is not None, a.env_sensor))
                seen.add(("appearance", a.appearance_ble, a.appearance_chirps))
                pool = as_trace(traces.get(pair[0], ())) + as_trace(traces.get(pair[1], ()))
                window = make_window(pool, pair, start, end - start)
                evidence = build_evidence(window, cfg)
                seen.add(("heard", any(heard for _, _, heard in evidence.chirps)))
                seen.add(("gate", any(noise == cfg.noise_gate_db for _, noise, _ in evidence.chirps)))
                for device in window.pair:
                    states = window.samples.value[window.samples.rows(SensorKind.PROXIMITY, device)]
                    seen.add(("proximity tie", states.size > 0 and 2 * (states >= 0.5).sum() == states.size))
                lengths = [len(seqs[SensorKind.BAROMETER]) for seqs in evidence.env_sequences.values()]
                seen.add(("sequence of one", 1 in lengths))
                seen.add(("unequal sequences", 0 < min(lengths) < max(lengths)))
        assert ("distance", False) in seen and ("distance", True) in seen
        assert {("environment", False, SensorKind.BAROMETER), ("environment", False, SensorKind.MAGNETOMETER)} <= seen
        assert {("environment", True, SensorKind.BAROMETER), ("environment", True, SensorKind.MAGNETOMETER)} <= seen
        # chirp votes turn a BLE majority around, and some windows see none
        assert {("appearance", True, False), ("appearance", True, True), ("appearance", False, False)} <= seen
        assert {("heard", True), ("heard", False), ("gate", True), ("proximity tie", True)} <= seen
        assert {("sequence of one", True), ("unequal sequences", True)} <= seen

    def test_first_empty_window_raises_the_references_error(self):
        rng = random.Random(3)
        cfg = random_config(rng)
        traces, instances = random_run(rng, cfg)
        instances = nonempty(traces, instances)
        empty = [(("x", "y"), 1.0, 2.0), (("y", "z"), 1.0, 2.0)]
        for position in range(len(instances) + 1):
            run = instances[:position] + empty + instances[position:]
            with pytest.raises(EmptyWindow) as want:
                reference(traces, run, cfg)
            with pytest.raises(EmptyWindow) as got:
                assess_instances(traces, run, cfg)
            assert str(got.value) == str(want.value) == "no samples for pair ('x', 'y') in [1.0, 2.0)"

    @pytest.mark.parametrize("bad", [(("a", "a"), 0.0, 9.0), (("a", "b"), 5.0, 5.0)])
    def test_invalid_instance_raises_the_references_error(self, bad):
        rng = random.Random(4)
        cfg = random_config(rng)
        traces, instances = random_run(rng, cfg)
        run = nonempty(traces, instances) + [bad]
        with pytest.raises(ValueError) as want:
            reference(traces, run, cfg)
        with pytest.raises(ValueError) as got:
            assess_instances(traces, run, cfg)
        assert str(got.value) == str(want.value)

    def test_small_batches_equal_one_batch(self, monkeypatch):
        rng = random.Random(5)
        cfg = random_config(rng)
        traces, instances = random_run(rng, cfg)
        instances = nonempty(traces, instances) * 3
        whole = bits(assess_instances(traces, instances, cfg))
        monkeypatch.setattr(evaluation, "_BATCH_ROWS", 1)
        assert bits(assess_instances(traces, instances, cfg)) == whole == bits(reference(traces, instances, cfg))

    def test_no_instances(self):
        assert assess_instances({}, [], FusionConfig()) == []


def pow_differs(exponents):
    return [x for x in exponents if float(np.power(10.0, x)) != 10.0**x]


class TestConversions:
    def test_rss_distances_bit_for_bit(self):
        rng = np.random.default_rng(7)
        params = PathLossParams(power_at_1m=-59.0, exponent=2.0)
        rss = np.round(rng.uniform(-120.0, 0.0, 20_000), 6)
        exponents = (params.power_at_1m - rss) / (10.0 * params.exponent)
        assert pow_differs(exponents.tolist())  # np.power would not match
        got = distances_from_rss(rss, params)
        assert [d.hex() for d in got.tolist()] == [distance_from_rss(r, params).hex() for r in rss.tolist()]

    def test_sound_distances_bit_for_bit(self):
        rng = np.random.default_rng(8)
        chirp = ChirpSpec()
        amp = rng.uniform(-40.0, chirp.amplitude, 20_000)
        exponents = (chirp.amplitude - amp) / (10.0 * 2.0)
        assert pow_differs(exponents.tolist())
        got = sound_distances(amp, chirp, 2.0)
        assert [d.hex() for d in got.tolist()] == [sound_distance(v, chirp, 2.0).hex() for v in amp.tolist()]

    def test_clamped(self):
        params = PathLossParams()
        assert distances_from_rss(np.array([0.0, -120.0]), params).tolist() == [
            distance_from_rss(0.0, params), distance_from_rss(-120.0, params)
        ]
        assert distances_from_rss(np.array([]), params).size == 0


class TestDtwScores:
    def test_equal_to_dtw_score(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            k, m, n = (int(x) for x in rng.integers(1, 9, 3))
            digits = int(rng.integers(0, 3))  # rounded values tie often
            a, b = np.round(rng.normal(0, 2, (k, m)), digits), np.round(rng.normal(0, 2, (k, n)), digits)
            want = [dtw_score(x.tolist(), y.tolist()).hex() for x, y in zip(a, b)]
            assert [s.hex() for s in dtw_scores(a, b).tolist()] == want

    def test_in_parts_equal_to_at_once(self, monkeypatch):
        rng = np.random.default_rng(10)
        a, b = np.round(rng.normal(0, 2, (50, 6)), 1), np.round(rng.normal(0, 2, (50, 4)), 1)
        whole = dtw_scores(a, b).tolist()
        monkeypatch.setattr(envmatch, "_DTW_PLACES", 15)  # two pairs at a time
        assert dtw_scores(a, b).tolist() == whole == [dtw_score(x.tolist(), y.tolist()) for x, y in zip(a, b)]

    def test_costs_that_overflow(self):
        a, b = np.array([[1e200, -1e200, 3.0]]), np.array([[-1e200, 1e200]])
        with np.errstate(over="ignore"):
            want = dtw_score(a[0].tolist(), b[0].tolist())
        assert math.isnan(want) == math.isnan(dtw_scores(a, b)[0])

    def test_non_finite_raises_dtw_scores_error(self):
        a, b = np.array([[1.0, 2.0], [1.0, math.nan]]), np.array([[1.0], [2.0]])
        with pytest.raises(ValueError, match="first sequence contains non-finite value nan"):
            dtw_scores(a, b)

    @pytest.mark.parametrize("side", ["first", "second"])
    def test_non_finite_error_needs_no_reference(self, monkeypatch, side):
        # The batch words dtw_score's error itself, without calling it.
        a, b = np.array([[1.0, 2.0], [1.0, 3.0]]), np.array([[1.0], [2.0]])
        (a if side == "first" else b)[1, -1] = math.nan
        with pytest.raises(ValueError) as want:
            dtw_score(a[1].tolist(), b[1].tolist())
        monkeypatch.setattr(envmatch, "dtw_score", None)
        with pytest.raises(ValueError) as got:
            dtw_scores(a, b)
        assert str(got.value) == str(want.value) == f"{side} sequence contains non-finite value nan"


def package_files(fn):
    """The source files of the package whose functions ``fn`` can reach by
    the names its code uses, methods of reached classes included."""
    package = pathlib.Path(evaluation.__file__).parent
    seen, todo, files = set(), [fn], set()
    while todo:
        f = todo.pop()
        if id(f) in seen:
            continue
        seen.add(id(f))
        path = pathlib.Path(inspect.getsourcefile(f) or "")
        if package not in path.parents:
            continue
        files.add(path)
        codes, names = [f.__code__], set()
        while codes:
            code = codes.pop()
            names.update(code.co_names)
            codes += [c for c in code.co_consts if inspect.iscode(c)]
        module = sys.modules[f.__module__]
        for name in names:
            obj = getattr(module, name, None)
            if inspect.isfunction(obj):
                todo.append(obj)
            elif inspect.isclass(obj):
                for member in vars(obj).values():
                    member = member.fget if isinstance(member, property) else getattr(member, "__func__", member)
                    if inspect.isfunction(member):
                        todo.append(member)
    return files


class TestDetectorDigest:
    def test_hashes_every_module_the_batch_lives_in(self, monkeypatch):
        read = set()
        read_bytes = pathlib.Path.read_bytes
        monkeypatch.setattr(pathlib.Path, "read_bytes", lambda self: read.add(self.resolve()) or read_bytes(self))
        detector_digest()
        reached = {path.resolve() for path in package_files(assess_instances)}
        assert {"evaluation.py", "fusion.py", "envmatch.py", "ranging.py", "core.py"} <= {p.name for p in reached}
        assert reached <= read
