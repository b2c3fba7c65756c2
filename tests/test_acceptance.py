"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every randomized check pins its seed; tolerances are fixed here and
nowhere else.
"""

import hashlib
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from sensetrace.cli import main as cli_main
from sensetrace.envmatch import dtw_score
from sensetrace.evaluation import ConfusionCounts, TierSpec, accuracy
from sensetrace.protocol import (
    ReportMode,
    ServerState,
    check_exposure,
    exchange_ids,
    register_device,
    report_positive_centralized,
    report_positive_decentralized,
)
from sensetrace.core import ContactDecision, ContactWindow, SensorKind, SensorSample
from sensetrace.ranging import ChirpSpec, PathLossParams, distance_from_rss, rss_from_distance
from sensetrace.simulator import (
    DevicePlacement,
    PressureModel,
    PropagationNoise,
    Region,
    Testbed,
    generate_traces,
    load_scenario,
)

from .conftest import STANDARD
from .oracles import brute_force_dtw, run_tier, simulate_barometer, simulate_sound


def report(number, text):
    print(f"\n[ACCEPTANCE {number}] PASS - {text}")


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def test_criterion_1_accuracy_formula_reproduction():
    """Published staged-system counts reproduce 25%, 65.42%, 87.08%."""
    with Timer() as t:
        rows = [
            (ConfusionCounts(tp=60, fp=180, tn=0, fn=0), 25.0),
            (ConfusionCounts(tp=38, fp=61, tn=119, fn=22), 65.42),
            (ConfusionCounts(tp=38, fp=9, tn=171, fn=22), 87.08),
        ]
        got = [round(accuracy(c) * 100, 2) for c, _ in rows]
        assert got == [expected for _, expected in rows]
    assert t.elapsed < 1.0
    report(1, f"accuracy formula gives {got} percent ({t.elapsed:.3f}s)")


def test_criterion_2_dtw_oracle_equivalence():
    """1,000 random pairs with N*M <= 25 match brute-force enumeration."""
    rng = random.Random(20240)
    with Timer() as t:
        worst = 0.0
        for _ in range(1000):
            n = rng.randint(1, 5)
            m = rng.randint(1, min(5, 25 // n))
            # Dyadic values keep all arithmetic exact, so even tie-breaks
            # between equal-cost paths agree with the oracle.
            a = [rng.randint(-64, 64) / 16.0 for _ in range(n)]
            b = [rng.randint(-64, 64) / 16.0 for _ in range(m)]
            got = dtw_score(a, b)
            want = brute_force_dtw(a, b)
            worst = max(worst, abs(got - want))
            assert abs(got - want) <= 1e-9
    assert t.elapsed < 30.0
    report(2, f"1000 DTW pairs, max |impl - oracle| = {worst:.2e} ({t.elapsed:.2f}s)")


def test_criterion_3_path_loss_roundtrip():
    """d -> rss -> d relative error < 1e-9 over 10,000 random cases."""
    rng = random.Random(31)
    with Timer() as t:
        worst = 0.0
        for _ in range(10000):
            d = rng.uniform(0.1, 100.0)
            n = rng.uniform(1.5, 4.0)
            power = rng.uniform(-80.0, -40.0)
            params = PathLossParams(power, n)
            back = distance_from_rss(rss_from_distance(d, params), params)
            rel = abs(back - d) / d
            worst = max(worst, rel)
            assert rel < 1e-9
    assert t.elapsed < 5.0
    report(3, f"10000 roundtrips, worst relative error {worst:.2e} ({t.elapsed:.2f}s)")


def test_criterion_4_tier_ordering_scaled():
    """FP strictly drops and accuracy strictly rises across the three tiers
    on the standard seeded scenario; FP(FULL) <= 0.15 * FP(APPEARANCE)."""
    with Timer() as t:
        scenario = load_scenario(STANDARD, seed=42)[0]
        data = generate_traces(scenario)
        counts = {}
        for tier in TierSpec:
            _, counts[tier] = run_tier(data.traces, data.labels, tier, scenario.fusion)
        fp_app = counts[TierSpec.APPEARANCE_ONLY].fp
        fp_dist = counts[TierSpec.APPEARANCE_DISTANCE].fp
        fp_full = counts[TierSpec.FULL].fp
        accs = [accuracy(counts[tier]) for tier in TierSpec]
        assert fp_app > fp_dist > fp_full
        assert accs[0] < accs[1] < accs[2]
        assert fp_full <= 0.15 * fp_app
    assert t.elapsed < 120.0
    report(
        4,
        f"FP {fp_app}>{fp_dist}>{fp_full}, accuracy "
        f"{accs[0]:.4f}<{accs[1]:.4f}<{accs[2]:.4f}, "
        f"FP ratio {fp_full / fp_app:.3f} <= 0.15 ({t.elapsed:.1f}s)",
    )


def _tower(sigma=None):
    pm = PressureModel() if sigma is None else PressureModel(sigma_hpa=sigma)
    return Testbed(
        regions=(Region("tower", "indoor", 0.0, 10.0, 0.0, 10.0, 10.0),),
        floors=14,
        pressure=pm,
    )


def test_criterion_5_floor_separation():
    """Adjacent floors differ by exactly the configured 0.43 hPa gap at zero
    noise; with default noise a Welch two-sample test separates floors in
    every one of 100 seeded trials."""
    with Timer() as t:
        quiet = _tower(sigma=0.0)
        rng = np.random.default_rng(0)
        p0 = simulate_barometer(DevicePlacement("a", 5.0, 5.0, floor=0), quiet, rng)
        p1 = simulate_barometer(DevicePlacement("b", 5.0, 5.0, floor=1), quiet, rng)
        assert p0 - p1 == pytest.approx(0.43, abs=1e-9)

        noisy = _tower()
        successes = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            lo = [simulate_barometer(DevicePlacement("a", 5.0, 5.0, floor=0), noisy, rng) for _ in range(10)]
            hi = [simulate_barometer(DevicePlacement("b", 5.0, 5.0, floor=1), noisy, rng) for _ in range(10)]
            m0, m1 = sum(lo) / 10, sum(hi) / 10
            v0 = sum((x - m0) ** 2 for x in lo) / 9
            v1 = sum((x - m1) ** 2 for x in hi) / 9
            se = math.sqrt(v0 / 10 + v1 / 10)
            welch_t = (m0 - m1) / se if se > 0 else math.inf
            if welch_t > 4.3:  # one-sided p << 0.001 at these df
                successes += 1
        assert successes / 100 > 0.99
    assert t.elapsed < 30.0
    report(5, f"gap exact at zero noise; floors separated in {successes}/100 trials ({t.elapsed:.1f}s)")


def test_criterion_6_sound_floor_cutoff():
    """No sound sample is ever generated across two or more floors."""
    with Timer() as t:
        tb = _tower()
        noise = PropagationNoise()
        rng = np.random.default_rng(6)
        produced = 0
        for i in range(10000):
            floor_gap = 2 + (i % 12)
            tx = DevicePlacement("t", float(rng.uniform(0, 10)), float(rng.uniform(0, 10)), floor=0)
            rx = DevicePlacement(
                "r", float(rng.uniform(0, 10)), float(rng.uniform(0, 10)), floor=floor_gap
            )
            if simulate_sound(tx, rx, ChirpSpec(), tb, noise, rng) is not None:
                produced += 1
        assert produced == 0
    assert t.elapsed < 10.0
    report(6, f"0/10000 sound samples across >= 2 floors ({t.elapsed:.1f}s)")


def _random_protocol_run(seed, mode):
    rng = random.Random(seed)
    server = ServerState(mode)
    devices = [register_device(server) for _ in range(4)]
    now = 0.0
    exchanges = []
    decision = ContactDecision(True, 0.6, 0.01, SensorKind.BAROMETER, True)
    for _ in range(rng.randint(2, 8)):
        roll = rng.random()
        if roll < 0.55:
            a, b = rng.sample(devices, 2)
            sample = SensorSample(now, SensorKind.BLE_RSS, -60.0, src=a.permanent_id, obs=b.permanent_id)
            window = ContactWindow((a.permanent_id, b.permanent_id), now, now + 900.0, (sample,))
            exchange_ids(a, b, decision, window)
            exchanges.append((a, b))
        now += 900.0
    return server, devices, exchanges, now


def test_criterion_7_protocol_privacy_invariants():
    """1,000 randomized interaction runs: the decentralized server never
    stores a contact-log entry, and every true-contact partner of a
    later-positive reporter is surfaced in both modes."""
    with Timer() as t:
        for seed in range(500):
            server, devices, exchanges, now = _random_protocol_run(seed, ReportMode.DECENTRALIZED)
            if exchanges:
                reporter = exchanges[-1][0]
                published = report_positive_decentralized(reporter, server, now=now)
                partners = {
                    (b if a is reporter else a).permanent_id
                    for a, b in exchanges
                    if reporter in (a, b)
                }
                for d in devices:
                    if d.permanent_id in partners:
                        assert check_exposure(d, published)
            assert server.contact_entries_held() == 0
            assert server.uploaded_contact_lists == {}

        for seed in range(500):
            server, devices, exchanges, now = _random_protocol_run(seed + 7000, ReportMode.CENTRALIZED)
            if not exchanges:
                continue
            reporter = exchanges[-1][0]
            partners = {
                (b if a is reporter else a).permanent_id
                for a, b in exchanges
                if reporter in (a, b)
            }
            notified = report_positive_centralized(reporter, server)
            assert partners <= notified
            assert set(server.uploaded_contact_lists) == {reporter.permanent_id}
    assert t.elapsed < 30.0
    report(7, f"1000 randomized runs, both modes clean ({t.elapsed:.1f}s)")


# SHA-256 of the seed-42 outputs of the standard scenario. The trace digest
# hashes each trace file's name, a NUL byte and its bytes, in name order; it
# and the decision digests equal ``PINNED["standard"]`` in perfbench/pipeline.py.
SEED42_DIGESTS = {
    "traces": "5b4ec571d16807be41277c164cd64f157e8d7e9e975032e28b6129b7e7b49f16",
    "truth.jsonl": "3697a7a9a0c2f62ded8f23fa06321311115d0970a6aff2468047fd4a6b978c47",
    "instances.jsonl": "f0c9fb883a8cbbdf3939d7df612e9c3d32f3313e2aab8a750bdeb4a766ab1dbe",
    "decisions_appearance_only.jsonl": "27ab1fe1a05b69d2d51c46cec60160999186018d8f8eb162bf78cd89ad6b6ce4",
    "decisions_appearance_distance.jsonl": "b73b3a81cb66ddcfa763db1b02d0d39a2173681de1fd79a801bf2bcbc4df1d26",
    "decisions_full.jsonl": "be9db7143bca3b205dc5ac7520703d3e0ac50815e2a1c5feee82444130fb8cda",
}


def _trace_digest(run_dir):
    h = hashlib.sha256()
    for path in sorted((run_dir / "traces").glob("*.jsonl")):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def test_criterion_8_generate_determinism(tmp_path):
    """Two consecutive `generate` runs with the same seed write byte-identical
    trace files, and the seed-42 traces, truth, instances and decisions of
    all three tiers match their pinned digests."""
    with Timer() as t:
        config = Path(__file__).resolve().parent.parent / "configs" / "standard.yaml"
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert cli_main(["generate", "--config", str(config), "--out", str(out1)]) == 0
        assert cli_main(["generate", "--config", str(config), "--out", str(out2)]) == 0

        names1 = sorted(p.name for p in (out1 / "traces").iterdir())
        names2 = sorted(p.name for p in (out2 / "traces").iterdir())
        assert names1 == names2
        compared = 0
        for name in names1:
            b1 = (out1 / "traces" / name).read_bytes()
            b2 = (out2 / "traces" / name).read_bytes()
            assert b1 == b2
            compared += 1
        assert (out1 / "truth.jsonl").read_bytes() == (out2 / "truth.jsonl").read_bytes()
        assert (out1 / "instances.jsonl").read_bytes() == (out2 / "instances.jsonl").read_bytes()

        for tier in TierSpec:
            argv = ["detect", "--data", str(out1), "--config", str(config), "--tier", tier.value]
            assert cli_main(argv) == 0
        digests = {"traces": _trace_digest(out1)}
        for name in SEED42_DIGESTS:
            if name != "traces":
                digests[name] = hashlib.sha256((out1 / name).read_bytes()).hexdigest()
        assert digests == SEED42_DIGESTS
    assert t.elapsed < 30.0
    report(8, f"{compared} trace files byte-identical across two runs, seed-42 digests pinned ({t.elapsed:.1f}s)")
