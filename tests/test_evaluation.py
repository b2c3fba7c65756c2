import json
import math
import random
from fractions import Fraction

import pytest

from sensetrace.core import ContactDecision, GroundTruthLabel, SensorKind, make_window
from sensetrace.errors import EvaluationError
from sensetrace.evaluation import (
    ConfusionCounts,
    TierSpec,
    accuracy,
    assess_instances,
    confusion,
    distance_error_cdf,
    fuse_instances,
    magnetic_separation_report,
    magnitude_sequences,
    read_assessment_cache,
    tier_gates,
    write_assessment_cache,
)
from sensetrace.fusion import Assessment, DecisionRecord, assess, build_evidence, decide

from .oracles import gated_decide, run_tier


def record(pair, start, contact):
    return DecisionRecord(
        pair=pair,
        start=start,
        end=start + 900.0,
        decision=ContactDecision(contact, 0.5, 0.0, SensorKind.BAROMETER, contact),
    )


def label(pair, start, d):
    return GroundTruthLabel(pair, start, start + 900.0, d, d <= 1.0)


class TestConfusion:
    def test_all_correct_positives(self):
        decisions = [record(("a", "b"), 0.0, True), record(("c", "d"), 0.0, True)]
        truth = [label(("a", "b"), 0.0, 0.5), label(("c", "d"), 0.0, 0.9)]
        c = confusion(decisions, truth)
        assert (c.tp, c.fp, c.tn, c.fn) == (2, 0, 0, 0)

    def test_counts_sum_to_instances(self):
        # The full-tier staged-system row: 9 + 22 + 38 + 171 = 240.
        c = ConfusionCounts(tp=38, fp=9, tn=171, fn=22)
        assert c.total == 240

    def test_random_decisions_match_naive_recount(self):
        rng = random.Random(17)
        decisions, truth = [], []
        for i in range(200):
            pair = (f"d{i}a", f"d{i}b")
            d = rng.uniform(0.2, 5.0)
            got = rng.random() < 0.5
            decisions.append(record(pair, 0.0, got))
            truth.append(label(pair, 0.0, d))
        c = confusion(decisions, truth)

        tp = fp = tn = fn = 0  # independent per-instance recount
        for rec, lab in zip(decisions, truth):
            want = lab.true_distance <= 1.0
            got = rec.decision.contact
            if got and want:
                tp += 1
            elif got:
                fp += 1
            elif want:
                fn += 1
            else:
                tn += 1
        assert (c.tp, c.fp, c.tn, c.fn) == (tp, fp, tn, fn)

    def test_key_mismatch_rejected(self):
        decisions = [record(("a", "b"), 0.0, True)]
        truth = [label(("a", "b"), 900.0, 0.5)]
        with pytest.raises(EvaluationError):
            confusion(decisions, truth)

    def test_duplicate_decision_key_rejected(self):
        decisions = [record(("a", "b"), 0.0, True), record(("a", "b"), 0.0, False)]
        truth = [label(("a", "b"), 0.0, 0.5)]
        with pytest.raises(EvaluationError, match="duplicate decision"):
            confusion(decisions, truth)

    def test_duplicate_truth_key_rejected(self):
        decisions = [record(("a", "b"), 0.0, True)]
        truth = [label(("a", "b"), 0.0, 0.5), label(("a", "b"), 0.0, 0.5)]
        with pytest.raises(EvaluationError, match="duplicate truth"):
            confusion(decisions, truth)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(tp=-1)


class TestAccuracy:
    def test_appearance_only_row(self):
        assert accuracy(ConfusionCounts(tp=60, fp=180, tn=0, fn=0)) == 0.25

    def test_appearance_distance_row(self):
        got = accuracy(ConfusionCounts(tp=38, fp=61, tn=119, fn=22))
        assert got == pytest.approx(float(Fraction(157, 240)))
        assert round(got * 100, 2) == 65.42

    def test_full_row(self):
        got = accuracy(ConfusionCounts(tp=38, fp=9, tn=171, fn=22))
        assert got == pytest.approx(float(Fraction(209, 240)))
        assert round(got * 100, 2) == 87.08

    def test_matches_exact_rational_on_integers(self):
        rng = random.Random(3)
        for _ in range(200):
            tp, fp, tn, fn = (rng.randint(0, 500) for _ in range(4))
            if tp + fp + tn + fn == 0:
                continue
            c = ConfusionCounts(tp, fp, tn, fn)
            assert accuracy(c) == pytest.approx(
                float(Fraction(tp + tn, tp + fp + tn + fn)), rel=1e-15
            )

    def test_zero_total_rejected(self):
        with pytest.raises(EvaluationError):
            accuracy(ConfusionCounts())


class TestTierGates:
    def test_each_tier_enables_superset(self):
        g1 = tier_gates(TierSpec.APPEARANCE_ONLY)
        g2 = tier_gates(TierSpec.APPEARANCE_DISTANCE)
        g3 = tier_gates(TierSpec.FULL)
        enabled = lambda g: (g.use_chirp_votes, g.gate_distance, g.gate_environment)
        assert sum(enabled(g1)) < sum(enabled(g2)) < sum(enabled(g3))
        for a, b in zip(enabled(g2), enabled(g3)):
            assert b or not a


class TestRunTier:
    def test_appearance_only_flags_visible_far_pair(self, standard_data, standard_scenario_obj):
        # A BLE-visible pair well beyond the radius is a false positive for
        # the BLE-only mechanics and rejected by the full pipeline.
        cfg = standard_scenario_obj.fusion
        far = [lb for lb in standard_data.labels if lb.true_distance > 8.0]
        app, _ = run_tier(standard_data.traces, standard_data.labels, TierSpec.APPEARANCE_ONLY, cfg)
        full, _ = run_tier(standard_data.traces, standard_data.labels, TierSpec.FULL, cfg)
        app_by_key = {r.key: r.decision for r in app}
        full_by_key = {r.key: r.decision for r in full}
        flagged = [
            lb for lb in far if app_by_key[(lb.pair, lb.start, lb.end)].contact
        ]
        assert flagged, "expected BLE to see at least one far pair"
        for lb in flagged:
            assert full_by_key[(lb.pair, lb.start, lb.end)].contact is False

    def test_tier_ordering_on_standard_scenario(self, standard_data, standard_scenario_obj):
        cfg = standard_scenario_obj.fusion
        counts = {}
        for tier in TierSpec:
            _, counts[tier] = run_tier(standard_data.traces, standard_data.labels, tier, cfg)
        assert (
            counts[TierSpec.APPEARANCE_ONLY].fp
            >= counts[TierSpec.APPEARANCE_DISTANCE].fp
            >= counts[TierSpec.FULL].fp
        )
        assert (
            counts[TierSpec.APPEARANCE_ONLY].fn
            <= counts[TierSpec.APPEARANCE_DISTANCE].fn
            <= counts[TierSpec.FULL].fn
        )


@pytest.fixture(scope="module")
def standard_evidence(standard_data, standard_scenario_obj):
    """The evidence of every labelled window of the standard scenario."""
    cfg = standard_scenario_obj.fusion
    out = []
    for lb in standard_data.labels:
        a, b = lb.pair
        window = make_window(standard_data.traces[a] + standard_data.traces[b], lb.pair, lb.start, lb.end - lb.start)
        out.append(build_evidence(window, cfg))
    return out


class TestAssessThenFuse:
    def test_every_standard_window_and_tier(self, standard_evidence, standard_scenario_obj):
        cfg = standard_scenario_obj.fusion
        contacts = dict.fromkeys(TierSpec, 0)
        for ev in standard_evidence:
            assessment = assess(ev, cfg)
            for tier in TierSpec:
                gates = tier_gates(tier)
                want = gated_decide(ev, cfg, gates)
                assert decide(ev, cfg, gates) == want
                assert decide(assessment, cfg, gates) == want
                contacts[tier] += want.contact
        assert contacts == {TierSpec.APPEARANCE_ONLY: 235, TierSpec.APPEARANCE_DISTANCE: 56, TierSpec.FULL: 50}

    def test_stored_assessments_fuse_as_fresh_ones(self, standard_data, standard_scenario_obj, tmp_path):
        cfg = standard_scenario_obj.fusion
        instances = [(lb.pair, lb.start, lb.end) for lb in standard_data.labels]
        assessments = list(assess_instances(standard_data.traces, instances, cfg))
        key = {"run": "standard", "files": [["a.jsonl", "0" * 64]]}
        path = tmp_path / "assessments.json"
        write_assessment_cache(path, key, assessments)
        stored = read_assessment_cache(path, key, len(instances))
        assert stored == assessments
        for tier in TierSpec:
            records = run_tier(standard_data.traces, standard_data.labels, tier, cfg)[0]
            assert fuse_instances(instances, stored, cfg, tier_gates(tier)) == records


SMALL_ASSESSMENTS = [
    Assessment(True, True, 0.8, SensorKind.BAROMETER, 0.0),
    Assessment(None, None, None, None, None),
]
KEY = {"config_sha256": "c" * 16, "traces": [["a.jsonl", "0" * 64]]}


def _edit_payload(edit):
    def damage(data):
        payload = json.loads(data)
        edit(payload)
        return json.dumps(payload).encode()
    return damage


class TestAssessmentCache:
    def cache(self, tmp_path):
        path = tmp_path / "assessments.json"
        write_assessment_cache(path, KEY, SMALL_ASSESSMENTS)
        return path

    def test_roundtrip(self, tmp_path):
        assert read_assessment_cache(self.cache(tmp_path), KEY, 2) == SMALL_ASSESSMENTS

    def test_equal_assessments_give_equal_bytes(self, tmp_path):
        (tmp_path / "1").mkdir()
        (tmp_path / "2").mkdir()
        assert self.cache(tmp_path / "1").read_bytes() == self.cache(tmp_path / "2").read_bytes()

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda data: None, id="absent"),
            pytest.param(lambda data: b"", id="empty"),
            pytest.param(lambda data: data[:-30], id="truncated"),
            pytest.param(lambda data: bytes(random.Random(1).randrange(256) for _ in data), id="garbage"),
            pytest.param(lambda data: b"[" * 100_000, id="deep_nesting"),
            pytest.param(lambda data: data.replace(b'"version":2', b'"version":3'), id="other_version"),
            pytest.param(_edit_payload(lambda p: p["key"].update(config_sha256="d" * 16)), id="other_key"),
            pytest.param(_edit_payload(lambda p: p["records"].pop()), id="one_record_short"),
            pytest.param(_edit_payload(lambda p: p["records"][0].pop()), id="record_short"),
            pytest.param(_edit_payload(lambda p: p["records"].__setitem__(0, {})), id="record_not_a_list"),
            pytest.param(_edit_payload(lambda p: p["records"][0].__setitem__(0, 1)), id="int_for_bool"),
            pytest.param(_edit_payload(lambda p: p["records"][0].__setitem__(2, 1)), id="int_for_float"),
            pytest.param(_edit_payload(lambda p: p["records"][0].__setitem__(3, "SONAR")), id="unknown_sensor"),
            pytest.param(_edit_payload(lambda p: p.__setitem__("records", None)), id="no_records"),
        ],
    )
    def test_damaged_cache_is_a_miss(self, tmp_path, damage):
        path = self.cache(tmp_path)
        data = damage(path.read_bytes())
        if data is None:
            path.unlink()
        else:
            path.write_bytes(data)
        assert read_assessment_cache(path, KEY, 2) is None


class TestDistanceErrorCdf:
    def test_perfect_estimates_single_point(self):
        assert distance_error_cdf([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == [(0.0, 1.0)]

    def test_two_thirds_at_two(self):
        points = distance_error_cdf([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
        as_dict = dict(points)
        assert as_dict[2.0] == pytest.approx(2 / 3)

    def test_monotone_and_ends_at_one(self):
        rng = random.Random(23)
        est = [rng.uniform(0, 30) for _ in range(500)]
        true = [rng.uniform(0, 30) for _ in range(500)]
        points = distance_error_cdf(est, true)

        # Sort-and-count oracle.
        errors = sorted(abs(e - t) for e, t in zip(est, true))
        for err, frac in points:
            naive = sum(1 for x in errors if x <= err) / len(errors)
            assert frac == pytest.approx(naive)
        fracs = [f for _, f in points]
        assert fracs == sorted(fracs)
        assert fracs[-1] == 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(EvaluationError):
            distance_error_cdf([1.0], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            distance_error_cdf([], [])


class TestMagneticSeparationReport:
    def test_identical_sequences_zero(self):
        stats = magnetic_separation_report([(0.5, [50.0] * 10, [50.0] * 10)])
        assert stats[0].count == 1
        assert stats[0].mean == 0.0

    def test_constant_offset_closed_form(self):
        # Sequences k apart over length L have Euclidean distance k*sqrt(L).
        k, L = 7.0, 16
        stats = magnetic_separation_report([(1.5, [40.0] * L, [40.0 + k] * L)])
        assert stats[1].count == 1
        assert stats[1].mean == pytest.approx(k * math.sqrt(L))

    def test_truncates_to_shorter(self):
        stats = magnetic_separation_report([(0.5, [50.0] * 10, [53.0] * 4)])
        assert stats[0].mean == pytest.approx(3.0 * math.sqrt(4))

    def test_empty_bucket_reported_absent(self):
        stats = magnetic_separation_report([(0.5, [50.0], [50.0])])
        assert stats[2].count == 0
        assert stats[2].mean is None

    def test_bucket_means_non_decreasing_on_standard_scenario(self, standard_data):
        items = []
        for lb in standard_data.labels:
            a, b = lb.pair
            items.append(
                (
                    lb.true_distance,
                    magnitude_sequences(standard_data.traces, a),
                    magnitude_sequences(standard_data.traces, b),
                )
            )
        stats = magnetic_separation_report(items)
        means = [s.mean for s in stats]
        assert all(m is not None for m in means)
        assert all(x <= y for x, y in zip(means, means[1:]))
