import json
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from figdesc.errors import (
    AlignmentError,
    ArticleParseError,
    CalibrationError,
    ConfigError,
    DegenerateTableError,
    SchemaError,
)
from figdesc.ontology import UNKNOWN
from figdesc.scoring import (
    DEFAULT_EXCLUDED_CONCEPTS,
    DEFAULT_EXCLUDED_PROPERTIES,
    WeightTable,
    calibrate,
    classify,
    compute_threshold,
    element_contributions,
    evaluate,
    lambda_sweep,
    load_weight_table,
    save_weight_table,
    sentence_weight,
    sweep_to_tsv,
)
from figdesc.tmr import CONCEPT, PROPERTY, Tmr, TmrElement, build_sentence_tmr

from .helpers import (
    GOLDEN_CONCEPT_WEIGHTS,
    GOLDEN_CONTRIBUTIONS,
    GOLDEN_PROPERTY_WEIGHTS,
    GOLDEN_SENTENCE_WEIGHT,
    REF_PARSE_ROWS,
    REF_TEXT,
    parsed_sentence,
)


def make_tmr(rows, ref=0):
    t = Tmr(sentence_ref=ref)
    t.elements = [TmrElement(kind, name, d) for kind, name, d in rows]
    return t


def golden_table():
    return WeightTable(
        concept_weights=dict(GOLDEN_CONCEPT_WEIGHTS),
        property_weights=dict(GOLDEN_PROPERTY_WEIGHTS),
        mean_ref_weight=0.407,
        calibration_counts=(1, 5, 2),
    )


class TestWorkedExample:
    @pytest.fixture()
    def tmr(self, resources):
        sent = parsed_sentence(REF_TEXT, REF_PARSE_ROWS)
        return build_sentence_tmr(
            sent,
            resources.graph,
            resources.gazetteer,
            resources.synsets,
            resources.embeddings,
        )

    def test_contributions(self, tmr):
        rows = element_contributions(tmr, golden_table())
        assert dict(rows) == pytest.approx(GOLDEN_CONTRIBUTIONS, abs=1e-4)
        assert len(rows) == len(GOLDEN_CONTRIBUTIONS)

    def test_sentence_weight(self, tmr):
        w = sentence_weight(tmr, golden_table())
        assert w == pytest.approx(GOLDEN_SENTENCE_WEIGHT, abs=1e-4)

    def test_case_roles_never_contribute(self, tmr):
        keys = [k for k, _ in element_contributions(tmr, golden_table())]
        assert all(name not in DEFAULT_EXCLUDED_PROPERTIES for _, name, _ in keys)


class TestCalibration:
    def test_hand_computed_table(self):
        t1 = make_tmr([(CONCEPT, "A", 1), (CONCEPT, "B", 2)])
        t2 = make_tmr([(CONCEPT, "A", 2), (PROPERTY, "P", 1)])
        table = calibrate([t1, t2])
        # raw: A = 1 + 1/4, B = 1/4; P = 1
        assert table.concept_weights["A"] == pytest.approx(5 / 6)
        assert table.concept_weights["B"] == pytest.approx(1 / 6)
        assert table.property_weights["P"] == pytest.approx(1.0)
        # weights: t1 = 5/6 + (1/6)/4, t2 = (5/6)/4 + 1
        assert table.mean_ref_weight == pytest.approx((7 / 8 + 29 / 24) / 2)
        assert table.calibration_counts == (2, 2, 1)

    def test_empty_corpus(self):
        with pytest.raises(CalibrationError):
            calibrate([])

    def test_all_excluded_is_degenerate(self):
        t = make_tmr([(CONCEPT, "EVENT", 1), (PROPERTY, "AGENT", 1)])
        with pytest.raises(DegenerateTableError, match="^exclusions removed every element$"):
            calibrate([t, make_tmr([])])

    def test_no_elements_at_all_is_degenerate(self):
        with pytest.raises(DegenerateTableError, match="^none of the 2 reference repr"):
            calibrate([make_tmr([]), make_tmr([])])

    def test_excluded_names_never_keyed(self):
        t = make_tmr(
            [
                (CONCEPT, "A", 1),
                (CONCEPT, "EVENT", 2),
                (CONCEPT, "OBJECT", 3),
                (PROPERTY, "AGENT", 1),
                (PROPERTY, "P", 1),
            ]
        )
        table = calibrate([t])
        assert set(table.concept_weights) == {"A"}
        assert set(table.property_weights) == {"P"}

    def test_unknown_placeholders_never_keyed(self):
        t = make_tmr([(CONCEPT, "A", 1), (CONCEPT, "UNKNOWN", 1), (PROPERTY, "UNKNOWN", 1)])
        # No exclusion set names UNKNOWN: the placeholder is dropped on its own.
        assert UNKNOWN not in DEFAULT_EXCLUDED_CONCEPTS | DEFAULT_EXCLUDED_PROPERTIES
        table = calibrate([t])
        assert set(table.concept_weights) == {"A"}
        assert table.property_weights == {}

    def test_single_category_corpus(self):
        t = make_tmr([(PROPERTY, "P", 1), (PROPERTY, "Q", 3)])
        table = calibrate([t])
        assert table.concept_weights == {}
        assert math.fsum(table.property_weights.values()) == pytest.approx(1.0, abs=1e-12)


CONCEPT_NAMES = ["C1", "C2", "C3", "C4", "EVENT", "OBJECT", "UNKNOWN"]
PROPERTY_NAMES = ["P1", "P2", "P3", "AGENT", "THEME", "UNKNOWN"]

elements_strategy = st.lists(
    st.one_of(
        st.tuples(st.just(CONCEPT), st.sampled_from(CONCEPT_NAMES), st.integers(1, 5)),
        st.tuples(st.just(PROPERTY), st.sampled_from(PROPERTY_NAMES), st.integers(1, 5)),
    ),
    min_size=1,
    max_size=12,
)
corpus_strategy = st.lists(elements_strategy, min_size=1, max_size=8)


def has_includable(corpus):
    return any(
        name not in ("EVENT", "OBJECT", "AGENT", "THEME", "UNKNOWN")
        for rows in corpus
        for _, name, _ in rows
    )


class TestCalibrationProperties:
    @given(corpus_strategy.filter(has_includable))
    def test_each_category_sums_to_one(self, corpus):
        table = calibrate([make_tmr(rows, i) for i, rows in enumerate(corpus)])
        for pool in (table.concept_weights, table.property_weights):
            if pool:
                assert abs(math.fsum(pool.values()) - 1.0) <= 1e-9
            for name in pool:
                assert name not in ("EVENT", "OBJECT", "AGENT", "THEME", "UNKNOWN")

    @given(corpus_strategy.filter(has_includable), st.integers(0, 2**32 - 1))
    def test_input_order_is_irrelevant(self, corpus, seed):
        tmrs = [make_tmr(rows, i) for i, rows in enumerate(corpus)]
        shuffled = list(tmrs)
        random.Random(seed).shuffle(shuffled)
        a = calibrate(tmrs)
        b = calibrate(shuffled)
        assert a.concept_weights == b.concept_weights
        assert a.property_weights == b.property_weights
        assert a.mean_ref_weight == b.mean_ref_weight

    @given(corpus_strategy.filter(has_includable))
    def test_mean_matches_rescoring_the_references(self, corpus):
        tmrs = [make_tmr(rows, i) for i, rows in enumerate(corpus)]
        table = calibrate(tmrs)
        weights = sorted(sentence_weight(t, table) for t in tmrs)
        assert table.mean_ref_weight == math.fsum(weights) / len(weights)


class TestScoring:
    def test_unseen_elements_contribute_zero(self):
        table = calibrate([make_tmr([(CONCEPT, "A", 1)])])
        t = make_tmr([(CONCEPT, "A", 1), (CONCEPT, "NEVER-SEEN", 1)])
        assert sentence_weight(t, table) == pytest.approx(1.0)

    def test_distance_damping(self):
        table = WeightTable({"A": 1.0}, {}, 0.0, (1, 1, 0))
        for d in (1, 2, 3, 4):
            t = make_tmr([(CONCEPT, "A", d)])
            assert sentence_weight(t, table) == pytest.approx(1.0 / d**2)

    def test_repeated_occurrences_accumulate(self):
        table = WeightTable({"A": 0.5}, {}, 0.0, (1, 1, 0))
        t = make_tmr([(CONCEPT, "A", 1), (CONCEPT, "A", 2)])
        assert sentence_weight(t, table) == pytest.approx(0.5 + 0.125)

    def test_empty_tmr_scores_zero(self):
        table = WeightTable({"A": 1.0}, {}, 0.0, (1, 1, 0))
        assert sentence_weight(make_tmr([]), table) == 0.0

    def test_contributions_canonical_order(self):
        table = WeightTable({"B": 0.5, "A": 0.5}, {"P": 1.0}, 0.0, (1, 2, 1))
        t = make_tmr([(PROPERTY, "P", 1), (CONCEPT, "B", 2), (CONCEPT, "A", 1)])
        keys = [k for k, _ in element_contributions(t, table)]
        assert keys == [(CONCEPT, "A", 1), (CONCEPT, "B", 2), (PROPERTY, "P", 1)]


class TestThresholdAndDecision:
    def test_threshold_is_scaled_mean(self):
        assert compute_threshold(0.407, 0.5) == pytest.approx(0.2035)

    def test_nonpositive_lambda_rejected(self):
        with pytest.raises(ConfigError):
            compute_threshold(0.4, 0.0)
        with pytest.raises(ConfigError):
            compute_threshold(0.4, -1.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_non_finite_lambda_rejected(self, lam):
        with pytest.raises(ConfigError, match="finite"):
            compute_threshold(0.4, lam)

    def test_decision_is_strict(self):
        assert not classify(0.5, 0.5)
        assert classify(0.5000001, 0.5)
        assert not classify(0.4, 0.5)


class TestEvaluation:
    def test_hand_case(self):
        m = evaluate([True, True, False, False], [1, 0, 1, 0])
        assert m["tp"] == 1 and m["fp"] == 1 and m["fn"] == 1 and m["tn"] == 1
        assert m["accuracy"] == pytest.approx(0.5)
        assert m["precision"] == pytest.approx(0.5)
        assert m["recall"] == pytest.approx(0.5)
        assert m["f1"] == pytest.approx(0.5)

    def test_length_mismatch(self):
        with pytest.raises(AlignmentError):
            evaluate([True], [1, 0])

    def test_zero_denominators(self):
        m = evaluate([False, False], [0, 0])
        assert m["precision"] == 0.0
        assert m["recall"] == 0.0
        assert m["f1"] == 0.0
        assert m["accuracy"] == 1.0

    def test_perfect(self):
        m = evaluate([True, False], [1, 0])
        assert m["f1"] == 1.0


class TestSweep:
    def test_rows(self):
        rows = lambda_sweep([0.1, 0.5], 0.4, [0.5, 1.0], [0, 1])
        assert [r["lambda"] for r in rows] == [0.5, 1.0]
        assert rows[0]["threshold"] == pytest.approx(0.2)
        assert rows[0]["f1"] == 1.0  # 0.5 > 0.2 and 0.1 <= 0.2
        assert rows[1]["threshold"] == pytest.approx(0.4)
        assert rows[1]["f1"] == 1.0

    def test_tsv_shape(self):
        rows = lambda_sweep([0.1, 0.5], 0.4, [0.5], [0, 1])
        text = sweep_to_tsv(rows)
        lines = text.splitlines()
        assert lines[0] == "lambda\tthreshold\taccuracy\tf1"
        assert len(lines) == 2
        assert lines[1].split("\t")[0] == "0.5"
        assert text.endswith("\n")


class TestPersistence:
    def test_roundtrip(self):
        t1 = make_tmr([(CONCEPT, "A", 1), (CONCEPT, "B", 2), (PROPERTY, "P", 1)])
        t2 = make_tmr([(CONCEPT, "A", 3), (PROPERTY, "Q", 1)])
        table = calibrate([t1, t2])
        loaded = load_weight_table(save_weight_table(table))
        assert loaded.calibration_counts == table.calibration_counts
        assert loaded.mean_ref_weight == pytest.approx(table.mean_ref_weight, rel=1e-11)
        for name, w in table.concept_weights.items():
            assert loaded.concept_weights[name] == pytest.approx(w, rel=1e-11)

    def test_save_is_deterministic_and_sorted(self):
        table = WeightTable({"B": 0.25, "A": 0.75}, {"P": 1.0}, 0.5, (3, 2, 1))
        text = save_weight_table(table)
        assert text == save_weight_table(table)
        assert text.index('"A"') < text.index('"B"')

    GOOD = {"concepts": {"A": 0.5}, "properties": {}, "mean_ref_weight": 0.25, "counts": {}}

    @pytest.mark.parametrize(
        "doc, message",
        [
            (5, "weights: must be a JSON object"),
            ({**GOOD, "counts": 5}, "weights.counts: must be an object"),
            ({**GOOD, "concepts": [0.5]}, "weights.concepts: must be an object"),
            ({**GOOD, "mean_ref_weight": "x"}, "weights.mean_ref_weight: must be a finite number"),
            (
                {**GOOD, "mean_ref_weight": float("nan")},
                "weights.mean_ref_weight: must be a finite number",
            ),
            ({**GOOD, "concepts": {"A": "x"}}, "weights.concepts['A']: must be a finite number"),
            (
                {**GOOD, "properties": {"P": True}},
                "weights.properties['P']: must be a finite number",
            ),
            ({**GOOD, "counts": {"tmrs": 1.5}}, "weights.counts.tmrs: must be an integer"),
            (
                {**GOOD, "concepts": {"A": 10**400}},
                "weights.concepts['A']: must be a finite number",
            ),
        ],
        ids=[
            "not-an-object",
            "counts-not-an-object",
            "concepts-not-an-object",
            "non-numeric-mean",
            "nan-mean",
            "non-numeric-weight",
            "boolean-weight",
            "fractional-count",
            "integer-beyond-float-range",
        ],
    )
    def test_bad_value_names_its_field(self, doc, message):
        with pytest.raises(SchemaError) as e:
            load_weight_table(json.dumps(doc))
        assert str(e.value) == message

    def test_not_utf8(self):
        with pytest.raises(ArticleParseError, match="weights: not UTF-8"):
            load_weight_table(b'{"concepts": {"\xe9": 1}}')

    def test_missing_field_rejected(self):
        with pytest.raises(SchemaError, match="^weights: missing field 'mean_ref_weight'$"):
            load_weight_table('{"concepts": {}, "properties": {}, "counts": {}}')

    def test_malformed_json_rejected(self):
        with pytest.raises(ArticleParseError, match="^weights: malformed JSON at offset 1"):
            load_weight_table("{nope")
