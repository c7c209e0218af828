import hashlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from figdesc import baseline
from figdesc.baseline import (
    LogRegModel,
    TrainConfig,
    _sigmoid,
    build_vocab,
    featurize,
    kfold_cv,
    kfold_split,
    load_labeled_jsonl,
    loss_and_gradient,
    to_matrix,
    tokenize,
    train_logreg,
)
from figdesc.errors import ArticleParseError, ConfigError, DivergenceError, SchemaError
from figdesc.scoring import evaluate


class TestFeatures:
    def test_tokenize_lowercases_and_keeps_letters(self):
        assert tokenize("The Peak, at 3.5K!") == ["the", "peak", "at", "k"]

    def test_vocab_alphabetical(self):
        vocab = build_vocab(["b a", "c a"])
        assert vocab == {"a": 0, "b": 1, "c": 2}

    def test_vocab_min_freq_counts_documents(self):
        # "a a a" in one text is one document occurrence
        vocab = build_vocab(["a a a b", "b"], min_freq=2)
        assert vocab == {"b": 0}

    def test_featurize_binary_and_ignores_oov(self):
        vocab = {"peak": 0, "rises": 1}
        assert featurize("Peak peak falls", vocab) == {0: 1}

    def test_to_matrix(self):
        X = to_matrix([{0: 1}, {1: 1}, {}], 2)
        np.testing.assert_array_equal(X, [[1, 0], [0, 1], [0, 0]])


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((20, 6))
        y = (rng.random(20) > 0.5).astype(float)
        w = rng.standard_normal(6)
        b = 0.3
        l2 = 0.01
        loss, grad_w, grad_b = loss_and_gradient(w, b, X, y, l2)
        h = 1e-6
        for j in range(6):
            e = np.zeros(6)
            e[j] = h
            lp, _, _ = loss_and_gradient(w + e, b, X, y, l2)
            lm, _, _ = loss_and_gradient(w - e, b, X, y, l2)
            fd = (lp - lm) / (2 * h)
            assert grad_w[j] == pytest.approx(fd, rel=1e-5, abs=1e-8)
        lp, _, _ = loss_and_gradient(w, b + h, X, y, l2)
        lm, _, _ = loss_and_gradient(w, b - h, X, y, l2)
        assert grad_b == pytest.approx((lp - lm) / (2 * h), rel=1e-5, abs=1e-8)

    def test_one_model_gives_floats_and_a_vector(self):
        loss, grad_w, grad_b = loss_and_gradient(np.zeros(3), 0.0, np.eye(3), np.ones(3), 0.0)
        assert type(loss) is float and type(grad_b) is float and grad_w.shape == (3,)

    def test_bias_not_regularized(self):
        X = np.zeros((4, 2))
        y = np.array([0.0, 1.0, 0.0, 1.0])
        w = np.array([1.0, -2.0])
        _, _, gb_none = loss_and_gradient(w, 5.0, X, y, 0.0)
        _, _, gb_l2 = loss_and_gradient(w, 5.0, X, y, 10.0)
        assert gb_none == gb_l2

    def test_l2_term_in_loss(self):
        X = np.zeros((2, 2))
        y = np.array([0.0, 1.0])
        w = np.array([3.0, 4.0])
        l0, _, _ = loss_and_gradient(w, 0.0, X, y, 0.0)
        l1, _, _ = loss_and_gradient(w, 0.0, X, y, 2.0)
        assert l1 - l0 == pytest.approx(0.5 * 2.0 * 25.0)


class TestTraining:
    def test_separable_data_fits_perfectly(self):
        texts = ["up rise growth"] * 5 + ["down fall drop"] * 5
        labels = np.array([1] * 5 + [0] * 5)
        vocab = build_vocab(texts)
        X = to_matrix([featurize(t, vocab) for t in texts], len(vocab))
        model = train_logreg(X, labels, TrainConfig())
        np.testing.assert_array_equal(model.predict(X), labels)

    def test_loss_decreases(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((30, 4))
        y = (X[:, 0] > 0).astype(float)
        model = train_logreg(X, y, TrainConfig(epochs=50))
        trained, _, _ = loss_and_gradient(model.weights, model.bias, X, y, 0.0)
        untrained, _, _ = loss_and_gradient(np.zeros(4), 0.0, X, y, 0.0)
        assert trained < untrained

    def test_defaults_are_what_the_baseline_command_trains_with(self):
        assert TrainConfig() == (0.5, 300, 0.0)

    def test_a_zero_logit_predicts_positive(self):
        np.testing.assert_array_equal(LogRegModel(np.zeros(2), 0.0).predict(np.eye(2)), [1, 1])

    def test_training_is_deterministic(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((15, 3))
        y = (rng.random(15) > 0.5).astype(float)
        m1 = train_logreg(X, y, TrainConfig())
        m2 = train_logreg(X, y, TrainConfig())
        np.testing.assert_array_equal(m1.weights, m2.weights)
        assert m1.bias == m2.bias

    def test_divergence_names_epoch(self):
        # an absurd learning rate sends the regularized loss to overflow
        X = np.array([[1.0], [-1.0]])
        y = np.array([0.0, 1.0])
        with np.errstate(over="ignore"):
            with pytest.raises(DivergenceError, match=r"^non-finite loss at epoch \d+$"):
                train_logreg(X, y, TrainConfig(learning_rate=1e12, epochs=100, l2=1.0))


def _first_non_finite_loss(X, y, config, rows):
    """(epoch, fold) where the per-epoch loss of loss_and_gradient first goes
    non-finite along training's own steps, or None."""
    w, b = np.zeros((rows.shape[1], X.shape[1])).T, np.zeros(rows.shape[1])
    for epoch in range(config.epochs):
        loss, grad_w, grad_b = loss_and_gradient(w, b, X, y, config.l2, rows)
        finite = np.isfinite(loss)
        if not finite.all():
            return epoch, int(np.argmin(finite))
        w = w - config.learning_rate * grad_w
        b = b - config.learning_rate * grad_b
    return None


@st.composite
def _divergence_cases(draw):
    n, v, k = draw(st.integers(1, 8)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    value = st.one_of(
        st.floats(-3, 3), st.sampled_from([0.0, 1e150, -1e150, 1e300, -1e300, 1.7e308])
    )
    X = np.array(draw(st.lists(value, min_size=n * v, max_size=n * v))).reshape(n, v)
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=float)
    bits = draw(st.lists(st.integers(0, 1), min_size=n * k, max_size=n * k))
    rows = np.array(bits, dtype=float).reshape(n, k)
    if draw(st.booleans()):
        rows[:, draw(st.integers(0, k - 1))] = 0.0  # a fold with no training rows
    rate = draw(st.one_of(st.floats(0.01, 10), st.sampled_from([1e3, 1e6, 1e9, 1e12])))
    config = TrainConfig(rate, draw(st.integers(1, 40)), draw(st.sampled_from([0.0, 0.01, 1.0])))
    return X, y, rows, config


class TestDivergence:
    @settings(max_examples=300, deadline=None)
    @given(_divergence_cases())
    def test_raises_where_the_per_epoch_loss_goes_non_finite(self, case):
        X, y, rows, config = case
        with np.errstate(all="ignore"):
            want = _first_non_finite_loss(X, y, config, rows)
            try:
                train_logreg(X, y, config, rows=rows)
                got = None
            except DivergenceError as e:
                where = re.fullmatch(r"non-finite loss at epoch (\d+) in fold (\d+)", str(e))
                got = int(where[1]), int(where[2])
        assert got == want


class TestKfold:
    def test_partition_properties(self):
        folds = kfold_split(23, 4, seed=1)
        sizes = sorted(len(f) for f in folds)
        assert sizes == [5, 6, 6, 6]
        everything = np.concatenate(folds)
        assert sorted(everything.tolist()) == list(range(23))

    def test_exact_division(self):
        folds = kfold_split(200, 10, seed=0)
        assert all(len(f) == 20 for f in folds)

    def test_deterministic_and_seed_sensitive(self):
        a = kfold_split(30, 3, seed=4)
        b = kfold_split(30, 3, seed=4)
        c = kfold_split(30, 3, seed=5)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)
        assert any(not np.array_equal(fa, fc) for fa, fc in zip(a, c))

    def test_bad_fold_count(self):
        with pytest.raises(ConfigError):
            kfold_split(10, 1, seed=0)
        with pytest.raises(ConfigError):
            kfold_split(10, 11, seed=0)

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            kfold_split(10, 2, seed=-1)

    # (n, k, seed) -> the folds, as index lists, or the sha256 of their indices
    # joined by commas, fold after fold. Drawn by numpy 2.4.6's
    # default_rng(seed).permutation(n); pinned here so that they hold
    # whatever numpy is installed.
    GOLDEN = [
        (2, 2, 0, [[0], [1]]),
        (2, 2, 3, [[1], [0]]),
        # index 2's first two draws, masked to 2 bits, are both 3 and rejected
        (3, 3, 0, [[2], [0], [1]]),
        (23, 4, 0, [[18, 4, 20, 10, 11, 2], [21, 6, 19, 3, 22, 8], [0, 12, 16, 13, 7, 5],
                    [17, 14, 9, 1, 15]]),
        (23, 4, 2**32, [[15, 19, 18, 16, 14, 1], [22, 3, 4, 0, 11, 21], [10, 17, 9, 13, 7, 20],
                        [6, 8, 12, 2, 5]]),
        # five 32-bit words of seed: more than the four of SeedSequence's pool
        (23, 4, 2**128 + 1, [[3, 20, 0, 14, 10, 11], [6, 19, 7, 5, 15, 16],
                             [2, 17, 18, 21, 22, 9], [12, 13, 4, 1, 8]]),
        (2000, 10, 0, "2f11dbcc1214c69966d4f843402cdca265b1c08e61ab4948b966402bdc9b8e50"),
        (2000, 10, 2**32, "8930b81f87762636688ff94c25ef2f87e5a1174d130a791bf021e9d3f33a808d"),
        (2000, 10, 2**128 + 1,
         "519d57badec36b4b76eb727a47168833cb951d53c0622a29f25f3e175ab3ec7d"),
    ]

    @pytest.mark.parametrize("n, k, seed, want", GOLDEN)
    def test_golden_folds(self, n, k, seed, want):
        folds = kfold_split(n, k, seed)
        assert all(fold.dtype == np.int64 for fold in folds)
        got = [fold.tolist() for fold in folds]
        if isinstance(want, str):
            got = hashlib.sha256(",".join(str(i) for fold in got for i in fold).encode())
            got = got.hexdigest()
        assert got == want

    def test_draws_are_pcg64s_outputs_low_half_first(self):
        draws = baseline._pcg64_draws(0)
        # np.random.PCG64(0).random_raw(2): 0xa30febcfd9c2825f, 0x4510bdf882d9d721
        assert [next(draws) for _ in range(4)] == [
            0xD9C2825F, 0xA30FEBCF, 0x82D9D721, 0x4510BDF8,
        ]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5000), st.integers(0, 2**200))
    def test_permutation_matches_numpy(self, n, seed):
        """numpy is only the oracle here: kfold_split never loads numpy.random."""
        want = np.random.default_rng(seed).permutation(n).tolist()
        assert baseline._permutation(n, seed) == want
        if n > 1:
            assert np.concatenate(kfold_split(n, 2, seed)).tolist() == want

    def test_cv_on_separable_texts(self):
        dataset = [(f"rising peak number {i}", 1) for i in range(10)] + [
            (f"methods section text {i}", 0) for i in range(10)
        ]
        report = kfold_cv(dataset, k=5, seed=2)
        assert report["k"] == 5
        assert len(report["folds"]) == 5
        assert report["mean"]["accuracy"] == 1.0
        assert report["mean"]["f1"] == 1.0

    def test_defaults(self):
        # Each word is in two rows of one label, so a test row's word is in
        # at most one training row: at min_freq 2 no test row has evidence.
        dataset = [("q" * (i // 2 + 1), (i // 2) % 2) for i in range(20)]
        report = kfold_cv(dataset)
        assert report == kfold_cv(dataset, 10, 0, TrainConfig(), 1)
        assert report != kfold_cv(dataset, 10, 0, TrainConfig(), 2)
        assert (report["k"], report["seed"]) == (10, 0)

    def test_means_add_the_folds_in_order(self):
        # on these folds math.fsum would round both means differently
        dataset = [("q" * (i // 2 + 1) + " up", (i // 3) % 2) for i in range(26)]
        report = kfold_cv(dataset, k=7, seed=1)
        for key in ("accuracy", "f1"):
            values = [fold[key] for fold in report["folds"]]
            assert report["mean"][key] == sum(values) / 7 != math.fsum(values) / 7

    def test_cv_report_is_deterministic(self):
        dataset = [(f"word{i} up", i % 2) for i in range(12)]
        assert kfold_cv(dataset, k=3, seed=9) == kfold_cv(dataset, k=3, seed=9)


class TestLabeledLoader:
    def test_reads_rows(self):
        data = '{"text": "a", "label": 1, "source": "x"}\n{"text": "b", "label": 0}\n'
        assert load_labeled_jsonl(data) == [("a", 1), ("b", 0)]

    def test_blank_lines_skipped(self):
        assert load_labeled_jsonl('\n{"text": "a", "label": 0}\n\n') == [("a", 0)]

    def test_bad_label_names_line(self):
        with pytest.raises(SchemaError, match="line 1"):
            load_labeled_jsonl('{"text": "a", "label": 2}\n')

    def test_missing_field_names_line(self):
        with pytest.raises(SchemaError, match="line 2"):
            load_labeled_jsonl('{"text": "a", "label": 1}\n{"text": "b"}\n')

    def test_malformed_json_names_line(self):
        with pytest.raises(ArticleParseError, match="^labeled line 1: malformed JSON at offset 1"):
            load_labeled_jsonl("{nope\n")

    def test_shipped_corpus_shape(self):
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "data" / "labeled.jsonl"
        rows = load_labeled_jsonl(path.read_bytes())
        assert len(rows) == 200
        assert sum(label for _, label in rows) == 100


# ---- the per-fold implementation that batched training replaced, as an oracle ----


def _masked_sigmoid(z):
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _oracle_train(X, y, config):
    w = np.zeros(X.shape[1])
    b = 0.0
    m = len(y)
    for _ in range(config.epochs):
        p = _masked_sigmoid(X @ w + b)
        grad_w = X.T @ (p - y) / m + config.l2 * w
        grad_b = float(np.mean(p - y))
        w = w - config.learning_rate * grad_w
        b = b - config.learning_rate * grad_b
    return w, b


def _oracle_folds(dataset, k, seed, config, min_freq):
    """Per fold: (vocabulary, weights, bias, test-row logits), one training each."""
    texts = [t for t, _ in dataset]
    labels = np.array([l for _, l in dataset], dtype=np.float64)
    out = []
    for test_idx in kfold_split(len(dataset), k, seed):
        test_mask = np.zeros(len(dataset), dtype=bool)
        test_mask[test_idx] = True
        train_texts = [t for t, m in zip(texts, test_mask) if not m]
        vocab = build_vocab(train_texts, min_freq)
        X_train = to_matrix([featurize(t, vocab) for t in train_texts], len(vocab))
        w, b = _oracle_train(X_train, labels[~test_mask], config)
        test_texts = [texts[i] for i in test_idx]
        X_test = to_matrix([featurize(t, vocab) for t in test_texts], len(vocab))
        out.append((vocab, w, b, X_test @ w + b))
    return out


# A small word pool, so test rows often hold words no training row has.
_WORDS = st.sampled_from(["up", "down", "peak", "fall", "rise", "text", "zeta"])
_TEXT = st.lists(_WORDS, max_size=4).map(" ".join)


@st.composite
def _cv_cases(draw):
    n = draw(st.integers(2, 14))
    texts = draw(st.lists(_TEXT, min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    k = draw(st.integers(2, n))
    config = TrainConfig(
        epochs=draw(st.integers(1, 60)), l2=draw(st.sampled_from([0.0, 0.01, 0.3]))
    )
    return list(zip(texts, labels)), k, draw(st.integers(0, 5)), config, draw(
        st.integers(1, 3)
    )


class TestBatchedFoldsMatchPerFoldTraining:
    @settings(max_examples=150, deadline=None)
    @given(_cv_cases())
    def test_weights_and_predictions(self, case):
        dataset, k, seed, config, min_freq = case
        calls = []

        def spy(X, *args, **kwargs):
            model = train_logreg(X, *args, **kwargs)
            calls.append((X, model))
            return model

        with mock.patch.object(baseline, "train_logreg", spy):
            kfold_cv(dataset, k=k, seed=seed, train_config=config, min_freq=min_freq)
        ((X, model),) = calls  # every fold in one training run
        preds = model.predict(X)
        full_vocab = build_vocab([t for t, _ in dataset])
        folds = kfold_split(len(dataset), k, seed)
        oracle = _oracle_folds(dataset, k, seed, config, min_freq)
        for j, (test_idx, (vocab, w, b, z)) in enumerate(zip(folds, oracle)):
            cols = [full_vocab[tok] for tok in vocab]
            np.testing.assert_allclose(model.weights[cols, j], w, rtol=0, atol=1e-12)
            outside = np.ones(len(full_vocab), dtype=bool)
            outside[cols] = False
            assert not np.any(model.weights[outside, j])
            assert model.bias[j] == pytest.approx(b, rel=0, abs=1e-12)
            sure = np.abs(z) > 1e-9
            np.testing.assert_array_equal(preds[test_idx, j][sure], (z >= 0)[sure])

    def test_report_on_shipped_corpus(self):
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "data" / "labeled.jsonl"
        dataset = load_labeled_jsonl(path.read_bytes())
        report = kfold_cv(dataset, k=10, seed=0)
        oracle = _oracle_folds(dataset, 10, 0, TrainConfig(), 1)
        labels = np.array([l for _, l in dataset])
        for fold, test_idx, (_, _, _, z) in zip(
            report["folds"], kfold_split(len(dataset), 10, 0), oracle
        ):
            assert np.all(np.abs(z) > 1e-9)
            preds = (z >= 0).astype(int)
            metrics = evaluate(preds.tolist(), labels[test_idx].tolist())
            assert fold == {"accuracy": metrics["accuracy"], "f1": metrics["f1"]}

    def test_divergence_names_fold_and_epoch(self):
        dataset = [("up", 0), ("down", 1), ("up down", 0), ("peak", 1)]
        config = TrainConfig(learning_rate=1e12, epochs=100, l2=1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match=r"epoch \d+ in fold \d+"):
                kfold_cv(dataset, k=2, seed=0, train_config=config)

    def test_k_models_in_one_run_match_one_model_each(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((12, 3))
        y = (rng.random(12) > 0.5).astype(float)
        rows = (rng.random((12, 4)) > 0.3).astype(float)
        config = TrainConfig(epochs=40, l2=0.05)
        batched = train_logreg(X, y, config, rows=rows)
        assert batched.weights.shape == (3, 4) and batched.bias.shape == (4,)
        losses, _, _ = loss_and_gradient(batched.weights, batched.bias, X, y, config.l2, rows)
        assert losses.shape == (4,)
        for j in range(4):
            keep = rows[:, j] == 1
            single = train_logreg(X[keep], y[keep], config)
            np.testing.assert_allclose(batched.weights[:, j], single.weights, atol=1e-12)
            assert batched.bias[j] == pytest.approx(single.bias, abs=1e-12)
            loss, _, _ = loss_and_gradient(single.weights, single.bias, X[keep], y[keep], config.l2)
            assert losses[j] == pytest.approx(loss, abs=1e-12)


class TestSigmoid:
    def test_equals_masked_form_bit_for_bit(self):
        rng = np.random.default_rng(2)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e3, -1e3, 745.2, -745.2])
        scaled = [rng.uniform(-1, 1, 20_000) * scale for scale in (1e-3, 1, 30, 1e3)]
        z = np.concatenate([special, *scaled])
        new, old = _sigmoid(z), _masked_sigmoid(z)
        assert np.array_equal(np.isnan(new), np.isnan(old))
        finite = ~np.isnan(old)
        assert np.array_equal(new[finite].view(np.uint64), old[finite].view(np.uint64))

    def test_two_dimensional(self):
        z = np.array([[-2.0, 0.0], [3.0, -np.inf]])
        np.testing.assert_array_equal(_sigmoid(z), _masked_sigmoid(z.ravel()).reshape(2, 2))


class TestBlasThreads:
    PROBE = (
        "import os, figdesc, numpy as np\n"
        "np.ones((2000, 180)) @ np.ones((180, 10))\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'), len(os.listdir('/proc/self/task')))\n"
    )

    # the embedding store loads and ranks without numpy
    LAZY_PROBE = (
        "import sys\n"
        "from figdesc import fixtures, lexres\n"
        "store = lexres.load_embeddings(fixtures.fixture_path('embeddings.txt').read_bytes())\n"
        "store.top_k('show', 20)\n"
        "lexres.EmbeddingStore(180, {str(i): [1.0] * 180 for i in range(200)}).top_k('0', 10)\n"
        "print('numpy' in sys.modules)\n"
    )

    def _probe(self, probe=PROBE, **env_vars):
        env = {
            k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")
        }
        env["PYTHONPATH"] = str(Path(baseline.__file__).parent.parent)
        env.update(env_vars)
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
            check=True,
        )
        return done.stdout.split()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
    def test_importing_figdesc_keeps_blas_on_one_thread(self):
        # a matrix product the size of baseline training starts no BLAS worker
        assert self._probe() == ["1", "1"]

    def test_lexres_loads_no_numpy(self):
        assert self._probe(self.LAZY_PROBE) == ["False"]

    def test_explicit_setting_wins(self):
        assert self._probe(OPENBLAS_NUM_THREADS="2")[0] == "2"
