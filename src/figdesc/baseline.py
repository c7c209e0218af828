"""Bag-of-words logistic regression baseline.

Binary presence features over lowercase alphabetic tokens, L2-regularized
logistic loss minimized by full-batch gradient descent, and deterministic
k-fold cross-validation. The loss/gradient pair is exposed separately so the
analytic gradient can be checked against finite differences.

Cross-validation featurizes the labelled set once and trains the k folds
together: one weight column per fold, one row mask marking each fold's
training rows and one column mask marking its vocabulary, in a single
gradient-descent run. This matches training each fold on its own, with its
own vocabulary and matrices, up to rounding.
"""

from __future__ import annotations

import re
from typing import NamedTuple

import numpy as np

from .corpus import json_field, parse_jsonl
from .errors import ConfigError, DivergenceError
from .scoring import evaluate

_TOKEN_RE = re.compile(r"[a-z]+")


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def build_vocab(texts: list[str], min_freq: int = 1) -> dict[str, int]:
    """Token -> dense index, alphabetic order, built from training texts only."""
    counts: dict[str, int] = {}
    for text in texts:
        for tok in set(tokenize(text)):
            counts[tok] = counts.get(tok, 0) + 1
    kept = sorted(tok for tok, c in counts.items() if c >= min_freq)
    return {tok: i for i, tok in enumerate(kept)}


def featurize(text: str, vocab: dict[str, int]) -> dict[int, int]:
    """Sparse binary vector: {index: 1} for each vocabulary token present."""
    return {vocab[tok]: 1 for tok in set(tokenize(text)) if tok in vocab}


def to_matrix(features: list[dict[int, int]], vocab_size: int) -> np.ndarray:
    X = np.zeros((len(features), vocab_size))
    for row, feats in enumerate(features):
        for col in feats:
            X[row, col] = 1.0
    return X


class TrainConfig(NamedTuple):
    learning_rate: float = 0.5
    epochs: int = 300
    l2: float = 0.0


class LogRegModel(NamedTuple):
    """One model (weights (V,), float bias) or k models side by side
    (weights (V, k), bias (k,)); predictions then have one column per model."""

    weights: np.ndarray
    bias: float | np.ndarray
    losses: list

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return _sigmoid(X @ self.weights + self.bias)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X) >= 0.5).astype(int)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp of a non-positive argument only, so neither branch can overflow
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def loss_and_gradient(
    w: np.ndarray,
    b: float | np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    l2: float,
    rows: np.ndarray | None = None,
) -> tuple:
    """Mean cross-entropy plus (l2/2)*||w||^2, with its exact gradient.

    With w of shape (V,) this is one model and returns (float, (V,), float).
    With w of shape (V, k) and b of shape (k,) it is k models at once and
    returns arrays of shapes (k,), (V, k) and (k,); rows, a 0/1 array of
    shape (n, k), then marks each model's training rows, and each mean is
    taken over those rows only. The bias is not regularized. Probabilities
    are clipped only inside the logs, keeping loss and gradient consistent
    for finite-difference checks.
    """
    p = _sigmoid(X @ w + b)
    target = y if w.ndim == 1 else y[:, None]
    eps = 1e-12
    log_lik = target * np.log(np.clip(p, eps, None)) + (1 - target) * np.log(
        np.clip(1 - p, eps, None)
    )
    residual = p - target
    if rows is None:
        m = len(y)
    else:
        m = rows.sum(axis=0)
        log_lik = log_lik * rows
        residual = residual * rows
    ce = -np.sum(log_lik, axis=0) / m
    loss = ce + 0.5 * l2 * np.sum(w * w, axis=0)
    grad_w = X.T @ residual / m + l2 * w
    grad_b = np.sum(residual, axis=0) / m
    if w.ndim == 1:
        return float(loss), grad_w, float(grad_b)
    return loss, grad_w, grad_b


def train_logreg(
    X: np.ndarray,
    y: np.ndarray,
    config: TrainConfig,
    rows: np.ndarray | None = None,
    cols: np.ndarray | None = None,
) -> LogRegModel:
    """Full-batch gradient descent from zero weights; deterministic.

    Without rows this fits one model on every row of X. With rows, a 0/1
    array of shape (n, k), it fits k models in the same run, model j on the
    rows where rows[:, j] is 1. cols, a boolean array of shape (V, k), then
    marks the features each model may use; every other weight stays exactly
    0. Raises DivergenceError naming the epoch if a loss goes non-finite,
    and with rows the fold (the column of rows) it went non-finite in.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if rows is None:
        w = np.zeros(X.shape[1])
        b = 0.0
    else:
        rows = np.asarray(rows, dtype=np.float64)
        w = np.zeros((X.shape[1], rows.shape[1]))
        b = np.zeros(rows.shape[1])
    losses = []
    for epoch in range(config.epochs):
        loss, grad_w, grad_b = loss_and_gradient(w, b, X, y, config.l2, rows)
        finite = np.isfinite(loss)
        if not np.all(finite):
            where = f" in fold {int(np.argmin(finite))}" if np.ndim(loss) else ""
            raise DivergenceError(f"non-finite loss at epoch {epoch}{where}")
        losses.append(loss)
        if cols is not None:
            grad_w = grad_w * cols
        w = w - config.learning_rate * grad_w
        b = b - config.learning_rate * grad_b
    return LogRegModel(w, b, losses)


def kfold_split(n: int, k: int, seed: int) -> list[np.ndarray]:
    """Deterministic shuffled index folds; sizes differ by at most one."""
    if k < 2 or k > n:
        raise ConfigError(f"fold count {k} invalid for {n} items")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    perm = np.random.default_rng(seed).permutation(n)
    base, extra = divmod(n, k)
    folds = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        folds.append(perm[start : start + size])
        start += size
    return folds


def kfold_cv(
    dataset: list[tuple[str, int]],
    k: int = 10,
    seed: int = 0,
    train_config: TrainConfig | None = None,
    min_freq: int = 1,
) -> dict:
    """Cross-validate the baseline; each fold's vocabulary comes from its training rows.

    The texts are featurized once, over the vocabulary of all of them. Fold
    j's vocabulary is the columns whose document frequency over its training
    rows reaches min_freq, and all k folds train in one gradient-descent run.
    This gives per-fold training's models up to rounding: a column outside a
    fold's vocabulary keeps weight 0, as featurize drops a token outside it.
    Returns per-fold accuracy/F1 plus their means.
    """
    cfg = train_config or TrainConfig()
    texts = [t for t, _ in dataset]
    labels = np.array([l for _, l in dataset])
    folds = kfold_split(len(dataset), k, seed)
    vocab = build_vocab(texts)
    X = to_matrix([featurize(t, vocab) for t in texts], len(vocab))
    train = np.ones((len(dataset), k))
    for j, test_idx in enumerate(folds):
        train[test_idx, j] = 0.0
    in_vocab = X.T @ train >= min_freq
    preds = train_logreg(X, labels, cfg, rows=train, cols=in_vocab).predict(X)
    per_fold = []
    for j, test_idx in enumerate(folds):
        m = evaluate(preds[test_idx, j].tolist(), labels[test_idx].tolist())
        per_fold.append({"accuracy": m["accuracy"], "f1": m["f1"]})
    mean = {
        "accuracy": sum(f["accuracy"] for f in per_fold) / len(per_fold),
        "f1": sum(f["f1"] for f in per_fold) / len(per_fold),
    }
    return {"folds": per_fold, "mean": mean, "k": k, "seed": seed}


def _labeled_row(doc: dict, where: str) -> tuple[str, int]:
    text = json_field(doc, "text", where, "a string")
    return text, json_field(doc, "label", where, "0 or 1")


def load_labeled_jsonl(data: bytes | str) -> list[tuple[str, int]]:
    """Read {"text", "label", "source"} lines into (text, label) pairs."""
    return parse_jsonl(data, "labeled", _labeled_row)[1]
