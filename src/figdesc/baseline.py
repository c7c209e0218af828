"""Bag-of-words logistic regression baseline.

Binary presence features over lowercase alphabetic tokens, L2-regularized
logistic loss minimized by full-batch gradient descent, and deterministic
k-fold cross-validation. The loss/gradient pair is exposed separately so the
analytic gradient can be checked against finite differences.

Cross-validation featurizes the labelled set once and trains the k folds
together in one gradient-descent run, fold-major: one weight row per fold,
one mask row marking each fold's training rows and one its vocabulary. This
matches training each fold on its own, with its own vocabulary and matrices,
up to rounding. Training computes no loss: a fold's loss is non-finite
exactly when its bias gradient or L2 penalty is, and that is what it checks.

The folds split `np.random.default_rng(seed).permutation(n)`, drawn bit for
bit by a port of numpy's SeedSequence, PCG64 and Generator.shuffle, so the
module never loads `numpy.random` (nor the `secrets`, `hashlib` and OpenSSL
libcrypto it imports) and its folds do not change with numpy's version.
"""

from __future__ import annotations

import re
from typing import NamedTuple

import numpy as np

from .corpus import json_field, parse_jsonl
from .errors import ConfigError, DivergenceError
from .scoring import evaluate

_TOKEN_RE = re.compile(r"[a-z]+")
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return _sigmoid(X @ self.weights + self.bias)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X) >= 0.5).astype(int)


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None, scratch=None) -> np.ndarray:
    """The logistic function of z, into out (which may be z), scratch as work space."""
    pos = z >= 0
    # exp of a non-positive argument only, so neither branch can overflow
    e = np.exp(np.negative(np.abs(z, out=out), out=out), out=out)
    den = np.add(e, 1.0, out=scratch)
    np.divide(e, den, out=e)
    return np.divide(1.0, den, out=e, where=pos)


def _gradient(w, b, X, y, l2, rows, m, p=None, r=None, grad_w=None) -> tuple:
    """k models' gradient, fold-major: w (k, V), b (k, 1), rows (k, n) or None
    for every row, m their counts. Fills p (probabilities) and r (masked
    residuals), both (k, n), and grad_w (k, V), new arrays where None; returns
    p, grad_w, the bias gradient (k, 1) and the L2 penalty (k,)."""
    p = np.add(np.matmul(w, X.T, out=p), b, out=p)
    _sigmoid(p, out=p, scratch=r)
    r = np.subtract(p, y, out=r)
    if rows is not None:
        r *= rows
    grad_w = np.matmul(r, X, out=grad_w)
    grad_w /= m
    grad_w += l2 * w
    return p, grad_w, np.sum(r, axis=1, keepdims=True) / m, 0.5 * l2 * np.sum(w * w, axis=1)


def loss_and_gradient(
    w: np.ndarray,
    b: float | np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    l2: float,
    rows: np.ndarray | None = None,
) -> tuple:
    """Mean cross-entropy plus (l2/2)*||w||^2, with the gradient training takes.

    With w of shape (V,) this is one model and returns (float, (V,), float).
    With w of shape (V, k) and b of shape (k,) it is k models at once and
    returns arrays of shapes (k,), (V, k) and (k,); rows, a 0/1 array of
    shape (n, k), then marks each model's training rows, and each mean is
    taken over those rows only. The bias is not regularized. Probabilities
    are clipped only inside the logs, keeping loss and gradient consistent
    for finite-difference checks.
    """
    rows = None if rows is None else np.asarray(rows, dtype=np.float64).T
    m = len(y) if rows is None else rows.sum(axis=1, keepdims=True)
    p, grad_w, grad_b, penalty = _gradient(
        np.atleast_2d(w.T), np.reshape(b, (-1, 1)), X, y, l2, rows, m
    )
    eps = 1e-12
    log_lik = y * np.log(np.clip(p, eps, None)) + (1 - y) * np.log(np.clip(1 - p, eps, None))
    if rows is not None:
        log_lik *= rows
    loss = (-np.sum(log_lik, axis=1, keepdims=True) / m).ravel() + penalty
    if w.ndim == 1:
        return loss.item(), grad_w.ravel(), grad_b.item()
    return loss, grad_w.T, grad_b.ravel()


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
    0. Either way one loop runs, fold-major (a row of weights per model, so
    both products take BLAS's faster orientation with no copy of X), into
    buffers made once, and computes no loss: it raises DivergenceError,
    naming the epoch and with rows the fold (the column of rows), when a
    model's bias gradient or L2 penalty goes non-finite, as its loss then does.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if rows is None:
        k, m = 1, len(y)
    else:
        rows = np.ascontiguousarray(np.transpose(rows), dtype=np.float64)
        k, m = len(rows), rows.sum(axis=1, keepdims=True)
    w, b = np.zeros((k, X.shape[1])), np.zeros((k, 1))
    p, r, grad_w = np.empty((k, len(y))), np.empty((k, len(y))), np.empty_like(w)
    for epoch in range(config.epochs):
        _, _, grad_b, penalty = _gradient(w, b, X, y, config.l2, rows, m, p, r, grad_w)
        finite = np.isfinite(grad_b.ravel()) & np.isfinite(penalty)
        if not finite.all():
            where = "" if rows is None else f" in fold {int(np.argmin(finite))}"
            raise DivergenceError(f"non-finite loss at epoch {epoch}{where}")
        if cols is not None:
            grad_w *= cols.T
        w -= config.learning_rate * grad_w
        b -= config.learning_rate * grad_b
    if rows is None:
        return LogRegModel(w.ravel(), b.item())
    return LogRegModel(w.T, b.ravel())


def _seed_sequence(seed: int) -> tuple[int, int]:
    """PCG64's state and increment seeds, from numpy's SeedSequence(seed):
    the seed's 32-bit words, low first, hashed into a pool of four words,
    then the four 64-bit words of generate_state(4, np.uint64) hashed out."""
    words = [seed >> shift & _MASK32 for shift in range(0, seed.bit_length(), 32)]
    hash_a = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_a
        value ^= hash_a
        hash_a = hash_a * 0x931E8875 & _MASK32
        value = value * hash_a & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    # a seed of fewer than four words is padded with zeros, 0 itself included
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_b, out = 0x8B51F9DD, []
    for word in pool + pool:
        value = word ^ hash_b
        hash_b = hash_b * 0x58F38DED & _MASK32
        value = value * hash_b & _MASK32
        out.append(value ^ value >> 16)
    w = [lo | hi << 32 for lo, hi in zip(out[::2], out[1::2])]
    return w[0] << 64 | w[1], w[2] << 64 | w[3]


def _pcg64_draws(seed: int):
    """numpy's PCG64(seed), a 128-bit LCG with the XSL-RR output, as its
    endless stream of 32-bit draws: each 64-bit output's low half, then its high."""
    state, inc = _seed_sequence(seed)
    inc = inc << 1 & _MASK128 | 1
    state = ((inc + state) * _PCG64_MULT + inc) & _MASK128
    while True:
        state = (state * _PCG64_MULT + inc) & _MASK128
        rot = state >> 122
        out = (state >> 64 ^ state) & _MASK64
        out = (out >> rot | out << 64 - rot) & _MASK64
        yield out & _MASK32
        yield out >> 32


def _permutation(n: int, seed: int) -> list[int]:
    """np.random.default_rng(seed).permutation(n) for n up to 2**32: from the
    last index down, swap index i with j, the first draw masked to i's bit
    length that is at most i."""
    draws = _pcg64_draws(seed)
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        j = next(draws) & mask
        while j > i:
            j = next(draws) & mask
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def kfold_split(n: int, k: int, seed: int) -> list[np.ndarray]:
    """Deterministic shuffled index folds; sizes differ by at most one."""
    if k < 2 or k > n:
        raise ConfigError(f"fold count {k} invalid for {n} items")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    perm = np.array(_permutation(n, seed), dtype=np.int64)
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
    train = np.ones((k, len(dataset)))  # fold-major, so train_logreg takes it uncopied
    for j, test_idx in enumerate(folds):
        train[j, test_idx] = 0.0
    in_vocab = X.T @ train.T >= min_freq
    preds = train_logreg(X, labels, cfg, rows=train.T, cols=in_vocab).predict(X)
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
