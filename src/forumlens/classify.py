"""Small-talk classifiers: multinomial naive Bayes and a linear SVM.

Small-talk is the positive class throughout.  Feature vectors are raw term
counts over the model vocabulary; tokens outside the vocabulary are ignored
at prediction time.  Documents are token-id arrays from the command's
TokenTable, the one text input that every pipeline reads, and are scored
through the corpus row kernel (term_sums for naive Bayes, token_sums for the
SVM), whose sums equal predict_nb and SvmModel.score on the words bit for bit.
Both models decide by score > theta, a naive Bayes score being its log posterior odds.
Trained models are immutable and safe to share; evaluation is pure.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Iterable, Sequence

import numpy as np

from .corpus import (Corpus, ThreadLabel, TokenTable, distinct_terms, id_counts, load_json_object, read_list,
                     read_object, read_real, read_str, sequential_sum, term_sums, token_sums)
# not called here (TokenTable tokenizes), but bench/tracing.py rebinds classify.thread_tokens
from .corpus import thread_tokens  # noqa: F401
from .errors import ConfigError, EmptyCorpus, InvariantViolation, MissingClass, ParseError
from .genmodel import GenerativeSpec, sample_threads, sample_tokens, separating_plane

# (token ids from a TokenTable, is_smalltalk) pairs
LabeledDoc = tuple[np.ndarray, bool]


class NbMode(Enum):
    AGGREGATE = "aggregate"
    PER_COURSE = "percourse"


@dataclass(frozen=True, eq=False)
class NbModel:
    """Multinomial naive Bayes with Lidstone smoothing.

    ``pseudocount`` is the additive count per vocabulary word, so the
    class-conditional for word w is (count(w) + a) / (N_class + a*|V|); the
    conditionals therefore sum to exactly 1 over the vocabulary for any a > 0.
    pseudocount=1 is classic add-one smoothing.  Small pseudocounts (e.g.
    2/|V|, a total added mass of two tokens per class) reproduce the behavior
    of count-initialized textbook implementations, whose unseen-word estimates
    scale like 1/N_class and so are heavily overestimated for classes with
    little training data.
    """

    vocab: tuple[str, ...]
    log_prior_neg: float
    log_prior_pos: float
    log_cond_neg: np.ndarray
    log_cond_pos: np.ndarray
    pseudocount: float
    mode: NbMode = NbMode.AGGREGATE
    _index: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        # each check states what must hold, so that a NaN fails it; log-probabilities are <= 0
        priors = np.array([self.log_prior_neg, self.log_prior_pos])
        if not ((priors <= 0).all() and abs(np.exp(priors).sum() - 1.0) <= 1e-9):
            raise InvariantViolation("nb", "class priors must sum to 1")
        for cond in (self.log_cond_neg, self.log_cond_pos):
            if cond.size != len(self.vocab):
                raise InvariantViolation("nb", "conditional size mismatch")
            if cond.size and not ((cond <= 0).all() and abs(np.exp(cond).sum() - 1.0) <= 1e-9):
                raise InvariantViolation("nb", "conditionals must sum to 1 over vocab")
        object.__setattr__(self, "_index", {w: i for i, w in enumerate(self.vocab)})
        if len(self._index) != len(self.vocab):  # a repeated word would score only its last copy
            raise InvariantViolation("nb", "vocab repeats a word")


@dataclass(frozen=True)
class NbPrediction:
    positive: bool
    log_posterior_pos: float
    log_posterior_neg: float


@dataclass(frozen=True)
class SvmModel:
    """Linear model scored as sum of per-word weights times counts, plus bias.

    The decision rule is score > theta (ties classify negative).
    """

    weights: dict[str, float]
    bias: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (*self.weights.values(), self.bias, self.theta))):
            raise InvariantViolation("svm", "weights, bias and theta must be finite")

    def score(self, tokens: Sequence[str]) -> float:
        w = self.weights
        return sequential_sum(w.get(tok, 0.0) for tok in tokens) + self.bias


@dataclass(frozen=True)
class EvalReport:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def tpr(self) -> float:
        return self.tp / (self.tp + self.fn) if (self.tp + self.fn) else 0.0

    @property
    def fpr(self) -> float:
        return self.fp / (self.fp + self.tn) if (self.fp + self.tn) else 0.0


# ---------------------------------------------------------------------------
# Corpus adapters
# ---------------------------------------------------------------------------

_NEGATIVE_LABELS = {ThreadLabel.LOGISTICS, ThreadLabel.COURSE_SPECIFIC}


def labeled_docs(corpus: Corpus, tokens: TokenTable, course_id: str | None = None) -> list[LabeledDoc]:
    """(token ids, is_smalltalk) pairs read through ``tokens``; unlabeled threads are skipped."""
    docs: list[LabeledDoc] = []
    for course in corpus.courses:
        if course_id is not None and course.course_id != course_id:
            continue
        columns = course.columns
        for row, label in enumerate(columns.labels):
            positive = label == ThreadLabel.SMALL_TALK
            if positive or label in _NEGATIVE_LABELS:
                docs.append((tokens.ids(columns, row), positive))
    return docs


def _vocabulary(docs: Sequence[LabeledDoc], tokens: TokenTable, vocab: Sequence[str] | None):
    """Sorted vocabulary (the docs' words, or ``vocab``) and each table id's position (len if absent)."""
    table_words = list(tokens.index)
    if vocab is None:
        used = np.flatnonzero(id_counts([ids for ids, _ in docs], len(table_words)))
        words = sorted(table_words[i] for i in used.tolist())
    else:
        words = sorted(set(vocab))
    position = {w: i for i, w in enumerate(words)}
    return words, np.array([position.get(w, len(words)) for w in table_words], dtype=np.intp)


def _nb_log_posteriors(model: NbModel, rows: Sequence[np.ndarray], tokens: TokenTable):
    """(log posterior pos, log posterior neg) per id row, equal to predict_nb's on the rows' words."""
    absent = len(model.vocab)  # a word outside the model adds a zero term
    position = np.array([model._index.get(w, absent) for w in tokens.index], dtype=np.intp)
    cond_pos = np.append(model.log_cond_pos, 0.0)[position]
    cond_neg = np.append(model.log_cond_neg, 0.0)[position]
    return term_sums(rows, [cond_pos, cond_neg], [model.log_prior_pos, model.log_prior_neg])


def _svm_scores(model: SvmModel, rows: Sequence[np.ndarray], tokens: TokenTable) -> np.ndarray:
    """Score per id row, equal to SvmModel.score on the rows' words."""
    w = np.array([model.weights.get(word, 0.0) for word in tokens.index], dtype=float)
    return token_sums(rows, w) + model.bias


# ---------------------------------------------------------------------------
# Naive Bayes
# ---------------------------------------------------------------------------


def train_nb_docs(
    docs: Sequence[LabeledDoc],
    tokens: TokenTable,
    pseudocount: float = 1.0,
    vocab: Sequence[str] | None = None,
    mode: NbMode = NbMode.AGGREGATE,
    course_id: str | None = None,
) -> NbModel:
    if pseudocount <= 0:
        raise InvariantViolation("nb", "pseudocount must be > 0")
    n_pos = sum(1 for _, positive in docs if positive)
    n_neg = len(docs) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MissingClass(course_id)
    words, position = _vocabulary(docs, tokens, vocab)
    if not words:  # every training token was a stopword or too short
        raise EmptyCorpus("naive Bayes training threads have no tokens")
    if not math.isfinite(pseudocount * len(words)):  # the smoothed class totals would overflow
        raise ConfigError(f"pseudocount {pseudocount!r} times the {len(words)}-word vocabulary is not finite")
    counts = np.zeros((2, len(words)))
    for positive in (False, True):
        class_ids = np.concatenate([ids for ids, pos in docs if pos == positive])
        counts[int(positive)] = np.bincount(position[class_ids], minlength=len(words) + 1)[: len(words)]
    smoothed = counts + pseudocount
    log_cond = np.log(smoothed) - np.log(smoothed.sum(axis=1, keepdims=True))
    return NbModel(
        vocab=tuple(words),
        log_prior_neg=math.log(n_neg / len(docs)),
        log_prior_pos=math.log(n_pos / len(docs)),
        log_cond_neg=log_cond[0],
        log_cond_pos=log_cond[1],
        pseudocount=pseudocount,
        mode=mode,
    )


def train_nb(
    corpus: Corpus,
    mode: NbMode = NbMode.AGGREGATE,
    pseudocount: float = 1.0,
    tokens: TokenTable | None = None,
):
    """Train on labeled threads read through ``tokens``; PER_COURSE returns {course_id: NbModel}."""
    tokens = TokenTable() if tokens is None else tokens
    if mode == NbMode.AGGREGATE:
        return train_nb_docs(labeled_docs(corpus, tokens), tokens, pseudocount, mode=mode)
    return {
        c.course_id: train_nb_docs(labeled_docs(corpus, tokens, c.course_id), tokens, pseudocount,
                                   mode=mode, course_id=c.course_id)
        for c in corpus.courses
    }


def predict_nb(model: NbModel, tokens: Sequence[str]) -> NbPrediction:
    """Argmax of log prior + sum of log conditionals; ties go negative."""
    log_pos = model.log_prior_pos
    log_neg = model.log_prior_neg
    index = model._index
    for w, c in Counter(tokens).items():
        i = index.get(w)
        if i is None:
            continue
        log_pos += c * float(model.log_cond_pos[i])
        log_neg += c * float(model.log_cond_neg[i])
    return NbPrediction(log_pos > log_neg, log_pos, log_neg)


# ---------------------------------------------------------------------------
# Linear SVM (hinge loss, deterministic-order SGD)
# ---------------------------------------------------------------------------


def train_svm(
    docs: Sequence[LabeledDoc],
    tokens: TokenTable,
    lambda_: float = 1e-4,
    epochs: int = 50,
    vocab: Sequence[str] | None = None,
) -> SvmModel:
    """Minimize (1/m) sum hinge + (lambda/2)||w||^2 by cyclic subgradient steps.

    Documents are visited in corpus order with step size 1/(lambda * t), t the
    global step count, so training is fully deterministic.  Because the
    objective averages the hinge term, duplicating the corpus r times while
    dividing epochs by r replays the identical update sequence and returns the
    identical boundary (lambda stays fixed).  The decision offset is carried
    by theta, not a trained bias.
    """
    if lambda_ <= 0 or epochs <= 0:
        raise InvariantViolation("svm", "lambda and epochs must be positive")
    if not any(pos for _, pos in docs) or not any(not pos for _, pos in docs):
        raise MissingClass(None)
    words, position = _vocabulary(docs, tokens, vocab)
    labels = [1.0 if positive else -1.0 for _, positive in docs]
    rows = []  # (vocabulary positions, counts, label): the terms in order of first occurrence
    for terms, counts in distinct_terms([ids for ids, _ in docs]):
        idx = position[terms.ids]
        keep = idx < len(words)  # out-of-vocabulary words dropped
        idx, val = idx[keep], counts[keep].astype(float)
        ends = np.cumsum(np.bincount(terms.row[keep], minlength=terms.rows)).tolist()
        ys = labels[len(rows) : len(rows) + terms.rows]
        rows += [(idx[a:b], val[a:b], y) for a, b, y in zip([0] + ends[:-1], ends, ys)]
    w = np.zeros(len(words))
    t = 0
    with np.errstate(over="raise", invalid="raise"):  # a tiny lambda can step the weights past the float range
        for _ in range(epochs):
            for idx, val, y in rows:
                t += 1
                eta = 1.0 / (lambda_ * t)
                margin = y * float(w[idx] @ val)
                w *= 1.0 - eta * lambda_
                if margin < 1.0:
                    w[idx] += eta * y * val
    weights = {word: float(w[i]) for i, word in enumerate(words) if w[i] != 0.0}
    return SvmModel(weights=weights, bias=0.0, theta=0.0)


def svm_objective(
    model: SvmModel, docs: Sequence[LabeledDoc], tokens: TokenTable, lambda_: float
) -> float:
    """Average hinge loss plus (lambda/2)||w||^2 for the model on the docs."""
    if not docs:
        raise InvariantViolation("svm", "objective needs at least one document")
    y = np.array([1.0 if positive else -1.0 for _, positive in docs])
    scores = _svm_scores(model, [ids for ids, _ in docs], tokens)
    hinge = sequential_sum(np.maximum(0.0, 1.0 - y * scores).tolist())
    reg = 0.5 * lambda_ * sequential_sum(v * v for v in model.weights.values())
    return hinge / len(docs) + reg


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _confusion(flagged, positive) -> EvalReport:
    """Confusion counts from aligned boolean decisions and small-talk labels."""
    flagged = np.asarray(flagged, dtype=bool)
    positive = np.asarray(positive, dtype=bool)
    tp = int(np.count_nonzero(flagged & positive))
    fp = int(np.count_nonzero(flagged & ~positive))
    fn = int(np.count_nonzero(positive)) - tp
    return EvalReport(tp, fp, positive.size - tp - fp - fn, fn)


def _scores(model, rows: Sequence[np.ndarray], tokens: TokenTable) -> np.ndarray:
    """Score per id row: the SVM score, or the naive Bayes log posterior odds."""
    if isinstance(model, dict):
        raise ConfigError("a per-course model decides one course at a time")
    with np.errstate(over="raise", invalid="raise"):  # finite weights can add up past the float range
        if isinstance(model, SvmModel):
            return _svm_scores(model, rows, tokens)
        log_pos, log_neg = _nb_log_posteriors(model, rows, tokens)
        return log_pos - log_neg


def decisions(
    model, rows: Iterable[np.ndarray], tokens: TokenTable, theta: float | None = None
) -> list[bool]:
    """Small-talk decision for each id row of ``tokens``, scored in chunks of rows.

    The decision is score > theta, the score being the SVM score or the naive Bayes log
    posterior odds; theta defaults to the SVM model's theta, and to 0 for naive Bayes, which
    is predict_nb's decision (a tie is negative).  Scores equal SvmModel.score's and predict_nb's.
    """
    scores = _scores(model, list(rows), tokens)  # a lazy iterable may still add words to the table
    default = model.theta if isinstance(model, SvmModel) else 0.0
    return (scores > (default if theta is None else theta)).tolist()


def evaluate(
    model, docs: Sequence[LabeledDoc], tokens: TokenTable, theta: float | None = None
) -> EvalReport:
    """TPR/FPR with small-talk as positive, deciding as ``decisions`` does."""
    if not docs:
        raise InvariantViolation("eval", "test set must be nonempty")
    flagged = decisions(model, [ids for ids, _ in docs], tokens, theta)
    return _confusion(flagged, [positive for _, positive in docs])


def roc_sweep(
    model, docs: Sequence[LabeledDoc], tokens: TokenTable, thresholds: Sequence[float]
) -> list[tuple[float, EvalReport]]:
    """Evaluate at each threshold as ``decisions`` does; TPR and FPR are non-increasing in theta."""
    if list(thresholds) != sorted(thresholds):
        raise InvariantViolation("roc", "thresholds must be sorted ascending")
    scores = _scores(model, [ids for ids, _ in docs], tokens)
    positive = np.array([positive for _, positive in docs], dtype=bool)
    return [(theta, _confusion(scores > theta, positive)) for theta in thresholds]


# ---------------------------------------------------------------------------
# Model persistence
# ---------------------------------------------------------------------------


def _nb_to_obj(model: NbModel) -> dict:
    return {
        "kind": "nb",
        "mode": model.mode.value,
        "pseudocount": model.pseudocount,
        "vocab": list(model.vocab),
        "log_prior": [model.log_prior_neg, model.log_prior_pos],
        "log_cond_neg": [float(x) for x in model.log_cond_neg],
        "log_cond_pos": [float(x) for x in model.log_cond_pos],
    }


def _read_nb(obj: dict) -> partial:
    """NbModel with its fields read from a model object, still to be called."""
    prior = read_list("nb", "log_prior", obj["log_prior"], read_real)
    if len(prior) != 2:
        raise InvariantViolation("nb", f"log_prior must hold two numbers, got {len(prior)}")
    pseudocount = read_real("nb", "pseudocount", obj["pseudocount"])
    if not pseudocount > 0.0:
        raise InvariantViolation("nb", f"pseudocount must be positive, got {pseudocount!r}")
    return partial(
        NbModel,
        vocab=read_list("nb", "vocab", obj["vocab"], read_str),
        log_prior_neg=prior[0],
        log_prior_pos=prior[1],
        log_cond_neg=np.array(read_list("nb", "log_cond_neg", obj["log_cond_neg"], read_real), dtype=float),
        log_cond_pos=np.array(read_list("nb", "log_cond_pos", obj["log_cond_pos"], read_real), dtype=float),
        pseudocount=pseudocount,
        mode=NbMode(obj["mode"]),
    )


def save_model(model, path) -> None:
    if isinstance(model, NbModel):
        obj = _nb_to_obj(model)
    elif isinstance(model, SvmModel):
        obj = {"kind": "svm", "weights": model.weights, "bias": model.bias, "theta": model.theta}
    elif isinstance(model, dict):
        obj = {"kind": "nb-percourse", "models": {cid: _nb_to_obj(m) for cid, m in model.items()}}
    else:
        raise TypeError(f"cannot save {type(model)!r}")
    text = json.dumps(obj, sort_keys=True)  # the C encoder; json.dump streams through the Python one
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_model(path):
    """The model a file holds, every field read before it is built: a missing or refused field is a
    ParseError, and fields that break the model's invariants raise InvariantViolation."""
    obj = load_json_object(path)
    kind = obj.get("kind")
    try:
        if kind == "nb":
            build = _read_nb(obj)
        elif kind == "svm":
            weights = read_object(kind, "weights", obj["weights"])
            build = partial(SvmModel, weights={w: read_real(kind, "weights", v) for w, v in weights.items()},
                            bias=read_real(kind, "bias", obj["bias"]), theta=read_real(kind, "theta", obj["theta"]))
        elif kind == "nb-percourse":
            models = {cid: _read_nb(read_object(kind, cid, m))
                      for cid, m in read_object(kind, "models", obj["models"]).items()}
            build = lambda: {cid: nb() for cid, nb in models.items()}
        else:
            raise ParseError(1, f"unknown model kind {kind!r}")
    except (KeyError, ValueError, InvariantViolation) as exc:  # a missing field, an unknown mode, a refused field
        raise ParseError(1, f"{kind} model has a missing or malformed field: {getattr(exc, 'reason', exc)}") from None
    return build()


# ---------------------------------------------------------------------------
# Synthetic stress experiments
# ---------------------------------------------------------------------------


def reference_pseudocount(spec: GenerativeSpec) -> float:
    """Per-word pseudocount adding a total mass of two tokens per class.

    This is the normalized form of initializing every conditional count to one
    with a two-count denominator, the convention of the classic textbook
    implementations these experiments model.
    """
    return 2.0 / spec.n


def _sampled_docs(spec: GenerativeSpec, course: int, count: int, rng: np.random.Generator,
                  tokens: TokenTable) -> list[LabeledDoc]:
    """``count`` sampled threads of a course as labeled docs, their words encoded in draw order."""
    return [(tokens.encode(words), is_smalltalk) for is_smalltalk, words in sample_threads(spec, course, count, rng)]


def small_sample_fpr_trials(
    spec: GenerativeSpec,
    course: int = 0,
    trials: int = 200,
    eval_negatives: int = 100,
    pseudocount: float | None = None,
    seed: int = 0,
) -> list[float | None]:
    """Per-course NB trained on the spec's tiny training count, many times over.

    Each trial draws b training threads for the course, trains NB on the full
    model vocabulary, and measures the false positive rate on fresh
    course-specific threads.  Trials whose training draw lacks one of the two
    classes cannot train and yield None.
    """
    if spec.training_counts is None:
        raise InvariantViolation("spec", "spec carries no training counts")
    if pseudocount is None:
        pseudocount = reference_pseudocount(spec)
    b = spec.training_counts[course]
    s = spec.thread_length(course)
    results: list[float | None] = []
    for child in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.Generator(np.random.PCG64(child))
        tokens = TokenTable()
        docs = _sampled_docs(spec, course, b, rng, tokens)
        try:
            model = train_nb_docs(docs, tokens, pseudocount=pseudocount, vocab=spec.background.vocab)
        except MissingClass:
            results.append(None)
            continue
        drawn = sample_tokens(spec, course, False, eval_negatives * s, rng).reshape(eval_negatives, s)
        negatives = [(tokens.encode(row), False) for row in drawn.tolist()]
        results.append(evaluate(model, negatives, tokens).fpr)
    return results


def plane_and_svm_errors(
    spec: GenerativeSpec,
    course: int = 0,
    n_eval: int = 10_000,
    svm_training_threads: int = 300,
    lambda_: float = 1e-4,
    epochs: int = 50,
    seed: int = 1,
) -> tuple[float, float, SvmModel]:
    """Error rates of the constructed plane and a trained SVM on fresh threads.

    The SVM is trained on an independent sample of labeled threads from the
    same course (the plane itself needs no training).  Returns
    (plane_error, svm_error, svm_model).
    """
    weights, tau = separating_plane(spec)
    plane = SvmModel(weights=weights, bias=0.0, theta=tau)
    ss = np.random.SeedSequence(seed).spawn(2)
    train_rng = np.random.Generator(np.random.PCG64(ss[0]))
    eval_rng = np.random.Generator(np.random.PCG64(ss[1]))

    tokens = TokenTable()
    svm = train_svm(_sampled_docs(spec, course, svm_training_threads, train_rng, tokens), tokens,
                    lambda_=lambda_, epochs=epochs)
    test = _sampled_docs(spec, course, n_eval, eval_rng, tokens)
    plane_report, svm_report = (evaluate(m, test, tokens) for m in (plane, svm))
    return (plane_report.fp + plane_report.fn) / n_eval, (svm_report.fp + svm_report.fn) / n_eval, svm
