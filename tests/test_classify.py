import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forumlens import corpus
from forumlens.classify import (
    EvalReport,
    NbMode,
    NbModel,
    SvmModel,
    _confusion,
    _nb_log_posteriors,
    _svm_scores,
    decisions,
    evaluate,
    labeled_docs,
    load_model,
    plane_and_svm_errors,
    predict_nb,
    reference_pseudocount,
    roc_sweep,
    save_model,
    small_sample_fpr_trials,
    svm_objective,
    train_nb,
    train_nb_docs,
    train_svm,
)
from forumlens.corpus import TokenTable, ingest_corpus, sequential_sum
from forumlens.errors import EmptyCorpus, InvariantViolation, MissingClass
from forumlens.genmodel import adversarial_spec, make_spec, sample_thread, sample_tokens, separating_plane

from conftest import chunk_budget


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _encoded(docs):
    """(word tuple, label) docs as (id array, label) docs, and the table they were encoded with."""
    tokens = TokenTable()
    return [(tokens.encode(words), positive) for words, positive in docs], tokens


def _sampled(threads):
    return _encoded([(t.tokens, t.is_smalltalk) for t in threads])


FOUR_DOCS = [
    (("aa", "aa", "bb"), True),
    (("aa", "cc"), True),
    (("bb", "bb", "cc"), False),
    (("cc",), False),
]


def _hand_nb_posteriors(docs, tokens, pseudocount=1.0):
    """Independent log-space evaluation of the smoothed Bayes rule."""
    vocab = sorted({w for toks, _ in docs for w in toks})
    out = {}
    for label in (True, False):
        class_docs = [toks for toks, pos in docs if pos == label]
        counts = {w: 0.0 for w in vocab}
        for toks in class_docs:
            for w in toks:
                counts[w] += 1
        total = sum(counts.values()) + pseudocount * len(vocab)
        lp = math.log(len(class_docs) / len(docs))
        for w in tokens:
            if w in counts:
                lp += math.log((counts[w] + pseudocount) / total)
        out[label] = lp
    return out


class TestNaiveBayes:
    def test_single_word_docs(self):
        model = train_nb_docs(*_encoded([(("aa",), True), (("bb",), False)]))
        i_a = model.vocab.index("aa")
        assert model.log_cond_pos[i_a] > model.log_cond_neg[i_a]

    def test_hand_computed_posteriors(self):
        model = train_nb_docs(*_encoded(FOUR_DOCS))
        # smoothed conditionals: pos counts (a3,b1,c1)/N=5, neg (a0,b2,c2)/N=4
        i = {w: k for k, w in enumerate(model.vocab)}
        assert math.exp(model.log_cond_pos[i["aa"]]) == pytest.approx(4 / 8)
        assert math.exp(model.log_cond_pos[i["bb"]]) == pytest.approx(2 / 8)
        assert math.exp(model.log_cond_neg[i["aa"]]) == pytest.approx(1 / 7)
        assert math.exp(model.log_cond_neg[i["bb"]]) == pytest.approx(3 / 7)
        pred = predict_nb(model, ("aa", "bb"))
        hand = _hand_nb_posteriors(FOUR_DOCS, ("aa", "bb"))
        assert pred.log_posterior_pos == pytest.approx(hand[True], abs=1e-12)
        assert pred.log_posterior_neg == pytest.approx(hand[False], abs=1e-12)
        assert pred.positive

    def test_training_set_accuracy_on_separable_fixture(self):
        docs = [(("xx", "yy"), True)] * 3 + [(("uu", "vv"), False)] * 3
        model = train_nb_docs(*_encoded(docs))
        assert all(predict_nb(model, toks).positive == pos for toks, pos in docs)

    def test_empty_tokens_fall_back_to_prior(self):
        docs = [(("aa",), True), (("aa",), True), (("bb",), False)]
        model = train_nb_docs(*_encoded(docs))
        assert predict_nb(model, ()).positive  # prior favors positive
        balanced = train_nb_docs(*_encoded(FOUR_DOCS))
        assert not predict_nb(balanced, ()).positive  # tie goes negative

    def test_unseen_tokens_decided_by_smoothing(self):
        model = train_nb_docs(*_encoded(FOUR_DOCS))
        # "aa" never appears in the negative class: smoothing mass decides
        pred = predict_nb(model, ("aa",))
        hand = _hand_nb_posteriors(FOUR_DOCS, ("aa",))
        assert pred.positive == (hand[True] > hand[False])
        # out-of-vocabulary tokens are ignored entirely
        oov = predict_nb(model, ("qq", "zz"))
        assert (oov.log_posterior_pos, oov.log_posterior_neg) == (
            model.log_prior_pos,
            model.log_prior_neg,
        )

    def test_missing_class(self):
        with pytest.raises(MissingClass):
            train_nb_docs(*_encoded([(("aa",), True)]))

    def test_per_course_mode(self, tiny_jsonl):
        corpus = ingest_corpus(tiny_jsonl)
        models = train_nb(corpus, NbMode.PER_COURSE)
        assert set(models) == {"alpha", "beta"}
        aggregate = train_nb(corpus, NbMode.AGGREGATE)
        assert aggregate.mode == NbMode.AGGREGATE

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(["aa", "bb", "cc", "dd"]), min_size=1, max_size=6),
                st.booleans(),
            ),
            min_size=2,
            max_size=8,
        ).filter(lambda d: len({pos for _, pos in d}) == 2),
        st.lists(st.sampled_from(["aa", "bb", "cc", "dd", "ee"]), max_size=6),
    )
    def test_oracle_equivalence(self, docs, query):
        docs = [(tuple(toks), pos) for toks, pos in docs]
        model = train_nb_docs(*_encoded(docs))
        pred = predict_nb(model, tuple(query))
        hand = _hand_nb_posteriors(docs, tuple(query))
        assert pred.log_posterior_pos == pytest.approx(hand[True], abs=1e-9)
        assert pred.log_posterior_neg == pytest.approx(hand[False], abs=1e-9)


class TestSvm:
    def test_separates_one_hot_pair(self):
        docs = [(("xx",), True), (("yy",), False)]
        model = train_svm(*_encoded(docs), lambda_=0.1, epochs=200)
        assert model.score(("xx",)) > 0 > model.score(("yy",))

    def test_duplication_replays_identically(self):
        docs, tokens = _encoded([
            (("aa", "aa", "bb"), True),
            (("cc", "dd"), False),
            (("aa", "ee"), True),
            (("cc", "cc", "ff"), False),
        ])
        m1 = train_svm(docs, tokens, lambda_=0.1, epochs=400)
        m2 = train_svm(docs + docs, tokens, lambda_=0.1, epochs=200)
        words = set(m1.weights) | set(m2.weights)
        assert max(abs(m1.weights.get(w, 0.0) - m2.weights.get(w, 0.0)) for w in words) <= 1e-6

    def test_objective_close_to_plane_family_oracle(self):
        # noisy regime: classes overlap so hinge losses are bounded away from 0
        spec = make_spec(n=2000, num_courses=1, epsilon=0.1, p=0.5, s=30, seed=5)
        rng = _rng(2)
        train, tokens = _sampled([sample_thread(spec, 0, rng) for _ in range(200)])
        lam = 1e-3
        svm = train_svm(train, tokens, lambda_=lam, epochs=200, vocab=spec.background.vocab)
        weights, tau = separating_plane(spec)
        oracle = min(
            svm_objective(
                SvmModel({w: b * v for w, v in weights.items()}, bias=-b * tau), train, tokens, lam
            )
            for b in np.geomspace(0.01, 100.0, 200)
        )
        assert svm_objective(svm, train, tokens, lam) <= 1.05 * oracle

    def test_score_adds_left_to_right(self):
        # 1e16 + 1.0 rounds back to 1e16, so the left-to-right sum is 0.0; fsum gives 1.0
        model = SvmModel({"aa": 1e16, "bb": 1.0, "cc": -1e16}, bias=0.5)
        assert math.fsum([1e16, 1.0, -1e16]) == 1.0
        assert model.score(("aa", "bb", "cc")) == ((1e16 + 1.0) - 1e16) + 0.5 == 0.5

    def test_missing_class(self):
        with pytest.raises(MissingClass):
            train_svm(*_encoded([(("aa",), True), (("bb",), True)]))


class TestEvaluate:
    def test_perfect_classifier(self):
        model = SvmModel({"xx": 1.0, "yy": -1.0})
        docs = [(("xx",), True), (("yy",), False)]
        report = evaluate(model, *_encoded(docs))
        assert (report.tpr, report.fpr) == (1.0, 0.0)

    def test_constant_positive(self):
        model = SvmModel({}, bias=1.0)
        docs = [(("xx",), True), (("yy",), False)]
        report = evaluate(model, *_encoded(docs))
        assert (report.tpr, report.fpr) == (1.0, 1.0)

    def test_tie_at_theta_is_negative(self):
        model = SvmModel({"xx": 1.0}, theta=1.0)
        report = evaluate(model, *_encoded([(("xx",), True)]))
        assert report.tpr == 0.0

    def test_roc_extremes_and_monotonicity(self):
        model = SvmModel({"xx": 1.0, "yy": -0.5})
        docs = [(("xx",), True), (("xx", "yy"), True), (("yy",), False), ((), False)]
        sweep = roc_sweep(model, *_encoded(docs), [-math.inf, -1.0, 0.0, 0.25, math.inf])
        assert (sweep[0][1].tpr, sweep[0][1].fpr) == (1.0, 1.0)
        assert (sweep[-1][1].tpr, sweep[-1][1].fpr) == (0.0, 0.0)
        tprs = [r.tpr for _, r in sweep]
        fprs = [r.fpr for _, r in sweep]
        assert tprs == sorted(tprs, reverse=True)
        assert fprs == sorted(fprs, reverse=True)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), st.booleans()), min_size=1, max_size=30),
        st.sampled_from([-1.0, 0.0, 0.5]),
    )
    def test_evaluate_matches_roc_at_model_theta(self, scored, theta):
        model = SvmModel({f"w{i}": s for i, (s, _) in enumerate(scored)}, theta=theta)
        docs, tokens = _encoded([((f"w{i}",), pos) for i, (_, pos) in enumerate(scored)])
        [(_, swept)] = roc_sweep(model, docs, tokens, [theta])
        assert evaluate(model, docs, tokens) == swept

    def test_unsorted_thresholds_rejected(self):
        with pytest.raises(InvariantViolation):
            roc_sweep(SvmModel({}), *_encoded([(("aa",), True)]), [1.0, 0.0])

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(-5, 5), st.booleans()),
            min_size=1,
            max_size=30,
        )
    )
    def test_roc_monotone_on_random_scores(self, scored):
        # encode scores as single-token docs with the score as the weight
        model = SvmModel({f"w{i}": s for i, (s, _) in enumerate(scored)})
        docs = [((f"w{i}",), pos) for i, (_, pos) in enumerate(scored)]
        thresholds = sorted({s for s, _ in scored} | {-10.0, 10.0})
        sweep = roc_sweep(model, *_encoded(docs), thresholds)
        tprs = [r.tpr for _, r in sweep]
        fprs = [r.fpr for _, r in sweep]
        assert all(a >= b - 1e-12 for a, b in zip(tprs, tprs[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(fprs, fprs[1:]))


class TestPersistence:
    def test_nb_round_trip(self, tmp_path):
        model = train_nb_docs(*_encoded(FOUR_DOCS))
        path = tmp_path / "nb.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.vocab == model.vocab
        pred_a = predict_nb(model, ("aa", "cc"))
        pred_b = predict_nb(loaded, ("aa", "cc"))
        assert pred_a.log_posterior_pos == pytest.approx(pred_b.log_posterior_pos)

    def test_nb_vocab_repeating_a_word_refused(self):
        half = np.log([0.5, 0.5])
        with pytest.raises(InvariantViolation, match="vocab repeats a word"):
            NbModel(("aa", "aa"), math.log(0.5), math.log(0.5), half, half, 1.0)

    def test_svm_round_trip(self, tmp_path):
        model = SvmModel({"xx": 1.5, "yy": -2.0}, bias=0.25, theta=-1.0)
        path = tmp_path / "svm.json"
        save_model(model, path)
        assert load_model(path) == model

    def test_per_course_round_trip(self, tmp_path, tiny_jsonl):
        models = train_nb(ingest_corpus(tiny_jsonl), NbMode.PER_COURSE)
        path = tmp_path / "models.json"
        save_model(models, path)
        assert set(load_model(path)) == set(models)


class TestThreadModelExperiments:
    def test_small_sample_trials_desk_scale(self):
        spec = adversarial_spec(2500)
        trials = small_sample_fpr_trials(spec, trials=60, eval_negatives=60, seed=0)
        assert len(trials) == 60
        high = sum(1 for f in trials if f is not None and f > 0.9)
        assert high / len(trials) >= 0.2

    def test_plane_and_svm_desk_scale(self):
        spec = adversarial_spec(2500)
        plane_err, svm_err, _ = plane_and_svm_errors(
            spec, n_eval=2000, svm_training_threads=250, seed=1
        )
        assert plane_err <= 0.01
        assert svm_err <= 0.01

    def test_roc_reaches_good_operating_point(self):
        spec = adversarial_spec(2500, seed=3)
        rng = _rng(8)
        train = _sampled([sample_thread(spec, 0, rng) for _ in range(250)])
        svm = train_svm(*train, lambda_=1e-4, epochs=50)
        test = _sampled([sample_thread(spec, 0, rng) for _ in range(2000)])
        sweep = roc_sweep(svm, *test, np.linspace(-3, 3, 61).tolist())
        assert any(r.tpr >= 0.95 and r.fpr <= 0.05 for _, r in sweep)

    def test_aggregate_prior_distortion(self):
        # two courses with very different small-talk rates; pooled training
        # inherits a prior that over-flags the mostly-smalltalk course's rare
        # negatives relative to a per-course model trained with ample data
        spec = make_spec(
            n=3000, num_courses=2, epsilon=0.5, p=(0.25, 0.95), s=55,
            s_per_course=(55, 20), training_counts=(4, 4), seed=0,
        )
        vocab = spec.background.vocab
        rng0 = _rng(999)
        ample_docs, ample_tokens = _sampled([sample_thread(spec, 1, rng0) for _ in range(2000)])
        ample = train_nb_docs(ample_docs, ample_tokens, pseudocount=1.0, vocab=vocab)

        def fpr(model, rng, n_eval=60):
            flagged = 0
            for _ in range(n_eval):
                t_len = spec.thread_length(1)
                from forumlens.genmodel import sample_tokens

                toks = sample_tokens(spec, 1, False, t_len, rng)
                if predict_nb(model, toks).positive:
                    flagged += 1
            return flagged / n_eval

        ge = total = 0
        for seed in range(40):
            rng = _rng(seed)
            pooled = [sample_thread(spec, 0, rng) for _ in range(4)]
            pooled += [sample_thread(spec, 1, rng) for _ in range(4)]
            try:
                aggregate = train_nb_docs(*_sampled(pooled), pseudocount=1.0, vocab=vocab)
            except MissingClass:
                continue
            total += 1
            if fpr(aggregate, rng) >= fpr(ample, rng):
                ge += 1
        assert total >= 20
        assert ge / total >= 0.9

    def test_reference_pseudocount(self):
        spec = make_spec(n=400, num_courses=1, epsilon=0.3, p=0.5, s=10)
        assert reference_pseudocount(spec) == pytest.approx(2.0 / 400)

    def test_experiments_match_word_list_scoring(self):
        # the same draws in the same order, decided one word list at a time
        spec = adversarial_spec(300)
        pseudocount = reference_pseudocount(spec)
        trials = small_sample_fpr_trials(spec, trials=12, eval_negatives=25, pseudocount=pseudocount, seed=4)
        assert trials == _oracle_fpr_trials(spec, 12, 25, pseudocount, seed=4)
        assert None in trials and len({f for f in trials if f is not None}) > 1
        plane_err, svm_err, svm = plane_and_svm_errors(
            spec, n_eval=400, svm_training_threads=40, epochs=3, seed=2
        )
        assert (plane_err, svm_err) == _oracle_errors(spec, svm, n_eval=400, svm_training_threads=40, seed=2)
        assert svm_err > 0


def _oracle_fpr_trials(spec, trials, eval_negatives, pseudocount, seed, course=0):
    """small_sample_fpr_trials deciding each negative's words with predict_nb."""
    b, s = spec.training_counts[course], spec.thread_length(course)
    results = []
    for child in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.Generator(np.random.PCG64(child))
        docs, tokens = _sampled([sample_thread(spec, course, rng) for _ in range(b)])
        try:
            model = train_nb_docs(docs, tokens, pseudocount=pseudocount, vocab=spec.background.vocab)
        except MissingClass:
            results.append(None)
            continue
        flagged = 0
        for _ in range(eval_negatives):
            if predict_nb(model, sample_tokens(spec, course, False, s, rng)).positive:
                flagged += 1
        results.append(flagged / eval_negatives)
    return results


def _oracle_errors(spec, svm, n_eval, svm_training_threads, seed, course=0):
    """plane_and_svm_errors' error rates, scoring each thread's words with SvmModel.score."""
    weights, tau = separating_plane(spec)
    plane = SvmModel(weights=weights, bias=0.0, theta=tau)
    train_ss, eval_ss = np.random.SeedSequence(seed).spawn(2)
    train_rng, eval_rng = (np.random.Generator(np.random.PCG64(ss)) for ss in (train_ss, eval_ss))
    train = [sample_thread(spec, course, train_rng) for _ in range(svm_training_threads)]
    # the svm is retrained on the same draws: its weights must be the function's
    assert train_svm(*_sampled(train), lambda_=1e-4, epochs=3).weights == svm.weights
    errors = [0, 0]
    for _ in range(n_eval):
        thread = sample_thread(spec, course, eval_rng)
        for i, model in enumerate((plane, svm)):
            if (model.score(thread.tokens) > model.theta) != thread.is_smalltalk:
                errors[i] += 1
    return errors[0] / n_eval, errors[1] / n_eval


class TestCorpusAdapter:
    def test_labeled_docs_skips_unlabeled(self, tiny_jsonl):
        corpus = ingest_corpus(tiny_jsonl)
        docs = labeled_docs(corpus, TokenTable())
        assert len(docs) == 4  # one thread is unlabeled
        assert sum(1 for _, pos in docs if pos) == 2

    def test_eval_report_counts(self):
        report = EvalReport(tp=3, fp=1, tn=5, fn=2)
        assert report.tpr == pytest.approx(3 / 5)
        assert report.fpr == pytest.approx(1 / 6)


# ---------------------------------------------------------------------------
# Oracle: the word-list Counter training and per-document dispatch that the
# TokenTable id arrays replaced
# ---------------------------------------------------------------------------


def _oracle_words(docs, vocab):
    return sorted({w for tokens, _ in docs for w in tokens}) if vocab is None else sorted(set(vocab))


def _oracle_train_nb_docs(docs, pseudocount, vocab):
    n_pos = sum(1 for _, positive in docs if positive)
    n_neg = len(docs) - n_pos
    words = _oracle_words(docs, vocab)
    index = {w: i for i, w in enumerate(words)}
    counts = np.zeros((2, len(words)))
    for tokens, positive in docs:
        row = counts[1 if positive else 0]
        for w, c in Counter(tokens).items():
            i = index.get(w)
            if i is not None:
                row[i] += c
    smoothed = counts + pseudocount
    log_cond = np.log(smoothed) - np.log(smoothed.sum(axis=1, keepdims=True))
    return NbModel(
        vocab=tuple(words),
        log_prior_neg=math.log(n_neg / len(docs)),
        log_prior_pos=math.log(n_pos / len(docs)),
        log_cond_neg=log_cond[0],
        log_cond_pos=log_cond[1],
        pseudocount=pseudocount,
    )


def _oracle_doc_vectors(docs, index):
    rows = []
    for tokens, positive in docs:
        cnt = Counter(tok for tok in tokens if tok in index)
        idx = np.array([index[w] for w in cnt], dtype=np.intp)
        val = np.array(list(cnt.values()), dtype=float)
        rows.append((idx, val, 1.0 if positive else -1.0))
    return rows


def _oracle_train_svm(docs, lambda_, epochs, vocab):
    words = _oracle_words(docs, vocab)
    index = {w: i for i, w in enumerate(words)}
    rows = _oracle_doc_vectors(docs, index)
    w = np.zeros(len(words))
    t = 0
    for _ in range(epochs):
        for idx, val, y in rows:
            t += 1
            eta = 1.0 / (lambda_ * t)
            margin = y * float(w[idx] @ val)
            w *= 1.0 - eta * lambda_
            if margin < 1.0:
                w[idx] += eta * y * val
    return SvmModel({word: float(w[i]) for word, i in index.items() if w[i] != 0.0})


def _oracle_score(model, tokens):
    """The SVM score, or the naive Bayes log posterior odds."""
    if isinstance(model, SvmModel):
        return model.score(tokens)
    prediction = predict_nb(model, tokens)
    return prediction.log_posterior_pos - prediction.log_posterior_neg


def _oracle_decisions(model, token_lists, theta=None):
    if theta is None:
        theta = model.theta if isinstance(model, SvmModel) else 0.0
    return [_oracle_score(model, tokens) > theta for tokens in token_lists]


def _oracle_evaluate(model, docs, theta=None):
    flagged = _oracle_decisions(model, [tokens for tokens, _ in docs], theta)
    return _confusion(flagged, [positive for _, positive in docs])


def _oracle_roc_sweep(model, docs, thresholds):
    scores = np.array([_oracle_score(model, tokens) for tokens, _ in docs])
    positive = np.array([positive for _, positive in docs], dtype=bool)
    return [(theta, _confusion(scores > theta, positive)) for theta in thresholds]


# "qq" and "zz" never occur in training docs: out of vocabulary, or only in a given vocab
_DOC_WORDS = ["aa", "bb", "cc", "dd", "ee", "ff", "gg", "hh"]
_docs = st.lists(
    st.tuples(st.lists(st.sampled_from(_DOC_WORDS), max_size=12), st.booleans()),
    min_size=2,
    max_size=10,
)


class TestTableMatchesOracle:
    """Training and evaluation on id arrays equal the word-list code they replaced."""

    @settings(max_examples=150, deadline=None)
    @given(
        _docs.filter(lambda d: len({pos for _, pos in d}) == 2),
        st.one_of(st.none(), st.lists(st.sampled_from(_DOC_WORDS + ["zz"]), min_size=1, max_size=6)),
        st.lists(
            st.tuples(st.lists(st.sampled_from(_DOC_WORDS + ["qq", "zz"]), max_size=7), st.booleans()),
            min_size=1,
            max_size=10,
        ),
        st.sampled_from([0.1, 1.0]),
        st.integers(1, 4),
        st.sampled_from([None, -0.5, 0.0, 0.25]),
    )
    def test_equal_to_oracle(self, docs, vocab, test_docs, pseudocount, epochs, theta):
        encoded, tokens = _encoded(docs)
        test_encoded = [(tokens.encode(words), positive) for words, positive in test_docs]

        if vocab is None and not any(words for words, _ in docs):
            # all-empty training docs leave no vocabulary to normalize over
            with pytest.raises(EmptyCorpus):
                train_nb_docs(encoded, tokens, pseudocount, vocab)
            models = ()
        else:
            nb = train_nb_docs(encoded, tokens, pseudocount, vocab)
            nb_oracle = _oracle_train_nb_docs(docs, pseudocount, vocab)
            assert nb.vocab == nb_oracle.vocab
            assert (nb.log_prior_neg, nb.log_prior_pos) == (nb_oracle.log_prior_neg, nb_oracle.log_prior_pos)
            assert np.array_equal(nb.log_cond_neg, nb_oracle.log_cond_neg)
            assert np.array_equal(nb.log_cond_pos, nb_oracle.log_cond_pos)
            models = (nb,)

        svm = train_svm(encoded, tokens, lambda_=0.1, epochs=epochs, vocab=vocab)
        svm_oracle = _oracle_train_svm(docs, 0.1, epochs, vocab)
        assert list(svm.weights.items()) == list(svm_oracle.weights.items())

        thresholds = [-1.0, -0.25, 0.0, 0.25, 1.0]
        for model in (*models, svm):
            assert evaluate(model, test_encoded, tokens, theta) == _oracle_evaluate(
                model, test_docs, theta
            )
            assert roc_sweep(model, test_encoded, tokens, thresholds) == _oracle_roc_sweep(
                model, test_docs, thresholds
            )


def _oracle_svm_objective(model, docs, lambda_):
    hinge = 0.0
    for words, positive in docs:
        y = 1.0 if positive else -1.0
        hinge += max(0.0, 1.0 - y * model.score(words))
    return hinge / len(docs) + 0.5 * lambda_ * sequential_sum(v * v for v in model.weights.values())


def _nb_model(vocab, masses_pos, masses_neg, p_pos):
    log_cond = np.log(np.array([masses_neg, masses_pos]))
    log_cond -= np.log(np.exp(log_cond).sum(axis=1, keepdims=True))
    return NbModel(vocab=tuple(vocab), log_prior_neg=math.log1p(-p_pos), log_prior_pos=math.log(p_pos),
                   log_cond_neg=log_cond[0], log_cond_pos=log_cond[1], pseudocount=1.0)


# "dd" and "qq" are table words that no model knows; "zz" is a model word that no document has
_MODEL_WORDS = ["aa", "bb", "cc", "zz"]
_ROW_WORDS = ["aa", "bb", "cc", "dd", "qq"]
# weights whose sums change with the order of the additions
_WEIGHTS = st.one_of(st.sampled_from([1e16, -1e16, 1.0, 0.5, -3.25]), st.floats(-1e6, 1e6))


class TestBatchedScoresMatchWords:
    """Chunked id-matrix sums equal the word-list scoring (predict_nb, SvmModel.score) bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.lists(st.sampled_from(_ROW_WORDS), max_size=12), max_size=12),
        st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
        st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
        st.sampled_from([0.5, 0.3, 0.9]),
        st.booleans(),
        st.dictionaries(st.sampled_from(_MODEL_WORDS), _WEIGHTS),
        st.floats(-10, 10),
        st.sampled_from([-1.0, 0.0, 0.5]),
        st.sampled_from([1, 2, 5, 13, corpus._CHUNK_TOKENS]),
    )
    def test_log_posteriors_and_scores(self, rows, m_pos, m_neg, p_pos, tie, weights, bias, theta, budget):
        # an empty row and a row of words outside every model come first
        rows = [[], ["qq", "dd", "qq"], *rows]
        if tie:  # equal priors and conditionals: every posterior ties, and a tie is negative
            m_neg, p_pos = m_pos, 0.5
        nb = _nb_model(_MODEL_WORDS, m_pos, m_neg, p_pos)
        svm = SvmModel(weights, bias=bias)
        tokens = TokenTable()
        ids = [tokens.encode(words) for words in rows]
        oracle = [predict_nb(nb, words) for words in rows]
        with chunk_budget(budget):  # a small budget splits the rows
            log_pos, log_neg = _nb_log_posteriors(nb, ids, tokens)
            scores = _svm_scores(svm, ids, tokens)
            nb_flags = decisions(nb, iter(ids), tokens)
            svm_flags = decisions(svm, ids, tokens, theta)
        assert np.array_equal(log_pos, [p.log_posterior_pos for p in oracle])
        assert np.array_equal(log_neg, [p.log_posterior_neg for p in oracle])
        assert nb_flags == [p.positive for p in oracle]
        if tie:
            assert not any(nb_flags)
        assert np.array_equal(scores, [svm.score(words) for words in rows])
        assert svm_flags == [svm.score(words) > theta for words in rows]

    @settings(max_examples=100, deadline=None)
    @given(
        _docs.filter(lambda d: len({pos for _, pos in d}) == 2),
        st.one_of(st.none(), st.lists(st.sampled_from(_DOC_WORDS + ["zz"]), min_size=1, max_size=6)),
        st.dictionaries(st.sampled_from(_DOC_WORDS + ["zz"]), _WEIGHTS),
        st.sampled_from([1, 3, 8, corpus._CHUNK_TOKENS]),
    )
    def test_svm_training_and_objective(self, docs, vocab, weights, budget):
        encoded, tokens = _encoded(docs)
        with chunk_budget(budget):
            svm = train_svm(encoded, tokens, lambda_=0.1, epochs=2, vocab=vocab)
            objectives = [svm_objective(m, encoded, tokens, 0.1) for m in (svm, SvmModel(weights, bias=0.5))]
        assert list(svm.weights.items()) == list(_oracle_train_svm(docs, 0.1, 2, vocab).weights.items())
        assert objectives == [_oracle_svm_objective(m, docs, 0.1) for m in (svm, SvmModel(weights, bias=0.5))]


def _decoded_docs(docs, tokens):
    words = list(tokens.index)
    return [([words[i] for i in ids.tolist()], positive) for ids, positive in docs]


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestChunkedMemory:
    """Scoring and SVM row building work a bounded chunk at a time, so 4x the documents of the
    same length stays under 1.5x the peak allocation, beyond the rows that SVM epochs replay."""

    V, LENGTH = 2000, 32

    def _docs(self, n):
        rng = _rng(11)
        tokens = TokenTable()
        tokens.encode([f"w{i}" for i in range(self.V)])
        return [(rng.integers(0, self.V, self.LENGTH).astype(np.int32), i % 2 == 0) for i in range(n)], tokens

    def test_decisions(self):
        peaks = []
        for n in (1000, 4000):
            docs, tokens = self._docs(n)
            rows = [ids for ids, _ in docs]
            models = (train_nb_docs(docs, tokens), SvmModel({f"w{i}": 0.5 - i % 2 for i in range(self.V)}))
            peaks.append(max(_peak_bytes(lambda: decisions(m, rows, tokens)) for m in models))
        assert peaks[1] < 1.5 * peaks[0]

    def test_train_svm(self):
        peaks, replayed = [], []
        for n in (1000, 4000):
            docs, tokens = self._docs(n)
            peaks.append(_peak_bytes(lambda: train_svm(docs, tokens, epochs=1)))
            # what the epochs replay: one (positions, counts, label) row per document
            index = {w: i for i, w in enumerate(tokens.index)}
            words = _decoded_docs(docs, tokens)
            replayed.append(_peak_bytes(lambda: _oracle_doc_vectors(words, index)))
        assert peaks[1] - replayed[1] < 1.5 * (peaks[0] - replayed[0])

