"""Command-line interface: every analysis pipeline behind one executable.

Every subcommand takes ``--out DIR``.  Its handler computes the command's
artifacts (CSV or JSON) and returns them by file name; only after it returns
does ``main`` write every artifact, and then ``manifest.json``: the resolved
configuration and the SHA-256 of each input file given by ``--spec``,
``--threads``, ``--meta``, ``--model`` or ``--stopwords``.  They are written
into a temporary directory beside ``--out`` and then moved into it (see
``_publish``), so a failed command creates no ``--out`` and leaves an existing
one untouched.  Runs are deterministic given the manifest, so re-running a
command reproduces byte-identical artifacts.

``main`` keeps the last corpus it parsed, keyed by the SHA-256 of its file,
and the next command on a file with that digest reuses it, together with the
token tables the commands before it built over that corpus, one per text view.

``main`` parses argv once with every default set aside, so the parsed flags
are exactly the given ones.  It then fills each unset flag from ``--config``,
else from its default (config keys only fill, and are never refused), and last
refuses with exit 2 a given flag that the command path never reads.

Exit codes: 0 ok, 2 configuration error, 3 data error, 4 numerical failure.
Errors are reported as a JSON object on stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import re
import shutil
import stat
import sys
import tempfile
from functools import partial

import numpy as np

from . import __version__
from .corpus import (
    MAX_SERIES_ROWS,
    Corpus,
    ThreadLabel,
    ThreadRows,
    TokenTable,
    attach_metadata,
    default_stopwords,
    ingest_corpus,
    load_stopwords,
    serialize_corpus,
    thread_tokens,  # not called here, but bench/tracing.py rebinds cli.thread_tokens
)
from .classify import (
    NbMode,
    decisions,
    evaluate,
    labeled_docs,
    load_model,
    predict_nb,  # not called here, but bench/tracing.py rebinds cli.predict_nb
    roc_sweep,
    save_model,
    train_nb,
    train_svm,
)
from .errors import (
    ConfigError,
    EmptyCorpus,
    ForumlensError,
    InvariantViolation,
    ParseError,
    RankDeficient,
)
from .genmodel import load_spec, sample_corpus
from .ranking import (
    RankedList,
    RankWindow,
    hits_rank,
    sample_query_days,
    split_window,
    tfidf_rank,
    topical_rank,
    topk_diff,
)
from .stats import (
    PanelTarget,
    build_series,
    fit_course_trend,
    fit_panel_ols,
    neighborhood_counts,
    partition_by_threshold,
    qq_points,
    shapiro_wilk,
    smalltalk_moving_average,
    trim_and_diff,
    two_sample_tests,
)
from .topics import KeywordFit, convergence_series, extract_keywords

def _fmt(value):
    if isinstance(value, float):
        return format(value, ".12g")
    return value


def _write_csv(header, rows, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_text(text, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# Flags that name an input file; the manifest hashes each one a command was given.
_INPUT_FLAGS = ("spec", "threads", "meta", "model", "stopwords")


def _manifest(args, digests: dict) -> dict:
    """The resolved configuration plus the SHA-256 of every input file; ``digests`` holds those already taken."""
    config = {
        k: (list(v) if isinstance(v, tuple) else v)
        for k, v in sorted(vars(args).items())
        if k != "config" and isinstance(v, (str, int, float, bool, list, tuple, type(None)))
    }
    paths = [getattr(args, flag, None) for flag in _INPUT_FLAGS]
    return {
        "tool": f"forumlens {__version__}",
        "config": config,
        "inputs": {str(p): digests.get(p) or _sha256(p) for p in paths if p},
    }


# The last corpus main parsed, by the SHA-256 of its file, with its token tables by text view
# (stopword set, include_staff): at most one entry.
_PARSED: dict[str, tuple[Corpus, dict[tuple[frozenset[str], bool], TokenTable]]] = {}


def _load_corpus(args, digest: str) -> Corpus:
    """The corpus in ``--threads``, whose file hashes to ``digest``, with ``--meta`` attached."""
    if digest in _PARSED:
        corpus, _ = _PARSED[digest]
    else:
        _PARSED.clear()  # one corpus held, even while the next one parses
        corpus = ingest_corpus(args.threads)
        if _sha256(args.threads) == digest:  # the file did not change during the parse
            _PARSED[digest] = (corpus, {})
    if getattr(args, "meta", None):
        corpus = attach_metadata(corpus, args.meta)
    return corpus


def _background_ids(args):
    if not args.background:
        return None
    return [c.strip() for c in args.background.split(",") if c.strip()]


def _table(stopwords: frozenset[str], include_staff: bool) -> TokenTable:
    """The token table of one text view over the command's corpus: the one kept with the corpus
    in _PARSED, built on first use, or a new one when the slot is empty (the corpus changed
    during its parse and is not kept)."""
    tables = next((tables for _, tables in _PARSED.values()), {})
    key = (stopwords, include_staff)
    if key not in tables:
        tables[key] = TokenTable(stopwords, include_staff)
    return tables[key]


def _tokens(args) -> TokenTable:
    """The token table of the text view that the shared text flags pick."""
    stopwords = load_stopwords(args.stopwords) if args.stopwords else default_stopwords()
    return _table(stopwords, not args.exclude_staff)


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns its artifacts as {file name: writer} in
# write order, and main calls each writer with the artifact's path
# ---------------------------------------------------------------------------


def _cmd_gen(args, _corpus) -> dict:
    spec = load_spec(args.spec)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    if args.counts:
        counts = [int(c) for c in args.counts.split(",")]
        if len(counts) != spec.num_courses:
            raise ConfigError(f"--counts gives {len(counts)} counts for {spec.num_courses} courses")
    elif spec.training_counts is not None:
        counts = list(spec.training_counts)
    else:
        raise ConfigError("no --counts given and the spec carries no training counts")
    corpus = sample_corpus(spec, counts, threads_per_day=args.threads_per_day)
    return {
        args.name: partial(serialize_corpus, corpus),
        "spec.json": partial(_write_text, spec.to_json()),
    }


def _cmd_ingest(args, corpus) -> dict:
    rows = [
        (c.course_id, c.num_threads, c.num_posts, c.start_date, c.category.value)
        for c in corpus.courses
    ]
    header = ["course_id", "threads", "posts", "start_date", "category"]
    return {
        "summary.csv": partial(_write_csv, header, rows),
        "normalized.jsonl": partial(serialize_corpus, corpus),
    }


def _cmd_classify_train(args, corpus) -> dict:
    tokens = _tokens(args)
    if args.algo == "nb":
        model = train_nb(corpus, NbMode(args.mode), args.pseudocount, tokens)
    else:
        model = train_svm(labeled_docs(corpus, tokens), tokens, lambda_=args.lam, epochs=args.epochs)
    return {"model.json": partial(save_model, model)}


def _cmd_classify_eval(args, corpus) -> dict:
    tokens = _tokens(args)
    model = load_model(args.model)
    # a per-course model skips courses without labeled threads; the aggregate one needs some
    scopes = sorted(model.items()) if isinstance(model, dict) else [(None, model)]
    rows = []
    for course_id, sub in scopes:
        docs = labeled_docs(corpus, tokens, course_id)
        if docs or course_id is None:
            rep = evaluate(sub, docs, tokens, theta=args.theta)
            scope = "all" if course_id is None else course_id
            rows.append((scope, rep.tp, rep.fp, rep.tn, rep.fn, rep.tpr, rep.fpr))
    return {"eval.csv": partial(_write_csv, ["scope", "tp", "fp", "tn", "fn", "tpr", "fpr"], rows)}


def _cmd_classify_roc(args, corpus) -> dict:
    if args.theta_max < args.theta_min:
        raise ConfigError(f"--theta-max {args.theta_max} is below --theta-min {args.theta_min}")
    tokens = _tokens(args)
    model = load_model(args.model)
    thetas = np.linspace(args.theta_min, args.theta_max, args.theta_steps).tolist()
    reports = roc_sweep(model, labeled_docs(corpus, tokens), tokens, thetas)
    rows = [(th, r.tpr, r.fpr, r.tp, r.fp, r.tn, r.fn) for th, r in reports]
    return {"roc.csv": partial(_write_csv, ["theta", "tpr", "fpr", "tp", "fp", "tn", "fn"], rows)}


def _cmd_topics_extract(args, corpus) -> dict:
    ranking = extract_keywords(
        corpus, args.course, _background_ids(args), warmup_days=args.warmup_days, tokens=_tokens(args)
    )
    rows = [(r, w, g) for r, (w, g) in enumerate(ranking.entries[: args.k], start=1)]
    return {"keywords.csv": partial(_write_csv, ["rank", "word", "gamma"], rows)}


def _cmd_topics_converge(args, corpus) -> dict:
    points = convergence_series(
        corpus, args.course, _background_ids(args), k=args.k, max_days=args.max_days,
        tokens=_tokens(args),
    )
    header = ["day", "new_words", "kendall_tau", "cumulative_tokens"]
    rows = [(p.day, p.new_words, p.kendall_tau, p.cumulative_tokens) for p in points]
    return {"convergence.csv": partial(_write_csv, header, rows)}


class _CourseRanker:
    """Ranks one course's query threads for the windows of one command.

    Every ranking reads its tokens from the corpus's shared tables, and the
    keyword fit (background counts and the course's ids in day order) is built
    on first use and shared by every warm-up length.  ``--exclude-staff`` drops
    staff posts from the keyword fit only: topical and tf-idf scores read the
    staff-including table.
    """

    def __init__(self, corpus, course_id, tokens, alpha, keyword_k):
        self.corpus = corpus
        self.course = corpus.course(course_id)
        self.threads = ThreadRows(self.course.columns, np.arange(self.course.num_threads))
        self.alpha = alpha
        self.keyword_k = keyword_k
        self.fit_tokens = tokens
        self.score_tokens = tokens if tokens.include_staff else _table(tokens.stopwords, True)
        self._fit = None

    def rank(self, algo, window) -> RankedList:
        course = self.course
        window_rows, query_rows = split_window(self.threads, course.start_date, window)
        if not query_rows.rows.size:
            raise EmptyCorpus(
                f"no query threads in days {window.warmup_days + 1}..{window.window_days}"
            )
        if algo == "topical":
            if self._fit is None:
                self._fit = KeywordFit(self.fit_tokens, self.corpus, course.course_id)
            keywords = self._fit.keywords(window.warmup_days)
            return topical_rank(
                keywords, query_rows, alpha=self.alpha, k=self.keyword_k, tokens=self.score_tokens
            )
        if algo == "tfidf":
            return tfidf_rank(window_rows, query_rows, tokens=self.score_tokens)
        if algo == "hits":
            ranked = hits_rank(window_rows)
            query_ids = set(query_rows.thread_ids)
            entries = tuple(e for e in ranked.entries if e[0] in query_ids)
            return dataclasses.replace(ranked, entries=entries)
        raise ConfigError(f"unknown ranking algorithm {algo!r}")


def _cmd_rank(args, corpus) -> dict:
    ranker = _CourseRanker(corpus, args.course, _tokens(args), args.alpha, args.keyword_k)
    ranked = ranker.rank(args.algo, RankWindow(args.warmup, args.query))
    rows = [(i, tid, s) for i, (tid, s) in enumerate(ranked.entries, start=1)]
    return {"ranked.csv": partial(_write_csv, ["rank", "thread_id", "score"], rows)}


def _cmd_compare(args, corpus) -> dict:
    if not args.low <= args.high < 2**63:
        raise ConfigError(f"--high {args.high} is below --low {args.low} or does not fit a 64-bit integer")
    ranker = _CourseRanker(corpus, args.course, _tokens(args), args.alpha, args.keyword_k)
    columns = ranker.course.columns
    irrelevant_ids = {
        tid for tid, label in zip(columns.thread_ids, columns.labels) if label == ThreadLabel.SMALL_TALK
    }
    days = sample_query_days(args.low, args.high, args.extra_days, seed=args.seed or 0)
    rows = []
    for day in days:
        window = RankWindow(day, args.query)
        try:
            ours = ranker.rank("topical", window)
        except EmptyCorpus:
            continue
        for baseline_name in ("tfidf", "hits"):
            baseline = ranker.rank(baseline_name, window)
            d1, d2 = topk_diff(ours, baseline, args.k)
            irrelevant = [sum(1 for tid in d if tid in irrelevant_ids) for d in (d1, d2)]
            rows.append((day, baseline_name, len(d1), *irrelevant))
    header = ["warmup_day", "baseline", "diff_size", "ours_irrelevant", "baseline_irrelevant"]
    return {"compare.csv": partial(_write_csv, header, rows)}


def _cmd_stats_series(args, corpus) -> dict:
    series = build_series(corpus)
    rows = []
    for course_id in sorted(series):
        s = series[course_id]
        for t in range(1, s.days + 1):
            rows.append((course_id, t, s.y[t - 1], s.z[t - 1]))
    return {"series.csv": partial(_write_csv, ["course_id", "day", "posts", "users"], rows)}


def _cmd_stats_trend(args, corpus) -> dict:
    series = build_series(corpus)
    rows = []
    for course_id in sorted(series):
        slope, intercept = fit_course_trend(series[course_id])
        rows.append((course_id, slope, intercept))
    return {"trend.csv": partial(_write_csv, ["course_id", "slope", "intercept"], rows)}


def _cmd_stats_panel(args, corpus) -> dict:
    if not args.meta:
        raise ConfigError("panel regression requires --meta course metadata")
    series = build_series(corpus)
    factors = {c.course_id: c.factors for c in corpus.courses if c.factors is not None}
    series = {cid: s for cid, s in series.items() if cid in factors}
    fit = fit_panel_ols(series, factors, PanelTarget(args.target), staff_scale=args.scale_staff)
    terms = [
        (term, fit.coefficients[i], fit.standard_errors[i], fit.t_stats[i], fit.p_values[i])
        for i, term in enumerate(fit.terms)
    ]
    summary = [(fit.r_squared, fit.adj_r_squared, fit.n_obs, fit.dropped_rows)]
    return {
        "panel.csv": partial(_write_csv, ["term", "estimate", "std_error", "t", "p"], terms),
        "panel_summary.csv": partial(
            _write_csv, ["r_squared", "adj_r_squared", "n_obs", "dropped_rows"], summary
        ),
    }


def _cmd_stats_shapiro(args, corpus) -> dict:
    series = build_series(corpus)
    rows = []  # filled below; shapiro.csv is written first
    artifacts = {"shapiro.csv": partial(_write_csv, ["course_id", "n", "W", "p"], rows)}
    for course_id in sorted(series):
        diffs = trim_and_diff(series[course_id], args.trim)
        if diffs.size < 3 or np.ptp(diffs) == 0:
            rows.append((course_id, diffs.size, "", ""))
            continue
        res = shapiro_wilk(diffs)
        rows.append((course_id, diffs.size, res.statistic, res.pvalue))
        qq = qq_points(diffs)
        artifacts[f"qq_{course_id}.csv"] = partial(_write_csv, ["theoretical", "sample"], qq)
    return artifacts


def _cmd_stats_ttest(args, corpus) -> dict:
    f_values = []
    lengths = []
    for course in corpus.courses:
        f_values.extend(neighborhood_counts(course, args.t_days).values())  # in thread order
        lengths.extend(course.columns.lengths.tolist())
    g1, g2 = partition_by_threshold(lengths, f_values, args.threshold)
    result = two_sample_tests(g1, g2)
    header = ["t", "t_p_one_sided", "t_p_two_sided", "df", "U", "U_p_one_sided", "U_p_two_sided",
              "u_method", "n1", "n2", "var1", "var2"]
    return {"ttest.csv": partial(_write_csv, header, [dataclasses.astuple(result)])}


def _cmd_stats_moving_avg(args, corpus) -> dict:
    picked = [  # (category, seconds since the course start, course, thread row)
        (course.category.value, created - course.start_date, course, row)
        for course in corpus.courses
        for row, created in enumerate(course.columns.created_at.tolist())
        if created - course.start_date <= args.max_days * 86400
    ]
    if args.model:
        tokens = _tokens(args)
        ids = [tokens.ids(course.columns, row) for _, _, course, row in picked]
        flags = decisions(load_model(args.model), ids, tokens)
    else:
        picked = [p for p in picked if p[2].columns.labels[p[3]] != ThreadLabel.UNLABELED]
        flags = [course.columns.labels[row] == ThreadLabel.SMALL_TALK for _, _, course, row in picked]
    by_category: dict[str, list[tuple[int, int]]] = {}
    for (category, elapsed, _, _), flag in zip(picked, flags):
        by_category.setdefault(category, []).append((elapsed, int(flag)))
    rows = []
    for category in sorted(by_category):
        ordered = sorted(by_category[category])
        flags = [flag for _, flag in ordered]
        avg = smalltalk_moving_average(flags, alpha=args.alpha_ma, denominator=args.denominator)
        for i, ((elapsed, _), s) in enumerate(zip(ordered, avg), start=1):
            rows.append((category, i, elapsed / 86400.0, s))
    return {"moving_avg.csv": partial(_write_csv, ["category", "seq", "elapsed_days", "s_t"], rows)}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_corpus_args(p, meta=True):
    p.add_argument("--threads", required=True, help="thread corpus (JSON lines)")
    if meta:
        p.add_argument("--meta", default=None, help="course metadata CSV")
    p.add_argument("--out", required=True, help="output directory")


def _add_text_args(p, staff_help="drop staff posts from text"):
    p.add_argument("--stopwords", default=None, help="stopword file (default: shipped list)")
    p.add_argument("--exclude-staff", action="store_true", help=staff_help)


def _checked(kind, test, requirement):
    """An argparse type that reads a ``kind`` and refuses one that fails ``test``."""

    def parse(text):
        value = kind(text)
        if not test(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value" errors
    return parse


def _plain_file_name(name: str) -> bool:
    """Whether ``name`` names one file directly inside a directory."""
    separators = ("/", os.sep, os.altsep, "\0")
    return name not in ("", ".", "..") and not any(s and s in name for s in separators)


# the float tests are written to fail on NaN and on infinities
_finite = _checked(float, math.isfinite, "finite")
_positive_float = _checked(float, lambda v: 0 < v < math.inf, "positive and finite")
_positive_int = _checked(int, lambda v: v > 0, "positive")
_fraction = _checked(float, lambda v: 0 < v < 1, "positive and below 1")
_trim_fraction = _checked(float, lambda v: 0 <= v < 0.5, "in [0, 0.5)")
_non_negative_int = _checked(int, lambda v: v >= 0, "non-negative")
_series_length = _checked(int, lambda v: 0 < v <= MAX_SERIES_ROWS, f"positive and at most {MAX_SERIES_ROWS}")
_series_days = _checked(int, lambda v: 0 <= v <= MAX_SERIES_ROWS, f"non-negative and at most {MAX_SERIES_ROWS}")
_corpus_name = _checked(str, lambda t: _plain_file_name(t) and t not in ("spec.json", "manifest.json"),
                        "one file name other than spec.json and manifest.json")


def _counts(text):
    """Comma-separated non-negative integers, kept as the text that the manifest records."""
    [_non_negative_int(c) for c in text.split(",")]  # argparse reports a bad entry's error
    return text


_RANK_STAFF_HELP = (
    "drop staff posts when fitting keywords; topical and tf-idf scores still use staff text"
)


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ConfigError (the JSON error object); subparsers share the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern has no exponent, so "-1e-3" would be read as an option
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="forumlens", description=__doc__)
    parser.add_argument("--config", default=None, help="JSON config file; it fills only unset flags")
    parser.add_argument("--seed", type=_non_negative_int, help="seed override, read by gen and compare")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="sample a synthetic corpus from a generative spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--counts", type=_counts, default=None, help="comma-separated threads per course")
    p.add_argument("--threads-per-day", type=_positive_int, default=24)
    p.add_argument("--name", type=_corpus_name, default="corpus.jsonl")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("ingest", help="validate a corpus and emit summaries")
    _add_corpus_args(p)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("classify", help="train/evaluate small-talk classifiers")
    csub = p.add_subparsers(dest="subcommand", required=True)
    pt = csub.add_parser("train")
    _add_corpus_args(pt, meta=False)
    _add_text_args(pt)
    pt.add_argument("--algo", choices=["nb", "svm"], default="nb")
    pt.add_argument("--mode", choices=[m.value for m in NbMode], default="aggregate")
    pt.add_argument("--pseudocount", type=_positive_float, default=1.0)
    pt.add_argument("--lambda", dest="lam", type=_positive_float, default=1e-4)
    pt.add_argument("--epochs", type=_positive_int, default=50)
    pt.set_defaults(func=_cmd_classify_train)
    pe = csub.add_parser("eval")
    _add_corpus_args(pe, meta=False)
    _add_text_args(pe)
    pe.add_argument("--model", required=True)
    pe.add_argument("--theta", type=_finite, default=None, help="threshold on the model's score (SVM score, "
                    "or naive Bayes log posterior odds); default: the SVM model's theta, 0 for naive Bayes")
    pe.set_defaults(func=_cmd_classify_eval)
    pr = csub.add_parser("roc")
    _add_corpus_args(pr, meta=False)
    _add_text_args(pr)
    pr.add_argument("--model", required=True)
    pr.add_argument("--theta-min", type=_finite, default=-5.0)
    pr.add_argument("--theta-max", type=_finite, default=5.0)
    pr.add_argument("--theta-steps", type=_series_length, default=21)
    pr.set_defaults(func=_cmd_classify_roc)

    p = sub.add_parser("topics", help="surprise-weight keywords and convergence")
    tsub = p.add_subparsers(dest="subcommand", required=True)
    te = tsub.add_parser("extract")
    _add_corpus_args(te, meta=False)
    _add_text_args(te)
    te.add_argument("--course", required=True)
    te.add_argument("--background", default=None, help="comma-separated background course ids")
    te.add_argument("--k", type=_positive_int, default=50)
    te.add_argument("--warmup-days", type=_positive_int, default=10)
    te.set_defaults(func=_cmd_topics_extract)
    tc = tsub.add_parser("converge")
    _add_corpus_args(tc, meta=False)
    _add_text_args(tc)
    tc.add_argument("--course", required=True)
    tc.add_argument("--background", default=None)
    tc.add_argument("--k", type=_positive_int, default=50)
    tc.add_argument("--max-days", type=_series_length, default=None)
    tc.set_defaults(func=_cmd_topics_converge)

    p = sub.add_parser("rank", help="rank query-period threads")
    _add_corpus_args(p, meta=False)
    _add_text_args(p, _RANK_STAFF_HELP)
    p.add_argument("--course", required=True)
    p.add_argument("--algo", choices=["topical", "tfidf", "hits"], default="topical")
    p.add_argument("--warmup", type=_positive_int, default=12)
    p.add_argument("--query", type=_positive_int, default=2)
    p.add_argument("--k", type=int, default=15, help="refused: rank writes every thread; manifests keep k")
    p.add_argument("--alpha", type=_fraction, default=0.96)
    p.add_argument("--keyword-k", type=_positive_int, default=50)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("compare", help="top-k differences against the baselines")
    _add_corpus_args(p, meta=False)
    _add_text_args(p, _RANK_STAFF_HELP)
    p.add_argument("--course", required=True)
    p.add_argument("--k", type=_positive_int, default=15)
    p.add_argument("--alpha", type=_fraction, default=0.96)
    p.add_argument("--keyword-k", type=_positive_int, default=50)
    p.add_argument("--query", type=_positive_int, default=2)
    p.add_argument("--low", type=_positive_int, default=10)
    p.add_argument("--high", type=int, default=30, help="last warm-up day sampled; at least --low")
    p.add_argument("--extra-days", type=_series_days, default=5)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("stats", help="activity statistics pipelines")
    ssub = p.add_subparsers(dest="subcommand", required=True)
    for name, func in [("series", _cmd_stats_series), ("trend", _cmd_stats_trend)]:
        ps = ssub.add_parser(name)
        _add_corpus_args(ps)
        ps.set_defaults(func=func)
    pp = ssub.add_parser("panel")
    _add_corpus_args(pp)
    pp.add_argument("--target", choices=[t.value for t in PanelTarget], default="y")
    pp.add_argument("--scale-staff", type=_positive_float, default=100.0)
    pp.set_defaults(func=_cmd_stats_panel)
    psh = ssub.add_parser("shapiro")
    _add_corpus_args(psh)
    psh.add_argument("--trim", type=_trim_fraction, default=0.03)
    psh.set_defaults(func=_cmd_stats_shapiro)
    ptt = ssub.add_parser("ttest")
    _add_corpus_args(ptt)
    ptt.add_argument("--t-days", type=_positive_float, default=1.0)
    ptt.add_argument("--threshold", type=_finite, default=140.0)
    ptt.set_defaults(func=_cmd_stats_ttest)
    pma = ssub.add_parser("moving-avg")
    _add_corpus_args(pma)
    _add_text_args(pma)
    pma.add_argument("--alpha-ma", type=_fraction, default=0.99)
    pma.add_argument("--denominator", choices=["printed", "timealigned"], default="printed")
    pma.add_argument("--model", default=None, help="classifier model for unlabeled threads")
    pma.add_argument("--max-days", type=_positive_int, default=35,
                     help="count a thread when created_at - start_date <= max_days * 86400: the thread "
                          "at exactly that second (day max_days + 1) counts, and so do threads before the start")
    pma.set_defaults(func=_cmd_stats_moving_avg)

    return parser


def _all_parsers(parser) -> list[argparse.ArgumentParser]:
    out = []
    stack = [parser]
    while stack:
        current = stack.pop()
        out.append(current)
        for action in current._actions:
            if isinstance(action, argparse._SubParsersAction):
                stack.extend(action.choices.values())
    return out


def _dests(parser) -> set[str]:
    return {a.dest for a in parser._actions if a.option_strings and a.dest not in ("help", "config")}


def _config_default(action, value, default):
    """A config value as the value of one unset flag, read the way the flag's text is read."""
    if action.nargs == 0:  # a switch such as --exclude-staff
        if isinstance(value, bool):
            return value
    elif value is None:
        if default is None:
            return None
    elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
        try:
            text = value if isinstance(value, str) else json.dumps(value)
            if "\0" in text:  # a command line holds no NUL byte ...
                raise ValueError(text)
            os.fsencode(text)  # ... and no character the file system cannot encode
            converted = action.type(text) if action.type else text
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            pass
        else:
            if action.choices is None or converted in action.choices:
                return converted
    raise ConfigError(f"config key {action.dest!r} cannot take the value {value!r}")


def _load_config(parser, path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or not JSON
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(config).difference(*map(_dests, _all_parsers(parser)))
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return config


# The flags that a path never reads, a path being the command and, where it picks one,
# the algorithm or (stats moving-avg) the model.  --seed is read only by gen and compare.
_UNREAD = {
    "rank --algo topical": ("--k",),
    "rank --algo tfidf": ("--alpha", "--keyword-k", "--exclude-staff", "--k"),
    "rank --algo hits": ("--alpha", "--keyword-k", "--exclude-staff", "--stopwords", "--k"),
    "classify train --algo nb": ("--lambda", "--epochs"),
    "classify train --algo svm": ("--mode", "--pseudocount"),
    "stats moving-avg without --model": ("--stopwords", "--exclude-staff"),
}


def _unread(path: str) -> tuple[str, ...]:
    return _UNREAD.get(path, ()) + (() if path in ("gen", "compare") else ("--seed",))


def _resolve(parser, argv) -> argparse.Namespace:
    """Parse ``argv``, fill every flag it left unset, then refuse a given flag the path never reads."""
    defaults = {}
    for sub in _all_parsers(parser):
        for action in sub._actions:
            if action.option_strings and action.default is not argparse.SUPPRESS:
                defaults[action], action.default = action.default, argparse.SUPPRESS
    args = parser.parse_args(argv)
    given = set(vars(args))
    config = _load_config(parser, args.config) if "config" in given else {}
    chain = [parser]  # the parsers that read argv: the top level, the command and any subcommand
    for current in chain:
        chain.extend(a.choices[getattr(args, a.dest)] for a in current._actions
                     if isinstance(a, argparse._SubParsersAction))
    options = [a for p in chain for a in p._actions if a in defaults]
    for action in options:
        if action.dest not in given:
            value = defaults[action]
            if action.dest in config:
                value = _config_default(action, config[action.dest], value)
            setattr(args, action.dest, value)
    path = chain[-1].prog.split(" ", 1)[1] + (f" --algo {args.algo}" if "algo" in args else "")
    path += " without --model" if "model" in args and not args.model else ""  # stats moving-avg
    for action in options:
        if action.dest in given and action.option_strings[0] in _unread(path):
            raise ConfigError(f"{action.option_strings[0]} is not read by {path}")
    return args


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        try:
            args = _resolve(build_parser(), argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        digests = {args.threads: _sha256(args.threads)} if hasattr(args, "threads") else {}
        corpus = _load_corpus(args, digests[args.threads]) if digests else None
        manifest = json.dumps(_manifest(args, digests), sort_keys=True, indent=2)
        artifacts = args.func(args, corpus)
        for name in artifacts:
            if not _plain_file_name(name):
                raise InvariantViolation("artifact", f"{name!r} does not name one file under --out")
        _publish(args.out, {**artifacts, "manifest.json": partial(_write_text, manifest)})
        return 0
    except ConfigError as exc:
        _emit_error(exc)
        return 2
    except OSError as exc:  # a path that is missing, unreadable or not a file
        _emit_error(ConfigError(str(exc)))
        return 2
    except UnicodeDecodeError as exc:
        _emit_error(ParseError(0, f"input is not UTF-8 text: {exc.reason} at byte {exc.start}"))
        return 3
    except (RankDeficient, FloatingPointError, np.linalg.LinAlgError) as exc:
        _emit_error(exc)
        return 4
    except ForumlensError as exc:  # every other toolkit error is about the data
        _emit_error(exc)
        return 3


def _publish(out: str, writers: dict) -> None:
    """Write each file into a new directory beside ``out``, then move them all into ``out``.

    A missing ``out`` becomes that directory; in an existing one each written
    name replaces its file, ``manifest.json`` last, and other items stay.  A
    failed write leaves ``out`` as it was.
    """
    parent = base = os.path.dirname(os.path.abspath(out))
    while not os.path.isdir(base):  # stage in the nearest existing directory: the same file system
        base = os.path.dirname(base)
    staged = tempfile.mkdtemp(prefix=".forumlens-", dir=base)
    try:
        for name, write in writers.items():
            write(os.path.join(staged, name))
        if not os.path.isdir(out):
            os.makedirs(parent, exist_ok=True)
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(staged, 0o777 & ~umask)  # as os.makedirs would make it; mkdtemp makes 0700
            os.rename(staged, out)
            return
        for name in writers:
            target = os.path.join(out, name)
            if os.path.lexists(target) and not stat.S_ISREG(os.lstat(target).st_mode):
                raise ConfigError(f"{target} is in the way: it exists and is not a regular file")
        for name in writers:
            os.replace(os.path.join(staged, name), os.path.join(out, name))
    finally:
        shutil.rmtree(staged, ignore_errors=True)


def _emit_error(exc) -> None:
    obj = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(obj, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
