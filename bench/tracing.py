"""Outside-in tracing: spans around calls into forumlens's layers.

No file of the program changes.  `Tracer.install` rebinds the public names
that each module imported from another (``thread_tokens`` inside ``cli``,
``classify``, ``topics`` and ``ranking``; ``UnigramModel.from_counts``; the
pipeline entry points inside ``cli``) to wrappers that record a span per
call: (name, start, end, parent) in memory, written out when the process
ends.  Counts that drive cost are taken at the same boundaries.

A layer's self time is its spans' durations minus the time their child spans
cover.  Counting work that is not trivially cheap (distinct users of a HITS
window, the SVM vocabulary) runs inside a ``trace.bookkeeping`` span, so it
is charged to the tracer and not to the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

ROOT_SPAN = "cli.main"
BOOKKEEPING = "trace.bookkeeping"


def _size(path) -> int:
    return os.path.getsize(path) if path else 0


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# --- counters: (tracer, fn, args, kwargs, result) -> None --------------------


def _count_parse(tr, fn, args, kwargs, corpus):
    tr.counts["corpus.parse_calls"] += 1
    tr.counts["corpus.posts_parsed"] += corpus.num_posts
    tr.counts["corpus.bytes_read"] += _size(args[0])


def _count_meta(tr, fn, args, kwargs, corpus):
    tr.counts["corpus.bytes_read"] += _size(args[1])


def _count_serialize(tr, fn, args, kwargs, _):
    tr.counts["corpus.bytes_written"] += _size(args[1])


def _count_sample(tr, fn, args, kwargs, _):
    a = _bound(fn, args, kwargs)
    spec, counts = a["spec"], a["threads_per_course"]
    tr.counts["genmodel.tokens_sampled"] += sum(spec.thread_length(i) * n for i, n in enumerate(counts))


def _count_tokens(tr, fn, args, kwargs, tokens):
    tr.counts["corpus.tokenize_calls"] += 1
    tr.counts["corpus.tokens"] += len(tokens)
    tr.command_threads.add(id(args[0]))


def _count_docs(tr, fn, args, kwargs, docs):
    tr.counts["classify.docs"] += len(docs)


def _count_nb(tr, fn, args, kwargs, model):
    models = model.values() if isinstance(model, dict) else [model]
    tr.maxima["classify.vocab_size"] = max(tr.maxima["classify.vocab_size"], *(len(m.vocab) for m in models))


def _count_svm(tr, fn, args, kwargs, _):
    a = _bound(fn, args, kwargs)
    docs = a["docs"]
    vocab = a["vocab"]
    size = len(set(vocab)) if vocab is not None else len({w for tokens, _ in docs for w in tokens})
    steps = a["epochs"] * len(docs)
    tr.counts["classify.svm_steps"] += steps
    tr.counts["classify.svm_dense_cells"] += steps * size
    tr.maxima["classify.vocab_size"] = max(tr.maxima["classify.vocab_size"], size)


def _count_extract(tr, fn, args, kwargs, _):
    tr.counts["topics.extract_calls"] += 1


def _count_converge(tr, fn, args, kwargs, points):
    tr.counts["topics.converge_days"] += points[-1].day if points else 0


def _count_unigram(tr, fn, args, kwargs, _):
    tr.counts["corpus.unigram_builds"] += 1


def _count_hits(tr, fn, args, kwargs, ranked):
    window = _bound(fn, args, kwargs)["window_threads"]
    users = len({u for t in window for u in t.participants})
    tr.counts["ranking.hits_calls"] += 1
    tr.counts["ranking.hits_adj_cells"] += users * len(window)
    tr.counts["ranking.hits_edges"] += sum(len(t.participants) for t in window)
    tr.counts["ranking.hits_unconverged"] += 0 if ranked.converged else 1


def _count_two_sample(tr, fn, args, kwargs, result):
    tr.counts["stats.mw_exact_calls"] += 1 if result.u_method == "exact" else 0


def _count_panel(tr, fn, args, kwargs, fit):
    tr.counts["stats.panel_rows"] += fit.n_obs


def _count_hashed(tr, fn, args, kwargs, _):
    tr.counts["cli.bytes_hashed"] += _size(args[0])


# (module or module:Class, attribute, span name or None for count-only,
#  counter, whether the counter is costly)
TARGETS = [
    ("forumlens.cli", "ingest_corpus", "corpus.parse", _count_parse, True),
    ("forumlens.cli", "attach_metadata", "corpus.parse", _count_meta, False),
    ("forumlens.cli", "serialize_corpus", "corpus.serialize", _count_serialize, False),
    ("forumgen", "serialize_corpus", "corpus.serialize", _count_serialize, False),
    ("forumlens.cli", "thread_tokens", "corpus.tokenize", _count_tokens, False),
    ("forumlens.classify", "thread_tokens", "corpus.tokenize", _count_tokens, False),
    ("forumlens.topics", "thread_tokens", "corpus.tokenize", _count_tokens, False),
    ("forumlens.ranking", "thread_tokens", "corpus.tokenize", _count_tokens, False),
    ("forumlens.cli", "sample_corpus", "genmodel.sample", _count_sample, False),
    ("forumlens.cli", "labeled_docs", "classify.labeled_docs", _count_docs, False),
    ("forumlens.classify", "labeled_docs", "classify.labeled_docs", _count_docs, False),
    ("forumlens.cli", "train_nb", "classify.train_nb", _count_nb, False),
    ("forumlens.cli", "train_svm", "classify.train_svm", _count_svm, True),
    ("forumlens.cli", "evaluate", "classify.evaluate", None, False),
    ("forumlens.cli", "roc_sweep", "classify.roc_sweep", None, False),
    ("forumlens.cli", "predict_nb", "classify.predict", None, False),
    ("forumlens.classify", "predict_nb", "classify.predict", None, False),
    ("forumlens.classify:SvmModel", "score", "classify.predict", None, False),
    ("forumlens.cli", "extract_keywords", "topics.extract", _count_extract, False),
    ("forumlens.cli", "convergence_series", "topics.converge", _count_converge, False),
    ("forumlens.topics", "surprise_weights", "topics.surprise_weights", None, False),
    ("forumlens.corpus:UnigramModel", "from_counts", "corpus.unigram_build", _count_unigram, False),
    ("forumlens.cli", "topical_rank", "ranking.topical", None, False),
    ("forumlens.cli", "tfidf_rank", "ranking.tfidf", None, False),
    ("forumlens.cli", "hits_rank", "ranking.hits", _count_hits, True),
    ("forumlens.cli", "build_series", "stats.build_series", None, False),
    ("forumlens.cli", "neighborhood_counts", "stats.neighborhood", None, False),
    ("forumlens.cli", "shapiro_wilk", "stats.shapiro", None, False),
    ("forumlens.cli", "two_sample_tests", "stats.two_sample", _count_two_sample, False),
    ("forumlens.cli", "fit_panel_ols", "stats.panel", _count_panel, False),
    ("forumlens.cli", "smalltalk_moving_average", "stats.moving_avg", None, False),
    # Manifest hashing stays in cli's self time: count it, record no span.
    ("forumlens.cli", "_sha256", None, _count_hashed, False),
]

# Every per-layer time the tracer reports: "<span name>_s" is the summed self
# time of that span name ("cli.self_s" for the root span).
SPAN_METRICS = sorted({name for _, _, name, _, _ in TARGETS if name} | {ROOT_SPAN})
COUNT_METRICS = [
    "corpus.parse_calls", "corpus.posts_parsed", "corpus.bytes_read", "corpus.tokenize_calls",
    "corpus.tokens", "corpus.unigram_builds", "corpus.bytes_written", "genmodel.tokens_sampled",
    "classify.docs", "classify.svm_steps", "classify.svm_dense_cells", "topics.extract_calls",
    "topics.converge_days", "ranking.hits_calls", "ranking.hits_adj_cells", "ranking.hits_edges",
    "ranking.hits_unconverged", "stats.panel_rows", "stats.mw_exact_calls", "cli.commands",
    "cli.bytes_hashed",
]


def _resolve(owner: str):
    """The module (or ``module:Class``) named; None if that module is not loaded."""
    module_name, _, class_name = owner.partition(":")
    module = sys.modules.get(module_name)
    if module is None or not class_name:
        return module
    return getattr(module, class_name)


class Tracer:
    """Spans and counts for one process; one process runs one unit of work."""

    def __init__(self, unit: str):
        self.unit = unit
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.command_threads: set[int] = set()
        self.distinct_threads = 0

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.spans)
        self.spans.append([nid, 0.0, 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, start: float, end: float) -> None:
        self.stack.pop()
        span = self.spans[idx]
        span[1] = start
        span[2] = end

    def span(self, name: str, fn, *args, **kwargs):
        idx = self._open(name)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx, start, perf_counter())

    def run_command(self, main, argv):
        """Run one CLI command as a root span; per-command counts close with it."""
        self.command_threads = set()
        try:
            return self.span(ROOT_SPAN, main, argv)
        finally:
            self.counts["cli.commands"] += 1
            self.distinct_threads += len(self.command_threads)

    def _wrap(self, fn, name, counter, costly):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                result = tracer.span(name, fn, *args, **kwargs)
            if counter is not None:
                if costly:
                    tracer.span(BOOKKEEPING, counter, tracer, fn, args, kwargs, result)
                else:
                    counter(tracer, fn, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for owner_name, attr, name, counter, costly in TARGETS:
            owner = _resolve(owner_name)
            if owner is None:
                continue
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(raw.__func__, name, counter, costly)))
            else:
                setattr(owner, attr, self._wrap(raw, name, counter, costly))

    # -- output ------------------------------------------------------------

    def dump(self) -> dict:
        return {
            "unit": self.unit,
            "names": self.names,
            "spans": self.spans,
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "distinct_threads": self.distinct_threads,
        }


def self_times(dump: dict) -> dict[str, float]:
    """Summed self time per span name: duration minus child-span coverage."""
    spans = dump["spans"]
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (nid, start, end, _) in enumerate(spans):
        out[dump["names"][nid]] += end - start - child[i]
    return out


def _metric(span_name: str) -> str:
    return "cli.self_s" if span_name == ROOT_SPAN else f"{span_name}_s"


def layer_metrics(dumps: list[dict]) -> dict[str, float]:
    """Per-layer figures for one unit of work (a pass or a set-up) from its dumps."""
    selfs: dict[str, float] = defaultdict(float)
    counts: Counter = Counter()
    maxima: Counter = Counter()
    distinct = 0
    for d in dumps:
        for name, value in self_times(d).items():
            selfs[name] += value
        counts.update(d["counts"])
        for name, value in d["maxima"].items():
            maxima[name] = max(maxima[name], value)
        distinct += d["distinct_threads"]
    out = {_metric(name): selfs.get(name, 0.0) for name in SPAN_METRICS}
    out[f"{BOOKKEEPING}_s"] = selfs.get(BOOKKEEPING, 0.0)
    out.update({name: counts.get(name, 0) for name in COUNT_METRICS})
    out["classify.vocab_size"] = maxima.get("classify.vocab_size", 0)
    out["corpus.tokenize_per_thread"] = counts["corpus.tokenize_calls"] / distinct if distinct else 0.0
    cells = counts["ranking.hits_adj_cells"]
    out["ranking.hits_density"] = counts["ranking.hits_edges"] / cells if cells else 0.0
    out["trace.spans"] = sum(len(d["spans"]) for d in dumps)
    return out
