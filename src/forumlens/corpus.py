"""Data model, ingestion, tokenization and empirical unigram distributions.

Every value defined here but a ``TokenTable`` (a growing cache of token ids,
which ``cli.main`` keeps with the corpus it parsed) is immutable after
construction, and every other operation is pure.

Day indexing convention: timestamps are integer UTC seconds and the day index
of a timestamp ``ts`` within a course is ``floor((ts - start_date) / 86400) + 1``,
i.e. 1-based with day 1 starting at ``start_date``.

Column layout: a course keeps its threads in ``Course.columns``, a
``ThreadColumns`` of parallel arrays.  Per post there is an int64 timestamp,
an int32 author code into ``author_names``, a bool staff flag and the
``post_id`` and ``text`` strings; per thread there is the ``thread_id``, an
int64 ``created_at``, the label and an offset into the post arrays.
Each course's columns are filled by one builder, a thread at a time:
``ingest_corpus`` parses each line into it, running every check that ``Post``
and ``Thread`` run; ``genmodel.sample_corpus`` samples threads a block at a
time and adds each one, which meets those checks by construction;
a course built from ``Thread`` objects feeds them to it.  The courses of one
parse share their author codes.  ``Course.threads`` of a parsed or sampled
course is built from the columns on first use, through the checking
constructors, and kept on them.  No command reads it: course equality and
``repr``, the stats, ``serialize_corpus``, the text pipelines (rows through
``TokenTable``) and HITS (author codes) read the columns; it and
``serialize_corpus`` build each thread's posts through ``ThreadColumns.records``.
The metadata CSV's factor columns are ``_FACTOR_COLUMNS``, which
``write_metadata_csv`` writes and ``attach_metadata`` reads.

Tokenization: text is read through a ``TokenTable`` that every pipeline
shares (keywords, ranking and the classifiers), and ``cli.main`` shares one
per text view between the commands on one corpus.  It reads thread rows
straight from the columns through ``split_words``, and has one read form:
``ids`` splits a thread row once and keeps its ids, and ``counts`` totals
the ids of a course's rows through ``id_counts``; so a thread is split at
most once while the table lives, whichever pipelines read it.  All four
text scores (topical and tf-idf ranking, naive Bayes, the SVM) sum their
terms over token-id rows through one kernel here: ``token_sums`` (a weight
per token) or ``term_sums`` (count times weight per distinct id).

Two decoding passes: ``ingest_corpus`` first decodes each line with ``orjson``,
which takes about half of ``json.loads``'s time.  Where it decodes a line, its
value equals ``json.loads``'s, except that an integer outside [-2**63, 2**64)
comes back as a float, and every field the parser reads refuses a float.  If
that pass raises any toolkit error, the file is parsed again with
``json.loads``, which decides: it reads what only ``json`` decodes (NaN,
Infinity, lone surrogate escapes, and integers past 64 bits as integers) and
words every refusal.  ``orjson`` also reads values nested deeper than
``json``'s recursion limit, so such a value under a key the parser does not
read is accepted.

One writer: ``serialize_corpus`` lays out the text that
``json.dumps(thread, sort_keys=True)`` would write, without building the
dicts.  Each post is ``{"author_id": …, "is_staff": …, "post_id": …,
"text": …, "timestamp": …}``, made by the ``make_post`` it hands to
``ThreadColumns.records``; each line is ``{"course_id": …, "created_at": …,
"label": …, "posts": [posts joined by ", "], "thread_id": …}``.  Keys come in
sorted order with ``json``'s ``", "`` and ``": "`` separators, every string
goes through ``json.encoder.encode_basestring_ascii`` (the escaper of
``json.dumps``'s default ``ensure_ascii=True``), integers through ``int``'s
repr and the staff flag as ``true``/``false``; so ``json`` still decides the
bytes.  ``tests/corpus_oracle.serialize_corpus`` calls ``json.dumps`` itself.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import operator
import re
from collections import Counter
from dataclasses import astuple, dataclass, field, fields
from enum import Enum
from functools import cached_property, lru_cache
from importlib import resources
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np
import orjson

from .errors import ConfigError, EmptyCorpus, ForumlensError, InvariantViolation, ParseError

SECONDS_PER_DAY = 86400

# Unicode alphanumeric runs; underscore is excluded because it is not
# alphanumeric.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# On lowercase ASCII text the runs above are exactly the runs of [a-z0-9], so
# mapping every other byte to a space and splitting finds the same tokens.
_ASCII_ALNUM = b"0123456789abcdefghijklmnopqrstuvwxyz"
_ASCII_TOKEN_TABLE = bytes(c if c in _ASCII_ALNUM else 0x20 for c in range(256))


class ThreadLabel(Enum):
    SMALL_TALK = "SmallTalk"
    LOGISTICS = "Logistics"
    COURSE_SPECIFIC = "CourseSpecific"
    UNLABELED = "Unlabeled"


class CourseCategory(Enum):
    VOCATIONAL = "Vocational"
    APPLIED_SCIENCE = "AppliedScience"
    HUMANITIES_SOCIAL = "HumanitiesSocial"

    @classmethod
    def from_flags(cls, quantitative: int, vocational: int) -> "CourseCategory":
        """Partition rule: vocational wins, then quantitative, else the rest."""
        if vocational:
            return cls.VOCATIONAL
        if quantitative:
            return cls.APPLIED_SCIENCE
        return cls.HUMANITIES_SOCIAL


def day_index(timestamp: int, start_date: int) -> int:
    """1-based day index of a timestamp relative to a course start."""
    return (timestamp - start_date) // SECONDS_PER_DAY + 1


def day_indices(timestamps: np.ndarray, start_date: int) -> np.ndarray:
    """``day_index`` of every int64 timestamp, for any integer ``start_date``.

    Exact wherever the day lies within +-2**51, which every series that fits in
    memory does; a day further out stays further out, on the same side.
    """
    # (ts - start) // day, split so that no int64 step overflows: ts // day < 2**47
    q, r = divmod(start_date, SECONDS_PER_DAY)
    q = min(max(q, -(2**52)), 2**52)
    return timestamps // SECONDS_PER_DAY - q + 1 - (timestamps % SECONDS_PER_DAY < r)


def _first_duplicate(ids: Iterable[str]) -> str | None:
    """The first listed id that occurs more than once, or None."""
    return next((i for i, n in Counter(ids).items() if n > 1), None)


# timestamps are stored as int64
_TIMESTAMP_END = 2**63


def _check_post(post_id: str, timestamp: int) -> None:
    if timestamp < 0:
        raise InvariantViolation(post_id, "timestamp must be >= 0")
    if timestamp >= _TIMESTAMP_END:
        raise InvariantViolation(post_id, "timestamp must be < 2**63")


def _check_thread(thread_id: str, created_at: int, times: Sequence[int], ids: Sequence[str]) -> None:
    """The invariants of a thread whose posts have these timestamps and ids, in order."""
    if not times:
        raise InvariantViolation(thread_id, "thread has no posts")
    if times != sorted(times):
        raise InvariantViolation(thread_id, "posts not sorted by timestamp")
    if len(set(ids)) != len(ids):
        raise InvariantViolation(thread_id, "duplicate post ids")
    if created_at != times[0]:
        raise InvariantViolation(thread_id, "created_at differs from first post timestamp")


@dataclass(frozen=True, slots=True)
class Post:
    post_id: str
    author_id: str
    timestamp: int
    text: str
    is_staff: bool = False

    def __post_init__(self):
        _check_post(self.post_id, self.timestamp)


@dataclass(frozen=True, slots=True)
class Thread:
    thread_id: str
    created_at: int
    posts: tuple[Post, ...]
    label: ThreadLabel = ThreadLabel.UNLABELED

    def __post_init__(self):
        times = [p.timestamp for p in self.posts]
        _check_thread(self.thread_id, self.created_at, times, [p.post_id for p in self.posts])

    @property
    def length(self) -> int:
        """Number of posts (comments are flattened into posts upstream)."""
        return len(self.posts)

    @property
    def participants(self) -> frozenset[str]:
        return frozenset(p.author_id for p in self.posts)


@dataclass(frozen=True, eq=False)
class ThreadColumns:
    """Threads and their posts as parallel columns, in thread order.

    Thread ``i`` owns post rows ``offsets[i]:offsets[i + 1]``.  ``authors``
    holds codes into ``author_names``; the courses of one parsed corpus share
    that list.
    """

    thread_ids: list[str]
    created_at: np.ndarray  # int64 per thread
    labels: list[ThreadLabel]
    offsets: np.ndarray  # int64, one more than there are threads
    post_ids: list[str]
    authors: np.ndarray  # int32 per post
    author_names: list[str]
    timestamps: np.ndarray  # int64 per post
    texts: list[str]
    is_staff: np.ndarray  # bool per post

    @classmethod
    def of(cls, threads: Iterable[Thread]) -> "ThreadColumns":
        """Columns over ``threads``, in order, with author codes of their own; they keep ``threads``."""
        threads = tuple(threads)
        builder = _ColumnBuilder({})
        for t in threads:
            for p in t.posts:
                builder.add_post(p.post_id, p.author_id, p.timestamp, p.text, p.is_staff)
            builder.end_thread(t.thread_id, t.created_at, t.label)
        columns = builder.build(list(builder.codes))
        columns.__dict__["threads"] = threads  # what the cached property would build
        return columns

    @property
    def lengths(self) -> np.ndarray:
        """Posts per thread."""
        return np.diff(self.offsets)

    def records(self, make_post: Callable) -> Iterator[tuple[str, int, ThreadLabel, list]]:
        """``(thread_id, created_at, label, posts)`` per thread; a post is ``make_post(**Post's fields)``."""
        names, ends = self.author_names, self.offsets.tolist()
        rows = zip(self.post_ids, self.authors.tolist(), self.timestamps.tolist(), self.texts,
                   self.is_staff.tolist())
        posts = [make_post(post_id=pid, author_id=names[a], timestamp=ts, text=text, is_staff=staff)
                 for pid, a, ts, text, staff in rows]
        threads = zip(self.thread_ids, self.created_at.tolist(), self.labels, ends, ends[1:])
        for tid, created, label, a, b in threads:
            yield tid, created, label, posts[a:b]

    @cached_property
    def threads(self) -> tuple[Thread, ...]:
        """``Thread`` objects over these rows, built by the checking constructors on first use."""
        return tuple(Thread(tid, created, tuple(posts), label)
                     for tid, created, label, posts in self.records(Post))


@dataclass(frozen=True, eq=False)
class ThreadRows:
    """Some threads of one ``ThreadColumns``, by thread row; as a sequence, those rows' ``Thread`` objects."""

    columns: ThreadColumns
    rows: np.ndarray  # intp

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Thread]:
        threads = self.columns.threads
        return (threads[r] for r in self.rows.tolist())

    @classmethod
    def of(cls, threads: Sequence[Thread]) -> "ThreadRows":
        """``threads`` as every row of columns of their own."""
        return cls(ThreadColumns.of(threads), np.arange(len(threads)))

    @property
    def thread_ids(self) -> list[str]:
        """The rows' thread ids, in order."""
        ids = self.columns.thread_ids
        return [ids[r] for r in self.rows.tolist()]


class _ColumnBuilder:
    """One course's columns as lists, filled one thread at a time.

    ``add_post`` each post of a thread, then ``end_thread``.  Author codes come
    from ``codes``, which the builders of one parse share.
    """

    def __init__(self, codes: dict[str, int]):
        self.codes = codes
        self.thread_ids, self.created_at, self.labels, self.offsets = [], [], [], [0]
        self.post_ids, self.authors, self.timestamps, self.texts, self.is_staff = [], [], [], [], []

    def add_post(self, post_id: str, author_id: str, timestamp: int, text: str, is_staff: bool) -> None:
        self.post_ids.append(post_id)
        self.authors.append(self.codes.setdefault(author_id, len(self.codes)))
        self.timestamps.append(timestamp)
        self.texts.append(text)
        self.is_staff.append(is_staff)

    def end_thread(self, thread_id: str, created_at: int, label: ThreadLabel) -> None:
        """Close a thread over the posts added since the last one."""
        self.thread_ids.append(thread_id)
        self.created_at.append(created_at)
        self.labels.append(label)
        self.offsets.append(len(self.timestamps))

    def build(self, author_names: list[str]) -> ThreadColumns:
        """The columns, their arrays read-only: commands of one process may share a parsed corpus."""
        arrays = {name: np.array(getattr(self, name), dtype=dtype) for name, dtype in
                  (("created_at", np.int64), ("offsets", np.int64), ("authors", np.int32),
                   ("timestamps", np.int64), ("is_staff", bool))}
        for array in arrays.values():
            array.flags.writeable = False
        return ThreadColumns(thread_ids=self.thread_ids, labels=self.labels, post_ids=self.post_ids,
                             author_names=author_names, texts=self.texts, **arrays)


def _finite(value) -> bool:
    """Whether the real number ``value`` is finite as a float: an integer past the float range is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


# The most rows a day or step series may have: a course's duration_days (the
# metadata's D, one series row per day), topics converge --max-days, classify
# roc --theta-steps and compare --extra-days.  Convergence takes about 1 ms a
# day over a 5,000-word vocabulary on a 2-vCPU host, so its longest series
# takes about 100 s.
MAX_SERIES_ROWS = 100_000


@dataclass(frozen=True)
class CourseFactors:
    """Per-course regressors for the activity models.

    ``staff_posts`` is kept in raw post counts; the panel regression rescales
    it (see stats.fit_panel_ols).  Every factor is >= 0 and finite as a float,
    and ``duration_days`` is at most MAX_SERIES_ROWS.
    """

    quantitative: int
    vocational: int
    video_hours: float
    duration_days: int
    peer_graded: int
    staff_posts: int
    graded_homework: int

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (value >= 0 and _finite(value)):
                raise InvariantViolation("factors", f"{f.name} must be finite and >= 0")
        if self.duration_days > MAX_SERIES_ROWS:
            raise InvariantViolation("factors", f"duration_days must be at most {MAX_SERIES_ROWS}")


# the metadata CSV's factor columns, in CourseFactors field order, each with its converter
_FACTOR_COLUMNS = (("Q", int), ("V", int), ("L", float), ("D", int), ("P", int), ("S", int), ("H", int))


class Course:
    """One course's threads, start date, factors and category.

    The threads live in ``columns``, and ``threads`` reads their
    ``ThreadColumns.threads``: a course built from ``Thread`` objects keeps
    them; a parsed or sampled one builds them on first use.
    """

    def __init__(
        self,
        course_id: str,
        start_date: int,
        threads: Sequence[Thread],
        factors: CourseFactors | None = None,
        category: CourseCategory = CourseCategory.HUMANITIES_SOCIAL,
    ):
        self._fill(course_id, start_date, ThreadColumns.of(threads), factors, category)

    @classmethod
    def _from_columns(cls, course_id, start_date, columns, factors=None,
                      category=CourseCategory.HUMANITIES_SOCIAL) -> "Course":
        """A course over ``columns``, whose rows passed the post and thread checks."""
        course = cls.__new__(cls)
        course._fill(course_id, start_date, columns, factors, category)
        return course

    def _fill(self, course_id, start_date, columns, factors, category) -> None:
        self.__dict__.update(course_id=course_id, start_date=start_date, columns=columns, factors=factors,
                             category=category)
        if not _finite(start_date):  # day_indices takes any integer, stats moving-avg a float of elapsed time
            raise InvariantViolation(course_id, "start_date must be finite as a float")
        dup = _first_duplicate(columns.thread_ids)
        if dup is not None:
            raise InvariantViolation(course_id, f"duplicate thread id {dup!r}")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Course")

    @property
    def threads(self) -> tuple[Thread, ...]:
        return self.columns.threads

    @property
    def num_threads(self) -> int:
        return len(self.columns.thread_ids)

    @property
    def num_posts(self) -> int:
        return len(self.columns.timestamps)

    def _key(self) -> tuple:
        c = self.columns  # codes differ between parses, so authors compare by name
        return (self.course_id, self.start_date, c.thread_ids, c.created_at.tolist(), c.labels,
                c.offsets.tolist(), c.post_ids, [c.author_names[a] for a in c.authors.tolist()],
                c.timestamps.tolist(), c.texts, c.is_staff.tolist(), self.factors, self.category)

    def __eq__(self, other):
        if not isinstance(other, Course):
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        return (f"Course(course_id={self.course_id!r}, start_date={self.start_date!r}, "
                f"num_threads={self.num_threads}, num_posts={self.num_posts}, factors={self.factors!r}, "
                f"category={self.category!r})")


@dataclass(frozen=True)
class Corpus:
    courses: tuple[Course, ...]

    def __post_init__(self):
        dup = _first_duplicate(c.course_id for c in self.courses)
        if dup is not None:
            raise InvariantViolation("corpus", f"duplicate course id {dup!r}")

    @property
    def num_courses(self) -> int:
        return len(self.courses)

    @property
    def num_threads(self) -> int:
        return sum(c.num_threads for c in self.courses)

    @property
    def num_posts(self) -> int:
        return sum(c.num_posts for c in self.courses)

    def course(self, course_id: str) -> Course:
        for c in self.courses:
            if c.course_id == course_id:
                return c
        raise ConfigError(f"no course {course_id!r} in the corpus")


# ---------------------------------------------------------------------------
# Tokenization
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def default_stopwords() -> frozenset[str]:
    """Stopword list shipped with the package (one word per line)."""
    text = resources.files("forumlens").joinpath("data/stopwords.txt").read_text("utf-8")
    return frozenset(w.strip() for w in text.splitlines() if w.strip())


def load_stopwords(path) -> frozenset[str]:
    """One word per line, lowercased as ``tokenize`` lowercases text; a UTF-8 BOM is skipped."""
    with open(path, encoding="utf-8-sig") as fh:
        return frozenset(w.strip().lower() for w in fh if w.strip())


def split_words(text: str) -> list[str]:
    """``text`` lowercased and split on non-alphanumeric runs; nothing is dropped."""
    # _ASCII_TOKEN_TABLE maps lowered text, so test the lowered text (the Kelvin sign lowers to ASCII)
    text = text.lower()
    if text.isascii():
        return text.encode("ascii").translate(_ASCII_TOKEN_TABLE).decode("ascii").split()
    return _TOKEN_RE.findall(text)


def tokenize(text: str, stopwords: frozenset[str] | None = None) -> list[str]:
    """Lowercase, split on non-alphanumeric runs, drop stopwords and 1-char tokens."""
    if stopwords is None:
        stopwords = default_stopwords()
    return [tok for tok in split_words(text) if len(tok) >= 2 and tok not in stopwords]


def thread_tokens(
    thread: Thread,
    stopwords: frozenset[str] | None = None,
    include_staff: bool = True,
) -> list[str]:
    return tokenize(" ".join(p.text for p in thread.posts if include_staff or not p.is_staff), stopwords)


class TokenTable:
    """Thread rows of course columns as token ids, each tokenized on first access and kept
    while the table lives.

    A row's text is its posts' texts joined by spaces (staff posts left out
    unless ``include_staff``), cut into words by ``split_words``.  Each
    distinct word is tested once against the stopwords and the length limit:
    one map takes every word seen to its id, or to -1 for a dropped word.
    Tokens are stored in their original order as int32 ids into the table's
    vocabulary ``index``, which grows in order of first appearance.  Rows are
    kept per columns object (columns hash by identity), so the table holds
    each columns it has read; ``counts`` totals kept rows.  A table may serve
    many commands (``cli.main`` keeps one per text view with the corpus it
    parsed), so an id depends on what was read before: no result may depend
    on the numbering, and the pipelines break ties by word and sort their
    vocabularies.
    """

    def __init__(self, stopwords: frozenset[str] | None = None, include_staff: bool = True):
        self.stopwords = default_stopwords() if stopwords is None else stopwords
        self.include_staff = include_staff
        self.index: dict[str, int] = {}
        self._word_ids: dict[str, int] = {}
        self._rows: dict[ThreadColumns, dict[int, np.ndarray]] = {}

    def __len__(self) -> int:
        return len(self.index)

    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        """``tokens`` as int32 ids, none dropped; new words take the next ids, in order of appearance."""
        index = self.index
        try:
            ids = list(map(index.__getitem__, tokens))
        except KeyError:
            for w in tokens:
                index.setdefault(w, len(index))
            ids = list(map(index.__getitem__, tokens))
        return np.array(ids, dtype=np.int32)

    def ids(self, columns: ThreadColumns, row: int) -> np.ndarray:
        """Thread ``row`` of ``columns`` as token ids."""
        rows = self._rows.setdefault(columns, {})
        ids = rows.get(row)
        if ids is None:
            ids = rows[row] = self._tokenize(columns, row)
        return ids

    def _tokenize(self, columns: ThreadColumns, row: int) -> np.ndarray:
        """Thread ``row`` of ``columns`` read and tokenized: the table's one path from text to ids."""
        start, end = columns.offsets[row : row + 2].tolist()
        texts = columns.texts[start:end]
        if not self.include_staff:
            texts = [t for t, staff in zip(texts, columns.is_staff[start:end].tolist()) if not staff]
        words = split_words(" ".join(texts))
        word_ids = self._word_ids
        try:
            ids = np.fromiter(map(word_ids.__getitem__, words), np.int32, len(words))
        except KeyError:
            index, stopwords = self.index, self.stopwords
            for w in words:  # each unseen word, in order, takes the next id, or -1 if it is dropped
                if w not in word_ids:
                    word_ids[w] = -1 if len(w) < 2 or w in stopwords else index.setdefault(w, len(index))
            ids = np.fromiter(map(word_ids.__getitem__, words), np.int32, len(words))
        return ids[ids >= 0]

    def counts(self, *columns: ThreadColumns) -> np.ndarray:
        """Token counts by id (``len(self)`` entries) over the ``ids`` of every row of each of
        ``columns``, read columns by columns."""
        rows = [self.ids(c, row) for c in columns for row in range(len(c.thread_ids))]
        return id_counts(rows, len(self))


# ---------------------------------------------------------------------------
# Id rows in chunks
#
# A text score is taken over id rows, one per document, a chunk at a time.  A
# row sum starts each row at its lead term and adds the row's terms into it in
# place with np.add.at, which takes the entries one at a time in index order, so
# each sum equals sequential_sum over the row's terms bit for bit.
# ---------------------------------------------------------------------------

# tokens per chunk, unless the chunk is one row: bounds a chunk's ids and terms
_CHUNK_TOKENS = 1 << 14


class IdRows(NamedTuple):
    """Consecutive id rows as one array, each entry with its row."""

    rows: int
    row: np.ndarray
    ids: np.ndarray


def id_counts(rows: Sequence[np.ndarray], size: int) -> np.ndarray:
    """Token counts by id over the id ``rows``, ``size`` entries."""
    return np.bincount(np.concatenate([np.zeros(0, dtype=np.int32), *rows]), minlength=size)


def _chunks(rows: Sequence[np.ndarray]) -> Iterator[IdRows]:
    """``rows`` in consecutive chunks of at most _CHUNK_TOKENS tokens (or of one row)."""
    lengths = [len(r) for r in rows]
    starts, tokens = [0], 0
    for i, n in enumerate(lengths):
        if i > starts[-1] and tokens + n > _CHUNK_TOKENS:
            starts.append(i)
            tokens = 0
        tokens += n
    for start, end in zip(starts, starts[1:] + [len(rows)]) if rows else ():
        yield IdRows(end - start, np.repeat(np.arange(end - start), lengths[start:end]),
                     np.concatenate(rows[start:end]))


def _row_sums(lead: float, chunk: IdRows, terms: np.ndarray) -> np.ndarray:
    """Per row of ``chunk``, ``lead`` plus the row's ``terms`` (one per entry) added left to right."""
    sums = np.full(chunk.rows, lead, dtype=float)
    np.add.at(sums, chunk.row, terms)
    return sums


def _distinct(chunk: IdRows) -> tuple[IdRows, np.ndarray]:
    """Each row's distinct ids in order of first occurrence, and their counts."""
    key = chunk.row.astype(np.int64) * (int(chunk.ids.max(initial=0)) + 1) + chunk.ids
    _, first, counts = np.unique(key, return_index=True, return_counts=True)
    order = np.argsort(first)  # keys sort by row, then by id: back to first occurrences
    first = first[order]
    return IdRows(chunk.rows, chunk.row[first], chunk.ids[first]), counts[order]


def distinct_terms(rows: Sequence[np.ndarray]) -> Iterator[tuple[IdRows, np.ndarray]]:
    """Each id row's distinct ids and their counts, a chunk at a time; a chunk's sort keys are
    freed before the caller gets it, so they leave no holes between what the caller keeps."""
    return map(_distinct, _chunks(rows))


def token_sums(rows: Sequence[np.ndarray], weights: np.ndarray) -> np.ndarray:
    """Per id row, ``weights[id]`` for each of its tokens, added in token order from 0.0."""
    sums = [_row_sums(0.0, chunk, weights[chunk.ids]) for chunk in _chunks(rows)]
    return np.concatenate(sums or [[]])


def term_sums(
    rows: Sequence[np.ndarray], weight_vectors: Sequence[np.ndarray], leads: Sequence[float]
) -> list[np.ndarray]:
    """Per weight vector and id row, its lead plus count * weight for each distinct id of
    the row, added in order of first occurrence; one distinct pass serves every vector."""
    sums: list[list[np.ndarray]] = [[] for _ in weight_vectors]
    for terms, counts in distinct_terms(rows):
        for out, weights, lead in zip(sums, weight_vectors, leads):
            out.append(_row_sums(lead, terms, counts * weights[terms.ids]))
    return [np.concatenate(s or [[]]) for s in sums]


def sequential_sum(values: Iterable[float]) -> float:
    """``values`` added left to right from 0.0; from Python 3.12 the built-in sum() compensates."""
    total = 0.0
    for v in values:
        total += v
    return float(total)


# ---------------------------------------------------------------------------
# Unigram models
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class UnigramModel:
    """A probability distribution over a fixed, sorted vocabulary.

    An empty model (no support) is allowed as a degenerate case.  Sampling is
    ``genmodel.sample_tokens``'s, from a spec's mixtures of these models.
    """

    vocab: tuple[str, ...]
    mass: np.ndarray
    _index: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        mass = np.asarray(self.mass, dtype=float)
        object.__setattr__(self, "mass", mass)
        if len(self.vocab) != mass.size:
            raise InvariantViolation("unigram", "vocab and mass lengths differ")
        if any(a >= b for a, b in zip(self.vocab, self.vocab[1:])):
            raise InvariantViolation("unigram", "vocab must be sorted, with no word repeated")
        # each check states what must hold, so that a NaN fails it
        if not (mass > 0).all():
            raise InvariantViolation("unigram", "all masses must be > 0 on the support")
        if mass.size and not abs(mass.sum() - 1.0) <= 1e-9:
            raise InvariantViolation("unigram", "masses must sum to 1 +/- 1e-9")
        object.__setattr__(self, "_index", {w: i for i, w in enumerate(self.vocab)})

    @classmethod
    def from_counts(cls, counts: dict[str, int] | Counter):
        items = sorted((w, c) for w, c in counts.items() if c > 0)
        total = sum(c for _, c in items)
        if total <= 0:
            raise EmptyCorpus("no tokens to estimate a unigram model from")
        vocab = tuple(w for w, _ in items)
        mass = np.array([c for _, c in items], dtype=float) / total
        return cls(vocab, mass)

    @classmethod
    def uniform(cls, words: Iterable[str]):
        vocab = tuple(sorted(set(words)))
        return cls(vocab, np.full(len(vocab), 1.0 / max(len(vocab), 1)))

    def prob(self, word: str) -> float:
        i = self._index.get(word)
        return 0.0 if i is None else float(self.mass[i])

    @property
    def support(self) -> frozenset[str]:
        return frozenset(self.vocab)


# ---------------------------------------------------------------------------
# Ingestion / serialization
# ---------------------------------------------------------------------------

_LABELS = {None: ThreadLabel.UNLABELED, **{lab.value: lab for lab in ThreadLabel}}  # null reads as Unlabeled


_ID = (str, int)
_TYPE_NAMES = {_ID: "a string or an integer", (int,): "an integer", (str,): "a string"}
# a JSON escape of a UTF-16 surrogate: alone, it is a string no UTF-8 output can hold
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _field(obj: dict, key: str, types: tuple, lineno: int):
    """``obj[key]``, which must be present and of one of ``types``."""
    try:
        val = obj[key]
    except KeyError:
        raise ParseError(lineno, f"missing field {key!r}") from None
    if type(val) not in types:  # both decoders make exact types, so a bool is not an int here
        raise ParseError(lineno, f"field {key!r} must be {_TYPE_NAMES[types]}, got {val!r}")
    return val


def _post_fields(rp: dict, lineno: int) -> tuple[str, str, int, str]:
    """A post's id, author, timestamp and text, checked one field at a time; ids become strings."""
    return (
        str(_field(rp, "post_id", _ID, lineno)),
        str(_field(rp, "author_id", _ID, lineno)),
        _field(rp, "timestamp", (int,), lineno),
        _field(rp, "text", (str,), lineno),
    )


class _CorpusParser:
    """Each course's columns, filled one JSON line (one thread) at a time.

    ``loads`` decodes a line; it raises ``ValueError`` on one it refuses.
    ``add_line`` runs the checks of ``Post`` and ``Thread`` on its line, in
    their order, so a file's first error is the one that building those
    objects line by line would raise.  ``corpus`` runs the course checks.
    """

    def __init__(self, loads: Callable[[str], object]):
        self.loads = loads
        self.author_codes: dict[str, int] = {}  # shared by every course
        self.courses: dict[str, _ColumnBuilder] = {}

    def add_line(self, line: str, lineno: int) -> None:
        try:
            obj = self.loads(line)
        except ValueError as exc:  # JSONDecodeError, or an integer past Python's digit limit
            raise ParseError(lineno, f"invalid JSON: {getattr(exc, 'msg', exc)}") from exc
        if not isinstance(obj, dict):
            raise ParseError(lineno, "each line must be a JSON object")
        if "\\" in line and _SURROGATE_ESCAPE.search(line):
            try:
                json.dumps(obj, ensure_ascii=False).encode("utf-8")
            except UnicodeEncodeError:
                raise ParseError(lineno, "a string holds a lone surrogate escape") from None
        course_id = str(_field(obj, "course_id", _ID, lineno))
        thread_id = str(_field(obj, "thread_id", _ID, lineno))
        created_at = _field(obj, "created_at", (int,), lineno)
        raw_label = obj.get("label")
        label = _LABELS.get(raw_label) if isinstance(raw_label, (str, type(None))) else None
        if label is None:
            raise ParseError(lineno, f"unknown label {raw_label!r}")
        raw_posts = obj.get("posts")
        if type(raw_posts) is not list or not raw_posts:
            raise ParseError(lineno, "posts must be a nonempty list")
        course = self.courses.get(course_id)
        if course is None:
            course = self.courses[course_id] = _ColumnBuilder(self.author_codes)
        add_post, start = course.add_post, len(course.timestamps)
        for rp in raw_posts:
            if not isinstance(rp, dict):
                raise ParseError(lineno, "each post must be a JSON object")
            staff = rp.get("is_staff", False)
            if type(staff) is not bool:
                raise ParseError(lineno, f"field 'is_staff' must be true or false, got {staff!r}")
            try:
                post_id, author_id = rp["post_id"], rp["author_id"]
                timestamp, text = rp["timestamp"], rp["text"]
            except KeyError:
                post_id = None
            # string ids take the fast path; anything else is checked field by field
            if not (type(post_id) is str and type(author_id) is str and type(timestamp) is int
                    and type(text) is str):
                post_id, author_id, timestamp, text = _post_fields(rp, lineno)
            if not 0 <= timestamp < _TIMESTAMP_END:
                _check_post(post_id, timestamp)
            add_post(post_id, author_id, timestamp, text, staff)
        _check_thread(thread_id, created_at, course.timestamps[start:], course.post_ids[start:])
        course.end_thread(thread_id, created_at, label)

    def corpus(self) -> Corpus:
        names = list(self.author_codes)
        return Corpus(tuple(Course._from_columns(course_id, min(course.created_at), course.build(names))
                            for course_id, course in self.courses.items()))


def _parse(path, loads: Callable[[str], object]) -> Corpus:
    """The corpus in ``path``, each nonblank line decoded by ``loads``."""
    parser = _CorpusParser(loads)
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    parser.add_line(line, lineno)
                except RecursionError as exc:  # a value nested too deep to decode, re-encode or print
                    raise ParseError(lineno, f"invalid JSON: {exc}") from None
    return parser.corpus()


def ingest_corpus(path) -> Corpus:
    """Read a JSON-lines corpus, one thread per line, into columns.

    Course start dates default to each course's earliest thread;
    attach_metadata can override them.  A file that the ``orjson`` pass
    refuses is parsed again with ``json.loads``, which decides.
    """
    try:
        return _parse(path, orjson.loads)
    except ForumlensError:
        pass  # the json pass starts after this block, whose traceback holds the failed pass's columns
    return _parse(path, json.loads)


def load_json_object(path) -> dict:
    """The JSON object held by a file (a spec, a model); anything else raises ParseError."""
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # not JSON, not UTF-8, or an integer past Python's digit limit
            line, reason = getattr(exc, "lineno", 1), getattr(exc, "msg", exc)
            raise ParseError(line, f"invalid JSON: {reason}") from None
    if not isinstance(obj, dict):
        raise ParseError(1, "the file must hold one JSON object")
    return obj


# The field readers of spec and model files, and of the library arguments they hold: each returns its
# value converted or raises InvariantViolation naming the field and its rule.


def read_int(subject: str, name: str, value, least: int | None = 0) -> int:
    """``value`` as an int: an integer (``operator.index``) that is not a bool, and >= ``least``
    unless ``least`` is None."""
    try:
        i = None if type(value) is bool else operator.index(value)
    except TypeError:  # not an integer
        i = None
    if i is None or least is not None and i < least:
        bound = "" if least is None else f" >= {least}"
        raise InvariantViolation(subject, f"{name} must hold integers{bound} and not a bool, got {value!r}")
    return i


def read_real(subject: str, name: str, value) -> float:
    """``value`` as a float: a real number that is finite as a float, and not a bool."""
    # float and int come first: the numbers.Real test alone takes longer than the rest of a read
    real = type(value) in (float, int) or type(value) is not bool and isinstance(value, numbers.Real)
    if not (real and _finite(value)):
        raise InvariantViolation(subject, f"{name} must hold numbers, each a finite number and not a bool, "
                                          f"got {value!r}")
    return float(value)


def read_str(subject: str, name: str, value) -> str:
    """``value``, which must be a string."""
    if type(value) is not str:
        raise InvariantViolation(subject, f"{name} must hold strings, got {value!r}")
    return value


def read_list(subject: str, name: str, values, read: Callable, *args) -> tuple:
    """``values``, a list (or, from Python, a tuple or an array), each element read by ``read``."""
    if not isinstance(values, (list, tuple, np.ndarray)):
        raise InvariantViolation(subject, f"{name} must be a list, got {values!r}")
    return tuple(read(subject, name, v, *args) for v in values)


def read_object(subject: str, name: str, value) -> dict:
    """``value``, which must be a JSON object."""
    if type(value) is not dict:
        raise InvariantViolation(subject, f"{name} must be an object, got {value!r}")
    return value


def _read_metadata(path) -> dict[str, tuple[int, CourseFactors, CourseCategory]]:
    """Each course id's ``(start_date, factors, category)``; columns go by header name, past any BOM."""
    meta = {}
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            rows = [(reader.line_num, row) for row in reader if row]  # blank lines hold no row
        except csv.Error as exc:  # a field past csv's size limit; before Python 3.11, a NUL
            raise ParseError(reader.line_num, str(exc)) from exc
    for line, row in rows:
        if len(row) != len(header):
            raise ParseError(line, f"{len(row)} fields where the header has {len(header)}")
        values = dict(zip(header, row))
        try:
            course_id = values["course_id"]
            start_date = int(values["start_date"])
            factors = CourseFactors(*(convert(values[name]) for name, convert in _FACTOR_COLUMNS))
            category = CourseCategory(values["category"])
        except KeyError as exc:
            raise ParseError(line, f"missing column {exc}") from exc
        except ValueError as exc:  # a number or category that does not parse
            raise ParseError(line, str(exc)) from exc
        if course_id in meta:
            raise InvariantViolation("corpus", f"duplicate course id {course_id!r}")
        meta[course_id] = (start_date, factors, category)
    return meta


def attach_metadata(corpus: Corpus, path) -> Corpus:
    """Return a new corpus with start dates, factors and categories from a CSV.

    Metadata rows for course ids absent from the corpus add empty courses.
    """
    meta = _read_metadata(path)
    courses = []
    for c in corpus.courses:
        start_date, factors, category = meta.pop(c.course_id, (c.start_date, c.factors, c.category))
        courses.append(Course._from_columns(c.course_id, start_date, c.columns, factors, category))
    courses += [Course(course_id, start_date, (), factors, category)
                for course_id, (start_date, factors, category) in meta.items()]
    return Corpus(tuple(courses))


def serialize_corpus(corpus: Corpus, path) -> None:
    """Write threads in the JSON-lines interchange format (round-trips with ingest).

    Each line holds the bytes of ``json.dumps(thread, sort_keys=True)``,
    laid out without building the dicts (see the module docstring).
    """
    esc = json.encoder.encode_basestring_ascii  # json.dumps's escaper under its default ensure_ascii

    def post(post_id, author_id, timestamp, text, is_staff):
        return (f'{{"author_id": {esc(author_id)}, "is_staff": {"true" if is_staff else "false"}, '
                f'"post_id": {esc(post_id)}, "text": {esc(text)}, "timestamp": {timestamp}}}')

    with open(path, "w", encoding="utf-8") as fh:
        for course in corpus.courses:
            head = f'{{"course_id": {esc(course.course_id)}, "created_at": '
            fh.writelines(f'{head}{created}, "label": {esc(label.value)}, "posts": [{", ".join(posts)}], '
                          f'"thread_id": {esc(tid)}}}\n'
                          for tid, created, label, posts in course.columns.records(post))


def write_metadata_csv(corpus: Corpus, path) -> None:
    """One row per course that has factors, in the layout ``attach_metadata`` reads."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["course_id", "start_date", *(name for name, _ in _FACTOR_COLUMNS), "category"])
        # csv writes a float as str(), which in Python 3 is its repr: the shortest text that reads back
        writer.writerows([c.course_id, c.start_date, *astuple(c.factors), c.category.value]
                         for c in corpus.courses if c.factors is not None)
