"""Data model, ingestion, tokenization and empirical unigram distributions.

Every value defined here is immutable after construction and every operation
is a pure function.

Day indexing convention: timestamps are integer UTC seconds and the day index
of a timestamp ``ts`` within a course is ``floor((ts - start_date) / 86400) + 1``,
i.e. 1-based with day 1 starting at ``start_date``.
"""

from __future__ import annotations

import csv
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from importlib import resources
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, EmptyCorpus, InvariantViolation, ParseError

SECONDS_PER_DAY = 86400

# Unicode alphanumeric runs; underscore is excluded because it is not
# alphanumeric.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


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


def _first_duplicate(ids: Iterable[str]) -> str | None:
    """The first listed id that occurs more than once, or None."""
    return next((i for i, n in Counter(ids).items() if n > 1), None)


@dataclass(frozen=True)
class Post:
    post_id: str
    author_id: str
    timestamp: int
    text: str
    is_staff: bool = False

    def __post_init__(self):
        if self.timestamp < 0:
            raise InvariantViolation(self.post_id, "timestamp must be >= 0")


@dataclass(frozen=True)
class Thread:
    thread_id: str
    created_at: int
    posts: tuple[Post, ...]
    label: ThreadLabel = ThreadLabel.UNLABELED

    def __post_init__(self):
        if not self.posts:
            raise InvariantViolation(self.thread_id, "thread has no posts")
        times = [p.timestamp for p in self.posts]
        if any(b < a for a, b in zip(times, times[1:])):
            raise InvariantViolation(self.thread_id, "posts not sorted by timestamp")
        ids = [p.post_id for p in self.posts]
        if len(set(ids)) != len(ids):
            raise InvariantViolation(self.thread_id, "duplicate post ids")
        if self.created_at != self.posts[0].timestamp:
            raise InvariantViolation(
                self.thread_id, "created_at differs from first post timestamp"
            )

    @property
    def length(self) -> int:
        """Number of posts (comments are flattened into posts upstream)."""
        return len(self.posts)

    @property
    def participants(self) -> frozenset[str]:
        return frozenset(p.author_id for p in self.posts)


@dataclass(frozen=True)
class CourseFactors:
    """Per-course regressors for the activity models.

    ``staff_posts`` is kept in raw post counts; the panel regression rescales
    it (see stats.fit_panel_ols).
    """

    quantitative: int
    vocational: int
    video_hours: float
    duration_days: int
    peer_graded: int
    staff_posts: int
    graded_homework: int

    def __post_init__(self):
        if self.video_hours < 0 or self.duration_days < 0:
            raise InvariantViolation("factors", "L and D must be >= 0")
        for name in ("quantitative", "vocational", "peer_graded", "staff_posts", "graded_homework"):
            if getattr(self, name) < 0:
                raise InvariantViolation("factors", f"{name} must be >= 0")


@dataclass(frozen=True)
class Course:
    course_id: str
    start_date: int
    threads: tuple[Thread, ...]
    factors: CourseFactors | None = None
    category: CourseCategory = CourseCategory.HUMANITIES_SOCIAL

    def __post_init__(self):
        dup = _first_duplicate(t.thread_id for t in self.threads)
        if dup is not None:
            raise InvariantViolation(self.course_id, f"duplicate thread id {dup!r}")

    @property
    def num_threads(self) -> int:
        return len(self.threads)


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
        return sum(t.length for c in self.courses for t in c.threads)

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
    with open(path, encoding="utf-8") as fh:
        return frozenset(w.strip() for w in fh if w.strip())


def tokenize(text: str, stopwords: frozenset[str] | None = None) -> list[str]:
    """Lowercase, split on non-alphanumeric runs, drop stopwords and 1-char tokens."""
    if stopwords is None:
        stopwords = default_stopwords()
    return [
        tok
        for tok in _TOKEN_RE.findall(text.lower())
        if len(tok) >= 2 and tok not in stopwords
    ]


def thread_text(thread: Thread, include_staff: bool = True) -> str:
    parts = [p.text for p in thread.posts if include_staff or not p.is_staff]
    return " ".join(parts)


def thread_tokens(
    thread: Thread,
    stopwords: frozenset[str] | None = None,
    include_staff: bool = True,
) -> list[str]:
    return tokenize(thread_text(thread, include_staff), stopwords)


# ---------------------------------------------------------------------------
# Unigram models
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class UnigramModel:
    """A probability distribution over a fixed, sorted vocabulary.

    ``total_tokens`` is the size of the sample the distribution was estimated
    from; constructed (non-empirical) distributions carry 0.  An empty model
    (no support) is allowed as a degenerate case.
    """

    vocab: tuple[str, ...]
    mass: np.ndarray
    total_tokens: int = 0
    _index: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        mass = np.asarray(self.mass, dtype=float)
        object.__setattr__(self, "mass", mass)
        if len(self.vocab) != mass.size:
            raise InvariantViolation("unigram", "vocab and mass lengths differ")
        if list(self.vocab) != sorted(self.vocab):
            raise InvariantViolation("unigram", "vocab must be sorted")
        if mass.size:
            if np.any(mass <= 0):
                raise InvariantViolation("unigram", "all masses must be > 0 on the support")
            if abs(mass.sum() - 1.0) > 1e-9:
                raise InvariantViolation("unigram", "masses must sum to 1 +/- 1e-9")
        object.__setattr__(self, "_index", {w: i for i, w in enumerate(self.vocab)})

    @classmethod
    def from_counts(cls, counts: dict[str, int] | Counter, total_tokens: int | None = None):
        items = sorted((w, c) for w, c in counts.items() if c > 0)
        total = sum(c for _, c in items)
        if total <= 0:
            raise EmptyCorpus("no tokens to estimate a unigram model from")
        vocab = tuple(w for w, _ in items)
        mass = np.array([c for _, c in items], dtype=float) / total
        return cls(vocab, mass, total if total_tokens is None else total_tokens)

    @classmethod
    def from_probs(cls, probs: dict[str, float], total_tokens: int = 0):
        items = sorted(probs.items())
        vocab = tuple(w for w, _ in items)
        mass = np.array([p for _, p in items], dtype=float)
        return cls(vocab, mass, total_tokens)

    @classmethod
    def uniform(cls, words: Iterable[str], total_tokens: int = 0):
        vocab = tuple(sorted(set(words)))
        if not vocab:
            return cls((), np.zeros(0), total_tokens)
        return cls(vocab, np.full(len(vocab), 1.0 / len(vocab)), total_tokens)

    def prob(self, word: str) -> float:
        i = self._index.get(word)
        return 0.0 if i is None else float(self.mass[i])

    @property
    def support(self) -> frozenset[str]:
        return frozenset(self.vocab)

    def cdf(self) -> np.ndarray:
        return np.cumsum(self.mass)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Inverse-CDF sampling; deterministic given the generator state."""
        if not len(self.vocab):
            raise EmptyCorpus("cannot sample from an empty distribution")
        idx = np.searchsorted(self.cdf(), rng.random(size), side="right")
        idx = np.minimum(idx, len(self.vocab) - 1)
        return np.asarray(self.vocab, dtype=object)[idx]


def unigram_model(docs: Iterable[Sequence[str]]) -> UnigramModel:
    """Empirical unigram distribution with mass(w) = count(w) / total tokens."""
    counts: Counter = Counter()
    for doc in docs:
        counts.update(doc)
    return UnigramModel.from_counts(counts)


# ---------------------------------------------------------------------------
# Ingestion / serialization
# ---------------------------------------------------------------------------

_LABELS = {lab.value: lab for lab in ThreadLabel}
_CATEGORIES = {cat.value: cat for cat in CourseCategory}


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
    if type(val) not in types:  # json.loads makes exact types, so a bool is not an int here
        raise ParseError(lineno, f"field {key!r} must be {_TYPE_NAMES[types]}, got {val!r}")
    return val


def _parse_thread_line(line: str, lineno: int) -> tuple[str, Thread]:
    try:
        obj = json.loads(line)
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
    if raw_label is None:
        label = ThreadLabel.UNLABELED
    elif isinstance(raw_label, str) and raw_label in _LABELS:
        label = _LABELS[raw_label]
    else:
        raise ParseError(lineno, f"unknown label {raw_label!r}")
    raw_posts = obj.get("posts")
    if type(raw_posts) is not list or not raw_posts:
        raise ParseError(lineno, "posts must be a nonempty list")
    posts = []
    for rp in raw_posts:
        if not isinstance(rp, dict):
            raise ParseError(lineno, "each post must be a JSON object")
        is_staff = rp.get("is_staff", False)
        if type(is_staff) is not bool:
            raise ParseError(lineno, f"field 'is_staff' must be true or false, got {is_staff!r}")
        posts.append(
            Post(
                str(_field(rp, "post_id", _ID, lineno)),
                str(_field(rp, "author_id", _ID, lineno)),
                _field(rp, "timestamp", (int,), lineno),
                _field(rp, "text", (str,), lineno),
                is_staff,
            )
        )
    return course_id, Thread(thread_id, created_at, tuple(posts), label)


def ingest_corpus(path) -> Corpus:
    """Read a JSON-lines corpus, one thread per line.

    Course start dates default to each course's earliest thread;
    attach_metadata can override them.
    """
    by_course: dict[str, list[Thread]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            course_id, thread = _parse_thread_line(line, lineno)
            by_course.setdefault(course_id, []).append(thread)
    courses = []
    for course_id, threads in by_course.items():
        start = min(t.created_at for t in threads)
        courses.append(Course(course_id, start, tuple(threads)))
    return Corpus(tuple(courses))


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


def _parse_meta_row(row: dict, lineno: int) -> tuple[str, int, CourseFactors, CourseCategory]:
    try:
        course_id = row["course_id"]
        start_date = int(row["start_date"])
        factors = CourseFactors(
            quantitative=int(row["Q"]),
            vocational=int(row["V"]),
            video_hours=float(row["L"]),
            duration_days=int(row["D"]),
            peer_graded=int(row["P"]),
            staff_posts=int(row["S"]),
            graded_homework=int(row["H"]),
        )
        category = _CATEGORIES[row["category"]]
    except KeyError as exc:
        raise ParseError(lineno, f"missing or unknown column/value {exc}") from exc
    except ValueError as exc:
        raise ParseError(lineno, str(exc)) from exc
    return course_id, start_date, factors, category


def _ingest_csv(path) -> Corpus:
    courses = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for lineno, row in enumerate(reader, start=2):
            course_id, start_date, factors, category = _parse_meta_row(row, lineno)
            courses.append(Course(course_id, start_date, (), factors, category))
    return Corpus(tuple(courses))


def attach_metadata(corpus: Corpus, path) -> Corpus:
    """Return a new corpus with start dates, factors and categories from a CSV.

    Metadata rows for course ids absent from the corpus add empty courses.
    """
    meta = _ingest_csv(path)
    by_id = {c.course_id: c for c in meta.courses}
    courses = []
    for c in corpus.courses:
        m = by_id.pop(c.course_id, None)
        if m is None:
            courses.append(c)
        else:
            courses.append(Course(c.course_id, m.start_date, c.threads, m.factors, m.category))
    courses.extend(by_id.values())
    return Corpus(tuple(courses))


def serialize_corpus(corpus: Corpus, path) -> None:
    """Write threads in the JSON-lines interchange format (round-trips with ingest)."""
    with open(path, "w", encoding="utf-8") as fh:
        for course in corpus.courses:
            for t in course.threads:
                obj = {
                    "course_id": course.course_id,
                    "thread_id": t.thread_id,
                    "created_at": t.created_at,
                    "label": t.label.value,
                    "posts": [
                        {
                            "post_id": p.post_id,
                            "author_id": p.author_id,
                            "timestamp": p.timestamp,
                            "text": p.text,
                            "is_staff": p.is_staff,
                        }
                        for p in t.posts
                    ],
                }
                fh.write(json.dumps(obj, sort_keys=True) + "\n")


def write_metadata_csv(corpus: Corpus, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["course_id", "start_date", "Q", "V", "L", "D", "P", "S", "H", "category"])
        for c in corpus.courses:
            f = c.factors
            if f is None:
                continue
            writer.writerow(
                [
                    c.course_id,
                    c.start_date,
                    f.quantitative,
                    f.vocational,
                    repr(f.video_hours),
                    f.duration_days,
                    f.peer_graded,
                    f.staff_posts,
                    f.graded_homework,
                    c.category.value,
                ]
            )
