"""Object-at-a-time reference implementations for the columnar corpus.

The parser builds one ``Post`` and one ``Thread`` per line through the public
constructors, so every check runs in the order the constructors run it, and
the sampler builds one checked ``Thread`` per sampled thread.  The stats loops,
the serializer and HITS read ``Thread`` objects.  Tests hold the columnar code
in ``forumlens.corpus``, ``forumlens.genmodel``, ``forumlens.stats`` and
``forumlens.ranking`` to these.
"""

from __future__ import annotations

import json
import math

import numpy as np

from forumlens.corpus import (
    _ID,
    _LABELS,
    _SURROGATE_ESCAPE,
    SECONDS_PER_DAY,
    Corpus,
    Course,
    Post,
    Thread,
    ThreadLabel,
    _field,
    day_index,
)
from forumlens.errors import ParseError
from forumlens.genmodel import course_rng, token_distribution
from forumlens.ranking import RankedList
from forumlens.stats import ActivitySeries


def parse_thread_line(line: str, lineno: int) -> tuple[str, Thread]:
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
    by_course: dict[str, list[Thread]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            course_id, thread = parse_thread_line(line, lineno)
            by_course.setdefault(course_id, []).append(thread)
    courses = []
    for course_id, threads in by_course.items():
        start = min(t.created_at for t in threads)
        courses.append(Course(course_id, start, tuple(threads)))
    return Corpus(tuple(courses))


def course_series(course: Course) -> ActivitySeries:
    posts = [(p.timestamp, p.author_id) for t in course.threads for p in t.posts]
    if course.factors is not None:
        duration = max(course.factors.duration_days, 1)
    elif posts:
        duration = max(max(day_index(ts, course.start_date) for ts, _ in posts), 1)
    else:
        duration = 1
    y = [0] * duration
    users: list[set[str]] = [set() for _ in range(duration)]
    for ts, author in posts:
        day = day_index(ts, course.start_date)
        if 1 <= day <= duration:
            y[day - 1] += 1
            users[day - 1].add(author)
    z = [len(u) for u in users]
    first3 = y[: min(3, duration)]
    median3 = float(np.median(first3)) if first3 else 0.0
    distinct3 = len(set().union(*users[: min(3, duration)])) if users else 0
    return ActivitySeries(course.course_id, tuple(y), tuple(z), median3, distinct3)


def build_series(corpus: Corpus) -> dict[str, ActivitySeries]:
    return {c.course_id: course_series(c) for c in corpus.courses}


def neighborhood_counts(course: Course, t_days: float = 1.0) -> dict[str, int]:
    created = np.array([t.created_at for t in course.threads], dtype=float)
    times = np.sort(created)
    window = t_days * SECONDS_PER_DAY
    lo = np.searchsorted(times, created - window, side="left")
    hi = np.searchsorted(times, created + window, side="right")
    return {t.thread_id: int(n) for t, n in zip(course.threads, hi - lo - 1)}


def serialize_corpus(corpus: Corpus, path) -> None:
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


def sample_corpus(spec, threads_per_course, threads_per_day=24) -> Corpus:
    """A thread at a time: a scalar coin, then a binary search of s uniforms in the D0 or D1(i) CDF."""
    spacing = SECONDS_PER_DAY // threads_per_day
    vocab = spec.background.vocab
    courses = []
    for i, count in enumerate(threads_per_course):
        rng = course_rng(spec, i)
        course_id = f"course{i:02d}"
        cdfs = {flag: np.cumsum(token_distribution(spec, i, flag)) for flag in (False, True)}
        threads = []
        for j in range(count):
            is_smalltalk = bool(rng.random() < spec.p[i])
            idx = np.searchsorted(cdfs[is_smalltalk], rng.random(spec.thread_length(i)), side="right")
            tokens = [vocab[k] for k in np.minimum(idx, spec.n - 1).tolist()]
            created = (j // threads_per_day) * SECONDS_PER_DAY + (j % threads_per_day) * spacing
            label = ThreadLabel.SMALL_TALK if is_smalltalk else ThreadLabel.COURSE_SPECIFIC
            post = Post(
                post_id=f"{course_id}-t{j:05d}-p0",
                author_id=f"{course_id}-u{j:05d}",
                timestamp=created,
                text=" ".join(tokens),
            )
            threads.append(Thread(f"{course_id}-t{j:05d}", created, (post,), label))
        courses.append(Course(course_id, 0, tuple(threads)))
    return Corpus(tuple(courses))


def hits_rank(threads: list[Thread], tolerance: float = 1e-10, max_iters: int = 1000) -> RankedList:
    """HITS authority over the edges each thread's ``participants`` make, in thread order."""
    members = [sorted(t.participants) for t in threads]
    users = sorted({u for m in members for u in m})
    uidx = {u: i for i, u in enumerate(users)}
    edge_users = np.fromiter((uidx[u] for m in members for u in m), dtype=np.intp)
    edge_threads = np.repeat(np.arange(len(threads)), [len(m) for m in members])

    def normalize(v):
        norm = np.linalg.norm(v)
        return v / norm if norm > 0 else v

    authority = np.full(len(threads), 1.0 / math.sqrt(len(threads)))
    hub = np.zeros(len(users))
    converged, iterations, moved = False, 0, math.inf
    for iterations in range(1, max_iters + 1):
        new_hub = normalize(np.bincount(edge_users, weights=authority[edge_threads], minlength=len(users)))
        new_authority = normalize(
            np.bincount(edge_threads, weights=new_hub[edge_users], minlength=len(threads))
        )
        moved = max(np.linalg.norm(new_hub - hub), np.linalg.norm(new_authority - authority))
        hub, authority = new_hub, new_authority
        if moved < tolerance:
            converged = True
            break
    order = sorted(zip(authority.tolist(), threads), key=lambda st: (-st[0], st[1].created_at, st[1].thread_id))
    return RankedList(tuple((t.thread_id, s) for s, t in order), converged, iterations, float(moved))
