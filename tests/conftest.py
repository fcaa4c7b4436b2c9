"""Shared fixtures and synthetic-experiment helpers for the test suite."""

from __future__ import annotations

import json
from collections import Counter

import numpy as np
import pytest

from forumlens.corpus import Course, Corpus, Post, Thread, ThreadLabel, UnigramModel
from forumlens.genmodel import make_spec, sample_tokens
from forumlens.ranking import hits_rank, tfidf_rank, topical_rank
from forumlens.topics import TokenTable, surprise_weights


def make_post(pid, author, ts, text, staff=False):
    return Post(pid, author, ts, text, staff)


def make_thread(tid, created, posts, label=ThreadLabel.UNLABELED):
    return Thread(tid, created, tuple(posts), label)


def single_post_thread(tid, created, text, author="u0", label=ThreadLabel.UNLABELED):
    return make_thread(tid, created, [make_post(f"{tid}-p0", author, created, text)], label)


def multi_user_thread(tid, created, tokens, users):
    """One post per user, splitting the token stream between them."""
    chunks = np.array_split(np.asarray(tokens, dtype=object), len(users))
    posts = [
        make_post(f"{tid}-p{i}", user, created + i, " ".join(chunk))
        for i, (user, chunk) in enumerate(zip(users, chunks))
    ]
    return make_thread(tid, created, posts)


@pytest.fixture
def tiny_jsonl(tmp_path):
    """Two courses, five threads, hand-countable."""
    rows = [
        {
            "course_id": "alpha",
            "thread_id": "a-t1",
            "created_at": 100,
            "label": "SmallTalk",
            "posts": [
                {"post_id": "p1", "author_id": "u1", "timestamp": 100, "text": "hello class", "is_staff": False},
                {"post_id": "p2", "author_id": "u2", "timestamp": 150, "text": "welcome everyone", "is_staff": True},
            ],
        },
        {
            "course_id": "alpha",
            "thread_id": "a-t2",
            "created_at": 90000,
            "label": "Logistics",
            "posts": [
                {"post_id": "p1", "author_id": "u1", "timestamp": 90000, "text": "gradient descent question", "is_staff": False}
            ],
        },
        {
            "course_id": "alpha",
            "thread_id": "a-t3",
            "created_at": 95000,
            "label": None,
            "posts": [
                {"post_id": "p1", "author_id": "u3", "timestamp": 95000, "text": "matrix inverse help", "is_staff": False}
            ],
        },
        {
            "course_id": "beta",
            "thread_id": "b-t1",
            "created_at": 500,
            "label": "SmallTalk",
            "posts": [
                {"post_id": "p1", "author_id": "u9", "timestamp": 500, "text": "hello study group", "is_staff": False}
            ],
        },
        {
            "course_id": "beta",
            "thread_id": "b-t2",
            "created_at": 700,
            "label": "CourseSpecific",
            "posts": [
                {"post_id": "p1", "author_id": "u9", "timestamp": 700, "text": "poetry meter analysis", "is_staff": False},
                {"post_id": "p2", "author_id": "u10", "timestamp": 900, "text": "iambic pentameter examples", "is_staff": False},
            ],
        },
    ]
    path = tmp_path / "tiny.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return path


# ---------------------------------------------------------------------------
# Noise-injection ranking trial
# ---------------------------------------------------------------------------


def noise_discrimination_trial(seed: int) -> tuple[int, int, int]:
    """Irrelevant threads admitted to the top-15 by (topical, tfidf, hits).

    The window holds 40 on-topic threads, 15 small-talk threads and 15
    rare-word noise threads whose tokens are all singletons.  Small-talk and
    noise threads are made popular (many participants), on-topic threads are
    not, so HITS follows popularity while tf-idf chases the singletons.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    spec = make_spec(n=2000, num_courses=2, epsilon=0.4, p=0.3, s=200, seed=seed)
    table = TokenTable(frozenset())

    bg_counts: Counter = Counter()
    for _ in range(150):
        small = rng.random() < spec.p[1]
        bg_counts.update(sample_tokens(spec, 1, small, spec.s, rng).tolist())
    course_counts: Counter = Counter()
    for _ in range(100):
        small = rng.random() < spec.p[0]
        course_counts.update(sample_tokens(spec, 0, small, spec.s, rng).tolist())
    combined = UnigramModel.from_counts(bg_counts + course_counts)
    keywords = surprise_weights(
        combined, UnigramModel.from_counts(course_counts), sum(bg_counts.values())
    )

    threads = []
    irrelevant: set[str] = set()
    uid = 0

    def users(count):
        nonlocal uid
        names = [f"u{uid + i}" for i in range(count)]
        uid += count
        return names

    base = 10_000_000
    for j in range(40):
        tokens = sample_tokens(spec, 0, False, spec.s, rng).tolist()
        threads.append(
            multi_user_thread(f"rel{j:03d}", base + j, tokens, users(int(rng.integers(1, 4))))
        )
    for j in range(15):
        tokens = sample_tokens(spec, 0, True, spec.s, rng).tolist()
        tid = f"smt{j:03d}"
        threads.append(multi_user_thread(tid, base + 100 + j, tokens, users(int(rng.integers(8, 21)))))
        irrelevant.add(tid)
    for j in range(15):
        tokens = [f"zz{seed}x{j}x{i}" for i in range(spec.s)]
        tid = f"noise{j:03d}"
        threads.append(multi_user_thread(tid, base + 200 + j, tokens, users(int(rng.integers(8, 21)))))
        irrelevant.add(tid)

    ours = topical_rank(keywords, threads, alpha=0.96, k=50, tokens=table)
    tfidf = tfidf_rank(threads, threads, tokens=table)
    hits = hits_rank(threads)

    def admitted(ranked):
        return sum(1 for tid in ranked.top(15) if tid in irrelevant)

    return admitted(ours), admitted(tfidf), admitted(hits)


# ---------------------------------------------------------------------------
# Gaussian-increment simulation
# ---------------------------------------------------------------------------


def simulate_decline_counts(rng, days: int, mu: float, sigma: float) -> np.ndarray:
    """Daily counts from i.i.d. Gaussian increments, started high enough to
    stay positive over the horizon."""
    y0 = abs(mu) * days + 6 * sigma * np.sqrt(days) + rng.uniform(100, 400)
    y = np.round(y0 + np.cumsum(rng.normal(mu, sigma, size=days)))
    assert (y >= 0).all()
    return y


def corpus_from_threads(course_threads: dict[str, list[Thread]], start: int = 0) -> Corpus:
    courses = tuple(
        Course(cid, start, tuple(threads)) for cid, threads in course_threads.items()
    )
    return Corpus(courses)
