"""Seeded generator for the forum-activity workload, plus its self-check.

`forumlens gen` produces single-post threads at a flat 24 threads a day, so
it exercises neither the participation graph (HITS) nor the activity
statistics.  This generator writes a forum-shaped corpus instead:

* 12 courses with a metadata CSV whose factors vary, so the 18-term panel
  regression has full rank;
* each course's daily thread rate decays over a 45-75 day run;
* each thread has one post plus a geometric number of replies;
* authors are drawn Zipf-like from a per-course pool of 2k-6k users, so
  threads share users; about 5% of posts are staff posts;
* about 25% of threads are unlabeled; the labeled ones draw words from
  label-specific boosts over one Zipf word list that contains stopwords.

The corpus is built from forumlens's own data model and written with its
`serialize_corpus` and `write_metadata_csv`, so set-up time includes the
program's write path.  Run directly to generate and self-check a corpus:

    PYTHONPATH=src python3 bench/forumgen.py --seed 7 --out /tmp/forum
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass

import numpy as np

from forumlens.corpus import (
    Corpus,
    Course,
    CourseCategory,
    CourseFactors,
    Post,
    Thread,
    ThreadLabel,
    serialize_corpus,
    write_metadata_csv,
)
from forumlens.stats import (
    PanelTarget,
    assemble_panel,
    build_series,
    neighborhood_counts,
    partition_by_threshold,
    trim_and_diff,
)

NUM_COURSES = 12
DAY = 86400
EPOCH = 1_380_000_000  # a Monday in 2013, the paper's era; any positive value works
# The ranked course (course00) is large enough that its first two weeks form
# a participation graph of about 2k threads x 3k users.  Its shape is fixed,
# and the other courses' sizes, run lengths and decay times are fixed sets
# that the seed only shuffles, so the work of a pass varies little by seed.
BIG_COURSE = {"threads": 3000, "users": 5000, "days": 60, "tau": 14.0}
OTHER_THREADS = np.linspace(150, 300, NUM_COURSES - 1).round().astype(int)
OTHER_DAYS = np.linspace(45, 75, NUM_COURSES - 1).round().astype(int)
OTHER_TAUS = np.linspace(8.0, 20.0, NUM_COURSES - 1)
REPLY_P = 1 / 6  # geometric replies: mean 5 extra posts per thread
STAFF_SHARE = 0.05
UNLABELED_SHARE = 0.25
LABEL_SHARES = {  # of labeled threads
    ThreadLabel.SMALL_TALK: 0.3,
    ThreadLabel.LOGISTICS: 0.2,
    ThreadLabel.COURSE_SPECIFIC: 0.5,
}
STOPWORDS = (
    "the", "and", "to", "of", "is", "it", "in", "that", "for", "you",
    "this", "on", "with", "be", "are", "have", "was", "not", "but", "what",
)
CONTENT_WORDS = 200
ZIPF_WORDS = 1.1
ZIPF_USERS = 1.0
BOOST = 6.0  # weight multiplier on a label's (or course's) own word block
WORDS_PER_POST = (6, 14)  # fixed part, Poisson mean

# Label and topic blocks are slices of the content words.
SMALLTALK_BLOCK = slice(0, 20)
LOGISTICS_BLOCK = slice(20, 40)
TOPIC_BLOCK_START = 40
TOPIC_BLOCK_SIZE = 12


def _content_words() -> list[str]:
    onsets = "bdfgklmnprstvz"
    vowels = "aeiou"
    sylls = [c + v for c in onsets for v in vowels]
    words = []
    i = 0
    while len(words) < CONTENT_WORDS:
        a, b = divmod(i, len(sylls))
        word = sylls[b] + sylls[(11 * b + 7 * a + 3) % len(sylls)] + ("" if i % 3 else sylls[(5 * b + a + 1) % len(sylls)])
        if word not in words:
            words.append(word)
        i += 1
    return words


WORDS = STOPWORDS + tuple(_content_words())


@dataclass(frozen=True)
class ForumCorpus:
    corpus: Corpus
    ttest_threshold: int


def _zipf(n: int, exponent: float) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1) ** exponent
    return w / w.sum()


def _word_cdf(label: ThreadLabel, course_index: int, base: np.ndarray) -> np.ndarray:
    weights = base.copy()
    off = len(STOPWORDS)
    if label == ThreadLabel.SMALL_TALK:
        block = SMALLTALK_BLOCK
    elif label == ThreadLabel.LOGISTICS:
        block = LOGISTICS_BLOCK
    else:
        start = TOPIC_BLOCK_START + course_index * TOPIC_BLOCK_SIZE
        block = slice(start, start + TOPIC_BLOCK_SIZE)
    weights[off + block.start : off + block.stop] *= BOOST
    return np.cumsum(weights / weights.sum())


def _draw_label(rng) -> tuple[ThreadLabel, ThreadLabel]:
    """(label the text is drawn from, label written to the corpus)."""
    u = rng.random()
    acc = 0.0
    topic = ThreadLabel.COURSE_SPECIFIC
    for label, share in LABEL_SHARES.items():
        acc += share
        if u < acc:
            topic = label
            break
    return topic, ThreadLabel.UNLABELED if rng.random() < UNLABELED_SHARE else topic


def _daily_counts(rng, n_threads: int, days: int, tau: float) -> np.ndarray:
    rate = np.exp(-np.arange(days) / tau)
    counts = rng.poisson(n_threads * rate / rate.sum())
    counts[0] = max(counts[0], 1)  # the course starts on day 1
    return counts


def _course(rng, index: int, start: int, shape: dict, base: np.ndarray):
    cid = f"course{index:02d}"
    n_users = shape["users"]
    user_cdf = np.cumsum(_zipf(n_users, ZIPF_USERS))
    cdfs = {label: _word_cdf(label, index, base) for label in LABEL_SHARES}
    words = np.asarray(WORDS, dtype=object)
    threads = []
    staff_posts = 0
    for day, count in enumerate(_daily_counts(rng, shape["threads"], shape["days"], shape["tau"])):
        day_start = start + day * DAY
        for created in np.sort(rng.integers(day_start, day_start + DAY, size=count)):
            tid = f"{cid}-t{len(threads):05d}"
            topic, label = _draw_label(rng)
            n_posts = int(rng.geometric(REPLY_P))
            gaps = np.floor(rng.exponential(7200.0, size=n_posts - 1)).astype(np.int64)
            stamps = np.concatenate([[int(created)], int(created) + np.cumsum(gaps)])
            lengths = WORDS_PER_POST[0] + rng.poisson(WORDS_PER_POST[1], size=n_posts)
            word_idx = np.searchsorted(cdfs[topic], rng.random(int(lengths.sum())), side="right")
            texts = np.split(words[np.minimum(word_idx, len(WORDS) - 1)], np.cumsum(lengths)[:-1])
            staff = rng.random(n_posts) < STAFF_SHARE
            authors = np.searchsorted(user_cdf, rng.random(n_posts), side="right")
            posts = []
            for j in range(n_posts):
                if staff[j]:
                    staff_posts += 1
                    author = f"{cid}-staff{authors[j] % 4}"
                else:
                    author = f"{cid}-u{authors[j]:04d}"
                posts.append(Post(f"{tid}-p{j}", author, int(stamps[j]), " ".join(texts[j]), bool(staff[j])))
            threads.append(Thread(tid, int(created), tuple(posts), label))
    return cid, tuple(threads), staff_posts


def _factors(rng, days: int, staff_posts: int) -> tuple[CourseFactors, CourseCategory]:
    q = int(rng.random() < 0.5)
    v = int(rng.random() < 0.3)
    factors = CourseFactors(
        quantitative=q,
        vocational=v,
        video_hours=round(float(rng.uniform(4.0, 30.0)), 2),
        duration_days=days,
        peer_graded=int(rng.random() < 0.5),
        staff_posts=staff_posts,
        graded_homework=int(rng.integers(2, 12)),
    )
    return factors, CourseCategory.from_flags(q, v)


def generate(seed: int) -> ForumCorpus:
    """Sample the forum-activity corpus for ``seed`` and self-check it."""
    rng = np.random.Generator(np.random.PCG64(seed))
    base = _zipf(len(WORDS), ZIPF_WORDS)
    courses = []
    shapes = [BIG_COURSE] + [
        {"threads": int(n), "users": int(u), "days": int(d), "tau": float(tau)}
        for n, u, d, tau in zip(
            rng.permutation(OTHER_THREADS),
            rng.integers(2000, 6001, size=NUM_COURSES - 1),
            rng.permutation(OTHER_DAYS),
            rng.permutation(OTHER_TAUS),
        )
    ]
    for index, shape in enumerate(shapes):
        start = EPOCH + index * 7 * DAY
        cid, threads, staff_posts = _course(rng, index, start, shape, base)
        factors, category = _factors(rng, shape["days"], staff_posts)
        courses.append(Course(cid, start, threads, factors, category))
    corpus = Corpus(tuple(courses))
    # The ttest threshold is the median f(h, 1 day), so both groups are large.
    f_values = [f for c in corpus.courses for f in neighborhood_counts(c, 1.0).values()]
    forum = ForumCorpus(corpus, int(np.median(f_values)))
    self_check(forum)
    return forum


def self_check(forum: ForumCorpus) -> None:
    """Raise ValueError unless every pass command can succeed on this corpus."""
    corpus = forum.corpus
    series = build_series(corpus)
    factors = {c.course_id: c.factors for c in corpus.courses}
    for target in (PanelTarget.Y, PanelTarget.LOG_Z):
        X, _, terms, _ = assemble_panel(series, factors, target)
        if np.linalg.matrix_rank(X) != len(terms):
            raise ValueError(f"panel design for target {target.value} is rank deficient")
    for cid, s in series.items():
        diffs = trim_and_diff(s, 0.03)
        if diffs.size < 3 or np.ptp(diffs) == 0:
            raise ValueError(f"Shapiro sample of {cid} has no range")
    lengths, f_values = [], []
    for course in corpus.courses:
        counts = neighborhood_counts(course, 1.0)
        for t in course.threads:
            lengths.append(t.length)
            f_values.append(counts[t.thread_id])
    g1, g2 = partition_by_threshold(lengths, f_values, forum.ttest_threshold)
    if len(g1) < 2 or len(g2) < 2:
        raise ValueError(f"ttest threshold {forum.ttest_threshold} leaves a group under 2 threads")


def write(forum: ForumCorpus, threads_path: str, meta_path: str) -> None:
    serialize_corpus(forum.corpus, threads_path)
    write_metadata_csv(forum.corpus, meta_path)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    forum = generate(args.seed)
    os.makedirs(args.out, exist_ok=True)
    write(forum, os.path.join(args.out, "forum.jsonl"), os.path.join(args.out, "meta.csv"))
    c = forum.corpus
    print(
        f"{c.num_courses} courses, {c.num_threads} threads, {c.num_posts} posts, "
        f"ttest threshold {forum.ttest_threshold}; self-check passed"
    )


if __name__ == "__main__":
    main()
