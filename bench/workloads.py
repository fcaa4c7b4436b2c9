"""The three workloads: how each sets up its inputs and which commands a pass runs.

Every path is relative to the repository root, which is the working
directory of every forumlens call, so manifests (which record paths) compare
equal from run to run and against the reference digests.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

DEFAULT_SEED = 7
WORK = ".bench_work"


@dataclass(frozen=True)
class Command:
    family: str  # CLI family whose wall time the command counts toward
    argv: tuple[str, ...]
    out: str  # the command's --out directory
    expect: int = 0  # expected exit code


@dataclass(frozen=True)
class Workload:
    name: str
    in_process: bool  # passes run through forumlens.cli.main in one process
    pass_seconds: float  # nominal pass time; a run makes seconds / this passes, at least 2
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "labeled-text", True, 6.0,
            "text-heavy: tokenization, NB/SVM over a 5,000-word vocabulary and day-by-day "
            "convergence do the work; single-author threads leave HITS and stats idle",
        ),
        Workload(
            "forum-activity", True, 6.5,
            "post- and graph-heavy: JSON parsing of multi-post threads, the stats pipelines "
            "and a ~1.9k x 2.3k HITS participation graph; a ~200-word vocabulary",
        ),
        Workload(
            "cli-cold", False, 4.0,
            "fresh processes on a small corpus: interpreter start, numpy/scipy import, "
            "parser construction and manifest hashing dominate; gen is the write path",
        ),
    )
}


def work_dir(workload: str) -> str:
    return f"{WORK}/{workload}"


def _spec(seed: int, n: int, num_courses: int, p: float) -> dict:
    return {"kind": "uniform", "n": n, "num_courses": num_courses, "epsilon": 0.3, "p": p,
            "s": 100, "support_size": 50, "seed": seed}


# labeled-text: the roadmap's baseline spec at a quarter of its thread count (see README).
LABELED_COUNTS = (1250, 1250, 1250, 1250)
# cli-cold: the README's small spec.
COLD_COUNTS = (400, 400, 400)


def setup(workload: str, seed: int, tracer=None) -> dict:
    """Write the workload's inputs; return what the checks need to know.

    Runs inside a fresh worker process, so its wall time includes interpreter
    start and imports (the warm-up every later process also pays).
    """
    from forumlens.cli import main

    wd = work_dir(workload)
    os.makedirs(wd, exist_ok=True)
    if workload == "forum-activity":
        import forumgen

        forum = forumgen.generate(seed)
        forumgen.write(forum, f"{wd}/forum.jsonl", f"{wd}/meta.csv")
        return {
            "ttest_threshold": forum.ttest_threshold,
            "summary": {c.course_id: [c.num_threads, sum(t.length for t in c.threads)]
                        for c in forum.corpus.courses},
        }
    if workload == "labeled-text":
        spec, counts = _spec(seed, 5000, 4, 0.3), LABELED_COUNTS
    else:
        spec, counts = _spec(seed, 2000, 3, 0.5), COLD_COUNTS
    with open(f"{wd}/spec.json", "w", encoding="utf-8") as fh:
        json.dump(spec, fh, sort_keys=True)
    if workload == "labeled-text":
        argv = ["gen", "--spec", f"{wd}/spec.json", "--counts", ",".join(map(str, counts)),
                "--out", f"{wd}/gen"]
        code = tracer.run_command(main, argv) if tracer else main(argv)
        if code != 0:
            raise RuntimeError(f"gen exited {code}")
    return {"summary": {f"course{i:02d}": [n, n] for i, n in enumerate(counts)}}


def setup_outputs(workload: str) -> list[str]:
    """Directories whose files set-up writes, digested like command outputs."""
    wd = work_dir(workload)
    return [f"{wd}/gen"] if workload == "labeled-text" else []


def commands(workload: str, info: dict) -> list[Command]:
    """The commands of one pass, in order; each waits for the previous one."""
    wd = work_dir(workload)
    out = f"{wd}/out"
    cmds: list[Command] = []

    def add(family, name, *argv):
        cmds.append(Command(family, tuple(argv) + ("--out", f"{out}/{name}"), f"{out}/{name}"))

    if workload == "labeled-text":
        c = ("--threads", f"{wd}/gen/corpus.jsonl")
        add("ingest", "ingest", "ingest", *c)
        add("classify", "nb", "classify", "train", *c, "--algo", "nb")
        add("classify", "nb-percourse", "classify", "train", *c, "--algo", "nb", "--mode", "percourse")
        add("classify", "svm", "classify", "train", *c, "--algo", "svm", "--epochs", "5")
        add("classify", "eval", "classify", "eval", *c, "--model", f"{out}/nb/model.json")
        add("classify", "roc", "classify", "roc", *c, "--model", f"{out}/svm/model.json")
        add("topics", "extract", "topics", "extract", *c, "--course", "course00")
        add("topics", "converge", "topics", "converge", *c, "--course", "course00")
        for algo in ("topical", "tfidf", "hits"):
            add("rank", f"rank-{algo}", "rank", *c, "--course", "course00", "--algo", algo)
        add("compare", "compare", "compare", *c, "--course", "course00")
        add("stats", "series", "stats", "series", *c)
        add("stats", "trend", "stats", "trend", *c)
        add("stats", "shapiro", "stats", "shapiro", *c)
        add("stats", "moving-avg", "stats", "moving-avg", *c)
    elif workload == "forum-activity":
        c = ("--threads", f"{wd}/forum.jsonl")
        m = ("--meta", f"{wd}/meta.csv")
        add("ingest", "ingest", "ingest", *c, *m)
        add("stats", "series", "stats", "series", *c, *m)
        add("stats", "trend", "stats", "trend", *c, *m)
        add("stats", "panel-y", "stats", "panel", *c, *m, "--target", "y")
        add("stats", "panel-logz", "stats", "panel", *c, *m, "--target", "logz")
        add("stats", "shapiro", "stats", "shapiro", *c, *m)
        add("stats", "ttest", "stats", "ttest", *c, *m, "--threshold", str(info["ttest_threshold"]))
        add("classify", "svm", "classify", "train", *c, "--algo", "svm", "--epochs", "5")
        add("stats", "moving-avg", "stats", "moving-avg", *c, *m, "--model", f"{out}/svm/model.json")
        add("topics", "extract", "topics", "extract", *c, "--course", "course00")
        # course00's first 14 days: about 2k threads x 3k users
        add("rank", "rank-hits", "rank", *c, "--course", "course00", "--algo", "hits")
        add("rank", "rank-tfidf", "rank", *c, "--course", "course00", "--algo", "tfidf")
        # three extra warm-up days, not five: each day re-tokenizes the whole corpus
        add("compare", "compare", "compare", *c, "--course", "course00", "--exclude-staff",
            "--extra-days", "3")
    else:
        corpus = f"{out}/gen/corpus.jsonl"
        c = ("--threads", corpus)
        add("gen", "gen", "gen", "--spec", f"{wd}/spec.json",
            "--counts", ",".join(map(str, COLD_COUNTS)))
        add("ingest", "ingest", "ingest", *c)
        add("classify", "svm", "classify", "train", *c, "--algo", "svm")
        add("topics", "extract", "topics", "extract", *c, "--course", "course00",
            "--k", "50", "--warmup-days", "10")
        add("rank", "rank", "rank", *c, "--course", "course00", "--algo", "topical",
            "--warmup", "12", "--query", "2")
        add("compare", "compare", "compare", *c, "--course", "course00", "--high", "14")
        add("stats", "series", "stats", "series", *c)
    return cmds
