import argparse
import ast
import contextlib
import csv
import gc
import hashlib
import io
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import forumlens
import forumlens.cli
from forumlens.cli import _INPUT_FLAGS, _all_parsers, _dests, _unread, build_parser, main
from forumlens.corpus import (MAX_SERIES_ROWS, Post, Thread, ThreadColumns, ThreadRows, TokenTable, _CorpusParser,
                              day_indices, ingest_corpus)
from forumlens.errors import ConfigError, DegenerateGroup, InvariantViolation, ParseError
from forumlens.genmodel import make_spec
from forumlens.ranking import RankWindow, sample_query_days, split_window
from forumlens.stats import neighborhood_counts


def _write_spec(path, **overrides):
    obj = {
        "kind": "uniform",
        "n": 400,
        "num_courses": 2,
        "epsilon": 0.3,
        "p": 0.5,
        "s": 60,
        "support_size": 30,
        "seed": 7,
    }
    obj.update(overrides)
    path.write_text(json.dumps(obj))
    return path


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _hash_dir(root):
    out = {}
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


@pytest.fixture
def gen_corpus(tmp_path):
    spec = _write_spec(tmp_path / "spec.json")
    out = tmp_path / "gen"
    rc = main(["gen", "--spec", str(spec), "--counts", "60,60", "--out", str(out)])
    assert rc == 0
    return out / "corpus.jsonl"


def _meta_csv(tmp_path, corpus_path):
    corpus = ingest_corpus(corpus_path)
    rng = np.random.default_rng(5)
    lines = ["course_id,start_date,Q,V,L,D,P,S,H,category"]
    for i, course in enumerate(corpus.courses):
        dur = 30 + 10 * i  # long enough for rows > columns
        lines.append(
            f"{course.course_id},0,{i % 2},{(i + 1) % 2},{5.5 + i},{dur},{i % 2},{100 * (i + 1)},{i},HumanitiesSocial"
        )
    path = tmp_path / "meta.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestGen:
    def test_deterministic_rerun(self, tmp_path):
        spec = _write_spec(tmp_path / "spec.json")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            rc = main(["gen", "--spec", str(spec), "--counts", "40,40", "--out", str(out)])
            assert rc == 0
        # manifests echo the differing --out paths; data artifacts must match
        h1, h2 = _hash_dir(out1), _hash_dir(out2)
        h1.pop("manifest.json")
        h2.pop("manifest.json")
        assert h1 == h2

    def test_seed_flag_changes_corpus(self, tmp_path):
        spec = _write_spec(tmp_path / "spec.json")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["gen", "--spec", str(spec), "--counts", "40,40", "--out", str(out1)])
        main(["--seed", "8", "gen", "--spec", str(spec), "--counts", "40,40", "--out", str(out2)])
        a = (out1 / "corpus.jsonl").read_bytes()
        b = (out2 / "corpus.jsonl").read_bytes()
        assert a != b

    def test_reads_its_own_spec(self, tmp_path):
        spec = _write_spec(tmp_path / "spec.json")
        first, second = tmp_path / "r1", tmp_path / "r2"
        assert main(["gen", "--spec", str(spec), "--counts", "40,40", "--out", str(first)]) == 0
        assert "kind" not in json.loads((first / "spec.json").read_text())
        assert main(["gen", "--spec", str(first / "spec.json"), "--counts", "40,40", "--out", str(second)]) == 0
        for name in ("corpus.jsonl", "spec.json"):
            assert (second / name).read_bytes() == (first / name).read_bytes(), name

    def test_adversarial_spec_kind(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "adversarial", "n": 400}))
        out = tmp_path / "out"
        rc = main(["gen", "--spec", str(spec), "--counts", "10,0", "--out", str(out)])
        assert rc == 0
        assert (out / "corpus.jsonl").exists()


    def test_spec_with_no_words_refuses_a_thread(self, tmp_path, capsys):
        empty = {"vocab": [], "mass": []}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n": 0, "epsilon": 0.3, "p": [0.5], "s": 3, "background": empty,
                                    "smalltalk_topic": empty, "course_topics": [empty]}))
        out = tmp_path / "out"
        assert main(["gen", "--spec", str(spec), "--counts", "2", "--out", str(out)]) == 3
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "InvariantViolation" and "no words" in error["message"]
        assert not out.exists()


class TestIngestCommand:
    def test_summary_and_normalization(self, tmp_path, gen_corpus):
        out = tmp_path / "ing"
        rc = main(["ingest", "--threads", str(gen_corpus), "--out", str(out)])
        assert rc == 0
        rows = _read_csv(out / "summary.csv")
        assert {r["course_id"] for r in rows} == {"course00", "course01"}
        # normalization is a fixed point of serialize -> ingest -> serialize
        assert (out / "normalized.jsonl").read_bytes() == gen_corpus.read_bytes()

    def test_missing_input_is_config_error(self, tmp_path):
        rc = main(["ingest", "--threads", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_corrupt_input_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{ nope\n")
        rc = main(["ingest", "--threads", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ParseError"


class TestClassifyCommands:
    def test_train_eval_roc(self, tmp_path, gen_corpus):
        out = tmp_path / "m"
        rc = main(["classify", "train", "--threads", str(gen_corpus), "--algo", "svm",
                   "--epochs", "30", "--out", str(out)])
        assert rc == 0
        model = out / "model.json"
        out_eval = tmp_path / "e"
        rc = main(["classify", "eval", "--threads", str(gen_corpus), "--model", str(model),
                   "--out", str(out_eval)])
        assert rc == 0
        row = _read_csv(out_eval / "eval.csv")[0]
        assert 0.0 <= float(row["tpr"]) <= 1.0 and 0.0 <= float(row["fpr"]) <= 1.0
        out_roc = tmp_path / "r"
        rc = main(["classify", "roc", "--threads", str(gen_corpus), "--model", str(model),
                   "--theta-min", "-2", "--theta-max", "2", "--theta-steps", "9",
                   "--out", str(out_roc)])
        assert rc == 0
        rows = _read_csv(out_roc / "roc.csv")
        tprs = [float(r["tpr"]) for r in rows]
        assert tprs == sorted(tprs, reverse=True)
        # an equal --theta-min and --theta-max sweep one threshold, --theta-steps times
        rc = main(["classify", "roc", "--threads", str(gen_corpus), "--model", str(model),
                   "--theta-min", "0.5", "--theta-max", "0.5", "--theta-steps", "2",
                   "--out", str(tmp_path / "r1")])
        assert rc == 0
        assert [r["theta"] for r in _read_csv(tmp_path / "r1" / "roc.csv")] == ["0.5", "0.5"]

    def test_nb_percourse(self, tmp_path, gen_corpus):
        out = tmp_path / "m"
        rc = main(["classify", "train", "--threads", str(gen_corpus), "--algo", "nb",
                   "--mode", "percourse", "--out", str(out)])
        assert rc == 0
        obj = json.loads((out / "model.json").read_text())
        assert obj["kind"] == "nb-percourse"

    def test_nb_on_stopword_only_threads_is_a_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(_thread_line(thread_id="t1", text="a b the", label="SmallTalk") + "\n"
                          + _thread_line(thread_id="t2", text="x y and", label="Logistics") + "\n")
        out = tmp_path / "m"
        rc = main(["classify", "train", "--threads", str(corpus), "--algo", "nb", "--out", str(out)])
        assert rc == 3
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "EmptyCorpus"
        assert not (out / "manifest.json").exists()

    def test_roc_sweeps_nb_model_as_eval_decides(self, tmp_path, gen_corpus):
        """An NB sweep's row at a threshold has the counts of ``classify eval --theta`` there."""
        model = tmp_path / "m" / "model.json"
        main(["classify", "train", "--threads", str(gen_corpus), "--algo", "nb", "--out", str(model.parent)])
        base = ["--threads", str(gen_corpus), "--model", str(model)]
        assert main(["classify", "roc", *base, "--theta-min", "-1", "--theta-max", "1",
                     "--theta-steps", "5", "--out", str(tmp_path / "r")]) == 0
        rows = {r["theta"]: r for r in _read_csv(tmp_path / "r" / "roc.csv")}
        assert list(rows) == ["-1", "-0.5", "0", "0.5", "1"]
        counts = ["tp", "fp", "tn", "fn"]
        for theta, swept in rows.items():
            assert main(["classify", "eval", *base, "--theta", theta, "--out", str(tmp_path / theta)]) == 0
            [row] = _read_csv(tmp_path / theta / "eval.csv")
            assert [row[k] for k in counts] == [swept[k] for k in counts]

    def test_roc_refuses_percourse_nb_model(self, tmp_path, gen_corpus, capsys):
        model = tmp_path / "m" / "model.json"
        main(["classify", "train", "--threads", str(gen_corpus), "--algo", "nb", "--mode", "percourse",
              "--out", str(model.parent)])
        out = tmp_path / "r"
        assert main(["classify", "roc", "--threads", str(gen_corpus), "--model", str(model),
                     "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "ConfigError"
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["aggregate", "percourse"])
    def test_nb_theta_reads_flag_and_config_alike(self, tmp_path, gen_corpus, mode):
        """A --config theta only fills --theta for NB models too; theta 0 is the NB default."""
        model = tmp_path / "m" / "model.json"
        main(["classify", "train", "--threads", str(gen_corpus), "--algo", "nb", "--mode", mode,
              "--out", str(model.parent)])
        config = tmp_path / "config.json"
        config.write_text('{"theta": 0.5}')
        base = ["classify", "eval", "--threads", str(gen_corpus), "--model", str(model)]
        runs = {"config": ["--config", str(config), *base], "flag": [*base, "--theta", "0.5"],
                "zero": [*base, "--theta", "0"], "default": base, "high": [*base, "--theta", "1e9"]}
        for name, argv in runs.items():
            assert main([*argv, "--out", str(tmp_path / name)]) == 0, name
        csv = {name: (tmp_path / name / "eval.csv").read_bytes() for name in runs}
        assert csv["config"] == csv["flag"]
        assert csv["zero"] == csv["default"]
        assert csv["high"] != csv["default"]  # no thread reaches odds of 1e9: every decision is negative


class TestTopicsCommands:
    def test_extract_row_count(self, tmp_path, gen_corpus):
        out = tmp_path / "kw"
        rc = main(["topics", "extract", "--threads", str(gen_corpus), "--course", "course00",
                   "--k", "30", "--warmup-days", "10", "--out", str(out)])
        assert rc == 0
        rows = _read_csv(out / "keywords.csv")
        assert len(rows) == 30
        gammas = [float(r["gamma"]) for r in rows]
        assert gammas == sorted(gammas, reverse=True)

    def test_converge(self, tmp_path, gen_corpus):
        out = tmp_path / "cv"
        rc = main(["topics", "converge", "--threads", str(gen_corpus), "--course", "course00",
                   "--k", "30", "--out", str(out)])
        assert rc == 0
        rows = _read_csv(out / "convergence.csv")
        assert rows and all(0.0 <= float(r["kendall_tau"]) <= 1.0 for r in rows)


class TestRankCommands:
    @pytest.mark.parametrize("algo", ["topical", "tfidf", "hits"])
    def test_rank_algos(self, tmp_path, gen_corpus, algo):
        out = tmp_path / f"rank-{algo}"
        rc = main(["rank", "--threads", str(gen_corpus), "--course", "course00",
                   "--algo", algo, "--warmup", "1", "--query", "1", "--out", str(out)])
        assert rc == 0
        rows = _read_csv(out / "ranked.csv")
        assert rows
        scores = [float(r["score"]) for r in rows]
        assert scores == sorted(scores, reverse=True)

    def test_compare(self, tmp_path, gen_corpus):
        out = tmp_path / "cmp"
        rc = main(["--seed", "4", "compare", "--threads", str(gen_corpus), "--course", "course00",
                   "--low", "1", "--high", "2", "--extra-days", "1", "--query", "1",
                   "--k", "10", "--out", str(out)])
        assert rc == 0
        rows = _read_csv(out / "compare.csv")
        assert rows
        assert {r["baseline"] for r in rows} <= {"tfidf", "hits"}


class TestTokenizeOnce:
    """Each command tokenizes a thread at most once per text view."""

    @pytest.fixture(autouse=True)
    def no_table(self):
        forumlens.cli._PARSED.clear()  # gen_corpus has the same bytes in every test: no warm table

    @pytest.mark.parametrize("extra, most", [([], 1), (["--exclude-staff"], 2)])
    def test_compare(self, tmp_path, gen_corpus, calls, extra, most):
        rc = main(["--seed", "4", "compare", "--threads", str(gen_corpus), "--course", "course00",
                   "--low", "1", "--high", "2", "--extra-days", "1", "--query", "1",
                   *extra, "--out", str(tmp_path / "cmp")])
        assert rc == 0
        # the keyword fit reads the background, and the course through the last warm-up day;
        # each day's tf-idf and topical scores read its query rows
        corpus = ingest_corpus(gen_corpus)
        course = corpus.course("course00")
        days = sample_query_days(1, 2, 1, seed=4)
        assert {int(r["warmup_day"]) for r in _read_csv(tmp_path / "cmp" / "compare.csv")} == set(days)
        course_days = day_indices(course.columns.created_at, course.start_date)
        read = set(corpus.course("course01").columns.thread_ids)
        read |= {tid for tid, d in zip(course.columns.thread_ids, course_days.tolist())
                 if d <= max(days) or any(w < d <= w + 1 for w in days)}
        assert set(calls) == read
        assert max(calls.values()) <= most

    def test_extract_reads_no_course_thread_after_the_warmup(self, tmp_path, gen_corpus, calls):
        rc = main(["topics", "extract", "--threads", str(gen_corpus), "--course", "course00",
                   "--warmup-days", "1", "--out", str(tmp_path / "kw")])
        assert rc == 0
        corpus = ingest_corpus(gen_corpus)
        course = corpus.course("course00")
        course_days = day_indices(course.columns.created_at, course.start_date).tolist()
        warmup = {tid for tid, d in zip(course.columns.thread_ids, course_days) if d <= 1}
        assert 0 < len(warmup) < course.num_threads
        assert set(calls) == warmup | set(corpus.course("course01").columns.thread_ids)
        assert max(calls.values()) == 1

    def test_rank_tfidf_reads_only_the_window(self, tmp_path, gen_corpus, calls):
        rc = main(["rank", "--threads", str(gen_corpus), "--course", "course00", "--algo", "tfidf",
                   "--warmup", "1", "--query", "1", "--out", str(tmp_path / "r")])
        assert rc == 0
        course = ingest_corpus(gen_corpus).course("course00")
        rows = ThreadRows(course.columns, np.arange(course.num_threads))
        window, _ = split_window(rows, course.start_date, RankWindow(1, 1))
        window_ids = set(window.thread_ids)
        assert len(window_ids) < course.num_threads
        assert set(calls) == window_ids
        assert max(calls.values()) == 1

    @pytest.mark.parametrize("algo, mode", [("nb", "aggregate"), ("nb", "percourse"), ("svm", "aggregate")])
    def test_classify_and_moving_avg(self, tmp_path, gen_corpus, calls, algo, mode):
        model = tmp_path / "m" / "model.json"
        corpus = ["--threads", str(gen_corpus)]
        # each algorithm is given only the flags it reads
        algo_flags = ["--mode", mode] if algo == "nb" else ["--epochs", "2"]
        commands = [
            ["classify", "train", *corpus, "--algo", algo, *algo_flags, "--out", str(model.parent)],
            ["classify", "eval", *corpus, "--model", str(model), "--out", str(tmp_path / "e")],
        ]
        if algo == "svm":
            commands += [
                ["classify", "roc", *corpus, "--model", str(model), "--out", str(tmp_path / "r")],
                ["stats", "moving-avg", *corpus, "--model", str(model), "--out", str(tmp_path / "ma")],
            ]
        for argv in commands:
            assert main(argv) == 0, argv
            assert calls, argv
        assert max(calls.values()) == 1  # the commands share one table: no row is split twice

    def test_rank_hits_tokenizes_nothing(self, tmp_path, gen_corpus, calls):
        rc = main(["rank", "--threads", str(gen_corpus), "--course", "course00", "--algo", "hits",
                   "--warmup", "1", "--query", "1", "--out", str(tmp_path / "r")])
        assert rc == 0
        assert not calls


@pytest.fixture(scope="module")
def twelve_courses(tmp_path_factory):
    """(spec, corpus, meta): 12 courses of 30 threads, enough to fit the panel regression."""
    root = tmp_path_factory.mktemp("twelve")
    spec = _write_spec(root / "spec.json", n=800, num_courses=12, support_size=20, s=40)
    rc = main(["gen", "--spec", str(spec), "--counts", ",".join(["30"] * 12),
               "--out", str(root / "gen12")])
    assert rc == 0
    corpus_path = root / "gen12" / "corpus.jsonl"
    rng = np.random.default_rng(5)
    lines = ["course_id,start_date,Q,V,L,D,P,S,H,category"]
    for course in ingest_corpus(corpus_path).courses:
        dur = int(rng.integers(2, 6))
        lines.append(
            f"{course.course_id},0,{rng.integers(0, 2)},{rng.integers(0, 2)},"
            f"{rng.uniform(2, 20):.2f},{dur},{rng.integers(0, 2)},{rng.integers(0, 500)},"
            f"{rng.integers(0, 12)},HumanitiesSocial"
        )
    meta = root / "meta.csv"
    meta.write_text("\n".join(lines) + "\n")
    return spec, corpus_path, meta


class TestStatsCommands:
    def test_series_trend_panel(self, tmp_path, twelve_courses):
        _, corpus_path, meta = twelve_courses
        out = tmp_path / "series"
        assert main(["stats", "series", "--threads", str(corpus_path), "--meta", str(meta),
                     "--out", str(out)]) == 0
        assert _read_csv(out / "series.csv")

        out = tmp_path / "trend"
        assert main(["stats", "trend", "--threads", str(corpus_path), "--meta", str(meta),
                     "--out", str(out)]) == 0
        assert len(_read_csv(out / "trend.csv")) == 12

        out = tmp_path / "panel"
        assert main(["stats", "panel", "--threads", str(corpus_path), "--meta", str(meta),
                     "--target", "y", "--out", str(out)]) == 0
        rows = _read_csv(out / "panel.csv")
        assert [r["term"] for r in rows][:3] == ["(intercept)", "Q:t", "V:t"]

    def test_panel_rank_deficient_exit_code(self, tmp_path, gen_corpus):
        meta = _meta_csv(tmp_path, gen_corpus)
        out = tmp_path / "panel"
        # two courses cannot identify 18 factor columns
        rc = main(["stats", "panel", "--threads", str(gen_corpus), "--meta", str(meta),
                   "--out", str(out)])
        assert rc == 4

    def test_ttest_and_moving_avg(self, tmp_path, gen_corpus):
        out = tmp_path / "tt"
        rc = main(["stats", "ttest", "--threads", str(gen_corpus), "--threshold", "38",
                   "--out", str(out)])
        assert rc == 0
        row = _read_csv(out / "ttest.csv")[0]
        assert 0.0 <= float(row["t_p_one_sided"]) <= 1.0

        out = tmp_path / "ma"
        rc = main(["stats", "moving-avg", "--threads", str(gen_corpus), "--out", str(out)])
        assert rc == 0
        rows = _read_csv(out / "moving_avg.csv")
        assert rows
        assert all(0.0 <= float(r["s_t"]) <= 1.0 / 0.99 + 1e-9 for r in rows)

    def test_moving_avg_window_edges(self, tmp_path):
        """--max-days counts a thread when created_at - start_date <= max_days * 86400: the thread
        at exactly that second counts, and so does one before the start; one second later does not."""
        start = 87_400
        times = [start - 86_400, start, start + 86_400, start + 86_401]
        corpus_path, meta = tmp_path / "corpus.jsonl", tmp_path / "meta.csv"
        corpus_path.write_text("\n".join(
            _thread_line(thread_id=f"t{i}", post_id=f"p{i}", created_at=ts, timestamp=ts, label="SmallTalk")
            for i, ts in enumerate(times)) + "\n")
        meta.write_text(_META_HEADER + _META_ROW.replace("course00,0,", f"c,{start},"))
        out = tmp_path / "ma"
        rc = main(["stats", "moving-avg", "--threads", str(corpus_path), "--meta", str(meta), "--max-days", "1",
                   "--out", str(out)])
        assert rc == 0
        assert [float(r["elapsed_days"]) for r in _read_csv(out / "moving_avg.csv")] == [-1.0, 0.0, 1.0]

    def test_failed_run_writes_no_manifest(self, tmp_path, gen_corpus):
        # 24 threads a day keep f(h, 1 day) below the default threshold: group 2 is empty
        out = tmp_path / "tt"
        rc = main(["stats", "ttest", "--threads", str(gen_corpus), "--out", str(out)])
        assert rc == 3
        assert not out.exists()

    def test_shapiro_outputs_qq(self, tmp_path):
        corpus_path = _fluctuating_corpus(tmp_path / "fluct.jsonl", "solo")
        out = tmp_path / "sh"
        rc = main(["stats", "shapiro", "--threads", str(corpus_path), "--out", str(out)])
        assert rc == 0
        assert _read_csv(out / "shapiro.csv")[0]["course_id"] == "solo"
        assert (out / "qq_solo.csv").exists()


class TestCommandsBuildNoThreads:
    """Every command path, HITS ranking included, reads the corpus columns and builds no Thread or Post."""

    def test_no_thread_objects(self, tmp_path, twelve_courses, monkeypatch):
        spec, corpus_path, meta = twelve_courses
        f_values = [f for c in ingest_corpus(corpus_path).courses for f in neighborhood_counts(c).values()]

        def refuse(self):
            raise AssertionError("a thread object was built")

        monkeypatch.setattr(ThreadColumns, "threads", property(refuse))
        monkeypatch.setattr(Thread, "__post_init__", refuse)
        monkeypatch.setattr(Post, "__post_init__", refuse)
        corpus = ingest_corpus(corpus_path)
        assert corpus.num_posts == 360
        with pytest.raises(AssertionError):
            corpus.courses[0].threads
        model = str(tmp_path / "train" / "model.json")
        course = ["--course", "course00"]
        window = [*course, "--warmup", "1", "--query", "1"]
        compare = ["compare", *course, "--low", "1", "--high", "2", "--extra-days", "1", "--query", "1"]
        commands = [["gen", "--spec", str(spec), "--counts", ",".join(["30"] * 12)],
                    ["ingest"], ["classify", "train", "--algo", "svm", "--epochs", "2"],
                    ["classify", "eval", "--model", model], ["classify", "roc", "--model", model],
                    ["topics", "extract", *course], ["topics", "converge", *course],
                    ["rank", "--algo", "topical", *window], ["rank", "--algo", "tfidf", *window],
                    ["rank", "--algo", "hits", *window], compare,
                    ["stats", "series"], ["stats", "trend"], ["stats", "panel"], ["stats", "shapiro"],
                    ["stats", "ttest", "--threshold", str(min(f_values))], ["stats", "moving-avg"],
                    ["stats", "moving-avg", "--model", model]]
        for i, command in enumerate(commands):
            out = tmp_path / ("train" if command[:2] == ["classify", "train"] else str(i))
            data = [] if command[0] == "gen" else ["--threads", str(corpus_path)]
            if command[0] in ("ingest", "stats"):
                data += ["--meta", str(meta)]
            assert main([*command, *data, "--out", str(out)]) == 0, command
            assert (out / "manifest.json").exists()
        compared = _read_csv(tmp_path / str(commands.index(compare)) / "compare.csv")
        assert {row["baseline"] for row in compared} == {"tfidf", "hits"}  # HITS ran


def _fluctuating_corpus(path, course_id):
    """One course whose daily volume fluctuates, so count differences vary and Q-Q points exist."""
    rng = np.random.default_rng(13)
    rows = []
    for i, ts in enumerate(sorted(rng.integers(0, 40 * 86400, size=400).tolist())):
        rows.append(
            {
                "course_id": course_id,
                "thread_id": f"t{i:04d}",
                "created_at": ts,
                "label": None,
                "posts": [
                    {"post_id": "p0", "author_id": f"u{i % 17}", "timestamp": ts,
                     "text": "some words here", "is_staff": False}
                ],
            }
        )
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return path


class TestConfigAndErrors:
    def test_config_file_defaults_and_flag_override(self, tmp_path, gen_corpus):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 25, "warmup_days": 10}))
        out = tmp_path / "kw"
        rc = main(["--config", str(cfg), "topics", "extract", "--threads", str(gen_corpus),
                   "--course", "course00", "--out", str(out)])
        assert rc == 0
        assert len(_read_csv(out / "keywords.csv")) == 25
        out2 = tmp_path / "kw2"
        rc = main(["--config", str(cfg), "topics", "extract", "--threads", str(gen_corpus),
                   "--course", "course00", "--k", "12", "--out", str(out2)])
        assert rc == 0
        assert len(_read_csv(out2 / "keywords.csv")) == 12

    def test_config_equals_form(self, tmp_path, gen_corpus):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 7}))
        out = tmp_path / "kw"
        rc = main([f"--config={cfg}", "topics", "extract", "--threads", str(gen_corpus),
                   "--course", "course00", "--out", str(out)])
        assert rc == 0
        assert len(_read_csv(out / "keywords.csv")) == 7

    def test_config_missing_value(self, capsys):
        rc = main(["--config"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigError"
        assert "--config" in err["error"]["message"]

    def test_unknown_config_key(self, tmp_path, gen_corpus, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nonsense_key": 1}))
        rc = main(["--config", str(cfg), "ingest", "--threads", str(gen_corpus),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert "nonsense_key" in err["error"]["message"]

    def test_compare_high_far_beyond_the_corpus(self, tmp_path, gen_corpus):
        # the warm-up days are drawn in memory independent of --high; the two drawn past the
        # corpus's last day rank no query threads, so only day 1 writes rows
        for high in ("1", "1000000000000"):
            rc = main(["--seed", "4", "compare", "--threads", str(gen_corpus), "--course", "course00",
                       "--low", "1", "--high", high, "--extra-days", "2", "--query", "1",
                       "--out", str(tmp_path / high)])
            assert rc == 0
        rows = _read_csv(tmp_path / "1000000000000" / "compare.csv")
        assert rows and rows == _read_csv(tmp_path / "1" / "compare.csv")

    def test_compare_one_day_window(self, tmp_path, gen_corpus):
        out = tmp_path / "cmp"
        rc = main(["--seed", "4", "compare", "--threads", str(gen_corpus), "--course", "course00",
                   "--low", "1", "--high", "2", "--extra-days", "1", "--query", "1",
                   "--k", "10", "--out", str(out)])
        assert rc == 0
        assert _read_csv(out / "compare.csv")

    def test_writes_stay_inside_out_dir(self, tmp_path, gen_corpus, monkeypatch):
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        out = tmp_path / "only-here"
        rc = main(["ingest", "--threads", str(gen_corpus), "--out", str(out)])
        assert rc == 0
        assert list(workdir.iterdir()) == []

    def test_manifest_contents(self, tmp_path, gen_corpus):
        out = tmp_path / "o"
        main(["ingest", "--threads", str(gen_corpus), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"].startswith("forumlens ")
        assert str(gen_corpus) in manifest["inputs"]
        assert manifest["config"]["out"] == str(out)


class TestDefaults:
    """Documented default parameter values, frozen."""

    def test_parser_defaults(self):
        from forumlens.cli import build_parser

        parser = build_parser()
        rank = parser.parse_args(["rank", "--threads", "x", "--course", "c", "--out", "o"])
        assert rank.alpha == 0.96
        assert rank.warmup == 12 and rank.query == 2
        assert rank.k == 15 and rank.keyword_k == 50
        topics = parser.parse_args(
            ["topics", "extract", "--threads", "x", "--course", "c", "--out", "o"]
        )
        assert topics.k == 50 and topics.warmup_days == 10
        shapiro = parser.parse_args(["stats", "shapiro", "--threads", "x", "--out", "o"])
        assert shapiro.trim == 0.03
        ttest = parser.parse_args(["stats", "ttest", "--threads", "x", "--out", "o"])
        assert ttest.threshold == 140.0
        ma = parser.parse_args(["stats", "moving-avg", "--threads", "x", "--out", "o"])
        assert ma.alpha_ma == 0.99 and ma.denominator == "printed"

    def test_stopword_file_and_staff_flags(self, tmp_path, gen_corpus):
        # dropping half of the vocabulary via a stopword file changes keywords
        sw = tmp_path / "sw.txt"
        sw.write_text("\n".join(f"w{i:03d}" for i in range(0, 400, 2)))
        out1, out2 = tmp_path / "k1", tmp_path / "k2"
        base = ["topics", "extract", "--threads", str(gen_corpus), "--course", "course00",
                "--k", "20"]
        assert main(base + ["--out", str(out1)]) == 0
        assert main(base + ["--stopwords", str(sw), "--out", str(out2)]) == 0
        words2 = {r["word"] for r in _read_csv(out2 / "keywords.csv")}
        assert not any(int(w[1:]) % 2 == 0 for w in words2)
        assert main(base + ["--exclude-staff", "--out", str(tmp_path / "k3")]) == 0

    def test_stopword_file_matches_regardless_of_case(self, tmp_path):
        # tokens are lowercased, so a listed "The" drops "the"; a BOM does not hide the first word
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("\n".join([
            _thread_line(thread_id="t1", post_id="p1", label="SmallTalk", text="The cat IS here"),
            _thread_line(thread_id="t2", post_id="p2", label="Logistics", text="the exam is due"),
        ]))
        sw = tmp_path / "sw.txt"
        sw.write_text("\ufeffThe\nIS\n", encoding="utf-8")
        out = tmp_path / "nb"
        assert main(["classify", "train", "--threads", str(corpus), "--stopwords", str(sw),
                     "--out", str(out)]) == 0
        vocab = json.loads((out / "model.json").read_text())["vocab"]
        assert sorted(vocab) == ["cat", "due", "exam", "here"]


_NB = ('{"kind": "nb", "mode": "aggregate", "pseudocount": 1.0, "vocab": ["aa"], '
       '"log_prior": [-0.6931471805599453, -0.6931471805599453], '
       '"log_cond_neg": [0.0], "log_cond_pos": [0.0]}')


def _thread_line(**fields):
    """One corpus line whose thread and post fields are overridden by ``fields``."""
    post = {"post_id": "p", "author_id": "u", "timestamp": 0, "text": "hi"}
    thread = {"course_id": "c", "thread_id": "t", "created_at": 0}
    for key, value in fields.items():
        (post if key in post or key == "is_staff" else thread)[key] = value
    return json.dumps({**thread, "posts": [post]})


_BAD_LABEL = ('{"course_id": "c", "thread_id": "t", "created_at": 0, "label": ["x"], '
              '"posts": [{"post_id": "p", "author_id": "u", "timestamp": 0, "text": "hi"}]}')


_SPEC = json.dumps({"kind": "uniform", "n": 400, "num_courses": 2, "epsilon": 0.3, "p": 0.5, "s": 20})

_META_HEADER = "course_id,start_date,Q,V,L,D,P,S,H,category\n"
_META_ROW = "course00,0,1,0,5.5,30,0,100,2,HumanitiesSocial\n"
# two courses whose threads lie 2**62 s apart: a series to the last day would have 53,375,995,583,651 rows
_FAR_APART = "\n".join(_thread_line(course_id=c, thread_id=f"{c}{t}", post_id=f"{c}p{t}", created_at=t, timestamp=t,
                                     text="gradient descent") for c in "cd" for t in (0, 2**62))

_VALID_SPEC = make_spec(n=200, num_courses=2, epsilon=0.3, p=0.5, s=10, support_size=20).to_json()
# an explicit spec whose s_per_course holds a negative length
_EXPLICIT_SPEC = json.dumps({"kind": "explicit", "spec": {**json.loads(_VALID_SPEC), "s_per_course": [3, -1]}})


def _with_each_model(change):
    """_VALID_SPEC after ``change`` has been applied to each of its {"vocab", "mass"} models."""
    obj = json.loads(_VALID_SPEC)
    for model in (obj["background"], obj["smalltalk_topic"], *obj["course_topics"]):
        change(model)
    return json.dumps(obj)


class TestBadInput:
    """Bad input ends in exit 2 or 3 with the JSON error object, never a traceback."""

    # CORPUS stands for a valid corpus, FILE for a file holding the given text, DIR for a
    # directory and BINARY for a file that is not UTF-8
    @pytest.mark.parametrize(
        "argv, text, code, error",
        [
            (["compare", "--threads", "CORPUS", "--course", "nope"], None, 2, "ConfigError"),
            (["topics", "extract", "--threads", "CORPUS", "--course", "nope"], None, 2, "ConfigError"),
            (["classify", "eval", "--threads", "CORPUS", "--model", "FILE"],
             '{"kind": "nope"}', 3, "ParseError"),
            (["classify", "eval", "--threads", "CORPUS", "--model", "FILE"],
             '{"kind": "svm"}', 3, "ParseError"),
            (["classify", "eval", "--threads", "CORPUS", "--model", "FILE"], "[1, 2]", 3, "ParseError"),
            (["gen", "--spec", "FILE"], '{"kind": "uniform", "n": 100}', 3, "ParseError"),
            (["gen", "--spec", "FILE"], "{", 3, "ParseError"),
            (["ingest", "--threads", "FILE"], _BAD_LABEL, 3, "ParseError"),
            (["stats", "moving-avg", "--threads", "CORPUS", "--model", "FILE"],
             '{"kind": "nb-percourse", "models": {"course00": %s}}' % _NB, 2, "ConfigError"),
            (["classify", "eval", "--threads", "CORPUS", "--model", "FILE"],
             '{"kind": "svm", "weights": [1], "bias": 0, "theta": 0}', 3, "ParseError"),
            (["classify", "eval", "--threads", "CORPUS", "--model", "FILE"],
             _NB.replace('"log_cond_neg": [0.0]', '"log_cond_neg": ["x"]'), 3, "ParseError"),
            (["classify", "eval", "--threads", "CORPUS", "--model", "FILE"],
             _NB.replace("[-0.6931471805599453, -0.6931471805599453]", "[0.0]"), 3, "ParseError"),
            (["classify", "eval", "--threads", "CORPUS", "--model", "FILE"],
             _NB.replace("[-0.6931471805599453, -0.6931471805599453]", '"x"'), 3, "ParseError"),
            (["classify", "eval", "--threads", "CORPUS", "--model", "FILE"],
             '{"kind": "nb-percourse", "models": null}', 3, "ParseError"),
            (["classify", "eval", "--threads", "CORPUS", "--model", "FILE"],
             '{"kind": "nb-percourse", "models": 5}', 3, "ParseError"),
            (["gen", "--spec", "FILE"], json.dumps(
                {"kind": "uniform", "n": "100", "num_courses": 2, "epsilon": 0.3, "p": 0.5, "s": 60}
            ), 3, "InvariantViolation"),
            # usage errors
            (["--config", "FILE", "topics", "extract", "--threads", "CORPUS", "--course", "course00"],
             '{"k": "x"}', 2, "ConfigError"),
            (["classify", "train", "--threads", "CORPUS", "--epochs", "x"], None, 2, "ConfigError"),
            (["rank", "--threads", "CORPUS"], None, 2, "ConfigError"),
            (["ingest", "--threads", "DIR"], None, 2, "ConfigError"),
            (["ingest", "--threads", "BINARY"], None, 3, "ParseError"),
            (["--config", "FILE", "classify", "train", "--threads", "CORPUS"],
             '{"algo": "bogus"}', 2, "ConfigError"),
            (["--config", "FILE", "stats", "series", "--threads", "CORPUS"],
             '{"meta": true}', 2, "ConfigError"),
            (["--config", "FILE", "stats", "series", "--threads", "CORPUS"],
             '{"meta": "a\\u0000b"}', 2, "ConfigError"),
            # wrong-typed thread fields
            (["ingest", "--threads", "FILE"], _thread_line(is_staff="no"), 3, "ParseError"),
            (["ingest", "--threads", "FILE"], _thread_line(text=None), 3, "ParseError"),
            (["ingest", "--threads", "FILE"], _thread_line(course_id=None), 3, "ParseError"),
            (["ingest", "--threads", "FILE"], _thread_line(thread_id=[1]), 3, "ParseError"),
            (["ingest", "--threads", "FILE"], _thread_line(author_id=False), 3, "ParseError"),
            (["ingest", "--threads", "FILE"], _thread_line(text="X").replace('"X"', "[" * 1100 + "]" * 1100),
             3, "ParseError"),
            # a repeated id
            (["ingest", "--threads", "FILE"], _thread_line() + "\n" + _thread_line(), 3,
             "InvariantViolation"),
            (["stats", "series", "--threads", "CORPUS", "--meta", "FILE"], _META_HEADER + _META_ROW * 2,
             3, "InvariantViolation"),
            # metadata rows with too few or too many fields, or video hours that are not finite
            (["stats", "panel", "--threads", "CORPUS", "--meta", "FILE"], _META_HEADER + "course00,0,1,0,5.5\n",
             3, "ParseError"),
            (["stats", "panel", "--threads", "CORPUS", "--meta", "FILE"],
             _META_HEADER + _META_ROW.replace("\n", ",x\n"), 3, "ParseError"),
            (["stats", "panel", "--threads", "CORPUS", "--meta", "FILE"],
             _META_HEADER + _META_ROW.replace("5.5", "nan"), 3, "InvariantViolation"),
            (["stats", "panel", "--threads", "CORPUS", "--meta", "FILE"],
             _META_HEADER + _META_ROW.replace("5.5", "inf"), 3, "InvariantViolation"),
            # spec fields the sampler cannot use, and a model vocabulary that repeats a word
            (["gen", "--spec", "FILE", "--counts", "3,3"], _SPEC.replace('"s": 20', '"s": 3.5'), 3,
             "InvariantViolation"),
            (["gen", "--spec", "FILE", "--counts", "3,3"], _SPEC[:-1] + ', "seed": -5}', 3, "InvariantViolation"),
            (["gen", "--spec", "FILE", "--counts", "3,3"], _SPEC.replace('"s": 20', '"s": true'), 3,
             "InvariantViolation"),
            (["gen", "--spec", "FILE", "--counts", "3,3"],
             _SPEC.replace('"num_courses": 2', '"num_courses": %d' % 2**64), 3, "InvariantViolation"),
            (["gen", "--spec", "FILE", "--counts", "3,3"], _EXPLICIT_SPEC, 3, "InvariantViolation"),
            (["gen", "--spec", "FILE"], _SPEC[:-1] + ', "training_counts": [2.5, 3]}', 3,
             "InvariantViolation"),
            (["classify", "eval", "--threads", "CORPUS", "--model", "FILE"],
             _NB.replace('["aa"]', '["aa", "aa"]').replace("[0.0]", "[-0.6931471805599453, -0.6931471805599453]"),
             3, "InvariantViolation"),
            # sizes and windows that must be positive
            (["stats", "panel", "--threads", "CORPUS", "--meta", "FILE", "--scale-staff", "0"],
             _META_HEADER + _META_ROW, 2, "ConfigError"),
            (["stats", "panel", "--threads", "CORPUS", "--meta", "FILE", "--scale-staff", "-100"],
             _META_HEADER + _META_ROW, 2, "ConfigError"),
            (["stats", "ttest", "--threads", "CORPUS", "--t-days", "-1"], None, 2, "ConfigError"),
            (["stats", "ttest", "--threads", "CORPUS", "--t-days", "0"], None, 2, "ConfigError"),
            (["topics", "extract", "--threads", "CORPUS", "--course", "course00", "--k", "-3"],
             None, 2, "ConfigError"),
            (["topics", "converge", "--threads", "CORPUS", "--course", "course00", "--k", "0"],
             None, 2, "ConfigError"),
            (["rank", "--threads", "CORPUS", "--course", "course00", "--keyword-k", "-1"],
             None, 2, "ConfigError"),
            (["compare", "--threads", "CORPUS", "--course", "course00", "--keyword-k", "0"],
             None, 2, "ConfigError"),
            (["compare", "--threads", "CORPUS", "--course", "course00", "--k", "-3"],
             None, 2, "ConfigError"),
            (["--config", "FILE", "topics", "extract", "--threads", "CORPUS", "--course", "course00"],
             '{"k": -3}', 2, "ConfigError"),
            # counts, seeds and steps out of range
            (["gen", "--spec", "FILE", "--counts", "5,5", "--threads-per-day", "0"], _SPEC, 2,
             "ConfigError"),
            (["--seed", "-1", "gen", "--spec", "FILE", "--counts", "5,5"], _SPEC, 2, "ConfigError"),
            (["--seed", "-1", "compare", "--threads", "CORPUS", "--course", "course00"], None, 2,
             "ConfigError"),
            (["compare", "--threads", "CORPUS", "--course", "course00", "--extra-days", "-1"], None, 2,
             "ConfigError"),
            (["classify", "roc", "--threads", "CORPUS", "--model", "FILE", "--theta-steps", "-1"],
             '{"kind": "svm", "weights": {"aa": 1.0}, "bias": 0, "theta": 0}', 2, "ConfigError"),
            (["gen", "--spec", "FILE", "--counts", "a,b,c"], _SPEC, 2, "ConfigError"),
            (["gen", "--spec", "FILE", "--counts", "5,,5"], _SPEC, 2, "ConfigError"),
            (["gen", "--spec", "FILE", "--counts=-1,5"], _SPEC, 2, "ConfigError"),
            (["--config", "FILE", "gen", "--spec", "FILE"], '{"counts": "5,-1"}', 2, "ConfigError"),
            (["gen", "--spec", "FILE", "--counts", "5,5,5"], _SPEC, 2, "ConfigError"),
            (["gen", "--spec", "FILE"], _SPEC[:-1] + ', "training_counts": [5, 5, 5]}', 3,
             "InvariantViolation"),
            # windows that must be positive
            (["topics", "extract", "--threads", "CORPUS", "--course", "course00", "--warmup-days", "-1"],
             None, 2, "ConfigError"),
            (["topics", "extract", "--threads", "CORPUS", "--course", "course00", "--warmup-days", "0"],
             None, 2, "ConfigError"),
            (["topics", "converge", "--threads", "CORPUS", "--course", "course00", "--max-days", "-2"],
             None, 2, "ConfigError"),
            (["stats", "moving-avg", "--threads", "CORPUS", "--max-days", "-1"], None, 2, "ConfigError"),
            (["--config", "FILE", "stats", "moving-avg", "--threads", "CORPUS"], '{"max_days": 0}', 2,
             "ConfigError"),
            # floats that are not finite
            (["classify", "train", "--threads", "CORPUS", "--pseudocount", "nan"], None, 2, "ConfigError"),
            (["classify", "train", "--threads", "CORPUS", "--pseudocount", "inf"], None, 2, "ConfigError"),
            (["classify", "train", "--threads", "CORPUS", "--algo", "svm", "--lambda", "nan"], None, 2,
             "ConfigError"),
            (["stats", "panel", "--threads", "CORPUS", "--meta", "FILE", "--scale-staff", "inf"],
             _META_HEADER + _META_ROW, 2, "ConfigError"),
            (["--config", "FILE", "classify", "train", "--threads", "CORPUS"],
             '{"pseudocount": NaN}', 2, "ConfigError"),
            (["classify", "eval", "--threads", "CORPUS", "--model", "FILE"],
             _NB.replace('"log_cond_neg": [0.0]', '"log_cond_neg": [NaN]'), 3, "ParseError"),
            (["classify", "eval", "--threads", "CORPUS", "--model", "FILE"],
             _NB.replace("-0.6931471805599453]", "NaN]"), 3, "ParseError"),
            (["classify", "eval", "--threads", "CORPUS", "--model", "FILE"],
             _NB.replace("-0.6931471805599453]", "1000.0]"), 3, "InvariantViolation"),
            (["classify", "eval", "--threads", "CORPUS", "--model", "FILE"],
             _NB.replace('"log_cond_neg": [0.0]', '"log_cond_neg": [1000.0]'), 3, "InvariantViolation"),
            # pseudocounts that are not positive, or whose smoothed totals overflow
            (["classify", "train", "--threads", "CORPUS", "--pseudocount", "1e308"], None, 2, "ConfigError"),
            (["classify", "train", "--threads", "CORPUS", "--pseudocount", "0"], None, 2, "ConfigError"),
            (["classify", "train", "--threads", "CORPUS", "--pseudocount", "-1"], None, 2, "ConfigError"),
            # flags that the given command would ignore
            (["stats", "moving-avg", "--threads", "CORPUS", "--stopwords", "FILE"], "the\n", 2,
             "ConfigError"),
            (["stats", "moving-avg", "--threads", "CORPUS", "--exclude-staff"], None, 2, "ConfigError"),
            # ranges that a config value must meet too, and flags that must agree
            (["--config", "FILE", "rank", "--threads", "CORPUS", "--course", "course00"],
             '{"alpha": 1.5}', 2, "ConfigError"),
            (["compare", "--threads", "CORPUS", "--course", "course00", "--low", "3", "--high", "1"],
             None, 2, "ConfigError"),
            (["classify", "roc", "--threads", "CORPUS", "--model", "FILE", "--theta-min", "1",
              "--theta-max", "-1"], '{"kind": "svm", "weights": {"aa": 1.0}, "bias": 0, "theta": 0}', 2,
             "ConfigError"),
            (["compare", "--threads", "CORPUS", "--course", "course00", "--high", str(2**63)], None, 2,
             "ConfigError"),
            # topic sizes that do not fit the vocabulary
            (["gen", "--spec", "FILE", "--counts", "5,5"],
             '{"kind": "adversarial", "n": 200, "smalltalk_support_size": 250}', 3, "InvariantViolation"),
            (["gen", "--spec", "FILE", "--counts", "5,5"], '{"kind": "uniform", "n": 200, "num_courses": 2, '
             '"epsilon": 0.3, "p": 0.5, "s": 10, "support_size": -5}', 3, "InvariantViolation"),
            (["gen", "--spec", "FILE"], '{"kind": "uniform", "n": 200, "num_courses": -1, '
             '"epsilon": 0.3, "p": 0.5, "s": 10, "training_counts": []}', 3, "InvariantViolation"),
            # config keys that name no flag: the subcommand words and --config itself
            (["--config", "FILE", "stats", "series", "--threads", "CORPUS"], '{"command": "rank"}', 2,
             "ConfigError"),
            (["--config", "FILE", "stats", "series", "--threads", "CORPUS"], '{"subcommand": "x"}', 2,
             "ConfigError"),
            (["--config", "FILE", "stats", "series", "--threads", "CORPUS"], '{"config": "nope.json"}', 2,
             "ConfigError"),
            # background lists that repeat a course, name none or name the course itself
            (["topics", "extract", "--threads", "CORPUS", "--course", "course00", "--background",
              "course01,course01"], None, 2, "ConfigError"),
            (["topics", "converge", "--threads", "CORPUS", "--course", "course00", "--background", ",,"],
             None, 2, "ConfigError"),
            (["topics", "extract", "--threads", "CORPUS", "--course", "course00", "--background",
              "course00"], None, 2, "ConfigError"),
            (["topics", "converge", "--threads", "CORPUS", "--course", "course00", "--background",
              "course01,course00"], None, 2, "ConfigError"),
            # an SVM theta that is not a finite number, and a course count that is a bool
            (["classify", "eval", "--threads", "CORPUS", "--model", "FILE"],
             '{"kind": "svm", "weights": {"aa": 1.0}, "bias": 0, "theta": "x"}', 3, "ParseError"),
            (["classify", "eval", "--threads", "CORPUS", "--model", "FILE"],
             '{"kind": "svm", "weights": {"aa": 1.0}, "bias": 0, "theta": NaN}', 3, "ParseError"),
            (["gen", "--spec", "FILE", "--counts", "3,3"],
             _SPEC.replace('"num_courses": 2', '"num_courses": true'), 3, "InvariantViolation"),
            # specs and samples too large to build, refused before anything is allocated
            (["gen", "--spec", "FILE", "--counts", "3,3"], '{"kind": "adversarial", "n": 400, "d": -1e308}',
             3, "InvariantViolation"),
            (["gen", "--spec", "FILE", "--counts", "3,3"], '{"kind": "adversarial", "n": 400, "d": %d}' % 2**64,
             3, "InvariantViolation"),
            (["gen", "--spec", "FILE", "--counts", "3,3"], '{"kind": "adversarial", "n": 400, "c": NaN}',
             3, "InvariantViolation"),
            (["gen", "--spec", "FILE", "--counts", "3,3"], '{"kind": "adversarial", "n": %d}' % 2**64,
             3, "InvariantViolation"),
            (["gen", "--spec", "FILE", "--counts", "3,3"], _SPEC.replace('"n": 400', '"n": %d' % 2**64),
             3, "InvariantViolation"),
            (["gen", "--spec", "FILE", "--counts", "3,3"], '{"kind": "adversarial", "n": 400, "d": 3}',
             3, "InvariantViolation"),
            (["gen", "--spec", "FILE", "--counts", "3,3"], _SPEC.replace('"s": 20', '"s": 10000000'),
             3, "InvariantViolation"),
            # a kind-less file is the bare object gen writes, not a {"spec": ...} wrapper
            (["gen", "--spec", "FILE", "--counts", "3,3"], '{"spec": %s}' % _VALID_SPEC, 3, "ParseError"),
            # model fields that are not strings, not positive finite numbers, or are booleans
            (["classify", "eval", "--threads", "CORPUS", "--model", "FILE"], _NB.replace('["aa"]', "[0]"),
             3, "ParseError"),
            (["classify", "eval", "--threads", "CORPUS", "--model", "FILE"],
             _NB.replace('"pseudocount": 1.0', '"pseudocount": "x"'), 3, "ParseError"),
            (["classify", "eval", "--threads", "CORPUS", "--model", "FILE"],
             _NB.replace('"pseudocount": 1.0', '"pseudocount": -5'), 3, "ParseError"),
            (["classify", "eval", "--threads", "CORPUS", "--model", "FILE"],
             _NB.replace('"pseudocount": 1.0', '"pseudocount": true'), 3, "ParseError"),
            (["classify", "eval", "--threads", "CORPUS", "--model", "FILE"],
             '{"kind": "svm", "weights": {"w001": true}, "bias": 0, "theta": 0}', 3, "ParseError"),
            (["classify", "eval", "--threads", "CORPUS", "--model", "FILE"],
             '{"kind": "svm", "weights": {"w001": 1.0}, "bias": false, "theta": 0}', 3, "ParseError"),
            (["classify", "eval", "--threads", "CORPUS", "--model", "FILE"],
             '{"kind": "svm", "weights": {"w001": 1.0}, "bias": 0, "theta": true}', 3, "ParseError"),
            (["classify", "eval", "--threads", "CORPUS", "--model", "FILE"],
             '{"kind": "svm", "weights": {"w001": %d}, "bias": 0, "theta": 0}' % 2**1100, 3, "ParseError"),
            # spec reals that are booleans or strings
            (["gen", "--spec", "FILE", "--counts", "3,3"], _SPEC.replace('"epsilon": 0.3', '"epsilon": false'),
             3, "InvariantViolation"),
            (["gen", "--spec", "FILE", "--counts", "3,3"], _SPEC.replace('"p": 0.5', '"p": [true, 0.5]'),
             3, "InvariantViolation"),
            (["gen", "--spec", "FILE", "--counts", "3,3"], _SPEC.replace('"p": 0.5', '"p": "0.5"'),
             3, "InvariantViolation"),
            (["gen", "--spec", "FILE", "--counts", "3,3"],
             json.dumps({**json.loads(_VALID_SPEC), "uniformity_bound": True}), 3, "InvariantViolation"),
            (["gen", "--spec", "FILE", "--counts", "3,3"],
             json.dumps({**json.loads(_VALID_SPEC), "ratio_bounds": ["1.01", 9.0]}), 3, "InvariantViolation"),
            # spec and model fields of the wrong kind that reached the sampler or exited 0
            (["gen", "--spec", "FILE", "--counts", "3,3"],
             _with_each_model(lambda m: m.update(vocab=[int(w[1:]) for w in m["vocab"]])), 3, "InvariantViolation"),
            (["gen", "--spec", "FILE", "--counts", "3,3"],
             _with_each_model(lambda m: m.update(mass=[repr(x) for x in m["mass"]])), 3, "InvariantViolation"),
            (["gen", "--spec", "FILE", "--counts", "3,3"],
             _with_each_model(lambda m: m["mass"].__setitem__(0, math.nan)), 3, "InvariantViolation"),
            (["classify", "eval", "--threads", "CORPUS", "--model", "FILE"],
             _NB.replace('"log_cond_neg": [0.0]', '"log_cond_neg": ["0.0"]'), 3, "ParseError"),
            (["gen", "--spec", "FILE", "--counts", "3,3"], _SPEC[:-1] + ', "support_size": true}', 3,
             "InvariantViolation"),
            (["gen", "--spec", "FILE", "--counts", "3,3"], _SPEC[:-1] + ', "smalltalk_support_size": true}', 3,
             "InvariantViolation"),
            (["gen", "--spec", "FILE", "--counts", "3,3"],
             '{"kind": "adversarial", "n": 400, "smalltalk_support_size": true}', 3, "InvariantViolation"),
            (["gen", "--spec", "FILE", "--counts", "3,3"], _SPEC[:-1] + ', "support_size": 2.0}', 3,
             "InvariantViolation"),
            # finite weights whose scores overflow a float
            (["classify", "eval", "--threads", "CORPUS", "--model", "FILE"],
             '{"kind": "svm", "weights": {"w000": 1e308}, "bias": 1e308, "theta": 0}', 4, "FloatingPointError"),
            # a staff scale whose regressor overflows, and a moving-average step that overflows
            (["stats", "panel", "--threads", "CORPUS", "--meta", "FILE", "--scale-staff", "1e-308"],
             _META_HEADER + _META_ROW, 4, "FloatingPointError"),
            (["stats", "moving-avg", "--threads", "CORPUS", "--alpha-ma", "1e-320"], None, 4, "FloatingPointError"),
            # series longer than MAX_SERIES_ROWS rows
            (["classify", "roc", "--threads", "CORPUS", "--model", "FILE", "--theta-steps", "100000000000"],
             '{"kind": "svm", "weights": {"aa": 1.0}, "bias": 0, "theta": 0}', 2, "ConfigError"),
            (["topics", "converge", "--threads", "CORPUS", "--course", "course00", "--max-days",
              str(MAX_SERIES_ROWS + 1)], None, 2, "ConfigError"),
            (["--config", "FILE", "topics", "converge", "--threads", "CORPUS", "--course", "course00"],
             '{"max_days": %d}' % (MAX_SERIES_ROWS + 1), 2, "ConfigError"),
            (["stats", "series", "--threads", "CORPUS", "--meta", "FILE"],
             _META_HEADER + _META_ROW.replace(",30,", ",1000000000000,"), 3, "InvariantViolation"),
            (["stats", "trend", "--threads", "FILE"], _FAR_APART, 3, "InvariantViolation"),
            (["topics", "converge", "--threads", "FILE", "--course", "c"], _FAR_APART, 3, "InvariantViolation"),
            # metadata values that read but overflow a stats command
            (["stats", "panel", "--threads", "CORPUS", "--meta", "FILE"],
             _META_HEADER + _META_ROW.replace("5.5", "1e308"), 4, "FloatingPointError"),
            (["stats", "panel", "--threads", "CORPUS", "--meta", "FILE"],
             _META_HEADER + _META_ROW.replace("course00,0,1,", f"course00,0,{'9' * 401},"), 3, "InvariantViolation"),
            (["stats", "moving-avg", "--threads", "CORPUS", "--meta", "FILE"],
             _META_HEADER + _META_ROW.replace("course00,0,", f"course00,{10**400},"), 3, "InvariantViolation"),
            (["stats", "series", "--threads", "CORPUS", "--meta", "FILE"],
             _META_HEADER + _META_ROW.replace("HumanitiesSocial", "x" * 200_000), 3, "ParseError"),
        ],
        ids=["compare-unknown-course", "topics-unknown-course", "model-unknown-kind",
             "model-missing-field", "model-not-an-object", "spec-missing-field",
             "spec-invalid-json", "label-not-a-string", "moving-avg-percourse-model",
             "svm-weights-not-a-mapping", "nb-conditional-not-a-number", "nb-prior-one-value",
             "nb-prior-a-string", "percourse-models-null", "percourse-models-a-number", "spec-n-not-an-int",
             "config-value-not-an-int", "flag-value-not-an-int", "required-flag-missing",
             "threads-is-a-directory", "threads-not-utf8", "config-value-not-a-choice",
             "config-path-not-a-string", "config-path-holds-nul", "is-staff-not-a-bool", "text-null", "course-id-null",
             "thread-id-a-list", "author-id-a-bool", "text-nested-too-deep", "thread-line-repeated", "meta-course-repeated",
             "meta-row-short", "meta-row-long", "meta-hours-nan", "meta-hours-inf", "uniform-s-fractional",
             "uniform-seed-negative", "uniform-s-a-bool", "uniform-courses-beyond-int64",
             "explicit-s-per-course-negative", "uniform-training-counts-fractional",
             "nb-vocab-repeated",
             "scale-staff-zero", "scale-staff-negative", "t-days-negative", "t-days-zero",
             "extract-k-negative", "converge-k-zero", "rank-keyword-k-negative",
             "compare-keyword-k-zero", "compare-k-negative", "config-k-negative",
             "threads-per-day-zero", "seed-negative-gen", "seed-negative-compare",
             "extra-days-negative", "theta-steps-negative", "counts-not-integers", "counts-empty-field",
             "counts-negative", "config-counts-negative", "counts-one-per-course",
             "spec-training-counts-one-per-course", "warmup-days-negative", "warmup-days-zero",
             "converge-max-days-negative", "moving-avg-max-days-negative", "config-max-days-zero",
             "pseudocount-nan", "pseudocount-inf", "lambda-nan", "scale-staff-inf", "config-nan",
             "nb-conditional-nan", "nb-prior-nan", "nb-prior-overflows", "nb-conditional-overflows",
             "pseudocount-overflows", "pseudocount-zero", "pseudocount-negative",
             "moving-avg-stopwords-without-model",
             "moving-avg-exclude-staff-without-model", "config-alpha-above-one", "compare-high-below-low",
             "roc-theta-max-below-min", "compare-high-beyond-int64", "adversarial-smalltalk-exceeds-n",
             "uniform-support-negative", "uniform-courses-negative", "config-key-command", "config-key-subcommand", "config-key-config",
             "background-repeated", "background-empty", "background-the-course",
             "background-holds-the-course", "svm-theta-a-string", "svm-theta-nan", "uniform-courses-a-bool",
             "adversarial-d-overflows", "adversarial-d-beyond-int64", "adversarial-c-nan",
             "adversarial-n-beyond-limit", "uniform-n-beyond-limit", "adversarial-sample-too-large",
             "uniform-sample-too-large", "kind-less-spec-wrapper",
             "nb-vocab-not-strings", "nb-pseudocount-a-string", "nb-pseudocount-negative",
             "nb-pseudocount-a-bool", "svm-weight-a-bool", "svm-bias-a-bool", "svm-theta-a-bool",
             "svm-weight-beyond-float", "uniform-epsilon-a-bool", "uniform-p-holds-a-bool",
             "uniform-p-a-string", "kind-less-uniformity-bound-a-bool", "kind-less-ratio-bounds-hold-a-string",
             "kind-less-vocab-integers", "kind-less-mass-numeric-strings", "kind-less-mass-nan",
             "nb-conditional-numeric-strings", "uniform-support-size-a-bool",
             "uniform-smalltalk-support-size-a-bool", "adversarial-smalltalk-support-size-a-bool",
             "uniform-support-size-a-float", "svm-score-overflows", "scale-staff-overflows",
             "moving-avg-alpha-overflows", "theta-steps-beyond-limit", "converge-max-days-beyond-limit",
             "config-max-days-beyond-limit", "meta-duration-beyond-limit",
             "trend-days-from-data-beyond-limit", "converge-days-from-data-beyond-limit", "meta-hours-overflow-panel",
             "meta-factor-beyond-float", "meta-start-beyond-float", "meta-field-beyond-csv-limit"],
    )
    def test_exit_code_and_error_object(self, tmp_path, gen_corpus, capsys, argv, text, code, error):
        path = tmp_path / "input"
        if text is not None:
            path.write_text(text)
        binary = tmp_path / "binary"
        binary.write_bytes(b'{"course_id": "\xff"}\n')
        given = {"CORPUS": str(gen_corpus), "FILE": str(path), "DIR": str(tmp_path),
                 "BINARY": str(binary)}
        out = tmp_path / "o"
        assert main([given.get(a, a) for a in argv] + ["--out", str(out)]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert json.loads(err)["error"]["type"] == error
        assert not out.exists()

    # the background courses are looked up before the course, and a background left with no
    # tokens (staff posts only under --exclude-staff, or stopwords only) is refused
    @pytest.mark.parametrize(
        "argv, background, code, message",
        [
            (["--course", "Z", "--background", "Z2"], None, 2, "no course 'Z2' in the corpus"),
            (["--course", "c0", "--background", "c1", "--exclude-staff"],
             {"text": "welcome everyone", "is_staff": True}, 3, "background courses contributed no tokens"),
            (["--course", "c0", "--background", "c1"], {"text": "the and of"}, 3,
             "background courses contributed no tokens"),
        ],
        ids=["unknown-background-before-unknown-course", "background-staff-only", "background-stopwords-only"],
    )
    def test_extract_refusal_order(self, tmp_path, gen_corpus, capsys, argv, background, code, message):
        corpus = gen_corpus
        if background is not None:
            corpus = tmp_path / "corpus.jsonl"
            corpus.write_text(_thread_line(course_id="c0", thread_id="t0", text="gradient descent") + "\n"
                              + _thread_line(course_id="c1", thread_id="t1", **background) + "\n")
        out = tmp_path / "o"
        assert main(["topics", "extract", "--threads", str(corpus), *argv, "--out", str(out)]) == code
        assert json.loads(capsys.readouterr().err)["error"]["message"] == message
        assert not out.exists()

    def test_meta_with_a_bom(self, tmp_path, twelve_courses):
        # a BOM before the header changes no artifact; only the manifest's input hash differs
        _, corpus_path, meta = twelve_courses
        bom = tmp_path / "meta.csv"
        bom.write_bytes("\ufeff".encode() + meta.read_bytes())
        artifacts = []
        for given in (meta, bom):
            out = tmp_path / f"panel-{len(artifacts)}"
            assert main(["stats", "panel", "--threads", str(corpus_path), "--meta", str(given),
                         "--target", "y", "--out", str(out)]) == 0
            artifacts.append(_hash_dir(out))
            assert artifacts[-1].pop("manifest.json")
        assert artifacts[0] == artifacts[1] and "panel.csv" in artifacts[0]

    def test_failed_command_leaves_existing_out_untouched(self, tmp_path, gen_corpus, capsys):
        out = tmp_path / "o"
        out.mkdir()
        (out / "keep.csv").write_text("a\n1\n")
        before = (out.stat().st_mtime_ns, _hash_dir(out))
        argv = ["compare", "--threads", str(gen_corpus), "--course", "course00", "--low", "3",
                "--high", "1", "--out", str(out)]
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "ConfigError"
        assert (out.stat().st_mtime_ns, _hash_dir(out)) == before

    # corpus names that leave --out or take the name of another artifact
    @pytest.mark.parametrize("name", ["../escaped.jsonl", "ABS", "a/b.jsonl", "", ".", "..",
                                      "spec.json", "manifest.json"])
    def test_gen_writes_only_inside_out(self, tmp_path, capsys, name):
        spec = tmp_path / "spec.txt"
        spec.write_text(_SPEC)
        name = str(tmp_path / "abs.jsonl") if name == "ABS" else name
        argv = ["gen", "--spec", str(spec), "--counts", "5,5", "--name", name]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "ConfigError"
        assert [p.name for p in tmp_path.iterdir()] == ["spec.txt"]

    @pytest.mark.parametrize("course_id", ["../esc", "a/b", "nul\0id", "x/../../y"])
    def test_qq_file_names_checked_before_writing(self, tmp_path, capsys, course_id):
        corpus = _fluctuating_corpus(tmp_path / "corpus.jsonl", course_id)
        out = tmp_path / "o"
        assert main(["stats", "shapiro", "--threads", str(corpus), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert json.loads(err)["error"]["type"] == "InvariantViolation"
        assert not out.exists()

    # values that the library would refuse only after the corpus is read
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "train", "--epochs", "0"],
            ["classify", "train", "--algo", "svm", "--lambda", "0"],
            ["classify", "train", "--algo", "svm", "--lambda", "-1"],
            ["rank", "--course", "course00", "--warmup", "0"],
            ["rank", "--course", "course00", "--query", "0"],
            ["compare", "--course", "course00", "--query", "0"],
            ["compare", "--course", "course00", "--low", "0"],
            *([cmd, "--course", "course00", "--alpha", alpha]
              for cmd in ("rank", "compare") for alpha in ("0", "1.0", "1.5")),
            ["stats", "moving-avg", "--alpha-ma", "1.0"],
            ["stats", "shapiro", "--trim", "0.7"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_flag_value_refused_when_parsed(self, tmp_path, gen_corpus, capsys, argv):
        out = tmp_path / "o"
        assert main([*argv, "--threads", str(gen_corpus), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert json.loads(err)["error"]["type"] == "ConfigError"
        assert not out.exists()


def test_help_exits_zero(capsys):
    assert main(["rank", "--help"]) == 0
    assert "--course" in capsys.readouterr().out


class TestConfigScope:
    def test_explicit_seed_beats_config(self, tmp_path, gen_corpus):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3}))
        out = tmp_path / "cmp"
        rc = main(["--config", str(cfg), "--seed", "4", "compare", "--threads", str(gen_corpus),
                   "--course", "course00", "--low", "1", "--high", "2", "--extra-days", "1",
                   "--query", "1", "--out", str(out)])
        assert rc == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["seed"] == 4

    def test_key_reaches_only_subcommands_that_declare_it(self, tmp_path, gen_corpus):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": str(tmp_path / "x.json"), "seed": 3}))
        out = tmp_path / "ing"
        rc = main(["--config", str(cfg), "ingest", "--threads", str(gen_corpus), "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert "model" not in manifest["config"]
        assert manifest["config"]["seed"] == 3
        assert set(manifest["inputs"]) == {str(gen_corpus)}

    def test_explicit_flag_equal_to_its_default_beats_config(self, tmp_path, gen_corpus):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 25}))
        out = tmp_path / "kw"
        rc = main(["--config", str(cfg), "topics", "extract", "--threads", str(gen_corpus),
                   "--course", "course00", "--k", "50", "--out", str(out)])
        assert rc == 0
        assert len(_read_csv(out / "keywords.csv")) == 50

    def test_key_for_a_flag_the_path_never_reads_only_fills(self, tmp_path, gen_corpus):
        # a shared config may hold keys that some paths never read; only the command line is refused
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 0.5, "k": 5, "seed": 3}))
        out = tmp_path / "r"
        rc = main(["--config", str(cfg), "rank", "--threads", str(gen_corpus), "--course", "course00",
                   "--algo", "hits", "--warmup", "1", "--query", "1", "--out", str(out)])
        assert rc == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert (config["alpha"], config["k"], config["seed"]) == (0.5, 5, 3)

    def test_help_is_read_before_the_config(self, capsys):
        assert main(["--config", "missing.json", "rank", "--help"]) == 0
        assert "--course" in capsys.readouterr().out

    def test_string_defaults_are_their_own_conversion(self):
        # argparse ran a string default through the flag's type; the fill takes the default as it is
        for parser in _all_parsers(build_parser()):
            for action in parser._actions:
                if isinstance(action.default, str) and action.type is not None:
                    assert action.type(action.default) == action.default, action.option_strings


@pytest.fixture(scope="module")
def command_inputs(twelve_courses, tmp_path_factory):
    """Every input file a subcommand reads: spec, corpus, metadata, an SVM model and stopwords."""
    spec, corpus_path, meta = twelve_courses
    root = tmp_path_factory.mktemp("runner")
    rc = main(["classify", "train", "--threads", str(corpus_path), "--algo", "svm",
               "--epochs", "2", "--out", str(root / "svm")])
    assert rc == 0
    stopwords = root / "stopwords.txt"
    stopwords.write_text("w000\nw001\n")
    return {"spec": spec, "threads": corpus_path, "meta": meta,
            "model": root / "svm" / "model.json", "stopwords": stopwords}


class TestRunner:
    """main loads, hashes and records every command; the handlers only compute."""

    # (subcommand, the input flags it declares, its other flags)
    CASES = [
        (["gen"], ["spec"], ["--counts", ",".join(["5"] * 12)]),
        (["ingest"], ["threads", "meta"], []),
        (["classify", "train"], ["threads", "stopwords"], ["--algo", "svm", "--epochs", "2"]),
        (["classify", "eval"], ["threads", "model", "stopwords"], []),
        (["classify", "roc"], ["threads", "model", "stopwords"], ["--theta-steps", "3"]),
        (["topics", "extract"], ["threads", "stopwords"], ["--course", "course00"]),
        (["topics", "converge"], ["threads", "stopwords"], ["--course", "course00"]),
        (["rank"], ["threads", "stopwords"],
         ["--course", "course00", "--warmup", "1", "--query", "1"]),
        (["compare"], ["threads", "stopwords"],
         ["--course", "course00", "--low", "1", "--high", "1", "--extra-days", "0", "--query", "1"]),
        (["stats", "series"], ["threads", "meta"], []),
        (["stats", "trend"], ["threads", "meta"], []),
        (["stats", "panel"], ["threads", "meta"], []),
        (["stats", "shapiro"], ["threads", "meta"], []),
        (["stats", "ttest"], ["threads", "meta"], ["--threshold", "26"]),
        (["stats", "moving-avg"], ["threads", "meta", "model", "stopwords"], []),
    ]

    @pytest.fixture
    def inputs(self, command_inputs):
        return command_inputs

    @staticmethod
    def _argv(command, flags, extra, inputs, out):
        given = [a for f in flags for a in (f"--{f}", str(inputs[f]))]
        return [*command, *given, *extra, "--out", str(out)]

    @pytest.mark.parametrize("command, flags, extra", CASES, ids=[" ".join(c) for c, _, _ in CASES])
    def test_manifest_hashes_every_input(self, tmp_path, inputs, command, flags, extra):
        out = tmp_path / "out"
        argv = self._argv(command, flags, extra, inputs, out)
        parsed = build_parser().parse_args(argv)
        assert {f for f in _INPUT_FLAGS if hasattr(parsed, f)} == set(flags)
        assert main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["inputs"] == {
            str(inputs[f]): hashlib.sha256(inputs[f].read_bytes()).hexdigest() for f in flags
        }

    @pytest.mark.parametrize("command, flags, extra", CASES, ids=[" ".join(c) for c, _, _ in CASES])
    def test_failed_handler_leaves_no_manifest(self, tmp_path, inputs, monkeypatch,
                                               command, flags, extra):
        def failing(args, corpus):
            raise DegenerateGroup("handler failed")

        def failing_parser():
            parser = build_parser()
            for sub in _all_parsers(parser):
                if sub.get_default("func") is not None:
                    sub.set_defaults(func=failing)
            return parser

        monkeypatch.setattr("forumlens.cli.build_parser", failing_parser)
        out = tmp_path / "out"
        assert main(self._argv(command, flags, extra, inputs, out)) == 3
        assert not out.exists()


class TestParsedCorpus:
    """main keeps the last corpus it parsed, keyed by its file's SHA-256, and shares it between commands."""

    @staticmethod
    def _counting(monkeypatch, name):
        """Calls to ``forumlens.cli.<name>``, by their first argument."""
        seen, real = [], getattr(forumlens.cli, name)

        def counted(*args):
            seen.append(str(args[0]))
            return real(*args)

        monkeypatch.setattr(forumlens.cli, name, counted)
        return seen

    @staticmethod
    def _reads(monkeypatch):
        """Splits by (stopword set, include_staff, thread id), through TokenTable._tokenize, the
        table's one path from text to ids."""
        reads, tokenize = Counter(), TokenTable._tokenize

        def tokenizing(table, columns, row):
            reads[table.stopwords, table.include_staff, columns.thread_ids[row]] += 1
            return tokenize(table, columns, row)

        monkeypatch.setattr(TokenTable, "_tokenize", tokenizing)
        return reads

    @staticmethod
    def _splits(monkeypatch) -> list:
        """The texts given to corpus.split_words, which every text a token table reads goes through."""
        splits, real = [], forumlens.corpus.split_words

        def counted(text):
            splits.append(text)
            return real(text)

        monkeypatch.setattr(forumlens.corpus, "split_words", counted)
        return splits

    # text paths that TestRunner.CASES leaves out, in its layout
    TEXT_CASES = [
        (["classify", "train"], ["threads"], ["--algo", "nb", "--mode", "percourse"]),
        (["rank"], ["threads"], ["--course", "course01", "--algo", "tfidf", "--warmup", "1", "--query", "1"]),
        (["compare"], ["threads", "stopwords"],
         ["--course", "course02", "--exclude-staff", "--low", "1", "--high", "2", "--extra-days", "1",
          "--query", "1"]),
    ]

    @staticmethod
    def _run_cases(cases, inputs, outs, order) -> dict:
        """Each of ``cases`` run into its own ``outs`` directory, in ``order``; their file hashes."""
        hashes = {}
        for i in order:
            command, flags, extra = cases[i]
            shutil.rmtree(outs[i], ignore_errors=True)
            assert main(TestRunner._argv(command, flags, extra, inputs, outs[i])) == 0, command
            hashes[i] = _hash_dir(outs[i])
        return hashes

    def test_commands_share_one_parse(self, tmp_path, command_inputs, monkeypatch):
        forumlens.cli._PARSED.clear()
        parses = self._counting(monkeypatch, "ingest_corpus")
        reads, splits = self._reads(monkeypatch), self._splits(monkeypatch)
        cases = range(len(TestRunner.CASES))
        self._run_cases(TestRunner.CASES, command_inputs, [tmp_path / str(i) for i in cases], cases)
        corpus_path = command_inputs["threads"]
        assert parses == [str(corpus_path)]
        ((cached, tables),) = forumlens.cli._PARSED.values()
        assert cached == ingest_corpus(corpus_path)
        # the text commands share one text view: the stopwords file's, staff posts included
        assert list(tables) == [(frozenset({"w000", "w001"}), True)]
        # each (view, row) is split once, whichever command reads it, and every split is a row's
        assert reads and max(reads.values()) == 1
        assert len(splits) == sum(reads.values())

    def test_keywords_after_the_classifier_split_nothing_again(self, tmp_path, gen_corpus, monkeypatch):
        """The keyword background is totalled from the rows that the classifier commands kept."""
        forumlens.cli._PARSED.clear()
        reads, splits = self._reads(monkeypatch), self._splits(monkeypatch)
        model = tmp_path / "svm" / "model.json"
        threads = ["--threads", str(gen_corpus)]
        for argv in (["classify", "train", *threads, "--algo", "svm", "--epochs", "2", "--out", str(model.parent)],
                     ["stats", "moving-avg", *threads, "--model", str(model), "--out", str(tmp_path / "ma")],
                     ["topics", "extract", *threads, "--course", "course00", "--out", str(tmp_path / "kw")]):
            assert main(argv) == 0, argv
        ((corpus, tables),) = forumlens.cli._PARSED.values()
        assert list(tables) == [(forumlens.corpus.default_stopwords(), True)]
        assert {tid for _, _, tid in reads} == {tid for c in corpus.courses for tid in c.columns.thread_ids}
        assert max(reads.values()) == 1
        assert len(splits) == sum(reads.values())

    def test_artifacts_do_not_depend_on_the_order(self, tmp_path, command_inputs):
        """Token ids follow the order rows were first read, so the order of the commands on a
        shared table numbers words differently; every artifact, manifest included, keeps its bytes."""
        cases = TestRunner.CASES + self.TEXT_CASES
        order = range(len(cases))
        outs = [tmp_path / str(i) for i in order]
        forumlens.cli._PARSED.clear()
        forward = self._run_cases(cases, command_inputs, outs, order)
        forumlens.cli._PARSED.clear()
        assert self._run_cases(cases, command_inputs, outs, reversed(order)) == forward
        for i in order:
            forumlens.cli._PARSED.clear()
            assert self._run_cases(cases, command_inputs, outs, [i]) == {i: forward[i]}, cases[i][0]

    def test_equal_stopword_sets_share_a_table(self, tmp_path, gen_corpus, monkeypatch):
        forumlens.cli._PARSED.clear()
        reads = self._reads(monkeypatch)
        files = {}
        for name, text in [("a", "w000\nw001\n"), ("b", "W001\n\nw000\n"), ("c", "w000\n")]:
            files[name] = tmp_path / f"{name}.txt"
            files[name].write_text(text)
        train = ["classify", "train", "--threads", str(gen_corpus), "--algo", "nb"]
        for i, flags in enumerate([["--stopwords", str(files["a"])], ["--stopwords", str(files["b"])],
                                   ["--stopwords", str(files["c"])], ["--stopwords", str(files["a"]),
                                                                      "--exclude-staff"]]):
            assert main([*train, *flags, "--out", str(tmp_path / str(i))]) == 0
        ((_, tables),) = forumlens.cli._PARSED.values()
        ab, c = frozenset({"w000", "w001"}), frozenset({"w000"})
        assert list(tables) == [(ab, True), (c, True), (ab, False)]
        assert {(stopwords, staff) for stopwords, staff, _ in reads} == set(tables)
        assert max(reads.values()) == 1  # b's run read nothing: a's table had every row

    def test_threads_miss_drops_the_tables(self, tmp_path, gen_corpus, tiny_jsonl):
        forumlens.cli._PARSED.clear()
        assert main(["topics", "extract", "--threads", str(gen_corpus), "--course", "course00",
                     "--out", str(tmp_path / "a")]) == 0
        ((_, tables),) = forumlens.cli._PARSED.values()
        (table,) = tables.values()
        kept = weakref.ref(table)
        del table, tables
        assert main(["ingest", "--threads", str(tiny_jsonl), "--out", str(tmp_path / "b")]) == 0
        ((corpus, tables),) = forumlens.cli._PARSED.values()
        assert corpus == ingest_corpus(tiny_jsonl) and tables == {}
        gc.collect()
        assert kept() is None

    def test_changed_corpus_keeps_no_table(self, tmp_path, gen_corpus, monkeypatch):
        forumlens.cli._PARSED.clear()
        real = forumlens.cli.ingest_corpus

        def parse_then_touch(path):
            parsed = real(path)
            with open(path, "a", encoding="utf-8") as fh:
                fh.write("\n")  # a blank line: the next parse reads the same corpus
            return parsed

        monkeypatch.setattr(forumlens.cli, "ingest_corpus", parse_then_touch)
        reads = self._reads(monkeypatch)
        train = ["classify", "train", "--threads", str(gen_corpus), "--algo", "nb"]
        assert main([*train, "--out", str(tmp_path / "a")]) == 0
        assert forumlens.cli._PARSED == {}
        first = Counter(reads)
        assert first
        assert main([*train, "--out", str(tmp_path / "b")]) == 0
        assert forumlens.cli._PARSED == {}
        assert reads == first + first  # the second command read every row again
        assert (tmp_path / "a" / "model.json").read_bytes() == (tmp_path / "b" / "model.json").read_bytes()

    def test_columns_are_read_only(self, gen_corpus):
        columns = ingest_corpus(gen_corpus).courses[0].columns
        for array in (columns.created_at, columns.offsets, columns.authors, columns.timestamps, columns.is_staff):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[1]

    def test_key_is_the_content(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(_thread_line(text="matrix rank") + "\n")
        assert main(["ingest", "--threads", str(corpus), "--out", str(tmp_path / "a")]) == 0
        stat = corpus.stat()
        corpus.write_text(_thread_line(text="matrix tank") + "\n")  # same size, and the old times below
        os.utime(corpus, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert corpus.stat().st_size == stat.st_size
        out = tmp_path / "b"
        assert main(["ingest", "--threads", str(corpus), "--out", str(out)]) == 0
        assert "matrix tank" in (out / "normalized.jsonl").read_text()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["inputs"] == {str(corpus): hashlib.sha256(corpus.read_bytes()).hexdigest()}

    def test_refused_corpus_leaves_the_slot_empty(self, tmp_path, gen_corpus, capsys):
        assert main(["ingest", "--threads", str(gen_corpus), "--out", str(tmp_path / "a")]) == 0
        assert forumlens.cli._PARSED
        bad = tmp_path / "bad.jsonl"
        bad.write_text(_thread_line() + "\n" + _BAD_LABEL + "\n")
        assert main(["ingest", "--threads", str(bad), "--out", str(tmp_path / "b")]) == 3
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "ParseError"
        assert forumlens.cli._PARSED == {}

    def test_file_changed_during_the_parse_is_not_kept(self, tmp_path, monkeypatch):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(_thread_line() + "\n")
        real = forumlens.cli.ingest_corpus

        def parse_then_append(path):
            parsed = real(path)
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(_thread_line(thread_id="t2") + "\n")
            return parsed

        monkeypatch.setattr(forumlens.cli, "ingest_corpus", parse_then_append)
        assert main(["ingest", "--threads", str(corpus), "--out", str(tmp_path / "o")]) == 0
        assert forumlens.cli._PARSED == {}

    def test_hit_hashes_the_corpus_once(self, tmp_path, twelve_courses, monkeypatch):
        _, corpus_path, meta = twelve_courses
        assert main(["stats", "series", "--threads", str(corpus_path), "--out", str(tmp_path / "a")]) == 0
        parses = self._counting(monkeypatch, "ingest_corpus")
        hashed = self._counting(monkeypatch, "_sha256")
        out = tmp_path / "b"
        assert main(["stats", "series", "--threads", str(corpus_path), "--meta", str(meta),
                     "--out", str(out)]) == 0
        assert parses == []
        assert sorted(hashed) == sorted([str(corpus_path), str(meta)])
        assert set(json.loads((out / "manifest.json").read_text())["inputs"]) == set(hashed)

    def test_corpus_error_comes_before_a_missing_model(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(_BAD_LABEL + "\n")
        argv = ["classify", "eval", "--threads", str(bad), "--model", str(tmp_path / "none.json")]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 3  # a missing model alone exits 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "ParseError"


class TestAllOrNothingOut:
    """Every artifact and the manifest are written beside --out first: a failed write changes no --out."""

    @staticmethod
    def _listing(root):
        return sorted((str(p.relative_to(root)), p.is_dir()) for p in Path(root).rglob("*"))

    def test_directory_in_the_way_leaves_out_unchanged(self, tmp_path, twelve_courses, capsys):
        _, corpus_path, meta = twelve_courses
        out = tmp_path / "o"
        argv = ["stats", "panel", "--threads", str(corpus_path), "--meta", str(meta), "--out", str(out)]
        assert main(argv) == 0
        (out / "panel.csv").write_text("term\n")  # an older artifact, and a manifest that describes it
        (out / "manifest.json").write_text("{}")
        (out / "panel_summary.csv").unlink()
        (out / "panel_summary.csv").mkdir()
        before = (self._listing(out), _hash_dir(out))
        assert main(argv) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ConfigError" and "panel_summary.csv" in error["message"]
        assert (self._listing(out), _hash_dir(out)) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["o"]

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_write_leaves_no_trace(self, tmp_path, gen_corpus, monkeypatch, capsys, existing):
        def half_written(corpus, path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("{")
            raise OSError(28, "No space left on device")

        out = tmp_path / "o" if existing else tmp_path / "a" / "b" / "o"  # parents made only on success
        if existing:
            out.mkdir()
            (out / "summary.csv").write_text("old\n")
        before = self._listing(tmp_path), _hash_dir(tmp_path)
        monkeypatch.setattr(forumlens.cli, "serialize_corpus", half_written)  # ingest writes summary.csv first
        assert main(["ingest", "--threads", str(gen_corpus), "--out", str(out)]) == 2
        assert "No space left" in json.loads(capsys.readouterr().err)["error"]["message"]
        assert (self._listing(tmp_path), _hash_dir(tmp_path)) == before

    def test_new_out_takes_the_umask_mode(self, tmp_path, gen_corpus):
        umask = os.umask(0o027)
        try:
            assert main(["ingest", "--threads", str(gen_corpus), "--out", str(tmp_path / "a" / "o")]) == 0
        finally:
            os.umask(umask)
        assert (tmp_path / "a" / "o").stat().st_mode & 0o777 == 0o750
        assert [p.name for p in (tmp_path / "a").iterdir()] == ["o"]

    def test_existing_out_keeps_other_items(self, tmp_path, gen_corpus):
        out = tmp_path / "o"
        (out / "sub").mkdir(parents=True)
        (out / "keep.txt").write_text("kept")
        (out / "summary.csv").write_text("old")
        assert main(["ingest", "--threads", str(gen_corpus), "--out", str(out)]) == 0
        assert (out / "keep.txt").read_text() == "kept" and (out / "sub").is_dir()
        assert sorted(p.name for p in out.iterdir()) == ["keep.txt", "manifest.json", "normalized.jsonl", "sub",
                                                        "summary.csv"]
        assert (out / "summary.csv").read_text().startswith("course_id,")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gen", "o", "spec.json"]


def test_only_main_reads_the_out_dir():
    """Handlers return their artifacts; main alone joins --out, so no handler can write there."""
    tree = ast.parse(Path(forumlens.cli.__file__).read_text(encoding="utf-8"))
    readers = set()
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            if any(isinstance(n, ast.Attribute) and n.attr == "out" for n in ast.walk(func)):
                readers.add(getattr(func, "name", "<lambda>"))
    assert readers == {"main"}


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def _numeric_flags():
    """(command words, flag, after the words?, refused?) for every int and float flag.

    Top-level flags go with gen and compare.  A flag is refused when the path
    (the command and its default --algo) never reads it.
    """
    cases = []
    for parser in _all_parsers(build_parser()):
        words = parser.prog.split()[1:]
        algo = next((f" --algo {a.default}" for a in parser._actions if a.dest == "algo"), "")
        for action in parser._actions:
            if getattr(action.type, "__name__", None) in ("int", "float"):
                flag = action.option_strings[0]
                for command in [words] if words else [["gen"], ["compare"]]:
                    cases.append((command, flag, bool(words), flag in _unread(" ".join(command) + algo)))
    return cases


class TestNumericFlagSweep:
    """Every int and float flag given -1, 0, nan or inf exits cleanly and writes valid JSON."""

    # a run of each subcommand on command_inputs, apart from the swept flag
    BASE = {
        "gen": ["--spec", "spec", "--counts", ",".join(["3"] * 12)],
        "classify eval": ["--threads", "threads", "--model", "model"],
        "classify roc": ["--threads", "threads", "--model", "model"],
        "topics extract": ["--threads", "threads", "--course", "course00"],
        "topics converge": ["--threads", "threads", "--course", "course00"],
        "rank": ["--threads", "threads", "--course", "course00", "--warmup", "1", "--query", "1"],
        "compare": ["--threads", "threads", "--course", "course00", "--low", "1", "--high", "2",
                    "--extra-days", "1", "--query", "1"],
        "stats panel": ["--threads", "threads", "--meta", "meta"],
    }

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize("command, flag, after, refused", _numeric_flags(),
                             ids=[" ".join([*c, f]) for c, f, _, _ in _numeric_flags()])
    def test_clean_exit_and_valid_manifest(self, tmp_path, capsys, command_inputs,
                                           command, flag, after, refused, value):
        base = self.BASE.get(" ".join(command), ["--threads", "threads"])
        base = [str(command_inputs.get(a, a)) for a in base]
        swept = [flag, value]
        argv = [*command, *base, *swept] if after else [*swept, *command, *base]
        out = tmp_path / "out"
        rc = main([*argv, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc in (0, 2, 3, 4), captured.err
        assert "Traceback" not in captured.err
        if refused:  # a flag the path never reads exits 2 whatever its value
            assert rc == 2, captured.err
        if rc:
            assert set(json.loads(captured.err)["error"]) == {"message", "type"}
        else:
            assert captured.err == ""
            json.loads((out / "manifest.json").read_text(), parse_constant=_refuse_constant)


def _float_flags():
    """(command words, flag action, the subcommand's required flags) for every float flag."""
    cases = []
    for parser in _all_parsers(build_parser()):
        required = [w for a in parser._actions if a.required and a.option_strings
                    for w in (a.option_strings[0], "x")]
        for action in parser._actions:
            if getattr(action.type, "__name__", None) == "float":
                cases.append((parser.prog.split()[1:], action, required))
    return cases


@pytest.mark.parametrize("words, action, required", _float_flags(),
                         ids=[" ".join([*w, a.option_strings[0]]) for w, a, _ in _float_flags()])
def test_negative_float_in_exponent_form_is_a_value(words, action, required):
    argv = [*words, *required, action.option_strings[0], "-1e-3"]
    # --trim allows 0, so it states its own range
    requirement = {"--trim": r"must be in \[0, 0\.5\)"}.get(action.option_strings[0], "must be positive")
    try:
        want = action.type("-1e-3")
    except argparse.ArgumentTypeError:  # a flag that must be positive refuses the value itself
        with pytest.raises(ConfigError, match=requirement):
            build_parser().parse_args(argv)
    else:
        assert want == -0.001
        assert getattr(build_parser().parse_args(argv), action.dest) == -0.001


@pytest.mark.parametrize("argv", [["classify", "roc", "--model", "m", "--theta-steps"],
                                  ["topics", "converge", "--course", "c", "--max-days"]])
def test_series_flags_take_up_to_the_row_limit(argv):
    """--theta-steps and converge's --max-days accept MAX_SERIES_ROWS and refuse one more."""
    given = [*argv[:2], "--threads", "x", "--out", "o", *argv[2:]]
    dest = argv[-1].lstrip("-").replace("-", "_")
    assert getattr(build_parser().parse_args([*given, str(MAX_SERIES_ROWS)]), dest) == MAX_SERIES_ROWS
    with pytest.raises(ConfigError, match=f"at most {MAX_SERIES_ROWS}"):
        build_parser().parse_args([*given, str(MAX_SERIES_ROWS + 1)])


# Runs argv lists through main in a fresh interpreter and prints the scipy modules it loaded.
_FRESH_RUN = """
import json, sys
import forumlens, forumlens.cli
for argv in json.loads(sys.argv[1]):
    rc = forumlens.cli.main(argv)
    if rc:
        sys.exit(f"exit {rc}: {argv}")
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""


def _scipy_modules_after(commands, cwd):
    src = str(Path(forumlens.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _FRESH_RUN, json.dumps(commands)], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestColdStart:
    """Only the stats routines that call scipy import it: every other command starts without it."""

    def test_commands_without_scipy(self, tmp_path):
        _write_spec(tmp_path / "spec.json")
        c = ["--threads", "gen/corpus.jsonl"]
        window = ["--course", "course00", "--warmup", "1", "--query", "1"]
        commands = [
            ["gen", "--spec", "spec.json", "--counts", "60,60", "--out", "gen"],
            ["ingest", *c, "--out", "ingest"],
            ["classify", "train", *c, "--algo", "nb", "--out", "nb"],
            ["classify", "train", *c, "--algo", "svm", "--epochs", "2", "--out", "svm"],
            ["classify", "eval", *c, "--model", "nb/model.json", "--out", "eval"],
            ["classify", "roc", *c, "--model", "svm/model.json", "--out", "roc"],
            ["topics", "extract", *c, "--course", "course00", "--out", "kw"],
            ["topics", "converge", *c, "--course", "course00", "--out", "cv"],
            *(["rank", *c, *window, "--algo", algo, "--out", algo]
              for algo in ("topical", "tfidf", "hits")),
            ["--seed", "4", "compare", *c, "--course", "course00", "--low", "1", "--high", "2",
             "--extra-days", "1", "--query", "1", "--out", "cmp"],
            ["stats", "series", *c, "--out", "series"],
            ["stats", "trend", *c, "--out", "trend"],
            ["stats", "moving-avg", *c, "--out", "ma"],
        ]
        assert _scipy_modules_after(commands, tmp_path) == []

    def test_panel_loads_scipy(self, tmp_path, twelve_courses):
        _, corpus_path, meta = twelve_courses
        modules = _scipy_modules_after(
            [["stats", "panel", "--threads", str(corpus_path), "--meta", str(meta), "--out", "panel"]],
            tmp_path,
        )
        assert "scipy.linalg" in modules


# JSON values of every type, strings with any code point a JSON escape can spell
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(st.characters(exclude_categories=()), max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


def _valid_or_any(valid):
    return st.one_of(valid, _json_values)


_posts = st.lists(
    st.fixed_dictionaries(
        {
            "post_id": _valid_or_any(st.sampled_from(["p1", "p2", 3])),
            "author_id": _valid_or_any(st.sampled_from(["u1", 7])),
            "timestamp": _valid_or_any(st.integers(0, 10**6)),
            "text": _valid_or_any(st.text(max_size=12)),
        },
        optional={"is_staff": _valid_or_any(st.booleans())},
    ),
    min_size=1,
    max_size=3,
)
_thread_objects = st.fixed_dictionaries(
    {
        "course_id": _valid_or_any(st.sampled_from(["c", 4])),
        "thread_id": _valid_or_any(st.sampled_from(["t", 5])),
        "created_at": _valid_or_any(st.integers(0, 10**6)),
        "posts": _valid_or_any(_posts),
    },
    optional={"label": _valid_or_any(st.sampled_from(["SmallTalk", "Logistics", None]))},
)


def _run_quietly(argv):
    """main's exit code and stderr, for use inside a hypothesis test."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    return rc, err.getvalue()


def _assert_clean_exit(rc, err, codes):
    assert rc in codes, err
    if rc:
        assert "Traceback" not in err
        assert set(json.loads(err)["error"]) == {"message", "type"}


class TestFuzzedInput:
    """Arbitrary input ends in exit 0, 2 or 3, and a failure prints only the JSON error object."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(_thread_objects, _json_values))
    def test_thread_line(self, obj):
        line = json.dumps(obj)
        parser = _CorpusParser(json.loads)  # the pass that decides
        try:
            parser.add_line(line, 1)
        except (ParseError, InvariantViolation):
            thread = None
        else:
            ((thread,),) = [c.threads for c in parser.corpus().courses]
            assert isinstance(thread.thread_id, str)
            for post in thread.posts:
                assert all(isinstance(v, str) for v in (post.post_id, post.author_id, post.text))
                assert isinstance(post.is_staff, bool)
        with tempfile.TemporaryDirectory() as root:
            corpus = Path(root) / "c.jsonl"
            corpus.write_text(line + "\n")
            rc, err = _run_quietly(["ingest", "--threads", str(corpus),
                                    "--out", str(Path(root) / "o")])
        _assert_clean_exit(rc, err, (0, 3) if thread is not None else (3,))

    @settings(max_examples=150, deadline=None)
    @given(st.binary(max_size=64) | _json_values.map(lambda v: json.dumps(v).encode()))
    def test_json_object_file(self, data):
        with tempfile.TemporaryDirectory() as root:
            spec = Path(root) / "spec.json"
            spec.write_bytes(data)
            rc, err = _run_quietly(["gen", "--spec", str(spec), "--counts", "2",
                                    "--out", str(Path(root) / "o")])
        _assert_clean_exit(rc, err, (0, 2, 3))

    # keys that `stats series` reads, every key some subcommand declares, and unknown keys
    _keys = (
        st.sampled_from(["meta", "seed", "threads", "out"])
        | st.sampled_from(sorted(set().union(*map(_dests, _all_parsers(build_parser())))))
        | st.text(max_size=4)
    )

    @settings(max_examples=150, deadline=None)
    @given(_json_values | st.dictionaries(_keys, _json_values, max_size=4))
    def test_config_file(self, config):
        # a fresh working directory, so that a relative path in the config names nothing
        with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as mp:
            mp.chdir(root)
            Path("c.jsonl").write_text(_thread_line() + "\n")
            Path("config.json").write_text(json.dumps(config))
            rc, err = _run_quietly(["--config", "config.json", "stats", "series",
                                    "--threads", "c.jsonl", "--out", "o"])
        _assert_clean_exit(rc, err, (0, 2, 3))


# one valid file of each spec and model kind, every optional field given
_KIND_LESS = json.loads(make_spec(n=40, num_courses=2, epsilon=0.3, p=(0.5, 0.4), s=5, support_size=5,
                                  smalltalk_support_size=4, seed=3, s_per_course=(5, 4),
                                  training_counts=(3, 2)).to_json())
_HALF = math.log(0.5)
_NB_OBJ = {"kind": "nb", "mode": "aggregate", "pseudocount": 1.0, "vocab": ["w00", "w01"],
           "log_prior": [_HALF, _HALF], "log_cond_neg": [_HALF, _HALF], "log_cond_pos": [_HALF, _HALF]}
_VALID_FILES = {
    "uniform": {"kind": "uniform", "n": 200, "num_courses": 2, "epsilon": 0.3, "p": [0.5, 0.4], "s": 10,
                "support_size": 20, "smalltalk_support_size": 10, "seed": 3, "training_counts": [3, 2]},
    "adversarial": {"kind": "adversarial", "n": 100, "c": 4.0, "d": 1.5, "epsilon": 0.5,
                    "smalltalk_support_size": 10, "seed": 1},
    "kind-less": _KIND_LESS,
    "explicit": {"kind": "explicit", "spec": _KIND_LESS},
    "nb": _NB_OBJ,
    "svm": {"kind": "svm", "weights": {"w00": 1.0, "w01": -0.5}, "bias": 0.25, "theta": 0.0},
    "nb-percourse": {"kind": "nb-percourse", "models": {"course00": _NB_OBJ}},
}
# a field left out, and the odd values a field is set to
_DELETE = "<deleted>"
_ODD_VALUES = [_DELETE, None, True, False, 0, -1, 1, 1.5, -1.5, math.nan, 1e308, -1e308, 2**64, -(2**64),
               "", "1", "x", [], [1], ["x"], {}, {"a": 1}]


def _field_paths(value, path=()):
    """The path of every field under ``value``: each key of each object, and each list's first element."""
    items = value.items() if isinstance(value, dict) else list(enumerate(value))[:1] if isinstance(value, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _field_paths(child, path + (key,))


def _mutated(obj, path, value):
    """A copy of ``obj`` with the field at ``path`` deleted or set to ``value``."""
    obj = json.loads(json.dumps(obj))
    *parents, last = path
    parent = obj
    for key in parents:
        parent = parent[key]
    if value == _DELETE:
        del parent[last]
    else:
        parent[last] = value
    return obj


# a --config value for each key, and the commands whose keys take them; "spec" and "model" name valid files
_CONFIG_ODD = ["", math.nan, "nan", 1e308, "1e308", 10**401 - 1, 1 - 10**401, "9" * 401, "-" + "9" * 401,
               "\x00", "\u00e9"]
_CONFIG_COMMANDS = (["gen", "--spec", "spec", "--counts", "2,2"], ["ingest"], ["classify", "train"],
                    ["classify", "eval", "--model", "model"], ["classify", "roc", "--model", "model"],
                    ["topics", "extract", "--course", "course00"], ["topics", "converge", "--course", "course00"],
                    ["rank", "--course", "course00"], ["compare", "--course", "course00"], ["stats", "series"],
                    ["stats", "trend"], ["stats", "panel"], ["stats", "shapiro"], ["stats", "ttest"],
                    ["stats", "moving-avg", "--model", "model"])


def _config_cases():
    """(command, key) for each key a command declares and does not give on its command line."""
    parsers = {tuple(p.prog.split()[1:]): p for p in _all_parsers(build_parser())}
    cases = []
    for command in _CONFIG_COMMANDS:
        words = tuple(itertools.takewhile(lambda w: not w.startswith("--"), command))
        given = {w[2:].replace("-", "_") for w in command if w.startswith("--")} | {"threads", "out"}
        cases += [(command, key) for key in sorted((_dests(parsers[words]) | _dests(parsers[()])) - given)]
    return cases


def _config_case_id(value):
    return value if isinstance(value, str) else " ".join(itertools.takewhile(lambda w: not w.startswith("--"), value))


@pytest.fixture(scope="module")
def two_course_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz") / "gen"
    spec = tmp_path_factory.getbasetemp() / "fuzz-spec.json"
    spec.write_text(json.dumps(_KIND_LESS))
    assert main(["gen", "--spec", str(spec), "--counts", "6,6", "--out", str(out)]) == 0
    return out / "corpus.jsonl"


class TestMutatedFiles:
    """Each field of a valid spec or model file, corpus line or metadata row, deleted or set to an odd
    value, ends in exit 0, 2, 3 or 4 in every command that reads it; a failure prints only the JSON
    error object and creates no --out.  The vocabulary and sample size limits take part: they are
    what refuses the odd values too large to build."""

    @pytest.mark.parametrize("kind, path", [(kind, path) for kind, obj in _VALID_FILES.items()
                                            for path in _field_paths(obj)],
                             ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else v)
    @settings(max_examples=2 * len(_ODD_VALUES), deadline=None, derandomize=True)
    @given(value=st.sampled_from(_ODD_VALUES))
    def test_field(self, two_course_corpus, kind, path, value):
        with tempfile.TemporaryDirectory() as root:
            file, out = Path(root) / "input.json", Path(root) / "o"
            file.write_text(json.dumps(_mutated(_VALID_FILES[kind], path, value)))
            if kind in ("nb", "svm", "nb-percourse"):
                argv = ["classify", "eval", "--threads", str(two_course_corpus), "--model", str(file)]
            else:
                argv = ["gen", "--spec", str(file), "--counts", "2,2"]
            rc, err = _run_quietly(argv + ["--out", str(out)])
            _assert_clean_exit(rc, err, (0, 2, 3, 4))
            assert rc == 0 or not out.exists()

    # one valid two-post thread, with a staff post and a label, next to a line of another course; a
    # day-1 thread of its own course puts it on day 2, in the query window that HITS ranks
    _THREAD = {"course_id": "c0", "thread_id": "t0", "created_at": 86400, "label": "SmallTalk",
               "posts": [{"post_id": "p0", "author_id": "u0", "timestamp": 86400, "text": "gradient descent",
                          "is_staff": False},
                         {"post_id": "p1", "author_id": "u1", "timestamp": 90000, "text": "welcome everyone",
                          "is_staff": True}]}
    _OTHER_LINES = (_thread_line(course_id="c0", author_id="u1", text="matrix rank") + "\n"
                    + _thread_line(course_id="c1", label="Logistics", text="matrix rank") + "\n")
    _LINE_COMMANDS = (["ingest"], ["stats", "series"],
                      ["rank", "--course", "c0", "--algo", "hits", "--warmup", "1", "--query", "1"],
                      ["classify", "train", "--algo", "svm"], ["stats", "ttest"])

    @pytest.mark.parametrize("path", list(_field_paths(_THREAD)), ids=lambda v: ".".join(map(str, v)))
    @settings(max_examples=2 * len(_ODD_VALUES), deadline=None, derandomize=True)
    @given(value=st.sampled_from(_ODD_VALUES))
    def test_corpus_line_field(self, path, value):
        with tempfile.TemporaryDirectory() as root:
            corpus, out = Path(root) / "c.jsonl", Path(root) / "o"
            corpus.write_text(json.dumps(_mutated(self._THREAD, path, value)) + "\n" + self._OTHER_LINES)
            for command in self._LINE_COMMANDS:
                rc, err = _run_quietly([*command, "--threads", str(corpus), "--out", str(out)])
                _assert_clean_exit(rc, err, (0, 2, 3, 4))
                assert rc == 0 or not out.exists()
                shutil.rmtree(out, ignore_errors=True)

    @pytest.mark.parametrize("command, key", _config_cases(), ids=_config_case_id)
    @settings(max_examples=2 * len(_CONFIG_ODD), deadline=None, derandomize=True)
    @given(value=st.sampled_from(_CONFIG_ODD))
    def test_config_key(self, two_course_corpus, command, key, value):
        with tempfile.TemporaryDirectory() as root:
            config, out = Path(root) / "config.json", Path(root) / "o"
            config.write_text(json.dumps({key: value}))
            files = {"spec": _VALID_FILES["uniform"], "model": _VALID_FILES["svm"]}
            for name, obj in files.items():
                (Path(root) / name).write_text(json.dumps(obj))
            argv = [str(Path(root) / w) if w in files else w for w in command]
            threads = [] if command[0] == "gen" else ["--threads", str(two_course_corpus)]
            rc, err = _run_quietly(["--config", str(config), *argv, *threads, "--out", str(out)])
            _assert_clean_exit(rc, err, (0, 2, 3, 4))
            if rc:
                assert not out.exists()
            else:
                json.loads((out / "manifest.json").read_text(), parse_constant=_refuse_constant)

    # a metadata row of each course of two_course_corpus; a column is set to an odd string in one
    # row, or left out of the header and every row
    _META = [["course_id", "start_date", "Q", "V", "L", "D", "P", "S", "H", "category"],
             ["course00", "0", "1", "0", "5.5", "30", "0", "100", "2", "HumanitiesSocial"],
             ["course01", "86400", "0", "1", "3.25", "20", "1", "40", "1", "Vocational"]]
    _META_ODD = [_DELETE, "", "x", "-1", "nan", "inf", "1e308", "9" * 401, "-" + "9" * 401, "1.5", "\x00", "\u00e9"]
    _META_COMMANDS = (["ingest"], ["stats", "series"], ["stats", "trend"], ["stats", "panel"], ["stats", "shapiro"],
                      ["stats", "moving-avg"])

    @pytest.mark.parametrize("row, column", [(row, column) for column in _META[0] for row in (1, 2)])
    @settings(max_examples=2 * len(_META_ODD), deadline=None, derandomize=True)
    @given(value=st.sampled_from(_META_ODD))
    def test_metadata_field(self, two_course_corpus, row, column, value):
        j = self._META[0].index(column)
        rows = [list(r) for r in self._META]
        if value == _DELETE:
            rows = [r[:j] + r[j + 1:] for r in rows]
        else:
            rows[row][j] = value
        with tempfile.TemporaryDirectory() as root:
            meta, out = Path(root) / "meta.csv", Path(root) / "o"
            meta.write_text("".join(",".join(r) + "\n" for r in rows), encoding="utf-8")
            for command in self._META_COMMANDS:
                rc, err = _run_quietly([*command, "--threads", str(two_course_corpus), "--meta", str(meta),
                                        "--out", str(out)])
                _assert_clean_exit(rc, err, (0, 2, 3, 4))
                assert rc == 0 or not out.exists()
                shutil.rmtree(out, ignore_errors=True)
