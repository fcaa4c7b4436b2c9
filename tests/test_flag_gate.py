"""Every flag is read or refused: each (path, flag) pair either changes an artifact or exits 2.

A path is a command and, where it picks one, its ``--algo``.  The pairs come
from the parsers and from ``cli._unread``, so a new flag or path is covered
without editing this file, apart from its default run in ``BASE`` and an
alternative value in ``ALT``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from forumlens.cli import _UNREAD, _all_parsers, _unread, build_parser, main

# flags that change no artifact by design, each with its reason
EXEMPT = {
    "--out": "names the output directory, not a setting of the run",
    "--config": "a config file only fills unset flags; its values are covered by the flags it fills",
    "stats ttest --meta": "the metadata is parsed and checked, but the test reads only thread times",
}

_LABELS = ["SmallTalk", "CourseSpecific", "Logistics", "Unlabeled"]
_COURSES = 12


def _write_forum(path, seed):
    """A 12-course corpus over 14 days whose staff posts change the keyword fit and the classifiers.

    Course words drift with the day, so the warm-up length changes the keywords.
    Staff posts carry words of their own course and small-talk words, so
    dropping them changes the keywords, the rankings built on them and every
    classifier decision on a thread that a staff member answered.
    """
    rng = np.random.default_rng(seed)
    lines = []
    for c in range(_COURSES):
        start = 86400 * (2 + c)
        for day in range(14):
            times = np.sort(rng.integers(0, 86000, size=1 + (day * (c + 1)) % 5))
            for n, offset in enumerate(times.tolist()):
                label = _LABELS[int(rng.choice(4, p=[0.3, 0.4, 0.2, 0.1]))]
                ts = start + 86400 * day + offset
                posts = []
                for i in range(int(rng.integers(1, 5))):
                    staff = i > 0 and rng.random() < 0.4
                    if staff:
                        words = [f"c{c}staff{rng.integers(4)}" for _ in range(3)]
                        words += [f"st{rng.integers(20)}" for _ in range(12)]
                    elif label == "SmallTalk":
                        words = [f"st{rng.integers(20)}" for _ in range(6)]
                    elif label == "CourseSpecific":
                        words = [f"c{c}d{(day + rng.integers(3)) // 2}w{rng.integers(6)}" for _ in range(6)]
                    else:
                        words = [f"lg{rng.integers(15)}" for _ in range(6)]
                    posts.append({"post_id": f"c{c}d{day}n{n}p{i}", "timestamp": ts,
                                  "author_id": f"staff{c}" if staff else f"u{rng.integers(25)}",
                                  "text": " ".join(words), "is_staff": bool(staff)})
                    ts += int(rng.integers(60, 3600))
                lines.append(json.dumps({"course_id": f"course{c:02d}", "thread_id": f"c{c}d{day}n{n}",
                                         "created_at": posts[0]["timestamp"], "label": label,
                                         "posts": posts}))
    path.write_text("\n".join(lines) + "\n")
    return path


def _write_meta(path, seed):
    rng = np.random.default_rng(seed)
    categories = ["Vocational", "AppliedScience", "HumanitiesSocial"]
    rows = ["course_id,start_date,Q,V,L,D,P,S,H,category"]
    for c in range(_COURSES):
        rows.append(f"course{c:02d},{86400 * (1 + c)},{rng.integers(2)},{rng.integers(2)},"
                    f"{rng.uniform(2, 20):.2f},{rng.integers(10, 40)},{rng.integers(2)},"
                    f"{rng.integers(0, 500)},{rng.integers(0, 12)},{categories[int(rng.integers(3))]}")
    path.write_text("\n".join(rows) + "\n")
    return path


def _spec(path, seed):
    path.write_text(json.dumps({"kind": "uniform", "n": 300, "num_courses": 2, "epsilon": 0.3,
                                "p": 0.5, "s": 40, "support_size": 20, "seed": seed}))
    return path


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("gate")
    files = {
        "corpus": _write_forum(root / "forum.jsonl", 1),
        "corpus2": _write_forum(root / "forum2.jsonl", 2),
        "meta": _write_meta(root / "meta.csv", 3),
        "meta2": _write_meta(root / "meta2.csv", 4),
        "spec": _spec(root / "spec.json", 7),
        "spec2": _spec(root / "spec2.json", 8),
        "stopwords": root / "stopwords.txt",
    }
    files["stopwords"].write_text("\n".join([f"st{i}" for i in range(20)] + ["c0staff0", "c0staff1"]))
    for name, epochs in [("model", "5"), ("model2", "1")]:
        out = root / name
        assert main(["classify", "train", "--threads", str(files["corpus"]), "--algo", "svm",
                     "--epochs", epochs, "--out", str(out)]) == 0
        files[name] = out / "model.json"
    return {k: str(v) for k, v in files.items()}


# every path's default run: the flags it is given, by name; inputs are named by their key
BASE = {
    "gen": {"--spec": "spec", "--counts": "6,6"},
    "classify eval": {"--model": "model"},
    "classify roc": {"--model": "model"},
    "topics extract": {"--course": "course00"},
    "topics converge": {"--course": "course00"},
    "rank": {"--course": "course00", "--warmup": "4", "--query": "2"},
    "compare": {"--course": "course00", "--low": "3", "--high": "8", "--extra-days": "2",
                "--query": "2", "--k": "3"},
    "stats panel": {"--meta": "meta"},
    "stats ttest": {"--threshold": "5"},
    "stats moving-avg": {"--model": "model"},
}

# a value other than the path's default run gives, for every flag but the exempt ones
ALT = {
    "--threads": "corpus2", "--spec": "spec2", "--model": "model2", "--meta": "meta",
    "--stopwords": "stopwords",
    "--exclude-staff": None, "--seed": "9", "--counts": "4,8", "--threads-per-day": "5",
    "--name": "other.jsonl", "--course": "course01", "--background": "course01,course02",
    "--k": "5", "--warmup-days": "4", "--max-days": "5", "--warmup": "6", "--query": "1",
    "--alpha": "0.99", "--keyword-k": "3", "--low": "4", "--high": "12", "--extra-days": "4",
    "--mode": "percourse", "--pseudocount": "0.1", "--lambda": "0.1", "--epochs": "1",
    "--theta": "10", "--theta-min": "-1", "--theta-max": "1", "--theta-steps": "3",
    "--target": "z", "--scale-staff": "1", "--trim": "0.2", "--t-days": "3", "--threshold": "3",
    "--alpha-ma": "0.5", "--denominator": "timealigned",
}


def _paths():
    """{path: (command words, the flags of its default run, {flag: action})} for every path."""
    parser = build_parser()
    paths = {}
    for sub in _all_parsers(parser):
        if sub.get_default("func") is None:
            continue
        words = sub.prog.split()[1:]
        flags = {a.option_strings[0]: a for a in [*parser._actions, *sub._actions]
                 if a.option_strings and a.dest != "help"}
        for algo in flags["--algo"].choices if "--algo" in flags else [None]:
            path = " ".join(words)
            base = {"--threads": "corpus"} if "--threads" in flags else {}
            base.update(BASE.get(path, {}))
            if algo:
                base["--algo"] = algo
                path += f" --algo {algo}"
            paths[path] = (words, base, flags)
    return paths


_PATHS = _paths()
_TOP = {a.option_strings[0] for a in build_parser()._actions if a.option_strings}


def _pairs(refused):
    return [(path, flag) for path, (_, _, flags) in _PATHS.items() for flag in flags
            if (flag in _unread(path)) == refused and not {flag, f"{path} {flag}"} & set(EXEMPT)]


def _alternative(path, flag):
    """A value of ``flag`` other than the one the path's default run gives it."""
    _, base, flags = _PATHS[path]
    if flag == "--algo":  # another algorithm, which is another path
        return next(c for c in flags[flag].choices if c != base[flag])
    if flag == "--meta" and flag in base:
        return "meta2"
    return ALT[flag]


def _argv(path, flags, inputs, out):
    """Top-level flags go before the command words, the others after them."""
    before, after = [], []
    for flag, value in flags.items():
        part = [flag] if value is None else [flag, inputs.get(value, value)]
        (before if flag in _TOP else after).extend(part)
    return [*before, *_PATHS[path][0], *after, "--out", str(out)]


def _artifacts(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in Path(out).iterdir() if p.name != "manifest.json"}


@pytest.fixture(scope="module")
def default_runs(inputs, tmp_path_factory):
    """Each path's default run, made on first use: its artifacts other than the manifest."""
    root = tmp_path_factory.mktemp("default-runs")
    runs = {}

    def run(path):
        if path not in runs:
            out = root / path.replace(" ", "_")
            assert main(_argv(path, _PATHS[path][1], inputs, out)) == 0, path
            runs[path] = _artifacts(out)
        return runs[path]

    return run


def test_every_path_and_pair_is_covered():
    assert set(_UNREAD) <= set(_PATHS)
    assert len(_pairs(refused=True)) == 30  # 14 algorithm pairs and --seed on 16 paths
    for path, flag in _pairs(refused=False):
        assert _alternative(path, flag) != _PATHS[path][1].get(flag, "unset"), (path, flag)


@pytest.mark.parametrize("path, flag", _pairs(refused=True), ids=lambda v: v)
def test_unread_flag_exits_2(tmp_path, capsys, inputs, path, flag):
    out = tmp_path / "out"
    assert main(_argv(path, {**_PATHS[path][1], flag: ALT[flag]}, inputs, out)) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ConfigError"
    assert err["message"].startswith(f"{flag} ")
    assert not out.exists()


@pytest.mark.parametrize("path, flag", _pairs(refused=False), ids=lambda v: v)
def test_read_flag_changes_an_artifact(tmp_path, inputs, default_runs, path, flag):
    out = tmp_path / "out"
    assert main(_argv(path, {**_PATHS[path][1], flag: _alternative(path, flag)}, inputs, out)) == 0
    assert _artifacts(out) != default_runs(path)
