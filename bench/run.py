"""forumlens benchmark: seeded workloads, end-to-end metrics, traced layer metrics.

Run from anywhere; it works in the repository root it lives in:

    python3 bench/run.py --workload labeled-text --seed 7 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload, one report

Each workload is one seeded, single-client closed loop: a command starts only
after the previous one returned.  A run sets the inputs up three times (the
median is ``setup_s``), then makes a fixed number of passes over the
workload's commands, each pass in a fresh process.  Every artifact is
checked: each command's exit code, no traceback, its ``--out`` digests equal
to the first pass's and, at the default seed, to the reference digests kept
in ``bench/reference/``.  Times are reported in reference seconds: each
command's wall time is scaled by a calibration loop timed just before and
after it (``speed.py``), so the drift of a shared host cancels out; the
unscaled wall times are printed too.  ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics instead (see README.md).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
from tracing import layer_metrics  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Command, commands, setup_outputs, work_dir  # noqa: E402

SETUPS = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s
FAMILIES = ("ingest", "classify", "topics", "rank", "compare", "stats")
END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    **{f"{family}_s": "s" for family in FAMILIES},
    "cmd_s.p50": "s",
    "cmd_s.tail": "s",
    "peak_rss_mb": "MB",
}
# BLAS/OpenMP pools of one thread (<= nproc); forumlens's own pool unset.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class RunFailed(Exception):
    """The run cannot produce a result (a set-up failed or time ran out)."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "FORUMLENS_THREADS"}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = "src"
    return env


def environment(versions: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        **versions,
        "platform": platform.platform(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": PINNED_ENV,
        "FORUMLENS_THREADS": "unset",
        "hardware_counters": "none: the host exposes no hardware performance counters; counts are program-level",
    }


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


class Runner:
    """Starts one child at a time, waits for it, and records its peak RSS."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = child_env()

    def spawn(self, argv: list[str], log: Path) -> tuple[float, float, int, str]:
        """(wall seconds, peak RSS MB, exit code, stderr) of one child process."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RunFailed("run time limit reached")
        with open(log, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(remaining, proc.send_signal, (signal.SIGKILL,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode == -signal.SIGKILL:
            raise RunFailed("run time limit reached")
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, log.read_text(errors="replace")


def python(*args: str) -> list[str]:
    return [sys.executable, *args]


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


def digest_tree(path: str) -> dict[str, str]:
    out = {}
    for dirpath, _, files in os.walk(ROOT / path):
        for name in files:
            full = Path(dirpath) / name
            out[str(full.relative_to(ROOT / path))] = hashlib.sha256(full.read_bytes()).hexdigest()
    return dict(sorted(out.items()))


class Checker:
    """Counts attempted and failed commands; a failure is any wrong artifact."""

    def __init__(self, workload: str, seed: int, use_reference: bool):
        self.reference = None
        path = BENCH / "reference" / f"{workload}.json"
        if use_reference and seed == DEFAULT_SEED and path.is_file():
            self.reference = json.loads(path.read_text())
        self.first: dict[str, dict] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def command(self, what: str, code, expect: int, stderr: str, out_dirs: list[str],
                summary: dict | None = None) -> None:
        """Check one command; ``summary`` is what an ingest's summary.csv must list."""
        self.attempted += 1
        problem = None
        if code != expect:
            problem = f"exit code {code}, expected {expect}"
        elif "Traceback (most recent call last)" in stderr:
            problem = "printed a traceback"
        else:
            for out in out_dirs:
                digests = digest_tree(out)
                first = self.first.setdefault(out, digests)
                if digests != first:
                    problem = f"{out} differs from the first pass"
                elif self.reference is not None and self.reference.get(out) != digests:
                    problem = f"{out} differs from the reference digests"
                if problem:
                    break
            if not problem and summary is not None:
                problem = self._summary(out_dirs[0], summary)
        if problem:
            self.failures.append(f"{what}: {problem}: {stderr.strip()[-300:]}")

    @staticmethod
    def _summary(out: str, expected: dict) -> str | None:
        rows = (ROOT / out / "summary.csv").read_text().splitlines()[1:]
        got = {r.split(",")[0]: [int(v) for v in r.split(",")[1:3]] for r in rows}
        return None if got == expected else f"summary.csv lists {got}, set-up wrote {expected}"


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def in_process_pass(runner, cmds, wd: Path, index: int, traced: bool) -> dict:
    plan = wd / "plan.json"
    plan.write_text(json.dumps([list(c.argv) for c in cmds]))
    result = wd / f"pass{index}.json"
    _, rss, code, err = runner.spawn(
        python(str(BENCH / "worker.py"), "pass", str(int(traced)), str(plan), str(result)),
        wd / f"pass{index}.log",
    )
    if code != 0:
        raise RunFailed(f"pass worker exited {code}: {err[-2000:]}")
    res = json.loads(result.read_text())
    return {
        "rss_mb": rss,
        "commands": res["commands"],
        "calibration": res["calibration"],
        "dumps": [res["trace"]] if traced else [],
        "import_s": [res["import_s"]],
    }


def cold_pass(runner, cmds, wd: Path, index: int, traced: bool) -> dict:
    results, dumps, imports, peak = [], [], [], 0.0
    calibration = [speed.sample()]
    for j, c in enumerate(cmds):
        spans = wd / f"pass{index}-cmd{j}.json"
        if traced:
            argv = python(str(BENCH / "worker.py"), "cli", str(spans), *c.argv)
        else:
            argv = python("-m", "forumlens.cli", *c.argv)
        wall, rss, code, err = runner.spawn(argv, wd / f"pass{index}-cmd{j}.log")
        results.append({"seconds": wall, "code": code, "stderr": err})
        calibration.append(speed.sample())
        peak = max(peak, rss)
        if traced and spans.is_file():
            res = json.loads(spans.read_text())
            dumps.append(res["trace"])
            imports.append(res["import_s"])
    return {
        "rss_mb": peak,
        "commands": results,
        "calibration": calibration,
        "dumps": dumps,
        "import_s": imports,
    }


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        raise RunFailed(f"{n} command samples; the tail needs at least 11")
    return ordered[n - 11], 100.0 * (n - 10) / n


def _median(values):
    """Median; counts (ints) keep an observed value so they stay exact."""
    values = list(values)
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _scaled(metrics: dict, factor: float) -> dict:
    """Per-layer metrics with every time converted to reference seconds."""
    return {k: v * factor if k.endswith("_s") else v for k, v in metrics.items()}


def end_to_end(cmds, passes, setup_times, key: str):
    """(metrics, command samples, tail percentile) from each command's ``key`` time.

    ``key`` is "scaled" for reference seconds or "seconds" for wall seconds.
    """
    samples = [r[key] for p in passes for r in p["commands"]]
    tail_s, tail_pct = tail(samples)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(sum(r[key] for r in p["commands"]) for p in passes),
        **{
            f"{family}_s": statistics.median(
                sum(r[key] for c, r in zip(cmds, p["commands"]) if c.family == family) for p in passes
            )
            for family in FAMILIES
        },
        "cmd_s.p50": statistics.median(samples),
        "cmd_s.tail": tail_s,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    return metrics, len(samples), tail_pct


def run_workload(name: str, seed: int, seconds: int, trace: bool, runner: Runner, write_reference: bool) -> dict:
    wl = WORKLOADS[name]
    wd = ROOT / work_dir(name)
    shutil.rmtree(wd, ignore_errors=True)
    wd.mkdir(parents=True)
    check = Checker(name, seed, use_reference=not write_reference)

    setup_walls, setup_dumps, setup_cal = [], [], [speed.sample()]
    for i in range(SETUPS):
        for d in setup_outputs(name):
            shutil.rmtree(ROOT / d, ignore_errors=True)
        result = wd / f"setup{i}.json"
        wall, _, code, err = runner.spawn(
            python(str(BENCH / "worker.py"), "setup", name, str(seed), str(int(trace)), str(result)),
            wd / f"setup{i}.log",
        )
        check.command(f"set-up {i}", code, 0, err, setup_outputs(name))
        if code != 0:
            raise RunFailed(f"set-up exited {code}: {err[-2000:]}")
        setup_cal.append(speed.sample())
        res = json.loads(result.read_text())
        setup_walls.append(wall)
        if res["trace"]:
            setup_dumps.append(res["trace"])
    info, versions = res["info"], res["versions"]

    cmds: list[Command] = commands(name, info)
    n_passes = max(2, round(seconds / wl.pass_seconds))
    passes = []
    for i in range(2 * n_passes if trace else n_passes):
        traced = trace and i % 2 == 1
        shutil.rmtree(wd / "out", ignore_errors=True)
        run_pass = in_process_pass if wl.in_process else cold_pass
        p = run_pass(runner, cmds, wd, i, traced)
        p["traced"] = traced
        cal = p["calibration"]
        for j, r in enumerate(p["commands"]):
            r["scaled"] = r["seconds"] * speed.factor(cal[j], cal[j + 1])
        p["factor"] = speed.pass_factor(cal)
        for c, r in zip(cmds, p["commands"]):
            check.command(f"pass {i} {c.out}", r["code"], c.expect, r["stderr"], [c.out],
                          info["summary"] if c.family == "ingest" else None)
        passes.append(p)

    if write_reference:
        if seed != DEFAULT_SEED:
            raise RunFailed(f"reference digests are kept for seed {DEFAULT_SEED} only")
        (BENCH / "reference").mkdir(exist_ok=True)
        (BENCH / "reference" / f"{name}.json").write_text(json.dumps(check.first, indent=1, sort_keys=True) + "\n")

    plain = [p for p in passes if not p["traced"]]
    setup_scaled = [w * speed.factor(setup_cal[i], setup_cal[i + 1]) for i, w in enumerate(setup_walls)]
    setup_factor = speed.pass_factor(setup_cal)
    e2e, n_samples, tail_pct = end_to_end(cmds, plain, setup_scaled, "scaled")
    wall, _, _ = end_to_end(cmds, plain, setup_walls, "seconds")
    report = {
        "workload": name,
        "seed": seed,
        "why": wl.why,
        "passes": len(plain),
        "setups": SETUPS,
        "cmd_samples": n_samples,
        "tail_percentile": tail_pct,
        "attempted": check.attempted,
        "failed": len(check.failures),
        "failures": check.failures,
        "fail_ratio": len(check.failures) / check.attempted,
        "end_to_end": e2e,
        "wall_end_to_end": wall,
        "speed_factor": {"setups": setup_factor, "passes": [p["factor"] for p in passes]},
        "environment": environment(versions),
    }
    if trace:
        traced = [p for p in passes if p["traced"]]
        per_pass = [_scaled(layer_metrics(p["dumps"]), p["factor"]) for p in traced]
        layers = {k: _median(m[k] for m in per_pass) for k in per_pass[0]}
        if setup_dumps:  # figures cover one set-up plus one pass
            per_setup = [_scaled(layer_metrics([d]), setup_factor) for d in setup_dumps]
            for k in layers:
                layers[k] += _median(m[k] for m in per_setup)
        layers["cli.import_s"] = statistics.median(s * p["factor"] for p in traced for s in p["import_s"])
        traced_pass_s = statistics.median(sum(r["scaled"] for r in p["commands"]) for p in traced)
        layers["trace.overhead_s"] = traced_pass_s - e2e["pass_s"]
        report["per_layer"] = layers
        spans = {"setups": setup_dumps, "passes": [p["dumps"] for p in traced]}
        (wd / "spans.json").write_text(json.dumps(spans))
    (wd / "report.json").write_text(json.dumps(report, indent=1))
    return report


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("bytes_read", "bytes_written", "bytes_hashed")):
        return "bytes"
    if name.endswith(("_per_thread", "_density")):
        return "ratio"
    return "count"


def metrics_of(report: dict, trace: bool) -> dict:
    if trace:
        return {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(report["per_layer"].items())}
    return {k: {"value": report["end_to_end"][k], "unit": u} for k, u in END_TO_END_UNITS.items()}


def print_report(report: dict, trace: bool) -> None:
    print(f"== {report['workload']} (seed {report['seed']}): {report['why']}")
    factors = report["speed_factor"]["passes"]
    print(f"   {report['setups']} set-ups, {report['passes']} untraced passes, "
          f"{report['cmd_samples']} command samples; times in reference seconds "
          f"(wall x {min(factors):.3f}..{max(factors):.3f}, see speed.py)")
    for name, m in metrics_of(report, trace).items():
        note = ""
        if name == "cmd_s.tail":
            note = f"  (p{report['tail_percentile']:.1f} of {report['cmd_samples']} samples, 10 above it)"
        print(f"   {name:32s} {m['value']:>16.6g} {m['unit']}{note}")
    if not trace:
        wall = ", ".join(f"{k} {v:.4g}" for k, v in report["wall_end_to_end"].items())
        print(f"   unscaled wall: {wall}")
    print(f"   {'fail_ratio':32s} {report['fail_ratio']:>16.6g} ratio"
          f"  ({report['failed']} failed / {report['attempted']} attempted)")
    for failure in report["failures"]:
        print(f"   FAILED {failure}")
    print("   environment " + json.dumps(report["environment"], sort_keys=True))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help=f"record the first pass's digests as the reference (seed {DEFAULT_SEED})")
    args = parser.parse_args()

    if not (ROOT / "src" / "forumlens" / "cli.py").is_file():
        print(f"forumlens sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runner = Runner(time.monotonic() + RUN_LIMIT_S * len(names))
    try:
        reports = [run_workload(n, args.seed, args.seconds, bool(args.trace), runner, args.write_reference)
                   for n in names]
    except RunFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    for report in reports:
        print_report(report, bool(args.trace))
    if len(reports) == 1:
        metrics = metrics_of(reports[0], bool(args.trace))
    else:
        metrics = {f"{r['workload']}/{k}": v for r in reports for k, v in metrics_of(r, bool(args.trace)).items()}
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
