"""Child process of the benchmark: one set-up, one pass, or one traced command.

Each unit of work runs in a fresh process so that its peak RSS is its own and
set-up time includes interpreter start and imports.  Usage (from the
repository root, with ``PYTHONPATH=src``):

    python bench/worker.py setup WORKLOAD SEED TRACE RESULT_JSON
    python bench/worker.py pass TRACE PLAN_JSON RESULT_JSON
    python bench/worker.py cli SPANS_JSON FORUMLENS_ARG...

``pass`` runs the plan's commands in order through ``forumlens.cli.main``;
``cli`` runs one traced command as a fresh ``forumlens`` process would.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def _import_cli():
    start = perf_counter()
    import forumlens.cli

    elapsed = perf_counter() - start
    src = (ROOT / "src").resolve()
    if src not in Path(forumlens.cli.__file__).resolve().parents:
        raise SystemExit(f"forumlens was imported from {forumlens.cli.__file__}, not from {src}")
    return forumlens.cli, elapsed


def _versions() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}


def _tracer(unit: str, enabled: bool):
    if not enabled:
        return None
    from tracing import Tracer

    tracer = Tracer(unit)
    tracer.install()
    return tracer


def _write(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def run_setup(workload: str, seed: int, trace: bool, result_path: str) -> None:
    from workloads import setup

    _, import_s = _import_cli()
    if workload == "forum-activity":
        import forumgen  # noqa: F401  (loaded before tracing so its names get rebound)
    tracer = _tracer("setup", trace)
    info = setup(workload, seed, tracer)
    _write(result_path, {
        "info": info,
        "versions": _versions(),
        "import_s": import_s,
        "trace": tracer.dump() if tracer else None,
    })


def run_pass(trace: bool, plan_path: str, result_path: str) -> None:
    from speed import sample

    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    cli, import_s = _import_cli()
    tracer = _tracer("pass", trace)
    results = []
    calibration = [sample()]
    for argv in plan:
        err = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                code = tracer.run_command(cli.main, argv) if tracer else cli.main(argv)
        except KeyboardInterrupt:
            raise
        except BaseException:  # a traceback is a failed command, not a failed benchmark
            code, tb = None, traceback.format_exc()
        else:
            tb = ""
        results.append({"seconds": perf_counter() - t0, "code": code, "stderr": err.getvalue() + tb})
        calibration.append(sample())
    _write(result_path, {
        "commands": results,
        "calibration": calibration,
        "import_s": import_s,
        "trace": tracer.dump() if tracer else None,
    })


def run_cli(spans_path: str, argv: list[str]) -> int:
    cli, import_s = _import_cli()
    tracer = _tracer("command", True)
    code = tracer.run_command(cli.main, argv)
    _write(spans_path, {"import_s": import_s, "trace": tracer.dump()})
    return code


def main() -> int:
    mode, *rest = sys.argv[1:]
    if mode == "setup":
        workload, seed, trace, result_path = rest
        run_setup(workload, int(seed), trace == "1", result_path)
    elif mode == "pass":
        trace, plan_path, result_path = rest
        run_pass(trace == "1", plan_path, result_path)
    elif mode == "cli":
        spans_path, *argv = rest
        return run_cli(spans_path, argv)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
