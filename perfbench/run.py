#!/usr/bin/env python3
"""vectorhost benchmark: seeded CLI workloads, verdict checks, layer trace.

Usage, from the root of a checkout (the program is imported from ./src):

    python3 perfbench/run.py --workload endemic-verify --seed 1 \
        --seconds 25 --trace 0

One client in one process runs a closed loop: each operation is an
in-process call to vectorhost.cli.main on a generated INI config, and the
next starts when it returns.  Operations take the workload's strata in turn
(a round is one operation per stratum, see workloads.py) until their summed
wall time reaches --seconds; the operation running then is finished and
counted.

--trace 0 reports the end-to-end metrics, with each timed interval scaled
to a host that stays fast (see hostspeed.py).  --trace 1 runs each
operation of one round twice, untraced and then with every public module
boundary wrapped, and reports the per-layer metrics of the traced runs.
The last line of standard output is the JSON result; the line before it
carries the environment, the operation count, the raw wall times and every
failed or refused verdict.  Everything the run writes goes under
.perfbench_out/ in the checkout, including the traced pass's spans as
gzipped JSON lines.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import hostspeed  # noqa: E402  (sibling modules)
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
# A fresh interpreter times `import vectorhost.cli` and reads its own host
# speed just before and just after it (hostspeed.window_speed).
_IMPORT_PROBE = (
    "import time, hostspeed; s0 = hostspeed.window_speed(0.05); "
    "t = time.perf_counter(); import vectorhost.cli; "
    "dt = time.perf_counter() - t; s1 = hostspeed.window_speed(0.05); "
    "print(dt, (s0 + s1) / 2)")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "vectorhost", "__init__.py")):
        _fail(f"no program source at {SRC}/vectorhost; run from a checkout")
    sys.path.insert(0, SRC)
    import vectorhost
    from vectorhost import (cli, coeffs, config, dynamics, eigen, grid,
                            periodic, stepper)
    if os.path.dirname(os.path.dirname(os.path.abspath(vectorhost.__file__))) != SRC:
        _fail(f"imported vectorhost from {vectorhost.__file__}, not {SRC}")
    return dict(cli=cli, config=config, dynamics=dynamics, periodic=periodic,
                eigen=eigen, stepper=stepper, grid=grid, coeffs=coeffs)


# ── environment ─────────────────────────────────────────────────────────────


def environment(seed: int) -> dict:
    import numpy
    import scipy
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "vectorhost")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest(),
            "seed": seed, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0))}


# ── set-up ──────────────────────────────────────────────────────────────────


def write_configs(cases, config_dir: str) -> list:
    os.makedirs(config_dir, exist_ok=True)
    paths = []
    for case in cases:
        path = os.path.join(config_dir, f"{case.label}.ini")
        with open(path, "w") as f:
            f.write(case.config)
        paths.append(path)
    return paths


def measure_setup(mods, workload, seed: int, work: str) -> tuple:
    """Set-up time, as (scaled, wall): the median over repeats of a fresh
    interpreter's `import vectorhost.cli` plus generating and loading the
    first round's configs.  The scaled time uses the host speed the fresh
    interpreter read around its import."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    scaled, walls = [], []
    for rep in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            _fail(f"import probe failed: {proc.stderr.strip()}")
        t0 = time.perf_counter()
        cases = workloads.make_round(workload, seed, 0)
        for path in write_configs(cases, os.path.join(work, f"setup{rep}")):
            mods["config"].load_config(path)
        import_s, speed = map(float, proc.stdout.split())
        walls.append(import_s + time.perf_counter() - t0)
        scaled.append(walls[-1] * speed)
    return statistics.median(scaled), statistics.median(walls)


# ── operations ──────────────────────────────────────────────────────────────


def _digest_dir(path: str) -> dict:
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as f:
            out[name] = hashlib.sha256(f.read()).hexdigest()
    return out


def run_op(mods, workload, case, config_path: str, out_dir: str,
           tracer=None) -> dict:
    """One CLI call, timed, then checked verdict by verdict."""
    cli = mods["cli"]
    argv = [case.command, "--config", config_path, "--out", out_dir]
    raised = []
    dispatch = cli._DISPATCH
    inner = dispatch[case.command]

    def recorded(*args):
        try:
            return inner(*args)
        except Exception as exc:
            raised.append(type(exc).__name__)
            raise

    dispatch[case.command] = recorded
    sink = io.StringIO()
    rc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.call("cli.main", cli.main, argv)
    except Exception as exc:   # a crash is a failed verdict, not a dead run
        raised.append(type(exc).__name__)
    finally:
        wall = time.perf_counter() - t0
        dispatch[case.command] = inner

    n = len(case.verdicts)
    cause = raised[-1] if raised else f"exit {rc}"
    if rc == 0:
        try:
            problems = workloads.check_outputs(case, out_dir)
        except (OSError, KeyError, ValueError) as exc:
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"] * n
        verdicts = [("certified", None) if p is None else ("failed", p)
                    for p in problems]
    elif rc == 2 and workload.refusals_allowed and raised:
        verdicts = [("refused", cause)] * n
    else:
        verdicts = [("failed", f"{cause}: {sink.getvalue().strip()[-300:]}")] * n
    digest = _digest_dir(out_dir) if os.path.isdir(out_dir) else {}
    shutil.rmtree(out_dir, ignore_errors=True)
    return {"label": case.label, "slot": case.slot, "command": case.command,
            "wall": wall, "rc": rc, "verdicts": verdicts, "outputs": digest}


def operations(workload, seed: int, work: str):
    """Endless (case, config path, output dir) stream, round after round."""
    round_no = 0
    while True:
        cases = workloads.make_round(workload, seed, round_no)
        round_dir = os.path.join(work, f"round{round_no}")
        paths = write_configs(cases, os.path.join(round_dir, "configs"))
        for case, path in zip(cases, paths):
            yield case, path, os.path.join(round_dir, case.label)
        round_no += 1


def per_stratum(ops, value) -> float:
    """Mean of value(op) in each stratum, averaged over strata.

    A run stops part-way through a round, so a plain mean over operations
    would move with the stratum it happened to stop on.
    """
    by_slot = defaultdict(list)
    for op in ops:
        by_slot[op["slot"]].append(value(op))
    return statistics.fmean(statistics.fmean(v) for v in by_slot.values())


def certified_share(op) -> float:
    return statistics.fmean(s == "certified" for s, _ in op["verdicts"])


def tally(ops) -> dict:
    verdicts = [v for op in ops for v in op["verdicts"]]
    status = Counter(s for s, _ in verdicts)
    return {
        "operations": len(ops),
        "attempted": len(verdicts),
        "certified": status["certified"],
        "refused_by_class": dict(Counter(d for s, d in verdicts if s == "refused")),
        "failed": [{"op": op["label"], "detail": d}
                   for op in ops for s, d in op["verdicts"] if s == "failed"],
    }


# ── the two modes ───────────────────────────────────────────────────────────


def timed_run(mods, workload, seed, seconds, work):
    """Set-up, then operations until their summed wall time reaches
    `seconds`.  Each interval is also scaled by the host speed read during
    it (hostspeed.py); the scaled times are the reported ones."""
    setup_s, setup_wall = measure_setup(mods, workload, seed, work)
    ops = []
    stream = operations(workload, seed, work)
    with hostspeed.Sampler() as host:
        while not ops or sum(op["wall"] for op in ops) < seconds:
            case, path, out_dir = next(stream)
            mark = host.mark()
            op = run_op(mods, workload, case, path, out_dir)
            op["speed"] = host.mean_since(mark)
            op["ref_s"] = op["wall"] * op["speed"]
            ops.append(op)
    counts = tally(ops)
    metrics = {
        "op_p50_s": (statistics.median(op["ref_s"] for op in ops), "s"),
        "ops_per_s": (1.0 / per_stratum(ops, lambda op: op["ref_s"]), "1/s"),
        "certified_frac": (per_stratum(ops, certified_share), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }
    walls = [op["wall"] for op in ops]
    counts["wall"] = {"op_p50_s": statistics.median(walls),
                      "ops_per_s": len(ops) / sum(walls), "setup_s": setup_wall}
    counts["host_speed"] = {**{op["label"]: round(op["speed"], 4) for op in ops},
                            "readings": len(host.speeds)}
    counts["op_walls"] = {op["label"]: round(op["wall"], 4) for op in ops}
    return counts, metrics


def traced_run(mods, workload, seed, work):
    """Round 0, each operation run untraced and then traced, back to back.

    Adjacent pairs keep the machine's slow and fast phases out of the
    overhead estimate.  Both runs of an input must write byte-identical
    outputs.
    """
    cases = workloads.make_round(workload, seed, 0)
    paths = write_configs(cases, os.path.join(work, "configs"))
    tr = tracing.Tracer()
    t_origin = time.perf_counter()
    plain_s = traced_s = 0.0
    traced = []
    for k, (case, path) in enumerate(zip(cases, paths)):
        plain = run_op(mods, workload, case, path,
                       os.path.join(work, "plain", case.label))
        tr.install(mods)
        try:
            tr.begin_op(k)
            op = run_op(mods, workload, case, path,
                        os.path.join(work, "traced", case.label), tr)
        finally:
            tr.uninstall()
        if op["outputs"] != plain["outputs"] or op["rc"] != plain["rc"]:
            op["verdicts"] = [("failed", "outputs differ between two runs of "
                               "the same input")] * len(op["verdicts"])
        plain_s += plain["wall"]
        traced_s += op["wall"]
        traced.append(op)
    tr.write_jsonl(os.path.join(work, "trace.jsonl.gz"), t_origin)
    counts = tally(traced)
    metrics = tracing.layer_metrics(tr.spans)
    metrics["tracing.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    counts["plain_s"] = plain_s
    counts["traced_s"] = traced_s
    counts["computed"] = list(tracing.COMPUTED)
    return counts, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    mods = _import_program()
    workload = workloads.WORKLOADS[args.workload]
    work = os.path.join(ROOT, ".perfbench_out",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    if args.trace:
        counts, metrics = traced_run(mods, workload, args.seed, work)
    else:
        counts, metrics = timed_run(mods, workload, args.seed, args.seconds,
                                    work)
    result = {
        "correct": not counts["failed"],
        "attempted": counts["attempted"],
        "failed": len(counts["failed"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = {"workload": args.workload, "trace": args.trace,
               "environment": environment(args.seed), **counts}
    with open(os.path.join(work, "result.json"), "w") as f:
        json.dump({"details": details, "result": result}, f, indent=1)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
