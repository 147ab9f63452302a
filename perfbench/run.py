"""Benchmark of the qdeform command line, one workload per run.

    python3 perfbench/run.py --workload regular --seed 1 --seconds 20 --trace 0

Run it from the root of a qdeform checkout.  A run repeats whole passes of
the workload's CLI invocations (perfbench/workloads.py) until --seconds
have gone by, one invocation at a time, and checks every output with
perfbench/checks.py.  With --trace 0 each invocation is its own
``python -m qdeform.cli`` process, and the run reports the end-to-end
metrics: the median over passes of the time each command took in a pass,
the set-up time of a process that only imports the package, and the
largest peak RSS of any invocation.  With --trace 1 the same passes run in
this process under perfbench/spans.py and the run reports the per-layer
metrics.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.
"""

import argparse
import contextlib
import io
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import Mismatch, Well, need  # noqa: E402

CHILD_TIMEOUT_S = 170.0
RUNS_DIR = ".perfbench_runs"
COMMAND_METRICS = ("spectrum_s", "verify_s", "wavefunction_s", "morse_limit_s")


@dataclass
class Outcome:
    rc: int
    stdout: str
    stderr: str
    seconds: float
    maxrss_mb: float = 0.0


@dataclass
class PassResult:
    times: dict
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    rows: int = 0
    maxrss_mb: float = 0.0
    layers: dict = field(default_factory=dict)


def cli_subprocess(argv, workdir):
    """One ``python -m qdeform.cli`` process, with PYTHONPATH=src added to
    the caller's environment; waits for it and reads its rusage."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    out_path, err_path = os.path.join(workdir, "stdout"), os.path.join(workdir, "stderr")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "qdeform.cli", *argv],
                                stdout=out, stderr=err, env=env)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as out, open(err_path) as err:
        return Outcome(proc.returncode, out.read(), err.read(), seconds,
                       usage.ru_maxrss / 1024.0)


def cli_in_process(argv, workdir):
    """``qdeform.cli.main`` in this process, looked up at call time so that
    the traced wrapper runs; a crash counts as exit code 1."""
    import qdeform.cli

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = qdeform.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            traceback.print_exc()
            rc = 1
    return Outcome(rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0)


def write_configs(configs, workdir):
    for name, cfg in configs.items():
        with open(os.path.join(workdir, name + ".json"), "w") as fh:
            json.dump(cfg, fh)


def _wavefunction_base(op, workdir):
    return os.path.join(workdir, "wf-%s-%d" % (op.config, op.n_r))


def op_argv(op, workdir):
    argv = [op.command, "--config", os.path.join(workdir, op.config + ".json")]
    if op.show_disputed:
        argv.append("--show-disputed")
    if op.n_r is not None:
        argv += ["--n-r", str(op.n_r), "--out", _wavefunction_base(op, workdir) + ".csv"]
    if op.q_list:
        argv += ["--q-list", op.q_list]
    return argv


def check_op(op, out, configs, workdir, seen):
    """Check one invocation's output; returns the number of rows it wrote.

    ``seen`` collects the checked levels of the pass: a wavefunction is
    certified at the energy the pass's spectrum of the same config gave.
    """
    w = Well.from_config(configs[op.config])
    if op.command == "spectrum":
        main, disputed = checks.check_spectrum(out.stdout, w, op.show_disputed)
        seen[("spectrum", op.config)] = main
        if op.show_disputed:
            seen[("disputed", op.config)] = disputed
        return len(main) + len(disputed)
    if op.command == "verify":
        analytic, oracle = checks.check_verify(out.stdout, out.stderr, w)
        seen[("oracle", op.config)] = oracle
        return len(analytic)
    if op.command == "wavefunction":
        levels = seen.get(("spectrum", op.config), {})
        need(op.n_r in levels, "no checked spectrum level n_r=%d of %s" % (op.n_r, op.config))
        base = _wavefunction_base(op, workdir)
        return checks.check_wavefunction(base + ".csv", base + ".json", op.n_r,
                                         levels[op.n_r], w)
    q_list = [float(q) for q in op.q_list.split(",")]
    return checks.check_morse_limit(out.stdout, q_list, w)


def run_pass(configs, ops, workdir, invoke):
    """One pass over the workload's invocations, timed and checked."""
    result = PassResult(times={name: 0.0 for name in COMMAND_METRICS})
    seen = {}
    for op in ops:
        if op.n_r is not None:
            for ext in (".csv", ".json"):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(_wavefunction_base(op, workdir) + ext)
        out = invoke(op_argv(op, workdir), workdir)
        result.attempted += 1
        result.times[op.metric] += out.seconds
        result.maxrss_mb = max(result.maxrss_mb, out.maxrss_mb)
        if out.rc != op.expect_exit or (
                op.expect_stderr and op.expect_stderr not in out.stderr.lower()):
            result.failed += 1
            print("failed: %s: exit %s, expected %d%s; stderr: %s"
                  % (op.label(), out.rc, op.expect_exit,
                     " with %r" % op.expect_stderr if op.expect_stderr else "",
                     out.stderr.strip()[-300:]), file=sys.stderr)
            continue
        if op.expect_exit:
            continue
        try:
            result.rows += check_op(op, out, configs, workdir, seen)
        except Mismatch as exc:
            result.errors.append("%s: %s" % (op.label(), exc))
    for cfg in configs:
        keys = [(kind, cfg) for kind in ("spectrum", "disputed", "oracle")]
        if all(key in seen for key in keys):
            try:
                checks.check_disputed_claim(*(seen[key] for key in keys))
            except Mismatch as exc:
                result.errors.append("%s: %s" % (cfg, exc))
    return result


def repeat_passes(run_one, seconds):
    """Whole passes until ``seconds`` have gone by; at least one."""
    passes, t0 = [], time.perf_counter()
    while True:
        passes.append(run_one())
        if time.perf_counter() - t0 >= seconds:
            return passes


def help_seconds(workdir):
    """Wall time of a CLI process that imports qdeform and exits (``--help``)."""
    out = cli_subprocess(["--help"], workdir)
    need(out.rc == 0 and "usage: qdeform" in out.stdout,
         "--help exited %s: %s" % (out.rc, out.stderr.strip()[-300:]))
    return out.seconds


def end_to_end(configs, ops, workdir, seconds):
    """Passes of CLI processes.  ``setup_s`` is timed between the
    invocations, after every second one, so that its samples are spread
    over the run like the commands'; one untimed ``--help`` first fills
    the bytecode cache."""
    help_seconds(workdir)
    setup, calls = [], itertools.count(1)

    def invoke(argv, workdir):
        out = cli_subprocess(argv, workdir)
        if next(calls) % 2 == 0:
            setup.append(help_seconds(workdir))
        return out

    passes = repeat_passes(lambda: run_pass(configs, ops, workdir, invoke), seconds)
    metrics = {"setup_s": (statistics.median(setup), "s")}
    for name in COMMAND_METRICS:
        metrics[name] = (statistics.median(p.times[name] for p in passes), "s")
    metrics["peak_rss_mb"] = (max(p.maxrss_mb for p in passes), "MB")
    return passes, metrics


def traced(workload, configs, ops, workdir, seconds):
    rec = spans.Recorder()

    def one_pass():
        rec.reset()
        result = run_pass(configs, ops, workdir, cli_in_process)
        result.layers = spans.layer_metrics(rec, result.rows)
        return result

    with rec.installed():
        passes = repeat_passes(one_pass, seconds)
    np.savez(os.path.join(RUNS_DIR, "trace-%s.npz" % workload),
             names=np.array(rec.names), **rec.spans())
    metrics = {}
    for name, (_, unit) in passes[0].layers.items():
        metrics[name] = (statistics.median(p.layers[name][0] for p in passes), unit)
    return passes, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "qdeform", "cli.py")):
        print("perfbench: src/qdeform/cli.py not found; run from the root of a "
              "qdeform checkout", file=sys.stderr)
        return 2

    sys.path.insert(0, os.path.abspath("src"))
    configs, ops = workloads.WORKLOADS[args.workload](args.seed)
    os.makedirs(RUNS_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=RUNS_DIR)
    try:
        write_configs(configs, workdir)
        if args.trace:
            passes, metrics = traced(args.workload, configs, ops, workdir, args.seconds)
        else:
            passes, metrics = end_to_end(configs, ops, workdir, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    errors = [e for p in passes for e in p.errors]
    for e in errors:
        print("check failed: %s" % e, file=sys.stderr)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print("workload %s, seed %d: %d passes, %d invocations attempted, %d failed"
          % (args.workload, args.seed, len(passes), attempted, failed))
    for name, (value, unit) in metrics.items():
        print("%-28s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
