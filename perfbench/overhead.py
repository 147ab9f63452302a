"""Cost of the traced pass: one in-process pass without spans, then one with.

    python3 perfbench/overhead.py --workload regular --seed 1

Run it from the root of a qdeform checkout.  Both passes run the same CLI
invocations in this process, so the difference is the cost of the span
wrappers of perfbench/spans.py.
"""

import argparse
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402
import workloads  # noqa: E402
from run import RUNS_DIR, cli_in_process, run_pass, write_configs  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath("src"))
    configs, ops = workloads.WORKLOADS[args.workload](args.seed)
    os.makedirs(RUNS_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="overhead-", dir=RUNS_DIR)
    try:
        write_configs(configs, workdir)
        plain = run_pass(configs, ops, workdir, cli_in_process)
        rec = spans.Recorder()
        with rec.installed():
            traced = run_pass(configs, ops, workdir, cli_in_process)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    n_spans = len(rec.spans()["fid"])
    for name in plain.times:
        print("%-16s untraced %8.3f s  traced %8.3f s" % (name, plain.times[name], traced.times[name]))
    t0, t1 = sum(plain.times.values()), sum(traced.times.values())
    print("pass             untraced %8.3f s  traced %8.3f s  overhead %+.1f%%, %d spans"
          % (t0, t1, 100.0 * (t1 / t0 - 1.0), n_spans))


if __name__ == "__main__":
    main()
