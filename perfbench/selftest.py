"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Run it from the root of a qdeform checkout.  It computes a few outputs with
the CLI (in this process), requires perfbench/checks.py to accept them, and
then requires it to reject each of three planted faults: a level shifted by
1e-6 (in both the closed-form and the transcendental regime), two levels
with swapped labels in a verify table, and a wavefunction scaled by 1.01.
Exits 1 if any verdict is wrong.
"""

import json
import os
import shutil
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import Mismatch, Well  # noqa: E402
from run import RUNS_DIR, cli_in_process, write_configs  # noqa: E402


def rewrite(text, change):
    header, rows = checks.parse_csv(text)
    change(rows)
    return "".join(",".join(row) + "\n" for row in [header] + rows)


def main():
    sys.path.insert(0, os.path.abspath("src"))
    configs = {**workloads.regular(0)[0], **workloads.singular(0)[0]}
    os.makedirs(RUNS_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=RUNS_DIR)
    wrong = []

    def cli(*argv):
        out = cli_in_process(list(argv), workdir)
        if out.rc != 0:
            raise SystemExit("qdeform %s exited %s: %s" % (" ".join(argv), out.rc, out.stderr))
        return out

    def verdict(name, check, should_pass):
        try:
            check()
            passed, why = True, ""
        except Mismatch as exc:
            passed, why = False, str(exc)
        ok = passed == should_pass
        print("%-4s %-55s %s %s" % ("ok" if ok else "FAIL", name,
                                    "accepted" if passed else "rejected:", why[:90]))
        if not ok:
            wrong.append(name)

    try:
        write_configs(configs, workdir)

        def path(name):
            return os.path.join(workdir, name + ".json")

        for name in ("q2", "q0.3"):
            w = Well.from_config(configs[name])
            text = cli("spectrum", "--config", path(name)).stdout
            verdict("spectrum %s as computed" % name,
                    lambda: checks.check_spectrum(text, w), True)

            def shift(rows):
                e = float(rows[0][1]) + 1e-6
                rows[0][1:3] = [repr(e), repr(checks.e_tilde(e, w))]

            shifted = rewrite(text, shift)
            verdict("spectrum %s, E(n_r=0) + 1e-6" % name,
                    lambda: checks.check_spectrum(shifted, w), False)

        name = "q0.5-deep18"
        w = Well.from_config(configs[name])
        out = cli("verify", "--config", path(name))
        verdict("verify %s as computed" % name,
                lambda: checks.check_verify(out.stdout, out.stderr, w), True)

        def swap(rows):
            rows[0][1:], rows[1][1:] = rows[1][1:], rows[0][1:]

        swapped = rewrite(out.stdout, swap)
        verdict("verify %s, levels 0 and 1 swap labels" % name,
                lambda: checks.check_verify(swapped, out.stderr, w), False)

        name = "q2"
        w = Well.from_config(configs[name])
        level = checks.check_spectrum(cli("spectrum", "--config", path(name)).stdout, w)[0][0]
        base = os.path.join(workdir, "wf")
        cli("wavefunction", "--config", path(name), "--n-r", "0", "--out", base + ".csv")
        verdict("wavefunction %s n_r=0 as computed" % name,
                lambda: checks.check_wavefunction(base + ".csv", base + ".json", 0, level, w),
                True)
        header, data = checks.load_table(base + ".csv", base + ".json")
        data[:, 1:3] *= 1.01
        with open(base + ".csv", "w") as fh:
            fh.write(",".join(header) + "\n")
            fh.writelines(",".join("%.15g" % x for x in row) + "\n" for row in data)
        data = np.loadtxt(base + ".csv", delimiter=",", skiprows=1)  # as the CSV rounds it
        with open(base + ".json", "w") as fh:
            json.dump({"columns": header,
                       "rows": [dict(zip(header, map(float, row))) for row in data]}, fh)
        verdict("wavefunction %s n_r=0, F and G scaled by 1.01" % name,
                lambda: checks.check_wavefunction(base + ".csv", base + ".json", 0, level, w),
                False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest: %s" % ("FAIL: " + ", ".join(wrong) if wrong else "all verdicts right"))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
