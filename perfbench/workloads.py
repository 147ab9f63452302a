"""The two benchmark workloads: which CLI invocations one pass makes.

Every pass keeps the fixed baseline wells (see README.md) and adds one
extra well per workload whose parameters come from the seed.  The seeded
well stays inside its regime and close to a baseline well, so that the
work it adds, and with it the run-to-run spread, hardly depends on the seed.

The invocations of one command are spread over the pass rather than run
back to back: the host's speed drifts over tens of seconds, and a command
timed in several places of the pass averages more of that drift out.  A
wavefunction comes after the spectrum of its well, whose levels certify it.
"""

import random
from dataclasses import dataclass

METRIC_OF_COMMAND = {
    "spectrum": "spectrum_s",
    "verify": "verify_s",
    "wavefunction": "wavefunction_s",
    "morse-limit": "morse_limit_s",
}


@dataclass(frozen=True)
class Op:
    """One CLI invocation.

    ``expect_exit`` is the exit code the documented behaviour calls for and
    ``expect_stderr`` a phrase its message must contain; an invocation that
    misses either counts as failed.
    """

    command: str
    config: str
    n_r: int | None = None
    q_list: str | None = None
    show_disputed: bool = False
    expect_exit: int = 0
    expect_stderr: str | None = None

    @property
    def metric(self):
        return METRIC_OF_COMMAND[self.command]

    def label(self):
        extra = []
        if self.n_r is not None:
            extra.append("n_r=%d" % self.n_r)
        if self.q_list:
            extra.append("q=" + self.q_list)
        if self.show_disputed:
            extra.append("--show-disputed")
        return " ".join([self.command, self.config] + extra)


def _well(v1, v2, alpha, q, **solver):
    cfg = {
        "potential": {"v1": v1, "v2": v2, "alpha": alpha, "q": q},
        "dirac": {"mass": 1.0, "c_spin": 0.0},
    }
    if solver:
        cfg["solver"] = solver
    return cfg


def _jitter(rng, v1, v2, alpha, q_lo, q_hi):
    """A well within 2% of (v1, v2, alpha) and with q drawn from [q_lo, q_hi]."""
    return _well(round(v1 * rng.uniform(0.98, 1.02), 6),
                 round(v2 * rng.uniform(0.98, 1.02), 6),
                 round(alpha * rng.uniform(0.98, 1.02), 6),
                 round(rng.uniform(q_lo, q_hi), 6))


def regular(seed):
    """0 < q < 1 and q = 0: the scalar 2F1/1F1 scans do nearly all the work."""
    rng = random.Random(seed)
    configs = {
        "q0.3": _well(25.0, 10.0, 1.0, 0.3),
        "q0.5-deep18": _well(25.0, 18.0, 0.5, 0.5),
        "morse": _well(25.0, 10.0, 1.0, 0.0),
        "deep-q0.3": _well(400.0, 300.0, 0.3, 0.3),
        "seeded-regular": _jitter(rng, 25.0, 10.0, 1.0, 0.35, 0.45),
    }
    ops = [
        Op("spectrum", "q0.3"),
        Op("verify", "q0.5-deep18"),
        Op("wavefunction", "q0.3", n_r=0),
        Op("spectrum", "morse"),
        Op("morse-limit", "morse", q_list="0.1,0.01,0.001,0.0001"),
        Op("spectrum", "q0.5-deep18", show_disputed=True),
        Op("wavefunction", "morse", n_r=0),
        Op("spectrum", "deep-q0.3"),
        Op("verify", "morse"),
        Op("spectrum", "seeded-regular"),
    ]
    return configs, ops


def singular(seed):
    """q >= 1: the 1/(r - r0)^2 wall sets the oracle grid, so verify is oracle-bound."""
    rng = random.Random(seed)
    configs = {
        "q2": _well(25.0, 10.0, 1.0, 2.0),
        "q4": _well(25.0, 10.0, 1.0, 4.0),
        "q1-deep18": _well(25.0, 18.0, 0.5, 1.0),
        "q1": _well(25.0, 10.0, 1.0, 1.0),
        # V2 sqrt(q) = 40 > V1: attractive wall, outside the solution class
        "attractive-q4": _well(25.0, 20.0, 1.0, 4.0),
        "seeded-singular": _jitter(rng, 25.0, 10.0, 1.0, 1.5, 3.0),
        # every workload reports morse_limit_s; a coarse scan keeps these
        # q -> 0 chains of the q = 2 well a small share of the pass, and
        # three short invocations time steadier than one
        "q2-chain": _well(25.0, 10.0, 1.0, 2.0, scan_points=100),
    }
    ops = [
        Op("spectrum", "q2"),
        Op("verify", "q2"),
        Op("morse-limit", "q2-chain", q_list="0.1,0.01"),
        Op("spectrum", "q4"),
        Op("wavefunction", "q2", n_r=0),
        Op("spectrum", "attractive-q4", expect_exit=3,
           expect_stderr="discriminant"),
        Op("verify", "q4"),
        Op("wavefunction", "q4", n_r=1),
        Op("spectrum", "q1-deep18"),
        Op("morse-limit", "q2-chain", q_list="0.01,0.001"),
        Op("wavefunction", "q1-deep18", n_r=5),
        Op("spectrum", "seeded-singular"),
        Op("verify", "q1"),
        Op("wavefunction", "q1-deep18", n_r=0),
        Op("morse-limit", "q2-chain", q_list="0.001,0.0001"),
    ]
    return configs, ops


WORKLOADS = {"regular": regular, "singular": singular}
