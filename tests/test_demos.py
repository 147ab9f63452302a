"""The demos run in-process and print what they print."""

import importlib.util
import os

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


def _load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(DEMOS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_morse_limit(capsys):
    _load("morse_limit").main()
    assert capsys.readouterr().out == """\
Morse-exact levels: -0.732789742, -0.056509314, 0.430278226, 0.766429922, 0.962422418

       q   max |E(q) - E_Morse|
   1e-01              1.301e-02
   1e-02              1.278e-03
   1e-03              1.276e-04
   1e-04              1.276e-05

 scale   max |E_asym - E_exact|
     1                1.176e-06
     3                7.876e-09
    10                3.471e-13
"""


def test_stress_ledger_counts_every_well(capsys):
    sweep = _load("oracle_sweep")
    ledger = sweep.stress(5, 7)  # one well of each band
    assert list(ledger) == list(sweep.STRESS_BANDS)
    for counts in ledger.values():
        assert sum(counts[o] for o in sweep.OUTCOMES) == 1
    assert not any(counts["silently wrong"] for counts in ledger.values())


def test_stress_ledger_fails_on_a_silently_wrong_well(monkeypatch, capsys):
    # a spectrum that drops its top level exits 0 at a glance; the ledger
    # calls it silently wrong and the script exits 1
    sweep = _load("oracle_sweep")
    solve = sweep.spectrum
    monkeypatch.setattr(sweep, "spectrum", lambda dc, p, cfg: solve(dc, p, cfg)[:-1])
    monkeypatch.setattr("sys.argv", ["oracle_sweep.py", "--stress", "--wells", "1",
                                     "--seed", "7"])
    assert sweep.main() == 1
    assert "silently wrong" in capsys.readouterr().out
