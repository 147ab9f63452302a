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
