"""The benchmark's per-layer tracer still sees every layer.

``perfbench/tracing.py`` wraps each layer function through the module
attribute its caller uses.  A refactor that calls a layer some other way
leaves that layer's span empty and zeroes its metric without an error, so
this test runs a fixed handful of solves that reach every core and requires
a span for every traced layer.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

from graphbalance import SolveMode, driver, instance, oracle
from graphbalance.instance import serialize_instance

from conftest import loaded_general, loaded_two_valued, unit_regime

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_records_a_span():
    tracing = load_tracing()
    beta = Fraction(7, 10)
    cases = []
    for seed in range(4):
        cases.append((loaded_two_valued(seed)[0], SolveMode.AUTO, None))
        cases.append((loaded_general(seed, beta), SolveMode.GENERAL, beta))
        cases.append((unit_regime(seed)[0], SolveMode.AUTO, None))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for inst, mode, b in cases:
            parsed = instance.parse_instance(serialize_instance(inst))
            sol = driver.solve(parsed, mode, b)
            for declaration in sol.declarations:
                oracle.verify_certificate(parsed, declaration, allow_exhaustive=False)
    finally:
        tracer.uninstall()
    _, calls = tracer.totals()
    silent = [name for _, _, name, _, _ in tracing.LAYERS if not calls[name]]
    assert not silent, f"layers without a span: {silent}"
