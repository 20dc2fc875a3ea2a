"""The package's public names, and the names perfbench's tracer patches.

``perfbench/spans.py`` traces doublejc by rebinding module attributes, so a
renamed or deleted name, or a call that bypasses the module attribute, would
only show in a traced benchmark run.  These tests load its tables by path.
"""

import importlib
import importlib.util
import math
from pathlib import Path

import pytest

import doublejc
from doublejc import ATOM_PAIR, InitialState, ModelParams, Source, StateFamily, closedform, scan, validate

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_public_names_are_listed_once_and_resolve():
    assert len(doublejc.__all__) == len(set(doublejc.__all__)) == 37
    for module in (doublejc.model, doublejc.closedform, doublejc.numerics, doublejc.analysis):
        for name in module.__all__:
            assert getattr(doublejc, name) is getattr(module, name)


def test_traced_names_resolve():
    spans = load_spans()
    for targets in spans.FUNCTIONS.values():
        for module_name, attr in targets:
            assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)
    for module_name, cls_name, method in spans.METHODS.values():
        assert callable(getattr(getattr(importlib.import_module(module_name), cls_name), method))


@pytest.mark.parametrize("family", ["psi", "phi"])
def test_closed_forms_are_reached_through_module_attributes(family, monkeypatch):
    # the counting of test_detect_death_closed_cost_does_not_grow_with_the_grid, on the calls
    # a closed-form scan and a validation make
    calls = []
    for name in (f"{family}_concurrence", f"{family}_amplitudes", "phi_f"):
        def counted(*args, _name=name, _original=getattr(closedform, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(closedform, name, counted)
    init, params = InitialState(StateFamily(family), 0.3), ModelParams.from_detuning(0.0, 1.0)
    scan(init, params, ATOM_PAIR, 2 * math.pi, 11, Source.CLOSED_FORM)
    generator = ["phi_f"] if family == "phi" else []
    assert calls == [f"{family}_concurrence"] + generator
    calls.clear()
    assert validate(init, params, 2 * math.pi, 11).passed
    assert calls == [f"{family}_amplitudes", f"{family}_concurrence"] + generator
