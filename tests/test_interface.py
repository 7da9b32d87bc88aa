"""Parameter names that the benchmark's per-layer counters bind call arguments by.

bench/tracing.py binds each traced call to the function's signature and reads
these arguments by name; a renamed parameter would break or silently change
`numerics.fourier.points`, `operators.eigenstate_values.samples*` and
`measurement.halfline_propagate.kernel_points`.  `free_evolve(psi, dt)`, which
`halfline_propagate` calls and the tracer times as a span of its own, is
pinned with them.  The eigenstate counter also reads `tau` as one number, so
`eigenstate_values` keeps a scalar tau and the block evaluator over many taus
stays private (untraced).  The tracer rebinds functions in the five library
modules only, so the invariant registry (`qarrival.checks`) calls them
through those modules.
"""

import inspect
from collections import Counter

import numpy as np
import pytest

import qarrival
from qarrival import (
    EigenFamily,
    checks,
    cli,
    completeness_check,
    distribution,
    eigenstate_values,
    free_evolve,
    halfline_propagate,
    operators,
    overlap,
)
from qarrival.numerics import momentum_to_position, position_to_momentum


@pytest.mark.parametrize(
    "fn,names",
    [
        (momentum_to_position, ["values", "p", "x", "hbar"]),
        (position_to_momentum, ["values", "x", "p", "hbar"]),
        (halfline_propagate, ["psi", "t1", "t0"]),
        (free_evolve, ["psi", "dt"]),
        (eigenstate_values, ["family", "tau", "p", "consts"]),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_counter_parameter_names(fn, names):
    assert list(inspect.signature(fn).parameters) == names


def test_eigenstate_values_takes_a_scalar_tau(grid, consts):
    # the benchmark's samples counter evaluates z at float(tau); an array of taus fails there
    assert inspect.signature(eigenstate_values).parameters["tau"].annotation == "float"
    with pytest.raises(TypeError):
        eigenstate_values(EigenFamily.KDM, np.array([0.3, 0.5]), grid.momenta(), consts)


def test_block_evaluator_is_private():
    # the tracer wraps public names only, so the block evaluator is never traced
    assert callable(operators._half_block)
    assert "_half_block" not in qarrival.__all__
    assert not hasattr(qarrival, "_half_block")


def test_traced_calls_see_scalar_taus(monkeypatch, tmp_path, fast_packet):
    """Every path that reaches eigenstate_values passes it one tau."""
    seen = []
    original = operators.eigenstate_values

    def spy(family, tau, p, consts):
        seen.append(np.ndim(tau))
        return original(family, tau, p, consts)

    for namespace in (qarrival, operators, cli):
        monkeypatch.setattr(namespace, "eigenstate_values", spy)
    taus = np.linspace(0.0, 1.0, 21)
    for family in EigenFamily:
        distribution(fast_packet, family, taus)
        overlap(fast_packet, family, 0.5)
    completeness_check(EigenFamily.KDM, fast_packet, (-0.25, 1.25), 101)
    assert cli.main(["spectrum", "--family", "new", "--out", str(tmp_path / "phi.csv")]) == 0
    assert seen and set(seen) == {0}


def test_registry_calls_are_visible_to_the_tracer(monkeypatch, grid, fast_spec):
    """A spy on the operators module sees every registry call of these functions."""
    calls = Counter()
    for name in ("build_operator", "hermiticity_defect", "dwell_low_momentum_check"):
        original = getattr(operators, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(operators, name, spy)
    checks.run_checks(grid, fast_spec, 0.2)
    assert calls == {"build_operator": 8, "hermiticity_defect": 6, "dwell_low_momentum_check": 2}
