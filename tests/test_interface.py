"""Parameter names that the benchmark's per-layer counters bind call arguments by.

bench/tracing.py binds each traced call to the function's signature and reads
these arguments by name; a renamed parameter would break or silently change
`numerics.fourier.points`, `operators.eigenstate_values.samples*` and
`measurement.halfline_propagate.kernel_points`.
"""

import inspect

import pytest

from qarrival import eigenstate_values, halfline_propagate
from qarrival.numerics import momentum_to_position, position_to_momentum


@pytest.mark.parametrize(
    "fn,names",
    [
        (momentum_to_position, ["values", "p", "x", "hbar"]),
        (position_to_momentum, ["values", "x", "p", "hbar"]),
        (halfline_propagate, ["psi", "t1", "t0", "side"]),
        (eigenstate_values, ["family", "tau", "p", "consts"]),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_counter_parameter_names(fn, names):
    assert list(inspect.signature(fn).parameters) == names
