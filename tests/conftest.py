import numpy as np
import pytest

from bernapprox.functions import HolderSpec, TargetFunction


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(987654321))


def simpson(fn, a: float, b: float, panels: int = 20000) -> float:
    """Plain composite Simpson oracle, independent of scipy's quadrature."""
    xs = np.linspace(a, b, 2 * panels + 1)
    ys = np.array([fn(float(x)) for x in xs])
    h = (b - a) / (2 * panels)
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1::2].sum() + 2.0 * ys[2:-1:2].sum()))


def scale_function(f: TargetFunction, c: float) -> TargetFunction:
    """c * f with metadata scaled accordingly."""
    return TargetFunction(
        interval=f.interval,
        evaluator=lambda x, _f=f.evaluator, _c=c: _c * np.asarray(_f(x)),
        name=f"{c:g}*{f.name}",
        sup_abs=None if f.sup_abs is None else abs(c) * f.sup_abs,
        holder=None if f.holder is None else HolderSpec(f.holder.alpha, abs(c) * f.holder.seminorm),
    )
