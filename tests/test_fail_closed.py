"""One table of hostile inputs for the fields that the containers, the noise
profiles and the enhanced-bound verifier check with the package's array and
number rules, losses.check_array and losses.check_number. Each hostile value
raises ValueError whose message starts with the field's name."""

import numpy as np
import pytest

from deferkit.losses import LossSelector, ProblemShape, check_array
from deferkit.models import LabeledDataset
from deferkit.oracles import (DiscreteTask, NoiseProfile, bayes_deferral, fit_tsybakov_B,
                              verify_enhanced_bound)

_SHAPE = ProblemShape(2, 1)
_TASK = dict(mu=np.array([0.5, 0.5]), conditionals=np.array([[0.6, 0.4], [0.2, 0.8]]),
             costs=np.full((2, 2, 1), 0.3))
_DATA = dict(features=np.ones((2, 3)), labels=np.array([0, 1]), costs=np.full((2, 1), 0.3))
_NOISE = dict(alpha=0.5, B=2.0, margins=np.array([0.25, 0.5]), marginals=np.array([0.5, 0.5]))


def task(**field):
    return DiscreteTask(**{**_TASK, **field}, shape=_SHAPE)


def dataset(**field):
    return LabeledDataset(**{**_DATA, **field}, shape=_SHAPE)


def profile(**field):
    return NoiseProfile(**{**_NOISE, **field})


def fit(**field):
    return fit_tsybakov_B(**{**{k: v for k, v in _NOISE.items() if k != "B"}, **field})


def enhanced(s=2.0):
    at = task()
    return verify_enhanced_bound(at, bayes_deferral(at), LossSelector("surrogate_mae"), s,
                                 "theorem_multi")


# (call, field, its accepted value, least, most); None where a side is unbounded
_FIELDS = [
    (task, "mu", _TASK["mu"], 0.0, 1.0),
    (task, "conditionals", _TASK["conditionals"], 0.0, 1.0),
    (task, "costs", _TASK["costs"], 0.0, 1.0),
    (dataset, "features", _DATA["features"], None, None),
    (dataset, "labels", _DATA["labels"], 0, 1),
    (dataset, "costs", _DATA["costs"], 0.0, 1.0),
    (profile, "margins", _NOISE["margins"], 0.0, None),
    (profile, "marginals", _NOISE["marginals"], 0.0, None),
    (profile, "B", _NOISE["B"], 0.0, None),
    (fit, "margins", _NOISE["margins"], 0.0, None),
    (fit, "marginals", _NOISE["marginals"], 0.0, None),
    (enhanced, "s", 2.0, 1.0, None),
]


def _with_entry(good, bad):
    """The accepted value with its first entry made bad (a scalar is replaced)."""
    if np.ndim(good) == 0:
        return bad
    out = np.asarray(good).astype(object if isinstance(bad, str) else np.result_type(good, bad))
    out.flat[0] = bad
    return out


def _hostile():
    for call, field, good, least, most in _FIELDS:
        bad = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf,
               "string": str(np.asarray(good).flat[0])}   # a string that reads as a number
        if least is not None:
            bad["below"] = least - 1
        if most is not None:
            bad["above"] = most + 1
        for kind, value in bad.items():
            yield pytest.param(call, field, _with_entry(good, value),
                               id=f"{call.__name__}-{field}-{kind}")


@pytest.mark.parametrize("call, field, bad", _hostile())
def test_a_hostile_field_is_refused_by_name(call, field, bad):
    call()   # the accepted values pass, so the hostile entry alone is refused
    with pytest.raises(ValueError, match=rf"^{field} "):
        call(**{field: bad})


def test_a_signed_conditional_row_is_refused():
    # the row sums to 1, so only the range of conditionals refuses it; a task
    # built on it had every verifier check a bound on a signed measure
    with pytest.raises(ValueError, match=r"^conditionals must lie in \[0.0, 1.0\]"):
        DiscreteTask(mu=[1.0], conditionals=[[1.5, -0.5]], costs=[[[0.2], [0.3]]],
                     shape=ProblemShape(2, 1))


def test_check_array_returns_a_float_array_of_numbers_in_range():
    costs = np.array([[0.0, 1.0]])
    assert check_array(costs, "costs", 0.0, 1.0) is costs   # a float array is not copied
    ints = check_array([[1, 2]], "x", 1)
    assert ints.dtype == float and ints.tolist() == [[1.0, 2.0]]
    assert check_array([], "x", 0.0, 1.0).shape == (0,)
    for bad in ([True, False], ["0.5"], [0.5, None], [1.0 + 0j]):
        with pytest.raises(ValueError, match=r"^x must lie in \[-inf, inf\] and be finite"):
            check_array(bad, "x")
    with pytest.raises(ValueError, match=r"^x must lie in \[0.0, inf\]"):
        check_array([-5e-324], "x", 0.0)
    with pytest.raises(ValueError, match=r"^x must lie in \[-inf, 1.0\]"):
        check_array([np.nextafter(1.0, 2.0)], "x", most=1.0)
