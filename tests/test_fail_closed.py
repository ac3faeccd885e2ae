"""One table of hostile inputs for the fields that the containers, the noise
profiles, the softmax and the enhanced-bound verifier check with the package's
array and number rules, losses.check_array and losses.check_number. Each
hostile value raises ValueError whose message starts with the field's name.
A second table holds refused specs, selector lists and stage names, each
refused with a ValueError that names the argument. AST guards keep
check_array the package's one finiteness rule for arrays and
ProblemShape.width its one check of a stage name."""

import ast
from pathlib import Path

import numpy as np
import pytest

from deferkit.losses import LossSelector, PhiSpec, ProblemShape, check_array, softmax
from deferkit.models import LabeledDataset
from deferkit.oracles import (DiscreteTask, NoiseProfile, TabularHypothesis, bayes_deferral,
                              bayes_two_stage, fit_tsybakov_B, minimal_margin,
                              verify_bound_two_expert_phi, verify_enhanced_bound)

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


def hypothesis(scores=np.zeros((2, 3))):
    return TabularHypothesis(scores)


def soft(scores=np.array([0.5, 1.0])):
    return softmax(scores)


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
    (profile, "alpha", _NOISE["alpha"], 0.0, 1.0),
    (fit, "margins", _NOISE["margins"], 0.0, None),
    (fit, "marginals", _NOISE["marginals"], 0.0, None),
    (fit, "alpha", _NOISE["alpha"], 0.0, 1.0),
    (hypothesis, "scores", np.zeros((2, 3)), None, None),
    (soft, "scores", np.array([0.5, 1.0]), None, None),
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


def two_expert(phi=PhiSpec()):
    at = DiscreteTask(**{**_TASK, "costs": np.full((2, 2, 2), 0.3)}, shape=ProblemShape(2, 2))
    return verify_bound_two_expert_phi(at, bayes_two_stage(at), phi)


def stacked(selectors=(LossSelector("surrogate_mae"),)):
    return LossSelector.stack(selectors)


def width(stage="two"):
    return _SHAPE.width(stage)


def margin(stage="single"):
    return minimal_margin(task(), stage)


# (call, field, a refused value)
_REFUSED = [
    (two_expert, "phi", None),
    (two_expert, "phi", "logistic"),
    (stacked, "selectors", []),
    (width, "stage", "nope"),
    (dataset, "stage", "nope"),
    (margin, "stage", "nope"),
]


@pytest.mark.parametrize("call, field, bad", [
    pytest.param(*row, id=f"{row[0].__name__}-{row[1]}-{row[2]!r}") for row in _REFUSED])
def test_a_refused_argument_is_named(call, field, bad):
    # a phi of None or a phi name once raised AttributeError from phi.kind, an
    # empty selector list IndexError, and width returned n_e for any stage
    call()
    with pytest.raises(ValueError, match=rf"\b{field}\b"):
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


# (module, function) -> how many np.isfinite calls it may make: the array rule,
# the verdict rule and the trainer's two checks of its losses
_ISFINITE = {("losses", "check_array"): 1, ("oracles", "_holds"): 1, ("models", "train"): 2}


def test_isfinite_appears_only_in_the_array_rule_the_verdict_rule_and_train():
    found = {}
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "deferkit").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls = sum(isinstance(node, ast.Attribute) and node.attr == "isfinite"
                            for node in ast.walk(fn))
                if calls:
                    found[path.stem, fn.name] = found.get((path.stem, fn.name), 0) + calls
    assert found == _ISFINITE


def test_width_is_the_one_stage_check():
    # a stage name is compared with both stages only where ProblemShape.width checks it
    found = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "deferkit").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [(path.stem, fn.name) for node in ast.walk(fn)
                          if isinstance(node, ast.Compare)
                          and {"single", "two"} <= {c.value for c in ast.walk(node)
                                                    if isinstance(c, ast.Constant)}]
    assert found == [("losses", "width")]
