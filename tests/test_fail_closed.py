"""One table of hostile inputs for the fields that the containers, the noise
profiles, the softmax, the least risks of the specs and the enhanced-bound
verifier check with the package's array and number rules, losses.check_array
and losses.check_number. Each hostile value raises ValueError whose message
starts with the field's name. A second table holds refused specs, selector
lists, stage names, shapes, seeds, surrogates and tasks that break a bound's
assumption, each refused with a ValueError that names the argument. AST
guards keep check_array the package's one finiteness rule for arrays,
ProblemShape.width its one check of a stage name, and the oracles' infinite
right-hand side to the one premise that depends on the hypothesis."""

import ast
from pathlib import Path

import numpy as np
import pytest

from deferkit.losses import (LossSelector, PhiKind, PhiSpec, ProblemShape, PsiSpec, check_array,
                             softmax)
from deferkit.models import LabeledDataset, TrainConfig, init_linear
from deferkit.oracles import (DiscreteTask, NoiseProfile, TabularHypothesis, bayes_deferral,
                              bayes_two_stage, fit_tsybakov_B, minimal_margin,
                              verify_bound_two_expert_phi, verify_enhanced_bound)
from deferkit.synthdata import MogConfig, gen_random_discrete_task, gen_realizable_mog

_SHAPE = ProblemShape(2, 1)
_TASK = dict(mu=np.array([0.5, 0.5]), conditionals=np.array([[0.6, 0.4], [0.2, 0.8]]),
             costs=np.full((2, 2, 1), 0.3))
_DATA = dict(features=np.ones((2, 3)), labels=np.array([0, 1]), costs=np.full((2, 1), 0.3))
_NOISE = dict(alpha=0.5, B=2.0, margins=np.array([0.25, 0.5]), marginals=np.array([0.5, 0.5]))


def task(**field):
    return DiscreteTask(**{**_TASK, "shape": _SHAPE, **field})


def dataset(**field):
    return LabeledDataset(**{**_DATA, "shape": _SHAPE, **field})


def profile(**field):
    return NoiseProfile(**{**_NOISE, **field})


def fit(**field):
    return fit_tsybakov_B(**{**{k: v for k, v in _NOISE.items() if k != "B"}, **field})


def hypothesis(scores=np.zeros((2, 3))):
    return TabularHypothesis(scores)


def soft(scores=np.array([0.5, 1.0])):
    return softmax(scores)


def psi_least(w=np.array([0.5, 0.3])):
    return PsiSpec(0.5).least(w)


def phi_least(e=np.array([0.2, 0.6])):
    return PhiSpec(PhiKind.HINGE).least(e)


def enhanced(s=2.0, surrogate=LossSelector("surrogate_mae")):
    at = task()
    return verify_enhanced_bound(at, bayes_deferral(at), surrogate, s, "theorem_multi")


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
    (psi_least, "w", np.array([0.5, 0.3]), 0.0, None),
    (phi_least, "e", np.array([0.2, 0.6]), 0.0, None),
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


def two_expert(phi=PhiSpec(), costs=np.full((2, 2, 2), 0.3)):
    at = DiscreteTask(**{**_TASK, "costs": costs}, shape=ProblemShape(2, 2))
    return verify_bound_two_expert_phi(at, bayes_two_stage(at), phi)


def stacked(selectors=(LossSelector("surrogate_mae"),)):
    return LossSelector.stack(selectors)


def width(stage="two"):
    return _SHAPE.width(stage)


def margin(stage="single"):
    return minimal_margin(task(), stage)


def linear(seed=0):
    return init_linear(2, 4, seed)


def mog(seed=0):
    return gen_realizable_mog(MogConfig(dim=2, components=2, n=2, n_e=1), 8, seed)


def discrete(seed=0, index=0):
    return gen_random_discrete_task(seed, index)


# (call, field, a refused value)
_REFUSED = [
    (two_expert, "phi", None),
    (two_expert, "phi", "logistic"),
    (stacked, "selectors", []),
    (width, "stage", "nope"),
    (dataset, "stage", "nope"),
    (margin, "stage", "nope"),
    # each expert has a zero cost, so the two-expert constant divides by 0
    (two_expert, "costs", [[[0.0, 0.3], [0.3, 0.3]], [[0.3, 0.0], [0.3, 0.3]]]),
    (phi_least, "e", np.array([0.2, 0.6, 0.1])),
    (enhanced, "surrogate", None),
    (enhanced, "surrogate", LossSelector("deferral")),
    (task, "shape", None),
    (task, "shape", (2, 1)),
    (dataset, "shape", None),
    (dataset, "shape", (2, 1)),
    (linear, "seed", "x"),
    (linear, "seed", True),
    (mog, "seed", None),
    (discrete, "seed", "a"),
    (discrete, "index", 0.5),
    (TrainConfig, "seed", "x"),
    (TrainConfig, "standardize", "no"),
]


@pytest.mark.parametrize("call, field, bad", [
    pytest.param(*row, id=f"{row[0].__name__}-{row[1]}-{row[2]!r}") for row in _REFUSED])
def test_a_refused_argument_is_named(call, field, bad):
    # a phi of None or a phi name once raised AttributeError from phi.kind, an
    # empty selector list IndexError, and width returned n_e for any stage; a
    # two-expert task without lower costs passed as vacuous, a 3-wide hinge
    # row had a least, a target surrogate checked itself, a shape or a seed of
    # another type raised AttributeError or TypeError, and "no" standardized
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


# oracles function -> how many infinities it may name: the verdict rule, and the
# undefined right-hand side of verify_enhanced_bound's unmet premise, which
# depends on the hypothesis; a task that breaks a bound's assumption is refused
_INF = {"_holds": 1, "verify_enhanced_bound": 1}


def test_inf_appears_in_the_oracles_only_in_the_verdict_rule_and_the_unmet_premise():
    tree = ast.parse((Path(__file__).resolve().parents[1] / "src" / "deferkit"
                      / "oracles.py").read_text())

    def infs(node):
        return sum(isinstance(n, ast.Attribute) and n.attr == "inf" for n in ast.walk(node))

    found = {fn.name: infs(fn) for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and infs(fn)}
    assert found == _INF and infs(tree) == sum(_INF.values())
