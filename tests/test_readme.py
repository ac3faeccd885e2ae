"""The fenced python blocks of README.md run as written against the package,
and neither the package nor README.md names a deleted second spelling."""

import importlib
import pkgutil
import re
from pathlib import Path

import deferkit

README = Path(__file__).resolve().parents[1] / "README.md"

# second spellings of one quantity, deleted; the comment gives the surviving one
DELETED = {
    # conditional_regret_surrogate(task, hyp, k, LossSelector(<target>)) and
    # conditional_error summed against task.mu
    None: ("conditional_regret_def", "conditional_regret_tdef", "generalization_error",
           # Scorer([(W, b)]) and Scorer([(W1, b1), (W2, b2)])
           "LinearScorer", "MlpScorer",
           # surrogate_single_batch on LossSelector.stack([LossSelector("baseline_mao", psi)])
           "baseline_mao_batch"),
    "TabularHypothesis": ("actions",),              # action(slice(None))
    "RegretReport": ("slack", "aggregate_slack"),   # table()[3]
    "LabeledDataset": ("output_width",),            # shape.width(stage)
}


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks, "README.md has no python example"
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {})
    capsys.readouterr()


def test_deleted_names_stay_gone():
    modules = [deferkit] + [importlib.import_module(f"deferkit.{m.name}")
                            for m in pkgutil.iter_modules(deferkit.__path__)]
    text = README.read_text()
    for owner, names in DELETED.items():
        for module in modules:
            if owner is None:
                assert not [n for n in names if hasattr(module, n)], module.__name__
            elif hasattr(module, owner):
                cls = getattr(module, owner)
                assert not [n for n in names if hasattr(cls, n)], f"{module.__name__}.{owner}"
        # an attribute is named after a dot; the word slack alone names a column
        prefix = r"\b" if owner is None else r"\."
        assert not [n for n in names if re.search(rf"{prefix}{n}\b", text)], owner
