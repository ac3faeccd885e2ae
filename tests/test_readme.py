"""The fenced python blocks of README.md run as written against the package,
neither the package nor README.md names a deleted second spelling, and
README.md's config tables are the CLI's."""

import importlib
import json
import pkgutil
import re
from pathlib import Path

import deferkit
from deferkit import cli

README = Path(__file__).resolve().parents[1] / "README.md"

# second spellings of one quantity, deleted; the comment gives the surviving one
DELETED = {
    # conditional_regret_surrogate(task, hyp, k, LossSelector(<target>)) and
    # conditional_error summed against task.mu
    None: ("conditional_regret_def", "conditional_regret_tdef", "generalization_error",
           # Scorer([(W, b)]) and Scorer([(W1, b1), (W2, b2)])
           "LinearScorer", "MlpScorer",
           # surrogate_single_batch on LossSelector.stack([LossSelector("baseline_mao", psi)])
           "baseline_mao_batch",
           # check_array(scores, "scores")
           "as_scores",
           # PsiSpec(q).least(w)
           "_psi_min"),
    "TabularHypothesis": ("actions",),              # action(slice(None))
    "RegretReport": ("slack", "aggregate_slack",    # table()[3]
                     # a verifier refuses a task that breaks its bound's assumption
                     "premise_met", "note"),
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


def rule_text(rule: cli.Rule) -> str:
    """A config rule as README.md's tables write it."""
    if rule.kind in (int, float):
        text = f"{'integer' if rule.kind is int else 'number'} >= {rule.arg}"
    elif rule.arg is not None:
        text = "one of " + ", ".join(f"`{choice}`" for choice in rule.arg)
    else:
        text = {bool: "bool", str: "string", object: "any, checked where it is used"}[rule.kind]
    if rule.many:
        text = f"nonempty list, each {text}"
    return text + "".join(f", or `{json.dumps(value)}`" for value in rule.unset)


def schema_rows() -> dict:
    """Each command's (field, default, rule) rows, from its config table."""
    return {command: [(f"`{name}`", "required" if default is cli.REQUIRED
                       else f"`{json.dumps(default)}`", rule_text(rule))
                      for name, (default, rule) in table.items()]
            for command, table in cli._CONFIGS.items()}


def readme_rows() -> dict:
    """The rows of each command's table in README.md's "Command line" section."""
    section = README.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    rows, command = {}, None
    for line in section.splitlines():
        heading = re.fullmatch(r"\*\*`([a-z-]+)` config\*\*", line)
        if heading:
            command = heading[1]
            rows[command] = []
        elif command and re.fullmatch(r"\| `\w+` \|.*\|", line):
            rows[command].append(tuple(cell.strip() for cell in line.strip("|").split(" | ")))
    return rows


def test_readme_config_tables_are_the_schema():
    assert readme_rows() == schema_rows()
