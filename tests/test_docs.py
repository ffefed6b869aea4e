"""The README's code runs as written."""

import re
import shlex
from pathlib import Path

import numpy as np

from dpca import dpca_fit
from dpca.cli import main

from conftest import assert_same_model

README = Path(__file__).resolve().parents[1] / "README.md"


def code_block(section: str, language: str) -> str:
    """The first ```language block under the README heading ``section``."""
    text = README.read_text(encoding="utf-8")
    body = text[text.index(f"\n## {section}\n"):]
    return re.search(rf"```{language}\n(.*?)```", body, re.S).group(1)


def test_library_quickstart_runs():
    namespace = {}
    exec(compile(code_block("Library quickstart", "python"), str(README), "exec"), namespace)
    model, embedding = namespace["model"], namespace["embedding"]
    # 3000 background rows in 100 features: a dense fit, in numpy, unfloored
    assert model.diagnostics == {"route": "floored_whitening", "order": 100,
                                 "floor_applied": False}
    assert namespace["route"] == "floored_whitening"
    assert model.target_mean is not None and model.background_mean is not None
    assert model.background_mean.shape == model.target_mean.shape == (100,)
    assert embedding.coordinates.shape == (2000, 2)
    # transform of the raw target projects the centered target the fit was built from
    inputs = namespace["inputs"]
    assert np.array_equal(embedding.coordinates, inputs.target.values @ model.components)
    # fit is the four steps it replaced: unpack the inputs, then dpca_fit with both means
    direct = dpca_fit(*inputs.covs, 2, target_mean=inputs.means[0],
                      background_mean=inputs.means[1])
    assert_same_model(model, direct)


def cli_commands(block: str) -> list[list[str]]:
    """The ``dpca`` commands of a bash block, continuations joined and comments dropped."""
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines]
    return [argv for argv in commands if argv]


def test_cli_block_runs(tmp_path, monkeypatch):
    commands = cli_commands(code_block("CLI", "bash"))
    assert all(argv[0] == "dpca" for argv in commands)
    assert {argv[1] for argv in commands} == {"synth", "fit", "transform", "plot", "compare"}
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        try:
            code = main(argv[1:])
        except SystemExit as exc:  # argparse rejects an unknown flag or a bad value
            code = exc.code
        assert code == 0, shlex.join(argv)
    named = {arg for argv in commands for arg in argv if re.fullmatch(r"[\w.-]+\.(csv|json|svg)", arg)}
    assert {"exp_target.csv", "model.json", "cp.json", "embedding.svg"} <= named
    assert [name for name in sorted(named) if not (tmp_path / name).is_file()] == []
