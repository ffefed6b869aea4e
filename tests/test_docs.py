"""The README's code runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def python_block(section: str) -> str:
    """The first ```python block under the README heading ``section``."""
    text = README.read_text(encoding="utf-8")
    body = text[text.index(f"\n## {section}\n"):]
    return re.search(r"```python\n(.*?)```", body, re.S).group(1)


def test_library_quickstart_runs():
    namespace = {}
    exec(compile(python_block("Library quickstart"), str(README), "exec"), namespace)
    model, embedding = namespace["model"], namespace["embedding"]
    assert model.target_mean is not None and model.background_mean is not None
    assert model.background_mean.shape == model.target_mean.shape == (100,)
    assert embedding.coordinates.shape == (2000, 2)
    # transform of the raw target projects the centered target the fit was built from
    inputs = namespace["inputs"]
    assert np.array_equal(embedding.coordinates, inputs.target.values @ model.components)
