"""Every demo script runs to the end in process and prints its walkthrough."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_four_demos_found():
    assert [path.name for path in DEMOS] == [
        "little_to_big.py", "reduction_pipeline.py", "scalar_embeddings.py",
        "trace_norm_embedding.py"]


@pytest.mark.parametrize("path", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.startswith("=== ")
    assert out.count("\n=== ") >= 2
