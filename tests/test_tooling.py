import ast
import re
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from capaug.cli import build_parser
from capaug.corpus import read_manifest
from capaug.harness import ExperimentConfig, run_augmentation
from capaug.llm import LlmError, mock_complete

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
README = PYPROJECT.parent / "README.md"


def readme_usage_commands(text: str) -> list[str]:
    """The ``capaug`` commands of the README's usage block, continuation lines joined."""
    block = text.split("## Quick tour (CLI)", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    return [line for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("capaug ")]


def test_readme_usage_examples_parse():
    commands = readme_usage_commands(README.read_text(encoding="utf-8"))
    assert len(commands) == 13
    for command in commands:
        try:
            build_parser().parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {command}")


def test_failing_property_test_reports_its_example(tmp_path):
    # run under the repository's pytest settings, where warnings are errors
    (tmp_path / "test_prop.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers(0, 10))
        def test_fails(x):
            assert x < 5
    """))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "test_prop.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr


def test_sources_parse_at_the_minimum_python_version():
    # the interpreter running the tests may be newer than requires-python, and
    # would accept syntax (such as ``except*``) that the oldest one refuses
    spec = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$',
                     PYPROJECT.read_text(encoding="utf-8"), re.MULTILINE)
    minimum = (int(spec[1]), int(spec[2]))
    sources = sorted((PYPROJECT.parent / "src" / "capaug").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=minimum)


def test_readme_lists_the_files_of_an_augmentation_out_dir(tmp_path):
    text = README.read_text(encoding="utf-8")
    listing = text.split("An augmentation out-dir holds these files:\n\n", 1)[1]
    listing = listing.split("\n\n", 1)[0]
    listed = re.findall(r"^- `([^`]+)`", listing, re.MULTILINE)
    manifest = read_manifest(PYPROJECT.parent / "tests" / "data" / "synthetic_manifest.json")
    doomed = manifest.entries[0].original_captions

    def one_failure(prompt):
        if any(caption in prompt for caption in doomed):
            raise LlmError("down")
        return mock_complete(prompt, 0)

    out_dir = tmp_path / "run"
    _, stats = run_augmentation(ExperimentConfig(out_dir=str(out_dir)), manifest, one_failure)
    assert len(stats.gateway_failures()) == 1
    assert sorted(listed) == sorted(p.name for p in out_dir.iterdir())
