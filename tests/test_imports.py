"""What importing capaug loads: the text pipeline starts without NumPy, and every
public name still resolves."""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import capaug

SRC = Path(capaug.__file__).resolve().parents[1]

TEXT_PIPELINE = textwrap.dedent("""
    import json
    import sys
    from pathlib import Path

    import capaug
    import capaug.cli as cli
    from capaug.harness import EnsembleDef, ExperimentConfig, build_client, load_config
    from capaug.llm import LlmConfig
    from capaug.separation import SeparatorSpec

    manifest, work = sys.argv[1], Path(sys.argv[2])
    separators = [("identity", SeparatorSpec(kind="identity")),
                  ("oracle", SeparatorSpec(kind="oracle_irm")),
                  ("ext", SeparatorSpec(kind="external",
                                        command_template="sep {MIXTURE} {CAPTION} {OUT}"))]
    mock = ExperimentConfig(separators=separators, ensembles={
        "pair": EnsembleDef(members=("identity", "oracle"), weights=(0.5, 0.5))})
    build_client(mock).close()
    http = ExperimentConfig(use_mock_llm=False, llm=LlmConfig(
        endpoint_url="http://127.0.0.1:9/complete"))
    build_client(http).close()
    (work / "config.json").write_text(json.dumps(mock.to_dict()))
    assert load_config(work / "config.json", ExperimentConfig.from_dict).hash() == mock.hash()
    cli.build_parser().format_help()

    out = work / "out"
    assert cli.main(["augment", "--mock-llm", "--manifest", manifest,
                     "--out-dir", str(out)]) == 0
    assert cli.main(["stats", "--manifest", str(out / "manifest.json")]) == 0
    (work / "rows.json").write_text(json.dumps(
        [{"model": "m", "sdr": 1.0, "sdri": 2.0, "si_sdr": 3.0}]))
    assert cli.main(["report", "--rows", str(work / "rows.json")]) == 0
    print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "numpy")))
""")


def test_text_pipeline_never_imports_numpy(tmp_path, data_dir):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", TEXT_PIPELINE, str(data_dir / "synthetic_manifest.json"),
         str(tmp_path)], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "augmented" in proc.stdout and "config sha256" not in proc.stdout
    assert json.loads(proc.stdout.splitlines()[-1]) == []
    assert (tmp_path / "out" / "manifest.json").is_file()


def test_every_public_name_still_resolves():
    import capaug.audio
    import capaug.harness
    import capaug.metrics

    for name in capaug.__all__:
        assert getattr(capaug, name) is not None, name
    assert capaug.harness.run_evaluation is capaug.run_evaluation
    assert capaug.harness.make_synthetic_eval_set is capaug.make_synthetic_eval_set
    assert capaug.audio.StftParams is capaug.StftParams
    assert capaug.metrics.MetricsTriple is capaug.MetricsTriple
    assert capaug.metrics.DEFAULT_CLAMP_DB == capaug.harness.DEFAULT_CLAMP_DB
    assert capaug.harness.DEFAULT_CLAMP_DB == capaug.reporting.DEFAULT_CLAMP_DB
    from capaug.evaluation import EvalItem, score_clips, write_per_clip_csv  # noqa: F401


# the modules on the NumPy side of the line, which the text pipeline never loads
AUDIO_SIDE = {"numpy", "audio", "metrics", "evaluation"}
# imported when an HTTP client is built or fails, not with the module: see LlmClient
LOCAL_IMPORTS_ALLOWED = {("llm", "http.client")}


def _imports(module: str) -> list[tuple[str, bool]]:
    """(imported module, inside a function) for each import in ``capaug.<module>``:
    capaug's own modules by their short name (``capaug`` itself as ``__init__``),
    NumPy's as ``numpy``."""
    found = []

    def visit(node, in_function):
        if isinstance(node, ast.Import):
            found.extend((alias.name, in_function) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.module:  # from . import x
            found.extend((alias.name, in_function) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.append((node.module, in_function))
        in_function = in_function or isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for child in ast.iter_child_nodes(node):
            visit(child, in_function)

    visit(ast.parse((SRC / "capaug" / f"{module}.py").read_text(encoding="utf-8")), False)
    short = {"capaug": "__init__", "numpy": "numpy"}
    return [(short.get(name.split(".")[0], name.removeprefix("capaug.")), in_function)
            for name, in_function in found]


def test_numpy_side_imports_only_what_it_needs():
    own = {path.stem for path in (SRC / "capaug").glob("*.py")}
    assert {name for name, _ in _imports("metrics") if name in own} == {"audio", "reporting"}
    assert {name for name, _ in _imports("audio") if name in own} == {"separation"}


def test_no_function_local_imports():
    local = {(path.stem, name) for path in (SRC / "capaug").glob("*.py")
             for name, in_function in _imports(path.stem) if in_function}
    assert local <= LOCAL_IMPORTS_ALLOWED


def test_no_type_checking_blocks():
    for path in (SRC / "capaug").glob("*.py"):
        assert "TYPE_CHECKING" not in path.read_text(encoding="utf-8"), path.name


def test_text_pipeline_modules_import_no_audio_code():
    # every capaug module that ``import capaug`` or the CLI loads, found statically
    loaded, todo = set(), ["__init__", "cli"]
    while todo:
        module = todo.pop()
        loaded.add(module)
        for name, in_function in _imports(module):
            if in_function:
                continue
            assert name not in AUDIO_SIDE, f"capaug.{module} imports {name}"
            if (SRC / "capaug" / f"{name}.py").is_file() and name not in loaded:
                todo.append(name)
    assert {"harness", "separation", "llm", "corpus"} <= loaded
