"""What importing capaug loads: the text pipeline starts without NumPy, and every
public name still resolves."""

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
    assert capaug.audio.DEFAULT_SNR_RANGE_DB == capaug.harness.DEFAULT_SNR_RANGE_DB
    assert capaug.metrics.DEFAULT_CLAMP_DB == capaug.harness.DEFAULT_CLAMP_DB
    from capaug.harness import EvalItem, score_clips, write_per_clip_csv  # noqa: F401
