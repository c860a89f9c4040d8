"""Command-line interface.

Exit codes: 0 on success, 1 on partial failure (some clips failed but the run
completed; ``augment`` also writes a failure manifest), 2 on configuration
errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

import capaug  # its audio names load NumPy on first use, so only audio commands pay it

from . import corpus
from .filtering import FilterRules, encodes_utf8, filter_captions, parse_numbered
from .harness import (DEFAULT_EVAL_EPSILON, ConfigError, ExperimentConfig, HarnessError,
                      load_config, run_augmentation)
from .llm import LlmConfig
from .prompts import PromptKind, builtin_template
from .reporting import ReportRow, render_report
from .separation import SeparatorSpec

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_CONFIG = 2

PROMPT_ALIASES = {
    "simple": PromptKind.SIMPLE,
    "clotho": PromptKind.MODIFIED_CLOTHO,
    "modified_clotho": PromptKind.MODIFIED_CLOTHO,
    "wavcaps": PromptKind.MODIFIED_WAVCAPS,
    "modified_wavcaps": PromptKind.MODIFIED_WAVCAPS,
}

logger = logging.getLogger(__name__)


def _prompt_kind(name: str) -> PromptKind:
    try:
        return PROMPT_ALIASES[name]
    except KeyError:
        raise ConfigError(f"unknown prompt kind {name!r}; "
                          f"choose from {sorted(PROMPT_ALIASES)}")


def cmd_prompt(args) -> int:
    template = builtin_template(_prompt_kind(args.kind))
    print(template.to_json())
    return EXIT_OK


def cmd_ingest(args) -> int:
    if args.dataset == "clotho":
        entries = corpus.ingest_clotho(args.csv)
    elif args.dataset == "fsd50k":
        entries = corpus.ingest_fsd50k(args.csv)
    else:
        entries = corpus.ingest_wavcaps(args.json, args.subset)
    manifest = corpus.new_manifest(entries)
    corpus.write_manifest(manifest, args.out)
    print(f"wrote {len(entries)} entries to {args.out}")
    return EXIT_OK


def _experiment_config(args) -> ExperimentConfig:
    """The ``--config`` file (or the defaults) with the flags applied, validated as a whole.

    ``--mock-llm`` and ``--llm-endpoint`` choose the backend; ``--llm-model``
    sets the model of whichever HTTP backend is then in force.
    """
    config = load_config(args.config, ExperimentConfig.from_dict) if args.config \
        else ExperimentConfig()
    if args.mock_llm and args.llm_endpoint:
        raise ConfigError("--mock-llm and --llm-endpoint choose different backends")
    llm = None if args.mock_llm else config.llm
    if args.llm_endpoint:
        llm = dataclasses.replace(llm or LlmConfig(), endpoint_url=args.llm_endpoint)
    if args.llm_model:
        if llm is None:
            raise ConfigError("--llm-model needs an HTTP backend: give --llm-endpoint "
                              "or a config with an llm endpoint")
        llm = dataclasses.replace(llm, model_id=args.llm_model)
    changes = {"llm": llm, "use_mock_llm": llm is None}
    if args.manifest:
        changes["manifest_path"] = args.manifest
    if args.prompt:
        changes["prompt_kind"] = _prompt_kind(args.prompt).value
    if args.count is not None:
        changes["requested_count"] = args.count
    if args.rules:
        changes["filter_rules"] = load_config(args.rules, FilterRules.from_dict)
    if args.seed is not None:
        changes["seed"] = args.seed
        if llm is None:
            changes["mock_seed"] = args.seed
    if args.out_dir:
        changes["out_dir"] = args.out_dir
    return dataclasses.replace(config, **changes)


def cmd_augment(args) -> int:
    config = _experiment_config(args)
    if not config.manifest_path:
        raise ConfigError("augment requires --manifest or a config with one")
    if not config.out_dir:
        raise ConfigError("augment requires --out-dir or a config with one")
    manifest, stats = run_augmentation(config, resume=not args.no_resume)
    totals = stats.totals()
    print(f"augmented {totals['clips']} clips: {totals['accepted']} captions accepted, "
          f"{totals['gateway_failures']} gateway failures")
    print(f"outputs in {config.out_dir}")
    if totals["gateway_failures"]:
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_filter(args) -> int:
    rules = load_config(args.rules, FilterRules.from_dict) if args.rules else FilterRules()
    out_lines = []
    with open(args.responses, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{args.responses}:{line_no}: {exc}") from exc
            if not (isinstance(doc, dict) and "clip_id" in doc
                    and isinstance(text := doc.get("response_text"), str) and encodes_utf8(text)):
                raise ConfigError(f"{args.responses}:{line_no}: expected {{clip_id, response_text}}"
                                  " with a string response_text that UTF-8 can encode")
            report = filter_captions(parse_numbered(text), rules)
            out_lines.append(json.dumps(
                {"clip_id": doc["clip_id"], **report.to_dict()}, ensure_ascii=False))
    with corpus.open_replacing(args.out) as fh:
        fh.write("\n".join(out_lines) + "\n")
    print(f"filtered {len(out_lines)} responses into {args.out}")
    return EXIT_OK


def cmd_stats(args) -> int:
    manifest = corpus.read_manifest(args.manifest)
    rows = corpus.summarize(manifest)
    width = max(len(r.source_dataset) for r in rows)
    print(f"{'dataset':<{width}}  {'clips':>8}  {'originals':>10}  {'augmented':>10}")
    for row in rows:
        print(f"{row.source_dataset:<{width}}  {row.num_clips:>8}  "
              f"{row.num_original_captions:>10}  {row.num_augmented_captions:>10}")
    return EXIT_OK


def cmd_mix(args) -> int:
    target = capaug.read_wav(args.target)
    interference = capaug.read_wav(args.interference)
    result = capaug.mix(target, interference, args.snr)
    capaug.write_wav(args.out, result.mixture)
    if args.out_target:
        capaug.write_wav(args.out_target, result.target)
    if args.out_interference:
        capaug.write_wav(args.out_interference, result.interference)
    print(f"mixed at {args.snr:+.1f} dB SNR (gain {result.gain:.6f}, "
          f"rescale {result.rescale:.6f}) -> {args.out}")
    return EXIT_OK


def cmd_separate(args) -> int:
    spec = load_config(args.spec, SeparatorSpec.from_dict)
    mixture = capaug.read_wav(args.mixture)
    oracle_sources = None
    if args.target and args.interference:
        oracle_sources = (capaug.read_wav(args.target), capaug.read_wav(args.interference))
    estimate = capaug.separate(spec, mixture, args.caption, oracle_sources)
    capaug.write_wav(args.out, estimate)
    print(f"wrote estimate to {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    # an experiment config refuses a NaN or negative epsilon; so does this command
    epsilon = ExperimentConfig(epsilon=args.epsilon).epsilon
    est_dir, ref_dir, mix_dir = Path(args.estimates), Path(args.references), Path(args.mixtures)
    names = sorted(p.name for p in est_dir.glob("*.wav"))
    if not names:
        raise ConfigError(f"no WAV files in {est_dir}")

    # read one clip at a time, as it is scored; per-clip paths through os.path,
    # as in evaluation.score_clips
    def load(name: str) -> capaug.EvalItem:
        ref_path, mix_path = os.path.join(ref_dir, name), os.path.join(mix_dir, name)
        if not os.path.exists(ref_path) or not os.path.exists(mix_path):
            raise ConfigError(f"missing reference or mixture for {name}")
        return capaug.EvalItem(os.path.splitext(name)[0], capaug.read_wav(mix_path),
                               capaug.read_wav(ref_path), caption="")

    estimators = {str(est_dir): lambda item, _: capaug.read_wav(
        os.path.join(est_dir, item.clip_id + ".wav"))}
    [result] = capaug.score_clips(map(load, names), estimators, epsilon, kept=()).values()
    capaug.write_per_clip_csv(Path(args.out), result.per_clip)
    if result.failed:
        print(f"failed clips: {' '.join(result.failed)}", file=sys.stderr)
    print(f"evaluated {len(result.per_clip)} of {len(names)} clips -> {args.out}")
    return EXIT_PARTIAL if result.failed else EXIT_OK


def cmd_ensemble(args) -> int:
    estimates = [capaug.read_wav(p) for p in args.inputs]
    combined = capaug.ensemble(estimates, args.weights)
    capaug.write_wav(args.out, combined)
    print(f"ensembled {len(estimates)} estimates -> {args.out}")
    return EXIT_OK


REPORT_ROW_KEYS = ("model", "training_dataset", "caption_augmentation", "sdr", "sdri", "si_sdr")


def _report_row(doc: dict) -> ReportRow:
    unknown = sorted(set(doc) - set(REPORT_ROW_KEYS))
    if unknown:
        raise ConfigError(f"unknown row keys {unknown}; known keys: {list(REPORT_ROW_KEYS)}")
    return ReportRow.from_values(
        doc["model"], doc.get("training_dataset", "-"), doc.get("caption_augmentation", "-"),
        float(doc["sdr"]), float(doc["sdri"]), float(doc["si_sdr"]))


def cmd_report(args) -> int:
    rows = load_config(args.rows, lambda doc: [_report_row(r) for r in doc])
    text = render_report(rows, fmt=args.format, config_hash=args.config_hash)
    if args.out:
        with corpus.open_replacing(args.out) as fh:
            fh.write(text)
        print(f"wrote report to {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """A parser, and through ``add_subparsers`` each subparser, that takes no
    abbreviated option: ``--config`` is never read as ``--config-hash``."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="capaug",
        description="Caption augmentation and separation-evaluation toolkit")
    parser.add_argument("--config", default=None, help="experiment config JSON")
    parser.add_argument("--seed", type=int, default=None, help="global random seed")
    parser.add_argument("--out-dir", default=None,
                        help="output directory for run artifacts")
    parser.add_argument("-v", "--verbose", action="store_true")

    # the global flags are also accepted after the subcommand; SUPPRESS keeps a
    # subcommand parse from clobbering values given before it
    common = _Parser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--out-dir", default=argparse.SUPPRESS)
    common.add_argument("-v", "--verbose", action="store_true",
                        default=argparse.SUPPRESS)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prompt", help="inspect prompt templates")
    prompt_sub = p.add_subparsers(dest="prompt_command", required=True)
    p_show = prompt_sub.add_parser("show", help="print a built-in template as JSON")
    p_show.add_argument("kind", choices=sorted(PROMPT_ALIASES))
    p_show.set_defaults(func=cmd_prompt)

    p = sub.add_parser("ingest", help="build a manifest from dataset metadata")
    ingest_sub = p.add_subparsers(dest="dataset", required=True)
    p_cl = ingest_sub.add_parser("clotho")
    p_cl.add_argument("--csv", required=True)
    p_cl.add_argument("--out", required=True)
    p_cl.set_defaults(func=cmd_ingest)
    p_fs = ingest_sub.add_parser("fsd50k")
    p_fs.add_argument("--csv", required=True)
    p_fs.add_argument("--out", required=True)
    p_fs.set_defaults(func=cmd_ingest)
    p_wc = ingest_sub.add_parser("wavcaps")
    p_wc.add_argument("--json", required=True)
    p_wc.add_argument("--subset", required=True,
                      choices=sorted(corpus.WAVCAPS_SUBSETS | {"FreeSound"}))
    p_wc.add_argument("--out", required=True)
    p_wc.set_defaults(func=cmd_ingest)

    p = sub.add_parser("augment", parents=[common],
                       help="run the caption-augmentation pipeline")
    p.add_argument("--manifest")
    p.add_argument("--prompt", help="prompt kind (simple, clotho, wavcaps)")
    p.add_argument("--count", type=int, help="captions to request per clip")
    p.add_argument("--rules", help="filter rules JSON")
    p.add_argument("--mock-llm", action="store_true", help="use the offline mock backend")
    p.add_argument("--llm-endpoint", help="completion endpoint URL")
    p.add_argument("--llm-model", help="model identifier sent to the endpoint")
    p.add_argument("--no-resume", action="store_true",
                   help="empty the out-dir's journal of LLM replies and request every clip")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("filter", help="filter raw responses from a JSONL file")
    p.add_argument("--responses", required=True,
                   help="JSONL of {clip_id, response_text}")
    p.add_argument("--rules", help="filter rules JSON")
    p.add_argument("--out", required=True, help="output JSONL of per-clip reports")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("stats", help="print per-dataset manifest statistics")
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("mix", help="mix two mono WAV files at an exact SNR")
    p.add_argument("--target", required=True)
    p.add_argument("--interference", required=True)
    p.add_argument("--snr", type=float, required=True, help="SNR in dB")
    p.add_argument("--out", required=True, help="mixture WAV path")
    p.add_argument("--out-target", help="optionally write the co-scaled target")
    p.add_argument("--out-interference", help="optionally write the scaled interference")
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("separate", help="run one separator on one mixture")
    p.add_argument("--spec", required=True, help="separator spec JSON")
    p.add_argument("--mixture", required=True)
    p.add_argument("--caption", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--target", help="oracle target stem (oracle_irm only)")
    p.add_argument("--interference", help="oracle interference stem (oracle_irm only)")
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("eval", help="score estimate/reference/mixture directories")
    p.add_argument("--estimates", required=True)
    p.add_argument("--references", required=True)
    p.add_argument("--mixtures", required=True)
    p.add_argument("--out", required=True, help="per-clip metrics CSV")
    p.add_argument("--epsilon", type=float, default=DEFAULT_EVAL_EPSILON)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ensemble", help="weighted sum of estimate WAVs")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--weights", nargs="+", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("report", help="render aggregate rows as Markdown or CSV")
    p.add_argument("--rows", required=True, help="JSON array of aggregate rows")
    p.add_argument("--format", choices=["markdown", "csv"], default="markdown")
    p.add_argument("--config-hash")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        given = [f"--{name.replace('_', '-')}" for name in ("config", "seed", "out_dir")
                 if getattr(args, name) is not None]
        if given and args.command != "augment":
            raise ConfigError(f"{' '.join(given)}: only augment reads these flags")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HarnessError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_PARTIAL
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
