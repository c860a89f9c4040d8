"""Set-up probe: run in a fresh interpreter, it pays what every CLI invocation pays
(importing capaug and its CLI, building the workload's ExperimentConfig and
backend) and then prints ``ready``. The parent times spawn-to-ready.

Usage: python3 perfbench/setup_probe.py --workload NAME --seed N --work DIR
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import capaug  # noqa: E402,F401
import capaug.cli  # noqa: E402,F401

from workloads import build_backend, build_config  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()
    config = build_config(args.workload, args.seed, args.work,
                          manifest_path=args.work / "input_manifest.json")
    build_backend(config)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
