"""Command-line entry point.

Usage:
    gistrank <stage> --config PATH [--mode T|TI|TII] [--seed N] [--out DIR]
             [--image-labels PATH]
    gistrank gen-fixture --seed N --instances K --topics M --out DIR

Exit codes: 0 success, 1 usage or configuration error, 2 data integrity
error, 3 training failure.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .config import load_config
from .errors import ConfigError, GistRankError, TrainingError
from .fixture import gen_fixture
from .pipeline import STAGE_ORDER, run_stage

logger = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # raise instead of exiting with code 2
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="gistrank", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for stage in (*STAGE_ORDER, "all"):
        stage_parser = sub.add_parser(stage, help=f"run the {stage!r} pipeline stage")
        stage_parser.add_argument("--config", required=True, help="key=value config file")
        stage_parser.add_argument("--mode", choices=("T", "TI", "TII"), help="candidate-set mode")
        stage_parser.add_argument("--seed", type=int, help="override the master seed")
        stage_parser.add_argument("--out", help="override the output directory")
        stage_parser.add_argument(
            "--image-labels", help="JSON-lines file overriding per-instance image labels"
        )

    gen = sub.add_parser("gen-fixture", help="generate a synthetic desk-scale fixture")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--instances", type=int, required=True)
    gen.add_argument("--topics", type=int, required=True)
    gen.add_argument("--out", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "gen-fixture":
            paths = gen_fixture(args.seed, args.instances, args.topics, args.out)
            logger.info("fixture written: %s", ", ".join(str(p) for p in paths.values()))
            return 0
        options = {"mode": args.mode, "seed": args.seed, "out": args.out, "image_labels": args.image_labels}
        overrides = {key: str(value) for key, value in options.items() if value not in (None, "")}
        config = load_config(args.config, overrides)
        out_dir = run_stage(config, args.command)
        logger.info("stage %s finished; artifacts in %s", args.command, out_dir)
        return 0
    except GistRankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # Parse, integrity, lookup and stage-dependency errors are data errors.
        return 1 if isinstance(exc, ConfigError) else 3 if isinstance(exc, TrainingError) else 2


if __name__ == "__main__":
    sys.exit(main())
