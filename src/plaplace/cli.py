"""Command-line driver for the experiment suite.

Subcommands: ``fidelity``, ``memorize``, ``bounds``, ``train``, ``sample``.
Each accepts ``--config <path>`` (JSON; defaults apply when omitted),
``--seed <int>`` to override the configured seed list, and ``--out <dir>``
to override the output directory.  A config's optional ``experiment`` key
must name the study of the subcommand it is run with.  Exit code 0 means
every requested run completed; partial failures are enumerated in
``errors.json``; a bad config, an unreadable ``sample --checkpoint`` or an
output directory that cannot be created exits with 2 before any run starts.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys

from .config import _MAX_COUNT, MAX_SEED, build_gmm, load_config, resolve_config
from .errors import CheckpointError, ConfigError
from .experiments import run_bounds, run_fidelity, run_memorization, sample_artifact, train_model_artifact
from .score_model import load_checkpoint

# Study subcommand -> the config's optional ``experiment`` value.
_STUDIES = {"fidelity": "fidelity", "memorize": "memorization", "bounds": "bounds"}


def _load(args) -> dict:
    cfg = resolve_config({}) if args.config is None else load_config(args.config)
    study = _STUDIES.get(args.command)
    if study is not None:
        if cfg.setdefault("experiment", study) != study:
            raise ConfigError(f"config experiment {cfg['experiment']!r} does not match subcommand {args.command!r}")
        if study == "memorization" and build_gmm(cfg).dim != 2:
            raise ConfigError("memorize evaluates a 2-d grid; the mixture must be 2-d")
    if args.seed is not None:
        cfg["seeds"] = [args.seed]
    if args.out is not None:
        cfg["output_dir"] = args.out
    return cfg


def _int_in(low: int, high: float = math.inf):
    """argparse type: a plain decimal integer from low to high."""

    def parse(text: str) -> int:
        if not text.isdecimal() or not low <= int(text) <= high:
            raise argparse.ArgumentTypeError(f"must be an integer from {low} to {high}, got {text!r}")
        return int(text)

    return parse


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; defaults used when omitted")
    parser.add_argument("--seed", type=_int_in(0, MAX_SEED), help="override: run this single seed")
    parser.add_argument("--out", help="override: output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="plaplace", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in [
        ("fidelity", "estimator-vs-exact study on the analytic mixture"),
        ("memorize", "replica-injection memorization detection"),
        ("bounds", "error-bound dominance validation"),
        ("train", "train a score model and write a checkpoint"),
        ("sample", "draw reverse-time samples from a model"),
    ]:
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "sample":
            p.add_argument("--checkpoint", help="model checkpoint to sample from (trains one if omitted)")
            p.add_argument("--n", type=_int_in(1, _MAX_COUNT), default=1000, help="number of samples")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = _load(args)
        checkpoint = None
        if args.command == "sample" and args.checkpoint is not None:
            checkpoint = load_checkpoint(args.checkpoint)
        os.makedirs(cfg["output_dir"], exist_ok=True)
    except (CheckpointError, ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "fidelity":
        result = run_fidelity(cfg)
    elif args.command == "memorize":
        result = run_memorization(cfg)
    elif args.command == "bounds":
        result = run_bounds(cfg)
    elif args.command == "train":
        result = train_model_artifact(cfg)
    else:
        result = sample_artifact(cfg, checkpoint=checkpoint, n=args.n)

    if result["failed_seeds"]:
        print(f"failed seeds: {sorted(result['failed_seeds'])}", file=sys.stderr)
        return 1
    print(f"completed seeds: {result['completed_seeds']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
