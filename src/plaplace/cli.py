"""Command-line driver for the experiment suite.

Subcommands: ``fidelity``, ``memorize``, ``bounds``, one per study.  Each
accepts ``--config <path>`` (JSON; defaults apply when omitted), ``--seed
<int>`` to override the configured seed list, and ``--out <dir>`` to override
the output directory.  A config's optional ``experiment`` key must name the
study of the subcommand it is run with.  Exit code 0 means every requested
run completed; a run with failures lists them in the study's ``errors.json``
and exits with 1; a bad config or an output directory that cannot be created
exits with 2 before any run starts.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .config import MAX_SEED, build_gmm, load_config, resolve_config
from .errors import ConfigError
from .experiments import run_bounds, run_fidelity, run_memorization

# Subcommand -> (the config's optional ``experiment`` value, help text, study driver).
_STUDIES = {
    "fidelity": ("fidelity", "estimator-vs-exact study on the analytic mixture", run_fidelity),
    "memorize": ("memorization", "replica-injection memorization detection", run_memorization),
    "bounds": ("bounds", "error-bound dominance validation", run_bounds),
}


def _load(args) -> dict:
    cfg = resolve_config({}) if args.config is None else load_config(args.config)
    study = _STUDIES[args.command][0]
    if cfg.setdefault("experiment", study) != study:
        raise ConfigError(f"config experiment {cfg['experiment']!r} does not match subcommand {args.command!r}")
    if study == "memorization" and build_gmm(cfg).dim != 2:
        raise ConfigError("memorize evaluates a 2-d grid; the mixture must be 2-d")
    if args.seed is not None:
        cfg["seeds"] = [args.seed]
    if args.out is not None:
        cfg["output_dir"] = args.out
    return cfg


def _seed(text: str) -> int:
    """argparse type: a plain decimal seed from 0 to ``MAX_SEED``."""
    if not text.isdecimal() or int(text) > MAX_SEED:
        raise argparse.ArgumentTypeError(f"must be an integer from 0 to {MAX_SEED}, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="plaplace", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in _STUDIES.items():
        study = sub.add_parser(name, help=help_text)
        study.add_argument("--config", help="JSON config file; defaults used when omitted")
        study.add_argument("--seed", type=_seed, help="override: run this single seed")
        study.add_argument("--out", help="override: output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = _load(args)
        os.makedirs(cfg["output_dir"], exist_ok=True)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    result = _STUDIES[args.command][2](cfg)
    if result["failed_seeds"]:
        print(f"failed seeds: {sorted(result['failed_seeds'])}", file=sys.stderr)
        return 1
    print(f"completed seeds: {result['completed_seeds']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
