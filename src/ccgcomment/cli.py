"""Command-line interface: `ccgcomment <file> [options]`."""

from __future__ import annotations

import argparse
import os
import sys

from .pipeline import MODES, RunConfig, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccgcomment",
        description="Generate English comments for a Python-subset source file.",
    )
    parser.add_argument("input_path", metavar="file",
                        help="source file (.py) or AST interchange file (.json)")
    parser.add_argument("--lexicon", dest="lexicon_path", metavar="PATH", default=None,
                        help="realization lexicon (default: bundled english.ccg)")
    parser.add_argument("--mode", choices=MODES, default="annotate",
                        help="output mode (default: annotate)")
    parser.add_argument("--roots", metavar="CATS", default=None,
                        help='override root categories, e.g. "S[imp],S[ger]"')
    parser.add_argument("--max-words", type=int, default=12, metavar="N",
                        help="longest comment to search for (default: 12)")
    parser.add_argument("--expansions", dest="max_expansions", type=int, default=200_000,
                        metavar="N",
                        help="search expansion budget per statement (default: 200000)")
    parser.add_argument("--variants", type=int, default=1, metavar="K",
                        help="number of comment variants per statement (default: 1)")
    parser.add_argument("--verify", action="store_true",
                        help="re-parse each comment and require it to mean its goal")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = run(RunConfig(**vars(args)))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early, as `| head` does: stop quietly,
        # and point stdout at devnull so the flush at exit cannot fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
