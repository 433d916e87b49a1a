"""Command-line entry point.

``wres-verify --suite all --format json`` recomputes every suite and prints
a deterministic report; the exit code is 0 iff no claim is an unwaivered
mismatch, 1 otherwise, 2 on usage, configuration and I/O errors, and 3 when
the engine itself fails.
"""

from __future__ import annotations

import argparse
import sys

from .reference import ALL_SUITES
from .verifier import ConfigurationError, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wres-verify",
        description="Recompute the functional coefficients from first "
                    "principles and audit them against the recorded tables.")
    parser.add_argument("--suite", choices=(*ALL_SUITES, "all"), default="all",
                        help="which suite to run (default: all)")
    parser.add_argument("--format", choices=("json", "md"), default="json",
                        dest="fmt", help="report format (default: json)")
    parser.add_argument("--emit-intermediates", metavar="DIR", default=None,
                        help="write per-row intermediate values into DIR")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, text = run((args.suite,), fmt=args.fmt, emit_dir=args.emit_intermediates)
    except ConfigurationError as exc:
        sys.stderr.write(f"wres-verify: error: {exc}\n")
        return 2
    except Exception as exc:  # an engine defect, not the user's configuration
        message = " ".join(str(exc).splitlines())
        sys.stderr.write(f"wres-verify: internal error: {type(exc).__name__}: {message}\n")
        return 3
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
