#!/usr/bin/env python3
"""Run every named verification suite through the CLI and summarize.

Usage:
    python scripts/run_verifications.py [--pmax 20000] [--nmax 25] [--precision 50]
"""

import argparse
import sys
import time

from brieskorn_wrt.cli import execute, parse


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pmax", type=int, default=20000)
    parser.add_argument("--nmax", type=int, default=25)
    parser.add_argument("--precision", type=int, default=50)
    args = parser.parse_args()

    overall = 0
    for suite in ("table1", "gamma", "modular", "torsion", "theorem51"):
        argv = [
            "verify",
            "--suite",
            suite,
            "--pmax",
            str(args.pmax),
            "--nmax",
            str(args.nmax),
            "--precision",
            str(args.precision),
        ]
        started = time.monotonic()
        report, code = execute(parse(argv))
        elapsed = time.monotonic() - started
        print(
            f"{suite:>10}: {report.status:>4}  checks={report.results.get('checks', '?'):>5}"
            f"  ({elapsed:.1f}s)"
        )
        for failure in report.failure[:5]:
            print(f"{'':>12}{failure}")
        overall = max(overall, code)
    return overall


if __name__ == "__main__":
    sys.exit(main())
