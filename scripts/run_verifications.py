#!/usr/bin/env python3
"""Run every named verification suite through the CLI and summarize.

Usage:
    python scripts/run_verifications.py [bwrt verify flags, e.g. --pmax 200 --nmax 4]

The flags go to ``bwrt verify`` after a leading ``--pmax 20000``, so a given
--pmax overrides that default; the others keep the CLI's defaults.
"""

import sys
import time

from brieskorn_wrt import cli


def main(argv: list) -> int:
    overall = 0
    for suite in cli.SUITES:
        started = time.monotonic()
        argv_suite = ["verify", "--suite", suite, "--pmax", "20000", *argv]
        report, code = cli.execute(cli.parse(argv_suite))
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
    sys.exit(main(sys.argv[1:]))
