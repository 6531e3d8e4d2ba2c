#!/usr/bin/env python3
"""Run every named verification suite through the CLI and summarize.

Usage:
    python scripts/run_verifications.py [bwrt verify flags, e.g. --pmax 200 --nmax 4]

The flags go to ``bwrt verify`` after a leading ``--pmax 20000``, so a given
--pmax overrides that default; the others keep the CLI's defaults.  Each
suite's check count and failures are read off its JSON report.
"""

import json
import sys
import time

from brieskorn_wrt import cli


def main(argv: list) -> int:
    overall = 0
    for suite in cli.SUITES:
        started = time.monotonic()
        cmd = cli.parse(["verify", "--suite", suite, "--pmax", "20000", *argv])
        report, code = cli.execute(cmd)
        elapsed = time.monotonic() - started
        laid = json.loads(cli.render(cmd._replace(fmt="json"), report))
        print(
            f"{suite:>10}: {report.status:>4}  checks={laid['results'].get('checks', '?'):>5}"
            f"  ({elapsed:.1f}s)"
        )
        for failure in laid.get("failure", [])[:5]:
            print(f"{'':>12}{failure}")
        overall = max(overall, code)
    return overall


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
