"""Set-up probe: one fresh process that imports cfolab and runs one command.

Usage: python3 bench/probe.py SRC_DIR CLI_ARG...

Prints ``time.monotonic()`` taken right after the command returns, so the
parent, which noted the same clock before starting this process, gets the
time from process start through imports, cache fill and the first
operation.  Exits with the command's exit code.
"""

import contextlib
import io
import sys
import time


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    from cfolab import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(sys.argv[2:])
    print(repr(time.monotonic()))
    return code


if __name__ == "__main__":
    sys.exit(main())
