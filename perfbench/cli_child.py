"""Run one `ctlsim` invocation with spans on and write the spans out.

Usage: python3 perfbench/cli_child.py SPANS.npz [ctlsim arguments...]
Standard output and the exit code are those of `ctlsim` itself.
"""

import sys

import ctlsim.cli

from spans import Tracer


def main() -> int:
    tracer = Tracer().install()
    try:
        return ctlsim.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.write(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
