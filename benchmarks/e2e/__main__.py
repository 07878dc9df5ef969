"""``PYTHONPATH=src python -m benchmarks.e2e run [options]``: the same
command as ``benchmarks/e2e/run.py``."""

import sys

from .cli import main

if __name__ == "__main__":
    args = sys.argv[1:]
    sys.exit(main(args[1:] if args[:1] == ["run"] else args))
