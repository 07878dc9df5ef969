"""Entry point: ``python3 benchmarks/e2e/run.py [--workload NAME] ...``.

Runs from the root of a checkout; see ``benchmarks/e2e/README.md``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"benchmark error: no repro sources under {ROOT / 'src'}",
            file=sys.stderr,
        )
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.e2e.cli import main

    sys.exit(main())
