"""Record the default-seed outcomes the benchmark checks against.

Run from the repository root after a change that is meant to alter
simulated behaviour, and say why in the change log::

    python3 perfbench/record_expected.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import workloads as w

    expected = {name: w.simulated_rep(workload, w.DEFAULT_SEED).outcome
                for name, workload in w.SIMULATED.items()}
    with open(w.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {w.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
