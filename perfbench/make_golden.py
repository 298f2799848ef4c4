"""Regenerate ``golden_tables.json``, the table workload's expected rows.

    python3 perfbench/make_golden.py

Rows of the paper's Tables II-IV for the small benchmark set, as the
program computes them today.  The table workload fails its correctness
check when any row differs, so rewrite this file only together with a
change that is meant to alter the reproduced tables.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from common import prepare

HERE = Path(__file__).resolve().parent


def main() -> None:
    with tempfile.TemporaryDirectory(dir=HERE.parent) as work:
        prepare(Path(work))
        from repro.fsm.benchmarks import benchmark_names
        from workloads import table_rows

        golden = {f"{table}:{name}": row(name)
                  for table, row in table_rows().items()
                  for name in benchmark_names("small")}
    (HERE / "golden_tables.json").write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
