"""Time-to-first-result from a fresh interpreter, for ``setup_s``.

    python3 perfbench/cold_start.py table|embedding|batch WORK_DIR

Imports the layers one workload drives and produces one result for the
small ``lion`` machine, then exits 0.  The caller times the whole
process, so work the program moves into import time or into its first
call shows up here.  (The serve workload's cold start is a server boot
plus its first answer, timed by the caller directly.)
"""

from __future__ import annotations

import os
import sys
from pathlib import Path


def main(workload: str, work: Path) -> int:
    if workload == "table":
        from repro.eval import tables

        ok = tables.table3_row("lion")["nova_area"] > 0
    elif workload == "embedding":
        from repro.api import EncodeOptions, benchmark, encode_fsm
        from repro.fsm.kiss import parse_kiss, to_kiss

        fsm = parse_kiss(to_kiss(benchmark("lion")), name="lion")
        result = encode_fsm(fsm, options=EncodeOptions(algorithm="ihybrid",
                                                       cache="off"))
        ok = result.area > 0
    elif workload == "batch":
        from repro.runner import BatchRunner, BatchTask

        task = BatchTask("lion", options={"cache": "off"})
        report = BatchRunner([task], work / f"cold-{os.getpid()}", jobs=1,
                             retries=0).run()
        ok = report.ok
    else:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], Path(sys.argv[2])))
