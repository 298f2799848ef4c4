"""Small covers take the minterm-set espresso, wide ones the URP path.

With an explicit off-set, the minterm path decides REDUCE, EXPAND and
IRREDUNDANT without a single tautology call or URP recursion, so a
dispatch that silently sent covered formats back to the unate-recursive
code would show up here as non-zero counters, even though every result
would still be right.  Covered are formats of at most
``MINTERM_SPACE_MAX`` minterms and, when every input is binary, up to
``BINARY_SPACE_MAX`` minterms within ``BINARY_WORK_MAX`` minterms ×
cubes: the one-hot encode of modulo12 is one.  The verification gates
check that path with code it does not share, so they must not import
it.
"""

import ast
import importlib
from pathlib import Path

from repro import perf
from repro.encoding.base import Encoding, counting_sequence_code
from repro.encoding.onehot import onehot_code
from repro.eval.instantiate import instantiate
from repro.fsm.benchmarks import benchmark
from repro.fsm.symbolic_cover import build_symbolic_cover
from repro.logic import minterms
from repro.logic.cover import Cover
from repro.logic.cube import Format

# the package re-exports the espresso() function under the module's name
esp = importlib.import_module("repro.logic.espresso")

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def counting_code(n: int) -> Encoding:
    return counting_sequence_code(n, max(1, (n - 1).bit_length()))


def encoded_covers(name: str, code=counting_code):
    fsm = benchmark(name)
    symbols = (counting_code(len(fsm.symbolic_input_values))
               if fsm.has_symbolic_input else None)
    on, dc, off, *_ = instantiate(fsm, code(fsm.num_states), symbols)
    return on, dc, off


def run_counted(on, dc, off, effort="full"):
    with perf.collect() as stats:
        esp.espresso(on, dc, off=off if len(off) else None, effort=effort)
    return stats


def test_encoded_small_covers_make_no_urp_calls():
    for name in ("lion", "dk27"):
        on, dc, off = encoded_covers(name)
        assert minterms.size(on.fmt) <= esp.MINTERM_SPACE_MAX, name
        stats = run_counted(on, dc, off)
        assert stats.espresso_passes > 0, name
        assert stats.tautology_calls == 0, name
        assert stats.urp_recursions == 0, name


def test_symbolic_mv_cover_makes_no_urp_calls():
    sc = build_symbolic_cover(benchmark("dk27"))
    assert minterms.size(sc.on.fmt) <= esp.MINTERM_SPACE_MAX
    stats = run_counted(sc.on, sc.dc, sc.off)
    assert stats.espresso_passes > 0
    assert stats.tautology_calls == 0
    assert stats.urp_recursions == 0


def test_onehot_encoded_binary_cover_above_the_space_bound_is_covered():
    on, dc, off = encoded_covers("modulo12", onehot_code)
    size = minterms.size(on.fmt)
    assert max(on.fmt.parts[:-1]) == 2
    assert esp.MINTERM_SPACE_MAX < size <= esp.BINARY_SPACE_MAX
    assert esp._space(on) is not None
    stats = run_counted(on, dc, off)
    assert stats.espresso_passes > 0
    assert stats.tautology_calls == 0
    assert stats.urp_recursions == 0


def test_mv_inputs_and_too_many_cubes_take_the_urp_path():
    # a multiple-valued input: the binary bounds do not apply
    mv = Cover(Format([2] * 10 + [4, 3]))
    assert esp.MINTERM_SPACE_MAX < minterms.size(mv.fmt)
    assert esp._space(mv) is None
    binary = Cover(Format([2] * 12 + [3]))
    assert esp._space(binary) is not None
    binary.cubes = [binary.fmt.universe] * (
        esp.BINARY_WORK_MAX // minterms.size(binary.fmt) + 1)
    assert esp._space(binary) is None  # too many cubes for its size


def test_format_above_the_bound_takes_the_urp_path():
    on, dc, off = encoded_covers("scf")
    assert minterms.size(on.fmt) > esp.BINARY_SPACE_MAX
    assert esp._space(on) is None
    stats = run_counted(on, dc, off, effort="low")
    assert stats.tautology_calls > 0
    assert stats.urp_recursions > 0


def test_verification_gates_do_not_import_minterms():
    for path in (SRC / "logic" / "verify.py", SRC / "encoding" / "verify.py"):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module)
                imported.update(f"{node.module}.{a.name}" for a in node.names)
            elif isinstance(node, ast.Import):
                imported.update(a.name for a in node.names)
        assert "repro.logic.minterms" not in imported, path.name
