"""Substrate micro-benchmarks and ablations.

Not a table of the paper, but the measurements DESIGN.md calls out for
the design choices that make the pure-Python reproduction feasible:

* the cover-kernel suite: per-cube reference loops (the pre-6.x idiom)
  vs the batched :mod:`repro.logic.backend` kernels on four
  representative machines — results must match, ratios are recorded
  (see DESIGN.md §6.9);
* espresso with an explicit off-set vs tautology-based implicant checks
  (the off-set construction from deterministic rows is what keeps the
  encoded-cover minimization fast);
* unate-recursive tautology throughput on MV covers;
* semiexact_code throughput (the inner loop of ihybrid);
* symbolic minimization stage cost.
"""

from typing import Callable, Dict, List, Tuple

import pytest

from repro import perf
from repro.bench.timing import best_of
from repro.constraints.input_constraints import extract_input_constraints
from repro.encoding.iexact import semiexact_code
from repro.encoding.nova import encode_fsm
from repro.fsm.benchmarks import benchmark as get_machine
from repro.fsm.symbolic_cover import build_symbolic_cover
from repro.logic import backend
from repro.logic import cover as cover_mod
from repro.logic import urp
from repro.logic.espresso import _expand_cube, espresso
from repro.logic.urp import tautology
from repro.symbolic.symbolic_min import symbolic_minimize

from conftest import record

# ---------------------------------------------------------------------------
# cover-kernel suite
# ---------------------------------------------------------------------------

# four machines spanning the format shapes the kernels must cover:
# keyb (54-bit cubes, large cover), planet (129 bits), styr (88 bits),
# dk16 (61 bits, MV-heavy state variable)
KERNEL_MACHINES = ("keyb", "planet", "styr", "dk16")
KERNEL_REPEATS = 5


def _best_of(fn: Callable[[], object], repeats: int = KERNEL_REPEATS) -> float:
    # shared timing protocol (repro.bench.timing): one warm-up run,
    # then best-of-N
    return best_of(fn, repeats, warmup=1)


def _reference_ops(sc) -> Dict[str, Tuple[Callable, Callable]]:
    """(per-cube reference, batched kernel) pairs computing identical work.

    The reference side is the pre-6.x per-cube idiom, inlined verbatim
    (for ``expand``, the per-candidate off-set scan EXPAND used before
    its incremental blocking state); the kernel side is what the hot
    callers (espresso's expand, all_primes, the Cover methods) run now.
    """
    fmt = sc.fmt
    big = sc.on + sc.dc + sc.off
    cubes = big.cubes
    off_cubes = sc.off.cubes
    probes = sc.on.cubes[:32]
    raise_mask = fmt.universe

    def ref_cofactor():
        out = []
        for q in probes:
            rm = raise_mask & ~q
            out.append([c | rm for c in cubes if fmt.intersects(c, q)])
        return out

    def new_cofactor():
        return [backend.cofactor(fmt, cubes, q) for q in probes]

    def ref_intersect():
        out = []
        for q in probes:
            row = []
            for c in cubes:
                r = c & q
                if not fmt.is_empty(r):
                    row.append(r)
            out.append(row)
        return out

    def new_intersect():
        return [backend.intersect_cube(fmt, cubes, q) for q in probes]

    dup = cubes + cubes[: len(cubes) // 2]

    def ref_scc():
        order = sorted(set(dup), key=lambda c: (-fmt.minterm_count(c), c))
        kept: List[int] = []
        kept_pc: List[int] = []
        for c in order:
            pc = c.bit_count()
            for k, kpc in zip(kept, kept_pc):
                if kpc > pc and c & ~k == 0:
                    break
            else:
                kept.append(c)
                kept_pc.append(pc)
        return kept

    def new_scc():
        return backend.single_cube_containment(fmt, dup)

    def ref_contain():
        return [any(q & ~k == 0 for k in cubes) for q in cubes]

    def new_contain():
        return [backend.contain_any(fmt, cubes, q) for q in cubes]

    def ref_expand():
        # per-candidate EXPAND: order the free positions by how many
        # off-cubes each single raise meets, then rescan the off-set
        # for every raise
        out = []
        for q in probes:
            free = [b for b in range(fmt.width) if not (q >> b) & 1]
            blocking = {b: sum(1 for o in off_cubes
                               if fmt.intersects(o, q | 1 << b))
                        for b in free}
            free.sort(key=blocking.__getitem__)
            for b in free:
                grown = q | 1 << b
                if not any(fmt.intersects(o, grown) for o in off_cubes):
                    q = grown
            out.append(q)
        return out

    def new_expand():
        return [_expand_cube(q, sc.on, sc.off) for q in probes]

    masks = fmt.masks

    def ref_consensus():
        out = []
        for q in probes:
            row: List[int] = []
            for b in cubes:
                inter = q & b
                empty = [m for m in masks if not inter & m]
                if len(empty) > 1:
                    continue
                union = q | b
                if len(empty) == 1:
                    c = (inter & ~empty[0]) | (union & empty[0])
                    if not fmt.is_empty(c):
                        row.append(c)
                    continue
                for m in masks:
                    row.append((inter & ~m) | (union & m))
            out.append(row)
        return out

    def new_consensus():
        return [backend.consensus_scan(fmt, cubes, q) for q in probes]

    return {
        "cofactor": (ref_cofactor, new_cofactor),
        "intersect": (ref_intersect, new_intersect),
        "scc": (ref_scc, new_scc),
        "contain_any": (ref_contain, new_contain),
        "expand": (ref_expand, new_expand),
        "consensus": (ref_consensus, new_consensus),
    }


@pytest.mark.parametrize("machine", KERNEL_MACHINES)
def test_cover_kernel_suite(machine):
    """Bit-identity + speedup of the batched kernels vs per-cube loops."""
    sc = build_symbolic_cover(get_machine(machine))
    row = {"machine": machine,
           "n_cubes": len(sc.on) + len(sc.dc) + len(sc.off),
           "width": sc.fmt.width}
    for name, (ref, new) in _reference_ops(sc).items():
        assert ref() == new(), f"{machine}/{name}: kernel result differs"
        t_ref = _best_of(ref)
        t_new = _best_of(new)
        row[name] = round(t_ref / t_new, 2)
    record("substrate_kernels", row)


@pytest.fixture(scope="module")
def ex3_cover():
    return build_symbolic_cover(get_machine("ex3"))


def test_espresso_with_explicit_off(benchmark, ex3_cover):
    sc = ex3_cover
    result = benchmark(lambda: espresso(sc.on, sc.dc, off=sc.off))
    assert len(result) <= len(sc.on)
    record("ablation_espresso", {
        "variant": "explicit off-set", "cubes": len(result),
    })


def test_espresso_tautology_oracle(benchmark, ex3_cover):
    sc = ex3_cover
    result = benchmark(lambda: espresso(sc.on, sc.dc))
    assert len(result) <= len(sc.on)
    record("ablation_espresso", {
        "variant": "tautology oracle", "cubes": len(result),
    })


def test_espresso_low_effort(benchmark, ex3_cover):
    sc = ex3_cover
    result = benchmark(lambda: espresso(sc.on, sc.dc, off=sc.off,
                                        effort="low"))
    assert len(result) <= len(sc.on)
    record("ablation_espresso", {
        "variant": "low effort (expand+irredundant)", "cubes": len(result),
    })


def test_tautology_throughput(benchmark, ex3_cover):
    sc = ex3_cover
    cover = sc.on.cofactor(sc.on.cubes[0])
    benchmark(lambda: tautology(cover))


def test_semiexact_throughput(benchmark):
    sc = build_symbolic_cover(get_machine("bbtas"))
    cs = extract_input_constraints(sc).state_constraints
    masks = cs.masks()

    def run():
        return semiexact_code(masks[:2], cs.n, 3)

    enc = benchmark(run)
    assert enc is None or len(set(enc.codes)) == cs.n


def test_symbolic_minimize_cost(benchmark):
    sc = build_symbolic_cover(get_machine("beecount"))
    res = benchmark(lambda: symbolic_minimize(sc))
    assert res.final_cover_size > 0


def test_unate_reduction_ablation(benchmark):
    """URP recursions of a full symbolic minimization, with and without
    the unate reductions (tautology weakest-branch cofactor, complement
    missing-value factoring, sccc missing-value slabs).

    Symbolic minimization is URP-heavy: every REDUCE asks one sccc
    (smallest cube containing a complement) per cube, and every
    IRREDUNDANT one tautology per cube.  bbara takes ~5.2k recursions
    without the reductions and ~3.7k with them.  Results are identical
    either way — the reductions are exact.
    """
    sc = build_symbolic_cover(get_machine("bbara"))

    def recursions(flag: bool) -> int:
        old = urp.UNATE_REDUCTION
        urp.UNATE_REDUCTION = flag
        cover_mod.clear_contains_memo()  # memo hits bypass tautology
        try:
            with perf.collect() as stats:
                symbolic_minimize(sc)
            return stats.urp_recursions
        finally:
            urp.UNATE_REDUCTION = old

    plain = recursions(False)
    reduced = recursions(True)
    assert reduced < plain
    benchmark(lambda: recursions(True))
    benchmark.extra_info["urp_recursions_plain"] = plain
    benchmark.extra_info["urp_recursions_reduced"] = reduced
    record("ablation_urp", {
        "variant": "shannon split only", "urp_recursions_total": plain,
    })
    record("ablation_urp", {
        "variant": "with unate reduction", "urp_recursions_total": reduced,
    })


def test_full_effort_encode_dk16(benchmark):
    """Full-effort encode of a machine from the LOW_EFFORT list.

    dk16 (27 states, 108 product terms) used to need ``effort='low'``;
    the optimized embedding engine and minimizer finish a full-effort
    ihybrid encode in single-digit seconds.  One round only — the
    wall time and counters go to the report and the benchmark JSON.
    """
    fsm = get_machine("dk16")
    res = benchmark.pedantic(
        lambda: encode_fsm(fsm, "ihybrid", effort="full"),
        rounds=1, iterations=1)
    assert res.area > 0
    record("substrate_full_effort", {
        "machine": "dk16", "algorithm": "ihybrid", "effort": "full",
        "area": res.area, "cubes": res.cubes,
        "seconds": round(res.seconds, 2),
    })
