"""Top-level NOVA driver: FSM in, encoded + evaluated machine out.

``encode_fsm(fsm, algorithm)`` runs the full pipeline of the paper:
multiple-valued (or symbolic) minimization, constraint extraction, the
selected encoding algorithm for the states — and for the symbolic
proper input, when the machine has one — followed by re-minimization of
the encoded cover and the PLA area measurement.

The driver is fault-tolerant: NOVA's contract is that it *always*
returns a valid, evaluated encoding.  When the selected algorithm
fails — an exhausted budget, an infeasible exact search, a verification
mismatch — the driver walks the degradation chain
``iexact → ihybrid → igreedy → onehot`` (weaker but always-terminating
algorithms), and as a last resort builds a one-hot encoding straight
from the machine, skipping every optional stage.  Every run carries a
:class:`RunReport` on the returned :class:`NovaResult` describing stage
timings, fallbacks taken, and whether the post-encode verification
gate confirmed the result.

The MV minimization and the other algorithm-independent stages run
once per encode — or once per :func:`shared_stages` block for all the
encodes of one machine inside it, which is how a paper-table row runs
several algorithms on the same constraints.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
import random
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro import config as config_mod
from repro.constraints.input_constraints import (
    ConstraintSet,
    ExtractionResult,
    extract_input_constraints,
)
from repro.encoding.base import Encoding, satisfied_weight
from repro.encoding.iexact import iexact_code
from repro.encoding.igreedy import igreedy_code
from repro.encoding.ihybrid import HybridStats, ihybrid_code
from repro.encoding.iohybrid import IoStats, iohybrid_code, iovariant_code
from repro.encoding.onehot import onehot_code, random_code
from repro.encoding.options import (
    ALGORITHMS,  # noqa: F401  (re-exported: the CLI imports it from here)
    EncodeOptions,
)
from repro.errors import (
    EncodingInfeasible,
    ReproError,
    VerificationError,
)
from repro.eval.instantiate import EncodedPLA, evaluate_encoding
from repro.fsm.machine import FSM
from repro.fsm.symbolic_cover import build_symbolic_cover
from repro.logic.cover import contains_memo_scope
from repro.perf.budget import Budget, BudgetExhausted
from repro.symbolic.symbolic_min import symbolic_minimize
from repro.testing import faults

#: Degradation order: each algorithm is strictly cheaper and more
#: robust than its predecessor; ``onehot`` cannot fail.
FALLBACK_CHAIN = ("iexact", "ihybrid", "igreedy", "onehot")


@dataclass
class FallbackEvent:
    """One failed attempt: which algorithm died, where, and why."""

    algorithm: str
    error: str  # exception class name
    reason: str  # rendered message, including stage/budget context
    stage: Optional[str] = None

    def to_dict(self) -> Dict:
        return {"algorithm": self.algorithm, "error": self.error,
                "reason": self.reason, "stage": self.stage}

    @classmethod
    def from_dict(cls, d: Dict) -> "FallbackEvent":
        return cls(algorithm=d["algorithm"], error=d["error"],
                   reason=d["reason"], stage=d.get("stage"))


@dataclass
class RunReport:
    """Degradation diary of one :func:`encode_fsm` run.

    Fields
    ------
    machine / requested_algorithm / algorithm:
        What was asked for and what actually produced the result.
    degraded:
        True when the result came from a fallback algorithm, from an
        unminimized cover, or failed the verification gate.
    degradation_reason:
        One-line human summary of the first failure that forced
        degradation; ``None`` on a clean run.
    fallbacks:
        Every failed attempt, in order, as :class:`FallbackEvent`.
    stage_seconds:
        Wall-clock per pipeline stage (``mv_min``, ``encode:<alg>``,
        ``evaluate``, ``verify``, ...), accumulated across attempts.
        Inside a :func:`shared_stages` block ``mv_min``/``osym``
        appear only on the encode that computed them.
    verified:
        Always True or False on a returned result: True when the
        verification gate confirmed the returned PLA implements the
        machine, False when verification itself failed in last-resort
        mode.  (None only while the run is still in progress.)
    unminimized:
        True when re-minimization failed and the reported cover/area
        come from the raw encoded cover.
    timeout:
        The wall-clock allowance this run was given, if any.
    cache_hit:
        True when this result was rehydrated from the encode cache
        instead of recomputed (provenance only — a hit is bit-identical
        to the recomputation it stands in for).
    """

    machine: str
    requested_algorithm: str
    algorithm: str = ""
    degraded: bool = False
    degradation_reason: Optional[str] = None
    fallbacks: List[FallbackEvent] = field(default_factory=list)
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    verified: Optional[bool] = None
    unminimized: bool = False
    timeout: Optional[float] = None
    cache_hit: bool = False

    def record_failure(self, algorithm: str, exc: ReproError) -> None:
        self.fallbacks.append(FallbackEvent(
            algorithm=algorithm,
            error=type(exc).__name__,
            reason=str(exc),
            stage=getattr(exc, "stage", None),
        ))

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.stage_seconds[name] = (self.stage_seconds.get(name, 0.0)
                                        + time.perf_counter() - t0)

    def summary(self) -> str:
        """One line: what degraded and why (or a clean confirmation)."""
        if not self.degraded:
            via = " (cached)" if self.cache_hit else ""
            return f"{self.machine}: {self.algorithm} ok{via}"
        path = " -> ".join([e.algorithm for e in self.fallbacks]
                           + [self.algorithm or "?"])
        reason = self.degradation_reason or "degraded"
        return f"{self.machine}: degraded {path} ({reason})"

    def to_dict(self) -> Dict:
        """JSON-safe rendering for journals and cross-process reports."""
        return {
            "machine": self.machine,
            "requested_algorithm": self.requested_algorithm,
            "algorithm": self.algorithm,
            "degraded": self.degraded,
            "degradation_reason": self.degradation_reason,
            "fallbacks": [e.to_dict() for e in self.fallbacks],
            "stage_seconds": {k: round(v, 6)
                              for k, v in sorted(self.stage_seconds.items())},
            "verified": self.verified,
            "unminimized": self.unminimized,
            "timeout": self.timeout,
            "cache_hit": self.cache_hit,
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "RunReport":
        return cls(
            machine=d["machine"],
            requested_algorithm=d["requested_algorithm"],
            algorithm=d.get("algorithm", ""),
            degraded=d.get("degraded", False),
            degradation_reason=d.get("degradation_reason"),
            fallbacks=[FallbackEvent.from_dict(e)
                       for e in d.get("fallbacks", [])],
            stage_seconds=dict(d.get("stage_seconds", {})),
            verified=d.get("verified"),
            unminimized=d.get("unminimized", False),
            timeout=d.get("timeout"),
            cache_hit=d.get("cache_hit", False),
        )


@dataclass
class NovaResult:
    """Everything the paper's tables report about one encoding run."""

    fsm: FSM
    algorithm: str
    state_encoding: Encoding
    symbol_encoding: Optional[Encoding]
    out_symbol_encoding: Optional[Encoding]
    pla: Optional[EncodedPLA]
    cubes: int
    area: int
    seconds: float
    satisfied_weight: int = 0
    unsatisfied_weight: int = 0
    mv_cover_size: int = 0
    report: Optional[RunReport] = None

    @property
    def bits(self) -> int:
        """Total encoding bits (state + symbolic input), as in the tables."""
        b = self.state_encoding.nbits
        if self.symbol_encoding is not None:
            b += self.symbol_encoding.nbits
        return b

    def to_record(self) -> Dict:
        """Everything the batch journal needs, as one JSON-safe dict.

        Encodings are stored as ``(nbits, codes)`` pairs — exact, so
        two runs of the same task can be compared bit-for-bit — plus
        the table metrics and the full :class:`RunReport`.  The heavy
        objects (FSM, covers, the PLA) stay behind; a journal row must
        be cheap to write and to re-read.
        """
        def enc(e: Optional[Encoding]):
            return None if e is None else {"nbits": e.nbits,
                                           "codes": list(e.codes)}

        return {
            "machine": self.fsm.name,
            "algorithm": self.algorithm,
            "bits": self.bits,
            "state_encoding": enc(self.state_encoding),
            "symbol_encoding": enc(self.symbol_encoding),
            "out_symbol_encoding": enc(self.out_symbol_encoding),
            "cubes": self.cubes,
            "area": self.area,
            "seconds": round(self.seconds, 6),
            "satisfied_weight": self.satisfied_weight,
            "unsatisfied_weight": self.unsatisfied_weight,
            "mv_cover_size": self.mv_cover_size,
            "report": None if self.report is None else self.report.to_dict(),
        }


def fallback_chain(algorithm: str) -> Tuple[str, ...]:
    """The degradation order starting from *algorithm*.

    Algorithms on the chain start at their own position; the rest
    (iohybrid, kiss, mustang, ...) degrade through ``ihybrid`` onward.
    """
    if algorithm in FALLBACK_CHAIN:
        return FALLBACK_CHAIN[FALLBACK_CHAIN.index(algorithm):]
    return (algorithm,) + FALLBACK_CHAIN[1:]


def _encode_constraints(
    cs: ConstraintSet,
    algorithm: str,
    nbits: Optional[int],
    fsm: FSM,
    rng: Optional[random.Random],
    stats: Optional[HybridStats] = None,
    budget: Optional[Budget] = None,
) -> Encoding:
    """Dispatch the chosen input-constraint algorithm on one variable."""
    if algorithm == "iexact":
        enc = iexact_code(cs, budget=budget)
        if enc is None:
            raise EncodingInfeasible(
                "iexact search exhausted without a face embedding",
                stage="encode", machine=fsm.name,
            )
        return enc
    if algorithm == "ihybrid":
        return ihybrid_code(cs, nbits=nbits, stats=stats, budget=budget)
    if algorithm == "igreedy":
        return igreedy_code(cs, nbits=nbits, budget=budget)
    if algorithm == "kiss":
        from repro.baselines.kiss import kiss_code

        return kiss_code(cs)
    if algorithm == "random":
        return random_code(cs.n, nbits=nbits, rng=rng)
    if algorithm == "onehot":
        return onehot_code(cs.n)
    raise ValueError(f"unknown constraint algorithm {algorithm!r}")


class _Stages:
    """The algorithm-independent stages of one ``(fsm, effort)``.

    The symbolic cover is built on construction; MV minimization with
    constraint extraction, symbolic minimization and the output-symbol
    encoding are computed on first use.  None of them depends on the
    embedding algorithm, the budget or the seed, so every encode of the
    same machine at the same effort may draw on one set (see
    :func:`shared_stages`).  A stage that raises stores nothing: the
    next caller recomputes it.  A computation's time is charged to the
    report of the encode that ran it; an encode served a stored stage
    records none.
    """

    def __init__(self, fsm: FSM, effort: str) -> None:
        self.fsm = fsm
        self.effort = effort
        self.sc = build_symbolic_cover(fsm)
        self._extraction: Optional[ExtractionResult] = None
        self._symbolic = None
        self._osym: Optional[Encoding] = None
        self._osym_done = False

    def extraction(self, report: RunReport) -> ExtractionResult:
        if self._extraction is None:
            with report.stage("mv_min"):
                self._extraction = extract_input_constraints(
                    self.sc, effort=self.effort)
        return self._extraction

    def symbolic(self, report: RunReport):
        if self._symbolic is None:
            with report.stage("mv_min"):
                self._symbolic = symbolic_minimize(self.sc,
                                                   effort=self.effort)
        return self._symbolic

    def out_symbol_enc(self, report: RunReport) -> Optional[Encoding]:
        if not self._osym_done:
            if self.fsm.has_symbolic_output:
                from repro.encoding.osym import out_symbol_encoding

                with report.stage("osym"):
                    self._osym = out_symbol_encoding(self.sc,
                                                     effort=self.effort)
            self._osym_done = True
        return self._osym


#: The stage sets of the active :func:`shared_stages` block, keyed by
#: ``(id(fsm), effort)``; ``None`` outside any block.  Each stored set
#: holds its FSM, so no key's id can be reused while the block lives.
_SHARED: ContextVar[Optional[Dict[Tuple[int, str], _Stages]]] = ContextVar(
    "nova_shared_stages", default=None)


@contextmanager
def shared_stages() -> Iterator[None]:
    """Share the algorithm-independent stages across the encodes of a block.

    Inside the block, encodes of the same FSM *object* at the same
    effort draw on one :class:`_Stages`, so the machine is MV-minimized
    once however many embedding algorithms run on it — the shape of a
    paper-table row.  Outside any block every encode builds its own.
    The scope is a context variable: a new thread does not inherit it
    (unless started in a copy of this context, as ``asyncio.to_thread``
    does), and a nested block joins the enclosing one.  While a fault
    plan is armed nothing is shared, so every encode reaches every trip
    site.

    Reuse ends with the block on purpose: ``cache="off"`` must still
    mean recompute across table rows and across service requests.
    """
    if _SHARED.get() is not None:
        yield
        return
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def _stages_for(fsm: FSM, effort: str) -> _Stages:
    """The stage set an encode of *fsm* at *effort* draws on."""
    shared = _SHARED.get()
    if shared is None or faults.ACTIVE is not None:
        return _Stages(fsm, effort)
    key = (id(fsm), effort)
    stages = shared.get(key)
    if stages is None:
        stages = shared[key] = _Stages(fsm, effort)
    return stages


class _Pipeline:
    """Per-run state of one encode — its report, budget and degrade
    policy — over the :class:`_Stages` it draws on, which its fallback
    attempts share instead of repeating."""

    def __init__(self, fsm: FSM, effort: str, report: RunReport,
                 budget: Optional[Budget], degrade_ok: bool = True) -> None:
        self.fsm = fsm
        self.effort = effort
        self.report = report
        self.budget = budget
        self.degrade_ok = degrade_ok
        self.stages = _stages_for(fsm, effort)
        self._extracted = False

    def extraction(self) -> ExtractionResult:
        extraction = self.stages.extraction(self.report)
        if not self._extracted:
            # once per run, whether this run computed the stage or not
            self._extracted = True
            if self.budget is not None:
                self.budget.check_time()
        return extraction

    def symbolic(self):
        return self.stages.symbolic(self.report)

    def out_symbol_enc(self) -> Optional[Encoding]:
        return self.stages.out_symbol_enc(self.report)


def _evaluate(pipe: _Pipeline, enc: Encoding,
              symbol_enc: Optional[Encoding],
              out_symbol_enc: Optional[Encoding]) -> EncodedPLA:
    """Re-minimize and measure; degrade to the raw cover on failure."""
    fsm, report = pipe.fsm, pipe.report
    with report.stage("evaluate"):
        try:
            if pipe.budget is not None:
                # espresso's first expand+irredundant pass runs before
                # its first budget check: an already-expired deadline
                # would otherwise be overrun by a whole minimization
                pipe.budget.check_time()
            return evaluate_encoding(fsm, enc, symbol_enc, out_symbol_enc,
                                     effort=pipe.effort, budget=pipe.budget)
        except BudgetExhausted as exc:
            if not pipe.degrade_ok:
                raise
            # the encoding is fine — only its re-minimization died; the
            # raw encoded cover is a valid (just larger) implementation
            report.unminimized = True
            report.degraded = True
            if report.degradation_reason is None:
                report.degradation_reason = (
                    f"re-minimization failed ({exc}); "
                    f"reporting the unminimized cover")
            return evaluate_encoding(fsm, enc, symbol_enc, out_symbol_enc,
                                     effort=pipe.effort, minimize=False)


def _verify_gate(pipe: _Pipeline, algorithm: str, enc: Encoding,
                 symbol_enc: Optional[Encoding],
                 out_symbol_enc: Optional[Encoding],
                 pla: EncodedPLA) -> None:
    """Check the encoded PLA against FSM simulation; raise on mismatch."""
    from repro.encoding.verify import verify_encoded_machine

    fsm, report = pipe.fsm, pipe.report
    with report.stage("verify"):
        faults.trip("verify", machine=fsm.name, algorithm=algorithm)
        vr = verify_encoded_machine(fsm, enc, pla, symbol_enc,
                                    out_symbol_enc)
    if not vr.ok:
        raise VerificationError(
            f"encoded PLA does not implement {fsm.name} "
            f"({len(vr.mismatches)} mismatches; first: {vr.mismatches[0]})",
            stage="verify", machine=fsm.name,
            mismatches=vr.mismatches[:5],
        )
    report.verified = True


def _attempt(
    pipe: _Pipeline,
    algorithm: str,
    nbits: Optional[int],
    rng: Optional[random.Random],
    mustang_option: str,
) -> NovaResult:
    """One full pipeline pass with *algorithm*; raises ReproError on
    any stage failure (the driver decides whether to fall back)."""
    fsm, report, budget = pipe.fsm, pipe.report, pipe.budget
    faults.trip("encode", machine=fsm.name, algorithm=algorithm)
    if budget is not None:
        budget.check_time()
    hstats = HybridStats()
    iostats = IoStats()
    symbol_enc: Optional[Encoding] = None
    mv_size = 0
    out_symbol_enc = pipe.out_symbol_enc()

    with report.stage(f"encode:{algorithm}"):
        if algorithm == "mustang":
            from repro.baselines.mustang import mustang_code

            enc = mustang_code(fsm, option=mustang_option, nbits=nbits)
            if fsm.has_symbolic_input:
                extraction = pipe.extraction()
                symbol_enc = ihybrid_code(extraction.symbol_constraints,
                                          budget=budget)
                mv_size = extraction.minimized_cover_size
            sat = unsat = 0
        elif algorithm in ("iohybrid", "iovariant"):
            sym = pipe.symbolic()
            cs = sym.input_constraints
            coder = iohybrid_code if algorithm == "iohybrid" else iovariant_code
            enc = coder(cs, sym.output_constraints, nbits=nbits,
                        stats=iostats)
            if fsm.has_symbolic_input:
                symbol_enc = ihybrid_code(sym.symbol_constraints,
                                          budget=budget)
            mv_size = sym.final_cover_size
            sat = sum(cs.weights.get(m, 0) for m in iostats.satisfied_ic)
            unsat = sum(cs.weights.get(m, 0) for m in iostats.rejected_ic)
        else:
            extraction = pipe.extraction()
            cs = extraction.state_constraints
            mv_size = extraction.minimized_cover_size
            enc = _encode_constraints(cs, algorithm, nbits, fsm, rng,
                                      hstats, budget)
            if fsm.has_symbolic_input:
                symbol_enc = _encode_constraints(
                    extraction.symbol_constraints, algorithm, None, fsm,
                    rng, budget=budget)
            sat = satisfied_weight(enc, cs)
            unsat = cs.total_weight() - sat
    if budget is not None:
        budget.check_time()

    pla = _evaluate(pipe, enc, symbol_enc, out_symbol_enc)
    _verify_gate(pipe, algorithm, enc, symbol_enc, out_symbol_enc, pla)
    return NovaResult(
        fsm=fsm,
        algorithm=algorithm,
        state_encoding=enc,
        symbol_encoding=symbol_enc,
        out_symbol_encoding=out_symbol_enc,
        pla=pla,
        cubes=pla.num_cubes,
        area=pla.area,
        seconds=0.0,  # patched by the driver with the total run time
        satisfied_weight=sat,
        unsatisfied_weight=unsat,
        mv_cover_size=mv_size,
        report=report,
    )


def _last_resort(pipe: _Pipeline) -> NovaResult:
    """Unconditional one-hot encoding built straight from the machine.

    Skips constraint extraction entirely (it may be the failing stage)
    and tolerates even a failing verification gate: this path must
    never raise.
    """
    fsm, report = pipe.fsm, pipe.report
    enc = onehot_code(fsm.num_states)
    symbol_enc = (onehot_code(len(fsm.symbolic_input_values))
                  if fsm.has_symbolic_input else None)
    out_symbol_enc = (onehot_code(len(fsm.symbolic_output_values))
                      if fsm.has_symbolic_output else None)
    pla = _evaluate(pipe, enc, symbol_enc, out_symbol_enc)
    try:
        _verify_gate(pipe, "onehot", enc, symbol_enc, out_symbol_enc, pla)
    except ReproError as exc:
        report.verified = False
        report.record_failure("onehot", exc)
    return NovaResult(
        fsm=fsm,
        algorithm="onehot",
        state_encoding=enc,
        symbol_encoding=symbol_enc,
        out_symbol_encoding=out_symbol_enc,
        pla=pla,
        cubes=pla.num_cubes,
        area=pla.area,
        seconds=0.0,
        report=report,
    )


def _encode_uncached(fsm: FSM, opts: EncodeOptions,
                     rng: Optional[random.Random]) -> NovaResult:
    """The full pipeline run, cache-blind.

    The substrate's containment memo is scoped to this run: answers
    cached while encoding one machine must not leak into the next
    encode in the same process (see
    :func:`repro.logic.cover.contains_memo_scope`).
    """
    with contains_memo_scope():
        return _encode_uncached_inner(fsm, opts, rng)


def _encode_uncached_inner(fsm: FSM, opts: EncodeOptions,
                           rng: Optional[random.Random]) -> NovaResult:
    t0 = time.perf_counter()
    algorithm = opts.algorithm
    report = RunReport(machine=fsm.name, requested_algorithm=algorithm,
                       timeout=opts.timeout)
    budget = (Budget(seconds=opts.timeout, stage=algorithm)
              if opts.timeout is not None else None)
    pipe = _Pipeline(fsm, opts.effort, report, budget,
                     degrade_ok=opts.fallback)
    chain = fallback_chain(algorithm) if opts.fallback else (algorithm,)
    result: Optional[NovaResult] = None
    last_exc: Optional[ReproError] = None
    for alg in chain:
        try:
            result = _attempt(pipe, alg, opts.nbits, rng,
                              opts.mustang_option)
            break
        except ReproError as exc:
            report.record_failure(alg, exc)
            if last_exc is None:
                last_exc = exc
            if not opts.fallback:
                raise
    if result is None:
        # every chain algorithm failed (e.g. the shared extraction
        # stage is down): build the unconditional one-hot result
        result = _last_resort(pipe)
    report.algorithm = result.algorithm
    if report.fallbacks and result.algorithm != algorithm:
        report.degraded = True
        if report.degradation_reason is None:
            first = report.fallbacks[0]
            report.degradation_reason = f"{first.error}: {first.reason}"
    result.seconds = time.perf_counter() - t0
    return result


def _cached_encode(fsm: FSM, opts: EncodeOptions) -> NovaResult:
    """:func:`repro.cache.lookup` → :func:`_encode_uncached` →
    :func:`repro.cache.store`.

    The cache is bypassed entirely (no lookup, no fill) when the run is
    not a pure function of its fingerprint: the options are not
    :attr:`EncodeOptions.storable` (unseeded ``random``), or a fault
    plan is armed (:mod:`repro.testing.faults` makes outcomes depend on
    the plan).  A ``seed``-derived RNG is fine: it is built fresh from
    the keyed seed right here, so a recompute replays the exact same
    stream.  What a timeout-degraded result may not do is decided by
    :func:`repro.cache.store`.
    """
    rng = None if opts.seed is None else random.Random(opts.seed)
    if (not opts.storable or faults.ACTIVE is not None
            or config_mod.cache_policy(opts.cache) == "off"):
        return _encode_uncached(fsm, opts, rng)
    # the fingerprint, codec and stores load only with a tier in use
    from repro import cache as cache_mod

    key = cache_mod.fingerprint(fsm, opts)
    hit = cache_mod.lookup(fsm, opts, key)
    if hit is not None:
        return hit[0]
    result = _encode_uncached(fsm, opts, rng)
    cache_mod.store(fsm, opts, result, key)
    return result


def encode_fsm(fsm: FSM, algorithm: Optional[str] = None, *,
               options: Optional[EncodeOptions] = None,
               **fields: Any) -> NovaResult:
    """Run the full NOVA pipeline on *fsm*.

    Takes its :class:`EncodeOptions` in one of two call shapes::

        encode_fsm(fsm, options=EncodeOptions(algorithm="iexact"))
        encode_fsm(fsm, "iexact", nbits=4)  # EncodeOptions(...) fields

    Passing both — ``options=`` together with *algorithm* or any field
    keyword — raises ``TypeError``; an unknown keyword raises
    ``TypeError`` from the ``EncodeOptions`` constructor.

    Options beyond the paper's: *timeout* bounds the whole run with one
    wall-clock :class:`Budget` shared by every stage; *fallback*
    enables the degradation chain (on False, the first failure raises
    its :class:`~repro.errors.ReproError`); *seed* pins the RNG of
    stochastic algorithms; *cache* picks the result-cache policy
    (``auto``/``on``/``memory``/``off``, see :mod:`repro.cache`).  The
    post-encode verification gate always runs: a mismatch triggers
    fallback instead of silently reporting a wrong area.
    """
    if algorithm is not None:
        fields["algorithm"] = algorithm
    if options is None:
        options = EncodeOptions(**fields)
    elif fields:
        raise TypeError(
            "encode_fsm takes options= or EncodeOptions field keywords, "
            f"not both (got options= and {sorted(fields)})")
    elif not isinstance(options, EncodeOptions):
        raise TypeError(f"options must be EncodeOptions, "
                        f"got {type(options).__name__}")
    return _cached_encode(fsm, options)
