"""The XR32 instruction-set simulator.

Ties together the program image, memory, functional datapath, pipeline
timing model and (optionally) a ZOLC controller.  The controller is
attached through a narrow protocol so :mod:`repro.cpu` stays independent
of :mod:`repro.core`:

* ``mtz`` / ``mfz`` instructions route to :meth:`ZolcPort.write` /
  :meth:`ZolcPort.read` (initialization mode, Section 2 of the paper);
* after every retired instruction the simulator offers the retirement to
  :meth:`ZolcPort.on_retire`; in active mode the controller may redirect
  the next PC (a zero-cycle task switch) and write updated loop index
  registers back to the integer register file — exactly the "determine
  the following task / issue a new target PC / indices updated and
  written back" behaviour the paper describes.
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

from repro.asm.assembler import Program
from repro.asm.disassembler import format_instruction
from repro.cpu.datapath import ExecOutcome, execute
from repro.cpu.engine import PredecodedProgram, predecode, run_traced
from repro.cpu.exceptions import (
    InvalidFetchError,
    SimulationError,
    WatchdogError,
)
from repro.cpu.ir import ir_failure
from repro.cpu.memory import DEFAULT_SIZE, Memory
from repro.cpu.pipeline import PipelineConfig, TimingModel
from repro.cpu.state import CpuState
from repro.cpu.tracing import Stats, TraceRecord, Tracer
from repro.isa.registers import SP_REG


class ZolcAction:
    """A ZOLC decision taken at an instruction retirement."""

    __slots__ = ("next_pc", "index_writes", "is_task_switch")

    def __init__(self, next_pc: int | None,
                 index_writes: list[tuple[int, int]] | None = None,
                 is_task_switch: bool = False):
        self.next_pc = next_pc
        self.index_writes = index_writes or []
        self.is_task_switch = is_task_switch


@runtime_checkable
class ZolcPort(Protocol):
    """What the simulator needs from a ZOLC controller."""

    @property
    def active(self) -> bool: ...

    def write(self, selector: int, value: int) -> None: ...

    def read(self, selector: int) -> int: ...

    def on_retire(self, pc: int, next_pc: int,
                  taken: bool = False) -> ZolcAction | None: ...


@runtime_checkable
class CompiledZolcPort(ZolcPort, Protocol):
    """A ZOLC port whose armed state compiles to a queryable plan.

    ``zolc_plan()`` returns the port's current
    :class:`~repro.core.compiled.CompiledControllerPlan` (watch sets +
    fire handlers + epoch), or ``None`` when the port is unarmed or has
    arm-time writes pending.  The predecoded engine folds the plan's
    watch sets into its dispatch array and then calls ``on_retire``
    only for retirements of an ``mtz`` to ``CTRL_ARM`` or
    ``CTRL_RESET``; everything else dispatches straight to the plan's
    fire handlers (or to nothing at all).  Ports
    that do not implement this method — any plain :class:`ZolcPort` —
    run on the stepped interpreter, which offers ``on_retire`` every
    retirement.

    A port exposing ``zolc_plan()`` promises the contract documented in
    :mod:`repro.core.compiled`: the plan is valid until its epoch
    changes, and the armed/pending state only changes through
    :meth:`write` or a fire handler.  It also hands out
    ``writer(selector)``, the bound ``mtz`` write of one selector
    (``writer(s)(v)`` is ``write(s, v)``), which the predecoded engine
    resolves once per ``mtz`` when it lowers the instruction.
    """

    def zolc_plan(self): ...

    def writer(self, selector: int) -> Callable[[int], None]: ...


class PlanlessZolcPort:
    """Adapter hiding a port's compiled plan from the simulator.

    Forwards the whole :class:`ZolcPort` surface to ``inner`` but does
    not expose ``zolc_plan``, so ``run()`` takes the stepped
    interpreter, which offers every retirement to ``on_retire``.  Used
    by the differential tests to pin the plan-compiled run loop
    against the per-retirement protocol on identical work.
    """

    def __init__(self, inner: ZolcPort):
        self.inner = inner

    @property
    def active(self) -> bool:
        return self.inner.active

    def write(self, selector: int, value: int) -> None:
        self.inner.write(selector, value)

    def read(self, selector: int) -> int:
        return self.inner.read(selector)

    def on_retire(self, pc: int, next_pc: int,
                  taken: bool = False) -> ZolcAction | None:
        return self.inner.on_retire(pc, next_pc, taken=taken)


DEFAULT_MAX_STEPS = 20_000_000

#: Valid ``Simulator.run(engine=...)`` strategies.  The experiment
#: layer and the CLI's ``--engine`` override validate against this same
#: tuple.
ENGINES = ("auto", "step")


class Simulator:
    """Cycle-approximate XR32 simulator with optional ZOLC coprocessor."""

    def __init__(self, program: Program,
                 pipeline: PipelineConfig | None = None,
                 memory_size: int = DEFAULT_SIZE,
                 zolc: ZolcPort | None = None,
                 tracer: Tracer | None = None):
        self.program = program
        self.memory = Memory(memory_size)
        self.state = CpuState(program.entry_point())
        self.timing = TimingModel(pipeline or PipelineConfig())
        self.zolc = zolc
        self.tracer = tracer
        self.stats = Stats()
        # Predecoded program: built lazily on the first
        # `run()`; False caches "predecode unavailable, use step()".
        # Rebuilt if the ZOLC port is swapped after construction.
        self._predecoded: PredecodedProgram | None | bool = None
        self._predecoded_zolc: ZolcPort | None = zolc
        self._predecode_failure: str | None = None
        # The run loop's per-plan dispatch tables: one PlanTable per
        # compiled controller plan state, keyed by the plan's watch-set
        # content key (None while unarmed).  Each holds the region
        # table and its heat, the dense watch arrays and the trace
        # table, so repeated re-arms of the same tables (kernel invoked
        # in a loop, lockstep runs) re-use all of them behind one dict
        # probe.  Regions and traces bind the predecoded handlers, so
        # the tables are dropped whenever the program is re-predecoded.
        self._plan_tables: dict = {}
        # Residency tallies for the traced tier: how many retired
        # instructions executed inside a compiled trace.  Every trace
        # is loop-resident, so the two tallies count the same steps;
        # both stay for their readers.  They live on the simulator —
        # not in Stats — so the cross-engine bit-identity contract over
        # Stats is untouched.
        self.trace_resident_steps = 0
        self.chain_resident_steps = 0
        # The engine tier the last run() resolved to ("traced" /
        # "step"), so callers can observe what "auto" picked.
        self.last_engine: str | None = None
        self._load_image()
        self.state.regs.write(SP_REG, memory_size - 16)

    def _load_image(self) -> None:
        words = self.program.words()
        if words:
            self.memory.store_words(self.program.text_base, words)
        if self.program.data:
            self.memory.store_block(self.program.data_base, bytes(self.program.data))

    # -- execution --------------------------------------------------------
    def step(self) -> None:
        """Fetch, execute and retire one instruction (slow-path API).

        `run()` uses the predecoded run loop; `step()` remains the
        single-instruction interface for debuggers and tests, and the
        run loop of ``engine="step"`` and of every ``auto`` fallback.
        Both retire identical sequences.
        """
        state = self.state
        pc = state.pc
        inst = self.program.by_address.get(pc)
        if inst is None:
            raise InvalidFetchError(pc)

        mnemonic = inst.mnemonic
        if self.zolc is not None and mnemonic == "mtz":
            self.zolc.write(inst.imm, state.regs.read(inst.rt))
            outcome = ExecOutcome(pc + 4, False, None)
        elif self.zolc is not None and mnemonic == "mfz":
            state.regs.write(inst.rt, self.zolc.read(inst.imm) & 0xFFFFFFFF)
            outcome = ExecOutcome(pc + 4, False, None)
        else:
            outcome = execute(inst, state, self.memory)

        self.stats.count(inst)
        self.stats.cycles += self.timing.cycles_for(inst, outcome)
        if outcome.taken:
            self.stats.taken_branches += 1

        next_pc = outcome.next_pc
        redirect: int | None = None
        if self.zolc is not None and self.zolc.active and not state.halted:
            action = self.zolc.on_retire(pc, next_pc, taken=outcome.taken)
            if action is not None:
                for reg, value in action.index_writes:
                    state.regs.write(reg, value)
                    self.stats.zolc_index_writes += 1
                if action.next_pc is not None:
                    redirect = action.next_pc
                    next_pc = redirect
                    # A redirect crosses a fetch boundary even when it is
                    # not a task switch; the load-use pairing dies with it.
                    self.timing.clear_load_pairing()
                if action.is_task_switch:
                    self.stats.zolc_task_switches += 1
                    self.stats.cycles += self.timing.zolc_switch()

        self.stats.stall_cycles = self.timing.stall_cycles
        self.stats.flush_cycles = self.timing.flush_cycles

        if self.tracer is not None:
            self.tracer.record(TraceRecord(
                pc=pc, text=format_instruction(inst, self.program),
                cycles_after=self.stats.cycles, zolc_redirect=redirect))

        state.pc = next_pc

    def _ensure_predecoded(self) -> PredecodedProgram | bool:
        if self._predecoded_zolc is not self.zolc:
            # The predecoded mtz/mfz closures bind the ZOLC port; a
            # reassigned port invalidates them.
            self._predecoded = None
        if self._predecoded is None:
            # Regions and traces bind the predecoded handlers; a
            # re-predecode (ZOLC port swap) invalidates every per-plan
            # table with them.
            self._plan_tables.clear()
            try:
                built = predecode(self)
                if built is None:
                    # build_ir caches the sentinel with the real reason
                    # (sparse text image, undecodable mnemonic).
                    self._predecode_failure = (
                        ir_failure(self.program) or "non-dense text image")
            except SimulationError as exc:
                # A lowering failure past IR decode: fall back to the
                # stepped interpreter rather than guessing.
                built = None
                self._predecode_failure = str(exc)
            self._predecoded = built if built is not None else False
            self._predecoded_zolc = self.zolc
        return self._predecoded

    def run(self, max_steps: int = DEFAULT_MAX_STEPS,
            engine: str = "auto") -> Stats:
        """Run until ``halt`` (or raise :class:`WatchdogError`).

        ``engine="auto"`` (default) runs the predecoded, tiered,
        loop-resident run loop (:func:`~repro.cpu.engine.run_traced`)
        unless a tracer is attached, the program cannot be predecoded
        or the ZOLC port has no ``zolc_plan`` — each of those takes the
        stepped interpreter, which records every trace line and offers
        every retirement to ``on_retire``.  ``engine="step"`` always
        takes the stepped interpreter (the oracle).  Both retire
        bit-identical sequences; the loop a run took is recorded in
        :attr:`last_engine` (``"traced"`` or ``"step"``).
        """
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; known: "
                             f"{', '.join(ENGINES)}")
        if (engine == "auto" and self.tracer is None
                and (self.zolc is None or hasattr(self.zolc, "zolc_plan"))):
            predecoded = self._ensure_predecoded()
            if predecoded is not False:
                self.last_engine = "traced"
                run_traced(self, max_steps, predecoded)
                return self.stats
        self.last_engine = "step"
        return self._run_stepped(max_steps)

    def _run_stepped(self, max_steps: int) -> Stats:
        state = self.state
        steps = 0
        try:
            while not state.halted:
                if steps >= max_steps:
                    raise WatchdogError(
                        f"no halt after {max_steps} instructions "
                        f"(pc={state.pc:#x})")
                self.step()
                steps += 1
        finally:
            # Counters must be coherent on every exit path, not only
            # after a clean halt (a WatchdogError used to leave them 0).
            self.stats.stall_cycles = self.timing.stall_cycles
            self.stats.flush_cycles = self.timing.flush_cycles
        return self.stats


def run_program(program: Program, pipeline: PipelineConfig | None = None,
                zolc: ZolcPort | None = None,
                memory_size: int = DEFAULT_SIZE,
                max_steps: int = DEFAULT_MAX_STEPS) -> Simulator:
    """Assembled program in, finished simulator (with stats) out."""
    simulator = Simulator(program, pipeline=pipeline, zolc=zolc,
                          memory_size=memory_size)
    simulator.run(max_steps=max_steps)
    return simulator
