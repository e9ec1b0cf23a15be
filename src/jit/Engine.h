//===- jit/Engine.h - JIT execution engine ----------------------------------==//
//
// Part of the delinq project: reproduction of "Static Identification of
// Delinquent Loads" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives guest execution with a copy-and-patch JIT over the predecoded
/// (UNFUSED) stream, falling back to a built-in switch interpreter at block
/// granularity. The contract with the simulator:
///
///  - Per-PC ExecCounts/MissCounts and every RunResult aggregate are
///    bit-identical to the interpreter's, for every program, including runs
///    that trap, exhaust fuel mid-block, or exit from a runtime call.
///  - Cache-model calls stay out of line (the Cache object is shared state
///    the analyses read); guest memory accesses are inlined against the
///    flat 4 GiB backing.
///
/// The execution loop: a pc with a compiled block enters native code via
/// the entry stub; compiled blocks chain to each other directly and return
/// to the dispatcher only when control reaches uncompiled territory or an
/// ExitReason case (see jit/JitState.h). Cold pcs interpret; a block leader
/// that stays hot past the threshold gets compiled. Deopt points (division
/// by zero, jr/jalr to bad addresses) roll their counters back and resume
/// in the interpreter at the faulting instruction, which then reproduces
/// the interpreter's trap exactly.
///
//===----------------------------------------------------------------------===//

#ifndef DLQ_JIT_ENGINE_H
#define DLQ_JIT_ENGINE_H

#include "jit/CodeBuffer.h"
#include "jit/JitState.h"
#include "sim/Machine.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace dlq {
namespace jit {

struct EngineOptions {
  /// Dispatcher visits of a block leader before it is compiled. Visits, not
  /// executions: straight-line instructions interpreted inside a block
  /// don't age their pc.
  uint32_t HotThreshold = 16;
  /// Maximum instructions per compiled block.
  uint32_t MaxBlockInstrs = 64;
};

/// What the engine did, for sim.jit.* observability.
struct EngineStats {
  uint64_t BlocksCompiled = 0;
  uint64_t CodeBytes = 0;
  uint64_t Deopts = 0;
  /// Instructions retired by the fallback interpreter (cold code, deopt
  /// resumes, fuel-exhaustion tails).
  uint64_t InterpRetired = 0;
};

/// Host services the engine calls out to. Both are hot-path-free: runtime
/// calls are guest syscalls, SymAt is trap-message-only.
struct EngineCallbacks {
  /// Apply runtime service \p Fn (a masm::RuntimeFn ordinal) to the guest
  /// state; returns true when the run must halt (exit/abort). The callee
  /// owns RunResult::Output/ExitCode updates.
  std::function<bool(uint32_t)> RuntimeCall;
  /// Source symbol of the instruction at a flat pc (unresolved-call traps).
  std::function<std::string(uint64_t)> SymAt;
};

/// One engine instance drives one run. Requires an unfused predecode, the
/// flat memory backing, and jit::available().
class Engine {
public:
  /// \p Pf is the run's prefetch engine (null when no loads are armed); the
  /// out-of-line memory helpers call its hooks the way the interpreter's
  /// epilogues do.
  Engine(const sim::DecodedProgram &Prog, sim::Memory &Mem, sim::Cache &DCache,
         uint32_t *Regs, uint64_t MaxInstrs, uint32_t PrefetchStride,
         prefetch::Engine *Pf, const EngineOptions &Opts, EngineCallbacks CB);

  /// Runs from \p EntryPc until exit/trap/fuel. \p R must have
  /// ExecCounts/MissCounts sized to the program; all aggregates and the
  /// halt state are filled in on return.
  void run(uint32_t EntryPc, sim::RunResult &R);

  const EngineStats &stats() const { return Stats; }

  /// dlqJitRuntimeCall's target (via JitState::Owner).
  bool runtimeCallFromJit(uint32_t Fn) { return CB.RuntimeCall(Fn); }

private:
  /// Compiles the block at \p Leader; returns its entry or null (and marks
  /// the leader NoCompile) when ineligible. Must not already be compiled.
  const uint8_t *compileBlock(uint32_t Leader);

  /// Interprets exactly one instruction at \p Pc (which must be < FlatCount;
  /// out-of-text is the dispatcher's job). Returns false when the run
  /// halted; otherwise \p Pc advanced.
  bool stepOne(uint64_t &Pc, sim::RunResult &R);
  /// Interprets from \p Pc until control transfers, compiled code is
  /// reached, or the run halts (returns false). Keeps the hotness ramp
  /// honest: only real block leaders come back to the dispatcher.
  bool interpretBlockStep(uint64_t &Pc, sim::RunResult &R);

  /// Halt paths; all flush St's counters into R.
  void haltTrap(sim::RunResult &R, std::string Message);
  void haltOutOfText(uint64_t Pc, sim::RunResult &R);
  void flushCounters(sim::RunResult &R);

  const sim::DecodedProgram &Prog;
  sim::Memory &Mem;
  sim::Cache &DCache;
  EngineOptions Opts;
  EngineCallbacks CB;

  CodeBuffer Buf;
  StubFn Stub = nullptr;
  /// Flat pc -> compiled entry; FlatCount+1 slots so the out-of-text
  /// sentinel has a (permanently null) slot, never resized — generated code
  /// holds the data pointer.
  std::vector<const uint8_t *> CodePtrs;
  std::vector<uint32_t> Hot;
  std::vector<uint8_t> NoCompile;

  JitState St = {};
  uint64_t FlatCount = 0;
  EngineStats Stats;
};

} // namespace jit
} // namespace dlq

#endif // DLQ_JIT_ENGINE_H
