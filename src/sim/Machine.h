//===- sim/Machine.h - Functional simulator --------------------------------==//
//
// Part of the delinq project: reproduction of "Static Identification of
// Delinquent Loads" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a masm module instruction by instruction, feeding every data
/// access through the cache model and recording per-PC execution and miss
/// counts — the ground truth the heuristic is validated against, standing in
/// for SimpleScalar's full memory profiling (Section 6). Basic-block entry
/// profiles (Section 4) are derived from the per-PC execution counts.
///
/// The constructor predecodes the module (see sim/Decode.h): symbols are
/// resolved once, so the interpreter loop runs over packed 16-byte records
/// with no string handling on any executed path.
///
/// The runtime environment provides `malloc`, `calloc`, `free`, `rand`,
/// `srand`, `print_int`, `print_char` and `exit` as intercepted calls, the
/// way a simulator intercepts syscalls.
///
//===----------------------------------------------------------------------===//

#ifndef DLQ_SIM_MACHINE_H
#define DLQ_SIM_MACHINE_H

#include "masm/Module.h"
#include "masm/Runtime.h"
#include "prefetch/Prefetch.h"
#include "sim/Cache.h"
#include "sim/Decode.h"
#include "sim/Memory.h"
#include "support/Rng.h"

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace dlq {
namespace sim {

/// Why a run stopped.
enum class HaltReason {
  Exited,        ///< main returned or exit() was called.
  FuelExhausted, ///< MaxInstrs reached.
  Trapped,       ///< Bad instruction, bad call, division by zero, ...
};

/// Which execution engine drives a run. Either engine produces bit-identical
/// results (per-PC counters included); the choice is purely about speed.
enum class EngineKind {
  Auto,   ///< JIT when eligible (see MachineOptions::Engine), honoring the
          ///< DLQ_JIT environment variable ("0" forces the interpreter).
  Interp, ///< The token-threaded interpreter, always.
  Jit,    ///< The copy-and-patch JIT; silently falls back to the
          ///< interpreter when the host or the configuration rules it out.
};

/// Parses "auto" / "interp" / "jit" (anything else falls back to Auto).
EngineKind engineKindFromString(const std::string &S);

/// Simulator options.
struct MachineOptions {
  CacheConfig DCache = CacheConfig::baseline();
  uint64_t MaxInstrs = 2'000'000'000;
  uint64_t RandSeed = 1;
  /// Guest-memory backing. Auto = flat 4 GiB mmap when the host allows it;
  /// Paged forces the page-table+TLB fallback. The two must be
  /// bit-identical; the differential fuzzer runs both and compares.
  Memory::Backing MemBacking = Memory::Backing::Auto;
  /// Disables superinstruction fusion in the predecoder, so every
  /// instruction executes through its stand-alone handler. Per-PC counters
  /// must not depend on this; the differential fuzzer checks that too.
  bool NoFusion = false;
  /// Command-line style integer arguments: main(argc-like) receives Args[0]
  /// in $a0, Args[1] in $a1, ... (up to 4).
  std::vector<int32_t> Args;
  /// Loads armed with the PC-indexed prefetch engine — the paper's
  /// motivating application: software prefetching precisely targeted at the
  /// (predicted) delinquent loads. Empty set = no prefetching.
  std::set<masm::InstrRef> PrefetchLoads;
  /// What the engine does per armed execution (prefetch/Prefetch.h). The
  /// default reproduces the original next-line prefetcher, now
  /// direction-aware.
  prefetch::Policy PrefetchPolicy = prefetch::Policy::NextLine;
  /// Static per-pc table seeds for Policy::Pcax (prefetch/Seed.h builds
  /// them from absint/ap facts). Loads without an entry learn from scratch.
  prefetch::HintMap PrefetchHints;
  /// The recorded baseline miss trace a Policy::Oracle run replays. Must
  /// come from a Policy::Record run of the same module and armed set.
  std::shared_ptr<const prefetch::MissTrace> OracleTrace;
  /// Execution engine. The JIT requires the flat memory backing and an
  /// executable-memory host; ineligible configurations run the interpreter
  /// regardless of this setting.
  EngineKind Engine = EngineKind::Auto;
  /// Dispatcher visits of a block leader before the JIT compiles it.
  uint32_t JitHotThreshold = 16;
};

/// Per-load dynamic statistics at one PC.
struct LoadStat {
  uint64_t Execs = 0;
  uint64_t Misses = 0;
};

/// Everything a run produced.
struct RunResult {
  HaltReason Halt = HaltReason::Exited;
  std::string TrapMessage;
  int32_t ExitCode = 0;
  std::string Output; ///< Captured print_* output.

  uint64_t InstrsExecuted = 0;
  uint64_t DataAccesses = 0; ///< Loads + stores reaching the D-cache.
  uint64_t LoadMisses = 0;
  uint64_t StoreMisses = 0;
  uint64_t PrefetchesIssued = 0;
  uint64_t PrefetchFills = 0; ///< Prefetches that brought a new block in.
  uint64_t PrefetchUseful = 0; ///< Filled blocks demand-hit before eviction.
  uint64_t PrefetchLate = 0;   ///< Filled blocks evicted before first use.

  /// Per-armed-pc prefetch accounting (flat ordinal + counters), in flat-pc
  /// order; empty for unarmed runs. Feeds `delinq prefetch` triage.
  struct PcPrefetch {
    uint32_t FlatPc = 0;
    uint64_t Issued = 0;
    uint64_t Useful = 0;
    uint64_t Late = 0;
  };
  std::vector<PcPrefetch> PrefetchPerPc;

  /// Execution count per instruction, indexed by flat instruction ordinal.
  std::vector<uint64_t> ExecCounts;
  /// D-cache misses per load PC, same indexing (zero for non-loads).
  std::vector<uint64_t> MissCounts;
  /// Flat ordinal -> (function, instruction) mapping.
  std::vector<masm::InstrRef> FlatMap;

  /// Total data-cache misses attributable to loads (the paper's
  /// M(P(I), C)).
  uint64_t totalLoadMisses() const { return LoadMisses; }

  /// Per-load stats keyed by InstrRef, for the analyses.
  std::map<masm::InstrRef, LoadStat> loadStats(const masm::Module &M) const;

  bool ok() const { return Halt == HaltReason::Exited; }
};

/// The functional simulator.
class Machine {
public:
  /// \p M must be finalized. The machine keeps references; the module and
  /// layout must outlive it.
  Machine(const masm::Module &M, const masm::Layout &L,
          MachineOptions Options);

  /// Runs from `main` to completion and returns the collected statistics.
  RunResult run();

  /// Whether this machine will execute through the JIT (engine selection is
  /// settled at construction: it affects predecode fusion).
  bool usingJit() const { return UseJit; }

  /// The miss trace a Policy::Record run collected (null otherwise; valid
  /// after run()).
  std::shared_ptr<const prefetch::MissTrace> recordedTrace() const {
    return PfEng ? PfEng->recordedTrace() : nullptr;
  }

private:
  /// The interpreter loop, specialized at compile time on whether a
  /// prefetch engine is armed, so the common plain configuration pays
  /// nothing for it.
  template <bool WithPf> RunResult runLoop();

  /// The JIT-driven run: same preamble and result contract as runLoop, with
  /// execution delegated to jit::Engine.
  RunResult runJit();

private:
  const masm::Module &M;
  const masm::Layout &L;
  MachineOptions Opts;

  DecodedProgram Prog;
  /// Settled in the constructor (the JIT needs an unfused predecode).
  bool UseJit = false;
  /// The per-run prefetch engine; null unless PrefetchLoads is non-empty.
  /// Built at the top of run(), kept alive for recordedTrace().
  std::unique_ptr<prefetch::Engine> PfEng;

  Memory Mem;
  /// Register file plus one extra slot: Regs[DiscardReg] absorbs writes the
  /// decoder retargeted from $zero (see sim/Decode.h). Regs[0] is never
  /// written after reset and stays 0.
  uint32_t Regs[masm::NumRegs + 1] = {};
  Rng Rand{1};

  // Heap allocator state (first-fit free lists by exact size).
  uint32_t HeapBreak = masm::LayoutConstants::HeapBase;
  std::map<uint32_t, std::vector<uint32_t>> FreeLists;
  std::map<uint32_t, uint32_t> AllocSizes;

  uint32_t readReg(masm::Reg R) const {
    return Regs[static_cast<unsigned>(R)];
  }
  void writeReg(masm::Reg R, uint32_t V) {
    if (R != masm::Reg::Zero)
      Regs[static_cast<unsigned>(R)] = V;
  }

  /// Applies a call to a runtime-provided function.
  void handleRuntimeCall(masm::RuntimeFn F, RunResult &R, bool &ShouldHalt);

  uint32_t runtimeMalloc(uint32_t Size);
  void runtimeFree(uint32_t Addr);
};

} // namespace sim
} // namespace dlq

#endif // DLQ_SIM_MACHINE_H
