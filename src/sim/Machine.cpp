//===- sim/Machine.cpp -----------------------------------------------------==//

#include "sim/Machine.h"

#include "jit/CodeBuffer.h"
#include "jit/Engine.h"
#include "obs/Counters.h"
#include "sim/Cache.h"
#include "support/Format.h"

#include <cassert>
#include <cstdlib>

using namespace dlq;
using namespace dlq::sim;
using namespace dlq::masm;

EngineKind dlq::sim::engineKindFromString(const std::string &S) {
  if (S == "interp")
    return EngineKind::Interp;
  if (S == "jit")
    return EngineKind::Jit;
  return EngineKind::Auto;
}

std::map<InstrRef, LoadStat> RunResult::loadStats(const Module &M) const {
  std::map<InstrRef, LoadStat> Stats;
  for (size_t Flat = 0; Flat != FlatMap.size(); ++Flat) {
    InstrRef Ref = FlatMap[Flat];
    if (!isLoad(M.instrAt(Ref).Op))
      continue;
    Stats[Ref] = LoadStat{ExecCounts[Flat], MissCounts[Flat]};
  }
  return Stats;
}

namespace {

/// Engine selection, settled before predecode (the JIT wants the unfused
/// stream: superinstructions only exist to amortize interpreter dispatch).
bool wantJit(const MachineOptions &Opts, const Memory &Mem) {
  bool Want = false;
  switch (Opts.Engine) {
  case EngineKind::Interp:
    Want = false;
    break;
  case EngineKind::Jit:
    Want = true;
    break;
  case EngineKind::Auto: {
    const char *Env = std::getenv("DLQ_JIT");
    Want = !(Env && Env[0] == '0' && Env[1] == '\0');
    break;
  }
  }
  return Want && jit::available() && Mem.isFlat();
}

} // namespace

Machine::Machine(const Module &Mod, const Layout &Lay, MachineOptions Options)
    : M(Mod), L(Lay), Opts(std::move(Options)), Mem(Opts.MemBacking),
      Rand(Opts.RandSeed) {
  UseJit = wantJit(Opts, Mem);
  Prog = predecode(M, L, Opts.PrefetchLoads, !Opts.NoFusion && !UseJit);
  // Generated code addresses CodePtrs with 8*pc int32 displacements; no real
  // module comes near the limit.
  if (Prog.FlatMap.size() >= (1u << 27))
    UseJit = false;
}

uint32_t Machine::runtimeMalloc(uint32_t Size) {
  if (Size == 0)
    Size = 1;
  uint32_t Aligned = (Size + 7) & ~7u;
  auto It = FreeLists.find(Aligned);
  if (It != FreeLists.end() && !It->second.empty()) {
    uint32_t Addr = It->second.back();
    It->second.pop_back();
    AllocSizes[Addr] = Aligned;
    return Addr;
  }
  uint32_t Addr = HeapBreak;
  HeapBreak += Aligned;
  AllocSizes[Addr] = Aligned;
  return Addr;
}

void Machine::runtimeFree(uint32_t Addr) {
  if (Addr == 0)
    return;
  auto It = AllocSizes.find(Addr);
  if (It == AllocSizes.end())
    return; // Tolerate double/bad frees in workloads.
  FreeLists[It->second].push_back(Addr);
  AllocSizes.erase(It);
}

void Machine::handleRuntimeCall(RuntimeFn F, RunResult &R, bool &ShouldHalt) {
  ShouldHalt = false;
  switch (F) {
  case RuntimeFn::Malloc:
    writeReg(Reg::V0, runtimeMalloc(readReg(Reg::A0)));
    break;
  case RuntimeFn::Calloc: {
    uint32_t Bytes = readReg(Reg::A0) * readReg(Reg::A1);
    uint32_t Addr = runtimeMalloc(Bytes);
    Mem.zeroFill(Addr, Bytes);
    writeReg(Reg::V0, Addr);
    break;
  }
  case RuntimeFn::Free:
    runtimeFree(readReg(Reg::A0));
    break;
  case RuntimeFn::Rand:
    writeReg(Reg::V0, static_cast<uint32_t>(Rand.next() & 0x7FFFFFFF));
    break;
  case RuntimeFn::Srand:
    Rand = Rng(readReg(Reg::A0));
    break;
  case RuntimeFn::PrintInt:
    R.Output += formatString("%d", static_cast<int32_t>(readReg(Reg::A0)));
    R.Output += "\n";
    break;
  case RuntimeFn::PrintChar:
    R.Output.push_back(static_cast<char>(readReg(Reg::A0) & 0xFF));
    break;
  case RuntimeFn::Exit:
    R.ExitCode = static_cast<int32_t>(readReg(Reg::A0));
    ShouldHalt = true;
    break;
  case RuntimeFn::Abort:
    R.ExitCode = 134;
    ShouldHalt = true;
    break;
  }
}

namespace {

// Process-global simulator counters (sim.* in obs::counters()). Recorded
// once per run from the per-run totals, so the interpreter's hot loop stays
// untouched; the fused-dispatch share comes from a post-run scan of the
// predecoded text (O(text size), noise next to the run itself).
struct SimCounters {
  obs::Counter &Runs = obs::counters().counter("sim.runs");
  obs::Counter &Instrs = obs::counters().counter("sim.instrs_retired");
  obs::Counter &Dispatches = obs::counters().counter("sim.dispatches");
  obs::Counter &FusedDispatches =
      obs::counters().counter("sim.fused_dispatches");
  obs::Counter &FusedInstrs = obs::counters().counter("sim.fused_instrs");
  obs::Counter &DataAccesses = obs::counters().counter("sim.data_accesses");
  obs::Counter &LoadMisses = obs::counters().counter("sim.load_misses");
  obs::Counter &StoreMisses = obs::counters().counter("sim.store_misses");
  obs::Counter &PfIssued = obs::counters().counter("sim.prefetch.issued");
  obs::Counter &PfFills = obs::counters().counter("sim.prefetch.fills");
  obs::Counter &PfUseful = obs::counters().counter("sim.prefetch.useful");
  obs::Counter &PfLate = obs::counters().counter("sim.prefetch.late");
  // JIT engine activity (zero on interpreter-only runs).
  obs::Counter &JitRuns = obs::counters().counter("sim.jit.runs");
  obs::Counter &JitBlocks = obs::counters().counter("sim.jit.blocks_compiled");
  obs::Counter &JitCodeBytes = obs::counters().counter("sim.jit.code_bytes");
  obs::Counter &JitDeopts = obs::counters().counter("sim.jit.deopts");
  obs::Counter &JitInterpRetired =
      obs::counters().counter("sim.jit.interp_retires");
};

SimCounters &simCounters() {
  static SimCounters *G = new SimCounters();
  return *G;
}

} // namespace

RunResult Machine::run() {
  // Build the per-run prefetch engine. Policy::None skips it entirely: the
  // run must be bit-identical to an unarmed one (the prefetch-off control).
  PfEng.reset();
  if (!Opts.PrefetchLoads.empty() &&
      Opts.PrefetchPolicy != prefetch::Policy::None) {
    PfEng = std::make_unique<prefetch::Engine>(
        Opts.PrefetchPolicy, Opts.DCache.BlockBytes, Prog.FlatMap.size());
    for (size_t Flat = 0; Flat != Prog.FlatMap.size(); ++Flat) {
      const InstrRef &Ref = Prog.FlatMap[Flat];
      if (!Opts.PrefetchLoads.count(Ref))
        continue;
      auto HintIt = Opts.PrefetchHints.find(Ref);
      PfEng->addSlot(static_cast<uint32_t>(Flat), Ref,
                     HintIt != Opts.PrefetchHints.end()
                         ? HintIt->second
                         : prefetch::StaticHint{});
    }
    if (Opts.PrefetchPolicy == prefetch::Policy::Oracle)
      PfEng->setOracleTrace(Opts.OracleTrace);
  }

  RunResult R;
  if (UseJit)
    R = runJit();
  else
    R = PfEng ? runLoop<true>() : runLoop<false>();

  // Prefetch accounting lives in the engine (shared by both execution
  // engines); fold it into the result here.
  if (PfEng) {
    const prefetch::EngineStats &PS = PfEng->stats();
    R.PrefetchesIssued = PS.Issued;
    R.PrefetchFills = PS.Fills;
    R.PrefetchUseful = PS.Useful;
    R.PrefetchLate = PS.Late;
    R.PrefetchPerPc.reserve(PfEng->numSlots());
    for (size_t S = 0; S != PfEng->numSlots(); ++S) {
      const prefetch::SlotStats &SS = PfEng->slotStats(S);
      R.PrefetchPerPc.push_back(
          {PfEng->slotPc(S), SS.Issued, SS.Useful, SS.Late});
    }
  }

  // Fused-dispatch share. ExecCounts[pc] counts every execution of pc —
  // dispatches of its own handler plus executions as the 2nd/3rd component
  // of an earlier fused head (sequences may overlap: a component position
  // can itself be a rewritten head). Subtracting the component executions
  // left-to-right recovers per-pc dispatch counts exactly; the only slack is
  // the fuel-exhaustion fallback, which runs a head stand-alone at most a
  // couple of times per run.
  uint64_t FusedDispatches = 0, FusedInstrs = 0;
  size_t N = std::min(Prog.Instrs.size(), R.ExecCounts.size());
  std::vector<uint64_t> Cover(N + 3, 0);
  for (size_t I = 0; I != N; ++I) {
    unsigned Comp = xopComponents(Prog.Instrs[I].Op);
    if (Comp == 1)
      continue;
    uint64_t Dispatch =
        R.ExecCounts[I] > Cover[I] ? R.ExecCounts[I] - Cover[I] : 0;
    FusedDispatches += Dispatch;
    FusedInstrs += Dispatch * Comp;
    for (unsigned K = 1; K != Comp; ++K)
      Cover[I + K] += Dispatch;
  }
  SimCounters &C = simCounters();
  C.Runs.inc();
  C.Instrs.add(R.InstrsExecuted);
  C.Dispatches.add(R.InstrsExecuted >= FusedInstrs - FusedDispatches
                       ? R.InstrsExecuted - (FusedInstrs - FusedDispatches)
                       : 0);
  C.FusedDispatches.add(FusedDispatches);
  C.FusedInstrs.add(FusedInstrs);
  C.DataAccesses.add(R.DataAccesses);
  C.LoadMisses.add(R.LoadMisses);
  C.StoreMisses.add(R.StoreMisses);
  C.PfIssued.add(R.PrefetchesIssued);
  C.PfFills.add(R.PrefetchFills);
  C.PfUseful.add(R.PrefetchUseful);
  C.PfLate.add(R.PrefetchLate);
  return R;
}

/// The JIT-driven run. Same preamble as runLoop (globals, register reset,
/// entry protocol), with execution delegated to jit::Engine: hot blocks run
/// as compiled x86-64, everything else through the engine's built-in
/// fallback interpreter. Results are bit-identical to runLoop by contract —
/// the differential fuzzer's oracle 6 holds both engines to that.
RunResult Machine::runJit() {
  RunResult R;
  const uint64_t FlatCount = Prog.FlatMap.size();
  R.ExecCounts.assign(FlatCount, 0);
  R.MissCounts.assign(FlatCount, 0);
  R.FlatMap = Prog.FlatMap;

  // Materialize global initializers.
  for (const Global &G : M.globals()) {
    uint32_t Addr = L.globalAddress(G.Name);
    if (!G.Init.empty())
      Mem.writeBlock(Addr, G.Init.data(), static_cast<uint32_t>(G.Init.size()));
  }

  Cache DCache(Opts.DCache);

  // Initial machine state (the runLoop entry protocol, verbatim).
  constexpr uint32_t ExitPc = 0xFFFFFFFC;
  for (uint32_t &RegSlot : Regs)
    RegSlot = 0;
  writeReg(Reg::SP, LayoutConstants::StackTop);
  writeReg(Reg::FP, LayoutConstants::StackTop);
  writeReg(Reg::GP, LayoutConstants::GpValue);
  writeReg(Reg::RA, ExitPc);
  for (size_t AI = 0; AI != Opts.Args.size() && AI != 4; ++AI)
    writeReg(static_cast<Reg>(static_cast<unsigned>(Reg::A0) + AI),
             static_cast<uint32_t>(Opts.Args[AI]));

  uint32_t MainIdx = M.functionIndex("main");
  if (MainIdx == InvalidIndex) {
    R.Halt = HaltReason::Trapped;
    R.TrapMessage = "no 'main' function";
    return R;
  }

  jit::EngineOptions EOpts;
  EOpts.HotThreshold = Opts.JitHotThreshold;
  jit::EngineCallbacks ECbs;
  ECbs.RuntimeCall = [this, &R](uint32_t Fn) {
    bool ShouldHalt = false;
    handleRuntimeCall(static_cast<RuntimeFn>(Fn), R, ShouldHalt);
    return ShouldHalt;
  };
  ECbs.SymAt = [this](uint64_t Pc) {
    return M.instrAt(Prog.FlatMap[Pc]).Sym;
  };
  jit::Engine E(Prog, Mem, DCache, Regs, Opts.MaxInstrs,
                Opts.DCache.BlockBytes, PfEng.get(), EOpts, std::move(ECbs));

  E.run(Prog.FuncEntryFlat[MainIdx], R);

  const jit::EngineStats &S = E.stats();
  SimCounters &C = simCounters();
  C.JitRuns.inc();
  C.JitBlocks.add(S.BlocksCompiled);
  C.JitCodeBytes.add(S.CodeBytes);
  C.JitDeopts.add(S.Deopts);
  C.JitInterpRetired.add(S.InterpRetired);
  return R;
}

/// The interpreter proper. Token-threaded dispatch: every handler begins
/// with its own copy of the per-instruction accounting (fuel check, counter
/// updates) and ends with its own tiny indirect jump through a label table
/// indexed by the next instruction's XOp. Keeping the jump at the end of
/// every handler (rather than one shared loop head) gives each opcode an
/// independently predicted indirect branch. The accounting order — fuel,
/// bounds, counters, execute — matches the seed interpreter exactly, as do
/// all trap messages; the bounds check rides on the decoder's OutOfText
/// sentinel, with explicit re-checks only where a target is data-dependent
/// (jr/jalr) or decoder-provided (branches).
template <bool WithPf> RunResult Machine::runLoop() {
  RunResult R;
  const uint64_t FlatCount = Prog.FlatMap.size();
  R.ExecCounts.assign(FlatCount, 0);
  R.MissCounts.assign(FlatCount, 0);
  R.FlatMap = Prog.FlatMap;

  // Materialize global initializers.
  for (const Global &G : M.globals()) {
    uint32_t Addr = L.globalAddress(G.Name);
    if (!G.Init.empty())
      Mem.writeBlock(Addr, G.Init.data(), static_cast<uint32_t>(G.Init.size()));
  }

  Cache DCache(Opts.DCache);

  // Initial machine state.
  constexpr uint32_t ExitPc = 0xFFFFFFFC;
  for (uint32_t &RegSlot : Regs)
    RegSlot = 0;
  writeReg(Reg::SP, LayoutConstants::StackTop);
  writeReg(Reg::FP, LayoutConstants::StackTop);
  writeReg(Reg::GP, LayoutConstants::GpValue);
  writeReg(Reg::RA, ExitPc);
  for (size_t AI = 0; AI != Opts.Args.size() && AI != 4; ++AI)
    writeReg(static_cast<Reg>(static_cast<unsigned>(Reg::A0) + AI),
             static_cast<uint32_t>(Opts.Args[AI]));

  uint32_t MainIdx = M.functionIndex("main");
  if (MainIdx == InvalidIndex) {
    R.Halt = HaltReason::Trapped;
    R.TrapMessage = "no 'main' function";
    return R;
  }

  // Hot counters live in locals; flushed into R at every exit.
  const DecodedInstr *Code = Prog.Instrs.data();
  uint64_t *ExecCounts = R.ExecCounts.data();
  uint64_t *MissCounts = R.MissCounts.data();
  const uint64_t MaxInstrs = Opts.MaxInstrs;
  // Prefetch accounting lives inside the engine; run() folds it into R.
  prefetch::Engine *const Pf = PfEng.get();
  (void)Pf;

  uint64_t Executed = 0;
  uint64_t DataAccesses = 0;
  uint64_t LoadMisses = 0;
  uint64_t StoreMisses = 0;

  auto flushCounters = [&] {
    R.InstrsExecuted = Executed;
    R.DataAccesses = DataAccesses;
    R.LoadMisses = LoadMisses;
    R.StoreMisses = StoreMisses;
  };
  auto trap = [&](std::string Message) {
    R.Halt = HaltReason::Trapped;
    R.TrapMessage = std::move(Message);
    flushCounters();
  };
  /// Original symbol of the instruction at \p Pc — trap-path only.
  auto symAt = [&](uint64_t Pc) -> const std::string & {
    return M.instrAt(Prog.FlatMap[Pc]).Sym;
  };

  // Label table, indexed by XOp. Must list every XOp in declaration order.
  static const void *Table[NumXOps] = {
      &&L_Add,  &&L_Sub,   &&L_Mul,  &&L_Div,  &&L_Rem,  &&L_And,
      &&L_Or,   &&L_Xor,   &&L_Nor,  &&L_Slt,  &&L_Sltu, &&L_Sllv,
      &&L_Srlv, &&L_Srav,  &&L_Addi, &&L_Andi, &&L_Ori,  &&L_Xori,
      &&L_Slti, &&L_Sltiu, &&L_Sll,  &&L_Srl,  &&L_Sra,  &&L_Lui,
      &&L_Li,   &&L_Move,  &&L_Lw,   &&L_Lh,   &&L_Lhu,  &&L_Lb,
      &&L_Lbu,  &&L_Sw,    &&L_Sh,   &&L_Sb,   &&L_Beq,  &&L_Bne,
      &&L_Blt,  &&L_Bge,   &&L_Ble,  &&L_Bgt,  &&L_J,    &&L_Jr,
      &&L_Jalr, &&L_Nop,   &&L_CallFunc,       &&L_CallRuntime,
      &&L_CallUnresolved,  &&L_LaUnresolved,   &&L_PcOutOfText,
      &&L_FuseLwLw,   &&L_FuseSwLw,   &&L_FuseLwSw,   &&L_FuseAddLw,
      &&L_FuseLwAdd,  &&L_FuseAddSw,  &&L_FuseMoveLw, &&L_FuseMoveLi,
      &&L_FuseMoveMove, &&L_FuseLwMove, &&L_FuseAddMove, &&L_FuseMoveSw,
      &&L_FuseLwLwLw, &&L_FuseLwLwSw, &&L_FuseLwLwAdd, &&L_FuseSwLwLw,
      &&L_FuseAddLwLw, &&L_FuseAddSwLw, &&L_FuseLwAddSw, &&L_FuseLwSwLw,
      &&L_FuseSllAdd, &&L_FuseLwSll, &&L_FuseLiLw, &&L_FuseSwMove,
      &&L_FuseLiMove, &&L_FuseMoveSll, &&L_FuseSwJ, &&L_FuseMoveJ,
      &&L_FuseLiBge, &&L_FuseLiBeq, &&L_FuseSwLwLi, &&L_FuseLwSllAdd,
      &&L_FuseLwLiBge, &&L_FuseLwLiBeq, &&L_FuseLwSwJ,
  };
  static_assert(NumXOps == 84, "update the dispatch table with the new XOp");

  uint64_t FlatPc = Prog.FuncEntryFlat[MainIdx];
  const DecodedInstr *I = nullptr;

// Per-instruction accounting, at the head of every handler. The seed checked
// fuel before the pc bounds check; L_PcOutOfText re-checks fuel first to
// keep that order.
#define ENTER()                                                                \
  do {                                                                         \
    if (__builtin_expect(Executed >= MaxInstrs, 0))                            \
      goto L_FuelExhausted;                                                    \
    I = Code + FlatPc;                                                         \
    ++ExecCounts[FlatPc];                                                      \
    ++Executed;                                                                \
  } while (0)

// Dispatch on the instruction at FlatPc. Small on purpose: GCC re-duplicates
// the factored computed goto only below a size limit, and one indirect jump
// per handler is the whole point.
#define NEXT() goto *Table[static_cast<size_t>(Code[FlatPc].Op)]

// Transfer to a decoder-provided target. Finalized modules only contain
// in-range targets, but a stale/unverified TargetIndex must still produce
// the seed's "pc out of text" trap rather than read past the sentinel.
#define BRANCH_TO(T)                                                           \
  do {                                                                         \
    FlatPc = (T);                                                              \
    if (__builtin_expect(FlatPc > FlatCount, 0))                               \
      goto L_PcOutOfText;                                                      \
    NEXT();                                                                    \
  } while (0)

// Shared tail of the five load handlers: cache accounting plus the prefetch
// engine hooks on armed runs (onDemand settles useful/late for every access;
// onArmedLoad drives the policy on predicted-delinquent loads).
#define LOAD_EPILOGUE(Addr)                                                    \
  do {                                                                         \
    ++DataAccesses;                                                            \
    bool Hit = DCache.access(Addr);                                            \
    if (!Hit) {                                                                \
      ++LoadMisses;                                                            \
      ++MissCounts[FlatPc];                                                    \
    }                                                                          \
    if constexpr (WithPf) {                                                    \
      Pf->onDemand((Addr), Hit);                                               \
      if (I->Prefetch)                                                         \
        Pf->onArmedLoad(static_cast<uint32_t>(FlatPc), (Addr), Regs[I->Rd],    \
                        Hit, DCache);                                          \
    }                                                                          \
    ++FlatPc;                                                                  \
    NEXT();                                                                    \
  } while (0)

#define STORE_EPILOGUE(Addr)                                                   \
  do {                                                                         \
    ++DataAccesses;                                                            \
    bool Hit = DCache.access(Addr);                                            \
    if (!Hit)                                                                  \
      ++StoreMisses;                                                           \
    if constexpr (WithPf)                                                      \
      Pf->onDemand((Addr), Hit);                                               \
    ++FlatPc;                                                                  \
    NEXT();                                                                    \
  } while (0)

  NEXT();

L_Add:
  ENTER();
  Regs[I->Rd] = Regs[I->Rs] + Regs[I->Rt];
  ++FlatPc;
  NEXT();
L_Sub:
  ENTER();
  Regs[I->Rd] = Regs[I->Rs] - Regs[I->Rt];
  ++FlatPc;
  NEXT();
L_Mul:
  ENTER();
  Regs[I->Rd] = static_cast<uint32_t>(
      static_cast<int64_t>(static_cast<int32_t>(Regs[I->Rs])) *
      static_cast<int32_t>(Regs[I->Rt]));
  ++FlatPc;
  NEXT();
L_Div: {
  ENTER();
  int32_t RsS = static_cast<int32_t>(Regs[I->Rs]);
  int32_t RtS = static_cast<int32_t>(Regs[I->Rt]);
  if (RtS == 0) {
    trap("division by zero");
    return R;
  }
  // INT_MIN / -1 overflows on the host; define it as INT_MIN.
  if (RsS == INT32_MIN && RtS == -1)
    Regs[I->Rd] = static_cast<uint32_t>(INT32_MIN);
  else
    Regs[I->Rd] = static_cast<uint32_t>(RsS / RtS);
  ++FlatPc;
  NEXT();
}
L_Rem: {
  ENTER();
  int32_t RsS = static_cast<int32_t>(Regs[I->Rs]);
  int32_t RtS = static_cast<int32_t>(Regs[I->Rt]);
  if (RtS == 0) {
    trap("remainder by zero");
    return R;
  }
  if (RsS == INT32_MIN && RtS == -1)
    Regs[I->Rd] = 0;
  else
    Regs[I->Rd] = static_cast<uint32_t>(RsS % RtS);
  ++FlatPc;
  NEXT();
}
L_And:
  ENTER();
  Regs[I->Rd] = Regs[I->Rs] & Regs[I->Rt];
  ++FlatPc;
  NEXT();
L_Or:
  ENTER();
  Regs[I->Rd] = Regs[I->Rs] | Regs[I->Rt];
  ++FlatPc;
  NEXT();
L_Xor:
  ENTER();
  Regs[I->Rd] = Regs[I->Rs] ^ Regs[I->Rt];
  ++FlatPc;
  NEXT();
L_Nor:
  ENTER();
  Regs[I->Rd] = ~(Regs[I->Rs] | Regs[I->Rt]);
  ++FlatPc;
  NEXT();
L_Slt:
  ENTER();
  Regs[I->Rd] = static_cast<int32_t>(Regs[I->Rs]) <
                        static_cast<int32_t>(Regs[I->Rt])
                    ? 1
                    : 0;
  ++FlatPc;
  NEXT();
L_Sltu:
  ENTER();
  Regs[I->Rd] = Regs[I->Rs] < Regs[I->Rt] ? 1 : 0;
  ++FlatPc;
  NEXT();
L_Sllv:
  ENTER();
  Regs[I->Rd] = Regs[I->Rs] << (Regs[I->Rt] & 31);
  ++FlatPc;
  NEXT();
L_Srlv:
  ENTER();
  Regs[I->Rd] = Regs[I->Rs] >> (Regs[I->Rt] & 31);
  ++FlatPc;
  NEXT();
L_Srav:
  ENTER();
  Regs[I->Rd] = static_cast<uint32_t>(static_cast<int32_t>(Regs[I->Rs]) >>
                                      (Regs[I->Rt] & 31));
  ++FlatPc;
  NEXT();
L_Addi:
  ENTER();
  Regs[I->Rd] = Regs[I->Rs] + static_cast<uint32_t>(I->Imm);
  ++FlatPc;
  NEXT();
L_Andi:
  ENTER();
  Regs[I->Rd] = Regs[I->Rs] & static_cast<uint32_t>(I->Imm);
  ++FlatPc;
  NEXT();
L_Ori:
  ENTER();
  Regs[I->Rd] = Regs[I->Rs] | static_cast<uint32_t>(I->Imm);
  ++FlatPc;
  NEXT();
L_Xori:
  ENTER();
  Regs[I->Rd] = Regs[I->Rs] ^ static_cast<uint32_t>(I->Imm);
  ++FlatPc;
  NEXT();
L_Slti:
  ENTER();
  Regs[I->Rd] = static_cast<int32_t>(Regs[I->Rs]) < I->Imm ? 1 : 0;
  ++FlatPc;
  NEXT();
L_Sltiu:
  ENTER();
  Regs[I->Rd] = Regs[I->Rs] < static_cast<uint32_t>(I->Imm) ? 1 : 0;
  ++FlatPc;
  NEXT();
L_Sll:
  ENTER();
  Regs[I->Rd] = Regs[I->Rs] << (static_cast<uint32_t>(I->Imm) & 31);
  ++FlatPc;
  NEXT();
L_Srl:
  ENTER();
  Regs[I->Rd] = Regs[I->Rs] >> (static_cast<uint32_t>(I->Imm) & 31);
  ++FlatPc;
  NEXT();
L_Sra:
  ENTER();
  Regs[I->Rd] = static_cast<uint32_t>(static_cast<int32_t>(Regs[I->Rs]) >>
                                      (static_cast<uint32_t>(I->Imm) & 31));
  ++FlatPc;
  NEXT();
L_Lui:
  ENTER();
  Regs[I->Rd] = static_cast<uint32_t>(I->Imm) << 16;
  ++FlatPc;
  NEXT();
L_Li: // Also carries `la` with the address materialized.
  ENTER();
  Regs[I->Rd] = static_cast<uint32_t>(I->Imm);
  ++FlatPc;
  NEXT();
L_Move:
  ENTER();
  Regs[I->Rd] = Regs[I->Rs];
  ++FlatPc;
  NEXT();
L_Lw: {
  ENTER();
  uint32_t Addr = Regs[I->Rs] + static_cast<uint32_t>(I->Imm);
  Regs[I->Rd] = Mem.readWord(Addr);
  LOAD_EPILOGUE(Addr);
}
L_Lh: {
  ENTER();
  uint32_t Addr = Regs[I->Rs] + static_cast<uint32_t>(I->Imm);
  Regs[I->Rd] = static_cast<uint32_t>(
      static_cast<int32_t>(static_cast<int16_t>(Mem.readHalf(Addr))));
  LOAD_EPILOGUE(Addr);
}
L_Lhu: {
  ENTER();
  uint32_t Addr = Regs[I->Rs] + static_cast<uint32_t>(I->Imm);
  Regs[I->Rd] = Mem.readHalf(Addr);
  LOAD_EPILOGUE(Addr);
}
L_Lb: {
  ENTER();
  uint32_t Addr = Regs[I->Rs] + static_cast<uint32_t>(I->Imm);
  Regs[I->Rd] = static_cast<uint32_t>(
      static_cast<int32_t>(static_cast<int8_t>(Mem.readByte(Addr))));
  LOAD_EPILOGUE(Addr);
}
L_Lbu: {
  ENTER();
  uint32_t Addr = Regs[I->Rs] + static_cast<uint32_t>(I->Imm);
  Regs[I->Rd] = Mem.readByte(Addr);
  LOAD_EPILOGUE(Addr);
}
L_Sw: {
  ENTER();
  uint32_t Addr = Regs[I->Rs] + static_cast<uint32_t>(I->Imm);
  Mem.writeWord(Addr, Regs[I->Rt]);
  STORE_EPILOGUE(Addr);
}
L_Sh: {
  ENTER();
  uint32_t Addr = Regs[I->Rs] + static_cast<uint32_t>(I->Imm);
  Mem.writeHalf(Addr, static_cast<uint16_t>(Regs[I->Rt]));
  STORE_EPILOGUE(Addr);
}
L_Sb: {
  ENTER();
  uint32_t Addr = Regs[I->Rs] + static_cast<uint32_t>(I->Imm);
  Mem.writeByte(Addr, static_cast<uint8_t>(Regs[I->Rt]));
  STORE_EPILOGUE(Addr);
}
L_Beq:
  ENTER();
  if (Regs[I->Rs] == Regs[I->Rt])
    BRANCH_TO(I->Target);
  ++FlatPc;
  NEXT();
L_Bne:
  ENTER();
  if (Regs[I->Rs] != Regs[I->Rt])
    BRANCH_TO(I->Target);
  ++FlatPc;
  NEXT();
L_Blt:
  ENTER();
  if (static_cast<int32_t>(Regs[I->Rs]) < static_cast<int32_t>(Regs[I->Rt]))
    BRANCH_TO(I->Target);
  ++FlatPc;
  NEXT();
L_Bge:
  ENTER();
  if (static_cast<int32_t>(Regs[I->Rs]) >= static_cast<int32_t>(Regs[I->Rt]))
    BRANCH_TO(I->Target);
  ++FlatPc;
  NEXT();
L_Ble:
  ENTER();
  if (static_cast<int32_t>(Regs[I->Rs]) <= static_cast<int32_t>(Regs[I->Rt]))
    BRANCH_TO(I->Target);
  ++FlatPc;
  NEXT();
L_Bgt:
  ENTER();
  if (static_cast<int32_t>(Regs[I->Rs]) > static_cast<int32_t>(Regs[I->Rt]))
    BRANCH_TO(I->Target);
  ++FlatPc;
  NEXT();
L_J:
  ENTER();
  BRANCH_TO(I->Target);
L_Jr: {
  ENTER();
  uint32_t Target = Regs[I->Rs];
  if (Target == ExitPc) {
    R.ExitCode = static_cast<int32_t>(readReg(Reg::V0));
    flushCounters();
    return R;
  }
  if (Target < LayoutConstants::TextBase || (Target & 3) != 0) {
    trap(formatString("jr to bad address 0x%08x", Target));
    return R;
  }
  BRANCH_TO((Target - LayoutConstants::TextBase) / 4);
}
L_Jalr: {
  ENTER();
  uint32_t Target = Regs[I->Rs];
  if (Target < LayoutConstants::TextBase || (Target & 3) != 0) {
    trap(formatString("jalr to bad address 0x%08x", Target));
    return R;
  }
  writeReg(Reg::RA,
           LayoutConstants::TextBase + static_cast<uint32_t>(FlatPc + 1) * 4);
  BRANCH_TO((Target - LayoutConstants::TextBase) / 4);
}
L_Nop:
  ENTER();
  ++FlatPc;
  NEXT();
L_CallFunc:
  ENTER();
  writeReg(Reg::RA,
           LayoutConstants::TextBase + static_cast<uint32_t>(FlatPc + 1) * 4);
  BRANCH_TO(I->Target);
L_CallRuntime: {
  ENTER();
  bool ShouldHalt = false;
  handleRuntimeCall(static_cast<RuntimeFn>(I->Target), R, ShouldHalt);
  if (ShouldHalt) {
    flushCounters();
    return R;
  }
  ++FlatPc;
  NEXT();
}
L_CallUnresolved:
  ENTER();
  trap("call to unknown function '" + symAt(FlatPc) + "'");
  return R;
L_LaUnresolved:
  ENTER();
  trap("la of unknown symbol '" + symAt(FlatPc) + "'");
  return R;

// Component bodies for the fused-pair handlers, mirroring the stand-alone
// handlers exactly. \p IP is the component's DecodedInstr, \p PcOff its
// offset from FlatPc (for the per-pc miss counters).
#define DO_LW(IP, PcOff)                                                       \
  do {                                                                         \
    uint32_t Addr = Regs[(IP)->Rs] + static_cast<uint32_t>((IP)->Imm);         \
    Regs[(IP)->Rd] = Mem.readWord(Addr);                                       \
    ++DataAccesses;                                                            \
    bool Hit = DCache.access(Addr);                                            \
    if (!Hit) {                                                                \
      ++LoadMisses;                                                            \
      ++MissCounts[FlatPc + (PcOff)];                                          \
    }                                                                          \
    if constexpr (WithPf) {                                                    \
      Pf->onDemand(Addr, Hit);                                                 \
      if ((IP)->Prefetch)                                                      \
        Pf->onArmedLoad(static_cast<uint32_t>(FlatPc + (PcOff)), Addr,         \
                        Regs[(IP)->Rd], Hit, DCache);                          \
    }                                                                          \
  } while (0)

#define DO_SW(IP)                                                              \
  do {                                                                         \
    uint32_t Addr = Regs[(IP)->Rs] + static_cast<uint32_t>((IP)->Imm);         \
    Mem.writeWord(Addr, Regs[(IP)->Rt]);                                       \
    ++DataAccesses;                                                            \
    bool Hit = DCache.access(Addr);                                            \
    if (!Hit)                                                                  \
      ++StoreMisses;                                                           \
    if constexpr (WithPf)                                                      \
      Pf->onDemand(Addr, Hit);                                                 \
  } while (0)

#define DO_ADD(IP) Regs[(IP)->Rd] = Regs[(IP)->Rs] + Regs[(IP)->Rt]
#define DO_MOVE(IP) Regs[(IP)->Rd] = Regs[(IP)->Rs]
#define DO_LI(IP) Regs[(IP)->Rd] = static_cast<uint32_t>((IP)->Imm)

// A fused pair: account for both components up front, run both bodies, fall
// through. When fewer than two instructions of fuel remain, fall back to the
// first component's stand-alone handler (whose ENTER re-checks fuel), so
// fuel exhaustion halts between the components exactly as unfused execution
// would.
#define FUSED2(Name, Fallback, Comp1, Comp2)                                   \
  L_##Name : {                                                                 \
    if (__builtin_expect(Executed + 2 > MaxInstrs, 0))                         \
      goto Fallback;                                                           \
    I = Code + FlatPc;                                                         \
    ++ExecCounts[FlatPc];                                                      \
    ++ExecCounts[FlatPc + 1];                                                  \
    Executed += 2;                                                             \
    Comp1;                                                                     \
    Comp2;                                                                     \
    FlatPc += 2;                                                               \
    NEXT();                                                                    \
  }

  FUSED2(FuseLwLw, L_Lw, DO_LW(I, 0), DO_LW(I + 1, 1))
  FUSED2(FuseSwLw, L_Sw, DO_SW(I), DO_LW(I + 1, 1))
  FUSED2(FuseLwSw, L_Lw, DO_LW(I, 0), DO_SW(I + 1))
  FUSED2(FuseAddLw, L_Add, DO_ADD(I), DO_LW(I + 1, 1))
  FUSED2(FuseLwAdd, L_Lw, DO_LW(I, 0), DO_ADD(I + 1))
  FUSED2(FuseAddSw, L_Add, DO_ADD(I), DO_SW(I + 1))
  FUSED2(FuseMoveLw, L_Move, DO_MOVE(I), DO_LW(I + 1, 1))
  FUSED2(FuseMoveLi, L_Move, DO_MOVE(I), DO_LI(I + 1))
  FUSED2(FuseMoveMove, L_Move, DO_MOVE(I), DO_MOVE(I + 1))
  FUSED2(FuseLwMove, L_Lw, DO_LW(I, 0), DO_MOVE(I + 1))
  FUSED2(FuseAddMove, L_Add, DO_ADD(I), DO_MOVE(I + 1))
  FUSED2(FuseMoveSw, L_Move, DO_MOVE(I), DO_SW(I + 1))

// A fused triple; identical contract to FUSED2 with three components.
#define FUSED3(Name, Fallback, Comp1, Comp2, Comp3)                            \
  L_##Name : {                                                                 \
    if (__builtin_expect(Executed + 3 > MaxInstrs, 0))                         \
      goto Fallback;                                                           \
    I = Code + FlatPc;                                                         \
    ++ExecCounts[FlatPc];                                                      \
    ++ExecCounts[FlatPc + 1];                                                  \
    ++ExecCounts[FlatPc + 2];                                                  \
    Executed += 3;                                                             \
    Comp1;                                                                     \
    Comp2;                                                                     \
    Comp3;                                                                     \
    FlatPc += 3;                                                               \
    NEXT();                                                                    \
  }

  FUSED3(FuseLwLwLw, L_Lw, DO_LW(I, 0), DO_LW(I + 1, 1), DO_LW(I + 2, 2))
  FUSED3(FuseLwLwSw, L_Lw, DO_LW(I, 0), DO_LW(I + 1, 1), DO_SW(I + 2))
  FUSED3(FuseLwLwAdd, L_Lw, DO_LW(I, 0), DO_LW(I + 1, 1), DO_ADD(I + 2))
  FUSED3(FuseSwLwLw, L_Sw, DO_SW(I), DO_LW(I + 1, 1), DO_LW(I + 2, 2))
  FUSED3(FuseAddLwLw, L_Add, DO_ADD(I), DO_LW(I + 1, 1), DO_LW(I + 2, 2))
  FUSED3(FuseAddSwLw, L_Add, DO_ADD(I), DO_SW(I + 1), DO_LW(I + 2, 2))
  FUSED3(FuseLwAddSw, L_Lw, DO_LW(I, 0), DO_ADD(I + 1), DO_SW(I + 2))
  FUSED3(FuseLwSwLw, L_Lw, DO_LW(I, 0), DO_SW(I + 1), DO_LW(I + 2, 2))

#define DO_SLL(IP)                                                             \
  Regs[(IP)->Rd] = Regs[(IP)->Rs] << (static_cast<uint32_t>((IP)->Imm) & 31)

  FUSED2(FuseSllAdd, L_Sll, DO_SLL(I), DO_ADD(I + 1))
  FUSED2(FuseLwSll, L_Lw, DO_LW(I, 0), DO_SLL(I + 1))
  FUSED2(FuseLiLw, L_Li, DO_LI(I), DO_LW(I + 1, 1))
  FUSED2(FuseSwMove, L_Sw, DO_SW(I), DO_MOVE(I + 1))
  FUSED2(FuseLiMove, L_Li, DO_LI(I), DO_MOVE(I + 1))
  FUSED2(FuseMoveSll, L_Move, DO_MOVE(I), DO_SLL(I + 1))
  FUSED3(FuseSwLwLi, L_Sw, DO_SW(I), DO_LW(I + 1, 1), DO_LI(I + 2))
  FUSED3(FuseLwSllAdd, L_Lw, DO_LW(I, 0), DO_SLL(I + 1), DO_ADD(I + 2))

// A fused sequence ending in a branch or `j`. Identical accounting to
// FUSED2/FUSED3; \p Tail runs last with IB bound to the branch record and
// either BRANCH_TOs away or falls through to the next sequential pc.
#define FUSED2_BR(Name, Fallback, Comp1, Tail)                                 \
  L_##Name : {                                                                 \
    if (__builtin_expect(Executed + 2 > MaxInstrs, 0))                         \
      goto Fallback;                                                           \
    I = Code + FlatPc;                                                         \
    ++ExecCounts[FlatPc];                                                      \
    ++ExecCounts[FlatPc + 1];                                                  \
    Executed += 2;                                                             \
    Comp1;                                                                     \
    {                                                                          \
      const DecodedInstr *IB = I + 1;                                          \
      (void)IB;                                                                \
      Tail;                                                                    \
    }                                                                          \
    FlatPc += 2;                                                               \
    NEXT();                                                                    \
  }

#define FUSED3_BR(Name, Fallback, Comp1, Comp2, Tail)                          \
  L_##Name : {                                                                 \
    if (__builtin_expect(Executed + 3 > MaxInstrs, 0))                         \
      goto Fallback;                                                           \
    I = Code + FlatPc;                                                         \
    ++ExecCounts[FlatPc];                                                      \
    ++ExecCounts[FlatPc + 1];                                                  \
    ++ExecCounts[FlatPc + 2];                                                  \
    Executed += 3;                                                             \
    Comp1;                                                                     \
    Comp2;                                                                     \
    {                                                                          \
      const DecodedInstr *IB = I + 2;                                          \
      (void)IB;                                                                \
      Tail;                                                                    \
    }                                                                          \
    FlatPc += 3;                                                               \
    NEXT();                                                                    \
  }

#define TAKE_IF(Cond)                                                          \
  do {                                                                         \
    if (Cond)                                                                  \
      BRANCH_TO(IB->Target);                                                   \
  } while (0)

  FUSED2_BR(FuseSwJ, L_Sw, DO_SW(I), BRANCH_TO(IB->Target))
  FUSED2_BR(FuseMoveJ, L_Move, DO_MOVE(I), BRANCH_TO(IB->Target))
  FUSED2_BR(FuseLiBge, L_Li, DO_LI(I),
            TAKE_IF(static_cast<int32_t>(Regs[IB->Rs]) >=
                    static_cast<int32_t>(Regs[IB->Rt])))
  FUSED2_BR(FuseLiBeq, L_Li, DO_LI(I), TAKE_IF(Regs[IB->Rs] == Regs[IB->Rt]))
  FUSED3_BR(FuseLwLiBge, L_Lw, DO_LW(I, 0), DO_LI(I + 1),
            TAKE_IF(static_cast<int32_t>(Regs[IB->Rs]) >=
                    static_cast<int32_t>(Regs[IB->Rt])))
  FUSED3_BR(FuseLwLiBeq, L_Lw, DO_LW(I, 0), DO_LI(I + 1),
            TAKE_IF(Regs[IB->Rs] == Regs[IB->Rt]))
  FUSED3_BR(FuseLwSwJ, L_Lw, DO_LW(I, 0), DO_SW(I + 1), BRANCH_TO(IB->Target))

L_PcOutOfText:
  // The seed's loop head checked fuel before the pc bounds check; preserve
  // that order for runs that exhaust fuel exactly when the pc goes bad.
  if (Executed >= MaxInstrs)
    goto L_FuelExhausted;
  trap(formatString("pc out of text: flat index %llu",
                    static_cast<unsigned long long>(FlatPc)));
  return R;
L_FuelExhausted:
  R.Halt = HaltReason::FuelExhausted;
  flushCounters();
  return R;

#undef ENTER
#undef NEXT
#undef BRANCH_TO
#undef LOAD_EPILOGUE
#undef STORE_EPILOGUE
#undef DO_LW
#undef DO_SW
#undef DO_ADD
#undef DO_MOVE
#undef DO_LI
#undef FUSED2
#undef FUSED3
#undef FUSED2_BR
#undef FUSED3_BR
#undef TAKE_IF
#undef DO_SLL
}
