//===- jit/Engine.cpp -------------------------------------------------------==//

#include "jit/Engine.h"

#include "jit/Compiler.h"
#include "masm/Module.h"
#include "obs/Trace.h"
#include "prefetch/Prefetch.h"
#include "support/Format.h"

#include <cassert>

using namespace dlq;
using namespace dlq::jit;
using sim::DecodedInstr;
using sim::HaltReason;
using sim::RunResult;
using sim::XOp;

namespace {

constexpr uint32_t ExitPcSentinel = 0xFFFFFFFC;
constexpr uint8_t RegV0 = 2;
constexpr uint8_t RegRA = 31;

/// Ops after which interpretBlockStep returns to the dispatcher: control
/// transfers plus runtime calls (whose successor is a block leader in
/// compiled code, so it should age on the hotness ramp too).
bool isControlOp(XOp Op) {
  switch (Op) {
  case XOp::Beq:
  case XOp::Bne:
  case XOp::Blt:
  case XOp::Bge:
  case XOp::Ble:
  case XOp::Bgt:
  case XOp::J:
  case XOp::Jr:
  case XOp::Jalr:
  case XOp::CallFunc:
  case XOp::CallRuntime:
    return true;
  default:
    return false;
  }
}

} // namespace

Engine::Engine(const sim::DecodedProgram &Prog, sim::Memory &Mem,
               sim::Cache &DCache, uint32_t *Regs, uint64_t MaxInstrs,
               uint32_t PrefetchStride, prefetch::Engine *Pf,
               const EngineOptions &Opts, EngineCallbacks Callbacks)
    : Prog(Prog), Mem(Mem), DCache(DCache), Opts(Opts),
      CB(std::move(Callbacks)) {
  FlatCount = Prog.FlatMap.size();
  CodePtrs.assign(FlatCount + 1, nullptr);
  Hot.assign(FlatCount + 1, 0);
  NoCompile.assign(FlatCount + 1, 0);
  NoCompile[FlatCount] = 1; // the OutOfText sentinel slot

  St.Regs = Regs;
  St.Flat = Mem.flatBase();
  St.CodePtrs = CodePtrs.data();
  St.MaxInstrs = MaxInstrs;
  St.DCache = &DCache;
  St.Mem = &Mem;
  St.PrefetchStride = PrefetchStride;
  St.FlatCount = FlatCount;
  St.Owner = this;
  St.Pf = Pf;

  assert(St.Flat && "the JIT engine requires the flat memory backing");

  // Entry stub: save callee-saved registers, pin the hot pointers, enter the
  // block. Blocks chain with jumps and come back here through one `ret`.
  // Stack math: stub entry rsp%16==8, six pushes keep it 8, the call makes
  // block-entry rsp%16==0, so helper calls from blocks are SysV-aligned.
  if (uint8_t *P = Buf.begin(64)) {
    Emitter Em(P, 64);
    Em.push(RBX);
    Em.push(RBP);
    Em.push(R12);
    Em.push(R13);
    Em.push(R14);
    Em.push(R15);
    Em.movRegReg64(R12, RDI);
    Em.load64(RBX, R12, OffRegs);
    Em.load64(R13, R12, OffFlat);
    Em.load64(R14, R12, OffExecCounts);
    Em.load64(RBP, R12, OffCodePtrs);
    Em.callReg(RSI);
    Em.pop(R15);
    Em.pop(R14);
    Em.pop(R13);
    Em.pop(R12);
    Em.pop(RBP);
    Em.pop(RBX);
    Em.ret();
    if (Em.ok() && Buf.commit(Em.size()))
      Stub = reinterpret_cast<StubFn>(reinterpret_cast<uintptr_t>(P));
    else
      Buf.abort();
  }
}

const uint8_t *Engine::compileBlock(uint32_t Leader) {
  CompileContext Ctx{Prog.Instrs.data(), FlatCount, CodePtrs.data(),
                     masm::LayoutConstants::TextBase, Opts.MaxBlockInstrs};
  unsigned Len = scanBlockLen(Ctx, Leader);
  if (Len == 0) {
    NoCompile[Leader] = 1;
    return nullptr;
  }
  obs::Span CompileSpan("sim.jit.compile");
  // Generous worst-case estimate; a load with its cold stub is ~110 bytes.
  size_t Reserve = 512 + size_t(Len) * 160;
  uint8_t *P = Buf.begin(Reserve);
  if (!P) {
    NoCompile[Leader] = 1;
    return nullptr;
  }
  // Published before emission so back-edges to our own leader become direct
  // jumps; rolled back if emission fails.
  CodePtrs[Leader] = P;
  Emitter Em(P, Reserve);
  if (!compileBlockBody(Em, Ctx, Leader, Len)) {
    Buf.abort();
    CodePtrs[Leader] = nullptr;
    NoCompile[Leader] = 1;
    return nullptr;
  }
  if (!Buf.commit(Em.size())) {
    CodePtrs[Leader] = nullptr;
    NoCompile[Leader] = 1;
    return nullptr;
  }
  ++Stats.BlocksCompiled;
  Stats.CodeBytes += Em.size();
  CompileSpan.attr("pc", uint64_t(Leader));
  CompileSpan.attr("instrs", uint64_t(Len));
  CompileSpan.attr("bytes", uint64_t(Em.size()));
  return P;
}

void Engine::flushCounters(RunResult &R) {
  R.InstrsExecuted = St.Executed;
  R.DataAccesses = St.DataAccesses;
  R.LoadMisses = St.LoadMisses;
  R.StoreMisses = St.StoreMisses;
  R.PrefetchesIssued = St.PrefetchesIssued;
  R.PrefetchFills = St.PrefetchFills;
}

void Engine::haltTrap(RunResult &R, std::string Message) {
  R.Halt = HaltReason::Trapped;
  R.TrapMessage = std::move(Message);
  flushCounters(R);
}

void Engine::haltOutOfText(uint64_t Pc, RunResult &R) {
  // The interpreter checks fuel before the pc bounds check; keep that order.
  if (St.Executed >= St.MaxInstrs) {
    R.Halt = HaltReason::FuelExhausted;
    flushCounters(R);
    return;
  }
  haltTrap(R, formatString("pc out of text: flat index %llu",
                           static_cast<unsigned long long>(Pc)));
}

void Engine::run(uint32_t EntryPc, RunResult &R) {
  assert(R.ExecCounts.size() == FlatCount && R.MissCounts.size() == FlatCount);
  St.ExecCounts = R.ExecCounts.data();
  St.MissCounts = R.MissCounts.data();
  St.Executed = 0;
  St.DataAccesses = 0;
  St.LoadMisses = 0;
  St.StoreMisses = 0;
  St.PrefetchesIssued = 0;
  St.PrefetchFills = 0;
  St.ExitReason = ExitDispatch;
  St.ExitCode = 0;

  uint64_t Pc = EntryPc;
  for (;;) {
    if (Pc >= FlatCount) {
      haltOutOfText(Pc, R);
      return;
    }
    const uint8_t *Block = CodePtrs[Pc];
    if (!Block && Stub && !NoCompile[Pc] && ++Hot[Pc] >= Opts.HotThreshold)
      Block = compileBlock(Pc);
    if (Block) {
      uint64_t Next = Stub(&St, Block);
      switch (St.ExitReason) {
      case ExitDispatch:
        Pc = Next;
        continue;
      case ExitGuestExit:
        R.ExitCode = St.ExitCode;
        flushCounters(R);
        return;
      case ExitFuel:
        // Nothing of the block retired; the interpreter walks to the exact
        // exhaustion point (each entered block burns at least one fuel, so
        // this terminates).
        Pc = Next;
        if (!interpretBlockStep(Pc, R))
          return;
        continue;
      case ExitDeopt:
        // Counters already rolled back past the deopting instruction; the
        // interpreter must retire (or trap on) at least that instruction
        // before compiled code is considered again.
        ++Stats.Deopts;
        Pc = Next;
        if (!interpretBlockStep(Pc, R))
          return;
        continue;
      case ExitRuntimeHalt:
        // exit()/abort(): the runtime-call callback set R.ExitCode.
        flushCounters(R);
        return;
      }
      assert(false && "unknown ExitReason from compiled code");
      return;
    }
    if (!interpretBlockStep(Pc, R))
      return;
  }
}

bool Engine::interpretBlockStep(uint64_t &Pc, RunResult &R) {
  for (;;) {
    bool Control = isControlOp(Prog.Instrs[Pc].Op);
    if (!stepOne(Pc, R))
      return false;
    // Return to the dispatcher only at block-leader pcs (post-control) or
    // when compiled code is reachable — straight-line instructions inside a
    // block must not age the hotness ramp.
    if (Control || Pc >= FlatCount || CodePtrs[Pc])
      return true;
  }
}

bool Engine::stepOne(uint64_t &Pc, RunResult &R) {
  // Mirrors the interpreter's ENTER order exactly: fuel, count, execute.
  if (St.Executed >= St.MaxInstrs) {
    R.Halt = HaltReason::FuelExhausted;
    flushCounters(R);
    return false;
  }
  assert(Pc < FlatCount && "out-of-text pcs are the dispatcher's job");
  const DecodedInstr &I = Prog.Instrs[Pc];
  ++St.ExecCounts[Pc];
  ++St.Executed;
  ++Stats.InterpRetired;

  uint32_t *Regs = St.Regs;
  constexpr uint32_t TextBase = masm::LayoutConstants::TextBase;

  auto loadEpilogue = [&](uint32_t Addr) {
    ++St.DataAccesses;
    bool Hit = DCache.access(Addr);
    if (!Hit) {
      ++St.LoadMisses;
      ++St.MissCounts[Pc];
    }
    if (St.Pf) {
      St.Pf->onDemand(Addr, Hit);
      if (I.Prefetch)
        St.Pf->onArmedLoad(static_cast<uint32_t>(Pc), Addr, Regs[I.Rd], Hit,
                           DCache);
    }
  };
  auto storeEpilogue = [&](uint32_t Addr) {
    ++St.DataAccesses;
    bool Hit = DCache.access(Addr);
    if (!Hit)
      ++St.StoreMisses;
    if (St.Pf)
      St.Pf->onDemand(Addr, Hit);
  };

  switch (I.Op) {
  case XOp::Add:
    Regs[I.Rd] = Regs[I.Rs] + Regs[I.Rt];
    break;
  case XOp::Sub:
    Regs[I.Rd] = Regs[I.Rs] - Regs[I.Rt];
    break;
  case XOp::Mul:
    Regs[I.Rd] = static_cast<uint32_t>(
        static_cast<int64_t>(static_cast<int32_t>(Regs[I.Rs])) *
        static_cast<int32_t>(Regs[I.Rt]));
    break;
  case XOp::Div: {
    int32_t RsS = static_cast<int32_t>(Regs[I.Rs]);
    int32_t RtS = static_cast<int32_t>(Regs[I.Rt]);
    if (RtS == 0) {
      haltTrap(R, "division by zero");
      return false;
    }
    if (RsS == INT32_MIN && RtS == -1)
      Regs[I.Rd] = static_cast<uint32_t>(INT32_MIN);
    else
      Regs[I.Rd] = static_cast<uint32_t>(RsS / RtS);
    break;
  }
  case XOp::Rem: {
    int32_t RsS = static_cast<int32_t>(Regs[I.Rs]);
    int32_t RtS = static_cast<int32_t>(Regs[I.Rt]);
    if (RtS == 0) {
      haltTrap(R, "remainder by zero");
      return false;
    }
    if (RsS == INT32_MIN && RtS == -1)
      Regs[I.Rd] = 0;
    else
      Regs[I.Rd] = static_cast<uint32_t>(RsS % RtS);
    break;
  }
  case XOp::And:
    Regs[I.Rd] = Regs[I.Rs] & Regs[I.Rt];
    break;
  case XOp::Or:
    Regs[I.Rd] = Regs[I.Rs] | Regs[I.Rt];
    break;
  case XOp::Xor:
    Regs[I.Rd] = Regs[I.Rs] ^ Regs[I.Rt];
    break;
  case XOp::Nor:
    Regs[I.Rd] = ~(Regs[I.Rs] | Regs[I.Rt]);
    break;
  case XOp::Slt:
    Regs[I.Rd] = static_cast<int32_t>(Regs[I.Rs]) <
                         static_cast<int32_t>(Regs[I.Rt])
                     ? 1
                     : 0;
    break;
  case XOp::Sltu:
    Regs[I.Rd] = Regs[I.Rs] < Regs[I.Rt] ? 1 : 0;
    break;
  case XOp::Sllv:
    Regs[I.Rd] = Regs[I.Rs] << (Regs[I.Rt] & 31);
    break;
  case XOp::Srlv:
    Regs[I.Rd] = Regs[I.Rs] >> (Regs[I.Rt] & 31);
    break;
  case XOp::Srav:
    Regs[I.Rd] = static_cast<uint32_t>(static_cast<int32_t>(Regs[I.Rs]) >>
                                       (Regs[I.Rt] & 31));
    break;
  case XOp::Addi:
    Regs[I.Rd] = Regs[I.Rs] + static_cast<uint32_t>(I.Imm);
    break;
  case XOp::Andi:
    Regs[I.Rd] = Regs[I.Rs] & static_cast<uint32_t>(I.Imm);
    break;
  case XOp::Ori:
    Regs[I.Rd] = Regs[I.Rs] | static_cast<uint32_t>(I.Imm);
    break;
  case XOp::Xori:
    Regs[I.Rd] = Regs[I.Rs] ^ static_cast<uint32_t>(I.Imm);
    break;
  case XOp::Slti:
    Regs[I.Rd] = static_cast<int32_t>(Regs[I.Rs]) < I.Imm ? 1 : 0;
    break;
  case XOp::Sltiu:
    Regs[I.Rd] = Regs[I.Rs] < static_cast<uint32_t>(I.Imm) ? 1 : 0;
    break;
  case XOp::Sll:
    Regs[I.Rd] = Regs[I.Rs] << (static_cast<uint32_t>(I.Imm) & 31);
    break;
  case XOp::Srl:
    Regs[I.Rd] = Regs[I.Rs] >> (static_cast<uint32_t>(I.Imm) & 31);
    break;
  case XOp::Sra:
    Regs[I.Rd] = static_cast<uint32_t>(static_cast<int32_t>(Regs[I.Rs]) >>
                                       (static_cast<uint32_t>(I.Imm) & 31));
    break;
  case XOp::Lui:
    Regs[I.Rd] = static_cast<uint32_t>(I.Imm) << 16;
    break;
  case XOp::Li:
    Regs[I.Rd] = static_cast<uint32_t>(I.Imm);
    break;
  case XOp::Move:
    Regs[I.Rd] = Regs[I.Rs];
    break;
  case XOp::Lw: {
    uint32_t Addr = Regs[I.Rs] + static_cast<uint32_t>(I.Imm);
    Regs[I.Rd] = Mem.readWord(Addr);
    loadEpilogue(Addr);
    break;
  }
  case XOp::Lh: {
    uint32_t Addr = Regs[I.Rs] + static_cast<uint32_t>(I.Imm);
    Regs[I.Rd] = static_cast<uint32_t>(
        static_cast<int32_t>(static_cast<int16_t>(Mem.readHalf(Addr))));
    loadEpilogue(Addr);
    break;
  }
  case XOp::Lhu: {
    uint32_t Addr = Regs[I.Rs] + static_cast<uint32_t>(I.Imm);
    Regs[I.Rd] = Mem.readHalf(Addr);
    loadEpilogue(Addr);
    break;
  }
  case XOp::Lb: {
    uint32_t Addr = Regs[I.Rs] + static_cast<uint32_t>(I.Imm);
    Regs[I.Rd] = static_cast<uint32_t>(
        static_cast<int32_t>(static_cast<int8_t>(Mem.readByte(Addr))));
    loadEpilogue(Addr);
    break;
  }
  case XOp::Lbu: {
    uint32_t Addr = Regs[I.Rs] + static_cast<uint32_t>(I.Imm);
    Regs[I.Rd] = Mem.readByte(Addr);
    loadEpilogue(Addr);
    break;
  }
  case XOp::Sw: {
    uint32_t Addr = Regs[I.Rs] + static_cast<uint32_t>(I.Imm);
    Mem.writeWord(Addr, Regs[I.Rt]);
    storeEpilogue(Addr);
    break;
  }
  case XOp::Sh: {
    uint32_t Addr = Regs[I.Rs] + static_cast<uint32_t>(I.Imm);
    Mem.writeHalf(Addr, static_cast<uint16_t>(Regs[I.Rt]));
    storeEpilogue(Addr);
    break;
  }
  case XOp::Sb: {
    uint32_t Addr = Regs[I.Rs] + static_cast<uint32_t>(I.Imm);
    Mem.writeByte(Addr, static_cast<uint8_t>(Regs[I.Rt]));
    storeEpilogue(Addr);
    break;
  }
  case XOp::Beq:
    if (Regs[I.Rs] == Regs[I.Rt]) {
      Pc = I.Target;
      return true;
    }
    break;
  case XOp::Bne:
    if (Regs[I.Rs] != Regs[I.Rt]) {
      Pc = I.Target;
      return true;
    }
    break;
  case XOp::Blt:
    if (static_cast<int32_t>(Regs[I.Rs]) < static_cast<int32_t>(Regs[I.Rt])) {
      Pc = I.Target;
      return true;
    }
    break;
  case XOp::Bge:
    if (static_cast<int32_t>(Regs[I.Rs]) >= static_cast<int32_t>(Regs[I.Rt])) {
      Pc = I.Target;
      return true;
    }
    break;
  case XOp::Ble:
    if (static_cast<int32_t>(Regs[I.Rs]) <= static_cast<int32_t>(Regs[I.Rt])) {
      Pc = I.Target;
      return true;
    }
    break;
  case XOp::Bgt:
    if (static_cast<int32_t>(Regs[I.Rs]) > static_cast<int32_t>(Regs[I.Rt])) {
      Pc = I.Target;
      return true;
    }
    break;
  case XOp::J:
    Pc = I.Target;
    return true;
  case XOp::Jr: {
    uint32_t Target = Regs[I.Rs];
    if (Target == ExitPcSentinel) {
      R.ExitCode = static_cast<int32_t>(Regs[RegV0]);
      flushCounters(R);
      return false;
    }
    if (Target < TextBase || (Target & 3) != 0) {
      haltTrap(R, formatString("jr to bad address 0x%08x", Target));
      return false;
    }
    Pc = (Target - TextBase) / 4;
    return true;
  }
  case XOp::Jalr: {
    uint32_t Target = Regs[I.Rs];
    if (Target < TextBase || (Target & 3) != 0) {
      haltTrap(R, formatString("jalr to bad address 0x%08x", Target));
      return false;
    }
    Regs[RegRA] = TextBase + static_cast<uint32_t>(Pc + 1) * 4;
    Pc = (Target - TextBase) / 4;
    return true;
  }
  case XOp::Nop:
    break;
  case XOp::CallFunc:
    Regs[RegRA] = TextBase + static_cast<uint32_t>(Pc + 1) * 4;
    Pc = I.Target;
    return true;
  case XOp::CallRuntime:
    if (CB.RuntimeCall(I.Target)) {
      flushCounters(R);
      return false;
    }
    break;
  case XOp::CallUnresolved:
    haltTrap(R, "call to unknown function '" + CB.SymAt(Pc) + "'");
    return false;
  case XOp::LaUnresolved:
    haltTrap(R, "la of unknown symbol '" + CB.SymAt(Pc) + "'");
    return false;
  default:
    // OutOfText never reaches here (the dispatcher bounds-checks first) and
    // fused superinstructions never exist in the engine's unfused stream.
    assert(false && "unexpected XOp in JIT fallback interpreter");
    haltTrap(R, formatString("pc out of text: flat index %llu",
                             static_cast<unsigned long long>(Pc)));
    return false;
  }
  ++Pc;
  return true;
}

// -- out-of-line runtime for generated code ----------------------------------

extern "C" void dlqJitLoadAcct(JitState *S, uint32_t Addr, uint32_t Pc) {
  ++S->DataAccesses;
  bool Hit = S->DCache->access(Addr);
  if (!Hit) {
    ++S->LoadMisses;
    ++S->MissCounts[Pc];
  }
  if (S->Pf)
    S->Pf->onDemand(Addr, Hit);
}

extern "C" void dlqJitLoadAcctPf(JitState *S, uint32_t Addr, uint32_t Pc,
                                 uint32_t Val) {
  ++S->DataAccesses;
  bool Hit = S->DCache->access(Addr);
  if (!Hit) {
    ++S->LoadMisses;
    ++S->MissCounts[Pc];
  }
  if (S->Pf) {
    S->Pf->onDemand(Addr, Hit);
    S->Pf->onArmedLoad(Pc, Addr, Val, Hit, *S->DCache);
  }
}

extern "C" void dlqJitStoreAcct(JitState *S, uint32_t Addr) {
  ++S->DataAccesses;
  bool Hit = S->DCache->access(Addr);
  if (!Hit)
    ++S->StoreMisses;
  if (S->Pf)
    S->Pf->onDemand(Addr, Hit);
}

extern "C" uint32_t dlqJitSlowLoad(JitState *S, uint32_t Addr, uint32_t Pc,
                                   uint32_t Kind) {
  // Read first, then account — the same order as the interpreter handlers.
  sim::Memory &M = *S->Mem;
  uint32_t V;
  switch (Kind & KindWidthMask) {
  case 0:
    V = (Kind & KindSigned)
            ? static_cast<uint32_t>(
                  static_cast<int32_t>(static_cast<int8_t>(M.readByte(Addr))))
            : M.readByte(Addr);
    break;
  case 1:
    V = (Kind & KindSigned)
            ? static_cast<uint32_t>(
                  static_cast<int32_t>(static_cast<int16_t>(M.readHalf(Addr))))
            : M.readHalf(Addr);
    break;
  default:
    V = M.readWord(Addr);
    break;
  }
  ++S->DataAccesses;
  bool Hit = S->DCache->access(Addr);
  if (!Hit) {
    ++S->LoadMisses;
    ++S->MissCounts[Pc];
  }
  if (S->Pf) {
    S->Pf->onDemand(Addr, Hit);
    if (Kind & KindPrefetch)
      S->Pf->onArmedLoad(Pc, Addr, V, Hit, *S->DCache);
  }
  return V;
}

extern "C" void dlqJitSlowStore(JitState *S, uint32_t Addr, uint32_t Val,
                                uint32_t Kind) {
  sim::Memory &M = *S->Mem;
  switch (Kind & KindWidthMask) {
  case 0:
    M.writeByte(Addr, static_cast<uint8_t>(Val));
    break;
  case 1:
    M.writeHalf(Addr, static_cast<uint16_t>(Val));
    break;
  default:
    M.writeWord(Addr, Val);
    break;
  }
  ++S->DataAccesses;
  bool Hit = S->DCache->access(Addr);
  if (!Hit)
    ++S->StoreMisses;
  if (S->Pf)
    S->Pf->onDemand(Addr, Hit);
}

extern "C" uint32_t dlqJitRuntimeCall(JitState *S, uint32_t Fn) {
  return S->Owner->runtimeCallFromJit(Fn) ? 1u : 0u;
}
