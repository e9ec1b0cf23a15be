//===- tests/JitTest.cpp - JIT-vs-interpreter engine differential -----------//
//
// The JIT's whole contract is bit-identity with the interpreter: same halt
// state, same output, same aggregate counters, same per-PC ExecCounts and
// MissCounts, for every program including ones that trap, run out of fuel
// mid-block, or exit from inside compiled code. These tests hold small
// hand-written assembly and compiled MinC programs to that contract with
// the hotness threshold forced to 1 so every reachable block compiles.
//
//===----------------------------------------------------------------------===//

#include "jit/CodeBuffer.h"
#include "obs/Counters.h"
#include "sim/Machine.h"
#include "support/Format.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace dlq;
using namespace dlq::masm;
using namespace dlq::sim;

namespace {

/// Runs \p M under both engines and checks every observable matches. The
/// JIT run forces HotThreshold=1 so each visited leader compiles.
void expectEnginesAgree(const Module &M, MachineOptions Base = {}) {
  if (!jit::available())
    GTEST_SKIP() << "no executable memory on this host";
  Layout L(M);

  MachineOptions IOpts = Base;
  IOpts.Engine = EngineKind::Interp;
  Machine Interp(M, L, IOpts);
  ASSERT_FALSE(Interp.usingJit());
  RunResult RI = Interp.run();

  MachineOptions JOpts = Base;
  JOpts.Engine = EngineKind::Jit;
  JOpts.JitHotThreshold = 1;
  Machine Jit(M, L, JOpts);
  ASSERT_TRUE(Jit.usingJit());
  RunResult RJ = Jit.run();

  EXPECT_EQ(RI.Halt, RJ.Halt);
  EXPECT_EQ(RI.TrapMessage, RJ.TrapMessage);
  EXPECT_EQ(RI.ExitCode, RJ.ExitCode);
  EXPECT_EQ(RI.Output, RJ.Output);
  EXPECT_EQ(RI.InstrsExecuted, RJ.InstrsExecuted);
  EXPECT_EQ(RI.DataAccesses, RJ.DataAccesses);
  EXPECT_EQ(RI.LoadMisses, RJ.LoadMisses);
  EXPECT_EQ(RI.StoreMisses, RJ.StoreMisses);
  EXPECT_EQ(RI.PrefetchesIssued, RJ.PrefetchesIssued);
  EXPECT_EQ(RI.PrefetchFills, RJ.PrefetchFills);
  EXPECT_EQ(RI.PrefetchUseful, RJ.PrefetchUseful);
  EXPECT_EQ(RI.PrefetchLate, RJ.PrefetchLate);
  ASSERT_EQ(RI.PrefetchPerPc.size(), RJ.PrefetchPerPc.size());
  for (size_t I = 0; I != RI.PrefetchPerPc.size(); ++I) {
    EXPECT_EQ(RI.PrefetchPerPc[I].FlatPc, RJ.PrefetchPerPc[I].FlatPc);
    EXPECT_EQ(RI.PrefetchPerPc[I].Issued, RJ.PrefetchPerPc[I].Issued);
    EXPECT_EQ(RI.PrefetchPerPc[I].Useful, RJ.PrefetchPerPc[I].Useful);
    EXPECT_EQ(RI.PrefetchPerPc[I].Late, RJ.PrefetchPerPc[I].Late);
  }
  ASSERT_EQ(RI.ExecCounts.size(), RJ.ExecCounts.size());
  for (size_t I = 0; I != RI.ExecCounts.size(); ++I)
    EXPECT_EQ(RI.ExecCounts[I], RJ.ExecCounts[I]) << "ExecCounts[" << I << "]";
  for (size_t I = 0; I != RI.MissCounts.size(); ++I)
    EXPECT_EQ(RI.MissCounts[I], RJ.MissCounts[I]) << "MissCounts[" << I << "]";
}

void expectBodyAgrees(const std::string &Body, MachineOptions Base = {}) {
  std::string Asm = "        .text\n        .globl main\nmain:\n" + Body +
                    "        jr   $ra\n";
  auto M = test::parseAsmOrDie(Asm);
  ASSERT_TRUE(M);
  expectEnginesAgree(*M, Base);
}

TEST(JitDifferential, AluAndShiftCorners) {
  expectBodyAgrees("        li   $t0, 2147483647\n"
                   "        li   $t1, 1\n"
                   "        add  $t2, $t0, $t1\n"
                   "        sub  $t3, $t2, $t1\n"
                   "        li   $t4, 65536\n"
                   "        mul  $t5, $t4, $t4\n"
                   "        li   $t6, -7\n"
                   "        li   $t7, 2\n"
                   "        div  $s0, $t6, $t7\n"
                   "        rem  $s1, $t6, $t7\n"
                   "        nor  $s2, $t0, $t1\n"
                   "        slt  $s3, $t6, $t7\n"
                   "        sltu $s4, $t6, $t7\n"
                   "        li   $t8, 33\n"
                   "        sllv $s5, $t1, $t8\n"
                   "        srav $s6, $t6, $t8\n"
                   "        srlv $s7, $t6, $t8\n"
                   "        sra  $a1, $t6, 1\n"
                   "        srl  $a2, $t6, 1\n"
                   "        sll  $a3, $t1, 31\n"
                   "        xori $v0, $s3, 1\n"
                   "        andi $v1, $t6, 255\n"
                   "        ori  $v0, $v0, 4\n"
                   "        slti $v0, $t6, -6\n"
                   "        sltiu $v0, $t6, -6\n"
                   "        lui  $v0, 18\n"
                   "        addi $v0, $v0, -18\n");
}

TEST(JitDifferential, DivRemIntMinByMinusOne) {
  expectBodyAgrees("        li   $t0, -2147483648\n"
                   "        li   $t1, -1\n"
                   "        div  $t2, $t0, $t1\n"
                   "        rem  $t3, $t0, $t1\n"
                   "        add  $v0, $t2, $t3\n");
}

TEST(JitDifferential, DivByZeroTrapsIdentically) {
  expectBodyAgrees("        li   $t0, 5\n"
                   "        li   $t1, 0\n"
                   "        div  $v0, $t0, $t1\n");
}

TEST(JitDifferential, RemByZeroTrapsIdentically) {
  expectBodyAgrees("        li   $t0, 5\n"
                   "        li   $t1, 0\n"
                   "        rem  $v0, $t0, $t1\n");
}

TEST(JitDifferential, DivByZeroAfterHotLoopDeopts) {
  // The divide sits in a block that runs hot (and compiles) with valid
  // divisors before the zero arrives: the trap must come from the deopt
  // path with counters identical to pure interpretation.
  expectBodyAgrees("        li   $t0, 40\n"
                   "loop:\n"
                   "        addi $t0, $t0, -1\n"
                   "        div  $t1, $t0, $t0\n"
                   "        bgt  $t0, $zero, loop\n"
                   "        li   $v0, 0\n");
}

TEST(JitDifferential, LoadStoreWidthsAndSignExtension) {
  expectBodyAgrees("        li   $t0, 0x20000000\n"
                   "        li   $t1, -2\n"
                   "        sw   $t1, 0($t0)\n"
                   "        lb   $t2, 0($t0)\n"
                   "        lbu  $t3, 0($t0)\n"
                   "        lh   $t4, 0($t0)\n"
                   "        lhu  $t5, 0($t0)\n"
                   "        lw   $t6, 0($t0)\n"
                   "        sh   $t1, 4($t0)\n"
                   "        sb   $t1, 6($t0)\n"
                   "        lw   $v0, 4($t0)\n");
}

TEST(JitDifferential, UnalignedAndWrappingAccesses) {
  // Unaligned word/half accesses assemble bytes; addresses at the very top
  // of the 4 GiB space wrap byte-wise. The compiled fast path must bail to
  // the same byte-assembly the interpreter uses.
  expectBodyAgrees("        li   $t0, 0x20000001\n"
                   "        li   $t1, 0x12345678\n"
                   "        sw   $t1, 0($t0)\n"
                   "        lw   $t2, 0($t0)\n"
                   "        lh   $t3, 0($t0)\n"
                   "        sh   $t1, 8($t0)\n"
                   "        li   $t4, -2\n" // 0xFFFFFFFE: word wraps to 0/1
                   "        sw   $t1, 0($t4)\n"
                   "        lw   $t5, 0($t4)\n"
                   "        lb   $t6, 3($t4)\n"
                   "        lhu  $t7, 0($t4)\n"
                   "        li   $v0, 0\n");
}

TEST(JitDifferential, BranchesTakenAndNot) {
  expectBodyAgrees("        li   $t0, 3\n"
                   "        li   $t1, 5\n"
                   "        li   $v0, 0\n"
                   "        beq  $t0, $t1, skip1\n"
                   "        addi $v0, $v0, 1\n"
                   "skip1:\n"
                   "        bne  $t0, $t1, skip2\n"
                   "        addi $v0, $v0, 100\n"
                   "skip2:\n"
                   "        blt  $t0, $t1, skip3\n"
                   "        addi $v0, $v0, 100\n"
                   "skip3:\n"
                   "        bge  $t1, $t0, skip4\n"
                   "        addi $v0, $v0, 100\n"
                   "skip4:\n"
                   "        ble  $t1, $t0, skip5\n"
                   "        addi $v0, $v0, 1\n"
                   "skip5:\n"
                   "        bgt  $t0, $t1, skip6\n"
                   "        addi $v0, $v0, 1\n"
                   "skip6:\n");
}

TEST(JitDifferential, HotLoopWithMemoryTraffic) {
  expectBodyAgrees("        li   $t0, 0x20000000\n"
                   "        li   $t1, 0\n"
                   "        li   $t2, 2000\n"
                   "loop:\n"
                   "        sll  $t3, $t1, 2\n"
                   "        add  $t3, $t0, $t3\n"
                   "        sw   $t1, 0($t3)\n"
                   "        lw   $t4, 0($t3)\n"
                   "        addi $t1, $t1, 1\n"
                   "        blt  $t1, $t2, loop\n"
                   "        move $v0, $t1\n");
}

TEST(JitDifferential, JalrAndJrComputedTargets) {
  expectBodyAgrees("        li   $v0, 0\n"
                   "        jal  helper\n"
                   "        jal  helper\n"
                   "        jr   $ra\n"
                   "helper:\n"
                   "        addi $v0, $v0, 7\n"
                   "        jr   $ra\n");
}

TEST(JitDifferential, JrToBadAddressTrapsIdentically) {
  expectBodyAgrees("        li   $t0, 3\n" // unaligned, below text base
                   "        jr   $t0\n");
}

TEST(JitDifferential, JrMisalignedInTextTrapsIdentically) {
  expectBodyAgrees("        li   $t0, 0x00400002\n"
                   "        jr   $t0\n");
}

TEST(JitDifferential, JalrToBadAddressTrapsIdentically) {
  expectBodyAgrees("        li   $t0, 16\n"
                   "        jalr $t0\n");
}

TEST(JitDifferential, JrPastTextEndTrapsIdentically) {
  // In-range encoding, out-of-text target: the flat index lands past the
  // sentinel and must produce the interpreter's "pc out of text" trap.
  expectBodyAgrees("        li   $t0, 0x00500000\n"
                   "        jr   $t0\n");
}

TEST(JitDifferential, UnresolvedCallTrapsIdentically) {
  auto M = test::parseAsmOrDie("        .text\n"
                               "        .globl main\n"
                               "main:\n"
                               "        jal  nowhere\n"
                               "        jr   $ra\n");
  ASSERT_TRUE(M);
  expectEnginesAgree(*M);
}

TEST(JitDifferential, UnresolvedLaTrapsIdentically) {
  auto M = test::parseAsmOrDie("        .text\n"
                               "        .globl main\n"
                               "main:\n"
                               "        la   $t0, missing_sym\n"
                               "        jr   $ra\n");
  ASSERT_TRUE(M);
  expectEnginesAgree(*M);
}

TEST(JitDifferential, RuntimeCallsInsideHotLoop) {
  expectBodyAgrees("        li   $s0, 0\n"
                   "loop:\n"
                   "        move $a0, $s0\n"
                   "        jal  print_int\n"
                   "        addi $s0, $s0, 1\n"
                   "        li   $t0, 30\n"
                   "        blt  $s0, $t0, loop\n"
                   "        li   $a0, 65\n"
                   "        jal  print_char\n"
                   "        li   $v0, 0\n");
}

TEST(JitDifferential, MallocFreeRandExit) {
  expectBodyAgrees("        li   $a0, 64\n"
                   "        jal  malloc\n"
                   "        move $s0, $v0\n"
                   "        li   $t0, 99\n"
                   "        sw   $t0, 0($s0)\n"
                   "        move $a0, $s0\n"
                   "        jal  free\n"
                   "        li   $a0, 7\n"
                   "        jal  srand\n"
                   "        jal  rand\n"
                   "        li   $a0, 3\n"
                   "        jal  exit\n");
}

TEST(JitDifferential, FuelExhaustedMidLoopMatchesExactly) {
  // Fuel runs out partway through a compiled block: the block must retire
  // nothing and hand the tail to the interpreter, landing on the same
  // per-PC counts as pure interpretation for several boundary values.
  for (uint64_t Fuel : {1ull, 2ull, 7ull, 16ull, 17ull, 18ull, 19ull, 100ull}) {
    MachineOptions Base;
    Base.MaxInstrs = Fuel;
    expectBodyAgrees("        li   $t0, 0\n"
                     "loop:\n"
                     "        addi $t0, $t0, 1\n"
                     "        addi $t1, $t0, 2\n"
                     "        addi $t2, $t1, 3\n"
                     "        li   $t3, 1000\n"
                     "        blt  $t0, $t3, loop\n"
                     "        li   $v0, 0\n",
                     Base);
  }
}

TEST(JitDifferential, JumpIntoMiddleOfCompiledBlock) {
  // A branch targets an instruction that sits mid-block in another trace;
  // the target must execute as its own (also compiled) leader with correct
  // counts for the overlapping instructions.
  expectBodyAgrees("        li   $t0, 0\n"
                   "        li   $t1, 0\n"
                   "        j    entry\n"
                   "mid:\n"
                   "        addi $t1, $t1, 10\n"
                   "entry:\n"
                   "        addi $t0, $t0, 1\n"
                   "        li   $t2, 50\n"
                   "        blt  $t0, $t2, mid\n"
                   "        move $v0, $t1\n");
}

TEST(JitDifferential, PrefetchingLoadsCountIdentically) {
  MachineOptions Base;
  Base.PrefetchLoads.insert(InstrRef{0, 4}); // The lw inside the loop.
  expectBodyAgrees("        li   $t0, 0x20000000\n"
                   "        li   $t1, 0\n"
                   "loop:\n"
                   "        sll  $t2, $t1, 2\n"
                   "        add  $t2, $t0, $t2\n"
                   "        lw   $t3, 0($t2)\n"
                   "        addi $t1, $t1, 1\n"
                   "        li   $t4, 500\n"
                   "        blt  $t1, $t4, loop\n"
                   "        li   $v0, 0\n",
                   Base);
}

TEST(JitDifferential, PcaxArmedLoadsCountIdentically) {
  // The pcax policy consumes the loaded value (pointer scheme) and per-pc
  // runtime state; both engines must drive the shared engine through the
  // same hook sequence, including the useful/late settlement.
  MachineOptions Base;
  Base.PrefetchPolicy = prefetch::Policy::Pcax;
  Base.PrefetchLoads.insert(InstrRef{0, 4});
  Base.PrefetchHints[InstrRef{0, 4}] = {prefetch::PatternClass::Stride, 4};
  expectBodyAgrees("        li   $t0, 0x20000000\n"
                   "        li   $t1, 0\n"
                   "loop:\n"
                   "        sll  $t2, $t1, 2\n"
                   "        add  $t2, $t0, $t2\n"
                   "        lw   $t3, 0($t2)\n"
                   "        addi $t1, $t1, 1\n"
                   "        li   $t4, 500\n"
                   "        blt  $t1, $t4, loop\n"
                   "        li   $v0, 0\n",
                   Base);
}

TEST(JitDifferential, PcaxPointerChaseCountsIdentically) {
  // A descending in-memory chase: each loaded word is the next address. The
  // pointer scheme prefetches through the loaded value, which the JIT hands
  // to the engine from a register the interpreter never materializes the
  // same way.
  MachineOptions Base;
  Base.PrefetchPolicy = prefetch::Policy::Pcax;
  Base.PrefetchLoads.insert(InstrRef{0, 11});
  Base.PrefetchHints[InstrRef{0, 11}] = {prefetch::PatternClass::Pointer, 0};
  expectBodyAgrees("        li   $t0, 0x20000000\n"
                   "        li   $t1, 0\n"
                   "build:\n"
                   "        sll  $t2, $t1, 6\n"
                   "        add  $t2, $t0, $t2\n"
                   "        addi $t3, $t2, 64\n"
                   "        sw   $t3, 0($t2)\n"
                   "        addi $t1, $t1, 1\n"
                   "        li   $t4, 100\n"
                   "        blt  $t1, $t4, build\n"
                   "        move $t5, $t0\n"
                   "        li   $t6, 0\n"
                   "chase:\n"
                   "        lw   $t5, 0($t5)\n"
                   "        addi $t6, $t6, 1\n"
                   "        li   $t4, 99\n"
                   "        blt  $t6, $t4, chase\n"
                   "        li   $v0, 0\n",
                   Base);
}

TEST(JitDifferential, ArgsReachMain) {
  MachineOptions Base;
  Base.Args = {11, 22, 33, 44};
  expectBodyAgrees("        add  $t0, $a0, $a1\n"
                   "        add  $t0, $t0, $a2\n"
                   "        add  $v0, $t0, $a3\n");
}

TEST(JitDifferential, CompiledMinCWorkloadAtBothOptLevels) {
  const char *Src = "int sum;\n"
                    "int arr[256];\n"
                    "int main() {\n"
                    "  int i;\n"
                    "  int j;\n"
                    "  sum = 0;\n"
                    "  for (i = 0; i < 64; i = i + 1) {\n"
                    "    arr[i] = i * 3;\n"
                    "  }\n"
                    "  for (j = 0; j < 8; j = j + 1) {\n"
                    "    for (i = 0; i < 64; i = i + 1) {\n"
                    "      sum = sum + arr[i] % 7;\n"
                    "    }\n"
                    "  }\n"
                    "  print_int(sum);\n"
                    "  return sum % 251;\n"
                    "}\n";
  for (unsigned OptLevel : {0u, 1u}) {
    auto M = test::compileOrDie(Src, OptLevel);
    ASSERT_TRUE(M);
    expectEnginesAgree(*M);
  }
}

TEST(JitEngine, SelectionRespectsOptionsAndEnvironment) {
  if (!jit::available())
    GTEST_SKIP() << "no executable memory on this host";
  auto M = test::parseAsmOrDie("        .text\n        .globl main\nmain:\n"
                               "        li  $v0, 0\n        jr  $ra\n");
  ASSERT_TRUE(M);
  Layout L(*M);

  MachineOptions Opts;
  Opts.Engine = EngineKind::Interp;
  EXPECT_FALSE(Machine(*M, L, Opts).usingJit());
  Opts.Engine = EngineKind::Jit;
  EXPECT_TRUE(Machine(*M, L, Opts).usingJit());
  Opts.Engine = EngineKind::Auto;
  ::setenv("DLQ_JIT", "0", 1);
  EXPECT_FALSE(Machine(*M, L, Opts).usingJit());
  ::setenv("DLQ_JIT", "1", 1);
  EXPECT_TRUE(Machine(*M, L, Opts).usingJit());
  ::unsetenv("DLQ_JIT");

  // The paged backing rules the JIT out.
  Opts.Engine = EngineKind::Jit;
  Opts.MemBacking = Memory::Backing::Paged;
  EXPECT_FALSE(Machine(*M, L, Opts).usingJit());
}

TEST(JitEngine, EngineKindParses) {
  EXPECT_EQ(engineKindFromString("interp"), EngineKind::Interp);
  EXPECT_EQ(engineKindFromString("jit"), EngineKind::Jit);
  EXPECT_EQ(engineKindFromString("auto"), EngineKind::Auto);
  EXPECT_EQ(engineKindFromString(""), EngineKind::Auto);
}

TEST(JitEngine, CompilesBlocksAndReportsCounters) {
  if (!jit::available())
    GTEST_SKIP() << "no executable memory on this host";
  uint64_t Before =
      obs::counters().counter("sim.jit.blocks_compiled").value();
  auto M = test::parseAsmOrDie("        .text\n        .globl main\nmain:\n"
                               "        li   $t0, 0\n"
                               "loop:\n"
                               "        addi $t0, $t0, 1\n"
                               "        li   $t1, 200\n"
                               "        blt  $t0, $t1, loop\n"
                               "        li   $v0, 0\n"
                               "        jr   $ra\n");
  ASSERT_TRUE(M);
  Layout L(*M);
  MachineOptions Opts;
  Opts.Engine = EngineKind::Jit;
  Opts.JitHotThreshold = 1;
  Machine Mach(*M, L, Opts);
  ASSERT_TRUE(Mach.usingJit());
  RunResult R = Mach.run();
  EXPECT_EQ(R.Halt, HaltReason::Exited) << R.TrapMessage;
  uint64_t After = obs::counters().counter("sim.jit.blocks_compiled").value();
  EXPECT_GT(After, Before);
}

} // namespace
