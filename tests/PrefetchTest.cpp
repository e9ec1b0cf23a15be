//===- tests/PrefetchTest.cpp - PC-indexed prefetch engine ----------------------//
//
// The prefetch engine's contract, policy by policy: the direction fix in the
// next-line prefetcher (descending sweeps used to prefetch backwards into
// visited blocks), the pcax stride/pointer schemes and their static seeds,
// the bit-identity of Record runs, and the oracle's next-miss lookahead
// ceiling. Programs are tiny assembly loops whose miss counts are exact.
//
//===----------------------------------------------------------------------===//

#include "classify/Delinquency.h"
#include "prefetch/Prefetch.h"
#include "prefetch/Seed.h"
#include "sim/Machine.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace dlq;
using namespace dlq::masm;
using namespace dlq::sim;

namespace {

/// A descending word scan over 64kB: 2048 blocks touched high-to-low, one
/// load per block. The load is instruction 4 of main.
const char *DescendingScanAsm = R"(
        .data
arr:    .space 65536
        .text
        .globl main
main:
        la   $t2, arr
        li   $t0, 65504
        add  $t3, $t2, $t0
Lhead:
        lw   $t4, 0($t3)
        addi $t3, $t3, -32
        bge  $t3, $t2, Lhead
        li   $v0, 0
        jr   $ra
)";

RunResult runArmed(const Module &M, prefetch::Policy Pol,
                   std::vector<std::pair<InstrRef, prefetch::StaticHint>>
                       Arms = {{InstrRef{0, 3}, {}}},
                   std::shared_ptr<const prefetch::MissTrace> Trace = nullptr,
                   std::shared_ptr<const prefetch::MissTrace> *RecordedOut =
                       nullptr) {
  Layout L(M);
  MachineOptions Opts;
  Opts.PrefetchPolicy = Pol;
  for (const auto &[Ref, Hint] : Arms) {
    Opts.PrefetchLoads.insert(Ref);
    if (Hint.Class != prefetch::PatternClass::Unknown)
      Opts.PrefetchHints[Ref] = Hint;
  }
  Opts.OracleTrace = std::move(Trace);
  Machine Mach(M, L, Opts);
  RunResult R = Mach.run();
  if (RecordedOut)
    *RecordedOut = Mach.recordedTrace();
  return R;
}

//===----------------------------------------------------------------------===//
// Satellite fix: descending sweeps under the next-line policy
//===----------------------------------------------------------------------===//

TEST(PrefetchNextLine, ReverseSweepPrefetchesIntoTheWalk) {
  // Regression for the direction bug: the original prefetcher hardwired
  // `Addr + BlockBytes`, so a descending sweep prefetched the block it had
  // just visited — zero useful fills, no miss reduction. Direction-aware
  // next-line must hide all but the first block.
  auto M = test::parseAsmOrDie(DescendingScanAsm);
  ASSERT_TRUE(M);

  Layout L(*M);
  RunResult Base = Machine(*M, L, MachineOptions()).run();
  ASSERT_EQ(Base.Halt, HaltReason::Exited);
  EXPECT_EQ(Base.LoadMisses, 65536u / 32u) << "one miss per block unarmed";

  RunResult R = runArmed(*M, prefetch::Policy::NextLine);
  ASSERT_EQ(R.Halt, HaltReason::Exited);
  EXPECT_GT(R.PrefetchUseful, 0u)
      << "descending sweeps must produce useful fills after the fix";
  EXPECT_LE(R.LoadMisses, 2u) << "all but the first block arrive early";
  EXPECT_EQ(R.ExitCode, Base.ExitCode);
}

//===----------------------------------------------------------------------===//
// Pcax: stride scheme
//===----------------------------------------------------------------------===//

TEST(PrefetchPcax, SeededDescendingStrideCoversTheSweep) {
  auto M = test::parseAsmOrDie(DescendingScanAsm);
  ASSERT_TRUE(M);
  RunResult R = runArmed(
      *M, prefetch::Policy::Pcax,
      {{InstrRef{0, 3}, {prefetch::PatternClass::Stride, -32}}});
  ASSERT_EQ(R.Halt, HaltReason::Exited);
  EXPECT_LE(R.LoadMisses, 2u);
  EXPECT_GT(R.PrefetchUseful, 0u);
  ASSERT_EQ(R.PrefetchPerPc.size(), 1u) << "one armed slot";
  EXPECT_EQ(R.PrefetchPerPc[0].Issued, R.PrefetchesIssued);
}

TEST(PrefetchPcax, StrideBeyondBlockBeatsNextLine) {
  // A 64-byte stride touches every other block: next-line prefetches the
  // untouched neighbor (useless), the stride projection lands on the block
  // the walk visits next.
  const char *SparseScanAsm = R"(
        .data
arr:    .space 131072
        .text
        .globl main
main:
        la   $t2, arr
        li   $t0, 0
        li   $t1, 131072
Lhead:
        add  $t3, $t2, $t0
        lw   $t4, 0($t3)
        addi $t0, $t0, 64
        blt  $t0, $t1, Lhead
        li   $v0, 0
        jr   $ra
)";
  auto M = test::parseAsmOrDie(SparseScanAsm);
  ASSERT_TRUE(M);
  std::vector<std::pair<InstrRef, prefetch::StaticHint>> Strided = {
      {InstrRef{0, 4}, {prefetch::PatternClass::Stride, 64}}};
  RunResult NL = runArmed(*M, prefetch::Policy::NextLine, Strided);
  RunResult Px = runArmed(*M, prefetch::Policy::Pcax, Strided);
  ASSERT_EQ(NL.Halt, HaltReason::Exited);
  ASSERT_EQ(Px.Halt, HaltReason::Exited);
  EXPECT_GE(NL.LoadMisses, 2000u)
      << "next-line fills blocks the sparse walk never touches";
  EXPECT_LE(Px.LoadMisses, 64u) << "the projection hides the walk";
  EXPECT_LT(Px.LoadMisses, NL.LoadMisses);
}

//===----------------------------------------------------------------------===//
// Pcax: pointer scheme
//===----------------------------------------------------------------------===//

TEST(PrefetchPcax, PointerChaseThroughLoadedValue) {
  // 64 nodes, 96 bytes apart, linked along the full-period LCG permutation
  // idx' = (5*idx + 1) mod 64 — consecutive chase deltas vary, so no
  // constant stride describes the walk. After building the links, a sweep
  // over 64kB of scratch evicts every node; the chase then misses each node
  // header unless the pointer scheme prefetches through the loaded value.
  const char *ChaseAsm = R"(
        .data
nodes:  .space 8192
scr:    .space 65536
        .text
        .globl main
main:
        la   $t0, nodes
        li   $t1, 0
        li   $t9, 0
Lbuild:
        sll  $t2, $t9, 2
        add  $t2, $t2, $t9
        addi $t2, $t2, 1
        andi $t2, $t2, 63
        sll  $t3, $t9, 6
        sll  $t4, $t9, 5
        add  $t3, $t3, $t4
        add  $t3, $t0, $t3
        sll  $t5, $t2, 6
        sll  $t6, $t2, 5
        add  $t5, $t5, $t6
        add  $t5, $t0, $t5
        sw   $t5, 0($t3)
        move $t9, $t2
        addi $t1, $t1, 1
        li   $t7, 64
        blt  $t1, $t7, Lbuild
        la   $t2, scr
        li   $t1, 0
        li   $t7, 65536
Levict:
        add  $t3, $t2, $t1
        lw   $t4, 0($t3)
        addi $t1, $t1, 32
        blt  $t1, $t7, Levict
        move $t5, $t0
        li   $t1, 0
        li   $t7, 63
Lchase:
        lw   $t5, 0($t5)
        addi $t1, $t1, 1
        blt  $t1, $t7, Lchase
        li   $v0, 0
        jr   $ra
)";
  auto M = test::parseAsmOrDie(ChaseAsm);
  ASSERT_TRUE(M);
  InstrRef ChaseLw{0, 0};
  const Function &F = M->functions()[0];
  for (uint32_t I = 0; I != F.instrs().size(); ++I)
    if (isLoad(F.instrs()[I].Op))
      ChaseLw = InstrRef{0, I}; // last load in main = the chase lw
  ASSERT_NE(ChaseLw.InstrIdx, 0u);

  Layout L(*M);
  RunResult Base = Machine(*M, L, MachineOptions()).run();
  ASSERT_EQ(Base.Halt, HaltReason::Exited);

  RunResult R = runArmed(
      *M, prefetch::Policy::Pcax,
      {{ChaseLw, {prefetch::PatternClass::Pointer, 0}}});
  ASSERT_EQ(R.Halt, HaltReason::Exited);
  EXPECT_GE(R.PrefetchUseful, 40u)
      << "the loaded value predicts nearly every next node";
  EXPECT_LT(R.LoadMisses + 40, Base.LoadMisses)
      << "chasing through the value must hide most node headers";
  EXPECT_EQ(R.ExitCode, Base.ExitCode);
}

//===----------------------------------------------------------------------===//
// Record and Oracle
//===----------------------------------------------------------------------===//

TEST(PrefetchOracle, RecordIsBitIdenticalAndOracleCoversRandomWalk) {
  // An LCG walk over 32kB (1024 blocks, cache holds 256): no stride, no
  // pointer, nothing a table can learn — but the oracle knows each pc's
  // next future miss block from the recorded baseline.
  const char *WalkAsm = R"(
        .data
arr:    .space 32768
        .text
        .globl main
main:
        la   $t0, arr
        li   $t9, 0
        li   $t1, 0
Lhead:
        sll  $t2, $t9, 2
        add  $t2, $t2, $t9
        addi $t2, $t2, 1
        li   $t3, 1023
        and  $t2, $t2, $t3
        move $t9, $t2
        sll  $t3, $t9, 5
        add  $t3, $t0, $t3
        lw   $t4, 0($t3)
        addi $t1, $t1, 1
        li   $t5, 2048
        blt  $t1, $t5, Lhead
        li   $v0, 0
        jr   $ra
)";
  auto M = test::parseAsmOrDie(WalkAsm);
  ASSERT_TRUE(M);
  InstrRef WalkLw{0, 0};
  const Function &F = M->functions()[0];
  for (uint32_t I = 0; I != F.instrs().size(); ++I)
    if (isLoad(F.instrs()[I].Op))
      WalkLw = InstrRef{0, I};
  ASSERT_NE(WalkLw.InstrIdx, 0u);

  Layout L(*M);
  RunResult Base = Machine(*M, L, MachineOptions()).run();
  ASSERT_EQ(Base.Halt, HaltReason::Exited);
  EXPECT_GT(Base.LoadMisses, 1000u) << "the walk must defeat the cache";

  // Record: armed, but bit-identical to the unarmed baseline.
  std::shared_ptr<const prefetch::MissTrace> Trace;
  RunResult Rec = runArmed(*M, prefetch::Policy::Record, {{WalkLw, {}}},
                           nullptr, &Trace);
  ASSERT_EQ(Rec.Halt, HaltReason::Exited);
  EXPECT_EQ(Rec.LoadMisses, Base.LoadMisses);
  EXPECT_EQ(Rec.InstrsExecuted, Base.InstrsExecuted);
  EXPECT_EQ(Rec.ExitCode, Base.ExitCode);
  EXPECT_EQ(Rec.PrefetchesIssued, 0u);
  ASSERT_TRUE(Trace);
  ASSERT_EQ(Trace->PerSlot.size(), 1u);
  // The walk lw is the program's only load, so its trace holds every
  // baseline load miss.
  EXPECT_EQ(Trace->PerSlot[0].size(), static_cast<size_t>(Base.LoadMisses));

  // Pcax learns nothing from the walk; the oracle covers almost all of it.
  RunResult Px = runArmed(*M, prefetch::Policy::Pcax, {{WalkLw, {}}});
  RunResult Or = runArmed(*M, prefetch::Policy::Oracle, {{WalkLw, {}}},
                          Trace);
  ASSERT_EQ(Or.Halt, HaltReason::Exited);
  EXPECT_LE(Or.LoadMisses, 16u) << "next-miss lookahead hides the walk";
  EXPECT_LT(Or.LoadMisses, Px.LoadMisses);
  EXPECT_GT(Or.PrefetchUseful, 1000u);
}

//===----------------------------------------------------------------------===//
// Static seeds
//===----------------------------------------------------------------------===//

TEST(PrefetchSeed, HintsClassifyStrideAndPointerLoads) {
  auto M = test::compileOrDie(
      "struct Node { int val; struct Node *next; };"
      "struct Node *head;"
      "int arr[4096];"
      "int main() {"
      "  int i; int sum; struct Node *n; sum = 0;"
      "  for (i = 0; i < 4096; i = i + 1) sum = sum + arr[i];"
      "  for (i = 4095; i >= 0; i = i - 1) sum = sum + arr[i];"
      "  for (n = head; n != 0; n = n->next) sum = sum + n->val;"
      "  return sum; }",
      1); // -O1: register promotion exposes the n = n->next recurrence
  ASSERT_TRUE(M);
  masm::Layout L(*M);
  classify::ModuleAnalysis MA(*M);
  prefetch::HintMap Hints =
      prefetch::buildStaticHints(*M, L, MA.loadPatterns());

  size_t AscendingStrides = 0, DescendingStrides = 0, Pointers = 0;
  for (const auto &[Ref, H] : Hints) {
    if (H.Class == prefetch::PatternClass::Stride && H.StrideBytes == 4)
      ++AscendingStrides;
    if (H.Class == prefetch::PatternClass::Stride && H.StrideBytes == -4)
      ++DescendingStrides;
    if (H.Class == prefetch::PatternClass::Pointer)
      ++Pointers;
  }
  EXPECT_GT(AscendingStrides, 0u)
      << "the arr[i] walk must seed a +4 stride";
  EXPECT_GT(DescendingStrides, 0u)
      << "the descending arr[i] walk must seed a -4 stride";
  EXPECT_GT(Pointers, 0u) << "the n->next chase must seed a pointer entry";
}

TEST(PrefetchSeed, PolicyNamesRoundTrip) {
  prefetch::Policy P = prefetch::Policy::None;
  EXPECT_TRUE(prefetch::policyFromString("pcax", P));
  EXPECT_EQ(P, prefetch::Policy::Pcax);
  EXPECT_TRUE(prefetch::policyFromString("nextline", P));
  EXPECT_EQ(P, prefetch::Policy::NextLine);
  EXPECT_TRUE(prefetch::policyFromString("none", P));
  EXPECT_EQ(P, prefetch::Policy::None);
  EXPECT_FALSE(prefetch::policyFromString("oracle", P))
      << "internal modes are not user-selectable";
  EXPECT_FALSE(prefetch::policyFromString("record", P));
  EXPECT_STREQ(prefetch::policyName(prefetch::Policy::Oracle), "oracle");
}

} // namespace
