//===- tests/MachineIsaTest.cpp - instruction-level executor semantics ----------//
//
// Exact semantics of each opcode family, exercised through tiny assembly
// programs whose exit code carries the observation. Parameterized tables
// cover the signed/unsigned and sign-extension corners.
//
//===----------------------------------------------------------------------===//

#include "masm/Parser.h"
#include "sim/Machine.h"
#include "support/Format.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace dlq;
using namespace dlq::masm;
using namespace dlq::sim;

namespace {

/// Runs a main body (without prologue; must set $v0 and `jr $ra`).
int32_t runBody(const std::string &Body) {
  std::string Asm = "        .text\n        .globl main\nmain:\n" + Body +
                    "        jr   $ra\n";
  auto M = test::parseAsmOrDie(Asm);
  if (!M)
    return INT32_MIN;
  Layout L(*M);
  Machine Mach(*M, L, MachineOptions());
  RunResult R = Mach.run();
  EXPECT_EQ(R.Halt, HaltReason::Exited) << R.TrapMessage << "\n" << Asm;
  return R.ExitCode;
}

struct AluCase {
  const char *Name;
  std::string Body;
  int32_t Expected;
};

// Test names print the case name, not the struct's raw bytes (which hold
// pointers and so differ between builds).
void PrintTo(const AluCase &C, std::ostream *OS) { *OS << C.Name; }

std::vector<AluCase> aluCases() {
  auto li2 = [](int32_t A, int32_t B) {
    return formatString("        li $t0, %d\n        li $t1, %d\n", A, B);
  };
  std::vector<AluCase> Cases;
  Cases.push_back({"AddWraps",
                   li2(INT32_MAX, 1) + "        add $v0, $t0, $t1\n",
                   INT32_MIN});
  Cases.push_back({"SubWraps",
                   li2(INT32_MIN, 1) + "        sub $v0, $t0, $t1\n",
                   INT32_MAX});
  Cases.push_back({"MulWraps",
                   li2(65536, 65536) + "        mul $v0, $t0, $t1\n", 0});
  Cases.push_back({"DivTruncatesTowardZero",
                   li2(-7, 2) + "        div $v0, $t0, $t1\n", -3});
  Cases.push_back({"RemSignFollowsDividend",
                   li2(-7, 2) + "        rem $v0, $t0, $t1\n", -1});
  Cases.push_back({"DivIntMinByMinusOne",
                   li2(INT32_MIN, -1) + "        div $v0, $t0, $t1\n",
                   INT32_MIN});
  Cases.push_back({"Nor", li2(0x0F, 0xF0) + "        nor $v0, $t0, $t1\n",
                   static_cast<int32_t>(~0xFFu)});
  Cases.push_back({"SltSigned", li2(-1, 1) + "        slt $v0, $t0, $t1\n",
                   1});
  Cases.push_back({"SltuUnsigned",
                   li2(-1, 1) + "        sltu $v0, $t0, $t1\n", 0});
  Cases.push_back({"SraKeepsSign",
                   li2(-64, 0) + "        sra $v0, $t0, 3\n", -8});
  Cases.push_back({"SrlZeroFills",
                   li2(-64, 0) + "        srl $v0, $t0, 28\n", 0xF});
  Cases.push_back({"SllvMasksShiftAmount",
                   li2(1, 33) + "        sllv $v0, $t0, $t1\n", 2});
  Cases.push_back({"SravVariable",
                   li2(-256, 4) + "        srav $v0, $t0, $t1\n", -16});
  Cases.push_back({"XoriZeroExtends",
                   li2(0, 0) + "        li $t0, 5\n"
                               "        xori $v0, $t0, 3\n",
                   6});
  Cases.push_back({"SltiuLogicalNotIdiom",
                   li2(0, 0) + "        sltiu $v0, $t0, 1\n", 1});
  Cases.push_back({"LuiShifts16", "        lui $v0, 5\n", 5 << 16});
  Cases.push_back({"MoveCopies",
                   li2(77, 0) + "        move $v0, $t0\n", 77});
  Cases.push_back({"ZeroRegisterIgnoresWrites",
                   "        li $zero, 99\n        move $v0, $zero\n", 0});
  return Cases;
}

} // namespace

class MachineAlu : public ::testing::TestWithParam<AluCase> {};

INSTANTIATE_TEST_SUITE_P(Ops, MachineAlu, ::testing::ValuesIn(aluCases()),
                         [](const auto &Info) { return Info.param.Name; });

TEST_P(MachineAlu, ExactResult) {
  EXPECT_EQ(runBody(GetParam().Body), GetParam().Expected);
}

//===----------------------------------------------------------------------===//
// Memory access widths and sign extension
//===----------------------------------------------------------------------===//

TEST(MachineMem, ByteSignExtension) {
  EXPECT_EQ(runBody("        li   $t0, -1\n"
                    "        sb   $t0, 0($sp)\n"
                    "        lb   $v0, 0($sp)\n"),
            -1);
  EXPECT_EQ(runBody("        li   $t0, -1\n"
                    "        sb   $t0, 0($sp)\n"
                    "        lbu  $v0, 0($sp)\n"),
            255);
}

TEST(MachineMem, HalfSignExtension) {
  EXPECT_EQ(runBody("        li   $t0, -2\n"
                    "        sh   $t0, 0($sp)\n"
                    "        lh   $v0, 0($sp)\n"),
            -2);
  EXPECT_EQ(runBody("        li   $t0, -2\n"
                    "        sh   $t0, 0($sp)\n"
                    "        lhu  $v0, 0($sp)\n"),
            65534);
}

TEST(MachineMem, NarrowStoreLeavesNeighbors) {
  EXPECT_EQ(runBody("        li   $t0, -1\n"
                    "        sw   $t0, 0($sp)\n"
                    "        li   $t1, 0\n"
                    "        sb   $t1, 1($sp)\n"
                    "        lw   $v0, 0($sp)\n"),
            static_cast<int32_t>(0xFFFF00FF));
}

//===----------------------------------------------------------------------===//
// Branches
//===----------------------------------------------------------------------===//

namespace {

struct BranchCase {
  const char *Name;
  const char *Op;
  int32_t A, B;
  bool Taken;
};

void PrintTo(const BranchCase &C, std::ostream *OS) { *OS << C.Name; }

std::vector<BranchCase> branchCases() {
  return {
      {"BeqTaken", "beq", 5, 5, true},
      {"BeqNotTaken", "beq", 5, 6, false},
      {"BneTaken", "bne", 5, 6, true},
      {"BltSignedTaken", "blt", -1, 0, true},
      {"BltSignedNotTaken", "blt", 0, -1, false},
      {"BgeEqualTaken", "bge", 3, 3, true},
      {"BleTaken", "ble", 2, 3, true},
      {"BgtNotTakenOnEqual", "bgt", 3, 3, false},
  };
}

} // namespace

class MachineBranch : public ::testing::TestWithParam<BranchCase> {};

INSTANTIATE_TEST_SUITE_P(Ops, MachineBranch,
                         ::testing::ValuesIn(branchCases()),
                         [](const auto &Info) { return Info.param.Name; });

TEST_P(MachineBranch, TakenOrNot) {
  const BranchCase &C = GetParam();
  std::string Body = formatString("        li   $t0, %d\n"
                                  "        li   $t1, %d\n"
                                  "        li   $v0, 0\n"
                                  "        %s $t0, $t1, Ltaken\n"
                                  "        jr   $ra\n"
                                  "Ltaken:\n"
                                  "        li   $v0, 1\n",
                                  C.A, C.B, C.Op);
  EXPECT_EQ(runBody(Body), C.Taken ? 1 : 0);
}

//===----------------------------------------------------------------------===//
// Indirect calls and prefetching
//===----------------------------------------------------------------------===//

TEST(MachineCalls, JalrThroughFunctionAddress) {
  auto M = test::parseAsmOrDie(R"(
        .text
        .globl target
target:
        li $v0, 42
        jr $ra
        .globl main
main:
        addi $sp, $sp, -8
        sw   $ra, 4($sp)
        la   $t0, target
        jalr $t0
        lw   $ra, 4($sp)
        addi $sp, $sp, 8
        jr   $ra
)");
  ASSERT_TRUE(M);
  Layout L(*M);
  Machine Mach(*M, L, MachineOptions());
  RunResult R = Mach.run();
  ASSERT_EQ(R.Halt, HaltReason::Exited) << R.TrapMessage;
  EXPECT_EQ(R.ExitCode, 42);
}

TEST(MachinePrefetch, NextLinePrefetchHalvesScanMisses) {
  const char *ScanAsm = R"(
        .data
arr:    .space 65536
        .text
        .globl main
main:
        li   $t0, 0
        li   $t1, 65536
        la   $t2, arr
Lhead:
        add  $t3, $t2, $t0
        lw   $t4, 0($t3)
        addi $t0, $t0, 32
        blt  $t0, $t1, Lhead
        li   $v0, 0
        jr   $ra
)";
  auto M = test::parseAsmOrDie(ScanAsm);
  ASSERT_TRUE(M);
  Layout L(*M);

  MachineOptions Plain;
  Machine M1(*M, L, Plain);
  RunResult R1 = M1.run();
  ASSERT_EQ(R1.Halt, HaltReason::Exited);
  EXPECT_EQ(R1.LoadMisses, 65536u / 32u) << "one miss per block";

  MachineOptions WithPf = Plain;
  WithPf.PrefetchLoads.insert(InstrRef{0, 4}); // The lw in the loop.
  Machine M2(*M, L, WithPf);
  RunResult R2 = M2.run();
  ASSERT_EQ(R2.Halt, HaltReason::Exited);
  EXPECT_GT(R2.PrefetchesIssued, 0u);
  // Next-line prefetch on a block-strided scan: all but the first block
  // arrive early.
  EXPECT_LE(R2.LoadMisses, 2u) << "prefetching should hide the scan";
  EXPECT_EQ(R2.ExitCode, R1.ExitCode) << "prefetching never changes results";
}

TEST(MachinePrefetch, PrefetchOnColdLoadDoesNothingUseful) {
  const char *OnceAsm = R"(
        .data
g:      .word 7
        .text
        .globl main
main:
        la  $t0, g
        lw  $v0, 0($t0)
        jr  $ra
)";
  auto M = test::parseAsmOrDie(OnceAsm);
  ASSERT_TRUE(M);
  Layout L(*M);
  MachineOptions Opts;
  Opts.PrefetchLoads.insert(InstrRef{0, 1});
  Machine Mach(*M, L, Opts);
  RunResult R = Mach.run();
  ASSERT_EQ(R.Halt, HaltReason::Exited);
  EXPECT_EQ(R.PrefetchesIssued, 1u);
  EXPECT_EQ(R.LoadMisses, 1u) << "the demand miss still happens";
}
