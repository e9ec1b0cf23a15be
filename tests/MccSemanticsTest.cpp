//===- tests/MccSemanticsTest.cpp - language-lawyer tests for MinC --------------//
//
// Precedence, associativity, conversions, aggregate layout and diagnostic
// coverage beyond the execution smoke tests in MccTest.cpp.
//
//===----------------------------------------------------------------------===//

#include "mcc/Frontend.h"
#include "support/Format.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace dlq;
using namespace dlq::mcc;

namespace {

int32_t evalExpr(const std::string &Expr) {
  std::string Program =
      formatString("int main() { print_int(%s); return 0; }", Expr.c_str());
  sim::RunResult R = test::compileAndRun(Program, 0);
  int32_t Value = 0;
  std::sscanf(R.Output.c_str(), "%d", &Value);
  return Value;
}

} // namespace

//===----------------------------------------------------------------------===//
// Precedence and associativity
//===----------------------------------------------------------------------===//

struct PrecCase {
  const char *Name;
  const char *Expr;
  int32_t Expected;
};

// Test names print the case name, not the struct's raw bytes (which hold
// pointers and so differ between builds).
void PrintTo(const PrecCase &C, std::ostream *OS) { *OS << C.Name; }

class Precedence : public ::testing::TestWithParam<PrecCase> {};

INSTANTIATE_TEST_SUITE_P(
    Matrix, Precedence,
    ::testing::Values(
        PrecCase{"MulOverAdd", "2 + 3 * 4", 14},
        PrecCase{"ShiftBelowAdd", "1 << 2 + 1", 8},
        PrecCase{"CompareBelowShift", "1 << 2 < 8", 1},
        PrecCase{"AndBelowCompare", "3 & 2 == 2", 1},
        PrecCase{"XorBetweenAndOr", "1 | 2 ^ 2 & 3", 1},
        PrecCase{"LogicalOrLowest", "0 && 1 || 1", 1},
        PrecCase{"SubLeftAssoc", "10 - 4 - 3", 3},
        PrecCase{"DivLeftAssoc", "100 / 5 / 2", 10},
        PrecCase{"ShiftLeftAssoc", "1 << 2 << 3", 32},
        PrecCase{"UnaryBindsTighter", "-2 * 3", -6},
        PrecCase{"NotOverCompare", "!0 == 1", 1},
        PrecCase{"TernaryRightAssoc", "1 ? 2 : 0 ? 3 : 4", 2},
        PrecCase{"ParensOverride", "(2 + 3) * 4", 20},
        PrecCase{"RemSamePrecAsMul", "7 % 3 * 2", 2},
        PrecCase{"BitNotOnce", "~~5", 5}),
    [](const auto &Info) { return Info.param.Name; });

TEST_P(Precedence, MatchesC) {
  EXPECT_EQ(evalExpr(GetParam().Expr), GetParam().Expected)
      << GetParam().Expr;
}

//===----------------------------------------------------------------------===//
// Conversions and layout
//===----------------------------------------------------------------------===//

TEST(MccSemantics, CharTruncatesOnStore) {
  EXPECT_EQ(evalExpr("0"), 0);
  sim::RunResult R = test::compileAndRun(
      "char c; int main() { c = 300; return c; }", 0);
  EXPECT_EQ(R.ExitCode, 44) << "300 mod 256 = 44, char stores truncate";
}

TEST(MccSemantics, CharIsSigned) {
  sim::RunResult R = test::compileAndRun(
      "char c; int main() { c = 200; return c; }", 0);
  EXPECT_EQ(R.ExitCode, 200 - 256) << "lb sign-extends";
}

TEST(MccSemantics, StructPadding) {
  auto R = parseMinC("struct S { char a; char b; int c; char d; };"
                     "int main() { return sizeof(struct S); }");
  ASSERT_TRUE(R.ok()) << R.diagText();
  StructDecl *S = R.Unit->Types.lookupStruct("S");
  ASSERT_TRUE(S);
  EXPECT_EQ(S->Fields[0].Offset, 0u);
  EXPECT_EQ(S->Fields[1].Offset, 1u);
  EXPECT_EQ(S->Fields[2].Offset, 4u) << "int aligns to 4";
  EXPECT_EQ(S->Fields[3].Offset, 8u);
  EXPECT_EQ(S->Size, 12u) << "tail padding to alignment";
}

TEST(MccSemantics, NestedStructPointers) {
  sim::RunResult R = test::compileAndRun(
      "struct Inner { int v; };"
      "struct Outer { int tag; struct Inner *in; };"
      "int main() {"
      "  struct Inner i; struct Outer o;"
      "  i.v = 41; o.tag = 1; o.in = &i;"
      "  o.in->v = o.in->v + o.tag;"
      "  return i.v; }",
      0);
  EXPECT_EQ(R.ExitCode, 42);
}

TEST(MccSemantics, ArrayDimensionsAreConstExprs) {
  sim::RunResult R = test::compileAndRun(
      "int a[4 * 8 + 2];"
      "int main() { return sizeof(int) * 0 + 34; }", 0);
  EXPECT_EQ(R.ExitCode, 34);
}

TEST(MccSemantics, MultiDeclarators) {
  sim::RunResult R = test::compileAndRun(
      "int x = 3, y = 4;"
      "int main() { int a, b; a = x; b = y; return a * 10 + b; }", 0);
  EXPECT_EQ(R.ExitCode, 34);
}

TEST(MccSemantics, GlobalConstInitializers) {
  sim::RunResult R = test::compileAndRun(
      "int a = 5 + 3;"
      "int b = 1 << 4;"
      "int c = -(2 * 3);"
      "int main() { return a + b + c; }",
      0);
  EXPECT_EQ(R.ExitCode, 8 + 16 - 6);
}

TEST(MccSemantics, VoidPointerInterchange) {
  sim::RunResult R = test::compileAndRun(
      "int main() {"
      "  int *p; void *v;"
      "  p = (int*)malloc(8);"
      "  *p = 7;"
      "  v = (void*)p;"
      "  free(v);"
      "  return 7; }",
      0);
  EXPECT_EQ(R.ExitCode, 7);
}

//===----------------------------------------------------------------------===//
// Diagnostics
//===----------------------------------------------------------------------===//

struct DiagCase {
  const char *Name;
  const char *Source;
  const char *MessagePart;
};

void PrintTo(const DiagCase &C, std::ostream *OS) { *OS << C.Name; }

class Diagnostics : public ::testing::TestWithParam<DiagCase> {};

INSTANTIATE_TEST_SUITE_P(
    Errors, Diagnostics,
    ::testing::Values(
        DiagCase{"AssignToRValue", "int main() { 1 = 2; return 0; }",
                 "not assignable"},
        DiagCase{"AddressOfLiteral", "int main() { int *p; p = &5; return 0; }",
                 "address"},
        DiagCase{"StructAssignment",
                 "struct S { int x; };"
                 "int main() { struct S a; struct S b; a = b; return 0; }",
                 "aggregate"},
        DiagCase{"RedefinedVariable",
                 "int main() { int x; int x; return 0; }", "redefinition"},
        DiagCase{"RedefinedFunction", "int f() { return 0; } int f() { return 1; }",
                 "redefinition"},
        DiagCase{"VoidVariable", "int main() { void v; return 0; }", "void"},
        DiagCase{"IncompleteStructField",
                 "struct A { struct B inner; };", "incomplete"},
        DiagCase{"NegativeArraySize", "int a[0]; int main() { return 0; }",
                 "positive"},
        DiagCase{"TooManyParams",
                 "int f(int a, int b, int c, int d, int e) { return 0; }"
                 "int main() { return 0; }",
                 "at most 4"},
        DiagCase{"BreakOutsideLoop", "int main() { break; return 0; }",
                 "break"},
        DiagCase{"ReturnValueFromVoid",
                 "void f() { return 3; } int main() { return 0; }",
                 "void function"},
        DiagCase{"PointerTimesInt",
                 "int main() { int *p; int x; x = p * 2; return x; }",
                 "invalid operands"},
        DiagCase{"NonConstGlobalInit",
                 "int g = 5; int h = g; int main() { return h; }",
                 "constant"}),
    [](const auto &Info) { return Info.param.Name; });

TEST_P(Diagnostics, RejectedWithMessage) {
  const DiagCase &C = GetParam();
  mcc::CompileResult R = mcc::compile(C.Source);
  EXPECT_FALSE(R.ok()) << C.Source;
  EXPECT_NE(R.Errors.find(C.MessagePart), std::string::npos)
      << "diagnostics were:\n"
      << R.Errors;
}

//===----------------------------------------------------------------------===//
// Register promotion specifics (-O1)
//===----------------------------------------------------------------------===//

TEST(MccO1, AddressTakenVariablesStayInMemory) {
  // &x forces x to a stack slot even at -O1; the pointer write must be
  // visible through direct reads of x.
  sim::RunResult R = test::compileAndRun("int main() {"
                                         "  int x; int *p;"
                                         "  x = 1; p = &x; *p = 42;"
                                         "  return x; }",
                                         1);
  EXPECT_EQ(R.ExitCode, 42);
}

TEST(MccO1, PromotionSurvivesCalls) {
  // Promoted locals live in callee-saved registers: values must survive
  // deep call chains that clobber everything caller-saved.
  sim::RunResult R = test::compileAndRun(
      "int chew(int n) {"
      "  int a; int b; int c;"
      "  if (n == 0) return 1;"
      "  a = n * 3; b = a - n; c = chew(n - 1);"
      "  return a - b + c; }"
      "int main() {"
      "  int keep; int sum; int i;"
      "  keep = 1000; sum = 0;"
      "  for (i = 0; i < 4; i = i + 1) sum = sum + chew(3);"
      "  return keep + sum; }",
      1);
  // chew(3): a-b+chew(2) = n + chew(n-1) telescopes to 3+2+1+1 = 7.
  EXPECT_EQ(R.ExitCode, 1000 + 4 * 7);
}

TEST(MccO1, FoldsConstantConditions) {
  auto M1 = test::compileOrDie("int main() { return 2 * 3 + (4 << 2); }", 1);
  ASSERT_TRUE(M1);
  // At -O1 the whole expression folds to a single li.
  unsigned LiCount = 0;
  bool SawArith = false;
  for (const auto &I : M1->lookupFunction("main")->instrs()) {
    LiCount += I.Op == masm::Opcode::Li;
    SawArith |= I.Op == masm::Opcode::Mul || I.Op == masm::Opcode::Sllv ||
                I.Op == masm::Opcode::Add;
  }
  EXPECT_GE(LiCount, 1u);
  EXPECT_FALSE(SawArith) << "constant expression should fold at -O1";
}
