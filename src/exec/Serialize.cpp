//===- exec/Serialize.cpp -------------------------------------------------------//

#include "exec/Serialize.h"

#include <cstring>

using namespace dlq;
using namespace dlq::exec;

void ByteWriter::f64(double V) {
  uint64_t Bits;
  std::memcpy(&Bits, &V, sizeof(Bits));
  u64(Bits);
}

bool ByteReader::u8(uint8_t &V) {
  if (remaining() < 1)
    return false;
  V = *P++;
  return true;
}

bool ByteReader::u32(uint32_t &V) {
  if (remaining() < 4)
    return false;
  V = 0;
  for (int I = 0; I != 4; ++I)
    V |= static_cast<uint32_t>(*P++) << (8 * I);
  return true;
}

bool ByteReader::u64(uint64_t &V) {
  uint32_t Lo, Hi;
  if (!u32(Lo) || !u32(Hi))
    return false;
  V = Lo | (static_cast<uint64_t>(Hi) << 32);
  return true;
}

bool ByteReader::i32(int32_t &V) {
  uint32_t U;
  if (!u32(U))
    return false;
  V = static_cast<int32_t>(U);
  return true;
}

bool ByteReader::f64(double &V) {
  uint64_t Bits;
  if (!u64(Bits))
    return false;
  std::memcpy(&V, &Bits, sizeof(V));
  return true;
}

bool ByteReader::str(std::string &S) {
  uint64_t N;
  if (!u64(N) || N > remaining())
    return false;
  S.assign(reinterpret_cast<const char *>(P), static_cast<size_t>(N));
  P += N;
  return true;
}

bool ByteReader::vecU64(std::vector<uint64_t> &V) {
  uint64_t N;
  if (!u64(N) || N > remaining() / 8)
    return false;
  V.resize(static_cast<size_t>(N));
  for (uint64_t &X : V)
    if (!u64(X))
      return false;
  return true;
}

void exec::writeRunResult(ByteWriter &W, const sim::RunResult &R) {
  W.u8(static_cast<uint8_t>(R.Halt));
  W.str(R.TrapMessage);
  W.i32(R.ExitCode);
  W.str(R.Output);
  W.u64(R.InstrsExecuted);
  W.u64(R.DataAccesses);
  W.u64(R.LoadMisses);
  W.u64(R.StoreMisses);
  W.u64(R.PrefetchesIssued);
  W.u64(R.PrefetchFills);
  W.vecU64(R.ExecCounts);
  W.vecU64(R.MissCounts);
  W.u64(R.FlatMap.size());
  for (const masm::InstrRef &Ref : R.FlatMap) {
    W.u32(Ref.FuncIdx);
    W.u32(Ref.InstrIdx);
  }
  // Prefetch-engine accounting rides at the tail, so any payload written
  // before these fields existed fails to parse and is recomputed.
  W.u64(R.PrefetchUseful);
  W.u64(R.PrefetchLate);
  W.u64(R.PrefetchPerPc.size());
  for (const sim::RunResult::PcPrefetch &P : R.PrefetchPerPc) {
    W.u32(P.FlatPc);
    W.u64(P.Issued);
    W.u64(P.Useful);
    W.u64(P.Late);
  }
}

bool exec::readRunResult(ByteReader &R, sim::RunResult &Out) {
  uint8_t Halt;
  if (!R.u8(Halt) || Halt > static_cast<uint8_t>(sim::HaltReason::Trapped))
    return false;
  Out.Halt = static_cast<sim::HaltReason>(Halt);
  if (!R.str(Out.TrapMessage) || !R.i32(Out.ExitCode) || !R.str(Out.Output) ||
      !R.u64(Out.InstrsExecuted) || !R.u64(Out.DataAccesses) ||
      !R.u64(Out.LoadMisses) || !R.u64(Out.StoreMisses) ||
      !R.u64(Out.PrefetchesIssued) || !R.u64(Out.PrefetchFills) ||
      !R.vecU64(Out.ExecCounts) || !R.vecU64(Out.MissCounts))
    return false;
  uint64_t N;
  if (!R.u64(N) || N > R.remaining() / 8)
    return false;
  Out.FlatMap.resize(static_cast<size_t>(N));
  for (masm::InstrRef &Ref : Out.FlatMap)
    if (!R.u32(Ref.FuncIdx) || !R.u32(Ref.InstrIdx))
      return false;
  if (!R.u64(Out.PrefetchUseful) || !R.u64(Out.PrefetchLate))
    return false;
  uint64_t NPf;
  if (!R.u64(NPf) || NPf > R.remaining() / 28)
    return false;
  Out.PrefetchPerPc.resize(static_cast<size_t>(NPf));
  for (sim::RunResult::PcPrefetch &P : Out.PrefetchPerPc)
    if (!R.u32(P.FlatPc) || !R.u64(P.Issued) || !R.u64(P.Useful) ||
        !R.u64(P.Late))
      return false;
  // A well-formed payload has one counter per instruction.
  return Out.ExecCounts.size() == Out.FlatMap.size() &&
         Out.MissCounts.size() == Out.FlatMap.size();
}
