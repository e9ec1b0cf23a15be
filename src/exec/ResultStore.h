//===- exec/ResultStore.h - persistent content-addressed result cache -------==//
//
// Part of the delinq project: reproduction of "Static Identification of
// Delinquent Loads" (CGO 2004).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An on-disk cache of experiment results, content-addressed by the FNV-1a
/// key of everything that determines the result (workload source text, input
/// id, opt level, cache geometry, analysis knobs — the pipeline computes the
/// keys, the store only moves bytes). One entry per file under the store
/// directory (default `.dlq-cache/`), named by the hex key, with a versioned
/// header and a payload checksum. Entries from other format versions,
/// truncated writes or flipped bits fail the header/checksum validation and
/// read as misses; the caller recomputes and rewrites them. Writes go
/// through a temp file + rename so a crashed run never leaves a readable
/// half entry.
///
//===----------------------------------------------------------------------===//

#ifndef DLQ_EXEC_RESULTSTORE_H
#define DLQ_EXEC_RESULTSTORE_H

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace dlq {
namespace exec {

/// Store traffic counters (all guarded by the store's mutex).
struct StoreStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Writes = 0;
  uint64_t Invalid = 0; ///< Corrupt or version-mismatched entries seen.
  uint64_t Drops = 0;   ///< Entries irrecoverably lost on the write path.
  uint64_t BytesWritten = 0; ///< Serialized entry bytes persisted.
  uint64_t BytesRead = 0;    ///< Entry bytes read back on hits.
};

class ResultStore {
public:
  /// Bump when the payload encoding of any stored result changes; older
  /// entries then read as misses and are rewritten.
  static constexpr uint32_t FormatVersion = 2;

  /// A disabled store: every lookup misses, every write is dropped.
  ResultStore() = default;

  /// A store rooted at \p Dir (created lazily on first write); \p Enabled =
  /// false yields a disabled store regardless of the directory.
  explicit ResultStore(std::string Dir, bool Enabled = true)
      : Dir(std::move(Dir)), Enabled(Enabled) {}

  bool enabled() const { return Enabled; }
  const std::string &directory() const { return Dir; }

  /// Reads the entry for \p Key into \p Payload. False on miss, corruption,
  /// or version mismatch (corrupt entries count in stats().Invalid).
  bool lookup(uint64_t Key, std::vector<uint8_t> &Payload);

  /// Persists \p Payload under \p Key; false if the write failed (the cache
  /// is best-effort, callers proceed either way).
  bool store(uint64_t Key, const std::vector<uint8_t> &Payload);

  /// The on-disk path an entry key maps to.
  std::string pathFor(uint64_t Key) const;

  StoreStats stats() const;

  /// Test-only fault injection on the publish path. `Rename` makes the
  /// tmp→final rename act as if it failed (exercising the copy fallback,
  /// as a cross-filesystem cache dir would); `RenameAndCopy` fails the
  /// fallback too, producing a counted drop. Process-global; reset to None
  /// after use.
  enum class FailureInjection { None, Rename, RenameAndCopy };
  static void injectFailure(FailureInjection F);

private:
  std::string Dir;
  bool Enabled = false;
  mutable std::mutex Mu;
  StoreStats S;
};

} // namespace exec
} // namespace dlq

#endif // DLQ_EXEC_RESULTSTORE_H
