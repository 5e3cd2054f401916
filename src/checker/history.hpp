// Operation-history recording and consistency checking.
//
// Harnesses record every operation invocation/response into a HistoryLog,
// which verifies the paper's correctness conditions as the run goes:
//
//   safety     (Section 2.2): a READ not concurrent with any WRITE returns
//                the value of the last preceding WRITE (or the initial value).
//   regularity (Section 2.2): (1) every returned value was written (or is
//                the initial value), (2) a READ succeeding WRITE_k returns
//                val_l with l >= k, (3) a READ returning val_k (k >= 1) does
//                not precede WRITE_k.
//   atomicity  (for the ABD baseline): regularity + no new-old inversion
//                between non-concurrent READs (sufficient for SWMR
//                registers).
//
// Writes are identified by their writer timestamps (1, 2, 3, ...); the
// initial value is timestamp 0.
//
// Reporting rules. They fix the violation strings and their order, not
// which histories pass:
//   - well-formedness first: writer-timestamp density in invocation order,
//     then client overlaps grouped by client (writer, then readers by index);
//   - then one entry per violating read, in log order. Regularity checks
//     condition (2), then (1), then (3), and reports only the first that
//     fails ((2) and (3) cannot both fail: the writer is sequential);
//   - atomicity inversions last, one per late read, naming its strongest
//     preceding read: highest ts, then earliest response, then log order.
// tests/reference_checker.hpp states the same rules as direct scans over a
// complete history; the tests require byte-identical reports from both.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace rr::checker {

struct StreamState;  // the streaming verifier (history.cpp)

/// Which register property a log verifies. Mirrors harness::Semantics
/// without depending on the harness layer.
enum class Property { Safe, Regular, Atomic };

/// Residency observability for one log (with window 0 `retired` is 0 and
/// `peak_live` is simply the total).
struct WindowStats {
  std::size_t window{0};       ///< retirement batch size (0 = retain all)
  std::uint64_t retired{0};    ///< ops verified and retired so far
  std::uint64_t peak_live{0};  ///< high-watermark of resident (unretired) ops
  std::uint64_t live{0};       ///< currently resident ops
};

struct OpRecord {
  enum class Kind { Write, Read };

  Kind kind{Kind::Write};
  int client{0};  ///< reader index, or -1 for the writer
  Time invoked_at{0};
  Time responded_at{0};
  bool complete{false};

  /// Writes: the timestamp/value written. Reads: the timestamp/value
  /// returned (ts 0 = initial value).
  Ts ts{0};
  Value value{};
};

/// Result of a consistency check; empty `violations` means the property
/// holds on the given history.
struct CheckReport {
  std::vector<std::string> violations;
  int reads_checked{0};
  int writes_checked{0};

  [[nodiscard]] bool ok() const { return violations.empty(); }
  [[nodiscard]] std::string summary() const;
};

/// Thread-safe operation log and streaming checker (shared by the simulator
/// harnesses and the threaded runtime).
///
/// Ops are appended in invocation order. With a nonzero window, once every
/// op that could overlap the oldest resident op has completed, that op is
/// verified online and retired, so steady-state memory is O(window +
/// in-flight) and a soak can run forever. Retirement is attempted whenever
/// at least `window` ops are resident; an op is only retired once nothing
/// live or future can overlap it, so a stuck (incomplete) op pins the
/// window. Window 0 retains every op and never retires.
class HistoryLog {
 public:
  /// `property` is what retirement verifies. It is fixed for the log's
  /// lifetime because retired ops are gone; with window 0 it is unused.
  explicit HistoryLog(std::size_t window = 0,
                      Property property = Property::Regular);
  ~HistoryLog();
  HistoryLog(const HistoryLog&) = delete;
  HistoryLog& operator=(const HistoryLog&) = delete;

  /// Returns an opaque handle to later mark completion. For writes,
  /// `intended_value` records the value being written so that a write left
  /// incomplete by a crash can still be matched against concurrent reads.
  std::size_t record_invocation(OpRecord::Kind kind, int client, Time at,
                                Value intended_value = {});
  void record_write_response(std::size_t handle, Time at, Ts ts,
                             const Value& value);
  void record_read_response(std::size_t handle, Time at, const TsVal& tsval);

  [[nodiscard]] WindowStats window_stats() const;

  /// Well-formedness plus `property` over the whole history: the retired
  /// prefix's verdict continued over the residual ops. Requires window 0 or
  /// the constructed property. Const: may be called repeatedly, always over
  /// the current state.
  [[nodiscard]] CheckReport check(Property property) const;

  /// Residual (unretired) ops. With window 0 this is the full history.
  [[nodiscard]] std::vector<OpRecord> snapshot() const;
  /// Total ops ever recorded (including retired).
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t recorded_total() const;
  [[nodiscard]] std::size_t completed_total() const;

  /// Order-exact fold over the full history (retired prefix's running fold
  /// continued over the residual), seeded with kHistoryFpSeed. Independent
  /// of the window -- the sweep's DES fingerprints rely on it.
  [[nodiscard]] std::uint64_t history_fingerprint() const;

 private:
  void maybe_retire_locked();

  mutable std::mutex mu_;
  std::deque<OpRecord> ops_;     ///< residual ops; front is the oldest
  std::size_t retired_base_{0};  ///< handles below this index are retired
  std::size_t recorded_{0};
  std::size_t completed_{0};
  std::uint64_t peak_live_{0};
  std::unique_ptr<StreamState> stream_;
};

/// Seed of the per-log history fingerprint fold (arbitrary nonzero).
inline constexpr std::uint64_t kHistoryFpSeed = 0x243f6a8885a308d3ULL;

/// Human-readable one-line rendering of an op, as violation messages quote
/// it.
[[nodiscard]] std::string describe_op(const OpRecord& op);

}  // namespace rr::checker
