// In-memory span recorder for the benchmark's traced reps.
//
// Spans are taken only on the benchmark's main thread, around its own calls
// into the library (Deployment ctor, warm-up, launch, run, check, dtor);
// probe closures that run on backend threads write into preallocated slots
// and are turned into spans after the run has quiesced. Nothing is written
// until the rep ends, when the spans go out as one JSON array in the rep's
// result line; run.py merges every traced rep of a run into one Chrome
// trace-event file.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds since the first call in this process.
[[nodiscard]] std::uint64_t mono_ns();

/// Wall-clock (Unix epoch) nanoseconds at which mono_ns() reads 0, so spans
/// of separate processes can share one timeline.
[[nodiscard]] std::uint64_t mono_origin_unix_ns();

struct Span {
  std::string name;
  std::uint64_t id{0};
  std::uint64_t parent{0};  ///< 0 = top level
  std::uint64_t start_ns{0};
  std::uint64_t end_ns{0};
  /// Thread lane: 0 is the benchmark's main thread, 1 + pid a probe hosted
  /// by deployment process `pid`.
  int lane{0};
  std::string args;  ///< preformatted JSON members ("\"k\": 1"), or empty
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a main-thread span; returns its id (0 when tracing is off).
  std::uint64_t begin(std::string name, std::uint64_t parent);
  /// Closes the span `id` opened by begin(), attaching `args`.
  void end(std::uint64_t id, std::string args = {});
  /// Records an already-complete span (probe results).
  void add(Span s);

  /// Every span as a JSON array.
  [[nodiscard]] std::string to_json() const;

 private:
  bool enabled_;
  std::uint64_t next_id_{1};
  std::vector<Span> spans_;
};

/// Main-thread span covering one C++ scope.
class Scope {
 public:
  Scope(Tracer& t, std::string name, std::uint64_t parent)
      : t_(t), id_(t.begin(std::move(name), parent)) {}
  ~Scope() { t_.end(id_, std::move(args_)); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }
  void set_args(std::string args) { args_ = std::move(args); }

 private:
  Tracer& t_;
  std::uint64_t id_;
  std::string args_;
};

}  // namespace perfbench
