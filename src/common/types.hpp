// Core value types shared by every protocol in the library.
//
// Terminology follows Guerraoui & Vukolic, "How Fast Can a Very Robust Read
// Be?" (PODC 2006): the storage emulates a single-writer multi-reader (SWMR)
// register over S base objects, of which at most t may fail and at most b of
// those failures may be arbitrary (Byzantine).
#pragma once

#include <algorithm>
#include <bit>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/assert.hpp"

namespace rr {

/// Writer timestamp. Timestamp 0 is reserved for the initial value (bottom).
using Ts = std::uint64_t;

/// Reader timestamp (the control data readers store into base objects).
using ReaderTs = std::uint64_t;

/// Virtual time in nanoseconds (discrete-event simulator clock).
using Time = std::uint64_t;

/// Identifies one register instance in a sharded deployment. A classic
/// single-register emulation is shard 0 of a 1-shard deployment; sharded
/// deployments host K independent SWMR registers over the same base
/// objects, each with its own writer and reader set.
using RegisterId = std::uint32_t;

/// Opaque register contents. The initial register value ("bottom", the paper's
/// special value that is not a valid WRITE input) is represented by the empty
/// payload at timestamp 0; see TsVal::is_bottom().
using Value = std::string;

/// A timestamp-value pair <ts, v>: the unit the writer pre-writes (the paper's
/// "pw" field contents).
struct TsVal {
  Ts ts{0};
  Value val{};

  /// The register's initial content: <0, bottom>.
  [[nodiscard]] static TsVal bottom() { return TsVal{}; }
  [[nodiscard]] bool is_bottom() const { return ts == 0; }

  friend bool operator==(const TsVal&, const TsVal&) = default;
  friend auto operator<=>(const TsVal&, const TsVal&) = default;
};

/// One base object's vector of reader timestamps, indexed by reader id
/// (the paper's tsr[1..R] field). Size R.
using TsrRow = std::vector<ReaderTs>;

/// The array-of-arrays of reader timestamps the writer collects in its first
/// (PW) round and embeds into the written tuple (the paper's tsrarray,
/// indexed [1..S][1..R]). Row i is nil when object i's PW_ACK was not among
/// the S-t the writer awaited.
///
/// Every tuple-carrying message copies one of these (PW and W fan-out,
/// history slots, reader candidates), so the layout is flat: S rows of one
/// common width R in a single contiguous block of S x R cells, nil rows
/// zero-filled, plus a presence mask. A copy is one allocation and `==` is
/// a comparison of contiguous memory. The width is that of the engaged rows
/// (0 while none is): rows cannot be ragged. S is at most 64, the bound the
/// readers' conflict-graph masks already impose.
class TsrArray {
 public:
  static constexpr std::size_t kMaxRows = 64;

  TsrArray() = default;
  /// S rows, all nil.
  explicit TsrArray(std::size_t rows) { reset(rows); }

  /// S, the row count.
  [[nodiscard]] std::size_t size() const { return rows_; }
  /// R, the width of the engaged rows (0 when no row is engaged).
  [[nodiscard]] std::size_t readers() const { return width_; }
  [[nodiscard]] bool has_row(std::size_t i) const {
    return i < rows_ && ((mask_ >> i) & 1U) != 0;
  }
  /// Number of engaged rows.
  [[nodiscard]] int engaged() const { return std::popcount(mask_); }
  /// Cell (i, j); 0 -- "no conflict evidence" -- for a nil row or an index
  /// outside S x R, so conflict checks need no shape tests of their own.
  [[nodiscard]] ReaderTs at(std::size_t i, std::size_t j) const {
    return i < rows_ && j < width_ ? cells_[i * width_ + j] : 0;
  }
  /// Row i's R cells (all zero when the row is nil).
  [[nodiscard]] std::span<const ReaderTs> row(std::size_t i) const {
    RR_ASSERT(i < rows_);
    return {cells_.data() + i * width_, width_};
  }

  /// All rows nil again; keeps the cell capacity for the next fill.
  void reset(std::size_t rows) {
    RR_ASSERT_MSG(rows <= kMaxRows, "a tsrarray holds at most 64 rows");
    rows_ = static_cast<std::uint32_t>(rows);
    width_ = 0;
    mask_ = 0;
    cells_.clear();
  }

  /// Engages row i with `width` cells, zeroed, and returns them for the
  /// caller to fill. The first engaged row sets R; later rows must match it.
  std::span<ReaderTs> engage_row(std::size_t i, std::size_t width) {
    RR_ASSERT(i < rows_);
    if (mask_ == 0) {
      width_ = static_cast<std::uint32_t>(width);
      cells_.assign(rows_ * width, 0);
    }
    RR_ASSERT_MSG(width == width_, "tsrarray rows must share one width");
    mask_ |= std::uint64_t{1} << i;
    const std::span<ReaderTs> cells{cells_.data() + i * width_, width_};
    std::fill(cells.begin(), cells.end(), ReaderTs{0});
    return cells;
  }

  /// Row i becomes `row`, truncated or zero-padded to `width` cells.
  void set_row(std::size_t i, std::span<const ReaderTs> row,
               std::size_t width) {
    const auto cells = engage_row(i, width);
    std::copy_n(row.begin(), std::min(row.size(), width), cells.begin());
  }
  void set_row(std::size_t i, std::span<const ReaderTs> row) {
    set_row(i, row, row.size());
  }

  /// Appends row S+1 (nil for nullopt).
  void push_back(const std::optional<TsrRow>& row) {
    RR_ASSERT_MSG(rows_ < kMaxRows, "a tsrarray holds at most 64 rows");
    ++rows_;
    cells_.resize(rows_ * width_, 0);
    if (row) set_row(rows_ - 1, *row);
  }

  friend bool operator==(const TsrArray&, const TsrArray&) = default;

 private:
  std::uint32_t rows_{0};
  std::uint32_t width_{0};
  std::uint64_t mask_{0};          ///< bit i set = row i engaged
  std::vector<ReaderTs> cells_{};  ///< rows_ x width_, row-major
};

/// The full tuple stored in an object's "w" field: <tsval, tsrarray>.
/// Candidate values in the read protocol range over WTuples.
struct WTuple {
  TsVal tsval{};
  TsrArray tsrarray{};

  friend bool operator==(const WTuple&, const WTuple&) = default;
};

/// Initial tsrarray: all entries nil.
[[nodiscard]] inline TsrArray init_tsrarray(std::size_t num_objects) {
  return TsrArray(num_objects);
}

/// Initial w-field tuple w0 = <<0, bottom>, inittsrarray>.
[[nodiscard]] inline WTuple initial_wtuple(std::size_t num_objects) {
  return WTuple{TsVal::bottom(), init_tsrarray(num_objects)};
}

/// Resilience configuration of a storage emulation.
///
/// Invariants (checked by validate()): b >= 1 (the paper assumes b > 0;
/// crash-only configurations are expressed by the ABD baseline), b <= t,
/// and num_objects >= 2t + b + 1 (the optimal-resilience lower bound of
/// Martin, Alvisi & Dahlin, except for the lower-bound module which
/// deliberately instantiates infeasible configurations).
struct Resilience {
  int num_objects{0};  ///< S
  int t{0};            ///< max faulty base objects
  int b{0};            ///< max arbitrary-faulty base objects (b <= t)
  int num_readers{1};  ///< R

  [[nodiscard]] static Resilience optimal(int t, int b, int num_readers = 1) {
    return Resilience{2 * t + b + 1, t, b, num_readers};
  }

  /// Size of the quorum a client awaits per round: S - t.
  [[nodiscard]] int quorum() const { return num_objects - t; }

  /// True when the configuration satisfies the feasibility bound S >= 2t+b+1.
  [[nodiscard]] bool feasible() const {
    return num_objects >= 2 * t + b + 1;
  }

  [[nodiscard]] bool valid() const {
    return t >= 1 && b >= 0 && b <= t && num_objects >= 1 &&
           num_readers >= 1 && quorum() >= 1;
  }

  friend bool operator==(const Resilience&, const Resilience&) = default;
};

/// Identifies the role of a process in the emulation.
enum class Role : std::uint8_t { Writer, Reader, Object };

[[nodiscard]] constexpr const char* to_string(Role r) {
  switch (r) {
    case Role::Writer: return "writer";
    case Role::Reader: return "reader";
    case Role::Object: return "object";
  }
  return "?";
}

/// Flat process identifier used by both runtimes. The conventional layout for
/// a deployment with R readers and S objects is: writer = 0, readers =
/// 1..R, objects = R+1..R+S (see Topology).
using ProcessId = std::int32_t;

constexpr ProcessId kNoProcess = -1;

/// Maps between (role, index) pairs and flat ProcessIds for the standard
/// single-writer deployment.
class Topology {
 public:
  Topology(int num_readers, int num_objects)
      : num_readers_(num_readers), num_objects_(num_objects) {}

  [[nodiscard]] ProcessId writer() const { return 0; }
  [[nodiscard]] ProcessId reader(int j) const { return 1 + j; }  // j in [0,R)
  [[nodiscard]] ProcessId object(int i) const {                  // i in [0,S)
    return 1 + num_readers_ + i;
  }

  [[nodiscard]] int num_readers() const { return num_readers_; }
  [[nodiscard]] int num_objects() const { return num_objects_; }
  [[nodiscard]] int num_processes() const {
    return 1 + num_readers_ + num_objects_;
  }

  [[nodiscard]] Role role_of(ProcessId p) const {
    if (p == 0) return Role::Writer;
    if (p <= num_readers_) return Role::Reader;
    return Role::Object;
  }
  /// Reader index of a reader ProcessId.
  [[nodiscard]] int reader_index(ProcessId p) const { return p - 1; }
  /// Object index of an object ProcessId.
  [[nodiscard]] int object_index(ProcessId p) const {
    return p - 1 - num_readers_;
  }
  [[nodiscard]] bool is_object(ProcessId p) const {
    return p > num_readers_ && p < num_processes();
  }

 private:
  int num_readers_;
  int num_objects_;
};

}  // namespace rr
