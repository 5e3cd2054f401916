#include "checker/history.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace rr::checker {

namespace {

using Kind = OpRecord::Kind;

std::uint64_t fp_fold(std::uint64_t h, std::uint64_t v) { return mix64(h ^ v); }

std::uint64_t fp_fold_bytes(std::uint64_t h, const std::string& s) {
  h = fp_fold(h, s.size());
  // FNV-1a over the payload, folded in as one word: cheap and enough to
  // catch any payload divergence.
  std::uint64_t f = 1469598103934665603ULL;
  for (const unsigned char c : s) f = (f ^ c) * 1099511628211ULL;
  return fp_fold(h, f);
}

std::uint64_t fp_fold_op(std::uint64_t h, const OpRecord& op) {
  h = fp_fold(h, (op.kind == Kind::Write ? 1u : 2u) ^
                     (static_cast<std::uint64_t>(
                          static_cast<std::uint32_t>(op.client))
                      << 8));
  h = fp_fold(h, op.invoked_at);
  h = fp_fold(h, op.responded_at);
  h = fp_fold(h, op.complete ? op.ts : ~std::uint64_t{0});
  h = fp_fold_bytes(h, op.value);
  return h;
}

/// op1 (complete) precedes op2 iff op1 responded before op2 was invoked.
bool precedes(const OpRecord& op1, const OpRecord& op2) {
  return op1.complete && op1.responded_at < op2.invoked_at;
}

/// Retired-read skyline entry for atomicity (see StreamState).
struct ReadMark {
  Time responded{0};
  Ts ts{0};
  std::string desc;  ///< describe_op() of the read, for inversion messages
};
using Skyline = std::deque<ReadMark>;

/// Max-ts read that responded before `before`.
const ReadMark* skyline_query(const Skyline& sky, Time before) {
  auto it = std::partition_point(
      sky.begin(), sky.end(),
      [before](const ReadMark& m) { return m.responded < before; });
  if (it == sky.begin()) return nullptr;
  return &*(it - 1);
}

void skyline_insert(Skyline& sky, const OpRecord& rd) {
  // Dominated by an existing mark (earlier-or-equal response, >= ts)?
  if (const auto* m = skyline_query(sky, rd.responded_at + 1);
      m && m->ts >= rd.ts) {
    return;
  }
  // Remove marks the new one dominates, then insert; the skyline stays
  // responded-ascending and ts-ascending.
  auto it = std::partition_point(
      sky.begin(), sky.end(),
      [&rd](const ReadMark& m) { return m.responded < rd.responded_at; });
  while (it != sky.end() && it->ts <= rd.ts) it = sky.erase(it);
  sky.insert(it, ReadMark{rd.responded_at, rd.ts, describe_op(rd)});
}

/// Per-client tail for the overlap half of well-formedness. Keyed {0,
/// client} for writers and {1, client} for readers, so walking the map
/// yields the writer first, then readers by index.
struct ClientTail {
  OpRecord last{};
  bool has{false};
  std::vector<std::string> violations;
};
using ClientTails = std::map<std::pair<int, int>, ClientTail>;

/// The accumulating part of a verdict: what retirement carries forward and
/// what check() continues over the residual without mutating the log.
struct Verdict {
  std::uint64_t wf_write_k{0};  ///< writer-density counter (writes consumed)
  std::vector<std::string> wf_density;
  ClientTails clients;
  /// Read violations in log order, and atomicity inversions (reported after
  /// every read violation, so accumulated separately).
  std::vector<std::string> semantic;
  std::vector<std::string> inversions;
  std::uint64_t reads_checked{0};
  Skyline sky;  ///< atomicity only
};

/// Well-formedness, one op at a time in log order: writer timestamps dense,
/// per-client ops non-overlapping.
void wf_observe(const OpRecord& op, Verdict& v) {
  if (op.kind == Kind::Write) {
    ++v.wf_write_k;
    if (op.complete && op.ts != v.wf_write_k) {
      v.wf_density.push_back("write timestamps not dense: expected " +
                             std::to_string(v.wf_write_k) + ", " +
                             describe_op(op));
    }
  }
  auto& tail = v.clients[{op.kind == Kind::Write ? 0 : 1, op.client}];
  if (tail.has &&
      (!tail.last.complete || tail.last.responded_at > op.invoked_at)) {
    tail.violations.push_back("client ops overlap: " + describe_op(tail.last) +
                              " vs " + describe_op(op));
  }
  tail.last = op;
  tail.has = true;
}

}  // namespace

// Streaming verifier.
//
// Ops are appended in invocation order. The *frontier* is a lower bound on
// the invocation time of every op that is still running or not yet invoked:
// min(invocation of every incomplete resident op, latest event time seen).
// Any complete op that responded strictly before the frontier can no longer
// overlap anything live or future, so once the whole residual prefix up to
// it is complete it can be verified and retired. What retirement keeps is
// O(window):
//
//   - a dense ring of the writes that reads may still legally return
//     (everything above the value floor: once a later write wholly precedes
//     every live/future op, older writes can only be returned by reads that
//     already violate regularity(2), so their payloads can be dropped);
//   - for atomicity, a "skyline" of retired reads (responded ascending, ts
//     ascending) answering "strongest read that responded before T";
//   - per-client tails for the overlap half of well-formedness, and the
//     density counter for writer timestamps;
//   - the running history-fingerprint fold over the retired prefix.
//
// With window 0 nothing retires: the ring holds every write and check()
// verifies the whole history in one pass.
struct StreamState {
  std::size_t window{0};
  Property property{Property::Regular};

  // Dense write table: invocation index k (1-based) identifies WRITE_k.
  // `ring` holds every write with k > floor_k (front is write floor_k + 1),
  // updated in place when the write completes. The front entry is the value
  // floor: the last write already known to wholly precede every op that is
  // still unverified.
  std::uint64_t writes_invoked{0};
  std::uint64_t floor_k{0};
  std::deque<OpRecord> ring;
  /// k for writes whose response is still pending (writer clients are
  /// sequential, so this stays tiny).
  std::unordered_map<std::size_t, std::uint64_t> write_k_by_handle;

  /// Absolute handles of resident incomplete ops (bounded by the number of
  /// client stations -- each runs one op at a time).
  std::vector<std::size_t> incomplete;
  Time last_seen{0};

  Verdict retired_verdict;
  std::uint64_t retired{0};
  std::uint64_t retired_fp{kHistoryFpSeed};

  void on_invocation(const OpRecord& op, std::size_t handle);
  void on_response(const OpRecord& op, std::size_t handle);
  /// Verifies and retires the longest eligible prefix of `ops` (popping from
  /// the front); returns how many ops were retired. `base` is the absolute
  /// handle of ops.front().
  std::size_t retire(std::deque<OpRecord>& ops, std::size_t base);
  /// The retired prefix's verdict continued over the residual `ops`.
  [[nodiscard]] CheckReport report(const std::deque<OpRecord>& ops,
                                   Property p) const;

 private:
  const OpRecord* write_by_k(std::uint64_t k) const;
  Ts max_preceding(Time invoked) const;
  bool has_concurrent_write(const OpRecord& rd) const;
  bool value_was_written(const OpRecord& rd, std::string* why) const;
  void compact(Time bound);
  void verify(const OpRecord& op, Property p, Verdict& v) const;
};

/// WRITE_k if it is still retained; nullptr when k is below the value floor
/// (the caller has already guaranteed k <= writes_invoked).
const OpRecord* StreamState::write_by_k(std::uint64_t k) const {
  if (k <= floor_k || k - floor_k > ring.size()) return nullptr;
  return &ring[static_cast<std::size_t>(k - floor_k - 1)];
}

/// Max ts among complete writes that precede an op invoked at `invoked`.
/// Ring writes are invocation-ordered with responses ascending over the
/// complete prefix (the writer is sequential), and every evicted write
/// precedes any op still unverified, so the ring answers the query exactly.
Ts StreamState::max_preceding(Time invoked) const {
  auto it = std::partition_point(
      ring.begin(), ring.end(), [invoked](const OpRecord& w) {
        return w.complete && w.responded_at < invoked;
      });
  if (it == ring.begin()) return 0;
  return (it - 1)->ts;
}

/// Whether any write overlaps `rd`. Candidates are writes invoked no later
/// than rd's response; among them responses ascend, so only the last can
/// fail to precede rd. Evicted writes all precede everything unverified.
bool StreamState::has_concurrent_write(const OpRecord& rd) const {
  auto it = std::partition_point(
      ring.begin(), ring.end(),
      [&rd](const OpRecord& w) { return w.invoked_at <= rd.responded_at; });
  if (it == ring.begin()) return false;
  return !precedes(*(it - 1), rd);
}

/// Regularity condition (1): the returned <ts, value> names a real write (or
/// the initial value). An incomplete write counts: its intended value is
/// recorded at invocation and may be returned by concurrent reads. A ts
/// below the value floor passes unchecked: its payload is gone, and callers
/// only ask once ts is known to be at least the latest preceding write's,
/// which is at or above the floor.
bool StreamState::value_was_written(const OpRecord& rd,
                                    std::string* why) const {
  if (rd.ts == 0) {
    if (!rd.value.empty()) {
      *why = "returned timestamp 0 with non-initial value";
      return false;
    }
    return true;
  }
  if (rd.ts > writes_invoked) {
    *why = "returned timestamp larger than any invoked write";
    return false;
  }
  const OpRecord* wr = write_by_k(rd.ts);
  if (wr != nullptr && wr->value != rd.value) {
    *why = "returned value differs from the value written at that timestamp";
    return false;
  }
  return true;
}

/// Drops summary entries that every still-unverified op is past. `bound` is
/// the invocation time of the oldest unverified op.
void StreamState::compact(Time bound) {
  while (ring.size() >= 2 && ring[0].complete && ring[1].complete &&
         ring[1].responded_at < bound) {
    ring.pop_front();
    ++floor_k;
  }
  auto& sky = retired_verdict.sky;
  while (sky.size() >= 2 && sky[1].responded < bound) sky.pop_front();
}

/// Verifies one op in log order against the write table, appending to `v`.
void StreamState::verify(const OpRecord& op, Property p, Verdict& v) const {
  wf_observe(op, v);
  if (op.kind != Kind::Read || !op.complete) return;
  const OpRecord& rd = op;
  std::string why;
  if (p == Property::Safe) {
    // Safety constrains only reads that are concurrent with no write.
    if (has_concurrent_write(rd)) return;
    ++v.reads_checked;
    const Ts last_preceding = max_preceding(rd.invoked_at);
    if (rd.ts != last_preceding) {
      v.semantic.push_back("safety: read returned ts " + std::to_string(rd.ts) +
                           " but the last preceding write has ts " +
                           std::to_string(last_preceding) + ": " +
                           describe_op(rd));
    } else if (!value_was_written(rd, &why)) {
      v.semantic.push_back("safety: " + why + ": " + describe_op(rd));
    }
    return;
  }

  ++v.reads_checked;
  if (const Ts maxp = max_preceding(rd.invoked_at); rd.ts < maxp) {
    v.semantic.push_back("regularity(2): read returned ts " +
                         std::to_string(rd.ts) + " although WRITE with ts " +
                         std::to_string(maxp) +
                         " precedes it: " + describe_op(rd));
  } else if (!value_was_written(rd, &why)) {
    v.semantic.push_back("regularity(1): " + why + ": " + describe_op(rd));
  } else if (const OpRecord* wr = rd.ts >= 1 ? write_by_k(rd.ts) : nullptr;
             wr != nullptr && precedes(rd, *wr)) {
    v.semantic.push_back(
        "regularity(3): read returned a value whose write was invoked "
        "only after the read responded: " +
        describe_op(rd));
  }

  if (p == Property::Atomic) {
    if (const auto* m = skyline_query(v.sky, rd.invoked_at);
        m != nullptr && rd.ts < m->ts) {
      v.inversions.push_back("atomicity: new-old inversion: " + m->desc +
                             " precedes " + describe_op(rd));
    }
    skyline_insert(v.sky, rd);
  }
}

void StreamState::on_invocation(const OpRecord& op, std::size_t handle) {
  last_seen = std::max(last_seen, op.invoked_at);
  incomplete.push_back(handle);
  if (op.kind == Kind::Write) {
    ++writes_invoked;
    write_k_by_handle.emplace(handle, writes_invoked);
    ring.push_back(op);
  }
}

void StreamState::on_response(const OpRecord& op, std::size_t handle) {
  last_seen = std::max(last_seen, op.responded_at);
  if (auto it = std::find(incomplete.begin(), incomplete.end(), handle);
      it != incomplete.end()) {
    *it = incomplete.back();
    incomplete.pop_back();
  }
  if (op.kind == Kind::Write) {
    const auto it = write_k_by_handle.find(handle);
    RR_ASSERT(it != write_k_by_handle.end());
    const std::uint64_t k = it->second;
    write_k_by_handle.erase(it);
    // The entry cannot have been evicted: incomplete writes block the floor.
    OpRecord* slot = const_cast<OpRecord*>(write_by_k(k));
    RR_ASSERT(slot != nullptr);
    *slot = op;
  }
}

std::size_t StreamState::retire(std::deque<OpRecord>& ops, std::size_t base) {
  // Frontier: nothing live responds before its own invocation, and nothing
  // future is invoked before the latest event already seen, so every op that
  // responded strictly before this bound is overlap-free with the rest of
  // the run.
  Time frontier = last_seen;
  for (const std::size_t h : incomplete) {
    frontier = std::min(frontier, ops[h - base].invoked_at);
  }

  std::size_t count = 0;
  while (!ops.empty()) {
    const OpRecord& op = ops.front();
    if (!op.complete || op.responded_at >= frontier) break;
    // Hold rule: a read naming a write that has not been invoked yet is
    // unverifiable -- the write may still arrive. It (and everything after
    // it) stays resident until the writer catches up or the run ends.
    if (op.kind == Kind::Read && op.ts > writes_invoked) break;

    compact(op.invoked_at);
    verify(op, property, retired_verdict);
    retired_fp = fp_fold_op(retired_fp, op);
    ++retired;
    ops.pop_front();
    ++count;
  }
  return count;
}

CheckReport StreamState::report(const std::deque<OpRecord>& ops,
                                Property p) const {
  Verdict v = retired_verdict;  // continued locally: check() stays repeatable
  for (const auto& op : ops) verify(op, p, v);

  CheckReport report;
  report.reads_checked = static_cast<int>(v.reads_checked);
  report.writes_checked = static_cast<int>(writes_invoked);
  report.violations = std::move(v.wf_density);
  for (auto& [key, tail] : v.clients) {
    for (auto& s : tail.violations) report.violations.push_back(std::move(s));
  }
  for (auto& s : v.semantic) report.violations.push_back(std::move(s));
  for (auto& s : v.inversions) report.violations.push_back(std::move(s));
  return report;
}

HistoryLog::HistoryLog(std::size_t window, Property property)
    : stream_(std::make_unique<StreamState>()) {
  stream_->window = window;
  stream_->property = property;
}

HistoryLog::~HistoryLog() = default;

std::size_t HistoryLog::record_invocation(OpRecord::Kind kind, int client,
                                          Time at, Value intended_value) {
  std::lock_guard lock(mu_);
  OpRecord rec;
  rec.kind = kind;
  rec.client = client;
  rec.invoked_at = at;
  rec.value = std::move(intended_value);
  ops_.push_back(std::move(rec));
  const std::size_t handle = recorded_++;
  peak_live_ = std::max<std::uint64_t>(peak_live_, ops_.size());
  stream_->on_invocation(ops_.back(), handle);
  return handle;
}

void HistoryLog::record_write_response(std::size_t handle, Time at, Ts ts,
                                       const Value& value) {
  std::lock_guard lock(mu_);
  RR_ASSERT(handle >= retired_base_ && handle < recorded_);
  auto& rec = ops_[handle - retired_base_];
  RR_ASSERT(rec.kind == Kind::Write && !rec.complete);
  rec.responded_at = at;
  rec.complete = true;
  rec.ts = ts;
  rec.value = value;
  ++completed_;
  stream_->on_response(rec, handle);
  maybe_retire_locked();
}

void HistoryLog::record_read_response(std::size_t handle, Time at,
                                      const TsVal& tsval) {
  std::lock_guard lock(mu_);
  RR_ASSERT(handle >= retired_base_ && handle < recorded_);
  auto& rec = ops_[handle - retired_base_];
  RR_ASSERT(rec.kind == Kind::Read && !rec.complete);
  rec.responded_at = at;
  rec.complete = true;
  rec.ts = tsval.ts;
  rec.value = tsval.val;
  ++completed_;
  stream_->on_response(rec, handle);
  maybe_retire_locked();
}

WindowStats HistoryLog::window_stats() const {
  std::lock_guard lock(mu_);
  WindowStats w;
  w.window = stream_->window;
  w.retired = stream_->retired;
  w.peak_live = peak_live_;
  w.live = ops_.size();
  return w;
}

CheckReport HistoryLog::check(Property property) const {
  std::lock_guard lock(mu_);
  // Retired ops were verified against the constructed property only;
  // checking anything else would silently skip the prefix.
  RR_ASSERT_MSG(stream_->window == 0 || property == stream_->property,
                "windowed checker was configured for a different property");
  return stream_->report(ops_, property);
}

void HistoryLog::maybe_retire_locked() {
  if (stream_->window == 0 || ops_.size() < stream_->window) return;
  retired_base_ += stream_->retire(ops_, retired_base_);
}

std::vector<OpRecord> HistoryLog::snapshot() const {
  std::lock_guard lock(mu_);
  return std::vector<OpRecord>(ops_.begin(), ops_.end());
}

std::size_t HistoryLog::size() const { return recorded_total(); }

std::size_t HistoryLog::recorded_total() const {
  std::lock_guard lock(mu_);
  return recorded_;
}

std::size_t HistoryLog::completed_total() const {
  std::lock_guard lock(mu_);
  return completed_;
}

std::uint64_t HistoryLog::history_fingerprint() const {
  std::lock_guard lock(mu_);
  std::uint64_t h = stream_->retired_fp;
  for (const auto& op : ops_) h = fp_fold_op(h, op);
  return h;
}

std::string describe_op(const OpRecord& op) {
  std::ostringstream os;
  os << (op.kind == Kind::Write ? "WRITE" : "READ") << "(client=" << op.client
     << ", ts=" << op.ts << ", value=\"" << op.value
     << "\", invoked=" << op.invoked_at << ", responded="
     << (op.complete ? std::to_string(op.responded_at) : "incomplete") << ")";
  return os.str();
}

std::string CheckReport::summary() const {
  std::ostringstream os;
  os << "reads=" << reads_checked << " writes=" << writes_checked
     << " violations=" << violations.size();
  for (const auto& v : violations) os << "\n  - " << v;
  return os.str();
}

}  // namespace rr::checker
