// The fault plane: the one implementation of the channel perturbations that
// sim::World, runtime::Cluster and netio::Mesh apply to every send. Each
// backend keeps only its scheduling mechanism (a DES event, a mailbox or
// timer post, a socket write) and runs a send through these steps in order:
//
//   NetStats::account_send   count the send, whatever happens next
//   FaultPlane::admit        loss, then duplicate: 0, 1 or 2 copies
//   HeldChannels             a held channel buffers the copies, FIFO
//   FaultPlane::reorder      one draw per copy actually scheduled
//
// Admission and reorder stay two steps because held copies take no reorder
// draw (now or on release): deciding everything up front would shift the
// DES's link-RNG stream and every pinned DES fingerprint.
//
// The RNG is the caller's: the DES samples one stream (shared_stream) in
// event order; the threaded backends give each sender its own stream (forks
// of sender_seeder), touched only by the thread stepping that sender.
//
// One divergence stays, and pinned DES fingerprints depend on it: the
// threaded backends drop a send with a crashed endpoint before sampling any
// fault, while the DES samples faults for it like any other send and drops
// it at the hold check or at delivery.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/faults.hpp"
#include "net/stats.hpp"
#include "wire/messages.hpp"

namespace rr::net {

class FaultPlane {
 public:
  void install(const LinkFaults& lf) {
    lf_ = lf;
    enabled_ = lf.any();
  }
  /// While false, admit/reorder take no draws (callers may skip the clock).
  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] Time reorder_delay() const { return lf_.reorder_delay; }

  /// The DES's single fault-sampling stream.
  [[nodiscard]] Rng shared_stream() const {
    return Rng(mix64(lf_.seed ^ 0x11fa'0175'0000ULL));
  }
  /// Its successive fork()s are the threaded backends' per-sender streams.
  [[nodiscard]] Rng sender_seeder() const {
    return Rng(mix64(lf_.seed ^ 0x11fa'0175'0001ULL));
  }

  /// Loss, then duplicate, for one send at `now`: how many copies to carry
  /// (0 = lost; a lost message takes no duplicate draw). Counted into `st`.
  int admit(ProcessId from, ProcessId to, Time now, Rng& rng,
            NetStats& st) const {
    if (!enabled_) return 1;
    if (fires(lf_.loss, from, to, now, rng)) {
      st.messages_lost++;
      return 0;
    }
    if (!fires(lf_.duplicate, from, to, now, rng)) return 1;
    st.messages_duplicated++;
    return 2;
  }

  /// Whether one copy about to be scheduled is deferred by reorder_delay()
  /// (counted into `st`).
  bool reorder(ProcessId from, ProcessId to, Time now, Rng& rng,
               NetStats& st) const {
    if (!enabled_ || !fires(lf_.reorder, from, to, now, rng)) return false;
    st.messages_reordered++;
    return true;
  }

 private:
  static bool fires(const LinkFaultRule& r, ProcessId from, ProcessId to,
                    Time now, Rng& rng) {
    return r.active(now) && r.covers(from, to) && rng.chance(r.p);
  }

  LinkFaults lf_{};
  bool enabled_{false};
};

/// A message in transit: its sender and payload (the destination is
/// implied by the channel or mailbox it sits in).
struct Envelope {
  ProcessId from{kNoProcess};
  wire::Message msg{};
};

/// A backlog entry handed back by HeldChannels::release.
struct Released {
  ProcessId to{kNoProcess};
  Envelope env{};
};

/// Held channels ("messages remain in transit"): which channels are held and
/// each one's FIFO backlog. A crash discards adjacent backlogs while the
/// channels stay held. Backlogs are recycled vectors indexed by a flat n x n
/// cell table, so after the first hold/release wave has grown them, later
/// waves allocate nothing. Not synchronized: the threaded backends guard it
/// with their channel mutex.
class HeldChannels {
 public:
  [[nodiscard]] bool any() const { return num_held_ != 0; }
  [[nodiscard]] bool held(ProcessId from, ProcessId to) const {
    if (num_held_ == 0) return false;
    const auto f = static_cast<std::size_t>(from);
    const auto t = static_cast<std::size_t>(to);
    return f < n_ && t < n_ && cells_[f * n_ + t] != kFree;
  }

  void hold(ProcessId from, ProcessId to) {
    RR_ASSERT(from >= 0 && to >= 0);
    cover(static_cast<std::size_t>(std::max(from, to)) + 1);
    std::uint32_t& c = cell(from, to);
    if (c != kFree) return;
    c = kEmpty;
    ++num_held_;
  }

  /// Both directions of every channel between `pid` and the other n - 1
  /// processes; the never-used self-channel pid -> pid stays free.
  void hold_all(ProcessId pid, int n) {
    cover(static_cast<std::size_t>(n));
    for (ProcessId q = 0; q < n; ++q) {
      if (q == pid) continue;
      hold(pid, q);
      hold(q, pid);
    }
  }

  /// Appends `copies` copies of `msg` to the held channel from -> to.
  void push(ProcessId from, ProcessId to, wire::Message msg, int copies) {
    RR_ASSERT(held(from, to));
    std::uint32_t& c = cell(from, to);
    if (c == kEmpty) {
      if (free_.empty()) {
        c = static_cast<std::uint32_t>(pool_.size());
        pool_.emplace_back();
      } else {
        c = free_.back();
        free_.pop_back();
      }
    }
    auto& backlog = pool_[c];
    for (int i = 1; i < copies; ++i) backlog.push_back(Envelope{from, msg});
    backlog.push_back(Envelope{from, std::move(msg)});
  }

  /// Un-holds from -> to (no-op when not held), appending its backlog in
  /// send order to `out`.
  void release(ProcessId from, ProcessId to, std::vector<Released>& out) {
    if (!held(from, to)) return;
    std::uint32_t& c = cell(from, to);
    if (c != kEmpty) {
      for (auto& env : pool_[c]) out.push_back(Released{to, std::move(env)});
      discard(c);
    }
    c = kFree;
    --num_held_;
  }

  /// release(pid, q) then release(q, pid) for ascending q: the DES draws
  /// fresh delays for the backlogs in exactly this order.
  void release_all(ProcessId pid, std::vector<Released>& out) {
    for (ProcessId q = 0; q < static_cast<ProcessId>(n_); ++q) {
      release(pid, q, out);
      release(q, pid, out);
    }
  }

  /// Discards the backlogs of the channels adjacent to `pid` (they stay
  /// held); returns how many messages were discarded.
  std::uint64_t crash(ProcessId pid) {
    std::uint64_t dropped = 0;
    if (static_cast<std::size_t>(pid) >= n_) return 0;
    for (ProcessId q = 0; q < static_cast<ProcessId>(n_); ++q) {
      dropped += discard(cell(pid, q));
      if (q != pid) dropped += discard(cell(q, pid));
    }
    return dropped;
  }

 private:
  static constexpr std::uint32_t kFree = ~std::uint32_t{0};  ///< not held
  static constexpr std::uint32_t kEmpty = kFree - 1;  ///< held, no backlog

  std::uint32_t& cell(ProcessId from, ProcessId to) {
    return cells_[static_cast<std::size_t>(from) * n_ +
                  static_cast<std::size_t>(to)];
  }
  /// Empties a held cell's backlog, recycling its storage; returns its size.
  std::uint64_t discard(std::uint32_t& c) {
    if (c == kFree || c == kEmpty) return 0;
    const std::uint64_t n = pool_[c].size();
    pool_[c].clear();  // keeps capacity for the next wave
    free_.push_back(c);
    c = kEmpty;
    return n;
  }
  /// Grows the cell table to cover `n` processes.
  void cover(std::size_t n) {
    if (n <= n_) return;
    std::vector<std::uint32_t> grown(n * n, kFree);
    for (std::size_t f = 0; f < n_; ++f) {
      std::copy_n(cells_.begin() + static_cast<std::ptrdiff_t>(f * n_), n_,
                  grown.begin() + static_cast<std::ptrdiff_t>(f * n));
    }
    cells_ = std::move(grown);
    n_ = n;
  }

  std::size_t n_{0};  ///< row width of cells_
  std::size_t num_held_{0};
  /// Per channel: kFree, kEmpty, or the index of its backlog in pool_.
  std::vector<std::uint32_t> cells_;
  std::vector<std::vector<Envelope>> pool_;
  std::vector<std::uint32_t> free_;  ///< recycled pool_ indices
};

}  // namespace rr::net
