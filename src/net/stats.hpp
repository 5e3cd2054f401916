// Traffic statistics shared by every backend (the discrete-event simulator,
// the threaded cluster and the loopback-TCP mesh account messages through
// the same code, so experiments can compare byte/message counts across
// execution substrates).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <variant>

#include "wire/messages.hpp"

namespace rr::net {

/// Aggregate traffic statistics, broken down by message type index.
struct NetStats {
  static constexpr std::size_t kNumTypes = std::variant_size_v<wire::Message>;

  std::uint64_t messages_sent{0};
  std::uint64_t messages_delivered{0};
  std::uint64_t messages_dropped{0};  ///< sent to crashed processes
  std::uint64_t bytes_sent{0};
  // Link-fault perturbations (net::LinkFaults); zero unless a scenario
  // installs a rule. Counted by net::FaultPlane on every backend: a lost
  // message was counted as sent but never delivered; a duplicated one
  // delivers one extra copy (so delivered may exceed sent); a reordered one
  // is delivered late but exactly once.
  std::uint64_t messages_lost{0};
  std::uint64_t messages_duplicated{0};
  std::uint64_t messages_reordered{0};
  std::array<std::uint64_t, kNumTypes> messages_by_type{};
  std::array<std::uint64_t, kNumTypes> bytes_by_type{};
  // Regular-storage history shipping (zero for every other protocol):
  // slots carried by HIST_ACK replies, and how many of those replies were
  // flagged resyncs (hard-capped object evicted past a live reader's
  // watermark). Counted by account_send.
  std::uint64_t hist_slots_shipped{0};
  std::uint64_t hist_resyncs{0};

  /// Counts one send of `msg`, `bytes` long on the wire, before any fault,
  /// hold or crash decides its fate. Every backend calls this once per send.
  void account_send(const wire::Message& msg, std::size_t bytes) {
    messages_sent++;
    messages_by_type[msg.index()]++;
    bytes_sent += bytes;
    bytes_by_type[msg.index()] += bytes;
    if (const auto* ha = std::get_if<wire::HistReadAckMsg>(&msg)) {
      hist_slots_shipped += ha->history.size();
      hist_resyncs += ha->resync;
    }
  }

  /// Field-wise sum (backends that count per thread total their slots).
  NetStats& operator+=(const NetStats& o) {
    messages_sent += o.messages_sent;
    messages_delivered += o.messages_delivered;
    messages_dropped += o.messages_dropped;
    bytes_sent += o.bytes_sent;
    messages_lost += o.messages_lost;
    messages_duplicated += o.messages_duplicated;
    messages_reordered += o.messages_reordered;
    for (std::size_t i = 0; i < kNumTypes; ++i) {
      messages_by_type[i] += o.messages_by_type[i];
      bytes_by_type[i] += o.bytes_by_type[i];
    }
    hist_slots_shipped += o.hist_slots_shipped;
    hist_resyncs += o.hist_resyncs;
    return *this;
  }
};

}  // namespace rr::net
