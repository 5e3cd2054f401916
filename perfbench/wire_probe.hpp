// Codec timings in isolation, on a message corpus shaped like a workload.
//
// The corpus has the workload's per-type message shares and, per type, a
// message whose encoded size is as close as the type allows to the
// workload's mean (bytes_by_type / messages_by_type). Every corpus message
// must survive an encode -> decode round trip unchanged.
#pragma once

#include <optional>
#include <string>

#include "net/stats.hpp"

namespace perfbench {

struct WireTimings {
  double encode_ns{0};        ///< wire::encode, per message
  double decode_ns{0};        ///< wire::decode, per message
  double frame_feed_ns{0};    ///< FrameDecoder::feed in socket-sized chunks
  double encoded_size_ns{0};  ///< wire::encoded_size, per message
};

/// Times the codec on a corpus with the traffic mix in `mix`. `objects` and
/// `readers` size the timestamp arrays inside write tuples. On a failed
/// round trip returns nullopt and sets `error`.
[[nodiscard]] std::optional<WireTimings> time_wire(const rr::net::NetStats& mix,
                                                   int objects, int readers,
                                                   std::string& error);

}  // namespace perfbench
