#include "wire_probe.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "trace.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"
#include "wire/messages.hpp"

namespace perfbench {
namespace {

using namespace rr;
using namespace rr::wire;

volatile std::uint64_t g_sink = 0;

/// A message of type `idx` whose size grows with `k`: the value length for
/// the fixed-shape types, the slot count for a history reply. Returns
/// nullopt for types no benchmark workload sends.
std::optional<Message> make_message(std::size_t idx, std::size_t k,
                                    int objects, int readers) {
  const TsVal tv{41, std::string(k, 'x')};
  TsrArray arr;
  for (int i = 0; i < objects; ++i) {
    // One nil row: the writer awaits only S - t pre-write acks.
    arr.push_back(i + 1 == objects
                      ? std::nullopt
                      : std::optional<TsrRow>(TsrRow(readers, 17)));
  }
  const WTuple w{tv, arr};
  if (idx == message_index<PwMsg>()) return PwMsg{42, tv, w};
  if (idx == message_index<PwAckMsg>()) return PwAckMsg{42, TsrRow(readers, 17)};
  if (idx == message_index<WMsg>()) return WMsg{42, tv, w};
  if (idx == message_index<WAckMsg>()) return WAckMsg{42};
  if (idx == message_index<ReadMsg>()) return ReadMsg{1, 9, 0};
  if (idx == message_index<ReadAckMsg>()) return ReadAckMsg{1, 9, tv, w};
  if (idx == message_index<HistReadMsg>()) return HistReadMsg{1, 9, 0, 3};
  if (idx == message_index<HistReadAckMsg>()) {
    HistReadAckMsg m;
    m.round = 1;
    m.tsr = 9;
    m.since = 1;
    for (Ts ts = 1; ts <= k; ++ts) {
      auto& e = m.history[ts];
      const TsVal slot{ts, "v" + std::to_string(ts)};
      e.pw = slot;
      e.w = WTuple{slot, arr};
    }
    return m;
  }
  return std::nullopt;
}

/// The smallest-error knob for a target encoded size (sizes grow
/// monotonically in the knob).
std::optional<Message> sized_message(std::size_t idx, double target,
                                     int objects, int readers) {
  auto size_at = [&](std::size_t k) {
    return static_cast<double>(
        encoded_size(*make_message(idx, k, objects, readers)));
  };
  if (!make_message(idx, 0, objects, readers)) return std::nullopt;
  std::size_t lo = 0;
  std::size_t hi = 1;
  constexpr std::size_t kMaxKnob = std::size_t{1} << 16;
  while (hi < kMaxKnob && size_at(hi) < target) hi *= 2;
  while (lo < hi) {  // smallest k with size_at(k) >= target
    const std::size_t mid = lo + (hi - lo) / 2;
    if (size_at(mid) < target) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  std::size_t k = lo;
  if (k > 0 && target - size_at(k - 1) < size_at(k) - target) --k;
  return make_message(idx, k, objects, readers);
}

/// Median over trials of ns per message; each trial repeats `pass` (one
/// sweep over `n` messages) for at least 20 ms.
template <class F>
double ns_per_msg(std::size_t n, F&& pass) {
  pass();  // warm caches and allocator pools
  std::vector<double> trials;
  for (int t = 0; t < 5; ++t) {
    const std::uint64_t t0 = mono_ns();
    std::uint64_t passes = 0;
    std::uint64_t now = t0;
    do {
      pass();
      ++passes;
      now = mono_ns();
    } while (now - t0 < 20'000'000);
    trials.push_back(static_cast<double>(now - t0) /
                     static_cast<double>(passes * n));
  }
  std::sort(trials.begin(), trials.end());
  return trials[trials.size() / 2];
}

}  // namespace

std::optional<WireTimings> time_wire(const net::NetStats& mix, int objects,
                                     int readers, std::string& error) {
  std::uint64_t total_msgs = 0;
  std::uint64_t total_bytes = 0;
  for (std::size_t i = 0; i < net::NetStats::kNumTypes; ++i) {
    total_msgs += mix.messages_by_type[i];
    total_bytes += mix.bytes_by_type[i];
  }
  if (total_msgs == 0) {
    error = "wire probe: the workload sent no messages";
    return std::nullopt;
  }
  // Corpus size: up to 4096 messages, capped near 16 MiB of encoded bytes so
  // heavy history replies stay affordable.
  const double mean_all =
      static_cast<double>(total_bytes) / static_cast<double>(total_msgs);
  const auto n_target = static_cast<std::size_t>(
      std::clamp((16.0 * (1 << 20)) / std::max(mean_all, 1.0), 64.0, 4096.0));

  std::vector<Message> corpus;
  for (std::size_t i = 0; i < net::NetStats::kNumTypes; ++i) {
    const std::uint64_t c = mix.messages_by_type[i];
    if (c == 0) continue;
    const double mean = static_cast<double>(mix.bytes_by_type[i]) /
                        static_cast<double>(c);
    auto m = sized_message(i, mean, objects, readers);
    if (!m) {
      error = "wire probe: no corpus template for message type " +
              std::to_string(i);
      return std::nullopt;
    }
    const auto decoded = decode(encode(*m));
    if (!decoded || !(*decoded == *m)) {
      error = std::string("wire probe: encode/decode round trip changed a ") +
              type_name(*m);
      return std::nullopt;
    }
    const auto copies = std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(n_target) *
                                        static_cast<double>(c) /
                                        static_cast<double>(total_msgs) +
                                    0.5));
    corpus.insert(corpus.end(), copies, *m);
  }
  Rng rng(0xc0de);
  for (std::size_t i = corpus.size(); i > 1; --i) {
    std::swap(corpus[i - 1], corpus[rng.uniform(0, i - 1)]);
  }
  const std::size_t n = corpus.size();

  std::vector<std::string> encoded;
  std::string stream;
  for (const auto& m : corpus) {
    encoded.push_back(encode(m));
    stream += wrap_frame(encoded.back());
  }

  // Socket-read-sized chunks, as the mesh hands bytes to its decoders.
  constexpr std::size_t kChunk = 64 * 1024;
  auto feed_all = [&] {
    FrameDecoder dec;
    std::uint64_t frames = 0;
    const std::function<void(Message&&)> sink = [&](Message&&) { ++frames; };
    for (std::size_t off = 0; off < stream.size(); off += kChunk) {
      dec.feed(stream.data() + off, std::min(kChunk, stream.size() - off),
               sink);
    }
    return frames;
  };
  if (feed_all() != n) {
    error = "wire probe: the frame decoder lost or split corpus frames";
    return std::nullopt;
  }

  WireTimings w;
  w.encode_ns = ns_per_msg(n, [&] {
    for (const auto& m : corpus) g_sink = g_sink + encode(m).size();
  });
  w.decode_ns = ns_per_msg(n, [&] {
    for (const auto& b : encoded) g_sink = g_sink + decode(b).has_value();
  });
  w.frame_feed_ns = ns_per_msg(n, [&] { g_sink = g_sink + feed_all(); });
  w.encoded_size_ns = ns_per_msg(n, [&] {
    for (const auto& m : corpus) g_sink = g_sink + encoded_size(m);
  });
  return w;
}

}  // namespace perfbench
