// Codec tests: round-trip of every message type, malformed-input rejection,
// and a deterministic fuzz sweep (the codec faces bytes from Byzantine
// processes, so it must never crash or over-allocate).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "wire/codec.hpp"

namespace rr::wire {
namespace {

WTuple sample_tuple() {
  WTuple t;
  t.tsval = TsVal{42, "payload"};
  t.tsrarray = init_tsrarray(4);
  t.tsrarray.set_row(1, TsrRow{1, 2, 3});
  t.tsrarray.set_row(3, TsrRow{4, 5, 6});
  return t;
}

History sample_history() {
  History h;
  h[0] = HistEntry{TsVal::bottom(), initial_wtuple(4)};
  h[7] = HistEntry{TsVal{7, "v7"}, std::nullopt};
  h[9] = HistEntry{std::nullopt, sample_tuple()};
  return h;
}

std::vector<Message> all_message_samples() {
  return {
      PwMsg{3, TsVal{3, "v3"}, sample_tuple()},
      PwAckMsg{3, TsrRow{9, 8}},
      WMsg{3, TsVal{3, "v3"}, sample_tuple()},
      WAckMsg{3},
      ReadMsg{2, 77, 5},
      ReadAckMsg{1, 77, TsVal{4, "x"}, sample_tuple()},
      HistReadAckMsg{2, 78, sample_history()},
      AbdStoreMsg{11, TsVal{2, "ab"}},
      AbdStoreAckMsg{11},
      AbdQueryMsg{12},
      AbdQueryAckMsg{12, TsVal{5, "q"}},
      BlWriteMsg{1, 6, "bl"},
      BlWriteAckMsg{2, 6},
      FwWriteMsg{7, "fw"},
      FwWriteAckMsg{7},
      PollMsg{13, 4},
      PollAckMsg{13, 4, TsVal{1, "p"}, TsVal{1, "p"}},
      AuthWriteMsg{8, "av", std::string(32, '\x01')},
      AuthWriteAckMsg{8},
      AuthReadMsg{14},
      AuthReadAckMsg{14, 8, "av", std::string(32, '\x01')},
      ScReadMsg{15},
      ScPushMsg{15, 3, TsVal{2, "s"}, TsVal{2, "s"}},
      ScGossipMsg{9, TsVal{9, "g"}, TsVal{8, "g8"}},
      ShardMsg{3, encode(Message{WAckMsg{5}})},
      HistReadMsg{1, 79, 5, 8},
  };
}

// The registry-derived index helper must agree with the variant layout the
// codec tags are built from (benches key JSON per-type stats off it).
static_assert(message_index<PwMsg>() == 0);
static_assert(message_index<HistReadAckMsg>() == 6);
static_assert(message_index<HistReadMsg>() == std::variant_size_v<Message> - 1);

TEST(CodecTest, RoundTripsEveryMessageType) {
  const auto samples = all_message_samples();
  ASSERT_EQ(samples.size(), std::variant_size_v<Message>);
  for (const auto& msg : samples) {
    const std::string bytes = encode(msg);
    const auto decoded = decode(bytes);
    ASSERT_TRUE(decoded.has_value()) << type_name(msg);
    EXPECT_EQ(*decoded, msg) << type_name(msg);
    EXPECT_EQ(encoded_size(msg), bytes.size());
  }
}

TEST(CodecTest, EncodingIsDeterministic) {
  for (const auto& msg : all_message_samples()) {
    EXPECT_EQ(encode(msg), encode(msg)) << type_name(msg);
  }
}

TEST(CodecTest, DistinctMessagesEncodeDistinctly) {
  const auto samples = all_message_samples();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    for (std::size_t k = i + 1; k < samples.size(); ++k) {
      EXPECT_NE(encode(samples[i]), encode(samples[k]));
    }
  }
}

TEST(CodecTest, EmptyInputRejected) {
  EXPECT_FALSE(decode("").has_value());
}

TEST(CodecTest, UnknownTagRejected) {
  std::string bytes(1, static_cast<char>(std::variant_size_v<Message>));
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(CodecTest, TruncationRejected) {
  for (const auto& msg : all_message_samples()) {
    const std::string bytes = encode(msg);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      EXPECT_FALSE(decode(bytes.substr(0, cut)).has_value())
          << type_name(msg) << " truncated to " << cut;
    }
  }
}

TEST(CodecTest, TrailingGarbageRejected) {
  for (const auto& msg : all_message_samples()) {
    EXPECT_FALSE(decode(encode(msg) + "x").has_value()) << type_name(msg);
  }
}

TEST(CodecTest, HugeLengthPrefixRejectedWithoutAllocation) {
  // A PwAckMsg whose tsr row claims 2^32-1 elements: must fail cleanly.
  std::string bytes;
  bytes.push_back(1);  // PwAckMsg tag
  for (int i = 0; i < 8; ++i) bytes.push_back(0);  // ts
  bytes += std::string(4, '\xff');                 // row length prefix
  EXPECT_FALSE(decode(bytes).has_value());
}

// Little-endian frame builder for hand-made (often malformed) inputs.
struct Frame {
  std::string bytes;
  Frame& u8(std::uint8_t v) {
    bytes.push_back(static_cast<char>(v));
    return *this;
  }
  Frame& u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
    return *this;
  }
  Frame& u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
    return *this;
  }
  /// A PwMsg header up to its tuple's tsrarray: tag, ts, pw, w.tsval.
  static Frame pw_msg() {
    Frame f;
    f.u8(static_cast<std::uint8_t>(message_index<PwMsg>())).u64(3);
    f.u64(3).u32(0);  // pw = <3, "">
    f.u64(2).u32(0);  // w.tsval = <2, "">
    return f;
  }
};

TEST(CodecTest, RaggedTsrArrayRowsRejected) {
  // Two engaged rows of widths 2 and 1: the flat tsrarray has one width.
  Frame ragged = Frame::pw_msg();
  ragged.u32(2).u8(1).u32(2).u64(1).u64(2).u8(1).u32(1).u64(3);
  EXPECT_FALSE(decode(ragged.bytes).has_value());
  // The same rows at one width decode.
  Frame even = Frame::pw_msg();
  even.u32(2).u8(1).u32(2).u64(1).u64(2).u8(1).u32(2).u64(3).u64(4);
  const auto ok = decode(even.bytes);
  ASSERT_TRUE(ok.has_value());
  const auto& arr = std::get<PwMsg>(*ok).w.tsrarray;
  EXPECT_EQ(arr.readers(), 2u);
  EXPECT_EQ(arr.at(1, 1), 4u);
}

TEST(CodecTest, MoreThanSixtyFourTsrArrayRowsRejected) {
  Frame rows65 = Frame::pw_msg();
  rows65.u32(65);
  for (int i = 0; i < 65; ++i) rows65.u8(0);
  EXPECT_FALSE(decode(rows65.bytes).has_value());
  Frame rows64 = Frame::pw_msg();
  rows64.u32(64);
  for (int i = 0; i < 64; ++i) rows64.u8(0);
  EXPECT_TRUE(decode(rows64.bytes).has_value());
}

TEST(CodecTest, RowWiderThanTheRemainingInputRejected) {
  // 64 rows whose first claims 2^20 cells: allocating S x R before reading
  // would take 512 MiB for a frame of a few dozen bytes.
  Frame wide = Frame::pw_msg();
  wide.u32(64).u8(1).u32(1u << 20).u64(7);
  EXPECT_FALSE(decode(wide.bytes).has_value());
  // A PW_ACK row is bounded by the input the same way.
  Frame ack;
  ack.u8(static_cast<std::uint8_t>(message_index<PwAckMsg>())).u64(1);
  ack.u32(3).u64(1).u64(2);
  EXPECT_FALSE(decode(ack.bytes).has_value());
}

/// A HistReadAckMsg frame whose slots (pw and w nil) carry `keys` in order.
std::string hist_ack_frame(const std::vector<Ts>& keys) {
  Frame f;
  f.u8(static_cast<std::uint8_t>(message_index<HistReadAckMsg>()));
  f.u8(1).u64(9).u32(static_cast<std::uint32_t>(keys.size()));
  for (const Ts k : keys) f.u64(k).u8(0).u8(0);
  f.u64(0).u8(0);  // since, resync
  return f.bytes;
}

TEST(CodecTest, HistorySlotsMustBeStrictlyAscending) {
  EXPECT_TRUE(decode(hist_ack_frame({1, 2, 5})).has_value());
  EXPECT_FALSE(decode(hist_ack_frame({5, 2, 1})).has_value())
      << "descending slots";
  EXPECT_FALSE(decode(hist_ack_frame({1, 2, 2})).has_value())
      << "a duplicate slot is rejected, not dropped";
  // A large descending frame is rejected at its second slot instead of
  // costing one mid-vector insert per slot.
  std::vector<Ts> descending(80'000);
  for (std::size_t i = 0; i < descending.size(); ++i) {
    descending[i] = descending.size() - i;
  }
  EXPECT_FALSE(decode(hist_ack_frame(descending)).has_value());
}

TEST(CodecTest, FuzzRandomBytesNeverCrash) {
  Rng rng(2024);
  int decoded_ok = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    std::string bytes;
    const auto len = rng.uniform(0, 64);
    bytes.reserve(len);
    for (std::uint64_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.uniform(0, 255)));
    }
    if (decode(bytes).has_value()) ++decoded_ok;
  }
  // Some random inputs may parse (tiny fixed-size messages); most must not.
  EXPECT_LT(decoded_ok, 2000);
}

TEST(CodecTest, FuzzBitFlipsOnValidMessages) {
  Rng rng(77);
  for (const auto& msg : all_message_samples()) {
    const std::string bytes = encode(msg);
    for (int iter = 0; iter < 200; ++iter) {
      std::string mutated = bytes;
      const auto pos = rng.index(mutated.size());
      mutated[pos] = static_cast<char>(
          static_cast<unsigned char>(mutated[pos]) ^
          (1u << rng.uniform(0, 7)));
      // Must not crash; may or may not decode.
      const auto result = decode(mutated);
      if (result.has_value()) {
        // If it decodes, re-encoding must be canonical.
        EXPECT_EQ(encode(*result).size(), mutated.size());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Wire-bytes golden: the exact encoding of the four tuple-carrying messages,
// pinned so a change to the in-memory tsrarray cannot move a byte. Each
// tuple has the honest writer's shape at S=4, R=2: three harvested rows and
// one nil row; the history also carries the all-nil initial tuple and a
// slot whose w is nil.
// ---------------------------------------------------------------------------

/// <ts, v> with rows 0, 1 and 3 harvested and row 2 nil.
WTuple golden_tuple(Ts ts, const char* v, ReaderTs base) {
  TsrArray arr;
  arr.push_back(TsrRow{base + 1, base + 2});
  arr.push_back(TsrRow{base + 3, 0});
  arr.push_back(std::nullopt);
  arr.push_back(TsrRow{0, base + 4});
  return WTuple{TsVal{ts, v}, arr};
}

std::string to_hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 15]);
  }
  return out;
}

// 105 bytes.
constexpr const char* kPwHex =
    "0005000000000000000500000000000000020000007635040000000000000002"
    "00000076340400000001020000000b000000000000000c000000000000000102"
    "0000000d00000000000000000000000000000000010200000000000000000000"
    "000e00000000000000";
// 105 bytes.
constexpr const char* kWHex =
    "0205000000000000000500000000000000020000007635050000000000000002"
    "0000007635040000000102000000150000000000000016000000000000000102"
    "0000001700000000000000000000000000000000010200000000000000000000"
    "001800000000000000";
// 106 bytes.
constexpr const char* kReadAckHex =
    "05014d0000000000000005000000000000000200000076350500000000000000"
    "0200000076350400000001020000001500000000000000160000000000000001"
    "0200000017000000000000000000000000000000000102000000000000000000"
    "00001800000000000000";
// 195 bytes.
constexpr const char* kHistReadAckHex =
    "06024e0000000000000003000000000000000000000001000000000000000000"
    "0000000100000000000000000000000004000000000000000400000000000000"
    "0104000000000000000200000076340104000000000000000200000076340400"
    "000001020000000b000000000000000c0000000000000001020000000d000000"
    "00000000000000000000000000010200000000000000000000000e0000000000"
    "0000050000000000000001050000000000000002000000763500040000000000"
    "000000";

TEST(CodecGoldenTest, TupleCarryingMessagesEncodeToPinnedBytes) {
  History h;
  h[0] = HistEntry{TsVal::bottom(), initial_wtuple(4)};
  h[4] = HistEntry{TsVal{4, "v4"}, golden_tuple(4, "v4", 10)};
  h[5] = HistEntry{TsVal{5, "v5"}, std::nullopt};
  const std::pair<Message, const char*> cases[] = {
      {PwMsg{5, TsVal{5, "v5"}, golden_tuple(4, "v4", 10)}, kPwHex},
      {WMsg{5, TsVal{5, "v5"}, golden_tuple(5, "v5", 20)}, kWHex},
      {ReadAckMsg{1, 77, TsVal{5, "v5"}, golden_tuple(5, "v5", 20)},
       kReadAckHex},
      {HistReadAckMsg{2, 78, h, 4, 0}, kHistReadAckHex},
  };
  for (const auto& [msg, hex] : cases) {
    const std::string bytes = encode(msg);
    EXPECT_EQ(to_hex(bytes), hex) << type_name(msg);
    EXPECT_EQ(encoded_size(msg), std::string(hex).size() / 2)
        << type_name(msg);
    const auto decoded = decode(bytes);
    ASSERT_TRUE(decoded.has_value()) << type_name(msg);
    EXPECT_EQ(*decoded, msg) << type_name(msg);
  }
}

// ---------------------------------------------------------------------------
// encoded_size property test: the counting visitor must agree with the
// materializing encoder on every one of the 24 message variants, across
// randomized payloads (empty/huge strings, nil/full tsrarrays, histories).
// ---------------------------------------------------------------------------

Value random_value(Rng& rng) {
  const auto len = rng.index(40);
  Value v;
  v.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    v.push_back(static_cast<char>(rng.uniform(0, 255)));
  }
  return v;
}

TsVal random_tsval(Rng& rng) {
  return TsVal{rng.uniform(0, 1u << 20), random_value(rng)};
}

TsrRow random_tsr_row(Rng& rng, std::size_t width) {
  TsrRow row(width);
  for (auto& x : row) x = rng.uniform(0, 1000);
  return row;
}

// One width for every engaged row: a tsrarray cannot hold ragged rows.
TsrArray random_tsrarray(Rng& rng) {
  TsrArray arr(rng.index(5));
  const auto width = rng.index(6);
  for (std::size_t i = 0; i < arr.size(); ++i) {
    if (rng.chance(0.5)) arr.set_row(i, random_tsr_row(rng, width));
  }
  return arr;
}

WTuple random_wtuple(Rng& rng) {
  return WTuple{random_tsval(rng), random_tsrarray(rng)};
}

History random_history(Rng& rng) {
  History h;
  const auto slots = rng.index(8);
  for (std::size_t i = 0; i < slots; ++i) {
    HistEntry e;
    if (rng.chance(0.7)) e.pw = random_tsval(rng);
    if (rng.chance(0.7)) e.w = random_wtuple(rng);
    h[rng.uniform(0, 50)] = std::move(e);
  }
  return h;
}

Message random_message(std::size_t variant, Rng& rng) {
  const auto u8v = [&] { return static_cast<std::uint8_t>(rng.uniform(0, 255)); };
  const auto u32v = [&] { return static_cast<std::uint32_t>(rng.uniform(0, 1u << 30)); };
  const auto u64v = [&] { return rng.uniform(0, 1ull << 40); };
  switch (variant) {
    case 0: return PwMsg{u64v(), random_tsval(rng), random_wtuple(rng)};
    case 1: return PwAckMsg{u64v(), random_tsr_row(rng, rng.index(6))};
    case 2: return WMsg{u64v(), random_tsval(rng), random_wtuple(rng)};
    case 3: return WAckMsg{u64v()};
    case 4: return ReadMsg{u8v(), u64v(), u64v()};
    case 5: return ReadAckMsg{u8v(), u64v(), random_tsval(rng), random_wtuple(rng)};
    case 6:
      return HistReadAckMsg{u8v(), u64v(), random_history(rng), u64v(), u8v()};
    case 7: return AbdStoreMsg{u64v(), random_tsval(rng)};
    case 8: return AbdStoreAckMsg{u64v()};
    case 9: return AbdQueryMsg{u64v()};
    case 10: return AbdQueryAckMsg{u64v(), random_tsval(rng)};
    case 11: return BlWriteMsg{u8v(), u64v(), random_value(rng)};
    case 12: return BlWriteAckMsg{u8v(), u64v()};
    case 13: return FwWriteMsg{u64v(), random_value(rng)};
    case 14: return FwWriteAckMsg{u64v()};
    case 15: return PollMsg{u64v(), u32v()};
    case 16: return PollAckMsg{u64v(), u32v(), random_tsval(rng), random_tsval(rng)};
    case 17: return AuthWriteMsg{u64v(), random_value(rng), random_value(rng)};
    case 18: return AuthWriteAckMsg{u64v()};
    case 19: return AuthReadMsg{u64v()};
    case 20: return AuthReadAckMsg{u64v(), u64v(), random_value(rng), random_value(rng)};
    case 21: return ScReadMsg{u64v()};
    case 22: return ScPushMsg{u64v(), u32v(), random_tsval(rng), random_tsval(rng)};
    case 23: return ScGossipMsg{u64v(), random_tsval(rng), random_tsval(rng)};
    case 24: return ShardMsg{u32v(), random_value(rng)};
    case 25: return HistReadMsg{u8v(), u64v(), u64v(), u64v()};
    default: break;
  }
  return WAckMsg{0};
}

TEST(CodecTest, EncodedSizePropertyAllVariants) {
  static_assert(std::variant_size_v<Message> == 26);
  Rng rng(424242);
  for (std::size_t variant = 0; variant < std::variant_size_v<Message>;
       ++variant) {
    for (int iter = 0; iter < 50; ++iter) {
      const Message msg = random_message(variant, rng);
      ASSERT_EQ(msg.index(), variant);
      const std::string bytes = encode(msg);
      EXPECT_EQ(encoded_size(msg), bytes.size())
          << type_name(msg) << " iter " << iter;
      // The counting visitor must not drift from the decoder either.
      const auto decoded = decode(bytes);
      ASSERT_TRUE(decoded.has_value()) << type_name(msg);
      EXPECT_EQ(*decoded, msg) << type_name(msg);
    }
  }
}

TEST(CodecTest, EncodedSizeOfDegenerateShapes) {
  // Empty history, empty strings, all-nil tsrarray, and a large history.
  History empty;
  EXPECT_EQ(encoded_size(Message{HistReadAckMsg{1, 0, empty}}),
            encode(Message{HistReadAckMsg{1, 0, empty}}).size());
  History big;
  for (Ts k = 0; k < 200; ++k) {
    big[k] = HistEntry{TsVal{k, std::string(100, 'x')},
                       WTuple{TsVal{k, ""}, init_tsrarray(8)}};
  }
  const Message m = HistReadAckMsg{2, 9, big};
  EXPECT_EQ(encoded_size(m), encode(m).size());
  const Message auth = AuthWriteMsg{1, "", ""};
  EXPECT_EQ(encoded_size(auth), encode(auth).size());
}

// ---------------------------------------------------------------------------
// Adversarial-bytes torture, every variant: the codec faces frames from
// Byzantine peers via the net backend's framing layer, so each of the 26
// variants is attacked with randomized payloads x truncation, bit flips,
// and hostile length prefixes. Nothing here may crash, over-allocate, or
// accept a non-canonical encoding.
// ---------------------------------------------------------------------------

TEST(CodecTortureTest, RandomizedTruncationRejectedOnEveryVariant) {
  Rng rng(31337);
  for (std::size_t variant = 0; variant < std::variant_size_v<Message>;
       ++variant) {
    for (int iter = 0; iter < 20; ++iter) {
      const std::string bytes = encode(random_message(variant, rng));
      for (int cut_iter = 0; cut_iter < 16; ++cut_iter) {
        const auto cut = rng.index(bytes.size());
        EXPECT_FALSE(decode(bytes.substr(0, cut)).has_value())
            << "variant " << variant << " truncated to " << cut << "/"
            << bytes.size();
      }
    }
  }
}

TEST(CodecTortureTest, RandomizedBitFlipsNeverCrashOnAnyVariant) {
  Rng rng(6061);
  for (std::size_t variant = 0; variant < std::variant_size_v<Message>;
       ++variant) {
    for (int iter = 0; iter < 40; ++iter) {
      std::string bytes = encode(random_message(variant, rng));
      const auto pos = rng.index(bytes.size());
      bytes[pos] = static_cast<char>(static_cast<unsigned char>(bytes[pos]) ^
                                     (1u << rng.uniform(0, 7)));
      const auto result = decode(bytes);
      if (result.has_value()) {
        // Anything accepted must re-encode to the same bytes (the encoding
        // is canonical: history slots must arrive ascending, tsrarray rows
        // share one width) and round-trip exactly.
        const std::string reenc = encode(*result);
        EXPECT_EQ(reenc, bytes) << "variant " << variant;
        const auto again = decode(reenc);
        ASSERT_TRUE(again.has_value()) << "variant " << variant;
        EXPECT_EQ(*again, *result) << "variant " << variant;
      }
    }
  }
}

TEST(CodecTortureTest, OversizedLengthPrefixesRejectedOnEveryVariant) {
  // Stamp a hostile 0xFFFFFFFF over every aligned 4-byte window of every
  // variant's encoding: whichever length/count prefix it lands on must be
  // rejected without a multi-gigabyte allocation (ASan/OOM would catch it).
  Rng rng(90125);
  for (std::size_t variant = 0; variant < std::variant_size_v<Message>;
       ++variant) {
    const std::string bytes = encode(random_message(variant, rng));
    for (std::size_t pos = 0; pos + 4 <= bytes.size(); ++pos) {
      std::string mutated = bytes;
      mutated.replace(pos, 4, 4, '\xff');
      const auto result = decode(mutated);
      if (result.has_value()) {
        EXPECT_LE(encode(*result).size(), mutated.size())
            << "variant " << variant << " pos " << pos;
      }
    }
  }
}

TEST(CodecTortureTest, AllOnesAndAllZeroBodiesRejectedCleanly) {
  for (std::size_t tag = 0; tag < std::variant_size_v<Message>; ++tag) {
    for (const char fill : {'\x00', '\xff'}) {
      for (const std::size_t len : {0u, 1u, 7u, 32u, 257u}) {
        std::string bytes(1, static_cast<char>(tag));
        bytes += std::string(len, fill);
        const auto result = decode(bytes);  // must not crash; usually rejects
        if (result.has_value()) {
          EXPECT_EQ(encode(*result).size(), bytes.size());
        }
      }
    }
  }
}

TEST(CodecTest, HistoryAckSizeGrowsLinearly) {
  // Byte accounting underpins the Section 5.1 experiment: verify the size
  // of a history ack is linear in the number of slots.
  History h;
  HistReadAckMsg small{1, 1, h};
  for (Ts k = 1; k <= 10; ++k) h[k] = HistEntry{TsVal{k, "v"}, std::nullopt};
  HistReadAckMsg big{1, 1, h};
  const auto small_sz = encoded_size(Message{small});
  const auto big_sz = encoded_size(Message{big});
  EXPECT_GT(big_sz, small_sz + 10 * 8);  // at least the keys
}

}  // namespace
}  // namespace rr::wire
