// Fuzz-ish roundtrip property for the wire codec: randomly generated
// payloads of EVERY live Payload alternative (all but the reserved tags
// 8-11, which codec_test.cpp pins as rejected) must survive encode/decode
// bit-for-bit (codec_test.cpp covers hand-picked cases only).  Also pins the
// three encoder entry points to each other: encode_message,
// encode_message_into (the ThreadRuntime fast path's reusable buffer), and
// encoded_size (the allocation-free counting path).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <type_traits>

#include "common/rng.hpp"
#include "msg/codec.hpp"

namespace snowkit {
namespace {

// --- random field generators -------------------------------------------------

std::uint64_t ru64(Xoshiro256& rng) { return rng.next(); }
std::uint32_t ru32(Xoshiro256& rng) { return static_cast<std::uint32_t>(rng.next()); }
std::int64_t ri64(Xoshiro256& rng) { return static_cast<std::int64_t>(rng.next()); }
bool rbool(Xoshiro256& rng) { return (rng.next() & 1) != 0; }

WriteKey rkey(Xoshiro256& rng) { return WriteKey{ru64(rng), ru32(rng)}; }

Version rversion(Xoshiro256& rng) { return Version{rkey(rng), ri64(rng)}; }

ListedKey rlisted(Xoshiro256& rng) { return ListedKey{ru64(rng), rkey(rng)}; }

std::vector<Version> rversions(Xoshiro256& rng) {
  std::vector<Version> v(rng.below(12));
  for (auto& e : v) e = rversion(rng);
  return v;
}

TagArrEntry rtag_entry(Xoshiro256& rng) {
  std::vector<ListedKey> history(rng.below(8));
  for (auto& e : history) e = rlisted(rng);
  return {ru32(rng), rkey(rng), std::move(history)};
}

std::vector<TagArrEntry> rtag_entries(Xoshiro256& rng) {
  std::vector<TagArrEntry> v(rng.below(6));
  for (auto& e : v) e = rtag_entry(rng);
  return v;
}

// Object sets (read sets, write sets, read batches, mode deltas) are strictly
// ascending by contract (gap-coded); write sets and read batches also name at
// least `min_size` objects.
std::vector<ObjectId> robj_set(Xoshiro256& rng, std::size_t min_size = 0) {
  std::vector<ObjectId> objs(min_size + rng.below(10));
  ObjectId next = static_cast<ObjectId>(rng.below(1u << 24));
  for (auto& o : objs) {
    o = next;
    next += 1 + static_cast<ObjectId>(rng.below(1u << 16));
  }
  return objs;
}

// --- per-alternative generators ----------------------------------------------

template <typename T>
T make_random(Xoshiro256& rng);

template <>
WriteValReq make_random(Xoshiro256& rng) {
  WriteValReq p{rkey(rng), {}};
  for (ObjectId obj : robj_set(rng, 1)) p.writes.emplace_back(obj, ri64(rng));
  p.ack_to = rbool(rng) ? kInvalidNode : ru32(rng);
  if (rbool(rng)) p.update_coor = UpdateCoorReq{p.key, robj_set(rng, 1)};
  return p;
}
template <>
WriteValAck make_random(Xoshiro256& rng) { return {rkey(rng), robj_set(rng, 1)}; }
template <>
InfoReaderReq make_random(Xoshiro256& rng) { return {rkey(rng), robj_set(rng, 1)}; }
template <>
InfoReaderAck make_random(Xoshiro256& rng) { return {ru64(rng)}; }
template <>
UpdateCoorReq make_random(Xoshiro256& rng) { return {rkey(rng), robj_set(rng, 1)}; }
template <>
UpdateCoorAck make_random(Xoshiro256& rng) { return {ru64(rng), ru64(rng)}; }
template <>
GetTagArrReq make_random(Xoshiro256& rng) { return {robj_set(rng), ru64(rng)}; }
template <>
GetTagArrResp make_random(Xoshiro256& rng) { return {ru64(rng), ru64(rng), rtag_entries(rng)}; }
template <>
FinalizeReq make_random(Xoshiro256& rng) {
  return {rkey(rng), ru64(rng), ru64(rng), robj_set(rng, 1), rbool(rng)};
}
template <>
FinalizeCoorReq make_random(Xoshiro256& rng) { return {ru64(rng)}; }
template <>
ReadDoneReq make_random(Xoshiro256& rng) { return {ru64(rng)}; }
template <>
EigerWriteReq make_random(Xoshiro256& rng) { return {ru32(rng), ri64(rng), ru64(rng)}; }
template <>
EigerWriteAck make_random(Xoshiro256& rng) { return {ru32(rng), ru64(rng), ru64(rng)}; }
template <>
EigerReadReq make_random(Xoshiro256& rng) { return {ru32(rng), ru64(rng)}; }
template <>
EigerReadResp make_random(Xoshiro256& rng) {
  return {ru32(rng), ri64(rng), ru64(rng), ru64(rng), ru64(rng)};
}
template <>
EigerReadAtReq make_random(Xoshiro256& rng) { return {ru32(rng), ru64(rng), ru64(rng)}; }
template <>
EigerReadAtResp make_random(Xoshiro256& rng) { return {ru32(rng), ri64(rng), ru64(rng)}; }
template <>
LockReq make_random(Xoshiro256& rng) { return {ru32(rng), rbool(rng)}; }
template <>
LockGrant make_random(Xoshiro256& rng) { return {ru32(rng), ri64(rng)}; }
template <>
WriteUnlockReq make_random(Xoshiro256& rng) { return {ru32(rng), ri64(rng)}; }
template <>
UnlockReq make_random(Xoshiro256& rng) { return {ru32(rng)}; }
template <>
UnlockAck make_random(Xoshiro256& rng) { return {ru32(rng)}; }
template <>
SimpleReadReq make_random(Xoshiro256& rng) { return {ru32(rng)}; }
template <>
SimpleReadResp make_random(Xoshiro256& rng) { return {ru32(rng), ri64(rng)}; }
template <>
SimpleWriteReq make_random(Xoshiro256& rng) { return {ru32(rng), ri64(rng)}; }
template <>
SimpleWriteAck make_random(Xoshiro256& rng) { return {ru32(rng)}; }

/// A record of a random kind with random values in that kind's fields only:
/// the codec carries no others (wire v8).
ReplRecord rrecord(Xoshiro256& rng) {
  ReplRecord rec;
  rec.kind = static_cast<std::uint8_t>(rng.below(5));
  switch (rec.kind) {
    case ReplRecord::kInsert:
      rec.obj = ru32(rng);
      rec.key = rkey(rng);
      rec.value = ri64(rng);
      break;
    case ReplRecord::kFinalize:
      rec.obj = ru32(rng);
      rec.key = rkey(rng);
      rec.position = ru64(rng);
      rec.watermark = ru64(rng);
      break;
    case ReplRecord::kListPush:
      rec.key = rkey(rng);
      rec.objs = robj_set(rng, 1);
      rec.txn = ru64(rng);
      rec.writer = ru32(rng);
      rec.position = ru64(rng);
      break;
    case ReplRecord::kCoorFinalize:
      rec.position = ru64(rng);
      break;
    default:
      rec.epoch = ru64(rng);
      rec.primary = static_cast<std::uint8_t>(rng.below(2));
  }
  return rec;
}

std::vector<ReplRecord> rrecords(Xoshiro256& rng) {
  std::vector<ReplRecord> v(rng.below(8));
  for (auto& e : v) e = rrecord(rng);
  return v;
}

template <>
ReplAppendReq make_random(Xoshiro256& rng) { return {ru64(rng), ru64(rng), rrecords(rng)}; }
template <>
ReplAppendAck make_random(Xoshiro256& rng) { return {ru64(rng), ru64(rng)}; }
template <>
ReplJoinReq make_random(Xoshiro256& rng) {
  return {ru64(rng), ru64(rng), static_cast<std::uint8_t>(rng.below(2))};
}
template <>
ReplJoinResp make_random(Xoshiro256& rng) {
  return {ru64(rng), static_cast<std::uint8_t>(rng.below(2)), ru64(rng), rrecords(rng)};
}
template <>
TakeoverNotice make_random(Xoshiro256& rng) { return {ru64(rng), ru32(rng), ru64(rng)}; }
template <>
NodeDownNotice make_random(Xoshiro256& rng) { return {ru32(rng)}; }

template <>
AdaptTagArrResp make_random(Xoshiro256& rng) {
  // A delta's base is at most its epoch; a snapshot (base 0) lists C-mode
  // objects only.
  AdaptTagArrResp p{ru64(rng), ru64(rng), rtag_entries(rng), ru64(rng)};
  p.mode_base =
      rbool(rng) ? 0 : p.mode_epoch - std::min<std::uint64_t>(rng.below(1000), p.mode_epoch);
  p.c_mode = robj_set(rng);
  if (p.mode_base != 0) p.b_mode = robj_set(rng);
  return p;
}
template <>
ReadValBatchReq make_random(Xoshiro256& rng) {
  std::vector<BatchReadEntry> entries;
  for (ObjectId obj : robj_set(rng, 1)) entries.push_back({obj, rkey(rng)});
  return {ru64(rng), std::move(entries)};
}
template <>
ReadValBatchResp make_random(Xoshiro256& rng) {
  std::vector<BatchReadResult> entries(rng.below(8));
  for (auto& e : entries) e = {ru32(rng), rkey(rng), ri64(rng), rbool(rng)};
  return {std::move(entries)};
}
template <>
ReadValsBatchReq make_random(Xoshiro256& rng) {
  // The floor shares its varint with the coor bit, so it stays below 2^63;
  // half fold a get-tag-arr, whose I is never empty.  The READ's objects
  // split at random between the bare set and the held list, so either may
  // be empty, but not both.
  ReadValsBatchReq p{ru64(rng) / 2, {}};
  for (ObjectId obj : robj_set(rng, 1)) {
    if (rbool(rng)) {
      p.held.push_back({obj, rkey(rng), rbool(rng)});
    } else {
      p.objs.push_back(obj);
    }
  }
  if (rbool(rng)) p.tag_arr = GetTagArrReq{robj_set(rng, 1), ru64(rng)};
  return p;
}
template <>
ReadValsBatchResp make_random(Xoshiro256& rng) {
  std::vector<ObjectVersions> entries(rng.below(6));
  for (auto& e : entries) e = {ru32(rng), rversions(rng)};
  // The tag-array section: none, a tag-arr or an adapt-tag-arr.
  ReadValsBatchResp p{std::move(entries)};
  switch (rng.below(3)) {
    case 1:
      p.tag_arr = make_random<GetTagArrResp>(rng);
      break;
    case 2:
      p.tag_arr = make_random<AdaptTagArrResp>(rng);
      break;
    default:
      break;
  }
  return p;
}

/// A random payload of alternative `index`, or nullopt for a reserved tag.
template <std::size_t I = 0>
std::optional<Payload> random_alternative(std::size_t index, Xoshiro256& rng) {
  if constexpr (I < std::variant_size_v<Payload>) {
    using T = std::variant_alternative_t<I, Payload>;
    if (index != I) return random_alternative<I + 1>(index, rng);
    if constexpr (std::is_same_v<T, ReservedPayload<I>>) {
      return std::nullopt;
    } else {
      return Payload{make_random<T>(rng)};
    }
  } else {
    ADD_FAILURE() << "bad payload index " << index;
    return std::nullopt;
  }
}

// --- the property ------------------------------------------------------------

TEST(CodecRoundtripProperty, EveryAlternativeSurvivesRandomRoundtrips) {
  constexpr int kItersPerAlternative = 200;
  Xoshiro256 rng(0xC0DECull);  // fixed seed: failures replay bit-for-bit
  std::vector<std::uint8_t> reused;  // shared across iterations, like the fast path
  for (std::size_t index = 0; index < std::variant_size_v<Payload>; ++index) {
    for (int iter = 0; iter < kItersPerAlternative; ++iter) {
      std::optional<Payload> payload = random_alternative(index, rng);
      if (!payload) break;
      Message m;
      m.txn = rng.next();
      m.payload = std::move(*payload);

      const auto bytes = encode_message(m);
      EXPECT_EQ(encoded_size(m), bytes.size())
          << "encoded_size mismatch for " << payload_name(m.payload);

      encode_message_into(m, reused);
      EXPECT_EQ(reused, bytes) << "encode_message_into diverged for "
                               << payload_name(m.payload);

      const Message back = decode_message(bytes);
      ASSERT_TRUE(back == m) << "roundtrip mismatch for " << payload_name(m.payload)
                             << " at alternative " << index << " iter " << iter;

      // The format is prefix-free: every strict prefix is a truncation the
      // untrusted decoder refuses (an error return, never an abort).
      for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        const std::vector<std::uint8_t> prefix(bytes.begin(),
                                               bytes.begin() + static_cast<std::ptrdiff_t>(cut));
        Message out;
        std::string err;
        ASSERT_FALSE(try_decode_message(prefix, out, err))
            << payload_name(m.payload) << " prefix of " << cut << " bytes decoded";
      }
    }
  }
}

TEST(CodecRoundtripProperty, ReusedBufferShrinksAndGrowsCorrectly) {
  // A big message followed by a small one into the same buffer must not leave
  // stale trailing bytes (BufWriter clears, keeps capacity).
  Xoshiro256 rng(7);
  GetTagArrResp big{1, 0, rtag_entries(rng)};
  while (big.entries.size() < 4) big.entries.push_back(rtag_entry(rng));
  Message big_msg{9, big};
  Message small_msg{10, SimpleReadReq{3}};

  std::vector<std::uint8_t> buf;
  encode_message_into(big_msg, buf);
  const std::size_t cap_after_big = buf.capacity();
  encode_message_into(small_msg, buf);
  EXPECT_EQ(buf, encode_message(small_msg));
  EXPECT_EQ(buf.capacity(), cap_after_big);  // capacity retained (no realloc)
  EXPECT_TRUE(decode_message(buf) == small_msg);
}

}  // namespace
}  // namespace snowkit
