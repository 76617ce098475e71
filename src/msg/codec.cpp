#include "msg/codec.hpp"

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>

#include "common/assert.hpp"
#include "common/buffer.hpp"

namespace snowkit {

namespace {

// Each payload's layout is written ONCE, as a `fields(io, p)` list below,
// and that list drives all three directions: Put<BufWriter> encodes,
// Put<SizeWriter> counts and Get decodes.  Put sees `p` const, Get mutable.
// Only the two packed heads (read-vals-batch and its response) branch on
// the direction; the decode-side checks are `io.require`/`io.fail` calls,
// which the encoder skips, and the encoder's own invariants are SNOW_CHECKs.
//
// Encoding conventions (the compact wire format, docs/WIRE.md):
//  * integers ride as LEB128 varints (`uv`), values as zigzag varints (`zz`),
//    so the common small-number case costs one byte instead of 4-8;
//  * version lists are delta-coded: Vals is key-ordered, so consecutive
//    WriteKey seqs are non-decreasing and each entry stores only the delta;
//  * List histories are position-ascending, so positions delta-code the
//    same way;
//  * object sets — a READ's objects (get-tag-arr), one server's share of a
//    READ (read-val-batch, read-vals-batch), a WRITE's objects (update-coor,
//    info-reader, kListPush records), one server's share of a WRITE
//    (write-val, its ack, finalize) and the adaptive mode delta — are
//    strictly ascending and ride as gaps, so every such field costs
//    O(|set|) bytes, never k bits.
// A writer id of kInvalidNode (the initial version's placeholder w0) maps to
// varint 0 rather than a 5-byte max-u32 varint.

constexpr bool kNonEmpty = true;  // the set must name an object (a WRITE writes one)
constexpr bool kMayBeEmpty = false;

/// The encode direction, over BufWriter (serialize) or SizeWriter (count).
template <typename W>
struct Put {
  static constexpr bool kDecode = false;
  W& w;

  template <typename T>
  void uv(const T& v) { w.uv(v); }
  void zz(Value v) { w.zz(v); }
  void u8(std::uint8_t v) { w.u8(v); }
  void flag(bool b, const char* /*strict*/ = nullptr) { w.u8(b ? 1 : 0); }
  void writer(NodeId n) { w.uv(n == kInvalidNode ? 0 : std::uint64_t{n} + 1); }
  void key(const WriteKey& k) {
    w.uv(k.seq);
    writer(k.writer);
  }

  /// uv(count), then each element's fields.
  template <typename T>
  void list(const std::vector<T>& v) {
    w.uv(v.size());
    elements(v, v.size());
  }
  /// The elements of `v` without their count (`n` matters when decoding).
  template <typename T>
  void elements(const std::vector<T>& v, std::uint64_t /*n*/) {
    for (const T& e : v) fields(*this, e);
  }

  /// uv(count), then per item the gap of its object id `id` to the previous
  /// one (the first: to 0) and whatever `rest` writes after it.  A `mark`
  /// rides in the count's low bit, uv(2 * count + mark), and an item's
  /// `flag` in its gap's, uv(2 * gap + flag).
  template <typename T, typename Id, typename Rest, typename Flag = std::nullptr_t>
  void ascending(const std::vector<T>& items, Id id, const char* what, bool /*nonempty*/,
                 Rest rest, const bool* mark = nullptr, Flag flag = nullptr) {
    w.uv(mark == nullptr ? items.size() : 2 * items.size() + (*mark ? 1 : 0));
    ObjectId prev = 0;
    for (std::size_t i = 0; i < items.size(); ++i) {
      const ObjectId obj = std::invoke(id, items[i]);
      SNOW_CHECK_MSG(i == 0 || obj > prev, what << " object ids must strictly ascend");
      std::uint64_t gap = obj - prev;
      if constexpr (!std::is_null_pointer_v<Flag>) gap = 2 * gap + (items[i].*flag ? 1 : 0);
      w.uv(gap);
      rest(*this, items[i]);
      prev = obj;
    }
  }
  void set(const std::vector<ObjectId>& objs, const char* what, bool nonempty,
           const bool* mark = nullptr) {
    ascending(objs, std::identity{}, what, nonempty, [](auto&, auto&) {}, mark);
  }

  /// uv(count), then per item zz(x - previous x) for its u64 `x`, then
  /// `rest`: the delta rule of version lists and List histories.
  template <typename T, typename X, typename Rest>
  void deltas(const std::vector<T>& v, X x, Rest rest) {
    w.uv(v.size());
    std::uint64_t prev = 0;
    for (const T& e : v) {
      const std::uint64_t cur = std::invoke(x, e);
      w.zz(static_cast<std::int64_t>(cur - prev));
      rest(*this, e);
      prev = cur;
    }
  }

  void require(bool /*ok*/, const char* /*why*/) {}
  [[noreturn]] void fail(const std::string& why) { SNOW_UNREACHABLE("encoding: " + why); }
};

/// The decode direction: every malformation is a CodecError.
struct Get {
  static constexpr bool kDecode = true;
  BufReader& r;

  /// A varint past T's range (an id above 2^32 - 1) is refused, never
  /// truncated onto a small one.
  template <typename T>
  void uv(T& v) {
    const std::uint64_t x = r.uv();
    if constexpr (sizeof(T) < sizeof(x)) {
      if (x > std::numeric_limits<T>::max()) fail("varint " + std::to_string(x) + " out of range");
    }
    v = static_cast<T>(x);
  }
  void zz(Value& v) { v = r.zz(); }
  void u8(std::uint8_t& v) { v = r.u8(); }
  /// Any non-zero byte is true, unless `strict` names a flag that must be 0 or 1.
  void flag(bool& b, const char* strict = nullptr) {
    const std::uint8_t v = r.u8();
    if (strict != nullptr && v > 1) fail(std::string(strict) + " is neither 0 nor 1");
    b = v != 0;
  }
  void writer(NodeId& n) {
    const std::uint64_t v = r.uv();
    if (v > kInvalidNode) fail("node id " + std::to_string(v - 1) + " out of range");
    n = v == 0 ? kInvalidNode : static_cast<NodeId>(v - 1);
  }
  void key(WriteKey& k) {
    uv(k.seq);
    writer(k.writer);
  }

  template <typename T>
  void list(std::vector<T>& v) { elements(v, r.uv()); }
  /// Appends `n` elements.  Like every count here, `n` is checked against
  /// the bytes left before anything is reserved, and elements are built as
  /// they parse, so a hostile count reserves at most one per byte left.
  template <typename T>
  void elements(std::vector<T>& v, std::uint64_t n) {
    v.reserve(r.count(n));
    for (; n > 0; --n) fields(*this, v.emplace_back());
  }

  /// Unsorted or duplicate ids are refused, and so is an empty set where
  /// `nonempty`.
  template <typename T, typename Id, typename Rest, typename Flag = std::nullptr_t>
  void ascending(std::vector<T>& items, Id id, const char* what, bool nonempty, Rest rest,
                 bool* mark = nullptr, Flag flag = nullptr) {
    std::uint64_t head = r.uv();
    if (mark != nullptr) {
      *mark = head % 2 == 1;
      head /= 2;
    }
    const std::size_t n = r.count(head);
    items.reserve(n);
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t gap = r.uv();
      bool flagged = false;
      if constexpr (!std::is_null_pointer_v<Flag>) {
        flagged = gap % 2 == 1;
        gap /= 2;
      }
      if (i > 0 && gap == 0) fail(std::string(what) + " object ids not strictly ascending");
      if (gap > std::numeric_limits<ObjectId>::max() - prev) {
        fail(std::string(what) + " object id out of range");
      }
      prev += gap;
      T& item = items.emplace_back();
      std::invoke(id, item) = static_cast<ObjectId>(prev);
      if constexpr (!std::is_null_pointer_v<Flag>) item.*flag = flagged;
      rest(*this, item);
    }
    if (nonempty && items.empty()) fail(std::string(what) + " names no object");
  }
  void set(std::vector<ObjectId>& objs, const char* what, bool nonempty, bool* mark = nullptr) {
    ascending(objs, std::identity{}, what, nonempty, [](auto&, auto&) {}, mark);
  }

  template <typename T, typename X, typename Rest>
  void deltas(std::vector<T>& v, X x, Rest rest) {
    std::uint64_t n = r.count(r.uv());
    v.reserve(n);
    std::uint64_t prev = 0;
    for (; n > 0; --n) {
      prev += static_cast<std::uint64_t>(r.zz());
      T& e = v.emplace_back();
      std::invoke(x, e) = prev;
      rest(*this, e);
    }
  }

  void require(bool ok, const char* why) {
    if (!ok) fail(why);
  }
  [[noreturn]] void fail(const std::string& why) { r.fail(why); }
};

/// `P` is one of `Ts`, const (encoding) or not (decoding).
template <typename P, typename... Ts>
concept Of = (std::same_as<std::remove_const_t<P>, Ts> || ...);

// --- the field lists, in payload-tag order -----------------------------------
//
// Calls to `fields` on a nested type resolve by argument-dependent lookup
// through `io`, so the lists may appear in any order.

/// Wire v10: a head uv(2 * node + folded) names the ack's node the way a
/// writer id rides (0 for kInvalidNode, else id + 1) and whether the
/// update-coor is folded; the folded update-coor's W follows the writes,
/// and its key is the write-val's.
template <typename Io, Of<WriteValReq> P>
void fields(Io& io, P& p) {
  std::uint64_t head = 0;
  if constexpr (!Io::kDecode) {
    SNOW_CHECK_MSG(!p.update_coor || p.update_coor->key == p.key,
                   "a folded update-coor names another key than its write-val");
    head = 2 * (p.ack_to == kInvalidNode ? 0 : std::uint64_t{p.ack_to} + 1) +
           (p.update_coor ? 1 : 0);
  }
  io.uv(head);
  if constexpr (Io::kDecode) {
    const std::uint64_t node = head / 2;
    if (node > kInvalidNode) io.fail("write-val ack node " + std::to_string(node - 1) + " out of range");
    p.ack_to = node == 0 ? kInvalidNode : static_cast<NodeId>(node - 1);
    if (head % 2 == 1) p.update_coor.emplace();
  }
  io.key(p.key);
  io.ascending(p.writes, &std::pair<ObjectId, Value>::first, "write-val", kNonEmpty,
               [](auto& io2, auto& ov) { io2.zz(ov.second); });
  if (p.update_coor) {
    if constexpr (Io::kDecode) p.update_coor->key = p.key;
    io.set(p.update_coor->objs, "folded update-coor", kNonEmpty);
  }
}

template <typename Io, Of<WriteValAck> P>
void fields(Io& io, P& p) {
  io.key(p.key);
  io.set(p.objs, "write-val-ack", kNonEmpty);
}

template <typename Io, Of<InfoReaderReq> P>
void fields(Io& io, P& p) {
  io.key(p.key);
  io.set(p.objs, "info-reader", kNonEmpty);
}

template <typename Io, Of<InfoReaderAck> P>
void fields(Io& io, P& p) { io.uv(p.tag); }

template <typename Io, Of<UpdateCoorReq> P>
void fields(Io& io, P& p) {
  io.key(p.key);
  io.set(p.objs, "update-coor", kNonEmpty);
}

template <typename Io, Of<UpdateCoorAck> P>
void fields(Io& io, P& p) {
  io.uv(p.tag);
  io.uv(p.watermark);
}

template <typename Io, Of<GetTagArrReq> P>
void fields(Io& io, P& p) {
  io.set(p.objs, "get-tag-arr", kMayBeEmpty);
  io.uv(p.mode_epoch);
}

/// A tag-array slot: obj, kappa_i, and the object's List history under the
/// position-delta rule.
template <typename Io, Of<TagArrEntry> P>
void fields(Io& io, P& e) {
  io.uv(e.obj);
  io.key(e.latest);
  io.deltas(e.history, &ListedKey::position, [](auto& io2, auto& lk) { io2.key(lk.key); });
}

template <typename Io, Of<GetTagArrResp> P>
void fields(Io& io, P& p) {
  io.uv(p.tag);
  io.uv(p.watermark);
  io.list(p.entries);
}

/// Tags 8-11: no body to encode, and a decode error before any is read.
template <typename Io, std::size_t N>
void fields(Io& io, const ReservedPayload<N>&) {
  if constexpr (Io::kDecode) {
    io.fail("payload tag " + std::to_string(N) + " is reserved");
  } else {
    SNOW_UNREACHABLE("encoding reserved payload tag " + std::to_string(N));
  }
}

template <typename Io, Of<FinalizeReq> P>
void fields(Io& io, P& p) {
  io.key(p.key);
  io.uv(p.position);
  io.uv(p.watermark);
  io.set(p.objs, "finalize", kNonEmpty);
  io.flag(p.coor, "finalize coor flag");
}

template <typename Io, Of<EigerWriteReq> P>
void fields(Io& io, P& p) {
  io.uv(p.obj);
  io.zz(p.value);
  io.uv(p.lamport);
}

template <typename Io, Of<EigerWriteAck> P>
void fields(Io& io, P& p) {
  io.uv(p.obj);
  io.uv(p.commit_ts);
  io.uv(p.lamport);
}

template <typename Io, Of<EigerReadReq> P>
void fields(Io& io, P& p) {
  io.uv(p.obj);
  io.uv(p.lamport);
}

template <typename Io, Of<EigerReadResp> P>
void fields(Io& io, P& p) {
  io.uv(p.obj);
  io.zz(p.value);
  io.uv(p.valid_from);
  io.uv(p.valid_until);
  io.uv(p.lamport);
}

template <typename Io, Of<EigerReadAtReq> P>
void fields(Io& io, P& p) {
  io.uv(p.obj);
  io.uv(p.at);
  io.uv(p.lamport);
}

template <typename Io, Of<EigerReadAtResp> P>
void fields(Io& io, P& p) {
  io.uv(p.obj);
  io.zz(p.value);
  io.uv(p.lamport);
}

template <typename Io, Of<LockReq> P>
void fields(Io& io, P& p) {
  io.uv(p.obj);
  io.flag(p.exclusive);
}

/// (obj, value): lock-grant, write-unlock, simple-read-resp, simple-write.
template <typename Io, Of<LockGrant, WriteUnlockReq, SimpleReadResp, SimpleWriteReq> P>
void fields(Io& io, P& p) {
  io.uv(p.obj);
  io.zz(p.value);
}

/// (obj): unlock, unlock-ack, simple-read, simple-write-ack.
template <typename Io, Of<UnlockReq, UnlockAck, SimpleReadReq, SimpleWriteAck> P>
void fields(Io& io, P& p) { io.uv(p.obj); }

template <typename Io, Of<FinalizeCoorReq> P>
void fields(Io& io, P& p) { io.uv(p.position); }

template <typename Io, Of<ReadDoneReq> P>
void fields(Io& io, P& p) { io.uv(p.txn); }

/// Replication log records (wire v8): the kind byte, then only the fields
/// kFieldsOfKind names for that kind, in the order the switch below lists
/// them (docs/WIRE.md's v8 table).  The decoder leaves every other field at
/// its default, so the encoder refuses a record that sets one rather than
/// drop it silently.
enum ReplField : unsigned {
  kObj = 1u << 0, kKey = 1u << 1, kValue = 1u << 2, kPosition = 1u << 3,
  kWatermark = 1u << 4, kObjs = 1u << 5, kTxn = 1u << 6, kWriter = 1u << 7,
  kEpochNo = 1u << 8, kPrimary = 1u << 9,
};
constexpr unsigned kFieldsOfKind[] = {
    kObj | kKey | kValue,                        // kInsert
    kObj | kKey | kPosition | kWatermark,        // kFinalize
    kKey | kObjs | kTxn | kWriter | kPosition,   // kListPush
    kPosition,                                   // kCoorFinalize
    kEpochNo | kPrimary,                         // kEpoch
};
static_assert(std::size(kFieldsOfKind) == ReplRecord::kEpoch + 1);

/// The fields of `r` that differ from a default ReplRecord's.
unsigned set_fields(const ReplRecord& r) {
  const ReplRecord d;
  return (r.obj != d.obj ? kObj : 0u) | (r.key != d.key ? kKey : 0u) |
         (r.value != d.value ? kValue : 0u) | (r.position != d.position ? kPosition : 0u) |
         (r.watermark != d.watermark ? kWatermark : 0u) | (!r.objs.empty() ? kObjs : 0u) |
         (r.txn != d.txn ? kTxn : 0u) | (r.writer != d.writer ? kWriter : 0u) |
         (r.epoch != d.epoch ? kEpochNo : 0u) | (r.primary != d.primary ? kPrimary : 0u);
}

template <typename Io, Of<ReplRecord> P>
void fields(Io& io, P& r) {
  if constexpr (!Io::kDecode) {
    SNOW_CHECK_MSG(r.kind <= ReplRecord::kEpoch,
                   "encoding replication record kind " << int{r.kind});
    SNOW_CHECK_MSG((set_fields(r) & ~kFieldsOfKind[r.kind]) == 0,
                   "replication record kind " << int{r.kind} << " sets a field it does not carry");
  }
  io.u8(r.kind);
  switch (r.kind) {
    case ReplRecord::kInsert:
      io.uv(r.obj);
      io.key(r.key);
      io.zz(r.value);
      return;
    case ReplRecord::kFinalize:
      io.uv(r.obj);
      io.key(r.key);
      io.uv(r.position);
      io.uv(r.watermark);
      return;
    case ReplRecord::kListPush:
      io.key(r.key);
      io.set(r.objs, "kListPush", kNonEmpty);
      io.uv(r.txn);
      io.writer(r.writer);
      io.uv(r.position);
      return;
    case ReplRecord::kCoorFinalize:
      io.uv(r.position);
      return;
    case ReplRecord::kEpoch:
      io.uv(r.epoch);
      io.u8(r.primary);
      return;
  }
  io.fail("replication record kind " + std::to_string(r.kind) + " is not 0-4");
}

template <typename Io, Of<ReplAppendReq> P>
void fields(Io& io, P& p) {
  io.uv(p.epoch);
  io.uv(p.first_seq);
  io.list(p.records);
}

template <typename Io, Of<ReplAppendAck> P>
void fields(Io& io, P& p) {
  io.uv(p.epoch);
  io.uv(p.acked_seq);
}

template <typename Io, Of<ReplJoinReq> P>
void fields(Io& io, P& p) {
  io.uv(p.epoch);
  io.uv(p.have_seq);
  io.u8(p.was_primary);
}

template <typename Io, Of<ReplJoinResp> P>
void fields(Io& io, P& p) {
  io.uv(p.epoch);
  io.u8(p.reset);
  io.uv(p.first_seq);
  io.list(p.records);
}

template <typename Io, Of<TakeoverNotice> P>
void fields(Io& io, P& p) {
  io.uv(p.shard);
  io.writer(p.node);
  io.uv(p.epoch);
}

template <typename Io, Of<NodeDownNotice> P>
void fields(Io& io, P& p) { io.writer(p.node); }

/// The mode fields (wire v9): uv(mode_epoch), then uv(0) in the steady
/// state — a delta based at the epoch itself, which lists no flip — and
/// otherwise uv(mode_base + 1) followed by the C-mode and B-mode sets.
template <typename Io, Of<AdaptTagArrResp> P>
void fields(Io& io, P& p) {
  io.uv(p.tag);
  io.uv(p.watermark);
  io.list(p.entries);
  io.uv(p.mode_epoch);
  // Wire v10: the empty snapshot at epoch 0, what a current reader gets, is
  // the epoch byte alone.
  if constexpr (!Io::kDecode) {
    SNOW_CHECK_MSG(p.mode_epoch != 0 || (p.mode_base == 0 && p.c_mode.empty() && p.b_mode.empty()),
                   "a mode table at epoch 0 has no flips");
  }
  if (p.mode_epoch == 0) return;
  std::uint64_t base = 0;
  if constexpr (!Io::kDecode) {
    SNOW_CHECK_MSG(p.mode_base < std::numeric_limits<std::uint64_t>::max(),
                   "mode base " << p.mode_base << " leaves no room for the steady state");
    const bool steady = p.mode_base == p.mode_epoch && p.c_mode.empty() && p.b_mode.empty();
    if (!steady) base = p.mode_base + 1;
  }
  io.uv(base);
  if constexpr (Io::kDecode) p.mode_base = base == 0 ? p.mode_epoch : base - 1;
  if (base == 0) return;
  io.require(p.mode_base <= p.mode_epoch, "mode delta based past its epoch");
  io.set(p.c_mode, "C-mode", kMayBeEmpty);
  io.set(p.b_mode, "B-mode", kMayBeEmpty);
  io.require(p.mode_base != 0 || p.b_mode.empty(), "mode snapshot lists B-mode objects");
  io.require(p.mode_base != p.mode_epoch || !p.c_mode.empty() || !p.b_mode.empty(),
             "steady mode state not in its 1-byte form");
}

template <typename Io, Of<ReadValBatchReq> P>
void fields(Io& io, P& p) {
  io.uv(p.watermark);
  io.ascending(p.entries, &BatchReadEntry::obj, "read-val-batch", kNonEmpty,
               [](auto& io2, auto& e) { io2.key(e.key); });
}

template <typename Io, Of<BatchReadResult> P>
void fields(Io& io, P& e) {
  io.uv(e.obj);
  io.key(e.key);
  io.zz(e.value);
  io.flag(e.found);
}

template <typename Io, Of<ReadValBatchResp> P>
void fields(Io& io, P& p) { io.list(p.entries); }

// The coordinator fold (wire v6) adds no byte to a batch that does not
// fold: the request's coor bit rides in its floor varint (2 * floor + coor;
// the watermark before v10) and the response's tag-array kind in its entry
// count (4 * count + kind: 0 none, 1 tag-arr, 2 adapt-tag-arr).  The folded
// get-tag-arr or reply follows the batch, encoded exactly as the standalone
// payload's body.  These two heads are the codec's only direction-specific
// layout.

template <typename Io, Of<ReadValsBatchReq> P>
void fields(Io& io, P& p) {
  if constexpr (!Io::kDecode) {
    SNOW_CHECK_MSG(p.floor <= std::numeric_limits<Tag>::max() / 2,
                   "read-vals-batch floor " << p.floor << " leaves no room for coor");
  }
  std::uint64_t head = p.floor * 2 + (p.tag_arr ? 1 : 0);
  io.uv(head);
  if constexpr (Io::kDecode) {
    p.floor = head / 2;
    if (head % 2 == 1) p.tag_arr.emplace();
  }
  // Wire v10: the objects' count says whether a held list follows, so a
  // batch without one costs no byte more, and each held object's `list`
  // bit rides in its gap.
  bool held = !p.held.empty();
  io.set(p.objs, "read-vals-batch", kMayBeEmpty, &held);
  io.require(!p.objs.empty() || held, "read-vals-batch names no object");
  if (held) {
    io.ascending(p.held, &HeldVersion::obj, "read-vals-batch held", kNonEmpty,
                 [](auto& io2, auto& e) { io2.key(e.key); }, nullptr, &HeldVersion::list);
  }
  if constexpr (Io::kDecode) {
    io.require(std::ranges::none_of(p.held,
                                    [&](const HeldVersion& e) {
                                      return std::ranges::binary_search(p.objs, e.obj);
                                    }),
               "read-vals-batch names an object twice");
  }
  if (p.tag_arr) {
    fields(io, *p.tag_arr);
    io.require(!p.tag_arr->objs.empty(), "folded get-tag-arr names no object");
  }
}

/// One object's version list, seq delta-coded.  Vals ships key-ordered, so
/// the zigzag deltas are small non-negatives; arbitrary orders stay valid.
template <typename Io, Of<ObjectVersions> P>
void fields(Io& io, P& e) {
  io.uv(e.obj);
  io.deltas(
      e.versions, [](auto& v) -> auto& { return v.key.seq; },
      [](auto& io2, auto& v) {
        io2.writer(v.key.writer);
        io2.zz(v.value);
      });
}

template <typename Io, Of<ReadValsBatchResp> P>
void fields(Io& io, P& p) {
  std::uint64_t head = p.entries.size() * 4 + (p.tag_arr ? p.tag_arr->index() + 1 : 0);
  io.uv(head);
  if constexpr (Io::kDecode) {
    io.require(head % 4 != 3, "read-vals-batch-resp tag-array kind is not 0, 1 or 2");
    if (head % 4 == 1) p.tag_arr.emplace(std::in_place_type<GetTagArrResp>);
    if (head % 4 == 2) p.tag_arr.emplace(std::in_place_type<AdaptTagArrResp>);
  }
  io.elements(p.entries, head / 4);
  if (p.tag_arr) std::visit([&io](auto& t) { fields(io, t); }, *p.tag_arr);
}

static_assert(std::variant_size_v<Payload> <= 256, "payload index must fit one byte");

// Payload-tag FREEZE (docs/WIRE.md): the payload tag is the variant index,
// and both the TCP transport and the checked-in fuzz trace files depend on
// these numbers.  APPEND new payloads to the variant; reordering or
// inserting breaks every stored trace and any mixed-version fleet, so it
// requires a wire-version bump.  These asserts pin the frozen assignment,
// which snowkit-wire-v2 to v10 kept (v2 redefined only the bodies of tags
// 6, 7 and 36; v3 those of 2, 4, 6, 36 and the replication record; v4 those
// of 0, 1 and 12; v5 those of 37 and 39, and left 8-11 without a sender; v6
// those of 39 and 40, which fold get-tag-arr and its reply; v7 only the
// framing; v8 the envelope txn and the replication record; v9 that of 36;
// v10 those of 0, which names the ack's node and may fold update-coor, 36,
// whose epoch-0 table is one byte, and 39, which may name the versions a
// reader holds).
// Tags 8-11 are reserved placeholders now: decoding one is a CodecError.
template <typename T>
constexpr std::size_t payload_tag = Payload{T{}}.index();
static_assert(payload_tag<WriteValReq> == 0 && payload_tag<WriteValAck> == 1 &&
              payload_tag<InfoReaderReq> == 2 && payload_tag<InfoReaderAck> == 3 &&
              payload_tag<UpdateCoorReq> == 4 && payload_tag<UpdateCoorAck> == 5 &&
              payload_tag<GetTagArrReq> == 6 && payload_tag<GetTagArrResp> == 7 &&
              payload_tag<ReservedPayload<8>> == 8 && payload_tag<ReservedPayload<9>> == 9 &&
              payload_tag<ReservedPayload<10>> == 10 && payload_tag<ReservedPayload<11>> == 11 &&
              payload_tag<FinalizeReq> == 12 && payload_tag<EigerWriteReq> == 13 &&
              payload_tag<EigerWriteAck> == 14 && payload_tag<EigerReadReq> == 15 &&
              payload_tag<EigerReadResp> == 16 && payload_tag<EigerReadAtReq> == 17 &&
              payload_tag<EigerReadAtResp> == 18 && payload_tag<LockReq> == 19 &&
              payload_tag<LockGrant> == 20 && payload_tag<WriteUnlockReq> == 21 &&
              payload_tag<UnlockReq> == 22 && payload_tag<UnlockAck> == 23 &&
              payload_tag<SimpleReadReq> == 24 && payload_tag<SimpleReadResp> == 25 &&
              payload_tag<SimpleWriteReq> == 26 && payload_tag<SimpleWriteAck> == 27 &&
              payload_tag<FinalizeCoorReq> == 28 && payload_tag<ReadDoneReq> == 29 &&
              payload_tag<ReplAppendReq> == 30 && payload_tag<ReplAppendAck> == 31 &&
              payload_tag<ReplJoinReq> == 32 && payload_tag<ReplJoinResp> == 33 &&
              payload_tag<TakeoverNotice> == 34 && payload_tag<NodeDownNotice> == 35,
              "snowkit-wire payload tags are frozen (docs/WIRE.md): append new payloads, "
              "never reorder; a reorder requires a wire-version bump");

// Adaptive-layer payloads, appended in PR 10.  A separate assert so the
// frozen 0-35 block above stays byte-identical to what earlier checkins
// compiled against.
static_assert(payload_tag<AdaptTagArrResp> == 36 && payload_tag<ReadValBatchReq> == 37 &&
              payload_tag<ReadValBatchResp> == 38 && payload_tag<ReadValsBatchReq> == 39 &&
              payload_tag<ReadValsBatchResp> == 40,
              "snowkit-wire adaptive payload tags are frozen (docs/WIRE.md): append new "
              "payloads, never reorder; a reorder requires a wire-version bump");


/// The envelope: uv(txn + 1), then the payload tag and body.  The +1 shift
/// (wire v8, the audit chunks' rule) wraps kInvalidTxn, which every
/// read-done and replication message carries, to a 1-byte 0.
template <typename W>
void put_message(W& w, const Message& m) {
  w.uv(m.txn + 1);
  w.u8(static_cast<std::uint8_t>(m.payload.index()));
  Put<W> io{w};
  std::visit([&io](const auto& p) { fields(io, p); }, m.payload);
}

/// Decodes alternative `tag` of the Payload variant into `out`, in place.
template <std::size_t... I>
void get_payload(Get& io, std::size_t tag, Payload& out, std::index_sequence<I...>) {
  (void)((tag == I && (fields(io, out.emplace<I>()), true)) || ...);
}

/// Shared decode body; malformation surfaces as CodecError, and the two
/// public entry points choose the failure mode (abort vs error-return).
Message decode_message_impl(const std::vector<std::uint8_t>& bytes) {
  BufReader r(bytes);
  Message m;
  m.txn = r.uv() - 1;  // undo the envelope's +1 shift; 0 -> kInvalidTxn
  const std::size_t tag = r.u8();
  if (tag >= std::variant_size_v<Payload>) {
    r.fail("payload index " + std::to_string(tag) + " out of range");
  }
  Get io{r};
  get_payload(io, tag, m.payload, std::make_index_sequence<std::variant_size_v<Payload>>{});
  if (!r.done()) r.fail(std::string("trailing bytes after payload ") + payload_name(m.payload));
  return m;
}

}  // namespace

std::vector<std::uint8_t> encode_message(const Message& m) {
  BufWriter w;
  put_message(w, m);
  return w.take();
}

void encode_message_into(const Message& m, std::vector<std::uint8_t>& out) {
  BufWriter w(out);
  put_message(w, m);
}

Message decode_message(const std::vector<std::uint8_t>& bytes) {
  // Trusted in-process bytes (ThreadRuntime mailboxes, sim roundtrips): a
  // decode failure means OUR encoder or memory is corrupt — abort.
  try {
    return decode_message_impl(bytes);
  } catch (const CodecError& e) {
    SNOW_UNREACHABLE("decode_message on trusted bytes failed: " + std::string(e.what()));
  }
}

bool try_decode_message(const std::vector<std::uint8_t>& bytes, Message& out,
                        std::string& err) noexcept {
  // Untrusted network bytes (NetRuntime frames from a greeted-but-
  // unauthenticated TCP peer): malformation is expected input, never a
  // reason to die.
  try {
    out = decode_message_impl(bytes);
    return true;
  } catch (const CodecError& e) {
    err = e.what();
    return false;
  } catch (const std::bad_alloc&) {
    err = "allocation failure during decode";
    return false;
  }
}

std::size_t encoded_size(const Message& m) {
  SizeWriter w;
  put_message(w, m);
  return w.size();
}

}  // namespace snowkit
