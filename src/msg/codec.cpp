#include "msg/codec.hpp"

#include <iterator>
#include <limits>
#include <string>
#include <type_traits>

#include "common/assert.hpp"
#include "common/buffer.hpp"

namespace snowkit {

namespace {

// The put_* helpers and Encoder are templated over the writer so the same
// encoding logic runs against BufWriter (serialize) and SizeWriter (count).
//
// Encoding conventions (the compact wire format):
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

template <typename W>
void put_writer(W& w, NodeId writer) {
  w.uv(writer == kInvalidNode ? 0 : static_cast<std::uint64_t>(writer) + 1);
}

NodeId get_writer(BufReader& r) {
  const std::uint64_t v = r.uv();
  return v == 0 ? kInvalidNode : static_cast<NodeId>(v - 1);
}

template <typename W>
void put_key(W& w, const WriteKey& k) {
  w.uv(k.seq);
  put_writer(w, k.writer);
}

WriteKey get_key(BufReader& r) {
  WriteKey k;
  k.seq = r.uv();
  k.writer = get_writer(r);
  return k;
}

/// Version list, seq delta-coded (read-vals-batch-resp).  Vals ships key-ordered, so
/// the zigzag deltas are small non-negatives; arbitrary orders stay valid.
template <typename W>
void put_versions(W& w, const std::vector<Version>& vs) {
  w.uv(vs.size());
  std::uint64_t prev_seq = 0;
  for (const Version& v : vs) {
    w.zz(static_cast<std::int64_t>(v.key.seq - prev_seq));
    put_writer(w, v.key.writer);
    w.zz(v.value);
    prev_seq = v.key.seq;
  }
}

std::vector<Version> get_versions(BufReader& r) {
  std::uint64_t prev_seq = 0;
  return r.cvec<Version>([&prev_seq](BufReader& r2) {
    Version v;
    prev_seq += static_cast<std::uint64_t>(r2.zz());
    v.key.seq = prev_seq;
    v.key.writer = get_writer(r2);
    v.value = r2.zz();
    return v;
  });
}

/// List history, position delta-coded (GetTagArrResp); coordinators ship it
/// position-ascending, so deltas are small non-negatives.
template <typename W>
void put_history(W& w, const std::vector<ListedKey>& h) {
  w.uv(h.size());
  Tag prev = 0;
  for (const ListedKey& lk : h) {
    w.zz(static_cast<std::int64_t>(lk.position - prev));
    put_key(w, lk.key);
    prev = lk.position;
  }
}

std::vector<ListedKey> get_history(BufReader& r) {
  Tag prev = 0;
  return r.cvec<ListedKey>([&prev](BufReader& r2) {
    prev += static_cast<std::uint64_t>(r2.zz());
    return ListedKey{prev, get_key(r2)};
  });
}

/// An object set (read sets, write sets, mode deltas): strictly ascending,
/// so each id rides as its gap to the previous one (the first as its gap to
/// 0).  `put_field` writes whatever rides after each id (write-val's value,
/// read-val-batch's key; nothing for a bare set).  `what` names the field in
/// errors.
template <typename W, typename T, typename IdOf, typename PutField>
void put_ascending(W& w, const std::vector<T>& items, IdOf id_of, PutField put_field,
                   const char* what) {
  w.uv(items.size());
  ObjectId prev = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const ObjectId obj = id_of(items[i]);
    SNOW_CHECK_MSG(i == 0 || obj > prev, what << " object ids must strictly ascend");
    w.uv(obj - prev);
    put_field(w, items[i]);
    prev = obj;
  }
}

template <typename W>
void put_obj_set(W& w, const std::vector<ObjectId>& objs, const char* what) {
  put_ascending(w, objs, [](ObjectId obj) { return obj; }, [](W&, ObjectId) {}, what);
}

/// The decoding side: unsorted or duplicate ids are a CodecError, and so is
/// an empty set where `nonempty` (a WRITE writes at least one object).
/// `get_item(r, obj)` reads the field after each id and builds the element.
template <typename T, typename GetItem>
std::vector<T> get_ascending(BufReader& r, const char* what, bool nonempty, GetItem get_item) {
  std::uint64_t prev = 0;
  bool first = true;
  std::vector<T> items = r.cvec<T>([&](BufReader& r2) {
    const std::uint64_t gap = r2.uv();
    if (!first && gap == 0) {
      throw CodecError(std::string(what) + " object ids not strictly ascending");
    }
    if (gap > std::numeric_limits<ObjectId>::max() - prev) {
      throw CodecError(std::string(what) + " object id out of range");
    }
    first = false;
    prev += gap;
    return get_item(r2, static_cast<ObjectId>(prev));
  });
  if (nonempty && items.empty()) throw CodecError(std::string(what) + " names no object");
  return items;
}

std::vector<ObjectId> get_obj_set(BufReader& r, const char* what, bool nonempty) {
  return get_ascending<ObjectId>(r, what, nonempty, [](BufReader&, ObjectId obj) { return obj; });
}

/// Tag-array slots (GetTagArrResp, AdaptTagArrResp): per slot obj, kappa_i,
/// and the object's List history under the position-delta rule above.
template <typename W>
void put_tag_entries(W& w, const std::vector<TagArrEntry>& entries) {
  w.cvec(entries, [](auto& w2, const TagArrEntry& e) {
    w2.uv(e.obj);
    put_key(w2, e.latest);
    put_history(w2, e.history);
  });
}

std::vector<TagArrEntry> get_tag_entries(BufReader& r) {
  return r.cvec<TagArrEntry>([](BufReader& r2) {
    TagArrEntry e;
    e.obj = static_cast<ObjectId>(r2.uv());
    e.latest = get_key(r2);
    e.history = get_history(r2);
    return e;
  });
}

/// Replication log records (wire v8): the kind byte, then only the fields
/// kFieldsOfKind names for that kind, in the order the switches below write
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

template <typename W>
void put_repl_record(W& w, const ReplRecord& r) {
  SNOW_CHECK_MSG(r.kind <= ReplRecord::kEpoch, "encoding replication record kind " << int{r.kind});
  SNOW_CHECK_MSG((set_fields(r) & ~kFieldsOfKind[r.kind]) == 0,
                 "replication record kind " << int{r.kind} << " sets a field it does not carry");
  w.u8(r.kind);
  switch (r.kind) {
    case ReplRecord::kInsert:
      w.uv(r.obj);
      put_key(w, r.key);
      w.zz(r.value);
      return;
    case ReplRecord::kFinalize:
      w.uv(r.obj);
      put_key(w, r.key);
      w.uv(r.position);
      w.uv(r.watermark);
      return;
    case ReplRecord::kListPush:
      put_key(w, r.key);
      put_obj_set(w, r.objs, "kListPush");
      w.uv(r.txn);
      put_writer(w, r.writer);
      w.uv(r.position);
      return;
    case ReplRecord::kCoorFinalize:
      w.uv(r.position);
      return;
    case ReplRecord::kEpoch:
      w.uv(r.epoch);
      w.u8(r.primary);
      return;
  }
}

ReplRecord get_repl_record(BufReader& r) {
  ReplRecord rec;
  rec.kind = r.u8();
  switch (rec.kind) {
    case ReplRecord::kInsert:
      rec.obj = static_cast<ObjectId>(r.uv());
      rec.key = get_key(r);
      rec.value = r.zz();
      return rec;
    case ReplRecord::kFinalize:
      rec.obj = static_cast<ObjectId>(r.uv());
      rec.key = get_key(r);
      rec.position = r.uv();
      rec.watermark = r.uv();
      return rec;
    case ReplRecord::kListPush:
      rec.key = get_key(r);
      rec.objs = get_obj_set(r, "kListPush", /*nonempty=*/true);
      rec.txn = r.uv();
      rec.writer = get_writer(r);
      rec.position = r.uv();
      return rec;
    case ReplRecord::kCoorFinalize:
      rec.position = r.uv();
      return rec;
    case ReplRecord::kEpoch:
      rec.epoch = r.uv();
      rec.primary = r.u8();
      return rec;
    default:
      throw CodecError("replication record kind " + std::to_string(rec.kind) + " is not 0-4");
  }
}

template <typename W>
struct Encoder {
  W& w;

  void operator()(const WriteValReq& p) {
    put_key(w, p.key);
    put_ascending(
        w, p.writes, [](const auto& ov) { return ov.first; },
        [](W& w2, const auto& ov) { w2.zz(ov.second); }, "write-val");
  }
  void operator()(const WriteValAck& p) {
    put_key(w, p.key);
    put_obj_set(w, p.objs, "write-val-ack");
  }
  void operator()(const InfoReaderReq& p) {
    put_key(w, p.key);
    put_obj_set(w, p.objs, "info-reader");
  }
  void operator()(const InfoReaderAck& p) { w.uv(p.tag); }
  void operator()(const UpdateCoorReq& p) {
    put_key(w, p.key);
    put_obj_set(w, p.objs, "update-coor");
  }
  void operator()(const UpdateCoorAck& p) { w.uv(p.tag); w.uv(p.watermark); }
  void operator()(const GetTagArrReq& p) {
    put_obj_set(w, p.objs, "get-tag-arr");
    w.uv(p.mode_epoch);
  }
  void operator()(const GetTagArrResp& p) {
    w.uv(p.tag);
    w.uv(p.watermark);
    put_tag_entries(w, p.entries);
  }
  template <std::size_t N>
  void operator()(const ReservedPayload<N>&) {
    SNOW_UNREACHABLE("encoding reserved payload tag " + std::to_string(N));
  }
  void operator()(const FinalizeReq& p) {
    put_key(w, p.key);
    w.uv(p.position);
    w.uv(p.watermark);
    put_obj_set(w, p.objs, "finalize");
    w.u8(p.coor ? 1 : 0);
  }
  void operator()(const FinalizeCoorReq& p) { w.uv(p.position); }
  void operator()(const ReadDoneReq& p) { w.uv(p.txn); }
  void operator()(const EigerWriteReq& p) { w.uv(p.obj); w.zz(p.value); w.uv(p.lamport); }
  void operator()(const EigerWriteAck& p) { w.uv(p.obj); w.uv(p.commit_ts); w.uv(p.lamport); }
  void operator()(const EigerReadReq& p) { w.uv(p.obj); w.uv(p.lamport); }
  void operator()(const EigerReadResp& p) {
    w.uv(p.obj); w.zz(p.value); w.uv(p.valid_from); w.uv(p.valid_until); w.uv(p.lamport);
  }
  void operator()(const EigerReadAtReq& p) { w.uv(p.obj); w.uv(p.at); w.uv(p.lamport); }
  void operator()(const EigerReadAtResp& p) { w.uv(p.obj); w.zz(p.value); w.uv(p.lamport); }
  void operator()(const LockReq& p) { w.uv(p.obj); w.u8(p.exclusive ? 1 : 0); }
  void operator()(const LockGrant& p) { w.uv(p.obj); w.zz(p.value); }
  void operator()(const WriteUnlockReq& p) { w.uv(p.obj); w.zz(p.value); }
  void operator()(const UnlockReq& p) { w.uv(p.obj); }
  void operator()(const UnlockAck& p) { w.uv(p.obj); }
  void operator()(const SimpleReadReq& p) { w.uv(p.obj); }
  void operator()(const SimpleReadResp& p) { w.uv(p.obj); w.zz(p.value); }
  void operator()(const SimpleWriteReq& p) { w.uv(p.obj); w.zz(p.value); }
  void operator()(const SimpleWriteAck& p) { w.uv(p.obj); }
  void operator()(const ReplAppendReq& p) {
    w.uv(p.epoch);
    w.uv(p.first_seq);
    w.cvec(p.records, [](auto& w2, const ReplRecord& r) { put_repl_record(w2, r); });
  }
  void operator()(const ReplAppendAck& p) { w.uv(p.epoch); w.uv(p.acked_seq); }
  void operator()(const ReplJoinReq& p) {
    w.uv(p.epoch); w.uv(p.have_seq); w.u8(p.was_primary);
  }
  void operator()(const ReplJoinResp& p) {
    w.uv(p.epoch);
    w.u8(p.reset);
    w.uv(p.first_seq);
    w.cvec(p.records, [](auto& w2, const ReplRecord& r) { put_repl_record(w2, r); });
  }
  void operator()(const TakeoverNotice& p) {
    w.uv(p.shard); put_writer(w, p.node); w.uv(p.epoch);
  }
  void operator()(const NodeDownNotice& p) { put_writer(w, p.node); }
  void operator()(const AdaptTagArrResp& p) {
    w.uv(p.tag);
    w.uv(p.watermark);
    put_tag_entries(w, p.entries);
    w.uv(p.mode_epoch);
    w.uv(p.mode_base);
    put_obj_set(w, p.c_mode, "C-mode");
    put_obj_set(w, p.b_mode, "B-mode");
  }
  void operator()(const ReadValBatchReq& p) {
    w.uv(p.watermark);
    put_ascending(
        w, p.entries, [](const BatchReadEntry& e) { return e.obj; },
        [](W& w2, const BatchReadEntry& e) { put_key(w2, e.key); }, "read-val-batch");
  }
  void operator()(const ReadValBatchResp& p) {
    w.cvec(p.entries, [](auto& w2, const BatchReadResult& e) {
      w2.uv(e.obj);
      put_key(w2, e.key);
      w2.zz(e.value);
      w2.u8(e.found ? 1 : 0);
    });
  }
  // The coordinator fold (wire v6) adds no byte to a batch that does not
  // fold: the request's coor bit rides in its watermark varint
  // (2 * watermark + coor) and the response's tag-array kind in its entry
  // count (4 * count + kind: 0 none, 1 tag-arr, 2 adapt-tag-arr).  The
  // folded get-tag-arr or reply follows the batch, encoded exactly as the
  // standalone payload's body.
  void operator()(const ReadValsBatchReq& p) {
    SNOW_CHECK_MSG(p.watermark <= std::numeric_limits<Tag>::max() / 2,
                   "read-vals-batch watermark " << p.watermark << " leaves no room for coor");
    w.uv(p.watermark * 2 + (p.tag_arr ? 1 : 0));
    put_obj_set(w, p.objs, "read-vals-batch");
    if (p.tag_arr) (*this)(*p.tag_arr);
  }
  void operator()(const ReadValsBatchResp& p) {
    w.uv(p.entries.size() * 4 + (p.tag_arr ? p.tag_arr->index() + 1 : 0));
    for (const ObjectVersions& e : p.entries) {
      w.uv(e.obj);
      put_versions(w, e.versions);
    }
    if (p.tag_arr) std::visit(*this, *p.tag_arr);
  }
};

template <std::size_t I = 0>
Payload decode_alternative(std::size_t index, BufReader& r);

struct Decoder {
  BufReader& r;

  template <typename T>
  T get();
};

template <>
WriteValReq Decoder::get<WriteValReq>() {
  WriteValReq p;
  p.key = get_key(r);
  p.writes = get_ascending<std::pair<ObjectId, Value>>(
      r, "write-val", /*nonempty=*/true,
      [](BufReader& r2, ObjectId obj) { return std::pair<ObjectId, Value>{obj, r2.zz()}; });
  return p;
}
template <>
WriteValAck Decoder::get<WriteValAck>() {
  WriteValAck p;
  p.key = get_key(r);
  p.objs = get_obj_set(r, "write-val-ack", /*nonempty=*/true);
  return p;
}
template <>
InfoReaderReq Decoder::get<InfoReaderReq>() {
  InfoReaderReq p;
  p.key = get_key(r);
  p.objs = get_obj_set(r, "info-reader", /*nonempty=*/true);
  return p;
}
template <>
InfoReaderAck Decoder::get<InfoReaderAck>() {
  InfoReaderAck p; p.tag = r.uv(); return p;
}
template <>
UpdateCoorReq Decoder::get<UpdateCoorReq>() {
  UpdateCoorReq p;
  p.key = get_key(r);
  p.objs = get_obj_set(r, "update-coor", /*nonempty=*/true);
  return p;
}
template <>
UpdateCoorAck Decoder::get<UpdateCoorAck>() {
  UpdateCoorAck p; p.tag = r.uv(); p.watermark = r.uv(); return p;
}
template <>
GetTagArrReq Decoder::get<GetTagArrReq>() {
  GetTagArrReq p;
  p.objs = get_obj_set(r, "get-tag-arr", /*nonempty=*/false);
  p.mode_epoch = r.uv();
  return p;
}
template <>
GetTagArrResp Decoder::get<GetTagArrResp>() {
  GetTagArrResp p;
  p.tag = r.uv();
  p.watermark = r.uv();
  p.entries = get_tag_entries(r);
  return p;
}
template <>
FinalizeReq Decoder::get<FinalizeReq>() {
  FinalizeReq p;
  p.key = get_key(r);
  p.position = r.uv();
  p.watermark = r.uv();
  p.objs = get_obj_set(r, "finalize", /*nonempty=*/true);
  const std::uint8_t coor = r.u8();
  if (coor > 1) throw CodecError("finalize coor flag is neither 0 nor 1");
  p.coor = coor == 1;
  return p;
}
template <>
FinalizeCoorReq Decoder::get<FinalizeCoorReq>() {
  FinalizeCoorReq p; p.position = r.uv(); return p;
}
template <>
ReadDoneReq Decoder::get<ReadDoneReq>() {
  ReadDoneReq p; p.txn = r.uv(); return p;
}
template <>
EigerWriteReq Decoder::get<EigerWriteReq>() {
  EigerWriteReq p; p.obj = static_cast<ObjectId>(r.uv()); p.value = r.zz(); p.lamport = r.uv();
  return p;
}
template <>
EigerWriteAck Decoder::get<EigerWriteAck>() {
  EigerWriteAck p; p.obj = static_cast<ObjectId>(r.uv()); p.commit_ts = r.uv();
  p.lamport = r.uv();
  return p;
}
template <>
EigerReadReq Decoder::get<EigerReadReq>() {
  EigerReadReq p; p.obj = static_cast<ObjectId>(r.uv()); p.lamport = r.uv(); return p;
}
template <>
EigerReadResp Decoder::get<EigerReadResp>() {
  EigerReadResp p;
  p.obj = static_cast<ObjectId>(r.uv()); p.value = r.zz(); p.valid_from = r.uv();
  p.valid_until = r.uv(); p.lamport = r.uv();
  return p;
}
template <>
EigerReadAtReq Decoder::get<EigerReadAtReq>() {
  EigerReadAtReq p; p.obj = static_cast<ObjectId>(r.uv()); p.at = r.uv(); p.lamport = r.uv();
  return p;
}
template <>
EigerReadAtResp Decoder::get<EigerReadAtResp>() {
  EigerReadAtResp p; p.obj = static_cast<ObjectId>(r.uv()); p.value = r.zz(); p.lamport = r.uv();
  return p;
}
template <>
LockReq Decoder::get<LockReq>() {
  LockReq p; p.obj = static_cast<ObjectId>(r.uv()); p.exclusive = r.u8() != 0; return p;
}
template <>
LockGrant Decoder::get<LockGrant>() {
  LockGrant p; p.obj = static_cast<ObjectId>(r.uv()); p.value = r.zz(); return p;
}
template <>
WriteUnlockReq Decoder::get<WriteUnlockReq>() {
  WriteUnlockReq p; p.obj = static_cast<ObjectId>(r.uv()); p.value = r.zz(); return p;
}
template <>
UnlockReq Decoder::get<UnlockReq>() {
  UnlockReq p; p.obj = static_cast<ObjectId>(r.uv()); return p;
}
template <>
UnlockAck Decoder::get<UnlockAck>() {
  UnlockAck p; p.obj = static_cast<ObjectId>(r.uv()); return p;
}
template <>
SimpleReadReq Decoder::get<SimpleReadReq>() {
  SimpleReadReq p; p.obj = static_cast<ObjectId>(r.uv()); return p;
}
template <>
SimpleReadResp Decoder::get<SimpleReadResp>() {
  SimpleReadResp p; p.obj = static_cast<ObjectId>(r.uv()); p.value = r.zz(); return p;
}
template <>
SimpleWriteReq Decoder::get<SimpleWriteReq>() {
  SimpleWriteReq p; p.obj = static_cast<ObjectId>(r.uv()); p.value = r.zz(); return p;
}
template <>
SimpleWriteAck Decoder::get<SimpleWriteAck>() {
  SimpleWriteAck p; p.obj = static_cast<ObjectId>(r.uv()); return p;
}
template <>
ReplAppendReq Decoder::get<ReplAppendReq>() {
  ReplAppendReq p;
  p.epoch = r.uv();
  p.first_seq = r.uv();
  p.records = r.cvec<ReplRecord>([](BufReader& r2) { return get_repl_record(r2); });
  return p;
}
template <>
ReplAppendAck Decoder::get<ReplAppendAck>() {
  ReplAppendAck p; p.epoch = r.uv(); p.acked_seq = r.uv(); return p;
}
template <>
ReplJoinReq Decoder::get<ReplJoinReq>() {
  ReplJoinReq p; p.epoch = r.uv(); p.have_seq = r.uv(); p.was_primary = r.u8(); return p;
}
template <>
ReplJoinResp Decoder::get<ReplJoinResp>() {
  ReplJoinResp p;
  p.epoch = r.uv();
  p.reset = r.u8();
  p.first_seq = r.uv();
  p.records = r.cvec<ReplRecord>([](BufReader& r2) { return get_repl_record(r2); });
  return p;
}
template <>
TakeoverNotice Decoder::get<TakeoverNotice>() {
  TakeoverNotice p; p.shard = r.uv(); p.node = get_writer(r); p.epoch = r.uv(); return p;
}
template <>
NodeDownNotice Decoder::get<NodeDownNotice>() {
  NodeDownNotice p; p.node = get_writer(r); return p;
}
template <>
AdaptTagArrResp Decoder::get<AdaptTagArrResp>() {
  AdaptTagArrResp p;
  p.tag = r.uv();
  p.watermark = r.uv();
  p.entries = get_tag_entries(r);
  p.mode_epoch = r.uv();
  p.mode_base = r.uv();
  if (p.mode_base > p.mode_epoch) throw CodecError("mode delta based past its epoch");
  p.c_mode = get_obj_set(r, "C-mode", /*nonempty=*/false);
  p.b_mode = get_obj_set(r, "B-mode", /*nonempty=*/false);
  if (p.mode_base == 0 && !p.b_mode.empty()) {
    throw CodecError("mode snapshot lists B-mode objects");
  }
  return p;
}
template <>
ReadValBatchReq Decoder::get<ReadValBatchReq>() {
  ReadValBatchReq p;
  p.watermark = r.uv();
  p.entries = get_ascending<BatchReadEntry>(
      r, "read-val-batch", /*nonempty=*/true,
      [](BufReader& r2, ObjectId obj) { return BatchReadEntry{obj, get_key(r2)}; });
  return p;
}
template <>
ReadValBatchResp Decoder::get<ReadValBatchResp>() {
  ReadValBatchResp p;
  p.entries = r.cvec<BatchReadResult>([](BufReader& r2) {
    BatchReadResult e;
    e.obj = static_cast<ObjectId>(r2.uv());
    e.key = get_key(r2);
    e.value = r2.zz();
    e.found = r2.u8() != 0;
    return e;
  });
  return p;
}
template <>
ReadValsBatchReq Decoder::get<ReadValsBatchReq>() {
  ReadValsBatchReq p;
  const std::uint64_t head = r.uv();
  p.watermark = head / 2;
  p.objs = get_obj_set(r, "read-vals-batch", /*nonempty=*/true);
  if (head % 2 == 1) {
    p.tag_arr = get<GetTagArrReq>();
    if (p.tag_arr->objs.empty()) throw CodecError("folded get-tag-arr names no object");
  }
  return p;
}
template <>
ReadValsBatchResp Decoder::get<ReadValsBatchResp>() {
  ReadValsBatchResp p;
  const std::uint64_t head = r.uv();
  const std::uint64_t kind = head % 4;
  if (kind == 3) throw CodecError("read-vals-batch-resp tag-array kind is not 0, 1 or 2");
  p.entries = r.cvec<ObjectVersions>(head / 4, [](BufReader& r2) {
    ObjectVersions e;
    e.obj = static_cast<ObjectId>(r2.uv());
    e.versions = get_versions(r2);
    return e;
  });
  if (kind == 1) p.tag_arr = get<GetTagArrResp>();
  if (kind == 2) p.tag_arr = get<AdaptTagArrResp>();
  return p;
}

template <std::size_t I>
Payload decode_alternative(std::size_t index, BufReader& r) {
  if constexpr (I < std::variant_size_v<Payload>) {
    if (index == I) {
      using T = std::variant_alternative_t<I, Payload>;
      if constexpr (std::is_same_v<T, ReservedPayload<I>>) {
        throw CodecError("payload tag " + std::to_string(I) + " is reserved");
      } else {
        Decoder d{r};
        return Payload{d.get<T>()};
      }
    }
    return decode_alternative<I + 1>(index, r);
  } else {
    SNOW_UNREACHABLE("bad payload index in decode");
  }
}

static_assert(std::variant_size_v<Payload> <= 256, "payload index must fit one byte");

// Payload-tag FREEZE (docs/WIRE.md): the payload tag is the variant index,
// and both the TCP transport and the checked-in fuzz trace files depend on
// these numbers.  APPEND new payloads to the variant; reordering or
// inserting breaks every stored trace and any mixed-version fleet, so it
// requires a wire-version bump.  These asserts pin the frozen assignment,
// which snowkit-wire-v2 to v8 kept (v2 redefined only the bodies of tags 6,
// 7 and 36; v3 those of 2, 4, 6, 36 and the replication record; v4 those of
// 0, 1 and 12; v5 those of 37 and 39, and left 8-11 without a sender; v6
// those of 39 and 40, which fold get-tag-arr and its reply; v7 only the
// framing; v8 the envelope txn and the replication record).  Tags 8-11 are
// reserved placeholders now: decoding one is a CodecError.
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

}  // namespace

namespace {

/// The envelope: uv(txn + 1), then the payload tag and body.  The +1 shift
/// (wire v8, the audit chunks' rule) wraps kInvalidTxn, which every
/// read-done and replication message carries, to a 1-byte 0.
template <typename W>
void put_message(W& w, const Message& m) {
  w.uv(m.txn + 1);
  w.u8(static_cast<std::uint8_t>(m.payload.index()));
  std::visit(Encoder<W>{w}, m.payload);
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

namespace {

/// Shared decode body; malformation surfaces as CodecError, and the two
/// public entry points choose the failure mode (abort vs error-return).
Message decode_message_impl(const std::vector<std::uint8_t>& bytes) {
  BufReader r(bytes);
  Message m;
  m.txn = r.uv() - 1;  // undo the envelope's +1 shift; 0 -> kInvalidTxn
  std::size_t index = r.u8();
  if (index >= std::variant_size_v<Payload>) {
    throw CodecError("payload index " + std::to_string(index) + " out of range");
  }
  m.payload = decode_alternative<0>(index, r);
  if (!r.done()) {
    throw CodecError(std::string("trailing bytes after payload ") + payload_name(m.payload));
  }
  return m;
}

}  // namespace

Message decode_message(const std::vector<std::uint8_t>& bytes) {
  // Trusted in-process bytes (ThreadRuntime mailboxes, sim roundtrips): a
  // decode failure means OUR encoder or memory is corrupt — abort, exactly
  // as before BufReader learned to throw.
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
