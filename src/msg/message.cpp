#include "msg/message.hpp"

#include <algorithm>
#include <sstream>

#include "common/assert.hpp"

namespace snowkit {

namespace {

template <class... Ts>
struct Overloaded : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
Overloaded(Ts...) -> Overloaded<Ts...>;

}  // namespace

const char* payload_name(const Payload& p) {
  return std::visit(
      Overloaded{
          [](const WriteValReq&) { return "write-val"; },
          [](const WriteValAck&) { return "write-val-ack"; },
          [](const InfoReaderReq&) { return "info-reader"; },
          [](const InfoReaderAck&) { return "info-reader-ack"; },
          [](const UpdateCoorReq&) { return "update-coor"; },
          [](const UpdateCoorAck&) { return "update-coor-ack"; },
          [](const GetTagArrReq&) { return "get-tag-arr"; },
          [](const GetTagArrResp&) { return "tag-arr"; },
          []<std::size_t N>(const ReservedPayload<N>&) { return "reserved"; },
          [](const FinalizeReq&) { return "finalize"; },
          [](const EigerWriteReq&) { return "eiger-write"; },
          [](const EigerWriteAck&) { return "eiger-write-ack"; },
          [](const EigerReadReq&) { return "eiger-read"; },
          [](const EigerReadResp&) { return "eiger-read-resp"; },
          [](const EigerReadAtReq&) { return "eiger-read-at"; },
          [](const EigerReadAtResp&) { return "eiger-read-at-resp"; },
          [](const LockReq&) { return "lock-req"; },
          [](const LockGrant&) { return "lock-grant"; },
          [](const WriteUnlockReq&) { return "write-unlock"; },
          [](const UnlockReq&) { return "unlock"; },
          [](const UnlockAck&) { return "unlock-ack"; },
          [](const SimpleReadReq&) { return "simple-read"; },
          [](const SimpleReadResp&) { return "simple-read-resp"; },
          [](const SimpleWriteReq&) { return "simple-write"; },
          [](const SimpleWriteAck&) { return "simple-write-ack"; },
          [](const FinalizeCoorReq&) { return "finalize-coor"; },
          [](const ReadDoneReq&) { return "read-done"; },
          [](const ReplAppendReq&) { return "repl-append"; },
          [](const ReplAppendAck&) { return "repl-append-ack"; },
          [](const ReplJoinReq&) { return "repl-join"; },
          [](const ReplJoinResp&) { return "repl-join-resp"; },
          [](const TakeoverNotice&) { return "takeover-notice"; },
          [](const NodeDownNotice&) { return "node-down-notice"; },
          [](const AdaptTagArrResp&) { return "adapt-tag-arr"; },
          [](const ReadValBatchReq&) { return "read-val-batch"; },
          [](const ReadValBatchResp&) { return "read-val-batch-resp"; },
          [](const ReadValsBatchReq&) { return "read-vals-batch"; },
          [](const ReadValsBatchResp&) { return "read-vals-batch-resp"; },
      },
      p);
}

bool is_read_request(const Payload& p) {
  return std::holds_alternative<GetTagArrReq>(p) || std::holds_alternative<EigerReadReq>(p) ||
         std::holds_alternative<EigerReadAtReq>(p) || std::holds_alternative<SimpleReadReq>(p) ||
         std::holds_alternative<ReadValBatchReq>(p) ||
         std::holds_alternative<ReadValsBatchReq>(p);
}

bool is_read_response(const Payload& p) {
  return std::holds_alternative<GetTagArrResp>(p) || std::holds_alternative<EigerReadResp>(p) ||
         std::holds_alternative<EigerReadAtResp>(p) ||
         std::holds_alternative<SimpleReadResp>(p) ||
         std::holds_alternative<AdaptTagArrResp>(p) ||
         std::holds_alternative<ReadValBatchResp>(p) ||
         std::holds_alternative<ReadValsBatchResp>(p);
}

int version_count(const Payload& p) {
  if (const auto* bv = std::get_if<ReadValsBatchResp>(&p)) {
    std::size_t most = 0;
    for (const ObjectVersions& e : bv->entries) most = std::max(most, e.versions.size());
    return static_cast<int>(most);
  }
  if (is_read_response(p)) return 1;
  return 0;
}

const TagArrEntry& tag_entry(const std::vector<TagArrEntry>& entries, ObjectId obj) {
  const auto it = std::lower_bound(entries.begin(), entries.end(), obj,
                                   [](const TagArrEntry& e, ObjectId o) { return e.obj < o; });
  SNOW_CHECK_MSG(it != entries.end() && it->obj == obj,
                 "tag array has no entry for object " << obj);
  return *it;
}

std::string describe(const Message& m) {
  std::ostringstream oss;
  oss << payload_name(m.payload) << "[txn=" << m.txn << "]";
  return oss.str();
}

}  // namespace snowkit
