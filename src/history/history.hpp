// Transaction histories: the input to the correctness checkers.
//
// A history is the client-visible record of an execution: per transaction,
// its invocation/response interval, what it wrote or read, and (for the
// paper's algorithms) the Lemma-20 tag it was assigned.  The strict-
// serializability checkers (src/checker) consume histories only — they know
// nothing about protocols, which keeps verification independent of the
// system under test.
#pragma once

#include <atomic>
#include <mutex>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "runtime/runtime.hpp"

namespace snowkit {

struct TxnRecord {
  TxnId id{kInvalidTxn};
  NodeId client{kInvalidNode};
  bool is_read{false};
  TimeNs invoke_ns{0};
  TimeNs respond_ns{0};  ///< 0 while the transaction is incomplete.
  bool complete{false};

  /// Global linearization counters assigned by the recorder at INV/RESP.
  /// Used for real-time precedence: i precedes j iff
  /// i.respond_order < j.invoke_order.  (Virtual timestamps can collide,
  /// so orders — not times — define precedence.)
  std::uint64_t invoke_order{0};
  std::uint64_t respond_order{0};

  /// WRITE transactions: the (object, value) pairs written.
  std::vector<std::pair<ObjectId, Value>> writes;
  /// READ transactions: the (object, value) pairs returned.
  std::vector<std::pair<ObjectId, Value>> reads;

  /// Lemma-20 tag, if the protocol assigns one (kInvalidTag otherwise).
  Tag tag{kInvalidTag};
  /// Client-observed round trips to the slowest server for this transaction.
  int rounds{0};
  /// Max number of versions in any single server response (O property).
  int max_versions{0};
};

/// An immutable snapshot of a run's transactions.
struct History {
  std::size_t num_objects{0};
  std::vector<TxnRecord> txns;

  const TxnRecord* find(TxnId id) const;
  std::size_t completed_reads() const;
  std::size_t completed_writes() const;

  /// True iff transaction a's response precedes transaction b's invocation.
  static bool precedes(const TxnRecord& a, const TxnRecord& b) {
    return a.complete && a.respond_order < b.invoke_order;
  }
};

/// Thread-safe recorder used by protocol clients while a run is in progress.
class HistoryRecorder {
 public:
  explicit HistoryRecorder(std::size_t num_objects) : num_objects_(num_objects) {}

  /// Attaches a runtime so INV/RESP actions also land in sim traces.
  void attach_runtime(Runtime* rt) { rt_ = rt; }

  TxnId begin_read(NodeId client, const std::vector<ObjectId>& objs);
  TxnId begin_write(NodeId client, const std::vector<std::pair<ObjectId, Value>>& writes);

  void finish_read(TxnId id, std::vector<std::pair<ObjectId, Value>> reads, Tag tag, int rounds,
                   int max_versions);
  void finish_write(TxnId id, Tag tag, int rounds);

  /// Allocates a txn id without recording (used by non-transactional ops).
  TxnId next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  History snapshot() const;
  std::size_t num_objects() const { return num_objects_; }

 private:
  /// Appends `rec` under a freshly allocated id and returns that id.
  TxnId record(TxnRecord rec);
  /// The record of txn `id`: a binary search of the id-sorted txns_.
  TxnRecord& locate(TxnId id);

  std::size_t num_objects_;
  Runtime* rt_ = nullptr;
  mutable std::mutex mu_;
  std::vector<TxnRecord> txns_;
  std::atomic<TxnId> next_id_{1};
  std::atomic<std::uint64_t> next_order_{1};
};

}  // namespace snowkit
