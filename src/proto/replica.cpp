#include "proto/replica.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <iterator>
#include <stdexcept>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "msg/codec.hpp"

namespace snowkit {

namespace {

std::uint64_t fnv1a(const std::uint8_t* p, std::size_t n) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;
  }
  return h;
}

void put_le32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_le64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t get_le32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

std::vector<std::uint8_t> magic_bytes() {
  return std::vector<std::uint8_t>(kWalMagic, kWalMagic + kWalMagicLen);
}

/// `batch` without kEpoch records.  Those are local-only WAL markers that no
/// replica ships, so one from the peer is dropped with a warning rather than
/// logged as a sequenced record (WAL replay would read it as a role change
/// that consumes no sequence number).  Copies only when there is one.
template <typename Batch>
const Batch& without_epoch_markers(const Batch& batch, Batch& filtered, NodeId from) {
  const auto is_epoch = [](const ReplRecord& r) { return r.kind == ReplRecord::kEpoch; };
  if (std::none_of(batch.records.begin(), batch.records.end(), is_epoch)) return batch;
  SNOW_WARN("dropping a kEpoch record shipped by node " << from << ": epoch markers are local");
  filtered = batch;
  std::erase_if(filtered.records, is_epoch);
  return filtered;
}

}  // namespace

// --- FileWal -----------------------------------------------------------------

FileWal::~FileWal() {
  if (fd_ >= 0) ::close(fd_);
}

void FileWal::open_() {
  if (fd_ >= 0) return;
  fd_ = ::open(path_.c_str(), O_CREAT | O_RDWR | O_APPEND, 0644);
  SNOW_CHECK_MSG(fd_ >= 0, "open " << path_ << " failed: " << std::strerror(errno));
}

void FileWal::append(const std::vector<std::uint8_t>& bytes) {
  open_();
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd_, bytes.data() + done, bytes.size() - done);
    SNOW_CHECK_MSG(n > 0, "write " << path_ << " failed: " << std::strerror(errno));
    done += static_cast<std::size_t>(n);
  }
  SNOW_CHECK_MSG(::fdatasync(fd_) == 0,
                 "fdatasync " << path_ << " failed: " << std::strerror(errno));
}

std::vector<std::uint8_t> FileWal::read_all() {
  open_();
  const off_t size = ::lseek(fd_, 0, SEEK_END);
  SNOW_CHECK_MSG(size >= 0, "lseek " << path_ << " failed: " << std::strerror(errno));
  std::vector<std::uint8_t> out(static_cast<std::size_t>(size));
  std::size_t done = 0;
  while (done < out.size()) {
    const ssize_t n = ::pread(fd_, out.data() + done, out.size() - done,
                              static_cast<off_t>(done));
    SNOW_CHECK_MSG(n > 0, "pread " << path_ << " failed: " << std::strerror(errno));
    done += static_cast<std::size_t>(n);
  }
  return out;
}

void FileWal::reset() {
  open_();
  SNOW_CHECK_MSG(::ftruncate(fd_, 0) == 0,
                 "ftruncate " << path_ << " failed: " << std::strerror(errno));
  SNOW_CHECK_MSG(::fdatasync(fd_) == 0,
                 "fdatasync " << path_ << " failed: " << std::strerror(errno));
}

// --- WAL framing & replay ----------------------------------------------------

std::vector<std::uint8_t> wal_frame_batch(const ReplAppendReq& batch) {
  const std::vector<std::uint8_t> payload =
      encode_message(Message{kInvalidTxn, batch});
  std::vector<std::uint8_t> out;
  out.reserve(payload.size() + 12);
  put_le32(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  put_le64(out, fnv1a(payload.data(), payload.size()));
  return out;
}

WalReplayResult wal_replay(const std::vector<std::uint8_t>& bytes) {
  WalReplayResult out;
  if (bytes.empty()) return out;
  if (bytes.size() < kWalMagicLen ||
      std::memcmp(bytes.data(), kWalMagic, kWalMagicLen) != 0) {
    // Older logs are refused by name: their records decode as garbage here.
    static constexpr const char* kOlder[][2] = {
        {"snowkit-wal-v1\n", "k-bit List masks"},
        {"snowkit-wal-v2\n", "full-field records under a 10-byte envelope txn"}};
    for (const auto& [magic, why] : kOlder) {
      if (bytes.size() >= kWalMagicLen && std::memcmp(bytes.data(), magic, kWalMagicLen) == 0) {
        throw std::invalid_argument("WAL is " + std::string(magic, kWalMagicLen - 1) + " (" +
                                    why + "); this build reads snowkit-wal-v3 only");
      }
    }
    throw std::invalid_argument("WAL head is not the snowkit-wal-v3 magic");
  }
  out.fresh = false;
  std::size_t off = kWalMagicLen;
  while (off < bytes.size()) {
    if (bytes.size() - off < 4) break;  // torn: partial length prefix
    const std::uint64_t len = get_le32(bytes.data() + off);
    if (bytes.size() - off - 4 < len + 8) break;  // torn: partial frame
    const std::uint8_t* payload = bytes.data() + off + 4;
    if (fnv1a(payload, len) != get_le64(payload + len)) break;  // torn: checksum
    Message m;
    std::string err;
    if (!try_decode_message(std::vector<std::uint8_t>(payload, payload + len), m, err)) break;
    const auto* ar = std::get_if<ReplAppendReq>(&m.payload);
    if (ar == nullptr) break;                       // torn: foreign payload
    if (ar->first_seq != out.records.size()) break;  // torn: seq gap
    for (const ReplRecord& rec : ar->records) {
      if (rec.kind == ReplRecord::kEpoch) {
        // Local-only marker: updates epoch/role, consumes no log sequence.
        out.epoch = rec.epoch;
        out.was_primary = rec.primary != 0;
      } else {
        out.records.push_back(rec);
      }
    }
    off += 4 + len + 8;
  }
  out.torn = off < bytes.size();
  return out;
}

// --- Replicator --------------------------------------------------------------

Replicator::Replicator(Config cfg, std::unique_ptr<WalStorage> wal, SendFn send,
                       PostAfterFn post_after, std::map<ObjectId, VersionStore>* stores,
                       std::optional<CoorList>* list)
    : cfg_(std::move(cfg)), wal_(std::move(wal)), send_(std::move(send)),
      post_after_(std::move(post_after)), stores_(stores), list_(list) {
  SNOW_CHECK(wal_ != nullptr && post_after_ && stores_ != nullptr && list_ != nullptr);
  SNOW_CHECK(!cfg_.has_list || cfg_.num_objects > 0);
}

void Replicator::boot() {
  booted_ = true;
  log_.clear();
  waiters_.clear();
  drop_deferred();
  buffered_.clear();
  dedup_.clear();
  pending_join_.reset();
  joining_ = false;
  acked_seq_ = 0;
  pending_pushes_ = 0;
  peer_alive_ = true;
  WalReplayResult replay = wal_replay(wal_->read_all());
  if (replay.fresh) {
    primary_ = cfg_.start_primary;
    tainted_ = primary_;  // a primary's log tail is its own lineage
    epoch_ = 0;
    wal_->append(magic_bytes());
    persist_epoch();
  } else {
    // A restarted node NEVER resumes primacy: it recovers its log and
    // rejoins as backup.  The taint flag is NOT cleared here — only a full
    // resync proves this log a prefix of the current lineage.
    primary_ = false;
    epoch_ = replay.epoch;
    tainted_ = replay.was_primary;
    log_ = std::move(replay.records);
    for (const ReplRecord& rec : log_) apply_peer_record(rec);
  }
  if (!primary_) {
    joining_ = true;
    send_(cfg_.peer, Message{kInvalidTxn, ReplJoinReq{epoch_, log_.size(),
                                                      tainted_ ? std::uint8_t{1}
                                                               : std::uint8_t{0}}});
  }
}

void Replicator::on_crash() {
  booted_ = false;
  log_.clear();
  waiters_.clear();
  drop_deferred();
  buffered_.clear();
  dedup_.clear();
  pending_join_.reset();
  joining_ = false;
  acked_seq_ = 0;
  pending_pushes_ = 0;
  primary_ = false;
  tainted_ = false;
  epoch_ = 0;
  peer_alive_ = true;
}

bool Replicator::consume(NodeId from, const Message& m) {
  if (const auto* ar = std::get_if<ReplAppendReq>(&m.payload)) {
    ReplAppendReq filtered;
    if (from == cfg_.peer) on_append(from, without_epoch_markers(*ar, filtered, from));
    return true;
  }
  if (const auto* ak = std::get_if<ReplAppendAck>(&m.payload)) {
    if (from == cfg_.peer) on_ack(*ak);
    return true;
  }
  if (const auto* jr = std::get_if<ReplJoinReq>(&m.payload)) {
    if (from == cfg_.peer) on_join(from, *jr);
    return true;
  }
  if (const auto* js = std::get_if<ReplJoinResp>(&m.payload)) {
    ReplJoinResp filtered;
    if (from == cfg_.peer) on_join_resp(without_epoch_markers(*js, filtered, from));
    return true;
  }
  if (const auto* nd = std::get_if<NodeDownNotice>(&m.payload)) {
    on_peer_down(nd->node);
    return true;
  }
  return false;
}

Tag Replicator::next_push_position() const {
  SNOW_CHECK(list_->has_value());
  return (*list_)->tag() + 1 + static_cast<Tag>(pending_pushes_);
}

Replicator::PushStatus Replicator::check_push(NodeId writer, TxnId txn) const {
  const auto it = dedup_.find(writer);
  if (it == dedup_.end() || it->second.txn < txn) return PushStatus::kNew;
  if (it->second.txn > txn) return PushStatus::kStale;
  return it->second.committed ? PushStatus::kCommitted : PushStatus::kPending;
}

Tag Replicator::committed_position(NodeId writer) const {
  return dedup_.at(writer).position;
}

void Replicator::append(std::vector<ReplRecord> recs, CommitFn on_commit) {
  SNOW_CHECK_MSG(primary_, "append on a backup replica");
  SNOW_CHECK(!recs.empty());
  if (!on_commit && peer_alive_) {
    // No one waits: apply now and log with the next batch that has a waiter,
    // or alone once the oldest deferred record has lingered.
    if (deferred_.empty()) {
      post_after_(kFinalizeLinger, [this, gen = linger_gen_] {
        if (gen == linger_gen_) ship_deferred();
      });
    }
    for (ReplRecord& rec : recs) {
      SNOW_CHECK_MSG(rec.kind != ReplRecord::kListPush, "a List push needs a commit waiter");
      apply_record(rec);
      deferred_.push_back(std::move(rec));
    }
    return;
  }
  for (const ReplRecord& rec : recs) {
    if (rec.kind == ReplRecord::kListPush) {
      // List entries stay invisible (un-applied) until commit: no get-tag-arr
      // may observe a listing a crash could still lose.
      dedup_[rec.writer] = PushInfo{rec.txn, rec.position, false};
      ++pending_pushes_;
    } else {
      apply_record(rec);
    }
  }
  if (!deferred_.empty()) {
    recs.insert(recs.begin(), std::make_move_iterator(deferred_.begin()),
                std::make_move_iterator(deferred_.end()));
    drop_deferred();
  }
  ship(std::move(recs), std::move(on_commit));
}

void Replicator::ship(std::vector<ReplRecord> recs, CommitFn on_commit) {
  const std::size_t first = log_.size();
  log_.insert(log_.end(), recs.begin(), recs.end());
  const std::size_t end = log_.size();
  ReplAppendReq batch;
  batch.epoch = epoch_;
  batch.first_seq = first;
  batch.records = std::move(recs);
  wal_->append(wal_frame_batch(batch));
  if (peer_alive_) {
    send_(cfg_.peer, Message{kInvalidTxn, std::move(batch)});
    if (cfg_.unsafe_ack) {
      // Fault injection: acknowledge before the backup confirms.
      commit_range(first, end);
      if (on_commit) on_commit();
    } else if (on_commit) {
      waiters_.push_back(Waiter{end, first, std::move(on_commit)});
    }
  } else {
    // Solo: the backup is (believed) dead, commit locally.
    commit_range(first, end);
    if (on_commit) on_commit();
  }
}

void Replicator::drop_deferred() {
  deferred_.clear();
  ++linger_gen_;
}

void Replicator::ship_deferred() {
  if (deferred_.empty()) return;
  std::vector<ReplRecord> recs = std::move(deferred_);
  drop_deferred();
  ship(std::move(recs), nullptr);
}

void Replicator::apply_record(const ReplRecord& rec) {
  switch (rec.kind) {
    case ReplRecord::kListPush: {
      SNOW_CHECK(list_->has_value());
      const Tag got = (*list_)->push(rec.key, rec.objs);
      SNOW_CHECK_MSG(got == rec.position,
                     "replicated List push landed at " << got << ", expected " << rec.position);
      dedup_[rec.writer] = PushInfo{rec.txn, rec.position, true};
      break;
    }
    case ReplRecord::kEpoch:
      break;  // local-only WAL marker, no state effect
    default:
      apply_store_record(rec, *stores_, *list_);
  }
}

void Replicator::apply_peer_record(const ReplRecord& rec) {
  if (const char* why = unappliable(rec)) {
    SNOW_WARN("replica " << cfg_.self << " dropping a replicated record of kind "
                         << static_cast<int>(rec.kind) << ": " << why);
    return;
  }
  apply_record(rec);
}

const char* Replicator::unappliable(const ReplRecord& rec) const {
  const auto outside_k = [this](ObjectId obj) { return obj >= cfg_.num_objects; };
  switch (rec.kind) {
    case ReplRecord::kInsert:
      return outside_k(rec.obj) ? "it names an object outside the k objects" : nullptr;
    case ReplRecord::kFinalize: {
      if (outside_k(rec.obj)) return "it names an object outside the k objects";
      const auto it = stores_->find(rec.obj);
      if (it == stores_->end() || !it->second.can_finalize(rec.key, rec.position)) {
        return "it finalizes a version this replica does not hold, or a taken List position";
      }
      return nullptr;
    }
    case ReplRecord::kListPush:
      if (!list_->has_value()) return "this replica keeps no List";
      if (rec.position != (*list_)->tag() + 1) return "its List position is not the next one";
      if (std::any_of(rec.objs.begin(), rec.objs.end(), outside_k)) {
        return "it names an object outside the k objects";
      }
      return nullptr;
    case ReplRecord::kCoorFinalize:
      return list_->has_value() ? nullptr : "this replica keeps no List";
    default:
      return nullptr;  // kEpoch: no state effect
  }
}

void Replicator::commit_range(std::size_t first, std::size_t end) {
  for (std::size_t i = first; i < end; ++i) {
    const ReplRecord& rec = log_[i];
    if (rec.kind != ReplRecord::kListPush) continue;
    SNOW_CHECK(pending_pushes_ > 0);
    --pending_pushes_;
    apply_record(rec);
  }
}

void Replicator::flush_ready() {
  while (!waiters_.empty() && waiters_.front().seq <= acked_seq_) {
    Waiter w = std::move(waiters_.front());
    waiters_.pop_front();
    commit_range(w.first, w.seq);
    if (w.fn) w.fn();
  }
}

void Replicator::flush_all() {
  while (!waiters_.empty()) {
    Waiter w = std::move(waiters_.front());
    waiters_.pop_front();
    commit_range(w.first, w.seq);
    if (w.fn) w.fn();
  }
}

void Replicator::persist_epoch() {
  ReplRecord rec;
  rec.kind = ReplRecord::kEpoch;
  rec.epoch = epoch_;
  rec.primary = tainted_ ? 1 : 0;
  ReplAppendReq batch;
  batch.epoch = epoch_;
  batch.first_seq = log_.size();
  batch.records.push_back(std::move(rec));
  wal_->append(wal_frame_batch(batch));
}

void Replicator::takeover() {
  primary_ = true;
  tainted_ = true;
  joining_ = false;
  ++epoch_;
  peer_alive_ = false;
  acked_seq_ = log_.size();  // everything applied here is committed by fiat
  buffered_.clear();
  persist_epoch();
  for (const NodeId client : cfg_.notify) {
    send_(client, Message{kInvalidTxn, TakeoverNotice{cfg_.shard, cfg_.self, epoch_}});
  }
  if (pending_join_) {
    const ReplJoinReq jr = *pending_join_;
    pending_join_.reset();
    on_join(cfg_.peer, jr);
  }
}

void Replicator::demote(std::uint64_t new_epoch) {
  epoch_ = new_epoch;
  primary_ = false;
  // Un-fired waiters die un-acked: their writers have been re-routed by the
  // new primary's TakeoverNotice and will retry there.  Their records stay
  // in log_ un-applied; the forced full resync below discards them, as it
  // does the deferred records already applied here.
  waiters_.clear();
  drop_deferred();
  pending_pushes_ = 0;
  for (auto it = dedup_.begin(); it != dedup_.end();) {
    it = it->second.committed ? std::next(it) : dedup_.erase(it);
  }
  buffered_.clear();
  persist_epoch();  // tainted_ stays true: our tail may diverge
  joining_ = true;
  send_(cfg_.peer, Message{kInvalidTxn, ReplJoinReq{epoch_, log_.size(), 1}});
}

void Replicator::on_append(NodeId from, const ReplAppendReq& ar) {
  if (primary_) {
    if (ar.epoch > epoch_) {
      demote(ar.epoch);  // drop this batch: the join below forces a resync
    } else {
      send_ack(from);  // our (>=) epoch in the ack fences the stale peer
    }
    return;
  }
  if (ar.epoch < epoch_) {
    send_ack(from);
    return;
  }
  if (ar.epoch > epoch_) {
    epoch_ = ar.epoch;
    persist_epoch();
  }
  if (joining_) {
    // Our log may be a tainted old lineage: nothing applies (and nothing is
    // acked — an ack would claim old-lineage records as current-lineage
    // progress) until the join resp resets or extends it.  Park the batch;
    // on_join_resp keeps the buffer across a reset and drains it.
    buffered_[ar.first_seq] = ar.records;
    return;
  }
  ingest(ar);
}

void Replicator::ingest(const ReplAppendReq& ar) {
  const std::uint64_t len = log_.size();
  if (ar.first_seq > len) {
    buffered_[ar.first_seq] = ar.records;  // reordered ahead; hold for the gap
    send_ack(cfg_.peer);
    return;
  }
  const std::uint64_t end = ar.first_seq + ar.records.size();
  if (end > len) {
    // Apply (and re-frame into the WAL) only the genuinely new suffix.
    std::vector<ReplRecord> suffix(
        ar.records.begin() + static_cast<std::ptrdiff_t>(len - ar.first_seq),
        ar.records.end());
    ReplAppendReq frame;
    frame.epoch = epoch_;
    frame.first_seq = len;
    frame.records = suffix;
    wal_->append(wal_frame_batch(frame));
    for (ReplRecord& rec : suffix) {
      apply_peer_record(rec);
      log_.push_back(std::move(rec));
    }
  }
  if (!buffered_.empty() && buffered_.begin()->first <= log_.size()) {
    auto node = buffered_.extract(buffered_.begin());
    ReplAppendReq next;
    next.epoch = epoch_;
    next.first_seq = node.key();
    next.records = std::move(node.mapped());
    ingest(next);  // recursion drains and acks
    return;
  }
  send_ack(cfg_.peer);
}

void Replicator::on_ack(const ReplAppendAck& ak) {
  if (ak.epoch > epoch_) {
    demote(ak.epoch);
    return;
  }
  if (!primary_ || ak.epoch < epoch_) return;
  peer_alive_ = true;  // self-heal after a false down notice
  if (ak.acked_seq > acked_seq_) acked_seq_ = ak.acked_seq;
  flush_ready();
}

void Replicator::on_join(NodeId from, const ReplJoinReq& jr) {
  if (!primary_) {
    // Only a deposed or restarted primary sends joins, so ours is gone.  The
    // lower node id takes over immediately; the higher defers to its
    // NodeDownNotice (takeover() then answers the parked join) so that two
    // replicas rejoining simultaneously can never both promote.
    if (cfg_.self < cfg_.peer) {
      takeover();  // answers the join via pending_join_ if parked, else falls through
    } else {
      pending_join_ = jr;
      return;
    }
  }
  if (jr.epoch > epoch_) {
    epoch_ = jr.epoch + 1;  // dominate the joiner's lineage
    persist_epoch();
  }
  const bool incremental =
      jr.was_primary == 0 && jr.epoch == epoch_ && jr.have_seq <= log_.size();
  peer_alive_ = true;
  ReplJoinResp resp;
  resp.epoch = epoch_;
  if (incremental) {
    resp.reset = 0;
    resp.first_seq = jr.have_seq;
    resp.records.assign(log_.begin() + static_cast<std::ptrdiff_t>(jr.have_seq), log_.end());
  } else {
    resp.reset = 1;
    resp.first_seq = 0;
    resp.records = log_;
  }
  send_(from, Message{kInvalidTxn, std::move(resp)});
}

void Replicator::on_join_resp(const ReplJoinResp& js) {
  // Only while our join is outstanding: a restarted replica can send two
  // (boot()'s, then demote()'s on a newer-epoch ack), and the second
  // response — a reset built before appends that may overtake it — would
  // rewind a log that has since taken them.  The first response answers a
  // join made from the same log (a joining replica buffers every append),
  // so it suffices.  Not joining also covers having taken over since.
  if (!joining_) return;
  if (js.epoch < epoch_) return;  // stale lineage
  pending_join_.reset();
  joining_ = false;
  epoch_ = js.epoch;
  if (js.reset != 0) {
    // buffered_ survives the reset on purpose: batches that raced this resp
    // carry CURRENT-lineage records the resp may not cover (an append sent
    // after the primary built it) — discarding them would lose the record
    // for good, wedging the waiter it must ack.  Keys are absolute log
    // sequences, so they stay valid across the reset.
    log_.clear();
    dedup_.clear();
    stores_->clear();
    if (cfg_.has_list) list_->emplace(cfg_.num_objects);
    tainted_ = false;  // the stream below is the current lineage from 0
    wal_->reset();
    wal_->append(magic_bytes());
  }
  persist_epoch();
  if (!js.records.empty()) {
    ReplAppendReq ar;
    ar.epoch = epoch_;
    ar.first_seq = js.first_seq;
    ar.records = js.records;
    ingest(ar);  // its internal drain also consumes batches parked while joining
  } else {
    drain_buffered();
    send_ack(cfg_.peer);
  }
}

void Replicator::drain_buffered() {
  while (!buffered_.empty() && buffered_.begin()->first <= log_.size()) {
    auto node = buffered_.extract(buffered_.begin());
    ReplAppendReq next;
    next.epoch = epoch_;
    next.first_seq = node.key();
    next.records = std::move(node.mapped());
    ingest(next);
  }
}

void Replicator::redirect_client(NodeId from, const Message& m) {
  SNOW_CHECK(!primary_);
  send_(from, Message{m.txn, TakeoverNotice{cfg_.shard, cfg_.peer, epoch_}});
}

void Replicator::on_peer_down(NodeId node) {
  if (node != cfg_.peer) return;
  if (primary_) {
    // Commit everything solo, in order, the deferred records logged first;
    // new appends commit immediately until an ack from the (restarted) peer
    // flips peer_alive_ back.
    peer_alive_ = false;
    ship_deferred();
    flush_all();
  } else {
    takeover();
  }
}

void Replicator::send_ack(NodeId to) {
  send_(to, Message{kInvalidTxn, ReplAppendAck{epoch_, log_.size()}});
}

}  // namespace snowkit
