#include "proto/version_server.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "proto/coor_writer.hpp"

namespace snowkit {

namespace {

/// Logs `recs` through `repl`, or applies them at once without replication;
/// `on_commit` runs when they are committed.  A step no one waits on passes
/// no `on_commit`, and a replicated primary ships it with its next batch.
template <typename OnCommit = std::nullptr_t>
void commit_step(std::vector<ReplRecord> recs, std::map<ObjectId, VersionStore>& stores,
                 std::optional<CoorList>& list, Replicator* repl, OnCommit on_commit = nullptr) {
  if (repl != nullptr) {
    repl->append(std::move(recs), std::move(on_commit));
    return;
  }
  for (const ReplRecord& rec : recs) apply_store_record(rec, stores, list);
  if constexpr (std::is_invocable_v<OnCommit>) on_commit();
}

std::vector<ReplRecord> insert_records(const WriteKey& key,
                                       const std::vector<std::pair<ObjectId, Value>>& writes) {
  std::vector<ReplRecord> recs(writes.size());
  for (std::size_t i = 0; i < writes.size(); ++i) {
    recs[i].kind = ReplRecord::kInsert;
    recs[i].obj = writes[i].first;
    recs[i].key = key;
    recs[i].value = writes[i].second;
  }
  return recs;
}

ReplRecord coor_finalize_record(Tag position) {
  ReplRecord rec;
  rec.kind = ReplRecord::kCoorFinalize;
  rec.position = position;
  return rec;
}

}  // namespace

VersionServer::VersionServer(Config cfg)
    : k_(cfg.num_objects), is_coordinator_(cfg.is_coordinator), gc_(cfg.gc),
      tag_history_(cfg.tag_history), last_inserted_reads_(cfg.last_inserted_reads),
      tracker_(std::move(cfg.tracker)) {
  if (is_coordinator_) list_.emplace(k_);
  if (cfg.repl) {
    repl_ = std::make_unique<Replicator>(
        std::move(*cfg.repl), std::move(cfg.wal),
        [this](NodeId to, Message m) { send(to, std::move(m)); },
        [this](TimeNs delay, std::function<void()> fn) {
          rt().post_after(id(), delay, std::move(fn));
        },
        &stores_, &list_);
  }
}

void VersionServer::on_start() {
  if (repl_ != nullptr && !repl_->booted()) {
    rt().watch_node(id(), repl_->peer_node());
    repl_->boot();
  }
}

void VersionServer::on_crash() {
  stores_.clear();
  watermark_ = 0;
  if (is_coordinator_) list_.emplace(k_);
  listings_.clear();
  if (tracker_) tracker_->reset();
  repl_->on_crash();
}

void VersionServer::on_message(NodeId from, const Message& m) {
  if (repl_ != nullptr) {
    // A restarted replica recovers from its WAL before its first input,
    // also one the runtime delivers ahead of the restart task: handled on
    // the state on_crash() cleared, a newer-epoch ack would demote it and
    // a join response refill its List, which boot() would then re-apply.
    on_start();
    if (repl_->consume(from, m)) return;
    if (!repl_->is_primary()) {
      // An ack relayed to a deposed s*: the writers re-send the WRITE to
      // the new primary, whose takeover they are told of.
      if (std::holds_alternative<WriteValAck>(m.payload)) return;
      // Stale route: redirect at once, never drop (see redirect_client).
      repl_->redirect_client(from, m);
      return;
    }
  }
  if (misrouted(from, m) || names_unknown_object(from, m)) return;
  if (handle_write_path(from, m)) return;
  if (serve_read(from, m)) return;
  if (const auto* uc = std::get_if<UpdateCoorReq>(&m.payload)) {
    handle_update_coor(from, m.txn, *uc, {});
    return;
  }
  if (const auto* ack = std::get_if<WriteValAck>(&m.payload)) {
    if (auto ready = listings().ack(from, *ack)) list_write(std::move(*ready));
    return;
  }
  if (const auto* gt = std::get_if<GetTagArrReq>(&m.payload)) {
    std::visit([&](auto&& reply) { send(from, Message{m.txn, std::move(reply)}); },
               answer_tag_arr(from, m.txn, *gt));
    return;
  }
  // Replies, other protocols' requests: nothing a peer sends may abort us.
  SNOW_WARN("dropping " << payload_name(m.payload) << " from node " << from
                        << ": not a version-server request");
}

bool VersionServer::misrouted(NodeId from, const Message& m) const {
  if (is_coordinator_) return false;
  if (!std::holds_alternative<UpdateCoorReq>(m.payload) &&
      !std::holds_alternative<WriteValAck>(m.payload) &&
      !std::holds_alternative<GetTagArrReq>(m.payload) &&
      !std::holds_alternative<FinalizeCoorReq>(m.payload) &&
      !std::holds_alternative<ReadDoneReq>(m.payload)) {
    return false;
  }
  SNOW_WARN("dropping " << payload_name(m.payload) << " from node " << from
                        << ": this node is not the coordinator");
  return true;
}

Tag VersionServer::note_watermark(Tag w) {
  watermark_ = std::max(watermark_, w);
  if (list_) watermark_ = std::max(watermark_, list_->watermark());
  return watermark_;
}

VersionStore& VersionServer::store(ObjectId obj, Tag watermark) {
  VersionStore& vals = stores_[obj];
  if (gc_) vals.advance_watermark(note_watermark(watermark));
  return vals;
}

bool VersionServer::names_unknown_object(NodeId from, const Message& m) const {
  ObjectId top = 0;  // the largest id the request names
  if (const auto* wv = std::get_if<WriteValReq>(&m.payload)) {
    for (const auto& [obj, value] : wv->writes) top = std::max(top, obj);
  } else if (const auto* fin = std::get_if<FinalizeReq>(&m.payload)) {
    for (ObjectId obj : fin->objs) top = std::max(top, obj);
  } else if (const auto* rb = std::get_if<ReadValBatchReq>(&m.payload)) {
    for (const BatchReadEntry& e : rb->entries) top = std::max(top, e.obj);
  } else if (const auto* pb = std::get_if<ReadValsBatchReq>(&m.payload)) {
    for (ObjectId obj : pb->objs) top = std::max(top, obj);
    for (const HeldVersion& h : pb->held) top = std::max(top, h.obj);
  }
  if (top < k_) return false;
  SNOW_WARN("dropping " << payload_name(m.payload) << " from node " << from << ": object "
                        << top << " outside the " << k_ << " objects");
  return true;
}

bool VersionServer::names_unfinalizable_version(NodeId from, const FinalizeReq& fin) const {
  for (ObjectId obj : fin.objs) {
    const auto it = stores_.find(obj);
    if (it != stores_.end() && it->second.can_finalize(fin.key, fin.position)) continue;
    SNOW_WARN("dropping finalize from node " << from << ": object " << obj << " cannot finalize "
                                             << to_string(fin.key) << " at position "
                                             << fin.position);
    return true;
  }
  return false;
}

bool VersionServer::serve_read(NodeId from, const Message& m) {
  if (const auto* rb = std::get_if<ReadValBatchReq>(&m.payload)) {
    // One version per object, the one named, for every object of one READ
    // on this server.  A miss: a speculative occ key, a key GC'd past by a
    // failover, or a request no correct reader sends.
    ReadValBatchResp resp;
    resp.entries.reserve(rb->entries.size());
    for (const BatchReadEntry& e : rb->entries) {
      const std::optional<Value> v = store(e.obj, rb->watermark).try_get(e.key);
      resp.entries.push_back({e.obj, e.key, v.value_or(kInitialValue), v.has_value()});
    }
    send(from, Message{m.txn, std::move(resp)});
    return true;
  }
  if (const auto* pb = std::get_if<ReadValsBatchReq>(&m.payload)) {
    // A folded get-tag-arr is answered first, registering the READ before
    // the stores are read: the order a get-tag-arr sent ahead of the batch
    // on the same FIFO link gave.
    ReadValsBatchResp resp;
    if (pb->tag_arr && list_) {
      resp.tag_arr = answer_tag_arr(from, m.txn, *pb->tag_arr);
    } else if (pb->tag_arr) {
      SNOW_WARN("dropping the get-tag-arr part of read-vals-batch from node "
                << from << ": this node is not the coordinator");
    }
    // A coordinator that ships no List history (algo-b, adaptive) answers
    // each object of a folded batch with the one version the tag array just
    // named, latest[obj]: a WRITE is listed only after its write-vals were
    // acked, and latest is never pruned (it is unfinalized or the anchor),
    // so a correct fleet always holds it.  A miss gets an empty list.  In an
    // algo-b fleet a batch without a tag array gets one version per object
    // too, the one its store inserted last: a guess the reader keeps only
    // where the tag array names it (an empty list once that was pruned).
    // Otherwise: the live chains of one READ's objects on this server, from
    // the reader's floor up: with the watermark flowing and the floor at the
    // reader's last READ, each is about the paper's <=|W|+1 candidate
    // versions, however long another reader's floor pins the watermark.
    // An adaptive reader's held objects get the answer their mode asks for,
    // one version or the chain past the held one, less the held version.
    const bool latest_only = resp.tag_arr.has_value() && !tag_history_;
    const bool last_only = !resp.tag_arr && last_inserted_reads_;
    const auto answer = [&](ObjectId obj, bool list) {
      const VersionStore& vals = store(obj, /*watermark=*/0);
      if (list && !latest_only) return vals.chain_from(pb->floor);
      const WriteKey& key = resp.tag_arr ? list_->latest(obj) : vals.last_inserted();
      std::vector<Version> one;
      if (const std::optional<Value> v = vals.try_get(key)) one.push_back(Version{key, *v});
      return one;
    };
    resp.entries.reserve(pb->objs.size() + pb->held.size());
    for (ObjectId obj : pb->objs) resp.entries.push_back({obj, answer(obj, !last_only)});
    for (const HeldVersion& h : pb->held) {
      std::vector<Version> versions = h.list && !latest_only
                                          ? store(h.obj, 0).chain_past(h.key, pb->floor)
                                          : answer(h.obj, false);
      std::erase_if(versions, [&](const Version& v) { return v.key == h.key; });
      if (!versions.empty()) resp.entries.push_back({h.obj, std::move(versions)});
    }
    send(from, Message{m.txn, std::move(resp)});
    return true;
  }
  return false;
}

TagArrReply VersionServer::answer_tag_arr(NodeId from, TxnId txn, const GetTagArrReq& gt) {
  list_->register_reader(from, txn);
  GetTagArrResp ta = list_->tag_arr(gt.objs, tag_history_);
  if (!tracker_) return ta;
  AdaptTagArrResp resp;
  resp.tag = ta.tag;
  resp.watermark = ta.watermark;
  resp.entries = std::move(ta.entries);
  tracker_->modes().answer(gt.mode_epoch, resp);
  return resp;
}

bool VersionServer::handle_write_path(NodeId from, const Message& m) {
  Replicator* repl = repl_.get();
  if (const auto* wv = std::get_if<WriteValReq>(&m.payload)) {
    if (wv->update_coor && list_) {
      // s*'s share of the WRITE: its inserts wait in the listing gate and
      // commit in the same step as the List push.
      handle_update_coor(from, m.txn, *wv->update_coor, wv->writes);
      return true;
    }
    if (wv->update_coor) {
      SNOW_WARN("dropping the update-coor part of write-val from node "
                << from << ": this node is not the coordinator");
    }
    WriteValAck ack{wv->key, {}};
    ack.objs.reserve(wv->writes.size());
    for (const auto& [obj, value] : wv->writes) ack.objs.push_back(obj);
    // The ack goes where the write-val names: s*, which lists the WRITE
    // once every written server has reported, or the writer (algo-a).
    const NodeId to = wv->ack_to == kInvalidNode ? from : wv->ack_to;
    commit_step(insert_records(wv->key, wv->writes), stores_, list_, repl,
                [this, to, txn = m.txn, ack = std::move(ack)]() mutable {
                  if (to != id()) {
                    send(to, Message{txn, std::move(ack)});
                  } else if (!list_) {
                    SNOW_WARN("dropping the ack of a write-val that names this node, "
                              "which is not the coordinator");
                  } else if (auto ready = listings().ack(id(), ack)) {
                    list_write(std::move(*ready));
                  }
                });
    return true;
  }
  if (const auto* fin = std::get_if<FinalizeReq>(&m.payload)) {
    if (fin->coor && !list_) {
      SNOW_WARN("dropping the finalize-coor part of finalize from node "
                << from << ": this node is not the coordinator");
    }
    if (!gc_) return true;
    // A finalize re-sent after a failover may name versions this replica
    // already finalized or pruned: those parts are no-ops, not faults.
    std::vector<ObjectId> objs;
    for (ObjectId obj : fin->objs) {
      const auto it = stores_.find(obj);
      if (it == stores_.end() || !it->second.finalize_is_noop(fin->key, fin->position)) {
        objs.push_back(obj);
      }
    }
    FinalizeReq rest{fin->key, fin->position, fin->watermark, std::move(objs), fin->coor};
    if (names_unfinalizable_version(from, rest)) return true;
    std::vector<ReplRecord> recs(rest.objs.size());
    for (std::size_t i = 0; i < rest.objs.size(); ++i) {
      recs[i].kind = ReplRecord::kFinalize;
      recs[i].obj = rest.objs[i];
      recs[i].key = rest.key;
      recs[i].position = rest.position;
      recs[i].watermark = note_watermark(rest.watermark);
    }
    if (rest.coor && list_ && !list_->finalized(rest.position)) {
      recs.push_back(coor_finalize_record(rest.position));
    }
    if (!recs.empty()) commit_step(std::move(recs), stores_, list_, repl);
    return true;
  }
  if (const auto* fc = std::get_if<FinalizeCoorReq>(&m.payload)) {
    if (gc_ && !list_->finalized(fc->position)) {
      commit_step({coor_finalize_record(fc->position)}, stores_, list_, repl);
    }
    return true;
  }
  if (const auto* rd = std::get_if<ReadDoneReq>(&m.payload)) {
    // Primary-local even when replicated: reader floors are per-lineage.
    if (list_) list_->reader_done(from, rd->txn);
    return true;
  }
  return false;
}

PendingListings& VersionServer::listings() {
  // The gate is primary-local: a takeover starts it empty, and the writers
  // re-send every write-val and update-coor to the new primary.
  if (repl_ != nullptr && repl_->epoch() != listings_epoch_) {
    listings_.clear();
    listings_epoch_ = repl_->epoch();
  }
  return listings_;
}

void VersionServer::handle_update_coor(NodeId from, TxnId txn, const UpdateCoorReq& uc,
                                       const std::vector<std::pair<ObjectId, Value>>& own) {
  if (!list_->admits(from, uc)) return;
  if (repl_ != nullptr) {
    switch (repl_->check_push(from, txn)) {
      case Replicator::PushStatus::kPending:
        return;  // already logged; the commit waiter will ack
      case Replicator::PushStatus::kStale:
        return;  // its WRITE completed: no one waits for this ack
      case Replicator::PushStatus::kCommitted:
        // Listed by this lineage, own inserts included: re-ack at its position.
        listings().listed(uc.key);
        send(from, Message{txn, UpdateCoorAck{repl_->committed_position(from), list_->watermark()}});
        return;
      case Replicator::PushStatus::kNew:
        break;
    }
  }
  if (auto ready = listings().update_coor(from, txn, uc, own)) list_write(std::move(*ready));
}

void VersionServer::list_write(PendingListings::Ready w) {
  // A deduplicated retry never gets here, so it is not credited twice.
  if (tracker_) tracker_->observe(rt(), w.uc.objs);
  std::vector<ReplRecord> recs = insert_records(w.uc.key, w.own);
  if (repl_ == nullptr) {
    for (const ReplRecord& rec : recs) apply_store_record(rec, stores_, list_);
    const Tag pos = list_->push(w.uc.key, w.uc.objs);
    send(w.writer, Message{w.txn, UpdateCoorAck{pos, list_->watermark()}});
    return;
  }
  ReplRecord& push = recs.emplace_back();
  push.kind = ReplRecord::kListPush;
  push.key = w.uc.key;
  push.objs = std::move(w.uc.objs);
  push.txn = w.txn;
  push.writer = w.writer;
  push.position = repl_->next_push_position();
  const Tag pos = push.position;
  repl_->append(std::move(recs), [this, to = w.writer, txn = w.txn, pos] {
    send(to, Message{txn, UpdateCoorAck{pos, list_->watermark()}});
  });
}

// --- the shared fleet --------------------------------------------------------

VersionFleet build_version_fleet(Runtime& rt, HistoryRecorder& rec, const SystemConfig& cfg,
                                 const VersionFleetSpec& spec, const MakeReader& make_reader) {
  cfg.validate();
  const Placement place(cfg);
  const std::size_t servers = place.num_servers();
  if (spec.coordinator >= servers) {
    throw std::invalid_argument("coordinator shard " + std::to_string(spec.coordinator) +
                                " out of range (servers = " + std::to_string(servers) + ")");
  }
  if (spec.replicas != 1 && spec.replicas != 2) {
    throw std::invalid_argument("replicas must be 1 or 2, got " + std::to_string(spec.replicas));
  }
  rec.attach_runtime(&rt);
  const bool repl = spec.replicas == 2;
  std::vector<NodeId> clients;
  for (std::size_t i = 0; i < cfg.num_readers + cfg.num_writers; ++i) {
    clients.push_back(static_cast<NodeId>(servers + i));
  }

  VersionFleet fleet;
  // Shard s's primary (node s) or, with `backup`, its backup replica.
  const auto add_server = [&](std::size_t s, bool backup) {
    const NodeId self = backup ? cfg.backup_node(s) : static_cast<NodeId>(s);
    VersionServer::Config c;
    c.num_objects = cfg.num_objects;
    c.is_coordinator = s == spec.coordinator;
    c.gc = spec.gc_versions;
    c.tag_history = spec.tag_history;
    c.last_inserted_reads = spec.last_inserted_reads;
    if (c.is_coordinator) c.tracker = spec.tracker;
    if (repl) {
      Replicator::Config r;
      r.shard = s;
      r.self = self;
      r.peer = backup ? static_cast<NodeId>(s) : cfg.backup_node(s);
      r.start_primary = !backup;
      r.has_list = c.is_coordinator;
      r.num_objects = cfg.num_objects;
      r.notify = clients;
      r.unsafe_ack = spec.unsafe_ack;
      c.repl = std::move(r);
      if (spec.wal_dir.empty()) {
        c.wal = std::make_unique<MemWal>();
      } else {
        c.wal = std::make_unique<FileWal>(spec.wal_dir + "/node-" + std::to_string(self) + ".wal");
      }
    }
    auto node = std::make_unique<VersionServer>(std::move(c));
    if (s == spec.coordinator) fleet.coordinators.push_back(node.get());
    const NodeId id = rt.add_node(std::move(node));
    SNOW_CHECK(id == self);
  };

  for (std::size_t s = 0; s < servers; ++s) add_server(s, /*backup=*/false);
  fleet.readers = add_clients<ReadClient>(rt, cfg.num_readers,
                                          [&] { return make_reader(place, repl); });
  fleet.writers = add_clients<WriteClient>(rt, cfg.num_writers, [&] {
    return std::make_unique<CoorWriter>(rec, place, spec.coordinator,
                                        /*send_finalize=*/spec.gc_versions, repl);
  });
  // Backups come AFTER the clients so the unreplicated layout (and the
  // scripted adversary schedules that rely on it) is unchanged.
  if (repl) {
    for (std::size_t s = 0; s < servers; ++s) add_server(s, /*backup=*/true);
  }
  return fleet;
}

}  // namespace snowkit
