#include "proto/adaptive/adaptive.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "core/registry.hpp"
#include "proto/version_server.hpp"

namespace snowkit {
namespace {

/// Adaptive reader.  Round 1: get-tag-arr to the coordinator plus one
/// read-vals-batch per server the READ reads, naming the version it holds
/// of each object, the get-tag-arr riding in the coordinator shard's batch
/// when the READ reads that shard (and alone otherwise).  At the tag array,
/// every object resolves through the first applicable source — client cache
/// (iff the cached key IS latest[obj]), the initial version, a round-1
/// answer, or a batched round-2 fetch.  Whatever the source, the value
/// served is the one stored under latest[obj], so the history is exactly
/// what ReaderB would have produced.
class ReaderAdapt final : public ReadClient {
 public:
  ReaderAdapt(HistoryRecorder& rec, const Placement& place, std::size_t coor_shard,
              bool replicated, bool cache_reads, bool broken_cache)
      : ReadClient(rec, place, replicated, /*may_retry=*/replicated), coor_shard_(coor_shard),
        cache_reads_(cache_reads), broken_cache_(broken_cache) {}

  const AdaptiveStats& stats() const { return stats_; }

 private:
  void attempt() override {
    if (attempts() == 1) {  // a new READ
      rounds_ = 0;
      max_versions_ = 1;
    }
    ++rounds_;
    have_tag_arr_ = false;
    want_.clear();
    got_.clear();
    prefetched_.clear();
    prefetch_outstanding_ = 0;
    round2_sent_ = false;
    GetTagArrReq req = tag_arr_req(objs());
    req.mode_epoch = modes_.epoch();
    // Round 1 reaches every object, one read-vals-batch per server shard,
    // and names the version the reader holds of each: its cached one, else
    // the initial version, which every reader knows.  A B-mode object gets
    // one version back, the one its server inserted last, algo-b's guess; a
    // C-mode object its version list from the read floor, Algorithm C's, so
    // a WRITE racing the READ still resolves in one round.  Either way the
    // server leaves the held version out, so a cache hit costs no value
    // bytes.  The coordinator answers its shard's objects in the step that
    // builds the tag array, with the one version stored under latest[obj].
    // The floor is the tag of this reader's last READ: every position up to
    // it was listed, and so stored everywhere, before this READ began, and
    // latest[obj] at this READ's tag array is at or above it, so the older
    // finalized versions cannot be wanted.
    std::vector<ObjectId> sorted = objs();
    std::sort(sorted.begin(), sorted.end());
    std::map<std::size_t, ReadValsBatchReq> batches;
    for (ObjectId obj : sorted) {
      const auto it = cache_.find(obj);
      ReadValsBatchReq& batch = batches[place().shard_of(obj)];
      batch.floor = floor_;
      batch.held.push_back({obj, it == cache_.end() ? kInitialKey : it->second.key,
                            modes_.c_mode(obj)});
    }
    prefetch_outstanding_ = send_tag_arr_round(coor_shard_, std::move(req), std::move(batches));
  }

  bool on_reply(NodeId from, const Message& m) override {
    if (const auto* ta = std::get_if<AdaptTagArrResp>(&m.payload)) {
      // Only the first tag array per attempt drives this round; later ones
      // are duplicates or a superseded attempt's (failover retries).
      if (!have_tag_arr_) on_tag_arr(from, *ta);
      return true;
    }
    if (const auto* pf = std::get_if<ReadValsBatchResp>(&m.payload)) {
      // Any snapshot is safe to consume, even from a superseded attempt:
      // resolution only ever serves the value stored under latest[obj], and
      // keys name immutable versions.  A stale list missing the key just
      // sends that object to round 2.
      for (const ObjectVersions& e : pf->entries) {
        max_versions_ = std::max(max_versions_, static_cast<int>(e.versions.size()));
        prefetched_[e.obj] = e.versions;
      }
      if (prefetch_outstanding_ > 0) --prefetch_outstanding_;
      if (have_tag_arr_) {
        resolve_prefetched();
        maybe_send_round2();
        maybe_complete();
      }
      return true;
    }
    if (const auto* rb = std::get_if<ReadValBatchResp>(&m.payload)) {
      for (const BatchReadResult& e : rb->entries) {
        const auto it = want_.find(e.obj);
        if (it == want_.end() || !(it->second == e.key)) continue;  // stale attempt
        if (!e.found) {
          // Only a failover can race GC past a watermark-protected key:
          // restart from the coordinator.
          retry("adaptive requested a watermark-protected key that is gone");
          return true;
        }
        got_[e.obj] = e.value;
      }
      maybe_complete();
      return true;
    }
    return false;
  }

  void on_tag_arr(NodeId from, const AdaptTagArrResp& ta) {
    have_tag_arr_ = true;
    tag_ = ta.tag;
    watermark_ = ta.watermark;
    // Epoch fence (ModeView::adopt): a held/reordered response can't roll
    // modes back.  Only the current coordinator's answers count: a straggler
    // from a deposed lineage is a delta against a table we reset.
    if (from == route(coor_shard_)) modes_.adopt(ta);
    for (ObjectId obj : objs()) {
      const WriteKey& key = tag_entry(ta.entries, obj).latest;
      want_[obj] = key;
      if (cache_reads_ || broken_cache_) {
        const auto it = cache_.find(obj);
        // The freshness proof: the cached key must BE the per-object newest
        // in the tag array we just fetched.  Keys name immutable versions,
        // so a key match guarantees the cached value equals what the
        // object's server would return for latest[obj].  broken_cache skips
        // the proof — the planted stale-read bug.
        if (it != cache_.end() && (broken_cache_ || it->second.key == key)) {
          got_[obj] = it->second.value;
          ++stats_.cache_hits;
          continue;
        }
      }
      ++stats_.cache_misses;
      if (key == kInitialKey) {  // the initial version, which every reader knows
        got_[obj] = kInitialValue;
        ++stats_.prefetch_resolved;
      }
    }
    resolve_prefetched();
    maybe_send_round2();
    maybe_complete();
  }

  void resolve_prefetched() {
    for (const auto& [obj, versions] : prefetched_) {
      if (got_.count(obj) != 0) continue;
      const auto wit = want_.find(obj);
      if (wit == want_.end()) continue;
      const auto it = std::find_if(versions.begin(), versions.end(),
                                   [&](const Version& v) { return v.key == wit->second; });
      if (it == versions.end()) continue;  // write-val raced the listing: round 2
      got_[obj] = it->value;
      ++stats_.prefetch_resolved;
    }
  }

  void maybe_send_round2() {
    // Wait for every round-1 prefetch before deciding: a list that is about
    // to arrive usually resolves its objects for free.
    if (round2_sent_ || prefetch_outstanding_ > 0) return;
    std::map<ObjectId, WriteKey> missing;
    for (const auto& [obj, key] : want_) {
      if (got_.count(obj) == 0) missing.emplace(obj, key);
    }
    if (missing.empty()) return;
    stats_.round2_objects += missing.size();
    round2_sent_ = true;
    ++rounds_;
    send_by_shard(read_batches_by_shard(place(), watermark_, missing));
  }

  void on_takeover(const TakeoverNotice& tn) override {
    // The cache invariant: no entry survives a TakeoverNotice epoch bump.
    // (The key-match proof alone already makes surviving entries safe; the
    // wipe keeps failover reasoning local and is what the property test
    // pins.)
    stats_.cache_invalidations += cache_.size();
    cache_.clear();
    if (tn.shard == coor_shard_) {
      // New coordinator lineage: its mode epochs restart from zero, so our
      // fence must too.
      modes_.reset();
    }
    if (in_flight()) retry("a shard failed over");
  }

  void maybe_complete() {
    if (!have_tag_arr_ || got_.size() != objs().size()) return;
    release_registration(coor_shard_);
    std::vector<std::pair<ObjectId, Value>> values;
    for (ObjectId obj : objs()) {
      const Value v = got_.at(obj);
      values.emplace_back(obj, v);
      if (cache_reads_ || broken_cache_) cache_[obj] = Version{want_.at(obj), v};
    }
    // The floor costs a byte or two per batch and can only trim a list of
    // more than one version: after a READ whose prefetched lists held one
    // version each, the next one sends none.
    floor_ = max_versions_ > 1 ? tag_ : 0;
    ++stats_.reads;
    if (rounds_ == 1) ++stats_.one_round_reads;
    finish(std::move(values), tag_, rounds_, max_versions_);
  }

  std::size_t coor_shard_;
  bool cache_reads_;
  bool broken_cache_;
  ModeView modes_;  ///< adopted per-object fetch modes.
  Tag floor_{0};  ///< the read floor: t_r of the last READ this reader completed, or 0.
  std::map<ObjectId, Version> cache_;  ///< (key, value) per object.
  AdaptiveStats stats_;
  // The READ in flight: rounds (client send-waves, for finish_read) and the
  // largest prefetched list span its attempts; the rest is per attempt.
  int rounds_{0};
  int max_versions_{1};
  bool have_tag_arr_{false};
  Tag tag_{0};
  Tag watermark_{0};
  std::map<ObjectId, WriteKey> want_;  ///< this attempt's target keys.
  std::map<ObjectId, Value> got_;
  std::map<ObjectId, std::vector<Version>> prefetched_;
  std::size_t prefetch_outstanding_{0};
  bool round2_sent_{false};
};

class SystemAdapt final : public AdaptiveSystem {
 public:
  SystemAdapt(std::string name, const SystemConfig& cfg, Runtime& rt,
              std::vector<const ReaderAdapt*> readers, VersionFleet fleet)
      : AdaptiveSystem(std::move(name), cfg, rt, std::move(fleet.readers),
                       std::move(fleet.writers)),
        adapt_readers_(std::move(readers)), coordinators_(std::move(fleet.coordinators)) {}

  AdaptiveStats stats() const override {
    AdaptiveStats total;
    for (const ReaderAdapt* r : adapt_readers_) {
      const AdaptiveStats& s = r->stats();
      total.reads += s.reads;
      total.one_round_reads += s.one_round_reads;
      total.cache_hits += s.cache_hits;
      total.cache_misses += s.cache_misses;
      total.cache_invalidations += s.cache_invalidations;
      total.prefetch_resolved += s.prefetch_resolved;
      total.round2_objects += s.round2_objects;
    }
    for (const VersionServer* c : coordinators_) total.switches += c->tracker()->switches();
    return total;
  }

 private:
  std::vector<const ReaderAdapt*> adapt_readers_;  ///< the readers, typed.
  std::vector<const VersionServer*> coordinators_;
};

const ProtocolRegistration kRegisterAdaptive{
    ProtocolTraits{
        .name = "adaptive",
        .summary = "meta: per-object B<->C switching + watermark-proved client "
                   "cache + batched reads; serializes exactly like algo-b",
        .claims_strict_serializability = true,
        .advertises_strict_serializability = true,
        .provides_tags = true,
        .snow_s = true,
        .snow_n = true,
        .snow_o = false,  // one round on the hot path, but not always, and multi-version
        .snow_w = true,
        .mwmr = true,
        .supports_replication = true,
        .version_bound = "<=|W|+1",
    },
    [](Runtime& rt, HistoryRecorder& rec, const SystemConfig& cfg, const BuildOptions& opts) {
      AdaptiveOptions o;
      read_fleet_options(opts, o);
      if (opts.has("switch_up")) o.switch_up = std::stod(opts.get("switch_up"));
      if (opts.has("switch_down")) o.switch_down = std::stod(opts.get("switch_down"));
      if (opts.has("ewma_tau_ms")) {
        o.ewma_tau_ns = static_cast<TimeNs>(opts.get_int("ewma_tau_ms")) * 1'000'000ull;
      }
      o.cache_reads = opts.get_bool("cache", true);
      return build_adaptive(rt, rec, cfg, o);
    }};

}  // namespace

bool ModeTable::set(ObjectId obj, bool c_mode) {
  const bool flipped = c_mode ? c_objs_.insert(obj).second : c_objs_.erase(obj) != 0;
  if (!flipped) return false;
  ++epoch_;
  flips_.push_back(obj);
  if (flips_.size() > k_) flips_.pop_front();
  return true;
}

void ModeTable::answer(std::uint64_t reader_epoch, AdaptTagArrResp& resp) const {
  resp.c_mode.clear();
  resp.b_mode.clear();
  if (reader_epoch == epoch_) {  // nothing flipped since: the one-byte answer
    resp.mode_epoch = 0;
    resp.mode_base = 0;
    return;
  }
  resp.mode_epoch = epoch_;
  // flips_ holds exactly the flips that made epochs (epoch_ - size, epoch_].
  if (reader_epoch != 0 && reader_epoch <= epoch_ && epoch_ - reader_epoch <= flips_.size()) {
    std::vector<ObjectId> flipped(flips_.end() - static_cast<std::ptrdiff_t>(epoch_ - reader_epoch),
                                  flips_.end());
    std::sort(flipped.begin(), flipped.end());
    flipped.erase(std::unique(flipped.begin(), flipped.end()), flipped.end());
    if (flipped.size() <= c_objs_.size()) {
      resp.mode_base = reader_epoch;
      for (ObjectId obj : flipped) (c_mode(obj) ? resp.c_mode : resp.b_mode).push_back(obj);
      return;
    }
  }
  resp.mode_base = 0;
  resp.c_mode.assign(c_objs_.begin(), c_objs_.end());
}

bool ModeView::adopt(const AdaptTagArrResp& resp) {
  if (resp.mode_epoch < epoch_) return false;
  if (resp.mode_base == 0) {
    c_objs_ = std::set<ObjectId>(resp.c_mode.begin(), resp.c_mode.end());
  } else if (resp.mode_base <= epoch_) {
    for (ObjectId obj : resp.b_mode) c_objs_.erase(obj);
    c_objs_.insert(resp.c_mode.begin(), resp.c_mode.end());
  } else {
    return false;
  }
  epoch_ = resp.mode_epoch;
  return true;
}

WriteRateTracker::WriteRateTracker(std::size_t num_objects, double switch_up,
                                   double switch_down, TimeNs ewma_tau_ns)
    : k_(num_objects), up_(switch_up), down_(switch_down), tau_ns_(ewma_tau_ns),
      modes_(num_objects), ewma_(num_objects, 0.0), ewma_last_(num_objects, 0) {}

void WriteRateTracker::reset() {
  modes_ = ModeTable(k_);
  ewma_.assign(k_, 0.0);
  ewma_last_.assign(k_, 0);
}

void WriteRateTracker::observe(Runtime& rt, const std::vector<ObjectId>& objs) {
  const TimeNs now = rt.now_ns();
  for (ObjectId obj : objs) {
    double& credit = ewma_[obj];
    if (now > ewma_last_[obj]) {
      credit *= std::exp(-static_cast<double>(now - ewma_last_[obj]) /
                         static_cast<double>(tau_ns_));
    }
    credit += 1.0;
    ewma_last_[obj] = now;
    const bool c_mode = modes_.c_mode(obj) ? credit > down_ : credit >= up_;
    if (modes_.set(obj, c_mode)) {
      ++switches_;
      rt.note_switch(obj, c_mode ? 1 : 0);
    }
  }
}

void AdaptiveOptions::validate() const {
  if (!(switch_up > 0.0) || !(switch_down >= 0.0)) {
    throw std::invalid_argument("adaptive switch thresholds must be positive");
  }
  if (switch_up <= switch_down) {
    throw std::invalid_argument(
        "adaptive needs a hysteresis band: switch_up must exceed switch_down (got up=" +
        std::to_string(switch_up) + " down=" + std::to_string(switch_down) + ")");
  }
  if (ewma_tau_ns == 0) {
    throw std::invalid_argument("adaptive ewma_tau_ns must be positive");
  }
  if (replicas != 1 && replicas != 2) {
    throw std::invalid_argument("adaptive supports replicas 1 or 2, got " +
                                std::to_string(replicas));
  }
}

std::unique_ptr<ProtocolSystem> build_adaptive(Runtime& rt, HistoryRecorder& rec,
                                               const SystemConfig& cfg, AdaptiveOptions opts) {
  opts.validate();
  VersionFleetSpec spec = fleet_spec(opts);
  spec.tracker.emplace(cfg.num_objects, opts.switch_up, opts.switch_down, opts.ewma_tau_ns);
  std::vector<const ReaderAdapt*> readers;
  VersionFleet fleet =
      build_version_fleet(rt, rec, cfg, spec, [&](const Placement& place, bool replicated) {
        auto node = std::make_unique<ReaderAdapt>(rec, place, opts.coordinator, replicated,
                                                  opts.cache_reads, opts.broken_cache);
        readers.push_back(node.get());
        return node;
      });
  return std::make_unique<SystemAdapt>(opts.name, cfg, rt, std::move(readers), std::move(fleet));
}

}  // namespace snowkit
