// What the multi-process end-to-end tests share: a scratch directory for a
// fleet's files, a bounded driver wait, and the no-lost-acknowledged-write
// read-back churn_net_test and failover_e2e_test run after their faults.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <utility>

#include "core/run_workload.hpp"
#include "core/system.hpp"

namespace snowkit {

/// A fresh directory named after `tag` and this process, removed again on
/// destruction — unless `keep_at` names a directory, which is used instead
/// and kept for inspection.
struct ScratchDir {
  std::string path;
  bool keep{false};

  explicit ScratchDir(const std::string& tag, const char* keep_at = nullptr)
      : path(keep_at != nullptr ? std::string(keep_at)
                                : (std::filesystem::temp_directory_path() /
                                   ("snowkit_" + tag + "_" + std::to_string(::getpid())))
                                      .string()),
        keep(keep_at != nullptr) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    if (!keep) std::filesystem::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
};

/// driver.wait() with a deadline: a wedged fleet must fail the test, not
/// hang the ctest job until its global timeout.
inline bool wait_done(const WorkloadDriver& driver, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (driver.done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return driver.done();
}

/// Every write recorded so far is acknowledged and finished, so full-span
/// reads must observe, per object, exactly the value of the max-tag write
/// covering it — a missing one IS a lost acknowledged write.  Runs those
/// reads and returns the whole history, read-back included; a failed check
/// is a fatal gtest failure (callers test HasFatalFailure()).
inline History expect_no_lost_acked_write(Runtime& rt, ProtocolSystem& sys, HistoryRecorder& rec,
                                          std::uint64_t seed) {
  const std::uint64_t watermark = [&] {
    std::uint64_t max_order = 0;
    for (const TxnRecord& t : rec.snapshot().txns) max_order = std::max(max_order, t.respond_order);
    return max_order;
  }();
  WorkloadSpec readback;
  readback.ops_per_reader = 4;
  readback.ops_per_writer = 0;
  readback.read_span = rec.num_objects();
  readback.write_span = 1;
  readback.seed = seed;
  WorkloadDriver reader(rt, sys, readback);
  reader.start();
  const bool finished = wait_done(reader, 60'000);
  History h = rec.snapshot();

  [&] {
    ASSERT_TRUE(finished) << "read-back phase wedged";
    std::map<ObjectId, std::pair<Tag, Value>> winner;  // max-tag write per object
    for (const TxnRecord& t : h.txns) {
      if (t.is_read || !t.complete) continue;
      ASSERT_NE(t.tag, kInvalidTag);
      for (const auto& [obj, val] : t.writes) {
        auto it = winner.find(obj);
        if (it == winner.end() || t.tag > it->second.first) winner[obj] = {t.tag, val};
      }
    }
    EXPECT_EQ(winner.size(), rec.num_objects());
    for (const TxnRecord& t : h.txns) {
      if (!t.is_read || !t.complete || t.invoke_order <= watermark) continue;
      for (const auto& [obj, val] : t.reads) {
        ASSERT_TRUE(winner.count(obj));
        EXPECT_EQ(val, winner[obj].second)
            << "object " << obj << ": read-back saw value " << val << " but the max-tag "
            << "acknowledged write put " << winner[obj].second << " — a write was lost";
      }
    }
  }();
  return h;
}

}  // namespace snowkit
