// DaemonFleet, the one launcher every multi-process test and bench uses:
// a fleet spawns, listens and exits 0 on SIGTERM; a daemon that dies at
// start-up fails wait_listening at once instead of at its timeout; and a
// destroyed launcher leaves no child process behind.
#include <gtest/gtest.h>

#ifdef __linux__
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#endif

#include <cerrno>
#include <chrono>
#include <filesystem>
#include <string>

#include "fleet_e2e.hpp"
#include "runtime/daemon_fleet.hpp"
#include "runtime/fleet.hpp"

namespace snowkit {
namespace {

#ifndef __linux__

TEST(DaemonFleet, RequiresLinux) { GTEST_SKIP() << "TCP transport requires Linux"; }

#else

/// Two server processes (the default system: one server per each of two
/// objects) plus the client process.
FleetConfig two_daemon_fleet() {
  FleetConfig fleet;
  fleet.protocol = "simple";
  for (const std::uint16_t port : net::pick_free_ports(3)) {
    fleet.processes.push_back({"127.0.0.1", port});
  }
  return fleet;
}

/// True iff this process has no child left, exited or running.
bool no_children() { return ::waitpid(-1, nullptr, WNOHANG) < 0 && errno == ECHILD; }

TEST(DaemonFleet, SpawnsListensAndExitsCleanOnTerminate) {
  if (!net::transport_supported()) GTEST_SKIP() << "TCP transport requires Linux";
  const ScratchDir dir("daemon_fleet_clean");
  const std::string config = dir.path + "/fleet.cfg";
  {
    DaemonFleet fleet(two_daemon_fleet(), DaemonFiles{config, "", "", ""});
    fleet.spawn();
    ASSERT_EQ(fleet.size(), 2u);
    EXPECT_TRUE(std::filesystem::exists(config));
    ASSERT_TRUE(fleet.wait_listening(std::chrono::seconds(15)));
    EXPECT_FALSE(fleet.any_exited());
    EXPECT_TRUE(fleet.terminate(0)) << "daemon 0 did not exit 0 on SIGTERM";
    EXPECT_TRUE(fleet.terminate(1)) << "daemon 1 did not exit 0 on SIGTERM";
  }
  EXPECT_FALSE(std::filesystem::exists(config)) << "fleet file left behind";
  EXPECT_TRUE(no_children());
}

TEST(DaemonFleet, StartupDeathFailsWaitListeningEarly) {
  if (!net::transport_supported()) GTEST_SKIP() << "TCP transport requires Linux";
  const FleetConfig config = two_daemon_fleet();
  // Occupy daemon 1's port without listening: its bind fails with
  // EADDRINUSE, so it exits at start-up, while connects to the port are
  // refused exactly as if the daemon were still starting.
  const int blocker = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(blocker, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config.processes[1].port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(blocker, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  {
    const ScratchDir dir("daemon_fleet_startup_death");
    DaemonFleet fleet(config, DaemonFiles{dir.path + "/fleet.cfg", "", "", ""});
    fleet.spawn();
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(fleet.wait_listening(std::chrono::seconds(15)));
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5))
        << "wait_listening polled past the daemon's death";
    EXPECT_TRUE(fleet.any_exited());
    EXPECT_FALSE(fleet.reap(/*grace_ms=*/0)) << "a fleet that lost a daemon reaped clean";
  }
  ::close(blocker);
  EXPECT_TRUE(no_children());
}

TEST(DaemonFleet, DestructorLeavesNoChild) {
  if (!net::transport_supported()) GTEST_SKIP() << "TCP transport requires Linux";
  const ScratchDir dir("daemon_fleet_destructor");
  {
    DaemonFleet fleet(two_daemon_fleet(), DaemonFiles{dir.path + "/fleet.cfg", "", "", ""});
    fleet.spawn();
    ASSERT_TRUE(fleet.wait_listening(std::chrono::seconds(15)));
    // No terminate, no reap: the destructor must stop both daemons.
  }
  EXPECT_TRUE(no_children());
}

#endif  // __linux__

}  // namespace
}  // namespace snowkit
