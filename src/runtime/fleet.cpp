#include "runtime/fleet.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace snowkit {

namespace {

[[noreturn]] void bad_line(std::size_t lineno, const std::string& why) {
  throw std::invalid_argument("fleet config line " + std::to_string(lineno) + ": " + why);
}

}  // namespace

std::size_t FleetConfig::owner_of(NodeId node) const {
  const std::size_t shards = system.server_count();
  const std::size_t sprocs = server_processes();
  if (node < shards) {
    // Contiguous split, same arithmetic as PlacementKind::kRange: shard s of
    // S goes to server process s*P/S.
    return static_cast<std::size_t>(node) * sprocs / shards;
  }
  if (replicas == 2 && node >= system.backup_node(0) && node < system.backup_node(shards)) {
    // The backup of shard s (SystemConfig::backup_node) lives on the server
    // process AFTER s's primary (cyclically) — validate() requires >= 2
    // server processes, so primary and backup never share a process and one
    // SIGKILL never takes both copies of a shard.
    const std::size_t s = node - system.backup_node(0);
    return (s * sprocs / shards + 1) % sprocs;
  }
  return client_index();
}

NetOptions FleetConfig::net_options(std::size_t index) const {
  validate();
  if (index >= processes.size()) {
    throw std::invalid_argument("fleet process index " + std::to_string(index) +
                                " out of range (fleet has " + std::to_string(processes.size()) +
                                " processes)");
  }
  NetOptions opts;
  opts.index = index;
  opts.peers = processes;
  // Capture a copy: the owner map must outlive this FleetConfig, and it must
  // be THE owner_of rule (one implementation), since every fleet process
  // derives its routing from it.
  opts.owner = [cfg = *this](NodeId node) { return cfg.owner_of(node); };
  opts.transport = transport;
  return opts;
}

void FleetConfig::validate() const {
  if (protocol.empty()) {
    throw std::invalid_argument("fleet config: a protocol name is required");
  }
  if (!ProtocolRegistry::global().contains(protocol)) {
    std::string msg = "fleet config: unknown protocol '" + protocol + "'; registered:";
    for (const auto& n : ProtocolRegistry::global().names()) msg += " " + n;
    throw std::invalid_argument(msg);
  }
  if (processes.size() < 2) {
    throw std::invalid_argument("fleet config: at least one server process and the client "
                                "process are required");
  }
  system.validate();
  transport.validate();
  if (server_processes() > system.server_count()) {
    throw std::invalid_argument(
        "fleet config: " + std::to_string(server_processes()) + " server processes but only " +
        std::to_string(system.server_count()) +
        " shards — every server process must host at least one shard");
  }
  if (replicas != 1 && replicas != 2) {
    throw std::invalid_argument("fleet config: replicas must be 1 or 2, got " +
                                std::to_string(replicas));
  }
  if (replicas == 2) {
    if (!ProtocolRegistry::global().traits(protocol).supports_replication) {
      throw std::invalid_argument("fleet config: protocol '" + protocol +
                                  "' does not support replicas 2");
    }
    if (server_processes() < 2) {
      throw std::invalid_argument(
          "fleet config: replicas 2 needs at least two server processes so a shard's "
          "primary and backup never share a process");
    }
  }
}

FleetConfig parse_fleet_text(const std::string& text) {
  FleetConfig fleet;
  std::vector<NetPeerAddr> servers;
  std::vector<NetPeerAddr> clients;
  bool saw_client = false;

  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key)) continue;  // blank / comment-only line

    auto need_value = [&](const char* what) -> std::string {
      std::string v;
      if (!(ls >> v)) bad_line(lineno, std::string("'") + key + "' needs " + what);
      return v;
    };
    auto need_size = [&]() -> std::size_t {
      const std::string v = need_value("a non-negative integer");
      // std::stoull accepts "-1" by wrapping; reject any non-digit up front.
      const bool digits = !v.empty() && v.find_first_not_of("0123456789") == std::string::npos;
      if (!digits) bad_line(lineno, "'" + key + "' value '" + v + "' is not a non-negative integer");
      try {
        return static_cast<std::size_t>(std::stoull(v));
      } catch (const std::exception&) {
        bad_line(lineno, "'" + key + "' value '" + v + "' is out of range");
      }
    };
    auto need_addr = [&]() -> NetPeerAddr {
      NetPeerAddr addr;
      addr.host = need_value("HOST PORT");
      const std::string port = need_value("a port number");
      try {
        const unsigned long p = std::stoul(port);
        if (p == 0 || p > 65535) throw std::out_of_range("port");
        addr.port = static_cast<std::uint16_t>(p);
      } catch (const std::exception&) {
        bad_line(lineno, "port '" + port + "' is not in [1, 65535]");
      }
      return addr;
    };

    // The documented format puts the client line LAST; enforce it for EVERY
    // key, not just `server` — a `shards` or `transport` line after `client`
    // used to be silently applied, diverging from what fleet_text round-trips.
    if (saw_client) {
      if (key == "client") bad_line(lineno, "exactly one client line is allowed");
      bad_line(lineno, "'" + key + "' appears after the client line (client must be last)");
    }

    if (key == "protocol") {
      fleet.protocol = need_value("a protocol name");
    } else if (key == "objects") {
      fleet.system.num_objects = need_size();
    } else if (key == "readers") {
      fleet.system.num_readers = need_size();
    } else if (key == "writers") {
      fleet.system.num_writers = need_size();
    } else if (key == "shards") {
      fleet.system.num_servers = need_size();
    } else if (key == "placement") {
      const std::string v = need_value("hash|range");
      if (v == "hash") {
        fleet.system.placement = PlacementKind::kHash;
      } else if (v == "range") {
        fleet.system.placement = PlacementKind::kRange;
      } else {
        bad_line(lineno, "placement '" + v + "' is not hash|range");
      }
    } else if (key == "replicas") {
      fleet.replicas = need_size();
      if (fleet.replicas != 1 && fleet.replicas != 2) {
        bad_line(lineno, "replicas must be 1 or 2, got " + std::to_string(fleet.replicas));
      }
    } else if (key == "options") {
      try {
        fleet.options = BuildOptions::parse(need_value("key=value[,key=value]"));
      } catch (const std::invalid_argument& e) {
        bad_line(lineno, e.what());
      }
    } else if (key == "transport") {
      try {
        fleet.transport.parse_csv(need_value("key=value[,key=value]"));
      } catch (const std::invalid_argument& e) {
        bad_line(lineno, e.what());
      }
    } else if (key == "server") {
      servers.push_back(need_addr());
    } else if (key == "client") {
      saw_client = true;
      clients.push_back(need_addr());
    } else {
      bad_line(lineno, "unknown key '" + key + "'");
    }
    std::string extra;
    if (ls >> extra) bad_line(lineno, "trailing token '" + extra + "'");
  }

  if (!saw_client) {
    throw std::invalid_argument("fleet config: a client line is required (and must be last)");
  }
  fleet.processes = std::move(servers);
  fleet.processes.push_back(clients.front());
  // Protocol factories only see BuildOptions, so the replicas line mirrors
  // itself there (the protocol builders read it back); fleet_text skips the mirror
  // so the round-trip stays one `replicas` line.
  if (fleet.replicas == 2) fleet.options.set("replicas", std::int64_t{2});
  fleet.validate();
  return fleet;
}

FleetConfig parse_fleet_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::invalid_argument("cannot read fleet config '" + path + "'");
  std::ostringstream buf;
  buf << f.rdbuf();
  return parse_fleet_text(buf.str());
}

std::string fleet_text(const FleetConfig& fleet) {
  std::ostringstream out;
  out << "protocol " << fleet.protocol << "\n";
  out << "objects " << fleet.system.num_objects << "\n";
  out << "readers " << fleet.system.num_readers << "\n";
  out << "writers " << fleet.system.num_writers << "\n";
  out << "shards " << fleet.system.num_servers << "\n";
  out << "placement " << (fleet.system.placement == PlacementKind::kHash ? "hash" : "range")
      << "\n";
  if (fleet.replicas != 1) out << "replicas " << fleet.replicas << "\n";
  // Skip the parse-time `replicas` mirror: it re-materializes from the
  // replicas line above, keeping parse(fleet_text(x)) == x.
  bool has_options = false;
  for (const auto& [k, v] : fleet.options.entries()) {
    if (k != "replicas") has_options = true;
  }
  if (has_options) {
    out << "options ";
    bool first = true;
    for (const auto& [k, v] : fleet.options.entries()) {
      if (k == "replicas") continue;
      if (!first) out << ",";
      first = false;
      out << k << "=" << v;
    }
    out << "\n";
  }
  // Only non-default transport knobs are emitted, so configs show what they
  // changed and parse(fleet_text(x)) round-trips exactly.
  const auto transport_entries = fleet.transport.non_default_entries();
  if (!transport_entries.empty()) {
    out << "transport ";
    bool first = true;
    for (const auto& [k, v] : transport_entries) {
      if (!first) out << ",";
      first = false;
      out << k << "=" << v;
    }
    out << "\n";
  }
  for (std::size_t i = 0; i < fleet.processes.size(); ++i) {
    const bool is_client = i + 1 == fleet.processes.size();
    out << (is_client ? "client " : "server ") << fleet.processes[i].host << " "
        << fleet.processes[i].port << "\n";
  }
  return out.str();
}

}  // namespace snowkit
