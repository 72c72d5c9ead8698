#include "sim/fault.hpp"

#include <csignal>
#include <limits>
#include <sstream>
#include <vector>

namespace igr::sim {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Whole-token integer in [0, hi].
long parse_long(const std::string& s, const std::string& key,
                long hi = std::numeric_limits<long>::max()) {
  std::size_t pos = 0;
  long v = 0;
  try {
    v = std::stol(s, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != s.size() || v < 0 || v > hi)
    throw std::invalid_argument("FaultPlan: bad value '" + s + "' for " + key);
  return v;
}

/// A rank id: parse_long clamped to the int range, so an out-of-range rank
/// is rejected instead of wrapping.
int parse_rank(const std::string& s, const std::string& key) {
  return static_cast<int>(parse_long(s, key, std::numeric_limits<int>::max()));
}

}  // namespace

std::string FaultPlan::describe() const {
  std::ostringstream os;
  bool any = false;
  const auto sep = [&] { if (any) os << ", "; any = true; };
  if (comm_post_at > 0) { sep(); os << "comm-post@" << comm_post_at; }
  if (comm_complete_at > 0) { sep(); os << "comm-complete@" << comm_complete_at; }
  if (phase_at > 0) { sep(); os << "phase@" << phase_at << " rank " << phase_rank; }
  if (io_write_at > 0) { sep(); os << "io-write@" << io_write_at; }
  if (kill_step > 0) { sep(); os << "kill@" << kill_step << " rank " << kill_rank; }
  if (!any) return "disarmed";
  if (seed != 0) os << " (seed " << seed << ")";
  return os.str();
}

FaultPlan FaultPlan::from_seed(std::uint64_t seed) {
  FaultPlan p;
  p.seed = seed;
  std::uint64_t s = seed;
  const std::uint64_t kind = splitmix64(s) % 4;
  const long at = 1 + static_cast<long>(splitmix64(s) % 24);
  switch (kind) {
    case 0: p.comm_post_at = at; break;
    case 1: p.comm_complete_at = at; break;
    case 2:
      p.phase_at = at;
      p.phase_rank = static_cast<int>(splitmix64(s) % 8);
      break;
    default: p.io_write_at = at; break;
  }
  return p;
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan p;
  std::vector<std::pair<std::string, std::string>> kvs;
  std::istringstream ss(spec);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (token.empty()) continue;
    const auto eq = token.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("FaultPlan: expected key=value, got '" +
                                  token + "'");
    kvs.emplace_back(token.substr(0, eq), token.substr(eq + 1));
  }
  // A seed expands first so explicit keys can override parts of it.
  for (const auto& [k, v] : kvs) {
    if (k == "seed") {
      p = from_seed(static_cast<std::uint64_t>(parse_long(v, k)));
    }
  }
  for (const auto& [k, v] : kvs) {
    if (k == "seed") continue;
    if (k == "post") {
      p.comm_post_at = parse_long(v, k);
    } else if (k == "complete") {
      p.comm_complete_at = parse_long(v, k);
    } else if (k == "io") {
      p.io_write_at = parse_long(v, k);
    } else if (k == "phase") {
      const auto at_pos = v.find('@');
      if (at_pos == std::string::npos) {
        p.phase_at = parse_long(v, k);
        p.phase_rank = 0;
      } else {
        p.phase_at = parse_long(v.substr(0, at_pos), k);
        p.phase_rank = parse_rank(v.substr(at_pos + 1), "phase rank");
      }
    } else if (k == "kill") {
      const auto at_pos = v.find('@');
      if (at_pos == std::string::npos) {
        p.kill_step = parse_long(v, k);
        p.kill_rank = 0;
      } else {
        p.kill_step = parse_long(v.substr(0, at_pos), k);
        p.kill_rank = parse_rank(v.substr(at_pos + 1), "kill rank");
      }
    } else {
      throw std::invalid_argument(
          "FaultPlan: unknown key '" + k +
          "' (expected post/complete/phase/io/kill/seed)");
    }
  }
  return p;
}

void FaultInjector::fire(const std::string& what) {
  fired_.store(true, std::memory_order_relaxed);
  throw InjectedFault("injected fault: " + what + " [plan " +
                      plan_.describe() + "]");
}

void FaultInjector::on_comm_post() {
  const long n = posts_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (plan_.comm_post_at > 0 && n == plan_.comm_post_at)
    fire("comm post #" + std::to_string(n) + " failed");
}

void FaultInjector::on_comm_complete() {
  const long n = completes_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (plan_.comm_complete_at > 0 && n == plan_.comm_complete_at)
    fire("comm complete #" + std::to_string(n) + " failed");
}

void FaultInjector::on_phase(int rank) {
  if (plan_.phase_at <= 0 || rank != plan_.phase_rank) return;
  const long n = phases_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n == plan_.phase_at)
    fire("rank " + std::to_string(rank) + " died in phase callback #" +
         std::to_string(n));
}

void FaultInjector::on_step(int rank) {
  if (plan_.kill_step <= 0 || rank != plan_.kill_rank) return;
  const long n = steps_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n == plan_.kill_step) {
    // Real process death, not an exception: nothing unwinds, sockets close
    // mid-conversation, and the peers' liveness tracking has to notice.
    fired_.store(true, std::memory_order_relaxed);
    std::raise(SIGKILL);
  }
}

void FaultInjector::on_io_write() {
  const long n = io_writes_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (plan_.io_write_at > 0 && n == plan_.io_write_at)
    fire("checkpoint writer killed at payload chunk #" + std::to_string(n));
}

}  // namespace igr::sim
