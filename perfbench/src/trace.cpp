/// \file trace.cpp
/// Span recorder, sample statistics and host queries of the benchmark.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>

#include <sys/resource.h>
#include <unistd.h>

#include "bench.hpp"

namespace perfbench {

int Tracer::begin(const char* name) {
  spans_.push_back({name, current_, now_s(), 0.0});
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void Tracer::end(int id) {
  auto& s = spans_[static_cast<std::size_t>(id)];
  s.t1 = now_s();
  current_ = s.parent;
}

std::map<std::string, Tracer::SelfTime> Tracer::self_times() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const auto& s : spans_)
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
  std::map<std::string, SelfTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& st = out[spans_[i].name];
    st.total_s += (spans_[i].t1 - spans_[i].t0) - child[i];
    ++st.count;
  }
  return out;
}

void Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace " + path);
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 0, \"tid\": 0, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d}}%s\n",
                 s.name.c_str(), 1e6 * s.t0, 1e6 * (s.t1 - s.t0), i, s.parent,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double x = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(x));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (x - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::size_t l3_bytes() {
#ifdef _SC_LEVEL3_CACHE_SIZE
  const long n = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (n > 0) return static_cast<std::size_t>(n);
#endif
  return 0;
}

double peak_rss_mb() {
  struct rusage ru {};
  if (::getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string unique_dir(const std::string& parent, const std::string& tag) {
  static std::atomic<int> counter{0};
  std::filesystem::create_directories(parent);
  for (int attempt = 0; attempt < 1000; ++attempt) {
    const std::string dir = parent + "/" + tag + "-" +
                            std::to_string(::getpid()) + "-" +
                            std::to_string(counter.fetch_add(1));
    // create_directory reports false when the path already exists, so a
    // stale directory from an earlier process is never reused.
    if (std::filesystem::create_directory(dir)) return dir;
  }
  throw std::runtime_error("cannot create a fresh directory under " + parent);
}

DirGuard::~DirGuard() {
  if (path_.empty()) return;
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

}  // namespace perfbench
