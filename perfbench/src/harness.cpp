#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

CpuRotation::CpuRotation() {
  CPU_ZERO(&allowed_);
  if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) sched_setaffinity(0, sizeof allowed_, &allowed_);
}

void CpuRotation::pin(std::size_t index) {
  if (cpus_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[index % cpus_.size()], &one);
  sched_setaffinity(0, sizeof one, &one);
}

int Tracer::begin(const char* name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request_;
  s.start = now_s();
  spans_.push_back(s);
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::end(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end = now_s();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::map<std::string, Tracer::Layer> Tracer::layers() const {
  // Spans are recorded on one thread and strictly nested, so the child
  // durations of a span never overlap each other.
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, Layer> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Layer& l = out[s.name];
    const double d = s.end - s.start;
    ++l.calls;
    l.total += d;
    l.self += d - child[i];
    l.durations.push_back(d);
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write span file " + path);
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                  "\"end_us\":%.3f,\"parent\":%d,\"request\":%d}\n",
                  i, s.name, 1e6 * (s.start - t0), 1e6 * (s.end - t0),
                  s.parent, s.request);
    os << buf;
  }
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double tail_quantile(std::size_t guaranteed) {
  if (guaranteed <= 10) return 0.5;
  // Whole percentiles only, so the printed label is exact.
  const double q = std::floor(100.0 * static_cast<double>(guaranteed - 10) /
                              static_cast<double>(guaranteed)) /
                   100.0;
  return std::max(q, 0.5);
}

void Report::op(bool ok, const std::string& why) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

namespace {

/// Every span the workloads record that feeds a per-layer metric (the
/// median duration of one call).
struct SpanMetric {
  const char* span;
  const char* metric;
  const char* unit;  ///< "us" | "ms"
};

constexpr SpanMetric kSpanMetrics[] = {
    {"core.spec_parse", "core.spec_parse_us", "us"},
    {"config.validate", "config.validate_us", "us"},
    {"config.canonical_hash", "config.canonical_hash_us", "us"},
    {"protocol.parse_request", "protocol.parse_request_us", "us"},
    {"service.describe", "service.describe_us", "us"},
    {"core.render_row", "core.render_row_us", "us"},
    {"service.execute_hit", "service.execute_hit_us", "us"},
    {"service.execute_miss", "service.execute_miss_ms", "ms"},
    {"service.execute_warm", "service.execute_warm_ms", "ms"},
    {"sim.checkpoint", "sim.checkpoint_ms", "ms"},
    {"sim.restore", "sim.restore_ms", "ms"},
    {"topology.build", "topology.build_ms", "ms"},
    {"sim.session_build", "sim.session_build_ms", "ms"},
    {"sim.collect", "sim.collect_ms", "ms"},
    {"sim.warmup", "sim.warmup_ms", "ms"},
    {"sim.measure", "sim.measure_ms", "ms"},
    {"sim.drain", "sim.drain_ms", "ms"},
};

}  // namespace

void add_span_metrics(Report& rep, const Tracer& tracer) {
  const auto layers = tracer.layers();
  for (const SpanMetric& sm : kSpanMetrics) {
    const auto it = layers.find(sm.span);
    if (it == layers.end()) continue;
    const double scale = std::string(sm.unit) == "us" ? 1e6 : 1e3;
    rep.layer(sm.metric, scale * median(it->second.durations), sm.unit);
  }
}

void add_layer_table(Report& rep, const Tracer& tracer) {
  rep.note("layer                          calls    total_ms     self_ms");
  for (const auto& [name, l] : tracer.layers()) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%-28s %8lld %11.3f %11.3f", name.c_str(),
                  static_cast<long long>(l.calls), 1e3 * l.total, 1e3 * l.self);
    rep.note(buf);
  }
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
