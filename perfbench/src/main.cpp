// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out spans.jsonl]
//
// Runs one workload (paper-h6, service-mix) for about S seconds, checks
// its outputs and prints, as the last line, {"correct", "attempted",
// "failed", "metrics"}: the end-to-end metrics with --trace 0, the
// per-layer metrics of a traced run with --trace 1. See README.md.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

struct MetricName {
  const char* name;
  const char* unit;
};

// Must list exactly the metrics of BENCHMARK.json, in any order.
constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},          {"wall_s", "s"},
    {"peak_rss_mb", "MiB"},    {"router_cycles_per_s", "1/s"},
    {"hit_p50_ms", "ms"},      {"hit_tail_ms", "ms"},
    {"miss_p50_ms", "ms"},     {"miss_tail_ms", "ms"},
    {"refine_p50_ms", "ms"},
};

constexpr MetricName kPerLayer[] = {
    {"core.spec_parse_us", "us"},
    {"config.validate_us", "us"},
    {"config.canonical_hash_us", "us"},
    {"protocol.parse_request_us", "us"},
    {"service.describe_us", "us"},
    {"core.render_row_us", "us"},
    {"service.execute_hit_us", "us"},
    {"service.execute_miss_ms", "ms"},
    {"service.execute_warm_ms", "ms"},
    {"service.reply_overhead_ms", "ms"},
    {"sim.checkpoint_ms", "ms"},
    {"sim.restore_ms", "ms"},
    {"sim.checkpoint_kib", "KiB"},
    {"service.warm_cache_bytes", "bytes"},
    {"topology.build_ms", "ms"},
    {"topology.cache_hits", "count"},
    {"topology.cache_misses", "count"},
    {"sim.session_build_ms", "ms"},
    {"sim.collect_ms", "ms"},
    {"sim.warmup_ms", "ms"},
    {"sim.measure_ms", "ms"},
    {"sim.drain_ms", "ms"},
    {"sim.step_ns_per_router_cycle", "ns"},
    {"sim.cpu_per_wall", "ratio"},
    {"sim.shard_speedup", "ratio"},
    {"sim.cycles", "count"},
    {"sim.router_cycles", "count"},
    {"sim.packets_generated", "count"},
    {"sim.packets_delivered", "count"},
    {"sim.events_dispatched", "count"},
    {"workload.jobs_started", "count"},
    {"workload.jobs_finished", "count"},
    {"workload.collective_iterations", "count"},
    {"service.result_hits", "count"},
    {"service.cold_runs", "count"},
    {"service.warm_starts", "count"},
    {"service.coalesced", "count"},
    {"service.cycles_simulated", "count"},
    {"trace.overhead_s", "s"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper-h6|service-mix --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH]\n",
               why);
  std::exit(2);
}

perfbench::Options parse_args(int argc, char** argv) {
  perfbench::Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
    } else if (key == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0.0) || o.seconds > 600.0) {
        usage("--seconds takes a number in (0, 600]");
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (key == "--trace-out") {
      o.trace_out = value;
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

void print_metric(bool& first, const char* name, double value,
                  const char* unit) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
              first ? "" : ", ", name, value, unit);
  first = false;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opts = parse_args(argc, argv);
  perfbench::Report rep;
  try {
    if (opts.workload == "paper-h6") {
      rep = perfbench::run_paper(opts);
    } else if (opts.workload == "service-mix") {
      rep = perfbench::run_service_mix(opts);
    } else {
      usage(("unknown workload " + opts.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opts.workload.c_str(),
                 e.what());
    return 1;
  }

  std::map<std::string, perfbench::Metric> got;
  for (const auto& m : opts.trace ? rep.per_layer : rep.end_to_end) {
    got[m.name] = m;
  }
  std::printf("workload %s seed %llu trace %d\n", opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.trace ? 1 : 0);
  for (const std::string& line : rep.notes) std::printf("  %s\n", line.c_str());
  for (const std::string& why : rep.failures) {
    std::printf("  FAILED %s\n", why.c_str());
  }
  if (opts.trace) {
    for (const MetricName& m : kPerLayer) {
      const auto it = got.find(m.name);
      std::printf("  %-34s %16.6f %s%s\n", m.name,
                  it == got.end() ? 0.0 : it->second.value, m.unit,
                  it == got.end() ? "  (layer not reached by this workload)"
                                  : "");
    }
  } else {
    for (const MetricName& m : kEndToEnd) {
      const auto it = got.find(m.name);
      if (it == got.end() || !std::isfinite(it->second.value)) {
        std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                     m.name);
        return 1;
      }
      std::printf("  %-22s %16.6f %s\n", m.name, it->second.value, m.unit);
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              rep.failed == 0 ? "true" : "false",
              static_cast<long long>(rep.attempted),
              static_cast<long long>(rep.failed));
  bool first = true;
  if (opts.trace) {
    for (const MetricName& m : kPerLayer) {
      const auto it = got.find(m.name);
      print_metric(first, m.name, it == got.end() ? 0.0 : it->second.value,
                   m.unit);
    }
  } else {
    for (const MetricName& m : kEndToEnd) {
      print_metric(first, m.name, got[m.name].value, m.unit);
    }
  }
  std::printf("}}\n");
  return 0;
}
