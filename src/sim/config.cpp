#include "sim/config.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "common/checkpoint.hpp"
#include "router/packet.hpp"
#include "routing/routing.hpp"
#include "topology/topology.hpp"
#include "traffic/pattern.hpp"

namespace dragonfly {

namespace {

/// One built-in routing: enum value, canonical registry key, legacy
/// display spelling (what to_string has always printed).
struct RoutingName {
  RoutingKind kind;
  const char* key;
  const char* legacy;
};

constexpr RoutingName kRoutingNames[] = {
    {RoutingKind::kMinimal, "min", "MIN"},
    {RoutingKind::kObliviousRrg, "val-rrg", "Obl-RRG"},
    {RoutingKind::kObliviousCrg, "val-crg", "Obl-CRG"},
    {RoutingKind::kObliviousNrg, "val-nrg", "Obl-NRG"},
    {RoutingKind::kSourceRrg, "pb-rrg", "Src-RRG"},
    {RoutingKind::kSourceCrg, "pb-crg", "Src-CRG"},
    {RoutingKind::kInTransitRrg, "par-rrg", "In-Trns-RRG"},
    {RoutingKind::kInTransitCrg, "par-crg", "In-Trns-CRG"},
    {RoutingKind::kInTransitMm, "par-mm", "In-Trns-MM"},
    {RoutingKind::kUgalRrg, "ugal-rrg", "UGAL-RRG"},
    {RoutingKind::kUgalCrg, "ugal-crg", "UGAL-CRG"},
};

struct TrafficName {
  TrafficKind kind;
  const char* key;
  const char* legacy;
};

constexpr TrafficName kTrafficNames[] = {
    {TrafficKind::kUniform, "uniform", "UN"},
    {TrafficKind::kAdversarial, "adv", "ADV"},
    {TrafficKind::kAdvConsecutive, "advc", "ADVc"},
    {TrafficKind::kPlacement, "placement", "placement"},
    {TrafficKind::kShift, "shift", "shift"},
    {TrafficKind::kHotspot, "hotspot", "hotspot"},
};

template <class Names>
std::string spelling_list(const Names& names) {
  std::string out;
  for (const auto& n : names) {
    if (!out.empty()) out += " | ";
    out += n.key;
    if (std::string(n.key) != n.legacy) {
      out += std::string(" (") + n.legacy + ")";
    }
  }
  return out;
}

// Closed workload-knob vocabularies (src/workload). Validated both at
// key=value apply time (early diagnostics) and in validate() (configs
// built in code).
constexpr const char* kWorkloadModes[] = {"off", "collective", "bursty",
                                          "churn"};
constexpr const char* kWorkloadCollectives[] = {"ring", "tree", "alltoall",
                                                "halo"};
constexpr const char* kWorkloadPlacements[] = {"contiguous", "random"};
constexpr const char* kWorkloadMixes[] = {"uniform", "ring", "shift",
                                          "hotspot"};

template <std::size_t N>
const std::string& check_choice(const char* key, const std::string& value,
                                const char* const (&valid)[N]) {
  for (const char* v : valid) {
    if (value == v) return value;
  }
  std::string list;
  for (const char* v : valid) {
    if (!list.empty()) list += " | ";
    list += v;
  }
  throw std::invalid_argument(std::string(key) + ": unknown value \"" + value +
                              "\"; valid values: " + list);
}

std::vector<std::string> split_mix(const std::string& mix) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream is(mix);
  while (std::getline(is, item, ',')) {
    const auto from = item.find_first_not_of(" \t");
    const auto to = item.find_last_not_of(" \t");
    out.push_back(from == std::string::npos
                      ? std::string()
                      : item.substr(from, to - from + 1));
  }
  return out;
}

}  // namespace

std::vector<std::string> workload_mix_entries(const std::string& mix) {
  std::vector<std::string> out = split_mix(mix);
  for (const std::string& entry : out) {
    check_choice("workload.mix", entry, kWorkloadMixes);
  }
  if (out.empty()) {
    throw std::invalid_argument("workload.mix: empty mix list");
  }
  return out;
}

const char* to_string(RoutingKind kind) {
  for (const RoutingName& n : kRoutingNames) {
    if (n.kind == kind) return n.legacy;
  }
  return "?";
}

const char* registry_key(RoutingKind kind) {
  for (const RoutingName& n : kRoutingNames) {
    if (n.kind == kind) return n.key;
  }
  return "?";
}

std::optional<RoutingKind> try_routing_kind(const std::string& name) {
  for (const RoutingName& n : kRoutingNames) {
    if (name == n.key || name == n.legacy) return n.kind;
  }
  return std::nullopt;
}

RoutingKind routing_kind_from_string(const std::string& name) {
  if (const auto kind = try_routing_kind(name)) return *kind;
  throw std::invalid_argument("unknown routing kind \"" + name +
                              "\"; valid names: " +
                              spelling_list(kRoutingNames));
}

bool is_oblivious(RoutingKind kind) {
  switch (kind) {
    case RoutingKind::kMinimal:
    case RoutingKind::kObliviousRrg:
    case RoutingKind::kObliviousCrg:
    case RoutingKind::kObliviousNrg:
      return true;
    default:
      return false;
  }
}

bool is_source_adaptive(RoutingKind kind) {
  return kind == RoutingKind::kSourceRrg || kind == RoutingKind::kSourceCrg ||
         kind == RoutingKind::kUgalRrg || kind == RoutingKind::kUgalCrg;
}

bool is_in_transit(RoutingKind kind) {
  return kind == RoutingKind::kInTransitRrg ||
         kind == RoutingKind::kInTransitCrg ||
         kind == RoutingKind::kInTransitMm;
}

const char* to_string(TrafficKind kind) {
  for (const TrafficName& n : kTrafficNames) {
    if (n.kind == kind) return n.legacy;
  }
  return "?";
}

const char* registry_key(TrafficKind kind) {
  for (const TrafficName& n : kTrafficNames) {
    if (n.kind == kind) return n.key;
  }
  return "?";
}

std::optional<TrafficKind> try_traffic_kind(const std::string& name) {
  for (const TrafficName& n : kTrafficNames) {
    if (name == n.key || name == n.legacy) return n.kind;
  }
  return std::nullopt;
}

TrafficKind traffic_kind_from_string(const std::string& name) {
  if (const auto kind = try_traffic_kind(name)) return *kind;
  throw std::invalid_argument("unknown traffic kind \"" + name +
                              "\"; valid names: " +
                              spelling_list(kTrafficNames));
}

const char* to_string(SimKernel kernel) {
  switch (kernel) {
    case SimKernel::kActive: return "active";
    case SimKernel::kScan: return "scan";
  }
  return "?";
}

SimKernel sim_kernel_from_string(const std::string& name) {
  if (name == "active") return SimKernel::kActive;
  if (name == "scan") return SimKernel::kScan;
  throw std::invalid_argument("unknown sim kernel \"" + name +
                              "\"; valid names: active | scan");
}

const char* to_string(StopMode mode) {
  switch (mode) {
    case StopMode::kFixed: return "fixed";
    case StopMode::kCi: return "ci";
  }
  return "?";
}

StopMode stop_mode_from_string(const std::string& name) {
  if (name == "fixed") return StopMode::kFixed;
  if (name == "ci") return StopMode::kCi;
  throw std::invalid_argument("unknown stop mode \"" + name +
                              "\"; valid names: fixed | ci");
}

std::string SimConfig::routing_key() const {
  return routing_name.empty() ? registry_key(routing) : routing_name;
}

std::string SimConfig::traffic_key() const {
  return traffic_name.empty() ? registry_key(traffic) : traffic_name;
}

void SimConfig::apply_vc_defaults() {
  // Custom registered routings (no enum mapping) get the conservative
  // oblivious/source-adaptive count of 4 local VCs.
  const auto kind = try_routing_kind(routing_key());
  local_vcs = kind && is_in_transit(*kind) ? 3 : 4;
  global_vcs = 2;
  injection_vcs = 3;
}

SimConfig SimConfig::small(int h) {
  SimConfig cfg;
  cfg.topo = DragonflyParams::balanced(h);
  cfg.warmup_cycles = 4'000;
  cfg.measure_cycles = 8'000;
  return cfg;
}

SimConfig SimConfig::paper() {
  SimConfig cfg;
  cfg.topo = DragonflyParams::balanced(6);
  cfg.warmup_cycles = 10'000;
  cfg.measure_cycles = 15'000;
  return cfg;
}

void SimConfig::validate() const {
  // --- topology selection ---------------------------------------------------
  // Resolves the family (unknown names throw, listing the registry) and
  // rejects arrangement/topology mismatches: global-link arrangements
  // are a dragonfly concept, so pairing one with another family is a
  // config error, not something to ignore silently.
  const std::string family = topology_family(*this);
  if (family == "dfly") {
    // Inline spec args ("dfly:p,a,h[,G]") supersede the `topo` fields
    // and are range-checked by try_topology_shape below.
    if (split_topology_spec(topology).second.empty() && !topo.valid()) {
      throw std::invalid_argument(
          "invalid topology parameters (need p,a,h >= 1 and groups in "
          "{0} u [2, a*h+1])");
    }
  } else if (arrangement_explicit || arrangement != "palmtree") {
    throw std::invalid_argument(
        "arrangement \"" + arrangement + "\" does not apply to topology \"" +
        topology + "\": global-link arrangements exist only for the "
        "dragonfly family. valid combinations: topology dfly[:p,a,h[,G]] "
        "with arrangement " + arrangement_registry().known_names() +
        "; topology " + family + " with the family's fixed wiring");
  }
  // Malformed built-in topology args fail here with the grammar.
  const std::optional<TopologyShape> shape = try_topology_shape(*this);
  if (packet_size <= 0) throw std::invalid_argument("packet_size must be > 0");
  if (local_latency < 1 || global_latency < 1) {
    // Links serialize at 1 phit/cycle, so a 0-cycle link is unphysical;
    // the event ring also relies on every event being booked in the
    // future (same-cycle ordering would differ from the event seq order).
    throw std::invalid_argument("link latencies must be >= 1 cycle");
  }
  if (local_input_buffer < packet_size || global_input_buffer < packet_size ||
      output_queue_size < packet_size) {
    throw std::invalid_argument("buffers must hold at least one packet");
  }
  if (global_vcs < 2) {
    throw std::invalid_argument("deadlock avoidance needs >= 2 global VCs");
  }
  if (local_vcs < 3) {
    throw std::invalid_argument("deadlock avoidance needs >= 3 local VCs");
  }
  if (injection_vcs < 1) throw std::invalid_argument("need >= 1 injection VC");
  if (load < 0.0 || load > static_cast<double>(packet_size)) {
    throw std::invalid_argument("load out of range");
  }
  if (allocator_iterations < 1 || max_grants_per_output < 1 ||
      max_grants_per_input < 1) {
    throw std::invalid_argument("allocator parameters must be >= 1");
  }
  if (intransit_threshold <= 0.0 || intransit_threshold > 1.0) {
    throw std::invalid_argument("in-transit threshold must be in (0,1]");
  }
  if (pipeline_latency < 0) {
    throw std::invalid_argument("pipeline_latency must be >= 0");
  }
  if (warmup_cycles < 0) {
    throw std::invalid_argument("warmup_cycles must be >= 0, got " +
                                std::to_string(warmup_cycles));
  }
  if (measure_cycles <= 0) {
    throw std::invalid_argument(
        "measure_cycles must be >= 1 (a zero-length measurement window "
        "yields no metrics), got " +
        std::to_string(measure_cycles));
  }
  if (node_queue_capacity < 1) {
    throw std::invalid_argument("node queue capacity must be >= 1");
  }
  // --- session lifecycle ----------------------------------------------------
  if (stop.rel_hw <= 0.0 || stop.rel_hw >= 1.0) {
    throw std::invalid_argument("stop.rel_hw must be in (0,1)");
  }
  if (stop.batches < 2) {
    throw std::invalid_argument(
        "stop.batches must be >= 2 (a CI needs at least two batches)");
  }
  if (stop.batch_cycles < 1) {
    throw std::invalid_argument("stop.batch_cycles must be >= 1");
  }
  if (drain_max_cycles < 0) {
    throw std::invalid_argument("drain.max_cycles must be >= 0");
  }
  if (stream_interval < 1) {
    throw std::invalid_argument("stream.interval must be >= 1");
  }
  if (sim_paranoid < 0) {
    throw std::invalid_argument("sim.paranoid must be >= 0 (cycles between "
                                "invariant sweeps; 0 disables them)");
  }
  if (shards < 1 || shards > kMaxArenas) {
    throw std::invalid_argument(
        "sim.shards is " + std::to_string(shards) +
        "; valid values: 1.." + std::to_string(kMaxArenas) +
        " (and at most one shard per router of the selected topology)");
  }
  if (!phase_script.empty() && stop.mode == StopMode::kCi) {
    throw std::invalid_argument(
        "stop.mode=ci cannot be combined with a phase script: scripted "
        "segments have fixed durations");
  }
  for (const ScriptedSegment& seg : phase_script) {
    if (seg.cycles < 1) {
      throw std::invalid_argument("phase segment \"" + seg.name +
                                  "\": cycles must be >= 1");
    }
    if (seg.load >= 0.0 && seg.load > static_cast<double>(packet_size)) {
      throw std::invalid_argument("phase segment \"" + seg.name +
                                  "\": load out of range");
    }
    if (!seg.traffic.empty()) traffic_registry().resolve(seg.traffic);
  }
  // --- extension-pattern knobs --------------------------------------------
  // Range checks run against the *selected* topology's shape, and only
  // for the selected traffic pattern: a flatbfly:k,2 run with uniform
  // traffic must not trip over the (irrelevant) adversarial offset.
  // Custom-registered families (no cheap shape) defer to the pattern
  // constructors, which perform the same checks.
  if (hotspot_fraction < 0.0 || hotspot_fraction > 1.0) {
    throw std::invalid_argument("hotspot fraction must be in [0,1]");
  }
  const std::string traffic_sel = traffic_registry().resolve(traffic_key());
  if (shape) {
    if (shards > shape->num_routers()) {
      throw std::invalid_argument(
          "sim.shards is " + std::to_string(shards) +
          " but the topology has only " +
          std::to_string(shape->num_routers()) +
          " routers; valid values: 1.." +
          std::to_string(std::min(shape->num_routers(), kMaxArenas)));
    }
    if (traffic_sel == "hotspot" &&
        (hotspot_node < 0 || hotspot_node >= shape->num_nodes())) {
      throw std::invalid_argument(
          "hotspot_node out of range [0, " +
          std::to_string(shape->num_nodes()) + ")");
    }
    if (traffic_sel == "shift" &&
        (shift_offset_nodes < 0 ||
         shift_offset_nodes >= shape->num_nodes())) {
      // 0 is the "one full group" sentinel; negative shifts are never valid.
      throw std::invalid_argument("shift_offset_nodes out of range [0, " +
                                  std::to_string(shape->num_nodes()) + ")");
    }
    if (traffic_sel == "placement") {
      if (placement_first_group < 0 ||
          placement_first_group >= shape->groups) {
        throw std::invalid_argument(
            "placement_first_group out of range [0, " +
            std::to_string(shape->groups) + ")");
      }
      if (placement_num_groups < 0 ||
          placement_num_groups > shape->groups) {
        // 0 is the "h+1 groups" sentinel.
        throw std::invalid_argument(
            "placement_num_groups out of range [0, " +
            std::to_string(shape->groups) + "]");
      }
    }
    if (traffic_sel == "adv" &&
        (adversarial_offset < 1 || adversarial_offset >= shape->groups)) {
      throw std::invalid_argument("adversarial_offset out of range [1, " +
                                  std::to_string(shape->groups) + ")");
    }
  }
  // --- workload subsystem ---------------------------------------------------
  check_choice("workload.mode", workload.mode, kWorkloadModes);
  check_choice("workload.collective", workload.collective,
               kWorkloadCollectives);
  check_choice("workload.placement", workload.placement, kWorkloadPlacements);
  (void)workload_mix_entries(workload.mix);
  if (workload.participants < 0 || workload.participants == 1) {
    throw std::invalid_argument(
        "workload.participants must be 0 (= every node) or >= 2 "
        "(a one-rank collective has no communication)");
  }
  if (shape && workload.participants > shape->num_nodes()) {
    throw std::invalid_argument(
        "workload.participants is " + std::to_string(workload.participants) +
        " but the topology has only " + std::to_string(shape->num_nodes()) +
        " nodes");
  }
  if (workload.burst_cycles < 1 || workload.idle_cycles < 1) {
    throw std::invalid_argument(
        "workload.burst_cycles and workload.idle_cycles must be >= 1");
  }
  if (workload.jobs < 1) {
    throw std::invalid_argument("workload.jobs must be >= 1");
  }
  if (workload.arrival_cycles < 1 || workload.job_cycles < 1) {
    throw std::invalid_argument(
        "workload.arrival_cycles and workload.job_cycles must be >= 1");
  }
  if (workload.job_routers < 0) {
    throw std::invalid_argument(
        "workload.job_routers must be >= 0 (0 = one group of routers)");
  }
  if (shape && workload.job_routers > shape->num_routers()) {
    throw std::invalid_argument(
        "workload.job_routers is " + std::to_string(workload.job_routers) +
        " but the topology has only " + std::to_string(shape->num_routers()) +
        " routers");
  }
  if (workload.mode == "churn" && !phase_script.empty()) {
    throw std::invalid_argument(
        "workload.mode=churn cannot be combined with a phase script: both "
        "would mutate the live traffic assignment");
  }
  // --- registry names ------------------------------------------------------
  // Resolve now so an unknown name fails with the full valid-name list
  // before a simulation (or a whole sweep) starts.
  routing_registry().resolve(routing_key());
  arrangement_registry().resolve(arrangement);
}

// --- key=value interface ----------------------------------------------------

namespace {

int parse_int(const std::string& key, const std::string& value) {
  std::size_t pos = 0;
  int out = 0;
  try {
    out = std::stoi(value, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != value.size() || value.empty()) {
    throw std::invalid_argument(key + ": expected an integer, got \"" +
                                value + "\"");
  }
  return out;
}

double parse_double(const std::string& key, const std::string& value) {
  std::size_t pos = 0;
  double out = 0.0;
  try {
    out = std::stod(value, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != value.size() || value.empty()) {
    throw std::invalid_argument(key + ": expected a number, got \"" + value +
                                "\"");
  }
  return out;
}

bool parse_bool(const std::string& key, const std::string& value) {
  if (value == "1" || value == "true" || value == "on" || value == "yes") {
    return true;
  }
  if (value == "0" || value == "false" || value == "off" || value == "no") {
    return false;
  }
  throw std::invalid_argument(key + ": expected a boolean (1|0|true|false|" +
                              "on|off), got \"" + value + "\"");
}

/// The declarative override table: every SimConfig knob reachable from
/// config files, --set options and ExperimentSpec.
struct KvEntry {
  const char* key;
  void (*apply)(SimConfig&, const std::string& key, const std::string& value);
};

const KvEntry kKvEntries[] = {
    // topology: "h" selects the balanced canonical dragonfly, but never
    // clobbers a p/a the user set explicitly — key order must not
    // silently change the requested topology.
    {"h",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       const DragonflyParams balanced =
           DragonflyParams::balanced(parse_int(k, v));
       const DragonflyParams prev = c.topo;
       c.topo = balanced;
       if (c.topo_p_explicit) c.topo.p = prev.p;
       if (c.topo_a_explicit) c.topo.a = prev.a;
       if (c.topo_g_explicit) c.topo.g = prev.g;
       c.topology.clear();
     }},
    {"p",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.topo.p = parse_int(k, v);
       c.topo_p_explicit = true;
       c.topology.clear();
     }},
    {"a",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.topo.a = parse_int(k, v);
       c.topo_a_explicit = true;
       c.topology.clear();
     }},
    {"groups",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.topo.g = parse_int(k, v);
       c.topo_g_explicit = true;
       c.topology.clear();
     }},
    {"topology",
     [](SimConfig& c, const std::string&, const std::string& v) {
       const auto [family, args] = split_topology_spec(v);
       c.topology = topology_registry().resolve(family);
       if (!args.empty()) c.topology += ":" + args;
       // Malformed args of a built-in family fail here, not mid-run.
       (void)try_topology_shape(c);
     }},
    {"arrangement",
     [](SimConfig& c, const std::string&, const std::string& v) {
       c.arrangement = arrangement_registry().resolve(v);
       c.arrangement_explicit = true;
     }},
    // scenario selection by registry name
    {"routing",
     [](SimConfig& c, const std::string&, const std::string& v) {
       c.routing_name = routing_registry().resolve(v);
     }},
    {"traffic",
     [](SimConfig& c, const std::string&, const std::string& v) {
       c.traffic_name = traffic_registry().resolve(v);
     }},
    // timing
    {"local_latency",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.local_latency = parse_int(k, v);
     }},
    {"global_latency",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.global_latency = parse_int(k, v);
     }},
    {"pipeline_latency",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.pipeline_latency = parse_int(k, v);
     }},
    {"packet_size",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.packet_size = parse_int(k, v);
     }},
    // buffering
    {"output_queue_size",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.output_queue_size = parse_int(k, v);
     }},
    {"local_input_buffer",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.local_input_buffer = parse_int(k, v);
     }},
    {"global_input_buffer",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.global_input_buffer = parse_int(k, v);
     }},
    // virtual channels
    {"global_vcs",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.global_vcs = parse_int(k, v);
       c.vcs_explicit = true;
     }},
    {"local_vcs",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.local_vcs = parse_int(k, v);
       c.vcs_explicit = true;
     }},
    {"injection_vcs",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.injection_vcs = parse_int(k, v);
       c.vcs_explicit = true;
     }},
    // allocator
    {"allocator_iterations",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.allocator_iterations = parse_int(k, v);
     }},
    {"max_grants_per_output",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.max_grants_per_output = parse_int(k, v);
     }},
    {"max_grants_per_input",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.max_grants_per_input = parse_int(k, v);
     }},
    {"transit_priority",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.transit_priority = parse_bool(k, v);
     }},
    {"age_arbitration",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.age_arbitration = parse_bool(k, v);
     }},
    // adaptive routing thresholds
    {"intransit_threshold",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.intransit_threshold = parse_double(k, v);
     }},
    {"pb_threshold_local",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.pb_threshold_local = parse_double(k, v);
     }},
    {"pb_threshold_global",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.pb_threshold_global = parse_double(k, v);
     }},
    // traffic knobs
    {"adversarial_offset",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.adversarial_offset = parse_int(k, v);
     }},
    {"placement_first_group",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.placement_first_group = parse_int(k, v);
     }},
    {"placement_num_groups",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.placement_num_groups = parse_int(k, v);
     }},
    {"shift_offset_nodes",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.shift_offset_nodes = parse_int(k, v);
     }},
    {"hotspot_fraction",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.hotspot_fraction = parse_double(k, v);
     }},
    {"hotspot_node",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.hotspot_node = parse_int(k, v);
     }},
    // injection
    {"load",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.load = parse_double(k, v);
     }},
    {"node_queue_capacity",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.node_queue_capacity = parse_int(k, v);
     }},
    // run control
    {"warmup_cycles",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.warmup_cycles = parse_int(k, v);
     }},
    {"measure_cycles",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.measure_cycles = parse_int(k, v);
     }},
    {"sim.paranoid",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.sim_paranoid = parse_int(k, v);
     }},
    {"sim.kernel",
     [](SimConfig& c, const std::string&, const std::string& v) {
       c.kernel = sim_kernel_from_string(v);
     }},
    {"sim.shards",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.shards = parse_int(k, v);
     }},
    {"seed",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       std::size_t pos = 0;
       unsigned long long out = 0;
       try {
         out = std::stoull(v, &pos);  // throws out_of_range past 2^64
       } catch (const std::exception&) {
         pos = 0;
       }
       if (pos != v.size() || v.empty() ||
           v.find_first_not_of("0123456789") != std::string::npos) {
         throw std::invalid_argument(k + ": expected an unsigned 64-bit " +
                                     "integer, got \"" + v + "\"");
       }
       c.seed = static_cast<std::uint64_t>(out);
     }},
    // session lifecycle: adaptive stopping, scripted phases, drain, stream
    {"stop.mode",
     [](SimConfig& c, const std::string&, const std::string& v) {
       c.stop.mode = stop_mode_from_string(v);
     }},
    {"stop.rel_hw",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.stop.rel_hw = parse_double(k, v);
     }},
    {"stop.batches",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.stop.batches = parse_int(k, v);
     }},
    {"stop.batch_cycles",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.stop.batch_cycles = parse_int(k, v);
     }},
    {"phases",
     [](SimConfig& c, const std::string&, const std::string& v) {
       c.phase_script = parse_phase_script(v);
     }},
    {"drain.max_cycles",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.drain_max_cycles = parse_int(k, v);
     }},
    {"stream.interval",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.stream_interval = parse_int(k, v);
     }},
    // workload subsystem (src/workload)
    {"workload.mode",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.workload.mode = check_choice(k.c_str(), v, kWorkloadModes);
     }},
    {"workload.collective",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.workload.collective = check_choice(k.c_str(), v, kWorkloadCollectives);
     }},
    {"workload.participants",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.workload.participants = parse_int(k, v);
     }},
    {"workload.burst_cycles",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.workload.burst_cycles = parse_int(k, v);
     }},
    {"workload.idle_cycles",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.workload.idle_cycles = parse_int(k, v);
     }},
    {"workload.jobs",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.workload.jobs = parse_int(k, v);
     }},
    {"workload.arrival_cycles",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.workload.arrival_cycles = parse_int(k, v);
     }},
    {"workload.job_cycles",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.workload.job_cycles = parse_int(k, v);
     }},
    {"workload.job_routers",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.workload.job_routers = parse_int(k, v);
     }},
    {"workload.placement",
     [](SimConfig& c, const std::string& k, const std::string& v) {
       c.workload.placement = check_choice(k.c_str(), v, kWorkloadPlacements);
     }},
    {"workload.mix",
     [](SimConfig& c, const std::string&, const std::string& v) {
       (void)workload_mix_entries(v);  // fail on unknown names now
       c.workload.mix = v;
     }},
};

/// One-line descriptions for --list; kv_key_descriptions() asserts this
/// table covers every kKvEntries key, so adding a knob without its
/// description fails tests loudly.
struct KvDesc {
  const char* key;
  const char* desc;
};

constexpr KvDesc kKvDescs[] = {
    {"h", "balanced dragonfly radix: p=h, a=2h, a*h+1 groups"},
    {"p", "nodes per router (overrides the balanced preset)"},
    {"a", "routers per group (overrides the balanced preset)"},
    {"groups", "dragonfly group count (0 = a*h+1; 2..a*h trims the wiring)"},
    {"topology", "topology spec: dfly[:p,a,h[,G]] | flatbfly:k,n[,p]"},
    {"arrangement", "global-link arrangement registry name (dfly only)"},
    {"routing", "routing mechanism registry name"},
    {"traffic", "traffic pattern registry name"},
    {"local_latency", "local (intra-group) link latency, cycles"},
    {"global_latency", "global (inter-group) link latency, cycles"},
    {"pipeline_latency", "router pipeline depth, cycles"},
    {"packet_size", "packet size in phits"},
    {"output_queue_size", "per-output post-crossbar queue, phits"},
    {"local_input_buffer", "local/injection input buffer per VC, phits"},
    {"global_input_buffer", "global input buffer per VC, phits"},
    {"global_vcs", "virtual channels on global links"},
    {"local_vcs", "virtual channels on local links"},
    {"injection_vcs", "virtual channels on injection ports"},
    {"allocator_iterations", "separable-allocator iterations per cycle"},
    {"max_grants_per_output", "grants per output per cycle (2x speedup)"},
    {"max_grants_per_input", "grants per input per cycle (2x speedup)"},
    {"transit_priority", "transit-over-injection arbitration priority"},
    {"age_arbitration", "oldest-packet-first output arbitration"},
    {"intransit_threshold", "in-transit misroute congestion threshold"},
    {"pb_threshold_local", "PiggyBack saturation threshold, local links"},
    {"pb_threshold_global", "PiggyBack saturation threshold, global links"},
    {"adversarial_offset", "k of ADV+k: target group = own + k"},
    {"placement_first_group", "first group of the placement job"},
    {"placement_num_groups", "groups in the placement job (0 = h+1)"},
    {"shift_offset_nodes", "node shift k: dst = src + k (0 = one group)"},
    {"hotspot_fraction", "share of traffic aimed at the hot node"},
    {"hotspot_node", "destination node of the hotspot share"},
    {"load", "offered load, phits/(node*cycle); sweeps: a:b:step or x,y,z"},
    {"node_queue_capacity", "finite source queue, packets"},
    {"warmup_cycles", "cycles simulated before measurement starts"},
    {"measure_cycles", "measured window; the cap in stop.mode=ci"},
    {"seed", "root RNG seed (replicas derive from it)"},
    {"sim.kernel",
     "cycle kernel: active (active-set scheduling) | scan (dense "
     "reference; bit-identical)"},
    {"sim.paranoid", "check network invariants every N cycles (0 = off)"},
    {"sim.shards",
     "step the network in N parallel router shards (bit-identical; "
     "1 = serial)"},
    {"stop.mode", "fixed = exact window | ci = stop when CIs converge"},
    {"stop.rel_hw", "CI target: relative half-width of accepted/latency"},
    {"stop.batches", "minimum completed batches before testing the CI"},
    {"stop.batch_cycles", "batch-means batch length, cycles"},
    {"phases", "scripted Measure segments name:cycles[@load=X][@traffic=T]"},
    {"drain.max_cycles", "post-measure drain budget, cycles (0 = skip)"},
    {"stream.interval", "MetricTap sampling interval, cycles"},
    {"workload.mode",
     "workload driver: off | collective | bursty | churn"},
    {"workload.collective",
     "collective kind: ring | tree | alltoall | halo"},
    {"workload.participants", "collective ranks (0 = every node)"},
    {"workload.burst_cycles", "bursty: mean ON dwell, cycles"},
    {"workload.idle_cycles", "bursty: mean OFF dwell, cycles"},
    {"workload.jobs", "churn: maximum concurrent jobs"},
    {"workload.arrival_cycles", "churn: mean job inter-arrival gap, cycles"},
    {"workload.job_cycles", "churn: mean job lifetime, cycles"},
    {"workload.job_routers", "churn: routers per job (0 = one group)"},
    {"workload.placement", "churn job placement: contiguous | random"},
    {"workload.mix",
     "churn per-job mixes, cycled: uniform | ring | shift | hotspot"},
};

// --- canonical serialization (sweep-service cache keys) ----------------------

/// Fixed-format numeric renderers: every canonical value must serialize
/// identically on every platform and build, so the cache keys travel.
std::string canon_num(std::int64_t v) { return std::to_string(v); }

std::string canon_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string canon_bool(bool v) { return v ? "1" : "0"; }

std::string canon_phases(const std::vector<ScriptedSegment>& script) {
  std::string out;
  for (const ScriptedSegment& seg : script) {
    if (!out.empty()) out += ",";
    out += seg.name + ":" + canon_num(static_cast<std::int64_t>(seg.cycles));
    if (seg.load >= 0.0) out += "@load=" + canon_num(seg.load);
    if (!seg.traffic.empty()) out += "@traffic=" + seg.traffic;
  }
  return out;
}

/// Canonical value of every kv-table key. The topology keys normalize
/// through the resolved shape so spelling variants ("topology=dfly:2,4,2"
/// vs "p=2,a=4,h=2") serialize identically; custom families without a
/// cheap shape fall back to the resolved spec string and mark the
/// dragonfly fields not-applicable.
struct CanonEntry {
  const char* key;
  std::string (*value)(const SimConfig&);  ///< null for the shape fields
  int TopologyShape::*shape_field = nullptr;  ///< h/p/a/groups only
};

std::optional<TopologyShape> canon_shape(const SimConfig& c) {
  try {
    return try_topology_shape(c);
  } catch (const std::exception&) {
    // Malformed built-in args: fall back to the raw spelling below —
    // validate() rejects the config before anything caches it.
    return std::nullopt;
  }
}

const CanonEntry kCanonEntries[] = {
    {"topology",
     [](const SimConfig& c) {
       std::string family;
       try {
         family = topology_family(c);
       } catch (const std::exception&) {
         return c.topology;  // unknown family: raw spelling, fails validate()
       }
       // dfly args are fully absorbed by the shape entries below; other
       // families keep their full arg spelling (the shape alone may not
       // determine the wiring).
       return family == "dfly" ? std::string("dfly")
                               : (c.topology.empty() ? family : c.topology);
     }},
    {"h", nullptr, &TopologyShape::global_slots},
    {"p", nullptr, &TopologyShape::p},
    {"a", nullptr, &TopologyShape::a},
    {"groups", nullptr, &TopologyShape::groups},
    {"arrangement", [](const SimConfig& c) { return c.arrangement; }},
    {"routing", [](const SimConfig& c) { return c.routing_key(); }},
    {"traffic", [](const SimConfig& c) { return c.traffic_key(); }},
    {"local_latency",
     [](const SimConfig& c) {
       return canon_num(static_cast<std::int64_t>(c.local_latency));
     }},
    {"global_latency",
     [](const SimConfig& c) {
       return canon_num(static_cast<std::int64_t>(c.global_latency));
     }},
    {"pipeline_latency",
     [](const SimConfig& c) {
       return canon_num(static_cast<std::int64_t>(c.pipeline_latency));
     }},
    {"packet_size",
     [](const SimConfig& c) {
       return canon_num(static_cast<std::int64_t>(c.packet_size));
     }},
    {"output_queue_size",
     [](const SimConfig& c) {
       return canon_num(static_cast<std::int64_t>(c.output_queue_size));
     }},
    {"local_input_buffer",
     [](const SimConfig& c) {
       return canon_num(static_cast<std::int64_t>(c.local_input_buffer));
     }},
    {"global_input_buffer",
     [](const SimConfig& c) {
       return canon_num(static_cast<std::int64_t>(c.global_input_buffer));
     }},
    {"global_vcs",
     [](const SimConfig& c) {
       return canon_num(static_cast<std::int64_t>(c.global_vcs));
     }},
    {"local_vcs",
     [](const SimConfig& c) {
       return canon_num(static_cast<std::int64_t>(c.local_vcs));
     }},
    {"injection_vcs",
     [](const SimConfig& c) {
       return canon_num(static_cast<std::int64_t>(c.injection_vcs));
     }},
    {"allocator_iterations",
     [](const SimConfig& c) {
       return canon_num(static_cast<std::int64_t>(c.allocator_iterations));
     }},
    {"max_grants_per_output",
     [](const SimConfig& c) {
       return canon_num(static_cast<std::int64_t>(c.max_grants_per_output));
     }},
    {"max_grants_per_input",
     [](const SimConfig& c) {
       return canon_num(static_cast<std::int64_t>(c.max_grants_per_input));
     }},
    {"transit_priority",
     [](const SimConfig& c) { return canon_bool(c.transit_priority); }},
    {"age_arbitration",
     [](const SimConfig& c) { return canon_bool(c.age_arbitration); }},
    {"intransit_threshold",
     [](const SimConfig& c) { return canon_num(c.intransit_threshold); }},
    {"pb_threshold_local",
     [](const SimConfig& c) { return canon_num(c.pb_threshold_local); }},
    {"pb_threshold_global",
     [](const SimConfig& c) { return canon_num(c.pb_threshold_global); }},
    {"adversarial_offset",
     [](const SimConfig& c) {
       return canon_num(static_cast<std::int64_t>(c.adversarial_offset));
     }},
    {"placement_first_group",
     [](const SimConfig& c) {
       return canon_num(static_cast<std::int64_t>(c.placement_first_group));
     }},
    {"placement_num_groups",
     [](const SimConfig& c) {
       return canon_num(static_cast<std::int64_t>(c.placement_num_groups));
     }},
    {"shift_offset_nodes",
     [](const SimConfig& c) {
       return canon_num(static_cast<std::int64_t>(c.shift_offset_nodes));
     }},
    {"hotspot_fraction",
     [](const SimConfig& c) { return canon_num(c.hotspot_fraction); }},
    {"hotspot_node",
     [](const SimConfig& c) {
       return canon_num(static_cast<std::int64_t>(c.hotspot_node));
     }},
    {"load", [](const SimConfig& c) { return canon_num(c.load); }},
    {"node_queue_capacity",
     [](const SimConfig& c) {
       return canon_num(static_cast<std::int64_t>(c.node_queue_capacity));
     }},
    {"warmup_cycles",
     [](const SimConfig& c) {
       return canon_num(static_cast<std::int64_t>(c.warmup_cycles));
     }},
    {"measure_cycles",
     [](const SimConfig& c) {
       return canon_num(static_cast<std::int64_t>(c.measure_cycles));
     }},
    {"seed", [](const SimConfig& c) { return std::to_string(c.seed); }},
    {"sim.paranoid",
     [](const SimConfig& c) {
       return canon_num(static_cast<std::int64_t>(c.sim_paranoid));
     }},
    {"sim.kernel",
     [](const SimConfig& c) { return std::string(to_string(c.kernel)); }},
    {"sim.shards",
     [](const SimConfig& c) {
       return canon_num(static_cast<std::int64_t>(c.shards));
     }},
    {"stop.mode",
     [](const SimConfig& c) { return std::string(to_string(c.stop.mode)); }},
    {"stop.rel_hw",
     [](const SimConfig& c) { return canon_num(c.stop.rel_hw); }},
    {"stop.batches",
     [](const SimConfig& c) {
       return canon_num(static_cast<std::int64_t>(c.stop.batches));
     }},
    {"stop.batch_cycles",
     [](const SimConfig& c) {
       return canon_num(static_cast<std::int64_t>(c.stop.batch_cycles));
     }},
    {"phases", [](const SimConfig& c) { return canon_phases(c.phase_script); }},
    {"drain.max_cycles",
     [](const SimConfig& c) {
       return canon_num(static_cast<std::int64_t>(c.drain_max_cycles));
     }},
    {"stream.interval",
     [](const SimConfig& c) {
       return canon_num(static_cast<std::int64_t>(c.stream_interval));
     }},
    {"workload.mode", [](const SimConfig& c) { return c.workload.mode; }},
    {"workload.collective",
     [](const SimConfig& c) { return c.workload.collective; }},
    {"workload.participants",
     [](const SimConfig& c) {
       return canon_num(static_cast<std::int64_t>(c.workload.participants));
     }},
    {"workload.burst_cycles",
     [](const SimConfig& c) {
       return canon_num(static_cast<std::int64_t>(c.workload.burst_cycles));
     }},
    {"workload.idle_cycles",
     [](const SimConfig& c) {
       return canon_num(static_cast<std::int64_t>(c.workload.idle_cycles));
     }},
    {"workload.jobs",
     [](const SimConfig& c) {
       return canon_num(static_cast<std::int64_t>(c.workload.jobs));
     }},
    {"workload.arrival_cycles",
     [](const SimConfig& c) {
       return canon_num(static_cast<std::int64_t>(c.workload.arrival_cycles));
     }},
    {"workload.job_cycles",
     [](const SimConfig& c) {
       return canon_num(static_cast<std::int64_t>(c.workload.job_cycles));
     }},
    {"workload.job_routers",
     [](const SimConfig& c) {
       return canon_num(static_cast<std::int64_t>(c.workload.job_routers));
     }},
    {"workload.placement",
     [](const SimConfig& c) { return c.workload.placement; }},
    {"workload.mix",
     [](const SimConfig& c) {
       // Normalize the comma list (whitespace-insensitive spellings of
       // the same mix hash identically).
       std::string out;
       for (const std::string& entry : workload_mix_entries(c.workload.mix)) {
         if (!out.empty()) out += ",";
         out += entry;
       }
       return out;
     }},
};

/// Knobs a refinement request may change on a warm start (see
/// SimConfig::refinement_key).
constexpr const char* kRefinementKeys[] = {
    "measure_cycles", "stop.mode",       "stop.rel_hw",
    "stop.batches",   "stop.batch_cycles", "drain.max_cycles",
    "stream.interval", "sim.kernel",     "sim.shards",
    "sim.paranoid",
};

/// One kv-table key in canonical order: its serializer and whether
/// warm_hash() skips it.
struct CanonSlot {
  const CanonEntry* entry;
  bool refinement;
};

/// The kv table mapped onto kCanonEntries and sorted by key, built once.
/// Driven by the kv table, not by kCanonEntries, so a knob added to
/// kKvEntries without a canonical serializer fails loudly here — the
/// silent-cache-poisoning guard (a knob that changes results but not
/// the hash would alias distinct configs onto one cache entry). A
/// throwing initializer leaves the static unset, so the check re-runs
/// (and throws) on every call.
const std::vector<CanonSlot>& canon_order() {
  static const std::vector<CanonSlot> order = [] {
    std::vector<CanonSlot> slots;
    slots.reserve(std::size(kKvEntries));
    for (const KvEntry& entry : kKvEntries) {
      const CanonEntry* canon =
          std::find_if(std::begin(kCanonEntries), std::end(kCanonEntries),
                       [&](const CanonEntry& c) {
                         return std::strcmp(c.key, entry.key) == 0;
                       });
      if (canon == std::end(kCanonEntries)) {
        throw std::logic_error(std::string("config key \"") + entry.key +
                               "\" has no canonical serializer — add it to "
                               "kCanonEntries so the result cache can key on "
                               "it");
      }
      slots.push_back({canon, SimConfig::refinement_key(entry.key)});
    }
    std::sort(slots.begin(), slots.end(),
              [](const CanonSlot& x, const CanonSlot& y) {
                return std::strcmp(x.entry->key, y.entry->key) < 0;
              });
    return slots;
  }();
  return order;
}

/// Visit (slot, canonical value) for every kv key of `c` in key order.
/// The topology shape is resolved once and shared by h/p/a/groups.
template <class Visit>
void visit_canonical(const SimConfig& c, Visit&& visit) {
  const std::vector<CanonSlot>& order = canon_order();
  const std::optional<TopologyShape> shape = canon_shape(c);
  for (const CanonSlot& slot : order) {
    const CanonEntry& e = *slot.entry;
    if (e.shape_field == nullptr) {
      visit(slot, e.value(c));
    } else {
      visit(slot, shape ? canon_num(static_cast<std::int64_t>(
                              (*shape).*e.shape_field))
                        : std::string("-"));
    }
  }
}

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

std::uint64_t fnv1a64(std::uint64_t h, std::string_view s) {
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Fold one "key=value\n" canonical line into an FNV-1a state.
std::uint64_t fold_entry(std::uint64_t h, std::string_view key,
                         std::string_view value) {
  h = fnv1a64(h, key);
  h = fnv1a64(h, "=");
  h = fnv1a64(h, value);
  return fnv1a64(h, "\n");
}

std::string hex16(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string joined_kv_keys() {
  std::string out;
  for (const std::string& key : SimConfig::kv_keys()) {
    if (!out.empty()) out += " ";
    out += key;
  }
  return out;
}

}  // namespace

bool SimConfig::try_apply_kv(const std::string& key,
                             const std::string& value) {
  for (const KvEntry& entry : kKvEntries) {
    if (key == entry.key) {
      entry.apply(*this, key, value);
      return true;
    }
  }
  return false;
}

void SimConfig::apply_kv(const std::string& key, const std::string& value) {
  if (!try_apply_kv(key, value)) {
    throw std::invalid_argument("unknown config key \"" + key +
                                "\"; valid keys: " + joined_kv_keys());
  }
}

SimConfig SimConfig::from_kv(std::span<const std::string> overrides) {
  SimConfig cfg;
  for (const std::string& item : overrides) {
    const auto [key, value] = split_kv(item);
    cfg.apply_kv(key, value);
  }
  if (!cfg.vcs_explicit) cfg.apply_vc_defaults();
  return cfg;
}

std::vector<std::string> SimConfig::kv_keys() {
  std::vector<std::string> keys;
  keys.reserve(std::size(kKvEntries));
  for (const KvEntry& entry : kKvEntries) keys.emplace_back(entry.key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<std::pair<std::string, std::string>>
SimConfig::kv_key_descriptions() {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(std::size(kKvEntries));
  for (const KvEntry& entry : kKvEntries) {
    const char* desc = nullptr;
    for (const KvDesc& d : kKvDescs) {
      if (std::string(d.key) == entry.key) {
        desc = d.desc;
        break;
      }
    }
    if (desc == nullptr) {
      throw std::logic_error(std::string("config key \"") + entry.key +
                             "\" has no --list description");
    }
    out.emplace_back(entry.key, desc);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<std::string, std::string>> SimConfig::canonical_kv()
    const {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(std::size(kKvEntries));
  visit_canonical(*this, [&](const CanonSlot& slot, std::string value) {
    out.emplace_back(slot.entry->key, std::move(value));
  });
  return out;
}

std::string SimConfig::canonical_hash() const {
  return canonical_hashes().hash;
}

bool SimConfig::refinement_key(const std::string& key) {
  for (const char* k : kRefinementKeys) {
    if (key == k) return true;
  }
  return false;
}

std::string SimConfig::warm_hash() const {
  return canonical_hashes().warm_hash;
}

SimConfig::CanonicalHashes SimConfig::canonical_hashes() const {
  // One canonical pass feeds both FNV-1a states; the warm one skips the
  // refinement keys.
  std::uint64_t full = kFnvOffset;
  std::uint64_t warm = kFnvOffset;
  visit_canonical(*this, [&](const CanonSlot& slot, const std::string& value) {
    full = fold_entry(full, slot.entry->key, value);
    if (!slot.refinement) warm = fold_entry(warm, slot.entry->key, value);
  });
  return {hex16(full), hex16(warm)};
}

std::string SimConfig::warm_incompatibility(const SimConfig& refined) const {
  const auto mine = canonical_kv();
  const auto theirs = refined.canonical_kv();
  // Same kv table on both sides, sorted by key: walk in lockstep.
  for (std::size_t i = 0; i < mine.size(); ++i) {
    if (refinement_key(mine[i].first)) continue;
    if (mine[i].second != theirs[i].second) {
      return "knob \"" + mine[i].first + "\" is \"" + mine[i].second +
             "\" in the warm-start checkpoint but \"" + theirs[i].second +
             "\" in the request; only the measurement window and stop rule "
             "may differ on a warm start";
    }
  }
  return "";
}

void SimConfig::apply_refinements(const SimConfig& refined) {
  measure_cycles = refined.measure_cycles;
  stop = refined.stop;
  drain_max_cycles = refined.drain_max_cycles;
  stream_interval = refined.stream_interval;
  kernel = refined.kernel;
  shards = refined.shards;
  sim_paranoid = refined.sim_paranoid;
}

std::vector<ScriptedSegment> parse_phase_script(const std::string& text) {
  std::vector<ScriptedSegment> script;
  std::string item;
  std::istringstream is(text);
  while (std::getline(is, item, ',')) {
    const auto from = item.find_first_not_of(" \t");
    if (from == std::string::npos) continue;
    const auto to = item.find_last_not_of(" \t");
    item = item.substr(from, to - from + 1);

    // Split "name:cycles[@k=v]..." on '@'.
    std::vector<std::string> parts;
    std::string part;
    std::istringstream ps(item);
    while (std::getline(ps, part, '@')) parts.push_back(part);
    if (parts.empty() || parts[0].empty()) {
      throw std::invalid_argument("phases: empty segment in \"" + text +
                                  "\"");
    }
    const std::size_t colon = parts[0].find(':');
    if (colon == std::string::npos) {
      throw std::invalid_argument(
          "phases: segment must be name:cycles[@key=value], got \"" + item +
          "\"");
    }
    ScriptedSegment seg;
    seg.name = parts[0].substr(0, colon);
    seg.cycles = parse_int("phases: \"" + seg.name + "\" cycles",
                           parts[0].substr(colon + 1));
    for (std::size_t i = 1; i < parts.size(); ++i) {
      const auto [key, value] = split_kv(parts[i]);
      if (key == "load") {
        seg.load = parse_double("phases: \"" + seg.name + "\" load", value);
      } else if (key == "traffic") {
        seg.traffic = traffic_registry().resolve(value);
      } else {
        throw std::invalid_argument("phases: segment \"" + seg.name +
                                    "\" has unknown mutation \"" + key +
                                    "\"; valid: load traffic");
      }
    }
    script.push_back(std::move(seg));
  }
  return script;
}

void SimConfig::write_to(CheckpointWriter& ck) const {
  ck.tag("SimConfig");
  ck.str(topology);
  ck.i32(topo.p);
  ck.i32(topo.a);
  ck.i32(topo.h);
  ck.i32(topo.g);
  ck.str(arrangement);
  ck.boolean(arrangement_explicit);
  ck.i64(local_latency);
  ck.i64(global_latency);
  ck.i32(pipeline_latency);
  ck.i32(packet_size);
  ck.i32(output_queue_size);
  ck.i32(local_input_buffer);
  ck.i32(global_input_buffer);
  ck.i32(global_vcs);
  ck.i32(local_vcs);
  ck.i32(injection_vcs);
  ck.i32(allocator_iterations);
  ck.i32(max_grants_per_output);
  ck.i32(max_grants_per_input);
  ck.boolean(transit_priority);
  ck.boolean(age_arbitration);
  ck.f64(intransit_threshold);
  ck.f64(pb_threshold_local);
  ck.f64(pb_threshold_global);
  ck.str(routing_name);
  ck.str(traffic_name);
  ck.u8(static_cast<std::uint8_t>(routing));
  ck.u8(static_cast<std::uint8_t>(traffic));
  ck.i32(adversarial_offset);
  ck.i32(placement_first_group);
  ck.i32(placement_num_groups);
  ck.i32(shift_offset_nodes);
  ck.f64(hotspot_fraction);
  ck.i32(hotspot_node);
  ck.f64(load);
  ck.i32(node_queue_capacity);
  ck.i64(warmup_cycles);
  ck.i64(measure_cycles);
  ck.u64(seed);
  ck.i32(sim_paranoid);
  ck.u8(static_cast<std::uint8_t>(kernel));
  ck.i32(shards);
  ck.u8(static_cast<std::uint8_t>(stop.mode));
  ck.f64(stop.rel_hw);
  ck.i32(stop.batches);
  ck.i64(stop.batch_cycles);
  ck.vec(phase_script, [&](const ScriptedSegment& seg) {
    ck.str(seg.name);
    ck.i64(seg.cycles);
    ck.f64(seg.load);
    ck.str(seg.traffic);
  });
  ck.i64(drain_max_cycles);
  ck.i64(stream_interval);
  ck.boolean(vcs_explicit);
  ck.boolean(topo_p_explicit);
  ck.boolean(topo_a_explicit);
  ck.boolean(topo_g_explicit);
  // workload subsystem (appended in checkpoint format v5)
  ck.str(workload.mode);
  ck.str(workload.collective);
  ck.i32(workload.participants);
  ck.i64(workload.burst_cycles);
  ck.i64(workload.idle_cycles);
  ck.i32(workload.jobs);
  ck.i64(workload.arrival_cycles);
  ck.i64(workload.job_cycles);
  ck.i32(workload.job_routers);
  ck.str(workload.placement);
  ck.str(workload.mix);
}

void SimConfig::read_from(CheckpointReader& ck) {
  ck.tag("SimConfig");
  topology = ck.str();
  topo.p = ck.i32();
  topo.a = ck.i32();
  topo.h = ck.i32();
  topo.g = ck.i32();
  arrangement = ck.str();
  arrangement_explicit = ck.boolean();
  local_latency = ck.i64();
  global_latency = ck.i64();
  pipeline_latency = ck.i32();
  packet_size = ck.i32();
  output_queue_size = ck.i32();
  local_input_buffer = ck.i32();
  global_input_buffer = ck.i32();
  global_vcs = ck.i32();
  local_vcs = ck.i32();
  injection_vcs = ck.i32();
  allocator_iterations = ck.i32();
  max_grants_per_output = ck.i32();
  max_grants_per_input = ck.i32();
  transit_priority = ck.boolean();
  age_arbitration = ck.boolean();
  intransit_threshold = ck.f64();
  pb_threshold_local = ck.f64();
  pb_threshold_global = ck.f64();
  routing_name = ck.str();
  traffic_name = ck.str();
  routing = static_cast<RoutingKind>(ck.u8());
  traffic = static_cast<TrafficKind>(ck.u8());
  adversarial_offset = ck.i32();
  placement_first_group = ck.i32();
  placement_num_groups = ck.i32();
  shift_offset_nodes = ck.i32();
  hotspot_fraction = ck.f64();
  hotspot_node = ck.i32();
  load = ck.f64();
  node_queue_capacity = ck.i32();
  warmup_cycles = ck.i64();
  measure_cycles = ck.i64();
  seed = ck.u64();
  sim_paranoid = ck.i32();
  kernel = static_cast<SimKernel>(ck.u8());
  shards = ck.i32();
  stop.mode = static_cast<StopMode>(ck.u8());
  stop.rel_hw = ck.f64();
  stop.batches = ck.i32();
  stop.batch_cycles = ck.i64();
  ck.vec(phase_script, [&] {
    ScriptedSegment seg;
    seg.name = ck.str();
    seg.cycles = ck.i64();
    seg.load = ck.f64();
    seg.traffic = ck.str();
    return seg;
  });
  drain_max_cycles = ck.i64();
  stream_interval = ck.i64();
  vcs_explicit = ck.boolean();
  topo_p_explicit = ck.boolean();
  topo_a_explicit = ck.boolean();
  topo_g_explicit = ck.boolean();
  workload.mode = ck.str();
  workload.collective = ck.str();
  workload.participants = ck.i32();
  workload.burst_cycles = ck.i64();
  workload.idle_cycles = ck.i64();
  workload.jobs = ck.i32();
  workload.arrival_cycles = ck.i64();
  workload.job_cycles = ck.i64();
  workload.job_routers = ck.i32();
  workload.placement = ck.str();
  workload.mix = ck.str();
}

std::pair<std::string, std::string> split_kv(const std::string& item) {
  const std::size_t eq = item.find('=');
  if (eq == std::string::npos) {
    throw std::invalid_argument("expected key=value, got \"" + item + "\"");
  }
  auto trim = [](std::string s) {
    const auto from = s.find_first_not_of(" \t");
    const auto to = s.find_last_not_of(" \t");
    return from == std::string::npos ? std::string()
                                     : s.substr(from, to - from + 1);
  };
  return {trim(item.substr(0, eq)), trim(item.substr(eq + 1))};
}

}  // namespace dragonfly
