// The simulating workload, paper-h6.
//
// A round runs every point of the workload once, serially, through the
// public lifecycle a researcher's sweep uses: ExperimentSpec items ->
// finalize -> TopologyCache -> Session phases -> collect ->
// ResultWriter row. Rounds repeat the same inputs, so every round after
// the first must reproduce the first round's rows exactly.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <span>

#include "core/api.hpp"
#include "topology/topology_cache.hpp"
#include "sim_point.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace df = dragonfly;

df::SimConfig parse_point(const PointInput& in, Tracer& tr) {
  df::ExperimentSpec spec;
  {
    Scope s(tr, "core.spec_parse");
    for (const std::string& item : in.items) spec.apply_kv_line(item);
  }
  {
    Scope s(tr, "config.validate");
    spec.finalize();
  }
  return spec.base;
}

PointRun run_point(const PointInput& in, df::TopologyCache& cache,
                   Tracer& tr) {
  PointRun out;
  Scope point(tr, "point");
  const double t0 = now_s();
  out.cfg = parse_point(in, tr);
  std::shared_ptr<const df::Topology> topo;
  {
    Scope s(tr, "topology.acquire");
    topo = cache.acquire(out.cfg);
  }
  std::unique_ptr<df::Session> session;
  {
    Scope s(tr, "sim.session_build");
    session = std::make_unique<df::Session>(out.cfg, topo);
  }
  const double c0 = cpu_s();
  const double s0 = now_s();
  {
    Scope s(tr, "sim.warmup");
    session->advance_to(df::SessionPhase::kMeasure);
  }
  const double t_measure = now_s();
  {
    Scope s(tr, "sim.measure");
    session->advance_to(df::SessionPhase::kDrain);
  }
  {
    Scope s(tr, "sim.drain");
    session->advance_to(df::SessionPhase::kDone);
  }
  const double t_done = now_s();
  out.step_s = t_done - s0;
  out.step_cpu_s = cpu_s() - c0;
  {
    Scope s(tr, "sim.collect");
    out.result = session->collect();
  }
  {
    Scope s(tr, "core.render_row");
    const df::AveragedResult avg =
        df::average_results(std::span<const df::SimResult>(&out.result, 1));
    out.row = df::ResultWriter::csv_row(in.label, avg);
  }
  const double t1 = now_s();
  out.miss_s = t1 - t0;
  out.refine_s = t1 - t_measure;
  out.hit_s = t1 - t_done;

  const df::Network& net = session->network();
  out.routers = net.num_routers();
  out.cycles = session->now();
  out.generated = net.generated_packets_total();
  out.delivered = net.collector().delivered_packets_total();
  out.events = net.dispatched_events();
  out.gen_nodes = net.generating_nodes();
  out.fairness_n = net.measured_injection_counts().size();
  out.groups = net.topology().num_groups();
  return out;
}

namespace {

constexpr int kSetups = 25;  ///< set-ups per run; setup_s is their median
/// Latency samples every run collects at least: forty, so the tail is a
/// percentile with ten samples beyond it.
constexpr std::size_t kMinSamples = 40;

int min_rounds(std::size_t points) {
  return static_cast<int>((kMinSamples + points - 1) / points);
}

std::string fmt(const char* format, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof buf, format, a, b);
  return buf;
}

/// Accepted load is a window average of Bernoulli arrivals, so it may
/// exceed the offered load by sampling noise: allow five standard
/// deviations of the expected packet count N, i.e. a factor 1 + 5/sqrt(N).
double noise_factor(double offered, double nodes, double cycles,
                    int packet_size) {
  const double n = offered * nodes * cycles / packet_size;
  return n > 0.0 ? 1.0 + 5.0 / std::sqrt(n) : 1e9;
}

/// The checks every simulated point must pass, whatever the workload.
std::string check_common(const PointRun& r) {
  const df::SimResult& s = r.result;
  if (r.delivered > r.generated) {
    return fmt("delivered %.0f packets > generated %.0f",
               static_cast<double>(r.delivered),
               static_cast<double>(r.generated));
  }
  // Collectives send directed messages whatever the offered load is.
  const bool open_loop = r.cfg.workload.mode != "collective";
  const double limit =
      s.offered_load * noise_factor(s.offered_load, r.gen_nodes,
                                    static_cast<double>(s.measured_cycles),
                                    r.cfg.packet_size);
  if (open_loop && s.accepted_load > limit) {
    return fmt("accepted %.6f > offered bound %.6f", s.accepted_load, limit);
  }
  if (!std::isfinite(s.avg_latency) || s.delivered_packets <= 0) {
    return "no packet delivered in the measured window";
  }
  return "";
}

bool jain_in_range(double jain, std::size_t n) {
  if (n == 0) return true;
  const double lo = 1.0 / static_cast<double>(n);
  return jain >= lo - 1e-9 && jain <= 1.0 + 1e-9;
}

struct SimPlan {
  std::vector<PointInput> points;
  /// Workload-specific checks of point `index`; "" = passed.
  std::function<std::string(std::size_t, const PointRun&)> check;
};

struct Measured {
  std::vector<double> setups;
  std::vector<double> walls;  ///< untraced rounds
  std::vector<double> traced_walls;
  std::vector<double> rates;  ///< router-cycles per stepping second, per round
  std::vector<double> miss, refine, hit;
  std::vector<PointRun> first;  ///< round 1, in point order
  df::TopologyCache::Stats topo;
  int rounds = 0;
};

/// Set up kSetups times, then run rounds for about `opts.seconds` (see
/// keep_going), at least min_rounds() of them. With a `traced` tracer,
/// every second round records spans into it and the minimum doubles, so
/// traced and untraced rounds see the same host conditions.
Measured measure(const SimPlan& plan, const Options& opts, Tracer* traced,
                 Report& rep) {
  Tracer off(false);
  Tracer& setup_tr = traced != nullptr ? *traced : off;
  Measured m;
  // Every point steps on this thread (sim.shards=1).
  CpuRotation rotation;
  std::unique_ptr<df::TopologyCache> cache;
  for (int i = 0; i < kSetups; ++i) {
    // From the first spec item to the first simulated cycle, over a
    // fresh topology cache (the last one serves the rounds).
    rotation.pin(static_cast<std::size_t>(i));
    cache = std::make_unique<df::TopologyCache>();
    const double t0 = now_s();
    const df::SimConfig cfg = parse_point(plan.points.front(), setup_tr);
    std::shared_ptr<const df::Topology> topo;
    {
      Scope s(setup_tr, "topology.build");
      topo = cache->acquire(cfg);
    }
    df::Session session(cfg, topo);
    session.step(1);
    m.setups.push_back(now_s() - t0);
  }

  const int least =
      min_rounds(plan.points.size()) * (traced != nullptr ? 2 : 1);
  const double start = now_s();
  int request = 0;
  double last = 0.0;
  while (m.rounds < least || keep_going(now_s() - start, last, opts.seconds)) {
    // A traced round runs on the same CPU as the untraced one before it.
    rotation.pin(static_cast<std::size_t>(
        traced != nullptr ? m.rounds / 2 : m.rounds));
    const bool tracing = traced != nullptr && m.rounds % 2 == 1;
    Tracer& tr = tracing ? *traced : off;
    const double r0 = now_s();
    double step_s = 0.0;
    double router_cycles = 0.0;
    std::vector<PointRun> runs;
    for (std::size_t i = 0; i < plan.points.size(); ++i) {
      tr.set_request(request++);
      PointRun run;
      std::string why;
      try {
        run = run_point(plan.points[i], *cache, tr);
        why = check_common(run);
        if (why.empty()) why = plan.check(i, run);
        if (why.empty() && m.rounds > 0 && run.row != m.first[i].row) {
          why = "row differs from round 1 for identical inputs";
        }
      } catch (const std::exception& e) {
        why = std::string("exception: ") + e.what();
      }
      rep.op(why.empty(), plan.points[i].label + ": " + why);
      step_s += run.step_s;
      router_cycles += static_cast<double>(run.routers * run.cycles);
      m.miss.push_back(run.miss_s);
      m.refine.push_back(run.refine_s);
      m.hit.push_back(run.hit_s);
      runs.push_back(std::move(run));
    }
    last = now_s() - r0;
    (tracing ? m.traced_walls : m.walls).push_back(last);
    m.rates.push_back(step_s > 0.0 ? router_cycles / step_s : 0.0);
    if (m.rounds == 0) m.first = std::move(runs);
    ++m.rounds;
  }
  m.topo = cache->stats();
  return m;
}

void add_end_to_end(Report& rep, const Measured& m, std::size_t points) {
  const double tail =
      tail_quantile(points * static_cast<std::size_t>(min_rounds(points)));
  rep.e2e("setup_s", median(m.setups), "s");
  rep.e2e("wall_s", median(m.walls), "s");
  rep.e2e("peak_rss_mb", peak_rss_mib(), "MiB");
  rep.e2e("router_cycles_per_s", median(m.rates), "1/s");
  rep.e2e("miss_p50_ms", 1e3 * median(m.miss), "ms");
  rep.e2e("miss_tail_ms", 1e3 * quantile(m.miss, tail), "ms");
  rep.e2e("refine_p50_ms", 1e3 * median(m.refine), "ms");
  rep.e2e("hit_p50_ms", 1e3 * median(m.hit), "ms");
  rep.e2e("hit_tail_ms", 1e3 * quantile(m.hit, tail), "ms");
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "rounds=%d points/round=%zu latency samples=%zu "
                "tail=p%.0f",
                m.rounds, points, m.miss.size(), 100.0 * tail);
  rep.note(buf);
  std::string walls = "round wall_s:";
  for (const double w : m.walls) {
    std::snprintf(buf, sizeof buf, " %.3f", w);
    walls += buf;
  }
  rep.note(walls);
}

void add_layer_counts(Report& rep, const Measured& m) {
  double cycles = 0, rc = 0, gen = 0, del = 0, ev = 0, step = 0, cpu = 0;
  for (const PointRun& r : m.first) {
    cycles += static_cast<double>(r.cycles);
    rc += static_cast<double>(r.routers * r.cycles);
    gen += static_cast<double>(r.generated);
    del += static_cast<double>(r.delivered);
    ev += static_cast<double>(r.events);
    step += r.step_s;
    cpu += r.step_cpu_s;
  }
  rep.layer("sim.cycles", cycles, "count");
  rep.layer("sim.router_cycles", rc, "count");
  rep.layer("sim.packets_generated", gen, "count");
  rep.layer("sim.packets_delivered", del, "count");
  rep.layer("sim.events_dispatched", ev, "count");
  rep.layer("sim.step_ns_per_router_cycle", rc > 0 ? 1e9 * step / rc : 0.0,
            "ns");
  rep.layer("sim.cpu_per_wall", step > 0 ? cpu / step : 0.0, "ratio");
  rep.layer("topology.cache_hits", static_cast<double>(m.topo.hits), "count");
  rep.layer("topology.cache_misses", static_cast<double>(m.topo.misses),
            "count");
}

/// The end-to-end metrics, or with opts.trace the per-layer metrics of
/// the traced rounds and the tracing overhead.
Measured measure_and_report(const SimPlan& plan, const Options& opts,
                            Report& rep) {
  if (!opts.trace) {
    Measured m = measure(plan, opts, nullptr, rep);
    add_end_to_end(rep, m, plan.points.size());
    return m;
  }
  Tracer tracer(true);
  Measured m = measure(plan, opts, &tracer, rep);
  const double overhead = median(m.traced_walls) - median(m.walls);
  rep.layer("trace.overhead_s", overhead, "s");
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "tracing overhead: traced wall_s %.4f - untraced %.4f = %.4f s",
                median(m.traced_walls), median(m.walls), overhead);
  rep.note(buf);
  add_span_metrics(rep, tracer);
  add_layer_counts(rep, m);
  add_layer_table(rep, tracer);
  if (!opts.trace_out.empty()) tracer.write(opts.trace_out);
  return m;
}

std::string seed_item(std::uint64_t seed, std::size_t index) {
  return "seed=" + std::to_string(mix_seed(seed, index) % 1000000007ULL);
}

// --- paper-h6 ---------------------------------------------------------------

struct PaperPoint {
  const char* routing;
  const char* traffic;
  double load;
  int warmup;
  int measure;
};

// In-transit adaptive par-mm and oblivious Valiant (val-rrg) at h=6,
// below saturation (0.1; par-mm also uniform 0.5) and, for ADVc, past it
// (0.5: par-mm saturates near 0.45 and val-rrg near 0.2 under ADVc). An
// odd number of points puts the median point latency inside one point's
// samples instead of between two points' extremes. Low-load windows are long
// enough (>= 65k packets) for the 2% throughput check to sit beyond
// five standard deviations of sampling noise; they drain afterwards,
// which is cheap at low load and exercises the Drain phase.
constexpr PaperPoint kPaperPoints[] = {
    {"par-mm", "uniform", 0.1, 300, 1000},
    {"par-mm", "uniform", 0.5, 200, 300},
    {"par-mm", "advc", 0.1, 300, 600},
    {"par-mm", "advc", 0.5, 200, 200},
    {"val-rrg", "uniform", 0.1, 300, 1000},
    {"val-rrg", "advc", 0.1, 300, 600},
    {"val-rrg", "advc", 0.5, 200, 200},
};
constexpr double kPaperLowest = 0.1;
/// The point the reduced reference run is cut from (par-mm, ADVc 0.5).
constexpr std::size_t kReducedBase = 3;

std::vector<PointInput> paper_inputs(std::uint64_t seed, int shards,
                                     const char* kernel) {
  std::vector<PointInput> out;
  std::size_t index = 0;
  for (const PaperPoint& p : kPaperPoints) {
    PointInput in;
    in.label = std::string(p.routing) + "/" + p.traffic;
    char load[32];
    std::snprintf(load, sizeof load, "load=%g", p.load);
    in.items = {"h=6",
                std::string("routing=") + p.routing,
                std::string("traffic=") + p.traffic,
                load,
                "warmup_cycles=" + std::to_string(p.warmup),
                "measure_cycles=" + std::to_string(p.measure),
                p.load <= kPaperLowest ? "drain.max_cycles=400"
                                       : "drain.max_cycles=0",
                seed_item(seed, index++),
                "sim.shards=" + std::to_string(shards),
                std::string("sim.kernel=") + kernel};
    out.push_back(std::move(in));
  }
  return out;
}

std::string check_paper(std::size_t index, const PointRun& r) {
  const PaperPoint& p = kPaperPoints[index];
  const df::SimResult& s = r.result;
  if (std::string(p.traffic) == "uniform" && p.load <= kPaperLowest &&
      std::fabs(s.accepted_load - s.offered_load) > 0.02 * s.offered_load) {
    return fmt("lowest uniform load: accepted %.6f not within 2%% of %.3f",
               s.accepted_load, s.offered_load);
  }
  if (std::string(p.traffic) == "advc" && std::string(p.routing) == "par-mm" &&
      p.load > kPaperLowest && !(s.fairness.max_over_min > 1.0)) {
    return fmt("par-mm/advc past the lowest load: Max/Min %.4f (load %.2f) "
               "shows no unfairness",
               s.fairness.max_over_min, p.load);
  }
  return "";
}

/// Rows of `inputs` run once, untimed, through a private cache.
std::vector<PointRun> reference_round(const std::vector<PointInput>& inputs) {
  Tracer off(false);
  df::TopologyCache cache;
  std::vector<PointRun> out;
  for (const PointInput& in : inputs) out.push_back(run_point(in, cache, off));
  return out;
}

// --- workload layer at h=6 --------------------------------------------------

struct WorkloadPoint {
  const char* label;
  const char* mode;    ///< churn | collective
  const char* detail;  ///< placement (churn) or collective kind
  const char* mix;     ///< churn tenant mixes, cycled by job index
  int participants;    ///< collective ranks
};

// The workload layer on the same h=6 machine: two churn runs (contiguous
// and random placement, five one-group tenants cycling the four rank-space
// mixes from different starting points) and two allreduce runs (a ring
// over 96 ranks, a tree over 400). Arrivals come faster than short
// lifetimes end, so the machine stays at five tenants and the traffic
// volume hardly depends on the seed.
constexpr WorkloadPoint kWorkloadPoints[] = {
    {"churn-contiguous", "churn", "workload.placement=contiguous",
     "workload.mix=uniform,shift,ring,hotspot", 0},
    {"churn-random", "churn", "workload.placement=random",
     "workload.mix=hotspot,ring,shift,uniform", 0},
    {"allreduce-ring-96", "collective", "workload.collective=ring", "", 96},
    {"allreduce-tree-400", "collective", "workload.collective=tree", "", 400},
};

std::vector<PointInput> workload_inputs(std::uint64_t seed, int shards) {
  std::vector<PointInput> out;
  std::size_t index = std::size(kPaperPoints);
  for (const WorkloadPoint& p : kWorkloadPoints) {
    PointInput in;
    in.label = p.label;
    in.items = {"h=6", "routing=par-mm", "traffic=uniform",
                std::string("workload.mode=") + p.mode, p.detail};
    if (std::string(p.mode) == "churn") {
      for (const char* item :
           {p.mix, "load=0.5", "workload.jobs=5", "workload.arrival_cycles=20",
            "workload.job_cycles=300", "warmup_cycles=500",
            "measure_cycles=5000"}) {
        in.items.emplace_back(item);
      }
    } else {
      in.items.push_back("workload.participants=" +
                         std::to_string(p.participants));
      in.items.emplace_back("warmup_cycles=200");
      in.items.emplace_back("measure_cycles=6000");
    }
    in.items.push_back(seed_item(seed, index++));
    in.items.push_back("sim.shards=" + std::to_string(shards));
    out.push_back(std::move(in));
  }
  return out;
}

std::string check_workload(const WorkloadPoint& p, const PointRun& r) {
  const df::SimResult& s = r.result;
  if (!jain_in_range(s.fairness.jain, r.fairness_n)) {
    return fmt("router Jain %.6f outside [1/n, 1], n=%.0f", s.fairness.jain,
               static_cast<double>(r.fairness_n));
  }
  if (!jain_in_range(s.jain_groups, static_cast<std::size_t>(r.groups))) {
    return fmt("group Jain %.6f outside [1/n, 1], n=%.0f", s.jain_groups,
               r.groups);
  }
  if (s.jobs.empty()) return "no job recorded";
  if (!jain_in_range(s.jain_jobs, s.jobs.size())) {
    return fmt("job Jain %.6f outside [1/n, 1], n=%.0f", s.jain_jobs,
               static_cast<double>(s.jobs.size()));
  }
  std::int64_t job_delivered = 0;
  const double win_begin = static_cast<double>(r.cfg.warmup_cycles);
  const double win_end = win_begin + static_cast<double>(s.measured_cycles);
  for (const df::JobResult& j : s.jobs) {
    job_delivered += j.delivered_packets;
    if (std::string(p.mode) != "churn") continue;
    // A job's window deliveries were generated in its overlap with the
    // window, stretched back by the longest latency seen.
    const double b = std::max(static_cast<double>(j.start), win_begin);
    const double e =
        j.end < 0 ? win_end : std::min(static_cast<double>(j.end), win_end);
    if (e <= b) continue;
    const double gen_cycles = (e - b) + j.max_latency;
    const double limit = r.cfg.load * gen_cycles / (e - b) *
                         noise_factor(r.cfg.load, j.nodes, gen_cycles,
                                      r.cfg.packet_size);
    if (j.accepted_load > limit) {
      return fmt("job accepted %.6f > offered bound %.6f", j.accepted_load,
                 limit);
    }
  }
  if (job_delivered > s.delivered_packets) {
    return fmt("per-job delivered %.0f > total delivered %.0f",
               static_cast<double>(job_delivered),
               static_cast<double>(s.delivered_packets));
  }
  if (std::string(p.mode) == "collective") {
    const df::JobResult& j = s.jobs.front();
    if (j.iterations < 1) return "collective completed no iteration";
    const double floor_cycles = 2.0 * (p.participants - 1);
    if (std::string(p.detail) == "workload.collective=ring" &&
        j.mean_iteration_cycles < floor_cycles) {
      return fmt("ring allreduce iteration %.1f cycles < 2(P-1) = %.0f",
                 j.mean_iteration_cycles, floor_cycles);
    }
  }
  return "";
}

/// Checks of point `index` of the paper-h6 round: the paper points first,
/// then the workload points.
std::string check_point(std::size_t index, const PointRun& r) {
  constexpr std::size_t paper = std::size(kPaperPoints);
  return index < paper ? check_paper(index, r)
                       : check_workload(kWorkloadPoints[index - paper], r);
}

}  // namespace

Report run_paper(const Options& opts) {
  Report rep;
  SimPlan plan;
  plan.points = paper_inputs(opts.seed, 1, "active");
  for (PointInput& in : workload_inputs(opts.seed, 1)) {
    plan.points.push_back(std::move(in));
  }
  plan.check = check_point;
  const Measured m = measure_and_report(plan, opts, rep);

  double speedup = 0.0;
  {
    // Dense-scan reference: one reduced ADVc point under the measured
    // active-set kernel, the scan kernel and two shards must agree byte
    // for byte.
    std::vector<PointInput> reduced;
    for (const char* variant : {"active", "scan", "sharded"}) {
      const bool sharded = std::string(variant) == "sharded";
      PointInput in = paper_inputs(opts.seed, sharded ? 2 : 1,
                                   sharded ? "active" : variant)[kReducedBase];
      in.items.push_back("load=0.3");
      in.items.push_back("warmup_cycles=100");
      in.items.push_back("measure_cycles=100");
      reduced.push_back(std::move(in));
    }
    std::string why;
    try {
      const std::vector<PointRun> runs = reference_round(reduced);
      if (runs[1].row != runs[0].row) why = "scan kernel row differs";
      if (runs[2].row != runs[0].row) why = "sim.shards=2 row differs";
      if (runs[2].step_s > 0.0) speedup = runs[0].step_s / runs[2].step_s;
    } catch (const std::exception& e) {
      why = std::string("exception: ") + e.what();
    }
    rep.op(why.empty(), "reduced point vs scan reference: " + why);
  }
  {
    // The first churn run re-run at sim.shards=2 must be byte-identical.
    const std::size_t churn = std::size(kPaperPoints);
    std::string why;
    try {
      const std::vector<PointRun> runs =
          reference_round({workload_inputs(opts.seed, 2)[0]});
      if (runs[0].row != m.first[churn].row) {
        why = "churn row at sim.shards=2 differs from sim.shards=1";
      }
    } catch (const std::exception& e) {
      why = std::string("exception: ") + e.what();
    }
    rep.op(why.empty(), "churn shards=2 re-run: " + why);
  }

  if (opts.trace) {
    rep.layer("sim.shard_speedup", speedup, "ratio");
    double started = 0, finished = 0, iterations = 0;
    for (const PointRun& r : m.first) {
      for (const df::JobResult& j : r.result.jobs) {
        started += 1;
        if (j.end >= 0) finished += 1;
        iterations += static_cast<double>(j.iterations);
      }
    }
    rep.layer("workload.jobs_started", started, "count");
    rep.layer("workload.jobs_finished", finished, "count");
    rep.layer("workload.collective_iterations", iterations, "count");
  }
  return rep;
}

}  // namespace perfbench
