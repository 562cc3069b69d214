// service-mix: one client sends a seeded request sequence, in a closed
// loop over loopback, to a SweepServer in this process. Each round starts
// a fresh service, so every round sees the same cold/hit/warm pattern.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>

#include "common/rng.hpp"
#include "service/engine.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "sim_point.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace df = dragonfly;

namespace {

constexpr int kMinRounds = 4;
/// Service start-ups timed per run (setup_s is their median): a start-up
/// is well under a millisecond, so one sample would be mostly noise.
constexpr int kSetupProbes = 101;
constexpr int kWorkers = 1;  ///< service pool; client + accept + handler + 1
constexpr int kWarmup = 400;   ///< paper ratio: 10,000 warmup : 15,000 measure
constexpr int kMeasure = 600;

/// Blocking line client with default socket options: no TCP_NODELAY and
/// no TCP_QUICKACK, as an ordinary client would connect.
class Client {
 public:
  explicit Client(std::uint16_t port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    if (fd_ < 0) {
      throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
        0) {
      const std::string why = std::strerror(errno);
      ::close(fd_);
      throw std::runtime_error("connect: " + why);
    }
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void send_line(const std::string& line) {
    const std::string out = line + "\n";
    std::size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n =
          ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send failed");
      sent += static_cast<std::size_t>(n);
    }
  }

  std::string read_line() {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) throw std::runtime_error("connection closed");
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Send one request; read reply lines through the closing DONE / ERR
  /// (or the single-line PONG / BYE / STATS).
  std::vector<std::string> exchange(const std::string& line) {
    send_line(line);
    std::vector<std::string> reply;
    for (;;) {
      reply.push_back(read_line());
      const std::string& l = reply.back();
      if (l.rfind("RESULT ", 0) == 0 || l.rfind("HASH ", 0) == 0 ||
          l.rfind("SAMPLE ", 0) == 0) {
        continue;
      }
      return reply;
    }
  }

 private:
  int fd_;
  std::string buf_;
};

enum class Kind { kMiss, kHit, kRefine, kHash };

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kMiss: return "miss";
    case Kind::kHit: return "hit";
    case Kind::kRefine: return "refine";
    case Kind::kHash: return "hash";
  }
  return "?";
}

struct Template {
  const char* shape;
  const char* routing;
  const char* traffic;
  double load;
  int seeds;
};

// Small shapes (h=2: 36 routers; h=3: 114 routers) so a cold point costs
// tens of milliseconds: the request pipeline, not the kernel, dominates.
constexpr Template kTemplates[] = {
    {"h=2", "par-mm", "advc", 0.3, 1},    {"h=2", "pb-crg", "uniform", 0.4, 1},
    {"h=2", "val-rrg", "advc", 0.2, 1},   {"h=2", "min", "uniform", 0.3, 1},
    {"h=2", "par-rrg", "uniform", 0.5, 1}, {"h=2", "ugal-crg", "advc", 0.25, 1},
    {"h=2", "par-crg", "advc", 0.4, 2},   {"h=2", "val-crg", "uniform", 0.2, 2},
    {"h=2", "pb-rrg", "advc", 0.3, 1},    {"h=3", "par-mm", "uniform", 0.3, 1},
    {"h=3", "val-rrg", "advc", 0.15, 1},  {"h=3", "pb-crg", "advc", 0.35, 1},
};
constexpr std::size_t kWindowRefined[] = {0, 1, 2};  ///< longer window
constexpr std::size_t kCiRefined = 9;                ///< stop.mode=ci
constexpr std::size_t kMixed = 4;  ///< re-requested with a second load
constexpr std::size_t kHashed[] = {5, 6, 10};
constexpr std::size_t kHashedSweep = 7;  ///< HASH of a three-load sweep

struct Request {
  Kind kind;
  std::vector<std::string> items;
  std::string line;
};

std::string join_items(const std::vector<std::string>& items) {
  std::string out;
  for (const std::string& item : items) {
    if (!out.empty()) out += "; ";
    out += item;
  }
  return out;
}

Request make_request(Kind kind, std::vector<std::string> items) {
  Request r{kind, std::move(items), ""};
  r.line = std::string(kind == Kind::kHash ? "HASH " : "RUN ") +
           join_items(r.items);
  return r;
}

std::vector<std::string> template_items(const Template& t, std::uint64_t seed,
                                        std::size_t index) {
  char load[32];
  std::snprintf(load, sizeof load, "load=%g", t.load);
  return {t.shape,
          std::string("routing=") + t.routing,
          std::string("traffic=") + t.traffic,
          load,
          "warmup_cycles=" + std::to_string(kWarmup),
          "measure_cycles=" + std::to_string(kMeasure),
          "seeds=" + std::to_string(t.seeds),
          "seed=" + std::to_string(mix_seed(seed, index) % 1000000007ULL),
          "label=svc" + std::to_string(index)};
}

std::vector<std::string> plus(std::vector<std::string> items,
                              std::initializer_list<const char*> extra) {
  for (const char* e : extra) items.emplace_back(e);
  return items;
}

/// The request sequence of one round. Its make-up is fixed; the seed
/// picks the simulation seeds and the interleaving (each point's cold
/// request precedes its repeats and refinements).
std::vector<Request> build_sequence(std::uint64_t seed) {
  std::vector<std::vector<Request>> chains;
  for (std::size_t t = 0; t < std::size(kTemplates); ++t) {
    const std::vector<std::string> items =
        template_items(kTemplates[t], seed, t);
    std::vector<Request> chain;
    chain.push_back(make_request(Kind::kMiss, items));
    // Repeats spelled differently: reversed key order, and explicit
    // defaults. Canonical hashing must map both onto the cold point.
    chain.push_back(make_request(
        Kind::kHit, std::vector<std::string>(items.rbegin(), items.rend())));
    chain.push_back(make_request(
        Kind::kHit, plus(items, {"packet_size=8", "arrangement=palmtree"})));
    for (const std::size_t w : kWindowRefined) {
      if (w != t) continue;
      const auto refined = plus(items, {"measure_cycles=1200"});
      chain.push_back(make_request(Kind::kRefine, refined));
      if (t == 0) chain.push_back(make_request(Kind::kHit, refined));
    }
    if (t == kCiRefined) {
      const auto refined =
          plus(items, {"stop.mode=ci", "stop.batches=4",
                       "stop.batch_cycles=150", "measure_cycles=1500"});
      chain.push_back(make_request(Kind::kRefine, refined));
      chain.push_back(make_request(Kind::kHit, refined));
    }
    if (t == kMixed) {
      chain.push_back(
          make_request(Kind::kMiss, plus(items, {"loads=0.5,0.35"})));
    }
    chains.push_back(std::move(chain));
  }
  for (const std::size_t t : kHashed) {
    chains.push_back(
        {make_request(Kind::kHash, template_items(kTemplates[t], seed, t))});
  }
  chains.push_back({make_request(
      Kind::kHash, plus(template_items(kTemplates[kHashedSweep], seed,
                                       kHashedSweep),
                        {"loads=0.1,0.2,0.3"}))});

  // Uniformly random interleaving that keeps each chain's order: pick
  // the next chain with probability proportional to what it has left.
  std::vector<std::size_t> next(chains.size(), 0);
  std::size_t left = 0;
  for (const auto& c : chains) left += c.size();
  std::vector<Request> out;
  for (std::uint64_t draw = 0; left > 0; ++draw, --left) {
    std::size_t pick = mix_seed(seed ^ 0x5eed5eedULL, draw) % left;
    for (std::size_t c = 0; c < chains.size(); ++c) {
      const std::size_t remaining = chains[c].size() - next[c];
      if (pick < remaining) {
        out.push_back(chains[c][next[c]++]);
        break;
      }
      pick -= remaining;
    }
  }
  return out;
}

/// The request expanded in-process, apart from the service: canonical
/// point keys and configs, computed with the library's own functions.
struct Expanded {
  std::string label;
  int seeds = 1;
  std::vector<df::SimConfig> cfgs;
  std::vector<std::string> hashes;
  std::vector<std::string> warm_hashes;
};

Expanded expand(const Request& r) {
  df::ExperimentSpec spec;
  for (const std::string& item : r.items) spec.apply_kv_line(item);
  spec.finalize();
  Expanded e;
  e.label = spec.label;
  e.seeds = spec.seeds;
  for (const double load : spec.effective_loads()) {
    df::SimConfig cfg = spec.base;
    cfg.load = load;
    e.hashes.push_back(df::SweepService::point_hash(cfg, spec.seeds));
    e.warm_hashes.push_back(df::SweepService::point_warm_hash(cfg, spec.seeds));
    e.cfgs.push_back(std::move(cfg));
  }
  return e;
}

/// ResultWriter CSV column `index` of a row (labels here have no commas).
double row_column(const std::string& row, std::size_t index) {
  std::size_t begin = 0;
  for (std::size_t i = 0; i < index; ++i) {
    begin = row.find(',', begin);
    if (begin == std::string::npos) return 0.0;
    ++begin;
  }
  return std::strtod(row.c_str() + begin, nullptr);
}

std::size_t column_index(const std::string& name) {
  const auto cols = df::ResultWriter::columns();
  for (std::size_t i = 0; i < cols.size(); ++i) {
    if (cols[i] == name) return i;
  }
  throw std::logic_error("no result column " + name);
}

struct Round {
  double wall_s = 0.0;
  std::vector<double> latency;  ///< per request, send -> closing line
  double sim_router_cycles = 0.0;
  double sim_cycles = 0.0;      ///< predicted ServiceStats::cycles_simulated
  std::int64_t hits = 0, warm = 0, cold = 0;  ///< predicted point sources
  double sim_wait_s = 0.0;      ///< client wait on miss/refine requests
  std::vector<std::string> replies;  ///< per request, joined reply lines
  std::map<std::string, std::string> warm_rows;  ///< point hash -> row
  df::ServiceStats stats;
};

struct Fixture {
  std::vector<Request> seq;
  std::vector<Expanded> expanded;
  std::size_t measured_col = column_index("measured_cycles");
};

/// Check one reply against the client's own prediction; "" = passed.
/// `computed` / `warm_families` carry what earlier requests of this
/// round made the service hold.
std::string check_reply(const Request& req, const Expanded& e,
                        const std::vector<std::string>& reply,
                        std::set<std::string>& computed,
                        std::set<std::string>& warm_families,
                        std::map<std::string, std::string>& rows, Round& round,
                        const Fixture& fx, double latency) {
  if (reply.empty()) return "empty reply";
  if (reply.back().rfind("ERR", 0) == 0) return reply.back();
  const std::size_t n = e.hashes.size();
  if (reply.size() != n + 1) {
    return "expected " + std::to_string(n + 1) + " lines";
  }
  if (req.kind == Kind::kHash) {
    for (std::size_t i = 0; i < n; ++i) {
      std::istringstream is(reply[i]);
      std::string tag, hash, warm;
      is >> tag >> hash >> warm;
      if (tag != "HASH" || hash != e.hashes[i] || warm != e.warm_hashes[i]) {
        return "HASH reply differs from SweepService::point_hash: " + reply[i];
      }
    }
    const std::string done = "DONE " + std::to_string(n) + " hits=0 warm=0";
    return reply.back() == done ? ""
                                : "expected " + done + ", got " + reply.back();
  }

  std::int64_t hits = 0;
  std::int64_t warm = 0;
  bool simulated = false;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& line = reply[i];
    const std::size_t a = line.find(' ');
    const std::size_t b = line.find(' ', a + 1);
    const std::size_t c = line.find(' ', b + 1);
    if (line.rfind("RESULT ", 0) != 0 || c == std::string::npos) {
      return "malformed RESULT line: " + line;
    }
    const std::string hash = line.substr(a + 1, b - a - 1);
    const std::string source = line.substr(b + 1, c - b - 1);
    const std::string row = line.substr(c + 1);
    if (hash != e.hashes[i]) return "RESULT hash differs from point_hash";
    std::string expect = "miss";
    if (computed.count(hash) != 0) {
      expect = "hit";
    } else if (warm_families.count(e.warm_hashes[i]) != 0) {
      expect = "warm";
    }
    if (source != expect) return "point " + hash + " came back " + source +
                                 ", the sequence predicts " + expect;
    if (source == "hit") {
      ++hits;
      ++round.hits;
      if (rows[hash] != row) return "hit row differs from the earlier row";
      continue;
    }
    simulated = true;
    rows[hash] = row;
    computed.insert(hash);
    const df::SimConfig& cfg = e.cfgs[i];
    double cycles = row_column(row, fx.measured_col);
    if (source == "warm") {
      ++warm;
      ++round.warm;
      round.warm_rows[hash] = row;
    } else {
      ++round.cold;
      cycles += static_cast<double>(cfg.warmup_cycles);
      warm_families.insert(e.warm_hashes[i]);
    }
    round.sim_cycles += cycles * e.seeds;
    const auto shape = df::try_topology_shape(cfg);
    const double routers = shape ? shape->num_routers() : 0;
    round.sim_router_cycles += routers * cycles * e.seeds;
  }
  if (simulated) round.sim_wait_s += latency;
  const std::string done = "DONE " + std::to_string(n) +
                           " hits=" + std::to_string(hits) +
                           " warm=" + std::to_string(warm);
  if (reply.back() != done) return "expected " + done + ", got " + reply.back();
  const bool kind_ok =
      (req.kind == Kind::kHit && hits == static_cast<std::int64_t>(n)) ||
      (req.kind == Kind::kRefine && warm > 0) ||
      (req.kind == Kind::kMiss && warm == 0 &&
       hits < static_cast<std::int64_t>(n));
  return kind_ok ? "" : std::string("reply does not match a ") +
                            kind_name(req.kind) + " request";
}

/// A running service with one connected client. Members are destroyed
/// client first, then server (joining its threads), then service.
struct Stack {
  std::unique_ptr<df::SweepService> service;
  std::unique_ptr<df::SweepServer> server;
  std::unique_ptr<Client> client;

  /// Start a service and server, connect, and wait for the PING reply:
  /// the first accepted request.
  Stack() {
    df::ServiceOptions so;
    so.workers = kWorkers;
    service = std::make_unique<df::SweepService>(so);
    server = std::make_unique<df::SweepServer>(*service, 0);
    client = std::make_unique<Client>(server->port());
    if (client->exchange("PING") != std::vector<std::string>{"PONG"}) {
      throw std::runtime_error("PING not answered with PONG");
    }
  }
  ~Stack() {
    client.reset();
    if (server) server->stop();
  }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
};

double setup_probe() {
  const double t0 = now_s();
  const Stack stack;
  return now_s() - t0;
}

Round run_round(const Fixture& fx, Report& rep, Tracer& tr,
                const std::vector<std::string>* first_replies,
                int round_index) {
  Round round;
  std::unique_ptr<Stack> stack;
  {
    Scope s(tr, "service.setup");
    stack = std::make_unique<Stack>();
  }
  Client* client = stack->client.get();

  std::set<std::string> computed;
  std::set<std::string> warm_families;
  std::map<std::string, std::string> rows;
  const double w0 = now_s();
  bool connected = true;
  for (std::size_t i = 0; i < fx.seq.size(); ++i) {
    const Request& req = fx.seq[i];
    tr.set_request(static_cast<int>(round_index * fx.seq.size() + i));
    std::string why;
    std::vector<std::string> reply;
    double latency = 0.0;
    if (!connected) {
      why = "connection lost earlier in the round";
    } else {
      try {
        Scope s(tr, "client.request");
        const double r0 = now_s();
        reply = client->exchange(req.line);
        latency = now_s() - r0;
      } catch (const std::exception& e) {
        connected = false;
        why = e.what();
      }
    }
    if (why.empty()) {
      why = check_reply(req, fx.expanded[i], reply, computed, warm_families,
                        rows, round, fx, latency);
    }
    std::string joined;
    for (const std::string& l : reply) joined += l + "\n";
    if (why.empty() && first_replies != nullptr &&
        joined != (*first_replies)[i]) {
      why = "reply differs from round 1 for the identical request";
    }
    round.replies.push_back(std::move(joined));
    round.latency.push_back(latency);
    rep.op(why.empty(), std::string(kind_name(req.kind)) + " request " +
                            std::to_string(i) + ": " + why);
  }
  round.wall_s = now_s() - w0;
  if (connected) {
    try {
      client->exchange("QUIT");
    } catch (const std::exception&) {
      // The server closing first is an orderly end too.
    }
  }
  stack->client.reset();
  stack->server->stop();
  round.stats = stack->service->stats();
  const df::ServiceStats& st = round.stats;
  const bool counters_ok =
      st.result_hits == round.hits && st.warm_starts == round.warm &&
      st.cold_runs == round.cold && st.coalesced == 0 && st.errors == 0 &&
      std::fabs(static_cast<double>(st.cycles_simulated) - round.sim_cycles) <
          0.5;
  rep.op(counters_ok, "service counters differ from the client's prediction");
  return round;
}

/// Latency samples of one request class across rounds.
std::vector<double> pool(const Fixture& fx, const std::vector<Round>& rounds,
                         Kind kind) {
  std::vector<double> out;
  for (const Round& r : rounds) {
    for (std::size_t i = 0; i < fx.seq.size(); ++i) {
      if (fx.seq[i].kind == kind) out.push_back(r.latency[i]);
    }
  }
  return out;
}

std::size_t per_round(const Fixture& fx, Kind kind) {
  std::size_t n = 0;
  for (const Request& r : fx.seq) n += r.kind == kind ? 1 : 0;
  return n;
}

/// Rounds for about `opts.seconds` (see keep_going), at least kMinRounds.
/// With a `traced` tracer every second (odd) round records spans into it
/// and the minimum doubles, so traced and untraced rounds see the same
/// host conditions.
std::vector<Round> run_rounds(const Fixture& fx, const Options& opts,
                              Report& rep, Tracer* traced) {
  Tracer off(false);
  const std::size_t least = kMinRounds * (traced != nullptr ? 2 : 1);
  std::vector<Round> rounds;
  const double start = now_s();
  double last = 0.0;
  while (rounds.size() < least ||
         keep_going(now_s() - start, last, opts.seconds)) {
    const bool tracing = traced != nullptr && rounds.size() % 2 == 1;
    const std::vector<std::string>* first =
        rounds.empty() ? nullptr : &rounds.front().replies;
    const double r0 = now_s();
    rounds.push_back(run_round(fx, rep, tracing ? *traced : off, first,
                               static_cast<int>(rounds.size())));
    last = now_s() - r0;
  }
  return rounds;
}

/// A refined point computed cold in-process: every replica simulated from
/// cycle 0 under the refined config, at the seed the service derives for
/// it, averaged and rendered as the service renders it.
std::string cold_row(const Request& req, const Expanded& e, Tracer& tr,
                     std::vector<PointRun>& runs) {
  df::TopologyCache cache;
  std::vector<df::SimResult> results;
  for (int s = 0; s < e.seeds; ++s) {
    PointInput in{e.label, req.items};
    const std::uint64_t seed =
        df::derive_seed(e.cfgs[0].seed, static_cast<std::uint64_t>(s));
    in.items.push_back("seed=" + std::to_string(seed));
    PointRun run = run_point(in, cache, tr);
    results.push_back(run.result);
    runs.push_back(std::move(run));
  }
  return df::ResultWriter::csv_row(e.label, df::average_results(results));
}

}  // namespace

Report run_service_mix(const Options& opts) {
  Report rep;
  Fixture fx;
  fx.seq = build_sequence(opts.seed);
  for (const Request& r : fx.seq) fx.expanded.push_back(expand(r));

  std::vector<double> setups;
  {
    // The start-up's threads inherit this thread's single-CPU mask, so
    // their hand-offs are context switches on one vCPU. Waking an idle
    // vCPU instead costs the host's wake-up latency, which moved the
    // per-run median between 72 and 190 us on identical code.
    CpuRotation one_cpu;
    one_cpu.pin(1);
    for (int i = 0; i < kSetupProbes; ++i) setups.push_back(setup_probe());
  }
  Tracer off(false);
  Tracer traced(true);
  std::vector<Round> plain;          // untraced rounds
  std::vector<Round> traced_rounds;  // odd rounds of a traced run
  {
    std::vector<Round> rounds =
        run_rounds(fx, opts, rep, opts.trace ? &traced : nullptr);
    for (std::size_t i = 0; i < rounds.size(); ++i) {
      (opts.trace && i % 2 == 1 ? traced_rounds : plain)
          .push_back(std::move(rounds[i]));
    }
  }

  // Each refined (warm) row must equal an in-process cold run of the
  // refined config.
  Tracer& ref_tracer = opts.trace ? traced : off;
  std::vector<PointRun> ref_runs;
  for (std::size_t i = 0; i < fx.seq.size(); ++i) {
    if (fx.seq[i].kind != Kind::kRefine) continue;
    const Expanded& e = fx.expanded[i];
    std::string why;
    try {
      const auto it = plain.front().warm_rows.find(e.hashes[0]);
      if (it == plain.front().warm_rows.end()) {
        why = "no warm row recorded";
      } else if (cold_row(fx.seq[i], e, ref_tracer, ref_runs) != it->second) {
        why = "warm-started row differs from a cold run of the refined config";
      }
    } catch (const std::exception& ex) {
      why = std::string("exception: ") + ex.what();
    }
    rep.op(why.empty(), "refine reference " + std::to_string(i) + ": " + why);
  }

  const std::size_t hits = per_round(fx, Kind::kHit);
  const std::size_t misses = per_round(fx, Kind::kMiss);
  const double hit_tail = tail_quantile(hits * kMinRounds);
  const double miss_tail = tail_quantile(misses * kMinRounds);
  std::vector<double> walls, rates;
  for (const Round& r : plain) {
    walls.push_back(r.wall_s);
    rates.push_back(r.sim_wait_s > 0 ? r.sim_router_cycles / r.sim_wait_s
                                     : 0.0);
  }
  const std::vector<double> hit_lat = pool(fx, plain, Kind::kHit);
  const std::vector<double> miss_lat = pool(fx, plain, Kind::kMiss);
  const std::vector<double> refine_lat = pool(fx, plain, Kind::kRefine);
  {
    char buf[240];
    std::snprintf(buf, sizeof buf,
                  "rounds=%zu requests/round=%zu samples: hit=%zu (tail p%.0f) "
                  "miss=%zu (tail p%.0f) refine=%zu hash=%zu",
                  plain.size(), fx.seq.size(), hit_lat.size(), 100 * hit_tail,
                  miss_lat.size(), 100 * miss_tail, refine_lat.size(),
                  pool(fx, plain, Kind::kHash).size());
    rep.note(buf);
  }
  if (!opts.trace) {
    rep.e2e("setup_s", median(setups), "s");
    rep.e2e("wall_s", median(walls), "s");
    rep.e2e("peak_rss_mb", peak_rss_mib(), "MiB");
    rep.e2e("router_cycles_per_s", median(rates), "1/s");
    rep.e2e("hit_p50_ms", 1e3 * median(hit_lat), "ms");
    rep.e2e("hit_tail_ms", 1e3 * quantile(hit_lat, hit_tail), "ms");
    rep.e2e("miss_p50_ms", 1e3 * median(miss_lat), "ms");
    rep.e2e("miss_tail_ms", 1e3 * quantile(miss_lat, miss_tail), "ms");
    rep.e2e("refine_p50_ms", 1e3 * median(refine_lat), "ms");
    return rep;
  }

  // --- traced run ------------------------------------------------------------
  std::vector<double> traced_walls;
  for (const Round& r : traced_rounds) traced_walls.push_back(r.wall_s);
  const double overhead = median(traced_walls) - median(walls);
  rep.layer("trace.overhead_s", overhead, "s");
  {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "tracing overhead: traced wall_s %.4f - untraced %.4f = "
                  "%.4f s",
                  median(traced_walls), median(walls), overhead);
    rep.note(buf);
  }

  // In-process replay of the same sequence against a fresh service: the
  // calls the server makes per request, each timed on its own.
  std::vector<double> execute_s(fx.seq.size(), -1.0);
  df::ServiceOptions so;
  so.workers = kWorkers;
  df::SweepService replay(so);
  for (const char* shape : {"h=2", "h=3"}) {
    df::TopologyCache fresh;
    const df::SimConfig cfg = parse_point(PointInput{"", {shape}}, off);
    Scope s(traced, "topology.build");
    fresh.acquire(cfg);
  }
  // Replay request ids follow the socket rounds' ids.
  const std::size_t replay_base =
      (plain.size() + traced_rounds.size()) * fx.seq.size();
  for (std::size_t i = 0; i < fx.seq.size(); ++i) {
    const Request& req = fx.seq[i];
    traced.set_request(static_cast<int>(replay_base + i));
    Scope request(traced, "replay.request");
    df::protocol::Request parsed;
    {
      Scope s(traced, "protocol.parse_request");
      parsed = df::protocol::parse_request(req.line);
    }
    {
      const df::SimConfig cfg =
          parse_point(PointInput{"", parsed.items}, traced);
      Scope s(traced, "config.canonical_hash");
      (void)cfg.canonical_hash();
    }
    if (req.kind == Kind::kHash) {
      Scope s(traced, "service.describe");
      (void)replay.describe(parsed.items);
      continue;
    }
    const char* name = req.kind == Kind::kHit    ? "service.execute_hit"
                       : req.kind == Kind::kMiss ? "service.execute_miss"
                                                 : "service.execute_warm";
    df::RequestReport report;
    {
      Scope s(traced, name);
      const double e0 = now_s();
      report = replay.execute(parsed.items);
      execute_s[i] = now_s() - e0;
    }
    for (const df::PointReport& p : report.points) {
      Scope s(traced, "core.render_row");
      (void)df::protocol::format_result(p);
    }
  }
  // Socket round trip minus in-process execute of the same request.
  std::vector<double> overheads;
  for (std::size_t i = 0; i < fx.seq.size(); ++i) {
    if (execute_s[i] < 0) continue;
    std::vector<double> socket;
    for (const Round& r : plain) socket.push_back(r.latency[i]);
    overheads.push_back(median(socket) - execute_s[i]);
  }
  rep.layer("service.reply_overhead_ms", 1e3 * median(overheads), "ms");

  // Checkpoint at the Measure boundary and restore under the refined
  // window, as a warm start does; the restored run must reproduce the
  // service's warm row.
  std::vector<double> kib;
  for (std::size_t i = 0; i < fx.seq.size(); ++i) {
    if (fx.seq[i].kind != Kind::kRefine) continue;
    const Expanded& e = fx.expanded[i];
    std::string why;
    try {
      df::SimConfig base = e.cfgs[0];
      base.seed = df::derive_seed(e.cfgs[0].seed, 0);
      df::SimConfig refined = base;
      // The cold template this refinement extends: same physics, the
      // template's measurement window and stop rule.
      df::SimConfig cold = base;
      cold.measure_cycles = kMeasure;
      cold.stop = df::StopRule{};
      df::Session session(cold);
      session.advance_to(df::SessionPhase::kMeasure);
      std::ostringstream os;
      {
        Scope s(traced, "sim.checkpoint");
        session.checkpoint(os);
      }
      const std::string blob = std::move(os).str();
      kib.push_back(static_cast<double>(blob.size()) / 1024.0);
      std::istringstream is(blob);
      std::unique_ptr<df::Session> restored;
      {
        Scope s(traced, "sim.restore");
        restored = df::Session::restore(is, 0, &refined);
      }
      const df::SimResult r = restored->run();
      const std::string row = df::ResultWriter::csv_row(
          e.label, df::average_results(std::span<const df::SimResult>(&r, 1)));
      const auto it = plain.front().warm_rows.find(e.hashes[0]);
      if (e.seeds == 1 && it != plain.front().warm_rows.end() &&
          row != it->second) {
        why = "restored refinement differs from the service's warm row";
      }
    } catch (const std::exception& ex) {
      why = std::string("exception: ") + ex.what();
    }
    rep.op(why.empty(), "checkpoint/restore " + std::to_string(i) + ": " + why);
  }
  rep.layer("sim.checkpoint_kib", median(kib), "KiB");

  const df::ServiceStats& st = plain.front().stats;
  const auto count = [&rep](const char* name, double value) {
    rep.layer(name, value, "count");
  };
  count("service.result_hits", static_cast<double>(st.result_hits));
  count("service.cold_runs", static_cast<double>(st.cold_runs));
  count("service.warm_starts", static_cast<double>(st.warm_starts));
  count("service.coalesced", static_cast<double>(st.coalesced));
  count("service.cycles_simulated", static_cast<double>(st.cycles_simulated));
  rep.layer("service.warm_cache_bytes",
            static_cast<double>(st.warm_cache.bytes), "bytes");
  rep.layer("topology.cache_hits", static_cast<double>(st.topologies.hits),
            "count");
  rep.layer("topology.cache_misses", static_cast<double>(st.topologies.misses),
            "count");

  double cycles = 0, rc = 0, gen = 0, del = 0, ev = 0, step = 0, cpu = 0;
  for (const PointRun& r : ref_runs) {
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

  add_span_metrics(rep, traced);
  add_layer_table(rep, traced);
  if (!opts.trace_out.empty()) traced.write(opts.trace_out);
  return rep;
}

}  // namespace perfbench
