// Shared pieces of the end-to-end benchmark: the span tracer used by the
// traced run, timing and resource probes, sample statistics and the
// per-run report every workload fills in.
//
// The benchmark reaches the simulator only through its public headers;
// spans are recorded here, around those calls, never inside src/.
#pragma once

#include <sched.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// --- clocks and process probes ---------------------------------------------

/// Seconds on the monotonic clock.
double now_s();
/// Process CPU seconds (all threads).
double cpu_s();
/// Peak resident set size of this process, MiB.
double peak_rss_mib();

/// Moves the calling thread round-robin over the CPUs the process may use,
/// one CPU at a time; the destructor restores the full set. On a shared
/// host the vCPUs run at different speeds that change over minutes, and
/// the scheduler keeps a lone busy thread on one of them, so a serial run
/// that never moves measures one vCPU's neighbours rather than the host.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pin to the `index`-th allowed CPU (modulo their number).
  void pin(std::size_t index);

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
};

// --- spans -------------------------------------------------------------------

/// One recorded call: name, monotonic start/end (s), index of the span
/// open when it began (-1 = root) and the request it belongs to.
struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  int request = -1;
};

/// In-memory span recorder for the benchmark thread. Disabled, every
/// call is a branch and nothing is stored (the end-to-end runs).
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Request id stamped on spans opened from now on.
  void set_request(int id) { request_ = id; }

  int begin(const char* name);
  void end(int index);

  /// Per-name totals: calls, summed duration and summed self time (the
  /// duration minus the part covered by child spans), seconds.
  struct Layer {
    std::int64_t calls = 0;
    double total = 0.0;
    double self = 0.0;
    std::vector<double> durations;
  };
  std::map<std::string, Layer> layers() const;

  /// Write every span as one JSON object per line.
  void write(const std::string& path) const;

 private:
  bool enabled_;
  int request_ = -1;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), index_(tracer.begin(name)) {}
  ~Scope() { tracer_.end(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

/// Whether a run that has measured `elapsed` seconds, its latest round
/// taking `last`, starts another round: only if that round is expected to
/// end nearer to `seconds` than stopping now does. Runs then last about
/// `seconds` whatever the round length, instead of overrunning by half a
/// round on average.
inline bool keep_going(double elapsed, double last, double seconds) {
  return elapsed + 0.5 * last < seconds;
}

// --- sample statistics -------------------------------------------------------

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample;
/// 0 for an empty one.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Tail quantile of a latency class: the highest percentile that still
/// leaves ten samples beyond it at `guaranteed` samples — the count every
/// run collects at least, so the tail means the same thing in every run.
double tail_quantile(std::size_t guaranteed);

// --- per-run report ----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced: operation counts, the end-to-end
/// metrics, the per-layer metrics (traced run), and free-form lines
/// printed above the result.
struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  ///< first few diagnostics
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;

  /// Count one operation; `ok` false records `why`.
  void op(bool ok, const std::string& why);
  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
};

/// Append the per-layer metrics derived from recorded spans (median call
/// duration of each layer span present in `tracer`).
void add_span_metrics(Report& report, const Tracer& tracer);

/// Append the per-span calls / total / self-time table to report notes.
void add_layer_table(Report& report, const Tracer& tracer);

/// Options every workload receives.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< span dump path (traced run); empty = none
};

/// SplitMix64 step: the benchmark's own seed expansion.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index);

}  // namespace perfbench
