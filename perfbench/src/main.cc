// perfbench_workload: runs one benchmark workload in this process and
// prints its raw outputs as one JSON document on stdout. run.py builds
// this program, checks the outputs and turns them into metrics.
//
//   perfbench_workload --workload core-mixed|userscale-web|paper-grid
//                      --seed N --seconds S --mode timed|traced|profile
//                      --tmp DIR [--size full|smoke]
//
// Modes:
//   timed    repeats whole rounds until S seconds have passed; no tracing.
//   traced   one plain round (the reference), then the same round with
//            every CCA wrapped in a timing wrapper (timed_cca.h) and spans
//            around each call into a layer's public functions, then the
//            sweep layer's calls on the round's own specs and results.
//   profile  one plain round with every experiment run by run_experiment
//            on this thread; meant for the -pg build, whose gmon.out
//            run.py reads.
//
// The program sees only public library calls: run_experiment,
// SweepExecutor, CcaRegistry, spec_cache_key, ResultCache (with its
// serialize_result) and SweepManifest. Every spec seed is derived from
// --seed. All files go under a fresh directory in --tmp that is removed
// before exit.
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/timed_cca.h"
#include "src/check/hooks.h"
#include "src/harness/runner.h"
#include "src/harness/scenario.h"
#include "src/sweep/executor.h"
#include "src/sweep/manifest.h"
#include "src/sweep/result_cache.h"
#include "src/sweep/spec_hash.h"

namespace perfbench {
namespace {

using ccas::DataRate;
using ccas::ExperimentResult;
using ccas::ExperimentSpec;
using ccas::FlowGroup;
using ccas::Scenario;
using ccas::TimeDelta;
using ccas::WorkloadClass;
using ccas::sweep::CellOutcome;
using ccas::sweep::CellStatus;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

uint64_t ns_since_epoch(Clock::time_point t) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch())
          .count());
}

// SplitMix64 of (seed, index): every spec seed of a run comes from --seed.
uint64_t derive_seed(uint64_t seed, uint64_t index) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + index + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

// ---- minimal JSON writer ------------------------------------------------

class Json {
 public:
  Json& begin_object() { return open('{'); }
  Json& end_object() { return close('}'); }
  Json& begin_array() { return open('['); }
  Json& end_array() { return close(']'); }
  Json& key(const char* k) {
    comma();
    append_string(k);
    out_ += ':';
    after_key_ = true;
    return *this;
  }
  Json& num(double v) {
    comma();
    if (!std::isfinite(v)) {
      out_ += "null";
      return *this;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ += buf;
    return *this;
  }
  Json& num(uint64_t v) {
    comma();
    out_ += std::to_string(v);
    return *this;
  }
  Json& num(int v) { return num(static_cast<uint64_t>(v < 0 ? 0 : v)); }
  Json& boolean(bool v) {
    comma();
    out_ += v ? "true" : "false";
    return *this;
  }
  Json& str(const std::string& s) {
    comma();
    append_string(s);
    return *this;
  }
  [[nodiscard]] const std::string& text() const { return out_; }

 private:
  Json& open(char c) {
    comma();
    out_ += c;
    first_ = true;
    return *this;
  }
  Json& close(char c) {
    out_ += c;
    first_ = false;
    return *this;
  }
  void comma() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!first_ && !out_.empty()) out_ += ',';
    first_ = false;
  }
  void append_string(const std::string& s) {
    out_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out_ += buf;
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }

  std::string out_;
  bool first_ = true;
  bool after_key_ = false;
};

// ---- spans ----------------------------------------------------------------

// One call into a layer's public function, kept in memory and printed with
// the rest of the document when the run ends.
struct Span {
  std::string name;
  std::string detail;
  int id = 0;
  int parent = -1;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

class SpanLog {
 public:
  // Times `call` as a span named `name`; spans recorded inside `call` get
  // this span as their parent.
  template <typename F>
  auto record(const char* name, std::string detail, F&& call) {
    Span s;
    s.name = name;
    s.detail = std::move(detail);
    s.id = static_cast<int>(spans_.size());
    s.parent = open_.empty() ? -1 : open_.back();
    s.start_ns = ns_since_epoch(Clock::now());
    spans_.push_back(std::move(s));
    const int id = spans_.back().id;
    open_.push_back(id);
    struct Close {
      SpanLog* log;
      int id;
      ~Close() {
        log->spans_[static_cast<size_t>(id)].end_ns = ns_since_epoch(Clock::now());
        log->open_.pop_back();
      }
    } close{this, id};
    return call();
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ---- workloads ------------------------------------------------------------

struct Options {
  std::string workload;
  std::string mode = "timed";
  std::string size = "full";
  std::string tmp;
  uint64_t seed = 1;
  double seconds = 10.0;
};

struct Cell {
  std::string name;
  ExperimentSpec spec;
};

FlowGroup group(const std::string& cca, int count, int rtt_ms) {
  FlowGroup g;
  g.cca = cca;
  g.count = count;
  g.rtt = TimeDelta::millis(rtt_ms);
  return g;
}

ExperimentSpec base_spec(Scenario scenario, double stagger_s, double warmup_s,
                         double measure_s, uint64_t seed) {
  ExperimentSpec spec;
  spec.scenario = scenario;
  spec.scenario.stagger = TimeDelta::seconds_f(stagger_s);
  spec.scenario.warmup = TimeDelta::seconds_f(warmup_s);
  spec.scenario.measure = TimeDelta::seconds_f(measure_s);
  spec.seed = seed;
  spec.record_drop_log = false;
  return spec;
}

Scenario reduced_core(int64_t gbps) {
  Scenario sc = Scenario::core_scale();
  // Same per-flow share and buffer in BDPs as the full CoreScale.
  sc.net.bottleneck_rate = DataRate::gbps(gbps);
  sc.net.buffer_bytes = 37'500'000LL * gbps;
  return sc;
}

// The paper's CoreScale: 5000 long-lived flows of three CCAs at two RTTs
// over the 10 Gbps drop-tail bottleneck with the scenario's 375 MB buffer.
ExperimentSpec core_mixed_spec(uint64_t seed, bool smoke) {
  const Scenario sc = smoke ? reduced_core(1) : Scenario::core_scale();
  const int n = smoke ? 500 : 5000;
  ExperimentSpec spec = smoke ? base_spec(sc, 0.2, 0.5, 1.0, seed)
                              : base_spec(sc, 0.5, 1.0, 1.5, seed);
  spec.groups = {group("newreno", n * 20 / 100, 20), group("newreno", n * 14 / 100, 80),
                 group("cubic", n * 20 / 100, 20),   group("cubic", n * 14 / 100, 80),
                 group("bbr", n * 16 / 100, 20),     group("bbr", n * 16 / 100, 80)};
  return spec;
}

// Open-loop Poisson sessions and no fixed flows: web objects with
// bounded-Pareto sizes on Cubic, request-response exchanges with lognormal
// sizes on BBR. The offered load is about 60% of the bottleneck.
ExperimentSpec userscale_web_spec(uint64_t seed, bool smoke) {
  Scenario sc = Scenario::core_scale();
  sc.net.bottleneck_rate = smoke ? DataRate::mbps(100) : DataRate::gbps(1);
  // One BDP at 200 ms, as in both of the paper's settings.
  sc.net.buffer_bytes = sc.net.bottleneck_rate.bits_per_sec() / 8 / 5;
  ExperimentSpec spec = smoke ? base_spec(sc, 0.0, 0.2, 1.3, seed)
                              : base_spec(sc, 0.0, 0.5, 19.5, seed);

  WorkloadClass web;
  web.name = "web";
  web.weight = 0.7;
  web.cca = "cubic";
  web.rtt = TimeDelta::millis(20);
  web.size.kind = ccas::SizeDistKind::kPareto;
  web.size.pareto_alpha = 1.2;
  web.size.min_segments = 2;
  web.size.max_segments = 200;
  web.app = ccas::AppModel::kWebObject;
  web.app_burst_segments = 8;
  web.app_gap = TimeDelta::millis(2);

  WorkloadClass rr;
  rr.name = "rr";
  rr.weight = 0.3;
  rr.cca = "bbr";
  rr.rtt = TimeDelta::millis(40);
  rr.size.kind = ccas::SizeDistKind::kLognormal;
  rr.size.lognormal_mu = 2.5;
  rr.size.lognormal_sigma = 1.0;
  rr.size.min_segments = 1;
  rr.size.max_segments = 500;
  rr.app = ccas::AppModel::kRequestResponse;
  rr.app_burst_segments = 4;
  rr.app_gap = TimeDelta::millis(5);

  spec.workload.arrival = ccas::ArrivalKind::kPoisson;
  spec.workload.arrivals_per_sec = smoke ? 450.0 : 4500.0;
  spec.workload.classes = {web, rr};
  return spec;
}

// Short cells over the paper's figures: EdgeScale intra-CCA fairness at
// several flow counts and RTTs, Cubic-vs-BBR at EdgeScale, and a reduced
// (1 Gbps) CoreScale with the same per-flow share and buffer in BDPs.
std::vector<Cell> paper_grid_cells(uint64_t seed, bool smoke) {
  std::vector<Cell> cells;
  const std::vector<std::string> ccas = {"newreno", "cubic", "bbr"};
  auto add = [&](std::string name, ExperimentSpec spec) {
    spec.seed = derive_seed(seed, cells.size());
    cells.push_back({std::move(name), std::move(spec)});
  };
  const Scenario edge = Scenario::edge_scale();
  const std::vector<int> edge_counts = smoke ? std::vector<int>{2, 10}
                                             : std::vector<int>{2, 10, 50};
  const std::vector<int> rtts = smoke ? std::vector<int>{20} : std::vector<int>{20, 80};
  for (const std::string& cca : ccas) {
    for (const int n : edge_counts) {
      for (const int rtt : rtts) {
        ExperimentSpec spec = base_spec(edge, 0.5, 3.0, smoke ? 1.0 : 10.0, 0);
        spec.groups = {group(cca, n, rtt)};
        add("edge/" + cca + "/n" + std::to_string(n) + "/rtt" + std::to_string(rtt),
            spec);
      }
    }
  }
  for (const int n : edge_counts) {
    ExperimentSpec spec = base_spec(edge, 0.5, 3.0, smoke ? 1.0 : 10.0, 0);
    spec.groups = {group("cubic", n, 20), group("bbr", n, 20)};
    add("edge/cubic-vs-bbr/n" + std::to_string(2 * n), spec);
  }
  if (smoke) return cells;
  const Scenario core = reduced_core(1);
  for (const char* rep : {"r0", "r1"}) {
    for (const std::string& cca : ccas) {
      for (const int n : {100, 400}) {
        ExperimentSpec spec = base_spec(core, 0.5, 2.0, 5.0, 0);
        spec.groups = {group(cca, n, 20)};
        add("core1g/" + cca + "/n" + std::to_string(n) + "/" + rep, spec);
      }
    }
    ExperimentSpec mixed = base_spec(core, 0.5, 2.0, 5.0, 0);
    mixed.groups = {group("cubic", 200, 20), group("bbr", 200, 80)};
    add(std::string("core1g/cubic-vs-bbr/n400/") + rep, mixed);
  }
  return cells;
}

// The workload's cells for one round. core-mixed and userscale-web are one
// experiment each; op `round` of a run gets its own derived seed.
std::vector<Cell> round_cells(const Options& opt, uint64_t round) {
  const bool smoke = opt.size == "smoke";
  if (opt.workload == "core-mixed") {
    return {{"core-mixed", core_mixed_spec(derive_seed(opt.seed, round), smoke)}};
  }
  if (opt.workload == "userscale-web") {
    return {{"userscale-web", userscale_web_spec(derive_seed(opt.seed, round), smoke)}};
  }
  return paper_grid_cells(derive_seed(opt.seed, round), smoke);
}

std::vector<Cell> with_timed_ccas(std::vector<Cell> cells) {
  for (Cell& c : cells) {
    for (FlowGroup& g : c.spec.groups) g.cca = timed_name(g.cca);
    for (WorkloadClass& k : c.spec.workload.classes) k.cca = timed_name(k.cca);
  }
  return cells;
}

// ---- output -----------------------------------------------------------------

void emit_spec(Json& j, const ExperimentSpec& spec) {
  j.key("rate_bps").num(static_cast<double>(spec.scenario.net.bottleneck_rate.bits_per_sec()));
  j.key("horizon_s").num((spec.scenario.stagger + spec.scenario.warmup +
                          spec.scenario.measure).sec());
  j.key("spec_seed").num(spec.seed);
  if (!spec.workload.enabled()) return;
  j.key("arrivals_per_s").num(spec.workload.arrivals_per_sec);
  j.key("classes").begin_array();
  for (const WorkloadClass& c : spec.workload.classes) {
    const ccas::SizeDist& s = c.size;
    j.begin_object();
    j.key("name").str(c.name);
    j.key("weight").num(c.weight);
    j.key("rtt_s").num(c.rtt.sec());
    j.key("size").str(s.kind == ccas::SizeDistKind::kPareto ? "pareto" : "lognormal");
    j.key("min").num(s.min_segments);
    j.key("max").num(s.max_segments);
    j.key("alpha").num(s.pareto_alpha);
    j.key("mu").num(s.lognormal_mu);
    j.key("sigma").num(s.lognormal_sigma);
    j.end_object();
  }
  j.end_array();
}

void emit_result(Json& j, const ExperimentResult& r) {
  const ccas::SimProfile& p = r.sim_profile;
  j.key("loop_s").num(p.wall_seconds);
  j.key("sim_s").num(p.sim_seconds);
  j.key("events").num(p.events_dispatched);
  j.key("cascades").num(p.wheel_cascades);
  j.key("wasted_wakeups").num(p.timer_wasted_wakeups());
  j.key("heap_allocs").num(p.heap_allocs);
  j.key("measured_s").num(r.measured_for.sec());
  j.key("aggregate_bps").num(r.aggregate_goodput_bps);
  j.key("queue_drops").num(r.queue.dropped_packets);
  j.key("queue_dequeued").num(r.queue.dequeued_packets);
  j.key("groups").begin_array();
  for (const ccas::GroupResult& g : r.groups) {
    j.begin_object();
    j.key("cca").str(g.cca);
    j.key("count").num(g.count);
    j.key("rtt_s").num(g.rtt.sec());
    j.key("aggregate_bps").num(g.aggregate_goodput_bps);
    j.key("share").num(g.throughput_share);
    j.key("jfi").num(g.jfi);
    j.end_object();
  }
  j.end_array();
  // [group, goodput_bps, queue_drops, delivered segments]
  j.key("flows").begin_array();
  for (size_t i = 0; i < r.flows.size(); ++i) {
    const ccas::FlowMeasurement& f = r.flows[i];
    j.begin_array();
    j.num(r.flow_group[i]).num(f.goodput_bps).num(f.queue_drops).num(f.delivered);
    j.end_array();
  }
  j.end_array();
  if (r.workload_classes.empty()) return;
  j.key("workload_goodput_bps").num(r.workload_goodput_bps);
  j.key("workload_classes").begin_array();
  for (const ccas::WorkloadClassResult& c : r.workload_classes) {
    j.begin_object();
    j.key("name").str(c.name);
    j.key("arrivals").num(c.arrivals);
    j.key("rejected").num(c.rejected);
    j.key("completed").num(c.completed);
    j.key("abandoned").num(c.abandoned);
    j.key("completed_segments").num(c.completed_segments);
    j.key("p50_fct_s").num(c.p50_fct_s);
    j.key("p90_fct_s").num(c.p90_fct_s);
    j.key("p99_fct_s").num(c.p99_fct_s);
    j.key("p999_fct_s").num(c.p999_fct_s);
    j.end_object();
  }
  j.end_array();
}

// One experiment's record: the spec, the timings and the outputs run.py
// checks. `wall_s` is the caller's wall time for the experiment.
void emit_op(Json& j, const Cell& cell, const ExperimentResult& r, double wall_s) {
  j.begin_object();
  j.key("name").str(cell.name);
  j.key("wall_s").num(wall_s);
  emit_spec(j, cell.spec);
  emit_result(j, r);
  j.end_object();
}

// ---- rounds -----------------------------------------------------------------

struct TempDir {
  explicit TempDir(const std::string& parent) {
    std::filesystem::create_directories(parent);
    std::string pattern = parent + "/perfbench-XXXXXX";
    if (mkdtemp(pattern.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed under " + parent);
    }
    path = pattern;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  std::string path;
};

int grid_jobs() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

ccas::sweep::SweepSpec to_sweep(const std::vector<Cell>& cells) {
  ccas::sweep::SweepSpec sweep;
  sweep.name = "perfbench";
  for (const Cell& c : cells) sweep.add_cell(c.name, c.spec);
  return sweep;
}

ccas::sweep::SweepOptions grid_options(const std::string& dir, int jobs) {
  ccas::sweep::SweepOptions o;
  o.jobs = jobs;
  o.progress = false;
  o.cache_dir = dir + "/cache";
  o.resume_dir = dir + "/manifest";
  return o;
}

// Calls `call`, recorded as a span when tracing.
template <typename F>
auto maybe_span(SpanLog* spans, const char* name, const std::string& detail, F&& call) {
  if (spans == nullptr) return call();
  return spans->record(name, detail, std::forward<F>(call));
}

// One round of a single-experiment workload, through run_experiment.
void run_experiment_round(Json& j, const std::vector<Cell>& cells, SpanLog* spans,
                          std::vector<ExperimentResult>* results) {
  j.key("ops").begin_array();
  for (const Cell& c : cells) {
    const Clock::time_point t0 = Clock::now();
    ExperimentResult r = maybe_span(spans, "harness.run_experiment", c.name,
                                    [&] { return ccas::run_experiment(c.spec); });
    emit_op(j, c, r, seconds_since(t0));
    if (results != nullptr) results->push_back(std::move(r));
  }
  j.end_array();
}

// A grid round: the cold pass into a fresh cache and manifest, then a warm
// pass of the same grid that must serve every cell from them.
void run_grid_round(Json& j, const std::vector<Cell>& cells, const std::string& tmp,
                    SpanLog* spans, std::vector<ExperimentResult>* results) {
  const TempDir dir(tmp);
  const ccas::sweep::SweepSpec sweep = to_sweep(cells);
  const int jobs = grid_jobs();
  ccas::sweep::SweepExecutor cold_exec(grid_options(dir.path, jobs));
  const Clock::time_point t0 = Clock::now();
  const std::vector<CellOutcome> cold = maybe_span(
      spans, "sweep.SweepExecutor::run", "cold", [&] { return cold_exec.run(sweep); });
  const double cold_s = seconds_since(t0);
  ccas::sweep::SweepExecutor warm_exec(grid_options(dir.path, jobs));
  const Clock::time_point w0 = Clock::now();
  const std::vector<CellOutcome> warm = maybe_span(
      spans, "sweep.SweepExecutor::run", "warm", [&] { return warm_exec.run(sweep); });
  const double warm_s = seconds_since(w0);

  j.key("jobs").num(jobs);
  j.key("cold_s").num(cold_s);
  j.key("warm_s").num(warm_s);
  j.key("ops").begin_array();
  for (size_t i = 0; i < cells.size(); ++i) {
    const CellOutcome& c = cold[i];
    j.begin_object();
    j.key("name").str(cells[i].name);
    j.key("ok").boolean(c.status == CellStatus::kOk && !c.from_cache);
    if (c.failure) j.key("failure").str(c.failure->what);
    j.key("wall_s").num(c.wall_sec);
    j.key("warm_from_cache").boolean(warm[i].status == CellStatus::kOk &&
                                     warm[i].from_cache);
    j.key("warm_identical").boolean(ccas::sweep::serialize_result(warm[i].result) ==
                                    ccas::sweep::serialize_result(c.result));
    emit_spec(j, cells[i].spec);
    emit_result(j, c.result);
    j.end_object();
  }
  j.end_array();
  if (results != nullptr) {
    for (const CellOutcome& c : cold) results->push_back(c.result);
  }
}

void run_round(Json& j, const Options& opt, const std::vector<Cell>& cells,
               SpanLog* spans, std::vector<ExperimentResult>* results) {
  if (opt.workload == "paper-grid") {
    run_grid_round(j, cells, opt.tmp, spans, results);
  } else {
    run_experiment_round(j, cells, spans, results);
  }
}

// The sweep layer's public calls, timed one by one on the round's own specs
// and results: the cache key, a verified store into a manifest's result
// store, the journal record, a load back, and finally a warm executor pass
// that must serve every cell from that manifest.
void run_sweep_calls(Json& j, const std::vector<Cell>& cells,
                     const std::vector<ExperimentResult>& results,
                     const std::string& tmp, int jobs, SpanLog& spans) {
  const TempDir dir(tmp);
  const std::string salt(ccas::sweep::kSweepCodeSalt);
  ccas::sweep::SweepManifest manifest(dir.path + "/manifest", salt);
  const ccas::sweep::ResultCache store(manifest.results_dir());
  bool loads_ok = true;
  for (size_t i = 0; i < cells.size(); ++i) {
    const uint64_t key = spans.record("sweep.spec_cache_key", cells[i].name, [&] {
      return ccas::sweep::spec_cache_key(cells[i].spec, salt);
    });
    const bool stored = spans.record("sweep.ResultCache::store", cells[i].name,
                                     [&] { return store.store(key, results[i]); });
    spans.record("sweep.SweepManifest::record_ok", cells[i].name, [&] {
      manifest.record_ok(key, 1, 0);
    });
    const auto loaded = spans.record("sweep.ResultCache::load", cells[i].name,
                                     [&] { return store.load(key); });
    loads_ok = loads_ok && stored && loaded.has_value() &&
               ccas::sweep::serialize_result(*loaded) ==
                   ccas::sweep::serialize_result(results[i]);
  }
  ccas::sweep::SweepOptions o;
  o.jobs = jobs;
  o.progress = false;
  o.resume_dir = manifest.dir();
  ccas::sweep::SweepExecutor warm_exec(o);
  const ccas::sweep::SweepSpec sweep = to_sweep(cells);
  const Clock::time_point t0 = Clock::now();
  const std::vector<CellOutcome> warm = spans.record(
      "sweep.SweepExecutor::run", "warm", [&] { return warm_exec.run(sweep); });
  const double warm_s = seconds_since(t0);
  bool warm_cached = true;
  double cell_wall = 0.0;
  for (const CellOutcome& c : warm) {
    warm_cached = warm_cached && c.status == CellStatus::kOk && c.from_cache;
    cell_wall += c.wall_sec;
  }
  j.key("sweep_calls").begin_object();
  j.key("loads_identical").boolean(loads_ok);
  j.key("warm_from_cache").boolean(warm_cached);
  j.key("warm_s").num(warm_s);
  j.key("warm_jobs").num(warm_exec.summary().jobs);
  j.key("warm_cell_wall_s").num(cell_wall);
  j.end_object();
}

void emit_spans(Json& j, const SpanLog& spans) {
  j.key("spans").begin_array();
  for (const Span& s : spans.spans()) {
    j.begin_object();
    j.key("id").num(s.id);
    j.key("parent").num(static_cast<double>(s.parent));
    j.key("name").str(s.name);
    j.key("detail").str(s.detail);
    j.key("start_ns").num(s.start_ns);
    j.key("end_ns").num(s.end_ns);
    j.end_object();
  }
  j.end_array();
}

void emit_callbacks(Json& j) {
  const CallbackTotals t = collect_callback_totals();
  j.key("cca_callbacks").begin_object();
  for (int i = 0; i < kCallbackCount; ++i) {
    j.key(kCallbackNames[i]).begin_array().num(t.calls[i]).num(t.ns[i]).end_array();
  }
  j.end_object();
}

void run(const Options& opt, Json& j) {
  j.begin_object();
  j.key("workload").str(opt.workload);
  j.key("mode").str(opt.mode);
  j.key("size").str(opt.size);
  j.key("seed").num(opt.seed);
  j.key("check_hooks_compiled").boolean(ccas::check::kAuditHooksCompiled);
  j.key("compiler").str(std::string("g++ ") + __VERSION__);

  if (opt.mode == "timed") {
    j.key("rounds").begin_array();
    const Clock::time_point start = Clock::now();
    uint64_t round = 0;
    do {
      j.begin_object();
      run_round(j, opt, round_cells(opt, round), nullptr, nullptr);
      j.end_object();
      ++round;
    } while (seconds_since(start) < opt.seconds);
    j.end_array();
  } else if (opt.mode == "profile") {
    // Each experiment on this thread: gprof samples only the main thread.
    j.key("rounds").begin_array().begin_object();
    run_experiment_round(j, round_cells(opt, 0), nullptr, nullptr);
    j.end_object().end_array();
  } else {
    const std::vector<Cell> plain = round_cells(opt, 0);
    const std::vector<Cell> timed = with_timed_ccas(plain);
    register_timed_ccas();
    SpanLog spans;
    std::vector<ExperimentResult> results;
    j.key("rounds").begin_array();
    j.begin_object();
    run_round(j, opt, plain, nullptr, nullptr);
    j.end_object();
    reset_callback_totals();
    j.begin_object();
    spans.record("perfbench.traced_round", opt.workload,
                 [&] { run_round(j, opt, timed, &spans, &results); });
    emit_callbacks(j);
    j.end_object();
    j.end_array();
    const int jobs = opt.workload == "paper-grid" ? grid_jobs() : 1;
    spans.record("perfbench.sweep_calls", opt.workload, [&] {
      run_sweep_calls(j, timed, results, opt.tmp, jobs, spans);
    });
    emit_spans(j, spans);
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  j.key("peak_rss_kb").num(static_cast<uint64_t>(ru.ru_maxrss));
  j.end_object();
}

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "perfbench_workload: %s\n"
               "usage: perfbench_workload --workload core-mixed|userscale-web|"
               "paper-grid --seed N --seconds S --mode timed|traced|profile "
               "--tmp DIR [--size full|smoke]\n",
               msg.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--mode") {
      opt.mode = v;
    } else if (a == "--size") {
      opt.size = v;
    } else if (a == "--tmp") {
      opt.tmp = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') usage("bad --seed " + v);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(opt.seconds >= 0.0)) {
        usage("bad --seconds " + v);
      }
    } else {
      usage("unknown argument " + a);
    }
  }
  if (opt.workload != "core-mixed" && opt.workload != "userscale-web" &&
      opt.workload != "paper-grid") {
    usage("unknown workload '" + opt.workload + "'");
  }
  if (opt.mode != "timed" && opt.mode != "traced" && opt.mode != "profile") {
    usage("unknown mode '" + opt.mode + "'");
  }
  if (opt.size != "full" && opt.size != "smoke") usage("unknown size '" + opt.size + "'");
  if (opt.tmp.empty()) usage("--tmp is required");
  return opt;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options opt = perfbench::parse(argc, argv);
  perfbench::Json j;
  try {
    perfbench::run(opt, j);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_workload: %s\n", e.what());
    return 1;
  }
  std::fwrite(j.text().data(), 1, j.text().size(), stdout);
  std::fputc('\n', stdout);
  return 0;
}
