// End-to-end benchmark harness: one workload per process, a closed loop
// with one client. See README.md next to this file for the workloads, the
// metric dictionary and how run.py drives this binary.
//
//   bench_e2e --workload NAME [--seed N] [--seconds S] [--work-dir DIR]
//             [--trace-out FILE]
//   bench_e2e --smoke [--work-dir DIR]
//   bench_e2e --info
//
// The last line of stdout is one JSON object with the run's metrics.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "runtime/native_engine.hpp"
#include "runtime/thread_pool.hpp"
#include "support/telemetry.hpp"
#include "workloads.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using e2e::LayerStats;
using e2e::Scope;
using e2e::SpanRecorder;
using e2e::Workload;

constexpr uint64_t kDefaultSeed = 1;
constexpr double kDefaultSeconds = 20;
/// Warm-up ops are discarded: at least this many, and at least this
/// share of the measured time.
constexpr int64_t kWarmupOps = 10;
constexpr double kWarmupShare = 0.05;
/// Set-up repeats from cold until it has run at least kSetupMinRuns
/// times and for kSetupMinSeconds, at most kSetupMaxRuns times; setup_s
/// is the median.
constexpr int kSetupMinRuns = 5;
constexpr double kSetupMinSeconds = 2.0;
constexpr int kSetupMaxRuns = 50;
/// Errors quoted in the result (all are counted).
constexpr size_t kQuotedErrors = 5;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

/// Peak resident set of this process image. VmHWM, not ru_maxrss: Linux
/// carries ru_maxrss across execve, so a harness started from a larger
/// parent (run.py's Python) would report the parent's peak instead.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Linear interpolation between order statistics (p in 0..100).
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double median(const std::vector<double>& values) {
  return percentile(values, 50);
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Counts of attempted and failed ops; a failure is an exception, an
/// output mismatch or a silent tier demotion.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;

  void count(int64_t op, const std::string& error) {
    ++attempted;
    if (error.empty()) return;
    ++failed;
    if (errors.size() < kQuotedErrors)
      errors.push_back("op " + std::to_string(op) + ": " + error);
  }
};

/// Process-level counters read around each timed op.
struct OpCounters {
  double cpu_s = 0;
  int64_t cc = 0;
  uint64_t wakeups = 0;
};

struct Harness {
  Workload& workload;
  SpanRecorder& spans;
  ps::ThreadPool& pool;
  OpCounters counters;

  /// One op: untimed prepare, timed run (wall time returned), untimed
  /// verification. `error` receives what went wrong, if anything; the
  /// time of a failed op is not a sample.
  double execute(int64_t op, LayerStats& stats, std::string& error,
                 bool trace_program = false, bool corrupt = false) {
    error.clear();
    try {
      workload.prepare(op);
    } catch (const std::exception& e) {
      error = std::string("prepare: ") + e.what();
      return 0;
    }
    spans.set_op(op);
    if (trace_program) ps::TraceSession::global().enable();
    const double cpu0 = cpu_seconds();
    const int64_t cc0 = ps::native_cc_invocations();
    const uint64_t wake0 = pool.worker_wakeups();
    const Clock::time_point t0 = Clock::now();
    try {
      Scope scope(spans, "op");
      workload.run(op, stats);
    } catch (const std::exception& e) {
      error = e.what();
    }
    const double ms = seconds_since(t0) * 1000;
    counters.cpu_s += cpu_seconds() - cpu0;
    counters.cc += ps::native_cc_invocations() - cc0;
    counters.wakeups += pool.worker_wakeups() - wake0;
    if (trace_program) ps::TraceSession::global().disable();
    spans.set_op(e2e::kVerifyOp);
    if (error.empty()) {
      try {
        if (corrupt) workload.corrupt_output();
        error = workload.verify(op);
      } catch (const std::exception& e) {
        error = std::string("verify: ") + e.what();
      }
    }
    return ms;
  }
};

/// Bench spans first (pid 2), then the program's own TraceSession events
/// (pid 1), in one Chrome trace-event document.
void write_trace(const std::string& path, const SpanRecorder& spans) {
  std::string program = ps::TraceSession::global().flush_json();
  const size_t open = program.find('[');
  const size_t close = program.rfind(']');
  std::string program_events;
  if (open != std::string::npos && close != std::string::npos && close > open)
    program_events = program.substr(open + 1, close - open - 1);
  while (!program_events.empty() &&
         (program_events.front() == '\n' || program_events.front() == ' '))
    program_events.erase(program_events.begin());

  std::ofstream out(path);
  out << "{\"traceEvents\":[\n"
      << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":1,"
         "\"args\":{\"name\":\"bench_e2e spans\"}},\n"
      << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
         "\"args\":{\"name\":\"program trace\"}}";
  const std::string bench_events = spans.chrome_events(2);
  if (!bench_events.empty()) out << ",\n" << bench_events;
  if (!program_events.empty()) out << ",\n" << program_events;
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";

  std::ofstream registry(path + ".metrics.json");
  registry << ps::MetricsRegistry::global().render_json();
}

size_t lane_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<size_t>(hw == 0 ? 1 : hw, 1, 4);
}

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = kDefaultSeconds;
  std::string work_dir = ".";
  std::string trace_out;
  bool smoke = false;
  bool info = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--info") {
      args.info = true;
    } else if (flag == "--workload" && (v = value())) {
      args.workload = v;
    } else if (flag == "--seed" && (v = value())) {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds" && (v = value())) {
      args.seconds = std::atof(v);
      if (!(args.seconds > 0)) return false;
    } else if (flag == "--work-dir" && (v = value())) {
      args.work_dir = v;
    } else if (flag == "--trace-out" && (v = value())) {
      args.trace_out = v;
    } else {
      std::fprintf(stderr, "bench_e2e: bad argument '%s'\n", flag.c_str());
      return false;
    }
  }
  return args.smoke || args.info || !args.workload.empty();
}

int run_workload(const Args& args) {
  ps::ThreadPool pool(lane_count());
  SpanRecorder spans;
  const bool tracing = !args.trace_out.empty();
  e2e::Env env{&pool, args.work_dir, &spans, false};
  std::unique_ptr<Workload> workload = e2e::make_workload(args.workload, env);
  if (!workload) {
    std::fprintf(stderr, "bench_e2e: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  Harness harness{*workload, spans, pool, {}};

  // Inputs and references: untimed, and identical on every build.
  spans.set_enabled(tracing);
  spans.set_op(e2e::kVerifyOp);
  e2e::Digest digest;
  workload->generate(args.seed, digest);
  std::printf("workload %s  seed %llu  lanes %zu  digest %s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), pool.size(),
              digest.hex().c_str());

  std::vector<double> setup_s;
  spans.set_op(e2e::kSetupOp);
  const Clock::time_point setup_start = Clock::now();
  while (static_cast<int>(setup_s.size()) < kSetupMaxRuns &&
         (static_cast<int>(setup_s.size()) < kSetupMinRuns ||
          seconds_since(setup_start) < kSetupMinSeconds)) {
    workload->reset();
    const Clock::time_point t0 = Clock::now();
    try {
      workload->setup();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_e2e: set-up failed: %s\n", e.what());
      return 1;
    }
    setup_s.push_back(seconds_since(t0));
  }

  Tally tally;
  std::string error;
  int64_t op = 0;
  {
    spans.set_enabled(false);
    LayerStats discarded;
    const Clock::time_point t0 = Clock::now();
    while (op < kWarmupOps || seconds_since(t0) < kWarmupShare * args.seconds) {
      harness.execute(op, discarded, error);
      tally.count(op, error);
      ++op;
    }
  }
  const int64_t warmup = op;

  spans.set_enabled(tracing);
  harness.counters = {};
  LayerStats stats;
  std::vector<double> op_ms;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  const Clock::time_point phase = Clock::now();
  while (seconds_since(phase) < args.seconds) {
    // The program's TraceSession runs in alternate blocks of sixteen ops:
    // every workload's op mix repeats with a period dividing sixteen
    // (input patterns, edit-run's family rotation and cold op), so both
    // halves see the same mix.
    const bool trace_program = tracing && (op / 16) % 2 == 1;
    const double ms = harness.execute(op, stats, error, trace_program);
    tally.count(op, error);
    if (error.empty()) {
      op_ms.push_back(ms);
      (trace_program ? traced_ms : untraced_ms).push_back(ms);
    }
    ++op;
  }

  const auto n = static_cast<double>(op_ms.size());
  double busy_ms = 0;
  for (double ms : op_ms) busy_ms += ms;
  const double tail_p = workload->tail_percentile();
  const auto beyond = static_cast<int64_t>(
      n - std::ceil(n * tail_p / 100.0));

  std::map<std::string, double> metrics = {
      {"setup_s", median(setup_s)},
      {"op_ms_p50", median(op_ms)},
      {"op_ms_tail", percentile(op_ms, tail_p)},
      {"ops_per_s", busy_ms > 0 ? n / (busy_ms / 1000) : 0},
      {"peak_rss_mb", peak_rss_mib()},
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  std::map<std::string, double> layers = {
      {"native.cc_per_op", ratio(harness.counters.cc, n)},
      {"native.store_hit_ratio",
       ratio(stats.store_hits, stats.store_hits + stats.cc_compiles)},
      {"runtime.fallback_ops", static_cast<double>(stats.fallback_ops)},
      {"runtime.alloc_mib", ratio(stats.alloc_mib, stats.alloc_ops)},
      {"wavefront.mpoints_per_s",
       ratio(stats.points / 1e6, stats.wavefront_run_ms / 1000)},
      {"wavefront.hyperplanes_per_ms",
       ratio(stats.hyperplanes, stats.wavefront_run_ms)},
      {"wavefront.overlapped_flush_ratio",
       ratio(stats.overlapped_flushes, stats.hyperplanes)},
      {"wavefront.peak_bucket_instances",
       static_cast<double>(stats.peak_bucket_instances)},
      {"wavefront.steals_per_op", ratio(stats.steals, n)},
      {"wavefront.worker_imbalance",
       ratio(stats.imbalance, stats.wavefront_runs)},
      {"thread_pool.wakeups_per_op",
       ratio(static_cast<double>(harness.counters.wakeups), n)},
      {"process.cpu_per_wall", ratio(harness.counters.cpu_s, busy_ms / 1000)},
  };
  if (tracing) {
    layers["trace.op_ms_p50"] = median(traced_ms);
    layers["trace.overhead_pct"] =
        (median(traced_ms) / median(untraced_ms) - 1) * 100;
    write_trace(args.trace_out, spans);
  }

  std::printf("ops %zu measured (+%lld warm-up), tail p%g has %lld beyond\n",
              op_ms.size(), static_cast<long long>(warmup), tail_p,
              static_cast<long long>(beyond));
  for (const std::string& e : tally.errors)
    std::printf("FAILED %s\n", e.c_str());

  std::string out = "{\"workload\":" + json_string(args.workload) +
                    ",\"seed\":" + std::to_string(args.seed) +
                    ",\"digest\":" + json_string(digest.hex()) +
                    ",\"lanes\":" + std::to_string(pool.size()) +
                    ",\"correct\":" + (tally.failed == 0 ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(tally.attempted) +
                    ",\"failed\":" + std::to_string(tally.failed) +
                    ",\"samples\":" + std::to_string(op_ms.size()) +
                    ",\"tail_percentile\":" + json_number(tail_p) +
                    ",\"beyond_tail\":" + std::to_string(beyond);
  auto object = [&](const char* key, const std::map<std::string, double>& m) {
    out += std::string(",\"") + key + "\":{";
    bool first = true;
    for (const auto& [name, value] : m) {
      out += (first ? "" : ",") + json_string(name) + ":" + json_number(value);
      first = false;
    }
    out += "}";
  };
  object("metrics", metrics);
  object("layers", layers);
  out += ",\"errors\":[";
  for (size_t i = 0; i < tally.errors.size(); ++i)
    out += (i ? "," : "") + json_string(tally.errors[i]);
  out += "]}";
  std::printf("%s\n", out.c_str());
  return 0;
}

/// Every workload at tiny sizes, the references against the tree-walk
/// Interpreter, and one injected corruption per workload that the
/// verifier must count.
int run_smoke(const Args& args) {
  const Clock::time_point start = Clock::now();
  bool ok = true;
  for (const std::string& failure : e2e::check_references_against_tree_walk()) {
    std::printf("FAILED reference vs tree-walk: %s\n", failure.c_str());
    ok = false;
  }
  if (ok) std::printf("references match the tree-walk Interpreter\n");

  constexpr int64_t kSmokeOps = 8;
  ps::ThreadPool pool(lane_count());
  for (const std::string& name : e2e::workload_names()) {
    SpanRecorder spans;
    e2e::Env env{&pool, args.work_dir + "/smoke-" + name, &spans, true};
    std::unique_ptr<Workload> workload = e2e::make_workload(name, env);
    Harness harness{*workload, spans, pool, {}};
    Tally tally;
    std::string error;
    try {
      e2e::Digest digest;
      workload->generate(args.seed, digest);
      workload->reset();
      workload->setup();
    } catch (const std::exception& e) {
      std::printf("FAILED %s set-up: %s\n", name.c_str(), e.what());
      ok = false;
      continue;
    }
    LayerStats stats;
    for (int64_t op = 0; op < kSmokeOps; ++op) {
      harness.execute(op, stats, error);
      tally.count(op, error);
    }
    const bool clean = tally.failed == 0;
    harness.execute(kSmokeOps, stats, error, false, true);
    tally.count(kSmokeOps, error);
    const bool passed = clean && tally.failed == 1;
    std::printf("%-16s failed %lld/%lld with 1 injected corruption -> %s\n",
                name.c_str(), static_cast<long long>(tally.failed),
                static_cast<long long>(tally.attempted),
                passed ? "ok" : "FAILED");
    for (const std::string& e : tally.errors) std::printf("  %s\n", e.c_str());
    ok = ok && passed;
  }
  std::printf("smoke %s in %.1f s\n", ok ? "passed" : "FAILED",
              seconds_since(start));
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload NAME [--seed N] [--seconds S] "
                 "[--work-dir DIR] [--trace-out FILE]\n"
                 "       bench_e2e --smoke [--work-dir DIR]\n"
                 "       bench_e2e --info\n");
    return 2;
  }
  if (!ps::native_engine_available()) {
    std::fprintf(stderr, "bench_e2e: native tier unavailable: %s\n",
                 ps::native_engine_unavailable_reason().c_str());
    return 3;
  }
  if (args.info) {
    std::printf("{\"nproc\":%u,\"lanes\":%zu,\"cc_fingerprint\":%s}\n",
                std::thread::hardware_concurrency(), lane_count(),
                json_string(ps::native_cc_fingerprint()).c_str());
    return 0;
  }
  std::filesystem::create_directories(args.work_dir);
  const int rc = args.smoke ? run_smoke(args) : run_workload(args);
  // Drop the native module cache while the engine's other statics are
  // still alive: left to static destruction, ~NativeModule unpins its
  // .so in a pin registry that may already be destroyed (a use after
  // free at exit).
  ps::native_engine_clear_in_process_cache();
  return rc;
}
