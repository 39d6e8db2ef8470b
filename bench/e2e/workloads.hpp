#pragma once

// The five end-to-end workloads. Each one drives only the program's
// public entry points (Compiler::compile, WavefrontRunner, Interpreter,
// CompileService, ArtifactCache as the NativeObjectStore) and checks
// every op's outputs against a reference the harness computed itself.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "generator.hpp"
#include "runtime/thread_pool.hpp"
#include "spans.hpp"

namespace e2e {

/// What the harness lends every workload.
struct Env {
  ps::ThreadPool* pool = nullptr;
  /// Per-process scratch directory for artifact caches.
  std::string work_dir;
  SpanRecorder* spans = nullptr;
  /// Tiny sizes for `bench_e2e --smoke`.
  bool smoke = false;
};

/// Per-layer counts summed over the measured ops (values the program's
/// calls return; the span-derived times are computed from the trace).
struct LayerStats {
  int64_t fallback_ops = 0;
  int64_t store_hits = 0;   // native .so loaded from the ArtifactCache
  int64_t cc_compiles = 0;  // native loads that ran cc
  double alloc_mib = 0;     // summed over ops
  int64_t alloc_ops = 0;
  // Wavefront runner.
  int64_t wavefront_runs = 0;
  double wavefront_run_ms = 0;
  int64_t points = 0;
  int64_t hyperplanes = 0;
  int64_t overlapped_flushes = 0;
  int64_t steals = 0;
  int64_t peak_bucket_instances = 0;  // max over ops
  double imbalance = 0;               // summed max/mean over runs
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Percentile reported as op_ms_tail (fixed per workload).
  [[nodiscard]] virtual double tail_percentile() const = 0;

  /// Untimed: draw sources and inputs from `seed`, compute the
  /// references, and fold everything generated into `digest`.
  virtual void generate(uint64_t seed, Digest& digest) = 0;
  /// Untimed, before each set-up repetition: release what the previous
  /// one built (compile result, service, module cache, cache directory),
  /// so that every repetition starts from the same cold state.
  virtual void reset() = 0;
  /// Timed, once per set-up repetition: the system calls made before the
  /// first op (compile, first engine selection and its cc, cache
  /// priming). The last repetition's state serves the ops.
  virtual void setup() = 0;
  /// Untimed preparation of op `op` (input choice, edits, cache clear).
  virtual void prepare(int64_t op) = 0;
  /// Timed: op `op`. Throws on any error the program reports.
  virtual void run(int64_t op, LayerStats& stats) = 0;
  /// Untimed: compare op `op`'s outputs with the reference. Returns the
  /// mismatch (or silent tier demotion) found, empty when correct.
  virtual std::string verify(int64_t op) = 0;
  /// Smoke only: damage the outputs the last run() captured.
  virtual void corrupt_output() = 0;
};

/// The workload names, in the order the README lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      const Env& env);

/// Cross-check every reference kernel bit-exactly against the program's
/// tree-walk Interpreter at a tiny size. Returns one line per mismatch.
[[nodiscard]] std::vector<std::string> check_references_against_tree_walk();

}  // namespace e2e
