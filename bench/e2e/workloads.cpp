#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <set>
#include <stdexcept>

#include "driver/compiler.hpp"
#include "driver/paper_modules.hpp"
#include "eqn/translate.hpp"
#include "reference.hpp"
#include "runtime/interpreter.hpp"
#include "runtime/native_engine.hpp"
#include "runtime/wavefront.hpp"
#include "service/artifact_cache.hpp"
#include "service/compile_service.hpp"

namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;
using Outputs = std::vector<std::vector<double>>;

/// Op plans drawn (and digested) up front; longer runs extend the same
/// deterministic stream.
constexpr int64_t kPlanOps = 2048;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Seed of an independent stream: workload salt and index mixed in.
uint64_t stream_seed(uint64_t seed, uint64_t salt, uint64_t index = 0) {
  Rng mix(seed ^ (salt * 0x9e3779b97f4a7c15ULL) ^ (index << 20));
  return mix.next();
}

/// The layer each pass belongs to (the src/ module that implements it).
const char* pass_layer(std::string_view pass) {
  if (pass == "Parse") return "frontend.parse";
  if (pass == "Sema") return "frontend.sema";
  if (pass == "DepGraph") return "graph.depgraph";
  if (pass == "Schedule") return "core.schedule";
  if (pass == "LoopMerge") return "core.loop_merge";
  if (pass == "Hyperplane") return "transform.hyperplane";
  if (pass == "ExactBounds") return "transform.exact_bounds";
  if (pass == "Emit") return "codegen.c_emit";
  return "driver.pass";
}

ps::CompileOptions compile_options(bool hyperplane) {
  ps::CompileOptions options;
  options.apply_hyperplane = hyperplane;
  options.exact_bounds = hyperplane;
  return options;
}

/// Compiler::compile inside a driver.compile span, with one child span
/// per pass that ran, laid end to end from the pass timings it returns.
ps::CompileResult compile(SpanRecorder& spans, const std::string& source,
                          bool hyperplane) {
  Scope scope(spans, "driver.compile");
  const double start = spans.enabled() ? spans.now_us() : 0;
  ps::CompileResult result =
      ps::Compiler(compile_options(hyperplane)).compile(source);
  double at = start;
  for (const ps::PassTiming& timing : result.pass_timings) {
    if (!timing.ran) continue;
    spans.add_reported(pass_layer(timing.name), at,
                       timing.milliseconds * 1000);
    at += timing.milliseconds * 1000;
  }
  if (!result.ok || !result.primary)
    throw std::runtime_error("compile failed: " + result.diagnostics);
  return result;
}

struct RunOptions {
  ps::EvalEngine engine = ps::EvalEngine::Native;
  ps::ThreadPool* pool = nullptr;
  ps::NativeObjectStore* store = nullptr;
};

/// The runner a compile result calls for: the WavefrontRunner when the
/// hyperplane pass transformed the module, the flowchart Interpreter
/// otherwise.
class Runner {
 public:
  Runner(const ps::CompileResult& compiled, const ps::IntEnv& sizes,
         const RunOptions& options) {
    if (compiled.transformed && compiled.exact_nest) {
      ps::WavefrontOptions o;
      o.pool = options.pool;
      o.engine = options.engine;
      o.native_store = options.store;
      wave_ = std::make_unique<ps::WavefrontRunner>(
          *compiled.transformed->module, *compiled.transform,
          *compiled.exact_nest, sizes, std::map<std::string, double>{}, o);
    } else {
      ps::InterpreterOptions o;
      o.pool = options.pool;
      o.engine = options.engine;
      o.native_store = options.store;
      const ps::CompiledModule& stage = *compiled.primary;
      interp_ = std::make_unique<ps::Interpreter>(
          *stage.module, *stage.graph, stage.schedule.flowchart, sizes,
          std::map<std::string, double>{}, o);
    }
  }

  ps::NdArray& array(std::string_view name) {
    return wave_ ? wave_->array(name) : interp_->array(name);
  }
  void run() { wave_ ? wave_->run() : interp_->run(); }
  [[nodiscard]] ps::EvalEngine engine() const {
    return wave_ ? wave_->engine() : interp_->engine();
  }
  [[nodiscard]] const std::string& fallback_reason() const {
    return wave_ ? wave_->fallback_reason() : interp_->fallback_reason();
  }
  [[nodiscard]] const ps::NativeLoadInfo& native_info() const {
    return wave_ ? wave_->native_info() : interp_->native_info();
  }
  [[nodiscard]] size_t allocated_doubles() const {
    return wave_ ? wave_->allocated_doubles() : interp_->allocated_doubles();
  }
  [[nodiscard]] const ps::WavefrontRunner* wavefront() const {
    return wave_.get();
  }

 private:
  std::unique_ptr<ps::WavefrontRunner> wave_;
  std::unique_ptr<ps::Interpreter> interp_;
};

/// Construct a runner inside a runtime.engine_select span; a cc run
/// during the tier ladder shows as its native.cc child.
std::unique_ptr<Runner> select_engine(SpanRecorder& spans,
                                      const ps::CompileResult& compiled,
                                      const ps::IntEnv& sizes,
                                      const RunOptions& options) {
  Scope scope(spans, "runtime.engine_select");
  auto runner = std::make_unique<Runner>(compiled, sizes, options);
  const double cc_us = runner->native_info().compile_ms * 1000;
  if (spans.enabled() && cc_us > 0)
    spans.add_reported("native.cc", spans.now_us() - cc_us, cc_us);
  return runner;
}

/// What one executed op leaves for verification.
struct Solve {
  Outputs outputs;
  ps::EvalEngine engine = ps::EvalEngine::TreeWalk;
  std::string fallback;
  ps::NativeLoadInfo native;
};

struct Input {
  std::string name;
  const std::vector<double>* values;
};

/// The timed body of every executing op: engine selection, input copy,
/// run, output read and release, each in its own span.
Solve solve(SpanRecorder& spans, const ps::CompileResult& compiled,
            const ps::IntEnv& sizes, const RunOptions& options,
            const std::vector<Input>& inputs,
            const std::vector<std::string>& outputs, LayerStats& stats) {
  Solve out;
  std::unique_ptr<Runner> runner =
      select_engine(spans, compiled, sizes, options);
  {
    Scope scope(spans, "runtime.input_copy");
    for (const Input& input : inputs) {
      std::span<double> dst = runner->array(input.name).raw();
      if (dst.size() != input.values->size())
        throw std::runtime_error("input " + input.name + " has " +
                                 std::to_string(dst.size()) + " elements");
      std::copy(input.values->begin(), input.values->end(), dst.begin());
    }
  }
  double run_ms = 0;
  {
    Scope scope(spans, runner->wavefront() ? "wavefront.run"
                                           : "interpreter.run");
    const Clock::time_point t0 = Clock::now();
    runner->run();
    run_ms = ms_since(t0);
  }
  {
    Scope scope(spans, "runtime.output_read");
    for (const std::string& name : outputs) {
      std::span<const double> src = runner->array(name).raw();
      out.outputs.emplace_back(src.begin(), src.end());
    }
  }
  out.engine = runner->engine();
  out.fallback = runner->fallback_reason();
  out.native = runner->native_info();

  if (out.engine != options.engine || !out.fallback.empty())
    ++stats.fallback_ops;
  if (out.engine == ps::EvalEngine::Native) {
    if (out.native.cache_hit && !out.native.in_process_hit) ++stats.store_hits;
    if (!out.native.cache_hit) ++stats.cc_compiles;
  }
  stats.alloc_mib +=
      static_cast<double>(runner->allocated_doubles()) * 8 / (1 << 20);
  ++stats.alloc_ops;
  if (const ps::WavefrontRunner* wave = runner->wavefront()) {
    const ps::WavefrontStats& ws = wave->stats();
    ++stats.wavefront_runs;
    stats.wavefront_run_ms += run_ms;
    stats.points += ws.points;
    stats.hyperplanes += ws.hyperplanes;
    stats.overlapped_flushes += ws.overlapped_flushes;
    stats.steals += ws.steals;
    stats.peak_bucket_instances =
        std::max(stats.peak_bucket_instances, ws.peak_bucket_instances);
    const std::vector<int64_t> per_context = wave->context_points();
    int64_t total = 0;
    int64_t most = 0;
    for (int64_t p : per_context) {
      total += p;
      most = std::max(most, p);
    }
    if (total > 0)
      stats.imbalance += static_cast<double>(most) * per_context.size() /
                         static_cast<double>(total);
  }
  {
    Scope scope(spans, "runtime.release");
    runner.reset();
  }
  return out;
}

/// First mismatching element, or empty when `got` equals `want` bit for
/// bit.
std::string compare(const std::vector<double>& got,
                    const std::vector<double>& want, const std::string& what) {
  if (got.size() != want.size())
    return what + ": " + std::to_string(got.size()) + " elements, expected " +
           std::to_string(want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(double)) == 0) continue;
    char buf[96];
    std::snprintf(buf, sizeof buf, "[%zu] = %a, expected %a", i, got[i],
                  want[i]);
    return what + buf;
  }
  return {};
}

std::string check_engine(const Solve& solve, ps::EvalEngine want) {
  if (solve.engine == want && solve.fallback.empty()) return {};
  return "silent tier demotion: " +
         (solve.fallback.empty() ? std::string("engine changed")
                                 : solve.fallback);
}

void flip_low_bit(std::vector<double>& values) {
  if (values.empty()) return;
  double& v = values[values.size() / 2];
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  bits ^= 1;
  std::memcpy(&v, &bits, sizeof bits);
}

// ---------------------------------------------------------------------------
// The three solve workloads: one module compiled once, solved per op on
// one of four seeded input grids.
// ---------------------------------------------------------------------------

/// Section 4's Gauss-Seidel with skewed per-point cost (two terms above
/// the diagonal, sixteen on and below it) plus the consumer-heavy
/// module's diag/edge outputs.
constexpr const char* kSkewedSource = R"PS(
Skewed: module (InitialA: array[I,J] of real; M: int; maxK: int):
  [newA: array [I, J] of real; diag: array [I] of real;
   edge: array [J] of real];
type
  I, J = 0 .. M+1;  K = 2 .. maxK;
var
  A: array [1 .. maxK] of array [I, J] of real;
define
  A[1] = InitialA;
  newA = A[maxK];
  diag[I] = A[maxK, I, I];
  edge[J] = A[maxK, 1, J];
  A[K,I,J] = if (I = 0) or (J = 0) or (I = M+1) or (J = M+1)
             then A[K-1,I,J]
             else if I < J
             then ( A[K,I,J-1] + A[K-1,I,J+1] ) / 2
             else ( A[K,I,J-1] + A[K,I-1,J]
                   +A[K-1,I,J+1] + A[K-1,I+1,J]
                   +A[K,I,J-1] + A[K,I-1,J]
                   +A[K-1,I,J+1] + A[K-1,I+1,J]
                   +A[K,I,J-1] + A[K,I-1,J]
                   +A[K-1,I,J+1] + A[K-1,I+1,J]
                   +A[K,I,J-1] + A[K,I-1,J]
                   +A[K-1,I,J+1] + A[K-1,I+1,J] ) / 16;
end Skewed;
)PS";

struct SolveConfig {
  uint64_t salt;
  const char* source;
  bool hyperplane;
  ps::EvalEngine engine;
  int64_t m;
  int64_t max_k;
  std::vector<std::string> outputs;
  double tail;
  std::function<Outputs(const ref::Grid&, int64_t, int64_t)> reference;
};

class SolveWorkload : public Workload {
 public:
  static constexpr int kPatterns = 4;

  SolveWorkload(const Env& env, SolveConfig config)
      : env_(env), config_(std::move(config)) {}

  double tail_percentile() const override { return config_.tail; }

  void generate(uint64_t seed, Digest& digest) override {
    Rng rng(stream_seed(seed, config_.salt));
    const int64_t side = config_.m + 2;
    digest.add(config_.source);
    digest.add(config_.m);
    digest.add(config_.max_k);
    for (int p = 0; p < kPatterns; ++p) {
      patterns_[p].assign(static_cast<size_t>(side * side), 0.0);
      fill_sixteenths(rng, patterns_[p]);
      digest.add(patterns_[p]);
      expected_[p] = config_.reference(patterns_[p], config_.m, config_.max_k);
    }
  }

  void reset() override {
    compiled_.reset();
    ps::native_engine_clear_in_process_cache();
  }

  void setup() override {
    compiled_ = std::make_unique<ps::CompileResult>(
        compile(*env_.spans, config_.source, config_.hyperplane));
    std::unique_ptr<Runner> first =
        select_engine(*env_.spans, *compiled_, sizes(), run_options());
    if (first->engine() != config_.engine)
      throw std::runtime_error("set-up fell back: " + first->fallback_reason());
  }

  void prepare(int64_t) override {}

  void run(int64_t op, LayerStats& stats) override {
    last_ = solve(*env_.spans, *compiled_, sizes(), run_options(),
                  {{"InitialA", &patterns_[op % kPatterns]}}, config_.outputs,
                  stats);
  }

  std::string verify(int64_t op) override {
    if (std::string e = check_engine(last_, config_.engine); !e.empty())
      return e;
    const Outputs& want = expected_[op % kPatterns];
    for (size_t i = 0; i < want.size(); ++i) {
      std::string e = compare(last_.outputs[i], want[i], config_.outputs[i]);
      if (!e.empty()) return e;
    }
    return {};
  }

  void corrupt_output() override { flip_low_bit(last_.outputs[0]); }

 private:
  ps::IntEnv sizes() const {
    return {{"M", config_.m}, {"maxK", config_.max_k}};
  }
  RunOptions run_options() const {
    return {config_.engine, env_.pool, nullptr};
  }

  Env env_;
  SolveConfig config_;
  std::vector<double> patterns_[kPatterns];
  Outputs expected_[kPatterns];
  std::unique_ptr<ps::CompileResult> compiled_;
  Solve last_;
};

// ---------------------------------------------------------------------------
// Generated variants with their inputs and references (edit-run and the
// tree-walk cross-check).
// ---------------------------------------------------------------------------

struct Case {
  ps::IntEnv sizes;
  std::string input;
  std::string output;
  std::vector<double> in;
  std::vector<double> expected;
};

Case make_case(const Variant& v, uint64_t input_seed, bool smoke) {
  Rng rng(input_seed);
  Case c;
  switch (v.family) {
    case Family::Jacobi:
    case Family::GaussSeidel: {
      const int64_t m = smoke ? 6 : 24;
      const int64_t k = smoke ? 4 : 8;
      c.sizes = {{"M", m}, {"maxK", k}};
      c.input = "InitialA";
      c.output = "newA";
      c.in.resize(static_cast<size_t>((m + 2) * (m + 2)));
      fill_sixteenths(rng, c.in);
      c.expected =
          ref::weighted_relax(c.in, m, k, v.family == Family::GaussSeidel,
                              {v.c(0), v.c(1), v.c(2), v.c(3)});
      break;
    }
    case Family::Heat1d: {
      const int64_t n = smoke ? 16 : 256;
      const int64_t steps = smoke ? 4 : 16;
      c.sizes = {{"N", n}, {"steps", steps}};
      c.input = "u0";
      c.output = "uOut";
      c.in.resize(static_cast<size_t>(n + 2));
      fill_sixteenths(rng, c.in);
      c.expected = ref::heat1d(c.in, n, steps, v.c(0), v.c(1));
      break;
    }
    case Family::Chain: {
      const int64_t n = smoke ? 32 : 2048;
      c.sizes = {{"N", n}};
      c.input = "x";
      c.output = "y";
      c.in.resize(static_cast<size_t>(n));
      fill_sixteenths(rng, c.in);
      c.expected = ref::chain(c.in, v.c(0), v.c(1));
      break;
    }
  }
  return c;
}

/// The edit->run loop: every op compiles a variant and runs it on the
/// native tier with an ArtifactCache as the object store. One op in four
/// is a never-seen variant (cc + publish); the rest re-run a seen one
/// (store hit + dlopen), with the in-process module cache cleared before
/// each op so the store is what answers.
class EditRunWorkload : public Workload {
 public:
  explicit EditRunWorkload(const Env& env) : env_(env) {}

  double tail_percentile() const override { return 95; }

  void generate(uint64_t seed, Digest& digest) override {
    seed_ = seed;
    plan_rng_ = Rng(stream_seed(seed, 4));
    const size_t primed = env_.smoke ? 4 : 8;
    while (variants_.size() < primed)
      new_variant(static_cast<Family>(variants_.size() % 4));
    primed_ = variants_.size();
    extend_plan(env_.smoke ? 64 : kPlanOps);
    for (size_t i = 0; i < variants_.size(); ++i) {
      digest.add(ps_source(variants_[i]));
      digest.add(make_case(variants_[i], input_seed(i), env_.smoke).in);
    }
    for (const Plan& p : plan_) digest.add(static_cast<int64_t>(p.variant));
  }

  void reset() override {
    store_.reset();
    ps::native_engine_clear_in_process_cache();
    std::filesystem::remove_all(store_dir());
  }

  void setup() override {
    ps::ArtifactCacheOptions options;
    options.dir = store_dir();
    store_ = std::make_unique<ps::ArtifactCache>(options);
    for (size_t i = 0; i < primed_; ++i) {
      ps::CompileResult compiled =
          compile(*env_.spans, ps_source(variants_[i]), true);
      std::unique_ptr<Runner> runner = select_engine(
          *env_.spans, compiled, case_for(i).sizes, run_options());
      if (runner->engine() != ps::EvalEngine::Native)
        throw std::runtime_error("set-up fell back: " +
                                 runner->fallback_reason());
    }
  }

  void prepare(int64_t op) override {
    extend_plan(op + 1);
    case_for(plan_[op].variant);
    ps::native_engine_clear_in_process_cache();
  }

  void run(int64_t op, LayerStats& stats) override {
    const size_t index = plan_[op].variant;
    const Case& c = case_for(index);
    auto compiled = std::make_unique<ps::CompileResult>(
        compile(*env_.spans, ps_source(variants_[index]), true));
    last_ = solve(*env_.spans, *compiled, c.sizes, run_options(),
                  {{c.input, &c.in}}, {c.output}, stats);
    Scope scope(*env_.spans, "runtime.release");
    compiled.reset();
  }

  std::string verify(int64_t op) override {
    if (std::string e = check_engine(last_, ps::EvalEngine::Native);
        !e.empty())
      return e;
    const Plan& p = plan_[op];
    if (p.cold && last_.native.cache_hit)
      return "never-seen variant did not run cc";
    if (!p.cold && (!last_.native.cache_hit || last_.native.in_process_hit))
      return "seen variant was not served by the object store";
    const Case& c = case_for(p.variant);
    return compare(last_.outputs[0], c.expected, c.output);
  }

  void corrupt_output() override { flip_low_bit(last_.outputs[0]); }

 private:
  struct Plan {
    bool cold = false;
    size_t variant = 0;
  };

  uint64_t input_seed(size_t index) const {
    return stream_seed(seed_, 5, index);
  }

  std::string store_dir() const { return env_.work_dir + "/edit-store"; }

  RunOptions run_options() const {
    return {ps::EvalEngine::Native, env_.pool, store_.get()};
  }

  /// Draw a `family` variant no earlier op has used (distinct
  /// coefficients, so a distinct native kernel).
  void new_variant(Family family) {
    for (;;) {
      Variant v = draw_variant(plan_rng_, family,
                               "Edit" + std::to_string(variants_.size()));
      if (identities_.insert(v.identity()).second) {
        by_family_[static_cast<size_t>(family)].push_back(variants_.size());
        variants_.push_back(std::move(v));
        return;
      }
    }
  }

  /// Op 4k+3 is the cold one. Families rotate so that every four ops
  /// cover all four and the cold op's family rotates too: each seed runs
  /// the same mix, and only the draws within a family differ.
  void extend_plan(int64_t ops) {
    while (static_cast<int64_t>(plan_.size()) < ops) {
      const size_t op = plan_.size();
      const auto family = static_cast<Family>((op + op / 4) % 4);
      if (op % 4 == 3) {
        new_variant(family);
        plan_.push_back({true, variants_.size() - 1});
      } else {
        const std::vector<size_t>& seen =
            by_family_[static_cast<size_t>(family)];
        const auto pick = plan_rng_.between(
            0, static_cast<int64_t>(seen.size()) - 1);
        plan_.push_back({false, seen[static_cast<size_t>(pick)]});
      }
    }
  }

  const Case& case_for(size_t index) {
    auto it = cases_.find(index);
    if (it == cases_.end())
      it = cases_
               .emplace(index, make_case(variants_[index], input_seed(index),
                                         env_.smoke))
               .first;
    return it->second;
  }

  Env env_;
  uint64_t seed_ = 0;
  Rng plan_rng_{0};
  std::vector<Variant> variants_;  // primed ones first
  size_t primed_ = 0;
  std::set<std::string> identities_;
  std::vector<size_t> by_family_[4];  // variant indices per family
  std::vector<Plan> plan_;
  std::map<size_t, Case> cases_;
  std::unique_ptr<ps::ArtifactCache> store_;
  Solve last_;
};

// ---------------------------------------------------------------------------
// project-rebuild: the compile-to-C deliverable through CompileService.
// The service runs without an artifact-cache directory, so every op
// compiles the whole project. With one, the op was mostly the cache's
// file-system calls, whose cost on the virtual machine the baseline was
// recorded on swung by up to 1.6x between runs minutes apart; see
// README.md. edit-run keeps the ArtifactCache on the measured path.
// ---------------------------------------------------------------------------

class ProjectRebuildWorkload : public Workload {
 public:
  explicit ProjectRebuildWorkload(const Env& env)
      : env_(env),
        units_count_(env.smoke ? 8 : 32),
        edits_per_op_(env.smoke ? 2 : 4) {}

  double tail_percentile() const override { return 99; }

  void generate(uint64_t seed, Digest& digest) override {
    Rng rng(stream_seed(seed, 6));
    plan_rng_ = Rng(stream_seed(seed, 7));
    // A quarter of the units are EQN relaxations (Jacobi and Gauss-Seidel
    // alternating); the PS units cycle through all four families. Only
    // the coefficients are drawn, so every seed builds the same mix.
    size_t next_ps_family = 0;
    for (size_t u = 0; u < units_count_; ++u) {
      Unit unit;
      unit.eqn = u % 4 == 0;
      const auto family = static_cast<Family>(
          unit.eqn ? (u / 4) % 2 : next_ps_family++ % 4);
      unit.variant = draw_variant(rng, family, module_name(u, 0));
      by_family_[static_cast<size_t>(family)].push_back(u);
      units_.push_back(std::move(unit));
    }
    extend_plan(env_.smoke ? 64 : kPlanOps);
    for (const Unit& unit : units_) digest.add(unit_source(unit));
    for (const Edit& edit : plan_) {
      for (size_t i = 0; i < edit.units.size(); ++i) {
        digest.add(static_cast<int64_t>(edit.units[i]));
        digest.add(ps_source(edit.variants[i]));
      }
    }
    for (Unit& unit : units_) refresh_reference(unit);
  }

  void reset() override { service_.reset(); }

  /// A fresh service and its cold build of the whole project.
  void setup() override {
    ps::ServiceOptions options;
    options.jobs = env_.pool->size();
    service_ = std::make_unique<ps::CompileService>(options);
    response_ = request();
    for (const ps::ServiceUnit& unit : response_.units)
      if (!unit.ok) throw std::runtime_error("set-up compile failed");
  }

  /// Apply op `op`'s edits and compute the C they must compile to.
  void prepare(int64_t op) override {
    extend_plan(op + 1);
    const Edit& edit = plan_[op];
    for (size_t i = 0; i < edit.units.size(); ++i) {
      Unit& unit = units_[edit.units[i]];
      unit.variant = edit.variants[i];
      refresh_reference(unit);
    }
  }

  void run(int64_t, LayerStats&) override {
    response_ = request();
    Scope scope(*env_.spans, "service.render");
    rendered_.clear();
    ps::RenderFlags flags;
    flags.c_code = true;
    for (const ps::ServiceUnit& unit : response_.units)
      if (unit.artifact) rendered_ += ps::render_artifact(*unit.artifact, flags);
  }

  std::string verify(int64_t) override {
    if (response_.units.size() != units_.size())
      return "response has " + std::to_string(response_.units.size()) +
             " units";
    for (size_t u = 0; u < units_.size(); ++u) {
      const ps::ServiceUnit& got = response_.units[u];
      const Unit& want = units_[u];
      if (!got.ok || !got.artifact) return got.name + ": not ok";
      if (got.engine_tier != "bytecode")
        return got.name + ": tier " + got.engine_tier;
      const ps::UnitArtifact& art = *got.artifact;
      if (art.primary.c_code != want.primary_c)
        return got.name + ": C differs from an uncached compile";
      if (art.has_transform != !want.transformed_c.empty() ||
          (art.has_transform && art.transformed.c_code != want.transformed_c))
        return got.name + ": transformed C differs from an uncached compile";
    }
    return {};
  }

  void corrupt_output() override {
    ps::ServiceUnit& unit = response_.units.front();
    auto damaged = std::make_shared<ps::UnitArtifact>(*unit.artifact);
    damaged->primary.c_code += " ";
    unit.artifact = damaged;
  }

 private:
  struct Unit {
    Variant variant;
    bool eqn = false;
    std::string primary_c;      // from an uncached Compiler::compile
    std::string transformed_c;  // empty when no transform applies
  };
  struct Edit {
    std::vector<size_t> units;
    std::vector<Variant> variants;
  };

  static std::string module_name(size_t unit, int64_t rev) {
    return "U" + std::to_string(unit) + "r" + std::to_string(rev);
  }
  static std::string unit_source(const Unit& unit) {
    return unit.eqn ? eqn_source(unit.variant) : ps_source(unit.variant);
  }
  std::string unit_name(size_t u) const {
    return "u" + std::to_string(u) + (units_[u].eqn ? ".eqn" : ".ps");
  }

  /// Each op edits one seeded unit of each of the first `edits_per_op_`
  /// families (so every op recompiles the same mix): new coefficients
  /// and a new revision in the module name, so every edit is new
  /// content.
  void extend_plan(int64_t ops) {
    while (static_cast<int64_t>(plan_.size()) < ops) {
      Edit edit;
      for (size_t f = 0; f < edits_per_op_; ++f) {
        const std::vector<size_t>& units = by_family_[f];
        const auto u = units[static_cast<size_t>(
            plan_rng_.between(0, static_cast<int64_t>(units.size()) - 1))];
        edit.units.push_back(u);
        edit.variants.push_back(draw_variant(plan_rng_,
                                             units_[u].variant.family,
                                             module_name(u, ++revisions_[u])));
      }
      plan_.push_back(std::move(edit));
    }
  }

  ps::ServiceResponse request() {
    ps::ServiceRequest req;
    req.options = compile_options(true);
    for (size_t u = 0; u < units_.size(); ++u)
      req.units.push_back({unit_name(u), unit_source(units_[u]), units_[u].eqn});
    Scope scope(*env_.spans, "service.request");
    return service_->compile(req);
  }

  /// The unit's C from an uncached Compiler::compile (EQN units through
  /// the EQN translator first, as psc does).
  void refresh_reference(Unit& unit) {
    SpanRecorder& spans = *env_.spans;
    std::string source = ps_source(unit.variant);
    if (unit.eqn) {
      Scope scope(spans, "eqn.translate");
      ps::DiagnosticEngine diags;
      auto ast = ps::eqn::equations_to_ps(eqn_source(unit.variant), diags);
      if (!ast) throw std::runtime_error("EQN translation failed");
      source = to_source(*ast);
    }
    ps::CompileResult result = compile(spans, source, true);
    unit.primary_c = result.primary->c_code;
    unit.transformed_c = result.transformed ? result.transformed->c_code : "";
  }

  Env env_;
  size_t units_count_;
  size_t edits_per_op_;
  std::vector<Unit> units_;
  std::map<size_t, int64_t> revisions_;
  std::vector<size_t> by_family_[4];  // unit indices per family
  Rng plan_rng_{0};
  std::vector<Edit> plan_;
  std::unique_ptr<ps::CompileService> service_;
  ps::ServiceResponse response_;
  std::string rendered_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "gs-wavefront", "skewed-wavefront", "jacobi-doall", "edit-run",
      "project-rebuild"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        const Env& env) {
  const bool smoke = env.smoke;
  if (name == "gs-wavefront") {
    return std::make_unique<SolveWorkload>(
        env, SolveConfig{1, ps::kGaussSeidelSource, true,
                         ps::EvalEngine::Native, smoke ? 16 : 256,
                         smoke ? 8 : 64, {"newA"}, 95,
                         [](const ref::Grid& in, int64_t m, int64_t k) {
                           return Outputs{ref::paper_relax(in, m, k, true)};
                         }});
  }
  if (name == "skewed-wavefront") {
    return std::make_unique<SolveWorkload>(
        env, SolveConfig{2, kSkewedSource, true, ps::EvalEngine::Bytecode,
                         smoke ? 16 : 128, smoke ? 6 : 16,
                         {"newA", "diag", "edge"}, 95,
                         [](const ref::Grid& in, int64_t m, int64_t k) {
                           ref::SkewedOutputs r = ref::skewed_relax(in, m, k);
                           return Outputs{r.new_a, r.diag, r.edge};
                         }});
  }
  if (name == "jacobi-doall") {
    return std::make_unique<SolveWorkload>(
        env, SolveConfig{3, ps::kRelaxationSource, false,
                         ps::EvalEngine::Native, smoke ? 16 : 384,
                         smoke ? 6 : 32, {"newA"}, 95,
                         [](const ref::Grid& in, int64_t m, int64_t k) {
                           return Outputs{ref::paper_relax(in, m, k, false)};
                         }});
  }
  if (name == "edit-run") return std::make_unique<EditRunWorkload>(env);
  if (name == "project-rebuild")
    return std::make_unique<ProjectRebuildWorkload>(env);
  return nullptr;
}

std::vector<std::string> check_references_against_tree_walk() {
  std::vector<std::string> failures;
  SpanRecorder spans;  // disabled
  LayerStats stats;
  Rng rng(stream_seed(0, 8));
  const int64_t m = 6;
  const int64_t k = 5;
  ref::Grid grid(static_cast<size_t>((m + 2) * (m + 2)));
  fill_sixteenths(rng, grid);

  auto run_tree_walk = [&](const std::string& what, const std::string& source,
                           const ps::IntEnv& sizes,
                           const std::vector<Input>& inputs,
                           const std::vector<std::string>& outputs,
                           const Outputs& expected) {
    try {
      ps::CompileResult compiled = compile(spans, source, false);
      Solve got = solve(spans, compiled, sizes,
                        {ps::EvalEngine::TreeWalk, nullptr, nullptr}, inputs,
                        outputs, stats);
      for (size_t i = 0; i < outputs.size(); ++i) {
        std::string e = compare(got.outputs[i], expected[i], outputs[i]);
        if (!e.empty()) failures.push_back(what + ": " + e);
      }
    } catch (const std::exception& e) {
      failures.push_back(what + ": " + e.what());
    }
  };

  const ps::IntEnv grid_sizes{{"M", m}, {"maxK", k}};
  run_tree_walk("paper gauss-seidel", ps::kGaussSeidelSource, grid_sizes,
                {{"InitialA", &grid}}, {"newA"},
                {ref::paper_relax(grid, m, k, true)});
  run_tree_walk("paper jacobi", ps::kRelaxationSource, grid_sizes,
                {{"InitialA", &grid}}, {"newA"},
                {ref::paper_relax(grid, m, k, false)});
  ref::SkewedOutputs skewed = ref::skewed_relax(grid, m, k);
  run_tree_walk("skewed", kSkewedSource, grid_sizes, {{"InitialA", &grid}},
                {"newA", "diag", "edge"},
                {skewed.new_a, skewed.diag, skewed.edge});
  for (int f = 0; f < 4; ++f) {
    const Variant v =
        draw_variant(rng, static_cast<Family>(f), "Check" + std::to_string(f));
    const Case c = make_case(v, rng.next(), true);
    run_tree_walk(std::string("variant ") + family_name(v.family),
                  ps_source(v), c.sizes, {{c.input, &c.in}}, {c.output},
                  {c.expected});
  }
  return failures;
}

}  // namespace e2e
