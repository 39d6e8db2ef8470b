#pragma once

// The harness's own trace: spans around every public call it makes,
// kept in memory and written out once as Chrome trace-event JSON. Spans
// of one op share its op id; setup spans carry op -1 and verification
// spans op -2. When the recorder is disabled a Scope reads no clock.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

inline constexpr int64_t kSetupOp = -1;
inline constexpr int64_t kVerifyOp = -2;

class SpanRecorder {
 public:
  struct Span {
    const char* name = nullptr;
    double start_us = 0;  // trace-epoch microseconds (ps::trace_now_us)
    double end_us = 0;
    int parent = -1;  // index of the parent span, -1 for a root
    int64_t op = 0;
  };

  SpanRecorder();

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Op id stamped on spans opened from now on.
  void set_op(int64_t op) { op_ = op; }

  /// Current time on the trace epoch, sub-microsecond resolution.
  [[nodiscard]] double now_us() const;

  int open(const char* name);
  void close(int id);
  /// A child of the innermost open span whose duration the program
  /// reported itself (pass timings, the cc compile time): laid out from
  /// `start_us`, which the caller picks inside the parent.
  void add_reported(const char* name, double start_us, double dur_us);

  /// The spans as trace events (comma-separated, no brackets) under
  /// process `pid`, with args {op, id, parent}.
  [[nodiscard]] std::string chrome_events(int pid) const;

 private:
  bool enabled_ = false;
  int64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::chrono::steady_clock::time_point anchor_;
  double anchor_us_ = 0;
};

/// RAII span; a no-op when the recorder is disabled.
class Scope {
 public:
  Scope(SpanRecorder& recorder, const char* name)
      : recorder_(recorder),
        id_(recorder.enabled() ? recorder.open(name) : -1) {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() {
    if (id_ >= 0) recorder_.close(id_);
  }

 private:
  SpanRecorder& recorder_;
  const int id_;
};

}  // namespace e2e
