#include "spans.hpp"

#include <cstdio>

#include "support/telemetry.hpp"

namespace e2e {

SpanRecorder::SpanRecorder()
    : anchor_(std::chrono::steady_clock::now()),
      anchor_us_(static_cast<double>(ps::trace_now_us())) {}

double SpanRecorder::now_us() const {
  return anchor_us_ + std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - anchor_)
                          .count();
}

int SpanRecorder::open(const char* name) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.op = op_;
  span.start_us = now_us();
  spans_.push_back(span);
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void SpanRecorder::close(int id) {
  spans_[id].end_us = now_us();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void SpanRecorder::add_reported(const char* name, double start_us,
                                double dur_us) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.op = op_;
  span.start_us = start_us;
  span.end_us = start_us + dur_us;
  spans_.push_back(span);
}

std::string SpanRecorder::chrome_events(int pid) const {
  std::string out;
  char buf[384];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"bench\",\"ph\":\"X\","
                  "\"pid\":%d,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"op\":%lld,\"id\":%zu,\"parent\":%d}}",
                  i == 0 ? "" : ",\n", s.name, pid, s.start_us,
                  s.end_us - s.start_us, static_cast<long long>(s.op), i,
                  s.parent);
    out += buf;
  }
  return out;
}

}  // namespace e2e
