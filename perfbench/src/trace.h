#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// One timed call into a layer's public function, recorded by the
// benchmark around the call (nothing inside src/ is instrumented).
struct Span {
  std::string layer;  // "minidb.sql", "core.engine", ...
  std::string name;   // the public function, e.g. "ExecuteSql"
  int64_t start_ns = 0;
  int64_t end_ns = -1;  // -1 while open
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // shared by every span of one query or request
  int tid = 0;
};

// In-memory span store. Spans are kept until the run ends and written
// out once; recording takes a mutex because the serve workload records
// from its client threads. A disabled tracer records nothing and Begin
// returns 0, which End ignores.
class Tracer {
 public:
  explicit Tracer(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  uint64_t Begin(std::string_view layer, std::string_view name,
                 uint64_t parent = 0, uint64_t request = 0, int tid = 0);
  void End(uint64_t id);

  std::vector<Span> spans() const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // index = id - 1
};

// RAII span; a null or disabled tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view layer, std::string_view name,
             uint64_t parent = 0, uint64_t request = 0, int tid = 0)
      : tracer_(tracer),
        id_(tracer != nullptr && tracer->enabled()
                ? tracer->Begin(layer, name, parent, request, tid)
                : 0) {}
  ~ScopedSpan() {
    if (id_ != 0) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint64_t id_;
};

// Monotonic nanoseconds (steady_clock).
int64_t NowNanos();

// Self time of every closed span: its duration minus the part of its
// interval covered by the union of its children's intervals (children
// may overlap when they ran on several threads). Index-aligned with
// `spans`.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

// Sums self time in seconds per layer.
std::map<std::string, double> SelfSecondsByLayer(
    const std::vector<Span>& spans);

// Chrome trace-event JSON ("X" complete events, microsecond timestamps
// relative to the first span), which Perfetto and chrome://tracing open.
std::string ChromeTraceJson(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
