#include "src/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "src/json.h"

namespace perfbench {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t Tracer::Begin(std::string_view layer, std::string_view name,
                       uint64_t parent, uint64_t request, int tid) {
  if (!enabled_) return 0;
  Span span;
  span.layer = std::string(layer);
  span.name = std::string(name);
  span.parent = parent;
  span.request = request;
  span.tid = tid;
  span.start_ns = NowNanos();
  std::lock_guard<std::mutex> lock(mutex_);
  span.id = spans_.size() + 1;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::End(uint64_t id) {
  if (id == 0) return;
  const int64_t now = NowNanos();
  std::lock_guard<std::mutex> lock(mutex_);
  if (id <= spans_.size()) spans_[id - 1].end_ns = now;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::map<uint64_t, size_t> index_of;
  for (size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent == 0 || span.end_ns < 0) continue;
    auto parent = index_of.find(span.parent);
    if (parent == index_of.end()) continue;
    children[parent->second].emplace_back(span.start_ns, span.end_ns);
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.end_ns < 0) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = span.start_ns;  // end of the union so far
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, span.end_ns);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    self[i] = (span.end_ns - span.start_ns) - covered;
  }
  return self;
}

std::map<std::string, double> SelfSecondsByLayer(
    const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimes(spans);
  std::map<std::string, double> by_layer;
  for (size_t i = 0; i < spans.size(); ++i) {
    by_layer[spans[i].layer] += static_cast<double>(self[i]) / 1e9;
  }
  return by_layer;
}

std::string ChromeTraceJson(const std::vector<Span>& spans) {
  int64_t origin = 0;
  for (const Span& span : spans) {
    if (origin == 0 || span.start_ns < origin) origin = span.start_ns;
  }
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char number[64];
  for (const Span& span : spans) {
    if (span.end_ns < 0) continue;
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":" + JsonQuote(span.name) +
           ",\"cat\":" + JsonQuote(span.layer) + ",\"ph\":\"X\",\"ts\":";
    std::snprintf(number, sizeof(number), "%.3f",
                  static_cast<double>(span.start_ns - origin) / 1e3);
    out += number;
    out += ",\"dur\":";
    std::snprintf(number, sizeof(number), "%.3f",
                  static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    out += number;
    out += ",\"pid\":1,\"tid\":" + std::to_string(span.tid) +
           ",\"args\":{\"id\":" + std::to_string(span.id) +
           ",\"parent\":" + std::to_string(span.parent) +
           ",\"request\":" + std::to_string(span.request) + "}}";
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
