// The benchmark's own trace: spans recorded around each call into a layer
// of the library, kept in memory and written out when the run ends.
//
//   SpanRecorder rec;
//   rec.BeginRequest(7);
//   {
//     SpanScope request(&rec, "request");
//     { SpanScope s(&rec, "task_build"); ... }
//   }
//
// One recorder serves one thread (the replays are single-threaded). A
// disabled recorder records nothing, which is how the untraced replay that
// prices the trace's own overhead runs the same code.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the recorder's spans; -1 = root
  int64_t request = 0;
  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled = true) : enabled_(enabled) {}

  void BeginRequest(int64_t id) { request_ = id; }
  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  // Durations (ms) of every span called `name`.
  std::vector<double> DurationsMs(const std::string& name) const;

  // Self time per span name: duration minus the part its children cover.
  std::map<std::string, double> SelfTimeMs() const;

  // The coverage gate: for every span name that has children, the
  // children's summed time over all its instances must be at least
  // `min_share` of the parents' summed time. Returns the names that fall
  // short (with their share), empty when the gate passes.
  std::vector<std::string> UncoveredParents(double min_share) const;

  // Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  friend class SpanScope;
  bool enabled_;
  int64_t request_ = 0;
  int32_t current_ = -1;
  std::vector<Span> spans_;
};

class SpanScope {
 public:
  SpanScope(SpanRecorder* rec, const char* name);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* rec_;
  int32_t index_ = -1;
};

int64_t NowNs();

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
