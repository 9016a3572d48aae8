#include "spans.h"

#include <chrono>
#include <cstdio>
#include <fstream>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanScope::SpanScope(SpanRecorder* rec, const char* name) : rec_(rec) {
  if (!rec_->enabled_) return;
  index_ = static_cast<int32_t>(rec_->spans_.size());
  Span s;
  s.name = name;
  s.parent = rec_->current_;
  s.request = rec_->request_;
  rec_->spans_.push_back(s);
  rec_->current_ = index_;
  // Read the clock last so the bookkeeping above is charged to the parent.
  rec_->spans_[static_cast<size_t>(index_)].start_ns = NowNs();
}

SpanScope::~SpanScope() {
  if (index_ < 0) return;
  Span& s = rec_->spans_[static_cast<size_t>(index_)];
  s.end_ns = NowNs();
  rec_->current_ = s.parent;
}

std::vector<double> SpanRecorder::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(s.ms());
  }
  return out;
}

namespace {

// Per span: the summed duration of its direct children.
std::vector<int64_t> ChildNs(const std::vector<Span>& spans) {
  std::vector<int64_t> child(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  return child;
}

}  // namespace

std::map<std::string, double> SpanRecorder::SelfTimeMs() const {
  const std::vector<int64_t> child = ChildNs(spans_);
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns - child[i]) / 1e6;
  }
  return out;
}

std::vector<std::string> SpanRecorder::UncoveredParents(
    double min_share) const {
  const std::vector<int64_t> child = ChildNs(spans_);
  std::vector<char> has_child(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) has_child[static_cast<size_t>(s.parent)] = 1;
  }
  struct Sum {
    double parent = 0, covered = 0;
  };
  std::map<std::string, Sum> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (!has_child[i]) continue;
    Sum& sum = by_name[spans_[i].name];
    sum.parent += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    sum.covered += static_cast<double>(child[i]);
  }
  std::vector<std::string> out;
  for (const auto& [name, sum] : by_name) {
    const double share = sum.parent > 0 ? sum.covered / sum.parent : 1.0;
    if (share < min_share) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), " (children cover %.3f)", share);
      out.push_back(name + buf);
    }
  }
  return out;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_ns\":"
        << s.start_ns << ",\"end_ns\":" << s.end_ns << ",\"parent\":"
        << s.parent << ",\"request\":" << s.request << "}\n";
  }
  return out.good();
}

}  // namespace perfbench
