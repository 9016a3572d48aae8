// Tests of the benchmark's own helpers: the percentile rule, the rate
// ladder and its backlog check, the seeded generators, and the span
// coverage gate. Run: .bench_build/perfbench/perfbench_helpers_test
// (built by `python3 perfbench/run.py --selftest`). Exit 0 = all pass.
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "graph/delta.h"
#include "helpers.h"
#include "spans.h"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,     \
                   __LINE__, #cond);                                   \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

using perfbench::Tail;

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentileRule() {
  // 2000 samples: p99 has 20 beyond it, reported as asked.
  Tail t = perfbench::TailPercentile(OneTo(2000), 99);
  EXPECT(t.value == 1980 && t.count == 2000 && t.percentile == 99);
  // 1000 samples: p99 (rank 990) has exactly 10 beyond it.
  t = perfbench::TailPercentile(OneTo(1000), 99);
  EXPECT(t.value == 990 && std::fabs(t.percentile - 99) < 1e-9);
  // 200 samples: p99 would leave 2 beyond; clamp to rank 190 = p95.
  t = perfbench::TailPercentile(OneTo(200), 99);
  EXPECT(t.value == 190 && std::fabs(t.percentile - 95) < 1e-9);
  EXPECT(t.count == 200);
  // 10 or fewer samples: only the median is supported.
  t = perfbench::TailPercentile(OneTo(10), 99);
  EXPECT(t.value == 5 && t.count == 10);
  // A median is never clamped.
  t = perfbench::TailPercentile(OneTo(101), 50);
  EXPECT(t.value == 51);
  EXPECT(perfbench::Median(OneTo(7)) == 4);
  EXPECT(perfbench::Mean(OneTo(7)) == 4);
  EXPECT(perfbench::Mean({}) == 0);
  t = perfbench::TailPercentile({}, 99);
  EXPECT(t.count == 0 && t.value == 0);
  // Chunks: 2500 samples in runs of 1000 -> two runs, the second 1500 long.
  std::vector<double> two_runs;
  for (int i = 0; i < 2500; ++i) two_runs.push_back(i < 1000 ? i : 5000 + i);
  const auto runs = perfbench::ChunkTails(two_runs, 99, 1000);
  EXPECT(runs.size() == 2 && runs[0].value == 989 && runs[0].count == 1000);
  EXPECT(runs[1].count == 1500 && runs[1].value == 5000 + 1000 + 1484);
  EXPECT(perfbench::ChunkTails(OneTo(300), 99, 1000).size() == 1);
}

int Search(int rungs, const std::function<bool(int)>& passes, int* probes) {
  perfbench::Ladder ladder(rungs);
  *probes = 0;
  while (!ladder.done()) {
    ++*probes;
    ladder.Report(passes(ladder.next()));
  }
  return ladder.best();
}

void TestLadder() {
  EXPECT(perfbench::LadderRate(100, 1.05, 0) == 100);
  EXPECT(std::fabs(perfbench::LadderRate(100, 1.05, 2) - 110.25) < 1e-9);
  for (int limit = -1; limit < 64; ++limit) {
    int probes = 0;
    // Noiseless: the exact limit, every failing rung probed twice.
    EXPECT(Search(64, [&](int rung) {
             EXPECT(rung >= 0 && rung < 64);
             return rung <= limit;
           }, &probes) == limit);
    EXPECT(probes <= 2 * 7);  // 2 * ceil(log2(65))
    // One spurious failure per rung (a host stall) does not move the result.
    std::set<int> seen;
    EXPECT(Search(64, [&](int rung) {
             return seen.insert(rung).second ? false : rung <= limit;
           }, &probes) == limit);
  }
  // Two failures in a row do count.
  int probes = 0;
  EXPECT(Search(64, [](int rung) { return rung < 31; }, &probes) == 30);
}

void TestBacklog() {
  std::vector<int64_t> steady(400, 2);
  for (size_t i = 0; i < steady.size(); i += 7) steady[i] = 5;
  EXPECT(!perfbench::BacklogGrows(steady, 3));
  std::vector<int64_t> growing;
  for (int i = 0; i < 400; ++i) growing.push_back(1 + i / 10);
  EXPECT(perfbench::BacklogGrows(growing, 3));
  EXPECT(!perfbench::BacklogGrows({1, 9, 20}, 3));  // too few samples
}

void TestGeneratorsAreSeeded() {
  perfbench::ZipfSampler zipf(2000, 1.1);
  cgnp::Rng a(5), b(5), c(6);
  std::vector<int64_t> ra, rb, rc;
  for (int i = 0; i < 5000; ++i) {
    ra.push_back(zipf.Next(&a));
    rb.push_back(zipf.Next(&b));
    rc.push_back(zipf.Next(&c));
  }
  EXPECT(ra == rb);
  EXPECT(ra != rc);
  int64_t top = 0;
  for (int64_t r : ra) {
    EXPECT(r >= 0 && r < 2000);
    top += r == 0;
  }
  EXPECT(top > 5000 / 20);  // rank 0 is the most popular by far

  cgnp::Rng pa(9), pb(9);
  const auto ta = perfbench::PoissonArrivals(1000, 2.0, &pa);
  const auto tb = perfbench::PoissonArrivals(1000, 2.0, &pb);
  EXPECT(ta == tb);
  EXPECT(ta.size() > 1800 && ta.size() < 2200);
  for (size_t i = 1; i < ta.size(); ++i) {
    EXPECT(ta[i] > ta[i - 1] && ta[i] < 2.0);
  }
}

void TestEditStream() {
  cgnp::SyntheticConfig cfg;
  cfg.num_nodes = 600;
  cfg.num_communities = 6;
  cgnp::Rng rng(3);
  auto g = std::make_shared<const cgnp::Graph>(
      cgnp::GenerateSyntheticGraph(cfg, &rng));
  const auto a = perfbench::MakeEditStream(*g, 500, 0.75, 17);
  const auto b = perfbench::MakeEditStream(*g, 500, 0.75, 17);
  const auto c = perfbench::MakeEditStream(*g, 500, 0.75, 18);
  EXPECT(a.size() == 500);
  bool same = a.size() == b.size(), differs = false;
  int64_t deletes = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    same = same && a[i].insert == b[i].insert && a[i].u == b[i].u &&
           a[i].v == b[i].v;
    differs = differs || a[i].u != c[i].u || a[i].v != c[i].v;
    deletes += !a[i].insert;
    EXPECT(a[i].insert == (i % 4 != 0));  // the share holds in every run
  }
  EXPECT(same);
  EXPECT(differs);
  EXPECT(deletes == 125);  // a quarter of 500, exactly
  // Applied in order, no edit fails and every insert changes the graph:
  // deletes only target present edges, inserts only absent ones.
  cgnp::GraphDelta delta(g);
  for (const cgnp::GraphEdit& e : a) {
    EXPECT(e.u != e.v);
    EXPECT(delta.HasEdge(e.u, e.v) != e.insert);
    EXPECT(delta.Apply(e).ok());
  }
}

void TestCoverageGate() {
  perfbench::SpanRecorder rec;
  {
    perfbench::SpanScope parent(&rec, "parent");
    perfbench::SpanScope child(&rec, "child");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT(rec.UncoveredParents(0.95).empty());
  {
    perfbench::SpanScope parent(&rec, "leaky");
    { perfbench::SpanScope child(&rec, "child"); }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const auto bad = rec.UncoveredParents(0.95);
  EXPECT(bad.size() == 1 && bad[0].rfind("leaky", 0) == 0);
  const auto self = rec.SelfTimeMs();
  EXPECT(self.at("leaky") > 1.0 && self.at("parent") < 1.0);
  EXPECT(rec.spans()[1].parent == 0 && rec.spans()[0].parent == -1);
  perfbench::SpanRecorder off(false);
  { perfbench::SpanScope s(&off, "x"); }
  EXPECT(off.spans().empty());
}

}  // namespace

int main() {
  TestPercentileRule();
  TestLadder();
  TestBacklog();
  TestGeneratorsAreSeeded();
  TestEditStream();
  TestCoverageGate();
  if (g_failures == 0) std::printf("perfbench helpers: all tests passed\n");
  return g_failures == 0 ? 0 : 1;
}
