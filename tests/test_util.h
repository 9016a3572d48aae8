// Shared test helpers: finite-difference gradient checking, small graph
// fixtures, and byte-surgery utilities for on-disk corruption tests.
#ifndef CGNP_TESTS_TEST_UTIL_H_
#define CGNP_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "graph/graph.h"
#include "gtest/gtest.h"
#include "tensor/tensor.h"

namespace cgnp {
namespace testing {

// Checks d(scalar f)/d(x) against central finite differences for every
// element of x. `f` must rebuild the computation from scratch on each call
// (x's data is perturbed in place).
inline void CheckGradient(Tensor x, const std::function<Tensor()>& f,
                          float eps = 1e-2f, float rtol = 5e-2f,
                          float atol = 5e-3f) {
  ASSERT_TRUE(x.requires_grad());
  // Analytic gradient.
  Tensor loss = f();
  ASSERT_EQ(loss.numel(), 1);
  x.ZeroGrad();
  loss.Backward();
  std::vector<float> analytic(x.grad().begin(), x.grad().end());

  float* data = x.data();
  for (int64_t i = 0; i < x.numel(); ++i) {
    const float orig = data[i];
    data[i] = orig + eps;
    const float hi = f().Item();
    data[i] = orig - eps;
    const float lo = f().Item();
    data[i] = orig;
    const float numeric = (hi - lo) / (2.0f * eps);
    const float tol = atol + rtol * std::fabs(numeric);
    EXPECT_NEAR(analytic[i], numeric, tol)
        << "gradient mismatch at flat index " << i;
  }
}

// Node v's attribute ids as a vector, so EXPECT_EQ can compare them with a
// literal or with another graph's (Graph::Attributes returns a span).
inline std::vector<int32_t> AttrVec(const Graph& g, NodeId v) {
  const auto a = g.Attributes(v);
  return {a.begin(), a.end()};
}

// Path graph 0-1-2-...-(n-1).
inline Graph PathGraph(int64_t n) {
  GraphBuilder b(n);
  for (int64_t i = 0; i + 1 < n; ++i) b.AddEdge(i, i + 1);
  return b.Build();
}

// Complete graph K_n.
inline Graph CompleteGraph(int64_t n) {
  GraphBuilder b(n);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i + 1; j < n; ++j) b.AddEdge(i, j);
  }
  return b.Build();
}

// Two K_4 cliques bridged by a single edge (3-4); a classic two-community
// fixture. Nodes 0-3 = community 0, nodes 4-7 = community 1.
inline Graph TwoCliqueGraph() {
  GraphBuilder b(8);
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = i + 1; j < 4; ++j) {
      b.AddEdge(i, j);
      b.AddEdge(i + 4, j + 4);
    }
  }
  b.AddEdge(3, 4);
  b.SetCommunities({0, 0, 0, 0, 1, 1, 1, 1});
  return b.Build();
}

// ---- Byte surgery for on-disk format corruption tests --------------------
//
// The checkpoint and graph-container test batteries share one discipline:
// write a good file once, then derive corrupted variants as byte strings
// and assert every variant loads to a clean non-OK Status. These helpers
// keep that surgery in one place.

// Slurps a file; fails the test (via ADD_FAILURE) and returns "" when the
// file cannot be read.
inline std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    ADD_FAILURE() << "cannot read " << path;
    return "";
  }
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Writes `bytes` to `path`, replacing any previous contents.
inline void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << "cannot write " << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  ASSERT_TRUE(out.good()) << "short write to " << path;
}

// First `keep` bytes of `bytes` (a truncation-at-offset variant).
inline std::string WithTruncation(const std::string& bytes, size_t keep) {
  EXPECT_LE(keep, bytes.size());
  return bytes.substr(0, std::min(keep, bytes.size()));
}

// `bytes` with the byte at `offset` XOR-flipped (guaranteed different).
inline std::string WithByteFlipped(const std::string& bytes, size_t offset) {
  EXPECT_LT(offset, bytes.size());
  std::string out = bytes;
  if (offset < out.size()) out[offset] = static_cast<char>(out[offset] ^ 0x5A);
  return out;
}

// `bytes` with `value`'s object representation spliced in at `offset`
// (little-endian on every supported target, matching the on-disk formats).
template <typename T>
inline std::string WithPatch(const std::string& bytes, size_t offset,
                             const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  EXPECT_LE(offset + sizeof(T), bytes.size());
  std::string out = bytes;
  if (offset + sizeof(T) <= out.size()) {
    std::memcpy(out.data() + offset, &value, sizeof(T));
  }
  return out;
}

}  // namespace testing
}  // namespace cgnp

#endif  // CGNP_TESTS_TEST_UTIL_H_
