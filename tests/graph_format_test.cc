// Corruption / round-trip battery for the binary graph container
// (graph/format.h, docs/GRAPH_FORMAT.md).
//
// Discipline: write one good file, derive corrupted byte-string variants
// with the tests/test_util.h surgery helpers, and drive every variant
// through BOTH load paths (copying LoadGraphBinary and mmap-backed
// MapGraphBinary) plus ReadGraphFileInfo. Every corruption must come back
// as a clean non-OK Status -- never an abort, never an out-of-bounds read
// (the suite runs under ASan/UBSan and TSan in CI).
#include "graph/format.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/engine.h"
#include "cs/searcher.h"
#include "data/io.h"
#include "data/synthetic.h"
#include "graph/storage.h"
#include "gtest/gtest.h"
#include "serve/query_server.h"
#include "tests/test_util.h"

namespace cgnp {
namespace {

// On-disk layout constants the surgery below relies on; pinned in
// docs/GRAPH_FORMAT.md (a layout change is a format-version change).
constexpr size_t kHeaderBytes = 48;
constexpr size_t kEntryBytes = 32;
constexpr size_t kHeaderVersionOff = 4;
constexpr size_t kHeaderNumNodesOff = 8;
constexpr size_t kHeaderFeatureDimOff = 24;
constexpr size_t kHeaderNumAttrIdsOff = 32;
constexpr size_t kHeaderSectionCountOff = 40;
constexpr size_t kHeaderReservedOff = 44;
constexpr size_t kEntryIdOff = 0;
constexpr size_t kEntryReservedOff = 4;
constexpr size_t kEntryOffsetOff = 8;
constexpr size_t kEntryBytesOff = 16;
constexpr size_t kEntryChecksumOff = 24;

std::string TempPath(const char* name) {
  return ::testing::TempDir() + name;
}

// A graph exercising every optional section: features, ragged attribute
// sets (some empty), community labels (some unlabelled).
Graph RichGraph(uint64_t seed = 7) {
  Rng rng(seed);
  const int64_t n = 120;
  GraphBuilder b(n);
  for (int64_t v = 0; v < n; ++v) {
    for (int j = 0; j < 4; ++j) b.AddEdge(v, rng.NextInt(n));
  }
  std::vector<float> feats(n * 8);
  for (auto& f : feats) f = rng.Normal();
  b.SetFeatures(8, std::move(feats));
  std::vector<std::vector<int32_t>> attrs(n);
  for (int64_t v = 0; v < n; ++v) {
    const int64_t count = rng.NextInt(4);  // some nodes attribute-free
    for (int64_t a = 0; a < count; ++a) {
      attrs[v].push_back(static_cast<int32_t>(rng.NextInt(16)));
    }
  }
  b.SetAttributes(std::move(attrs));
  std::vector<int64_t> comm(n);
  for (auto& c : comm) c = rng.NextInt(5) - 1;  // includes -1 = unlabelled
  b.SetCommunities(std::move(comm));
  return b.Build();
}

// Path graph 0-1-2-3 with attributes and communities: tiny enough that
// the CSR bytes are known exactly, so semantic corruption can be aimed at
// specific entries:
//   row_ptr  [0, 1, 3, 5, 6]
//   col_idx  [1, 0, 2, 1, 3, 2]
//   attr_ptr [0, 2, 2, 3, 4], attr_ids [1, 3, 2, 0]
Graph TinyGraph() {
  GraphBuilder b(4);
  for (int64_t i = 0; i + 1 < 4; ++i) b.AddEdge(i, i + 1);
  b.SetAttributes({{1, 3}, {}, {2}, {0}});
  b.SetCommunities({0, 0, 1, -1});
  return b.Build();
}

// Saves `g` and returns the file's bytes (the file is removed; variants
// are written back through WriteFile).
std::string SavedBytes(const Graph& g, const char* name) {
  const std::string path = TempPath(name);
  EXPECT_TRUE(SaveGraphBinary(g, path).ok());
  std::string bytes = testing::ReadFileOrDie(path);
  std::remove(path.c_str());
  return bytes;
}

// Asserts that `bytes` is rejected with DataLoss by every load path.
void ExpectRejected(const std::string& bytes, const std::string& tag) {
  const std::string path = TempPath("corrupt_variant.cgrf");
  testing::WriteFile(path, bytes);
  const auto loaded = LoadGraphBinary(path);
  ASSERT_FALSE(loaded.ok()) << tag << ": copying load accepted the file";
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
      << tag << ": " << loaded.status();
  const auto mapped = MapGraphBinary(path);
  ASSERT_FALSE(mapped.ok()) << tag << ": mapping load accepted the file";
  EXPECT_EQ(mapped.status().code(), StatusCode::kDataLoss)
      << tag << ": " << mapped.status();
  const auto info = ReadGraphFileInfo(path);
  EXPECT_FALSE(info.ok()) << tag << ": info accepted the file";
  std::remove(path.c_str());
}

// Index of section `id` within the file's table order.
size_t SectionIndex(const GraphFileInfo& info, GraphSectionId id) {
  for (size_t i = 0; i < info.sections.size(); ++i) {
    if (info.sections[i].id == static_cast<uint32_t>(id)) return i;
  }
  ADD_FAILURE() << "section " << static_cast<uint32_t>(id) << " not in file";
  return 0;
}

// Patches element `index` of section `id`'s payload to `value` and
// recomputes the section checksum, so the variant exercises the semantic
// validators rather than the checksum gate.
template <typename T>
std::string WithSectionValue(const std::string& bytes,
                             const GraphFileInfo& info, GraphSectionId id,
                             size_t index, T value) {
  const size_t i = SectionIndex(info, id);
  const auto& s = info.sections[i];
  std::string out =
      testing::WithPatch(bytes, s.offset + index * sizeof(T), value);
  const uint64_t sum = Fnv1a64(out.data() + s.offset, s.bytes);
  return testing::WithPatch(out, kHeaderBytes + kEntryBytes * i +
                                     kEntryChecksumOff, sum);
}

GraphFileInfo InfoOf(const std::string& bytes) {
  const std::string path = TempPath("info_probe.cgrf");
  testing::WriteFile(path, bytes);
  auto info = ReadGraphFileInfo(path);
  std::remove(path.c_str());
  EXPECT_TRUE(info.ok()) << info.status();
  return info.ok() ? *info : GraphFileInfo{};
}

// ---- Round trips ----------------------------------------------------------

void ExpectGraphsBitwiseEqual(const Graph& got, const Graph& want,
                              const std::string& tag) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes()) << tag;
  EXPECT_EQ(got.num_edges(), want.num_edges()) << tag;
  EXPECT_EQ(got.feature_dim(), want.feature_dim()) << tag;
  EXPECT_TRUE(std::ranges::equal(got.row_ptr(), want.row_ptr())) << tag;
  EXPECT_TRUE(std::ranges::equal(got.col_idx(), want.col_idx())) << tag;
  // Bitwise float equality: the container stores the in-memory
  // representation verbatim.
  EXPECT_TRUE(std::ranges::equal(got.features(), want.features())) << tag;
  EXPECT_TRUE(std::ranges::equal(got.communities(), want.communities()))
      << tag;
  EXPECT_EQ(got.has_attributes(), want.has_attributes()) << tag;
  for (NodeId v = 0; v < want.num_nodes(); ++v) {
    EXPECT_EQ(testing::AttrVec(got, v), testing::AttrVec(want, v))
        << tag << " node " << v;
  }
}

TEST(GraphFormatRoundTrip, VectorAndMappedAreBitwiseIdentical) {
  const Graph g = RichGraph();
  const std::string path = TempPath("rich.cgrf");
  ASSERT_TRUE(SaveGraphBinary(g, path).ok());

  const Graph loaded = LoadGraphBinary(path).value();
  const Graph mapped = MapGraphBinary(path).value();
  EXPECT_EQ(loaded.backing(), GraphBacking::kVector);
  EXPECT_EQ(mapped.backing(), GraphBacking::kMapped);
  ExpectGraphsBitwiseEqual(loaded, g, "loaded");
  ExpectGraphsBitwiseEqual(mapped, g, "mapped");

  // The mapped graph views its attribute sections in place: attr_ids()
  // points into the file's pages, not into a materialised copy. The file
  // starts row_ptr's section offset before row_ptr().data().
  const GraphFileInfo info = ReadGraphFileInfo(path).value();
  const auto row_ptr_section = std::ranges::find(
      info.sections, static_cast<uint32_t>(GraphSectionId::kRowPtr),
      &GraphFileInfo::Section::id);
  ASSERT_NE(row_ptr_section, info.sections.end());
  const auto file_start =
      reinterpret_cast<uintptr_t>(mapped.row_ptr().data()) -
      row_ptr_section->offset;
  const auto ids = reinterpret_cast<uintptr_t>(mapped.attr_ids().data());
  EXPECT_TRUE(ids >= file_start && ids < file_start + info.file_bytes);

  // Both paths install the same nonzero storage identity; the in-memory
  // original has none.
  EXPECT_NE(mapped.storage_fingerprint(), 0u);
  EXPECT_EQ(loaded.storage_fingerprint(), mapped.storage_fingerprint());
  EXPECT_EQ(g.storage_fingerprint(), 0u);
  std::remove(path.c_str());
}

TEST(GraphFormatRoundTrip, PropertyRandomGraphsAllSectionCombinations) {
  // Random graphs sweeping every optional-section combination (features /
  // attributes / communities on or off) and degenerate shapes (singleton,
  // empty edge set). Each must round-trip bitwise through both backings.
  const std::string path = TempPath("property.cgrf");
  Rng rng(99);
  for (int trial = 0; trial < 24; ++trial) {
    const bool with_features = trial & 1;
    const bool with_attrs = trial & 2;
    const bool with_comms = trial & 4;
    const int64_t n = 1 + rng.NextInt(60);
    const int64_t edges = rng.NextInt(4 * n);
    GraphBuilder b(n);
    for (int64_t e = 0; e < edges; ++e) {
      b.AddEdge(rng.NextInt(n), rng.NextInt(n));  // self loops dropped
    }
    if (with_features) {
      const int64_t d = 1 + rng.NextInt(6);
      std::vector<float> feats(n * d);
      for (auto& f : feats) f = rng.Normal();
      b.SetFeatures(d, std::move(feats));
    }
    if (with_attrs) {
      std::vector<std::vector<int32_t>> attrs(n);
      for (auto& a : attrs) {
        for (int64_t k = rng.NextInt(3); k > 0; --k) {
          a.push_back(static_cast<int32_t>(rng.NextInt(10)));
        }
      }
      b.SetAttributes(std::move(attrs));
    }
    if (with_comms) {
      std::vector<int64_t> comm(n);
      for (auto& c : comm) c = rng.NextInt(4) - 1;
      b.SetCommunities(std::move(comm));
    }
    const Graph g = b.Build();
    const std::string tag = "trial " + std::to_string(trial);
    ASSERT_TRUE(SaveGraphBinary(g, path).ok()) << tag;
    ExpectGraphsBitwiseEqual(LoadGraphBinary(path).value(), g,
                             tag + " loaded");
    ExpectGraphsBitwiseEqual(MapGraphBinary(path).value(), g,
                             tag + " mapped");
  }
  std::remove(path.c_str());
}

TEST(GraphFormatRoundTrip, MappedGraphSurvivesCopiesAndSourceScopeExit) {
  const std::string path = TempPath("copies.cgrf");
  const Graph g = RichGraph();
  ASSERT_TRUE(SaveGraphBinary(g, path).ok());
  Graph copy;
  {
    const Graph mapped = MapGraphBinary(path).value();
    copy = mapped;  // shares the mapping; original dies at scope exit
  }
  EXPECT_EQ(copy.backing(), GraphBacking::kMapped);
  ExpectGraphsBitwiseEqual(copy, g, "copy outliving the original");
  std::remove(path.c_str());
}

TEST(GraphFormatRoundTrip, FingerprintIsContentIdentity) {
  const std::string a = TempPath("fp_a.cgrf");
  const std::string b = TempPath("fp_b.cgrf");
  ASSERT_TRUE(SaveGraphBinary(RichGraph(7), a).ok());
  ASSERT_TRUE(SaveGraphBinary(RichGraph(7), b).ok());
  // Same content, different paths: identical fingerprint (a durable
  // cross-process cache key).
  EXPECT_EQ(ReadGraphFileInfo(a).value().fingerprint,
            ReadGraphFileInfo(b).value().fingerprint);
  ASSERT_TRUE(SaveGraphBinary(RichGraph(8), b).ok());
  EXPECT_NE(ReadGraphFileInfo(a).value().fingerprint,
            ReadGraphFileInfo(b).value().fingerprint);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(GraphFormatRoundTrip, InfoDescribesTheFile) {
  const Graph g = RichGraph();
  const std::string path = TempPath("info.cgrf");
  ASSERT_TRUE(SaveGraphBinary(g, path).ok());
  const GraphFileInfo info = ReadGraphFileInfo(path).value();
  EXPECT_EQ(info.num_nodes, static_cast<uint64_t>(g.num_nodes()));
  EXPECT_EQ(info.num_directed_edges, g.col_idx().size());
  EXPECT_EQ(info.feature_dim, static_cast<uint64_t>(g.feature_dim()));
  EXPECT_TRUE(info.has_attributes);
  EXPECT_TRUE(info.has_communities);
  EXPECT_EQ(info.file_bytes, testing::ReadFileOrDie(path).size());
  EXPECT_EQ(info.sections.size(), 6u);  // all sections present
  EXPECT_EQ(info.fingerprint,
            MapGraphBinary(path).value().storage_fingerprint());
  std::remove(path.c_str());
}

// ---- Corruption matrix ----------------------------------------------------

TEST(GraphFormatCorruption, MissingFileIsNotFound) {
  const std::string path = "/nonexistent/graph.cgrf";
  EXPECT_EQ(LoadGraphBinary(path).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(MapGraphBinary(path).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(ReadGraphFileInfo(path).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(serve::OpenMappedGraph(path).status().code(),
            StatusCode::kNotFound);
}

TEST(GraphFormatCorruption, EmptyFileIsDataLoss) {
  const std::string path = TempPath("empty.cgrf");
  testing::WriteFile(path, "");
  EXPECT_EQ(LoadGraphBinary(path).status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(MapGraphBinary(path).status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(GraphFormatCorruption, TruncationAtEveryBoundaryIsDataLoss) {
  const std::string bytes = SavedBytes(RichGraph(), "trunc_base.cgrf");
  const GraphFileInfo info = InfoOf(bytes);
  // Cut inside the header, at the header/table seam, inside the table,
  // and at the start / one-short-of-end of every section.
  std::vector<size_t> cuts = {1, kHeaderBytes / 2, kHeaderBytes - 1,
                              kHeaderBytes, kHeaderBytes + kEntryBytes / 2};
  for (const auto& s : info.sections) {
    cuts.push_back(s.offset);
    cuts.push_back(s.offset + s.bytes / 2);
    cuts.push_back(s.offset + s.bytes - 1);
  }
  for (size_t keep : cuts) {
    ASSERT_LT(keep, bytes.size());
    ExpectRejected(testing::WithTruncation(bytes, keep),
                   "truncated to " + std::to_string(keep) + " bytes");
  }
}

TEST(GraphFormatCorruption, HeaderCorruptionIsDataLoss) {
  const std::string bytes = SavedBytes(RichGraph(), "header_base.cgrf");
  ExpectRejected(testing::WithPatch<uint32_t>(bytes, 0, 0xDEADBEEFu),
                 "foreign magic");
  ExpectRejected(
      testing::WithPatch<uint32_t>(bytes, kHeaderVersionOff, 9999),
      "future version");
  ExpectRejected(testing::WithPatch<uint32_t>(bytes, kHeaderReservedOff, 1),
                 "nonzero reserved header field");
  ExpectRejected(testing::WithPatch<uint64_t>(bytes, kHeaderNumNodesOff,
                                              (1ull << 40) + 1),
                 "absurd node count");
  ExpectRejected(
      testing::WithPatch<uint32_t>(bytes, kHeaderSectionCountOff, 0),
      "zero sections");
  ExpectRejected(
      testing::WithPatch<uint32_t>(bytes, kHeaderSectionCountOff, 200),
      "absurd section count");
  // Dimension fields that disagree with the section table.
  ExpectRejected(
      testing::WithPatch<uint64_t>(bytes, kHeaderNumNodesOff, 7),
      "node count disagrees with section sizes");
  ExpectRejected(testing::WithPatch<uint64_t>(bytes, kHeaderFeatureDimOff, 0),
                 "feature dim zeroed under a feature section");
  // A featureless / attributeless file whose header claims otherwise.
  Graph plain = testing::PathGraph(4);
  const std::string plain_bytes = SavedBytes(plain, "plain_base.cgrf");
  ExpectRejected(
      testing::WithPatch<uint64_t>(plain_bytes, kHeaderFeatureDimOff, 4),
      "feature dim without a feature section");
  ExpectRejected(
      testing::WithPatch<uint64_t>(plain_bytes, kHeaderNumAttrIdsOff, 5),
      "attr ids promised but section missing");
}

TEST(GraphFormatCorruption, SectionTableGamesAreDataLoss) {
  const std::string bytes = SavedBytes(RichGraph(), "table_base.cgrf");
  const size_t e0 = kHeaderBytes;               // first entry (row_ptr)
  const size_t e1 = kHeaderBytes + kEntryBytes; // second entry (col_idx)
  ExpectRejected(testing::WithPatch<uint32_t>(bytes, e0 + kEntryIdOff, 77),
                 "unknown section id");
  ExpectRejected(
      testing::WithPatch<uint32_t>(
          bytes, e1 + kEntryIdOff,
          static_cast<uint32_t>(GraphSectionId::kRowPtr)),
      "duplicate section id");
  ExpectRejected(
      testing::WithPatch<uint32_t>(bytes, e0 + kEntryReservedOff, 1),
      "nonzero reserved section field");
  const GraphFileInfo info = InfoOf(bytes);
  ExpectRejected(testing::WithPatch<uint64_t>(bytes, e0 + kEntryOffsetOff,
                                              info.sections[0].offset + 4),
                 "misaligned section offset");
  const uint64_t past_eof = ((bytes.size() + 7) / 8) * 8 + 8;
  ExpectRejected(
      testing::WithPatch<uint64_t>(bytes, e0 + kEntryOffsetOff, past_eof),
      "section offset past EOF");
  ExpectRejected(testing::WithPatch<uint64_t>(bytes, e0 + kEntryBytesOff,
                                              info.sections[0].bytes + 8),
                 "section size disagrees with header");
}

TEST(GraphFormatCorruption, BitFlipInEverySectionTripsItsChecksum) {
  const std::string bytes = SavedBytes(RichGraph(), "flip_base.cgrf");
  const GraphFileInfo info = InfoOf(bytes);
  ASSERT_EQ(info.sections.size(), 6u);
  for (const auto& s : info.sections) {
    ExpectRejected(
        testing::WithByteFlipped(bytes, s.offset + s.bytes / 2),
        "bit flip in section " + std::to_string(s.id));
  }
}

TEST(GraphFormatCorruption, SemanticCsrViolationsAreDataLoss) {
  // Checksums are recomputed for every variant, so these hit the semantic
  // validators -- the layer that makes out-of-bounds accesses impossible
  // no matter what the algorithms later do with the Graph.
  const std::string bytes = SavedBytes(TinyGraph(), "semantic_base.cgrf");
  const GraphFileInfo info = InfoOf(bytes);
  using Id = GraphSectionId;
  ExpectRejected(WithSectionValue<int64_t>(bytes, info, Id::kRowPtr, 0, 1),
                 "row_ptr[0] != 0");
  ExpectRejected(WithSectionValue<int64_t>(bytes, info, Id::kRowPtr, 2, 0),
                 "row_ptr decreases");
  ExpectRejected(WithSectionValue<int64_t>(bytes, info, Id::kRowPtr, 4, 5),
                 "row_ptr[n] disagrees with edge count");
  ExpectRejected(WithSectionValue<int64_t>(bytes, info, Id::kColIdx, 0, 0),
                 "self loop");
  ExpectRejected(WithSectionValue<int64_t>(bytes, info, Id::kColIdx, 0, 99),
                 "neighbor out of range");
  ExpectRejected(WithSectionValue<int64_t>(bytes, info, Id::kColIdx, 0, -2),
                 "negative neighbor");
  // Node 1's neighbor list is col_idx[1..2] = [0, 2]; reversing it makes
  // an unsorted list.
  ExpectRejected(
      WithSectionValue<int64_t>(
          WithSectionValue<int64_t>(bytes, info, Id::kColIdx, 1, 2), info,
          Id::kColIdx, 2, 0),
      "unsorted neighbor list");
  ExpectRejected(WithSectionValue<int64_t>(bytes, info, Id::kAttrPtr, 0, 1),
                 "attr_ptr[0] != 0");
  ExpectRejected(WithSectionValue<int64_t>(bytes, info, Id::kAttrPtr, 2, 0),
                 "attr_ptr decreases");
  ExpectRejected(WithSectionValue<int64_t>(bytes, info, Id::kAttrPtr, 4, 3),
                 "attr_ptr[n] disagrees with attr count");
  // Node 0's attribute set is attr_ids[0..1] = [1, 3]; 5 breaks sortedness.
  ExpectRejected(WithSectionValue<int32_t>(bytes, info, Id::kAttrIds, 0, 5),
                 "unsorted attribute set");
  ExpectRejected(
      WithSectionValue<int64_t>(bytes, info, Id::kCommunities, 3, -5),
      "community id below -1");
}

TEST(GraphFormatCorruption, AsymmetricAdjacencyIsDataLoss) {
  // Sorted, in-range rows without self loops, but u lists v while v does
  // not list u. Task graphs copy each node's own row, so such a parent
  // would yield an asymmetric task CSR; the validator refuses it.
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(2, 3);
  const std::string bytes = SavedBytes(b.Build(), "asym_base.cgrf");
  const GraphFileInfo info = InfoOf(bytes);
  using Id = GraphSectionId;
  // col_idx = [1, 0, 3, 2]. Node 2 lists 0, which lists only 1.
  ExpectRejected(WithSectionValue<int64_t>(bytes, info, Id::kColIdx, 2, 0),
                 "below-diagonal entry nobody lists back");
  // Node 0 lists 3, whose row is [2].
  ExpectRejected(WithSectionValue<int64_t>(bytes, info, Id::kColIdx, 0, 3),
                 "above-diagonal entry not listed back");
  // The untouched file maps.
  const std::string path = TempPath("asym_base_ok.cgrf");
  testing::WriteFile(path, bytes);
  EXPECT_TRUE(MapGraphBinary(path).ok());
  std::remove(path.c_str());
}

TEST(GraphFormatCorruption, UncheckedMapSkipsChecksumsButNotStructure) {
  const std::string path = TempPath("unchecked.cgrf");
  const std::string bytes = SavedBytes(RichGraph(), "unchecked_base.cgrf");
  const GraphFileInfo info = InfoOf(bytes);

  // A flipped feature byte is structurally sound: the unchecked map
  // accepts it (that is the documented trade), the checked one does not.
  const size_t feat = SectionIndex(info, GraphSectionId::kFeatures);
  const std::string flipped = testing::WithByteFlipped(
      bytes, info.sections[feat].offset + 4);
  testing::WriteFile(path, flipped);
  EXPECT_EQ(MapGraphBinary(path).status().code(), StatusCode::kDataLoss);
  MapOptions unchecked;
  unchecked.verify_checksums = false;
  EXPECT_TRUE(MapGraphBinary(path, unchecked).ok());

  // Structural corruption is rejected even without checksums: an
  // out-of-range neighbor (checksum dutifully recomputed) must never map.
  testing::WriteFile(path, WithSectionValue<int64_t>(
                               bytes, info, GraphSectionId::kColIdx, 0,
                               1 << 20));
  EXPECT_EQ(MapGraphBinary(path, unchecked).status().code(),
            StatusCode::kDataLoss);
  std::remove(path.c_str());
}

// ---- Algorithms over both backings ----------------------------------------

Graph PlantedGraph(uint64_t seed = 1) {
  Rng rng(seed);
  SyntheticConfig cfg;
  cfg.num_nodes = 400;
  cfg.num_communities = 4;
  cfg.intra_degree = 10;
  cfg.inter_degree = 1.5;
  cfg.attribute_dim = 16;
  cfg.attrs_per_node = 3;
  cfg.attrs_per_community_pool = 5;
  cfg.attr_affinity = 0.9;
  return GenerateSyntheticGraph(cfg, &rng);
}

TEST(GraphFormatBackends, ClassicalSearchersIdenticalOnBothBackings) {
  const std::string path = TempPath("backends.cgrf");
  ASSERT_TRUE(SaveGraphBinary(PlantedGraph(), path).ok());
  const Graph loaded = LoadGraphBinary(path).value();
  const Graph mapped = MapGraphBinary(path).value();
  for (const char* name : {"kcore", "ktruss", "acq"}) {
    const auto searcher = MakeSearcher(name).value();
    for (NodeId q : {NodeId(3), NodeId(57), NodeId(211)}) {
      const auto a = searcher->Search(loaded, q, {}, {}).value();
      const auto b = searcher->Search(mapped, q, {}, {}).value();
      EXPECT_EQ(a.members, b.members)
          << name << " diverged across backings on query " << q;
    }
  }
  std::remove(path.c_str());
}

TEST(GraphFormatBackends, EngineSearchIdenticalOnBothBackings) {
  const std::string path = TempPath("engine_backend.cgrf");
  ASSERT_TRUE(SaveGraphBinary(PlantedGraph(), path).ok());
  const Graph loaded = LoadGraphBinary(path).value();
  const Graph mapped = MapGraphBinary(path).value();

  CommunitySearchEngine::Options opt;
  opt.model.encoder = GnnKind::kGcn;
  opt.model.hidden_dim = 16;
  opt.model.num_layers = 2;
  opt.model.epochs = 2;
  opt.tasks.subgraph_size = 80;
  opt.tasks.query_set_size = 6;
  opt.num_train_tasks = 4;
  CommunitySearchEngine engine(opt);
  ASSERT_TRUE(engine.Fit(loaded).ok());
  // Same bytes, same deterministic task sampling: predictions must be
  // bitwise-identical whichever storage backs the parent graph.
  for (NodeId q : {NodeId(5), NodeId(123), NodeId(377)}) {
    EXPECT_EQ(engine.Search(loaded, q).value(),
              engine.Search(mapped, q).value())
        << "engine diverged across backings on query " << q;
  }
  std::remove(path.c_str());
}

TEST(GraphFormatBackends, ConcurrentServeFromMappedFile) {
  const std::string path = TempPath("serve_mapped.cgrf");
  ASSERT_TRUE(SaveGraphBinary(PlantedGraph(), path).ok());
  const auto shared = serve::OpenMappedGraph(path).value();
  ASSERT_EQ(shared->backing(), GraphBacking::kMapped);

  serve::ServeOptions opt;
  opt.backend = "kcore";
  opt.num_threads = 4;
  const auto server = serve::QueryServer::Create(nullptr, opt).value();
  std::vector<serve::SearchRequest> batch(64);
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].graph = shared.get();
    batch[i].graph_id = shared->storage_fingerprint();
    batch[i].query = static_cast<NodeId>(i * 5 % shared->num_nodes());
  }
  const auto responses = server->ServeBatch(batch);
  ASSERT_EQ(responses.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(responses[i].status.ok()) << responses[i].status;
    // The pool's answer matches a fresh single-threaded one.
    EXPECT_EQ(responses[i].members, server->Serve(batch[i]).members)
        << "request " << i;
  }
  std::remove(path.c_str());
}

// ---- Format sniffing (data/io.h) ------------------------------------------

TEST(GraphFormatAuto, SniffsBinaryAndText) {
  const std::string bin = TempPath("auto.cgrf");
  const std::string txt = TempPath("auto_edges.txt");
  const Graph g = TinyGraph();
  ASSERT_TRUE(SaveGraphBinary(g, bin).ok());
  ASSERT_TRUE(SaveGraphToFiles(g, txt).ok());
  EXPECT_TRUE(IsBinaryGraphFile(bin));
  EXPECT_FALSE(IsBinaryGraphFile(txt));
  EXPECT_FALSE(IsBinaryGraphFile("/nonexistent/graph.cgrf"));

  const Graph from_bin = LoadGraphAuto(bin).value();
  EXPECT_EQ(from_bin.backing(), GraphBacking::kVector);
  LoadOptions mapped;
  mapped.mapped = true;
  EXPECT_EQ(LoadGraphAuto(bin, mapped).value().backing(),
            GraphBacking::kMapped);
  const Graph from_txt = LoadGraphAuto(txt).value();
  EXPECT_TRUE(std::ranges::equal(from_txt.row_ptr(), g.row_ptr()));
  EXPECT_TRUE(std::ranges::equal(from_txt.col_idx(), g.col_idx()));

  // Side files only make sense for text input.
  EXPECT_EQ(LoadGraphAuto(bin, {}, "some_comms.txt").status().code(),
            StatusCode::kInvalidArgument);
  std::remove(bin.c_str());
  std::remove(txt.c_str());
}

}  // namespace
}  // namespace cgnp
