#include "graph/format.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <memory>
#include <utility>

#include "graph/storage.h"

namespace cgnp {
namespace {

// On-disk header, 48 bytes. All integers host-endian (little-endian on
// every target; the magic doubles as an endianness sentinel).
struct FileHeader {
  uint32_t magic = 0;
  uint32_t version = 0;
  uint64_t num_nodes = 0;
  uint64_t num_directed_edges = 0;
  uint64_t feature_dim = 0;
  uint64_t num_attr_ids = 0;
  uint32_t section_count = 0;
  uint32_t reserved = 0;  // must be zero in version 1
};
static_assert(sizeof(FileHeader) == 48);

// One section-table entry, 32 bytes.
struct SectionEntry {
  uint32_t id = 0;
  uint32_t reserved = 0;  // must be zero in version 1
  uint64_t offset = 0;    // from file start; 8-byte aligned
  uint64_t bytes = 0;
  uint64_t checksum = 0;  // FNV-1a64 of the payload bytes
};
static_assert(sizeof(SectionEntry) == 32);

// Sanity ceilings: far above any graph this library will meet, low enough
// that a corrupt header can never drive allocations or offset arithmetic
// into overflow.
constexpr uint64_t kMaxNodes = 1ull << 40;
constexpr uint64_t kMaxDirectedEdges = 1ull << 42;
constexpr uint64_t kMaxFeatureDim = 1ull << 24;
constexpr uint64_t kMaxAttrIds = 1ull << 42;
constexpr uint32_t kMaxSections = 6;

constexpr uint32_t kIdRowPtr = static_cast<uint32_t>(GraphSectionId::kRowPtr);
constexpr uint32_t kIdColIdx = static_cast<uint32_t>(GraphSectionId::kColIdx);
constexpr uint32_t kIdFeatures =
    static_cast<uint32_t>(GraphSectionId::kFeatures);
constexpr uint32_t kIdAttrPtr = static_cast<uint32_t>(GraphSectionId::kAttrPtr);
constexpr uint32_t kIdAttrIds = static_cast<uint32_t>(GraphSectionId::kAttrIds);
constexpr uint32_t kIdCommunities =
    static_cast<uint32_t>(GraphSectionId::kCommunities);

uint64_t Pad8(uint64_t x) { return (x + 7) & ~uint64_t{7}; }

// Everything validation learns about a container file: typed spans into
// the caller's buffer (heap copy or mapping -- validation is identical).
struct ParsedGraphFile {
  FileHeader header;
  std::vector<SectionEntry> table;
  std::span<const int64_t> row_ptr;
  std::span<const NodeId> col_idx;
  std::span<const float> features;
  std::span<const int64_t> attr_ptr;
  std::span<const int32_t> attr_ids;
  std::span<const int64_t> communities;
  bool has_comms = false;
  uint64_t fingerprint = 0;
};

// splitmix64's finaliser over an undirected edge {lo, hi}, lo < hi.
uint64_t MixEdge(uint64_t lo, uint64_t hi) {
  uint64_t x = (lo * 0x9E3779B97F4A7C15ull) ^ hi;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

Status Corrupt(const std::string& what) {
  return DataLossError("corrupt graph container: " + what);
}

// The single validation pipeline behind LoadGraphBinary, MapGraphBinary
// and ReadGraphFileInfo. `data` must be 8-byte aligned (mmap bases are
// page-aligned; the copying loader reads into a uint64_t buffer).
Status ParseGraphFile(const uint8_t* data, size_t size, bool verify_checksums,
                      ParsedGraphFile* out) {
  // --- Framing --------------------------------------------------------------
  if (size < sizeof(FileHeader)) {
    return Corrupt("file shorter than the header (" + std::to_string(size) +
                   " bytes)");
  }
  FileHeader h;
  std::memcpy(&h, data, sizeof(h));
  if (h.magic != kGraphFileMagic) {
    return Corrupt("not a CGRF graph container (foreign magic)");
  }
  if (h.version != kGraphFileVersion) {
    return Corrupt("unsupported container version " +
                   std::to_string(h.version) + " (this build reads version " +
                   std::to_string(kGraphFileVersion) + ")");
  }
  if (h.reserved != 0) return Corrupt("nonzero reserved header field");
  if (h.num_nodes > kMaxNodes) return Corrupt("absurd node count");
  if (h.num_directed_edges > kMaxDirectedEdges) {
    return Corrupt("absurd edge count");
  }
  if (h.feature_dim > kMaxFeatureDim) return Corrupt("absurd feature dim");
  if (h.num_attr_ids > kMaxAttrIds) return Corrupt("absurd attribute count");
  if (h.section_count < 2 || h.section_count > kMaxSections) {
    return Corrupt("section count " + std::to_string(h.section_count) +
                   " outside [2, " + std::to_string(kMaxSections) + "]");
  }
  const uint64_t table_end =
      sizeof(FileHeader) + uint64_t{h.section_count} * sizeof(SectionEntry);
  if (size < table_end) return Corrupt("file truncated in the section table");

  // --- Section table --------------------------------------------------------
  std::vector<SectionEntry> table(h.section_count);
  std::memcpy(table.data(), data + sizeof(FileHeader),
              table.size() * sizeof(SectionEntry));
  // Expected payload size per section id, derived from the header alone --
  // a table entry whose size disagrees with the header is corruption, not
  // an allocation request.
  const uint64_t n = h.num_nodes;
  auto expected_bytes = [&](uint32_t id) -> int64_t {  // -1 = unknown id
    switch (id) {
      case kIdRowPtr:
        return static_cast<int64_t>((n + 1) * sizeof(int64_t));
      case kIdColIdx:
        return static_cast<int64_t>(h.num_directed_edges * sizeof(int64_t));
      case kIdFeatures:
        return static_cast<int64_t>(n * h.feature_dim * sizeof(float));
      case kIdAttrPtr:
        return static_cast<int64_t>((n + 1) * sizeof(int64_t));
      case kIdAttrIds:
        return static_cast<int64_t>(h.num_attr_ids * sizeof(int32_t));
      case kIdCommunities:
        return static_cast<int64_t>(n * sizeof(int64_t));
      default:
        return -1;
    }
  };
  uint32_t seen_mask = 0;
  for (const SectionEntry& s : table) {
    const int64_t want = expected_bytes(s.id);
    if (want < 0) {
      return Corrupt("unknown section id " + std::to_string(s.id));
    }
    if (s.reserved != 0) return Corrupt("nonzero reserved section field");
    const uint32_t bit = 1u << s.id;
    if (seen_mask & bit) {
      return Corrupt("duplicate section id " + std::to_string(s.id));
    }
    seen_mask |= bit;
    if (s.offset % 8 != 0) {
      return Corrupt("misaligned section " + std::to_string(s.id));
    }
    if (s.offset < table_end || s.offset > size ||
        s.bytes > size - s.offset) {
      return Corrupt("section " + std::to_string(s.id) +
                     " extends past end of file (truncated?)");
    }
    if (s.bytes != static_cast<uint64_t>(want)) {
      return Corrupt("section " + std::to_string(s.id) + " has " +
                     std::to_string(s.bytes) + " bytes, header implies " +
                     std::to_string(want));
    }
  }
  // Presence rules.
  if (!(seen_mask & (1u << kIdRowPtr)) || !(seen_mask & (1u << kIdColIdx))) {
    return Corrupt("missing mandatory CSR section");
  }
  if ((h.feature_dim > 0) != bool(seen_mask & (1u << kIdFeatures))) {
    return Corrupt("feature section disagrees with header feature_dim");
  }
  if ((seen_mask & (1u << kIdAttrIds)) && !(seen_mask & (1u << kIdAttrPtr))) {
    return Corrupt("attribute ids without attribute pointers");
  }
  if (h.num_attr_ids > 0 && !(seen_mask & (1u << kIdAttrIds))) {
    return Corrupt("header implies attribute ids but section is missing");
  }

  // --- Checksums ------------------------------------------------------------
  if (verify_checksums) {
    for (const SectionEntry& s : table) {
      const uint64_t got = Fnv1a64(data + s.offset, s.bytes);
      if (got != s.checksum) {
        return Corrupt("checksum mismatch in section " + std::to_string(s.id));
      }
    }
  }

  // --- Typed spans ----------------------------------------------------------
  ParsedGraphFile p;
  p.header = h;
  for (const SectionEntry& s : table) {
    const uint8_t* base = data + s.offset;
    switch (s.id) {
      case kIdRowPtr:
        p.row_ptr = {reinterpret_cast<const int64_t*>(base), n + 1};
        break;
      case kIdColIdx:
        p.col_idx = {reinterpret_cast<const NodeId*>(base),
                     h.num_directed_edges};
        break;
      case kIdFeatures:
        p.features = {reinterpret_cast<const float*>(base),
                      n * h.feature_dim};
        break;
      case kIdAttrPtr:
        p.attr_ptr = {reinterpret_cast<const int64_t*>(base), n + 1};
        break;
      case kIdAttrIds:
        p.attr_ids = {reinterpret_cast<const int32_t*>(base), h.num_attr_ids};
        break;
      case kIdCommunities:
        p.communities = {reinterpret_cast<const int64_t*>(base), n};
        p.has_comms = true;
        break;
    }
  }

  // --- CSR semantic invariants ----------------------------------------------
  // These guarantee that every Graph accessor stays in bounds, whatever
  // the algorithms do with the data -- a corrupt container must never turn
  // into an out-of-bounds read later.
  if (p.row_ptr[0] != 0) return Corrupt("row_ptr[0] != 0");
  for (uint64_t v = 0; v < n; ++v) {
    if (p.row_ptr[v + 1] < p.row_ptr[v]) {
      return Corrupt("row_ptr decreases at node " + std::to_string(v));
    }
  }
  if (p.row_ptr[n] != static_cast<int64_t>(h.num_directed_edges)) {
    return Corrupt("row_ptr[n] disagrees with the edge count");
  }
  // Symmetry (u lists v exactly when v lists u), which task-graph
  // assembly relies on (graph/sampling.h): every undirected edge must be
  // listed once from each end. Adding a 64-bit mix of the pair {v, u} when
  // v < u and subtracting it when v > u sums to zero over a symmetric CSR;
  // an asymmetric one leaves a nonzero sum unless the unmatched mixes
  // cancel, a 2^-64 coincidence. One sequential pass, no per-node state:
  // matching each entry to its reverse directly would read col_idx at
  // random and cost several times the rest of this validation.
  uint64_t balance = 0;
  const int64_t sn = static_cast<int64_t>(n);
  for (uint64_t v = 0; v < n; ++v) {
    int64_t prev = -1;
    for (int64_t e = p.row_ptr[v]; e < p.row_ptr[v + 1]; ++e) {
      const NodeId u = p.col_idx[e];
      if (u < 0 || u >= sn) {
        return Corrupt("neighbor id out of range at node " +
                       std::to_string(v));
      }
      if (u == static_cast<NodeId>(v)) {
        return Corrupt("self loop at node " + std::to_string(v));
      }
      if (u <= prev) {
        return Corrupt("unsorted or duplicate neighbor list at node " +
                       std::to_string(v));
      }
      prev = u;
      // Branch-free: which end the edge is read from is a coin flip.
      const auto w = static_cast<uint64_t>(u);
      const uint64_t mix = MixEdge(std::min(v, w), std::max(v, w));
      const uint64_t negate = 0 - static_cast<uint64_t>(w < v);
      balance += (mix ^ negate) - negate;
    }
  }
  if (balance != 0) return Corrupt("asymmetric adjacency");
  if (!p.attr_ptr.empty()) {
    if (p.attr_ptr[0] != 0) return Corrupt("attr_ptr[0] != 0");
    for (uint64_t v = 0; v < n; ++v) {
      if (p.attr_ptr[v + 1] < p.attr_ptr[v]) {
        return Corrupt("attr_ptr decreases at node " + std::to_string(v));
      }
    }
    if (p.attr_ptr[n] != static_cast<int64_t>(h.num_attr_ids)) {
      return Corrupt("attr_ptr[n] disagrees with the attribute count");
    }
    for (uint64_t v = 0; v < n; ++v) {
      for (int64_t a = p.attr_ptr[v] + 1; a < p.attr_ptr[v + 1]; ++a) {
        if (p.attr_ids[a] < p.attr_ids[a - 1]) {
          return Corrupt("unsorted attribute set at node " +
                         std::to_string(v));
        }
      }
    }
  }
  for (int64_t c : p.communities) {
    if (c < -1) return Corrupt("community id below -1");
  }

  // --- Fingerprint ----------------------------------------------------------
  uint64_t fp = Fnv1a64(&h, sizeof(h));
  for (const SectionEntry& s : table) {
    fp = Fnv1a64(&s.checksum, sizeof(s.checksum), fp);
  }
  p.fingerprint = fp;
  p.table = std::move(table);
  *out = std::move(p);
  return Status::Ok();
}

}  // namespace

// Friend of Graph: the only code that assembles Graphs from parsed
// container files (the builders own every other construction path).
class GraphFormatAccess {
 public:
  static Graph CopyBacked(const ParsedGraphFile& p) {
    Graph g;
    g.num_nodes_ = static_cast<int64_t>(p.header.num_nodes);
    g.row_ptr_.assign(p.row_ptr.begin(), p.row_ptr.end());
    g.col_idx_.assign(p.col_idx.begin(), p.col_idx.end());
    g.feature_dim_ = static_cast<int64_t>(p.header.feature_dim);
    g.features_.assign(p.features.begin(), p.features.end());
    g.attr_ptr_.assign(p.attr_ptr.begin(), p.attr_ptr.end());
    g.attr_ids_.assign(p.attr_ids.begin(), p.attr_ids.end());
    g.community_.assign(p.communities.begin(), p.communities.end());
    g.storage_fingerprint_ = p.fingerprint;
    return g;
  }

  static Graph MapBacked(const ParsedGraphFile& p,
                         std::shared_ptr<const MappedFile> mapping) {
    Graph g;
    g.num_nodes_ = static_cast<int64_t>(p.header.num_nodes);
    g.row_ptr_.clear();  // views supersede the default {0}
    g.mapping_ = std::move(mapping);
    g.row_ptr_view_ = p.row_ptr;
    g.col_idx_view_ = p.col_idx;
    g.feature_dim_ = static_cast<int64_t>(p.header.feature_dim);
    g.features_view_ = p.features;
    g.attr_ptr_view_ = p.attr_ptr;
    g.attr_ids_view_ = p.attr_ids;
    g.community_view_ = p.communities;
    g.storage_fingerprint_ = p.fingerprint;
    return g;
  }
};

Status SaveGraphBinary(const Graph& g, const std::string& path) {
  const auto row_ptr = g.row_ptr();
  const auto col_idx = g.col_idx();
  const auto features = g.features();
  const auto attr_ptr = g.attr_ptr();
  const auto attr_ids = g.attr_ids();
  const auto communities = g.communities();

  FileHeader h;
  h.magic = kGraphFileMagic;
  h.version = kGraphFileVersion;
  h.num_nodes = static_cast<uint64_t>(g.num_nodes());
  h.num_directed_edges = col_idx.size();
  h.feature_dim = static_cast<uint64_t>(g.feature_dim());
  h.num_attr_ids = attr_ids.size();

  struct Payload {
    uint32_t id;
    const void* data;
    uint64_t bytes;
  };
  std::vector<Payload> payloads;
  payloads.push_back({kIdRowPtr, row_ptr.data(), row_ptr.size_bytes()});
  payloads.push_back({kIdColIdx, col_idx.data(), col_idx.size_bytes()});
  if (g.has_features()) {
    payloads.push_back({kIdFeatures, features.data(), features.size_bytes()});
  }
  if (g.has_attributes()) {
    payloads.push_back({kIdAttrPtr, attr_ptr.data(), attr_ptr.size_bytes()});
    payloads.push_back({kIdAttrIds, attr_ids.data(), attr_ids.size_bytes()});
  }
  if (g.has_communities()) {
    payloads.push_back({kIdCommunities, communities.data(),
                        communities.size_bytes()});
  }
  h.section_count = static_cast<uint32_t>(payloads.size());

  std::vector<SectionEntry> table(payloads.size());
  uint64_t offset =
      sizeof(FileHeader) + payloads.size() * sizeof(SectionEntry);
  for (size_t i = 0; i < payloads.size(); ++i) {
    table[i].id = payloads[i].id;
    table[i].offset = offset;
    table[i].bytes = payloads[i].bytes;
    table[i].checksum = Fnv1a64(payloads[i].data, payloads[i].bytes);
    offset = Pad8(offset + payloads[i].bytes);
  }

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.good()) {
    return NotFoundError("cannot write graph container: " + path);
  }
  out.write(reinterpret_cast<const char*>(&h), sizeof(h));
  out.write(reinterpret_cast<const char*>(table.data()),
            static_cast<std::streamsize>(table.size() * sizeof(SectionEntry)));
  const char zeros[8] = {};
  for (size_t i = 0; i < payloads.size(); ++i) {
    out.write(static_cast<const char*>(payloads[i].data),
              static_cast<std::streamsize>(payloads[i].bytes));
    const uint64_t pad = Pad8(payloads[i].bytes) - payloads[i].bytes;
    if (pad > 0 && i + 1 < payloads.size()) {
      out.write(zeros, static_cast<std::streamsize>(pad));
    }
  }
  out.flush();
  if (!out.good()) {
    return DataLossError("short write to graph container: " + path);
  }
  return Status::Ok();
}

namespace {

// Reads the whole file into an 8-byte-aligned heap buffer (spans of i64 /
// f32 are carved straight out of it, so alignment matters under UBSan).
StatusOr<std::vector<uint64_t>> ReadFileAligned(const std::string& path,
                                                size_t* out_bytes) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.good()) {
    return NotFoundError("cannot open graph container: " + path);
  }
  const std::streamoff size = in.tellg();
  if (size <= 0) return DataLossError("empty graph container: " + path);
  std::vector<uint64_t> buf((static_cast<size_t>(size) + 7) / 8, 0);
  in.seekg(0);
  in.read(reinterpret_cast<char*>(buf.data()), size);
  if (!in.good()) {
    return DataLossError("cannot read graph container: " + path);
  }
  *out_bytes = static_cast<size_t>(size);
  return buf;
}

}  // namespace

StatusOr<Graph> LoadGraphBinary(const std::string& path) {
  size_t bytes = 0;
  CGNP_ASSIGN_OR_RETURN(const std::vector<uint64_t> buf,
                        ReadFileAligned(path, &bytes));
  ParsedGraphFile parsed;
  CGNP_RETURN_IF_ERROR(
      ParseGraphFile(reinterpret_cast<const uint8_t*>(buf.data()), bytes,
                     /*verify_checksums=*/true, &parsed)
          .WithContext(path));
  return GraphFormatAccess::CopyBacked(parsed);
}

StatusOr<Graph> LoadGraphBinaryFromBytes(const void* data, size_t size) {
  // Copy into a uint64_t buffer: ParseGraphFile requires 8-byte alignment
  // and the caller's bytes may sit anywhere.
  std::vector<uint64_t> buf((size + sizeof(uint64_t) - 1) / sizeof(uint64_t));
  if (size > 0) std::memcpy(buf.data(), data, size);
  ParsedGraphFile parsed;
  CGNP_RETURN_IF_ERROR(
      ParseGraphFile(reinterpret_cast<const uint8_t*>(buf.data()), size,
                     /*verify_checksums=*/true, &parsed));
  return GraphFormatAccess::CopyBacked(parsed);
}

StatusOr<Graph> MapGraphBinary(const std::string& path,
                               const MapOptions& options) {
  CGNP_ASSIGN_OR_RETURN(MappedFile file, MappedFile::Open(path));
  ParsedGraphFile parsed;
  CGNP_RETURN_IF_ERROR(ParseGraphFile(file.data(), file.size(),
                                      options.verify_checksums, &parsed)
                           .WithContext(path));
  auto mapping = std::make_shared<const MappedFile>(std::move(file));
  return GraphFormatAccess::MapBacked(parsed, std::move(mapping));
}

StatusOr<GraphFileInfo> ReadGraphFileInfo(const std::string& path) {
  size_t bytes = 0;
  CGNP_ASSIGN_OR_RETURN(const std::vector<uint64_t> buf,
                        ReadFileAligned(path, &bytes));
  ParsedGraphFile parsed;
  CGNP_RETURN_IF_ERROR(
      ParseGraphFile(reinterpret_cast<const uint8_t*>(buf.data()), bytes,
                     /*verify_checksums=*/true, &parsed)
          .WithContext(path));
  GraphFileInfo info;
  info.num_nodes = parsed.header.num_nodes;
  info.num_directed_edges = parsed.header.num_directed_edges;
  info.feature_dim = parsed.header.feature_dim;
  info.num_attr_ids = parsed.header.num_attr_ids;
  info.has_attributes = !parsed.attr_ptr.empty();
  info.has_communities = parsed.has_comms;
  info.file_bytes = bytes;
  info.fingerprint = parsed.fingerprint;
  for (const SectionEntry& s : parsed.table) {
    info.sections.push_back({s.id, s.offset, s.bytes, s.checksum});
  }
  return info;
}

}  // namespace cgnp
