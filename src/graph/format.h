// Versioned on-disk binary graph container ("CGRF"; docs/GRAPH_FORMAT.md).
//
// The container stores a Graph's CSR arrays in their in-memory byte layout
// -- a fixed header, a section table, then 8-byte-aligned sections (row
// pointers, column indices, dense features, attribute CSR, community
// labels), each with an FNV-1a64 checksum -- so a file can be loaded two
// ways:
//
//   LoadGraphBinary(path)   copies every section into owned vectors
//                           (GraphBacking::kVector); the file can vanish
//                           afterwards.
//   MapGraphBinary(path)    mmaps the file and backs the Graph's spans
//                           with the mapping (GraphBacking::kMapped):
//                           million-node graphs become servable in
//                           O(pages touched), no vector materialisation.
//
// Both paths run the identical validation pipeline before a Graph is
// handed out: magic / version, header sanity bounds, section-table
// structure (known unique ids, in-bounds 8-aligned extents, sizes that
// match the header's dimensions), per-section checksums, and the CSR
// semantic invariants (monotone row pointers ending at the edge count,
// sorted strictly-increasing in-range neighbor lists, no self loops,
// symmetric adjacency, monotone attribute pointers, community ids >= -1).
// Checksum verification is the only optional step
// (MapOptions::verify_checksums) -- skipping it preserves the lazy-page
// property for huge files; every structural and semantic check always
// runs, so a corrupt file can never produce out-of-bounds CSR accesses.
//
// Error model (API v1, same discipline as docs/CHECKPOINT_FORMAT.md):
// graph containers are external input, so every load-path failure --
// missing file, foreign magic, future version, truncation anywhere,
// checksum mismatch, out-of-bounds or unsorted CSR -- returns NotFound or
// DataLoss instead of aborting; tests/graph_format_test.cc drives the
// whole corruption matrix through both load paths.
#ifndef CGNP_GRAPH_FORMAT_H_
#define CGNP_GRAPH_FORMAT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace cgnp {

// "CGRF" little-endian; distinct from every checkpoint magic so a model
// checkpoint fed to the graph loader (or vice versa) fails loudly.
inline constexpr uint32_t kGraphFileMagic = 0x46524743u;
inline constexpr uint32_t kGraphFileVersion = 1;

// Section ids of format version 1. kRowPtr/kColIdx are mandatory; the
// rest appear iff the graph carries the payload.
enum class GraphSectionId : uint32_t {
  kRowPtr = 1,       // (n+1) x i64
  kColIdx = 2,       // directed-edge count x i64
  kFeatures = 3,     // n*d x f32            (iff feature_dim > 0)
  kAttrPtr = 4,      // (n+1) x i64          (iff attributes present)
  kAttrIds = 5,      // total attr ids x i32 (iff any node has attrs)
  kCommunities = 6,  // n x i64              (iff labels present)
};

// Parsed header + section table of a container file, for tooling
// (graph_convert info) and tests; no payload is touched beyond what
// validation reads.
struct GraphFileInfo {
  uint64_t num_nodes = 0;
  uint64_t num_directed_edges = 0;  // col-idx length (2x undirected edges)
  uint64_t feature_dim = 0;
  uint64_t num_attr_ids = 0;
  bool has_attributes = false;
  bool has_communities = false;
  uint64_t file_bytes = 0;
  // FNV-1a fold of the header bytes and every section checksum; the
  // stable identity MapGraphBinary installs as Graph::storage_fingerprint.
  uint64_t fingerprint = 0;
  struct Section {
    uint32_t id = 0;
    uint64_t offset = 0;
    uint64_t bytes = 0;
    uint64_t checksum = 0;
  };
  std::vector<Section> sections;
};

// Writes `g` (any backing) as a container file. Overwrites `path`;
// NotFound when the file cannot be created, DataLoss on a short write.
Status SaveGraphBinary(const Graph& g, const std::string& path);

// Copying load: full validation, then owned vectors (kVector backing).
StatusOr<Graph> LoadGraphBinary(const std::string& path);

// Copying load from an in-memory container image (any alignment; the
// bytes are copied into an aligned buffer first). Same validation
// pipeline as the file loads -- this is the entry the format fuzzer
// drives, and it serves callers that already hold the file in memory.
StatusOr<Graph> LoadGraphBinaryFromBytes(const void* data, size_t size);

struct MapOptions {
  // Verify every section's FNV-1a64 checksum at map time. The default
  // catches silent corruption up front at the cost of one sequential read
  // of the file; turning it off keeps the load at O(pages touched) --
  // structural and CSR-bounds validation still runs unconditionally.
  bool verify_checksums = true;
};

// Mapping load: full validation, then a Graph whose CSR / feature /
// attribute / community spans all point into the read-only mapping
// (kMapped backing); nothing is materialised.
StatusOr<Graph> MapGraphBinary(const std::string& path,
                               const MapOptions& options = {});

// Header/table-level inspection (validates everything LoadGraphBinary
// does, including checksums, but builds no Graph).
StatusOr<GraphFileInfo> ReadGraphFileInfo(const std::string& path);

}  // namespace cgnp

#endif  // CGNP_GRAPH_FORMAT_H_
