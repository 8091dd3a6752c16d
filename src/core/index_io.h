// Whole-index serialization: graph + entry metadata in one file, so a
// service can persist an index and cold-start from it (the vector-database
// life cycle that motivates determinism in §1). Layered formats:
//
//   container  : [magic "PANX" u32] [version u32] [algorithm str]
//                [metric str] [dtype str] [param count u32]
//                [(key str, value f64) x count] [backend payload]
//                — version 2 containers append a checksum trailer (below)
//                after the last payload; version 1 files (no trailer) still
//                load, with no verification to run.
//   checksums  : [magic "PANC" u32] [version u32] [num_sections u32]
//                [(length u64, crc32c u32) x num_sections]
//                [trailer crc32c u32] [trailer offset u64] [magic "PANC" u32]
//                — the v2 crash-safety trailer. Sections tile the file
//                contiguously from offset 0 (header, backend payload, then
//                one section per trailing payload), so every byte of the
//                container is covered by exactly one CRC32C; the trailer
//                checksums itself and is located via the fixed 12-byte
//                tail. Load verifies every section BEFORE parsing, so any
//                torn write or single-bit flip is rejected as
//                ann::corrupt_data instead of reaching a payload parser.
//   dyn. state : [magic "PAND" u32] [version u32] [start u32] [n u64]
//                [tombstone bitmap, (n+7)/8 bytes] — the mutable backends'
//                update state (embedded inside their container payload so a
//                mutated index round-trips through save/load)
//   labels     : [magic "PANL" u32] [version u32] [num_labels u32]
//                [label name str x num_labels] [num_points u64]
//                [(count u32, label id u32 x count) x num_points] — the
//                LabelStore of a filtered index, appended after the backend
//                payload when labels are attached (absent otherwise; old
//                files simply end at the backend payload, so the container
//                version is unchanged)
//   quant      : [magic "PANQ" u32] [version u32] [kind u32] [n u64] [d u64]
//                [kind-specific body: PQ codebooks + n*m code bytes, or int8
//                scale/offset + n*d codes + optional per-point sums] — the
//                QuantizedStore of an index with an attached compressed
//                tier (src/quant/quantized_store.h), appended after the
//                label payload when present. Trailing payloads are
//                dispatched by magic probe, so any combination of
//                labels/quant round-trips and pre-quantization files load
//                unchanged.
//
// The container is the format behind `ann::AnyIndex::save/load` (src/api/):
// its header carries everything needed to reconstruct the index through the
// registry — algorithm name, metric, element type, and the build parameters
// as a key/value map — so a saved index round-trips without the caller
// knowing its concrete type.
//
// Payload parsers VALIDATE what they read, not only its length: every
// neighbour id, start point and HNSW entry must lie in range. v1 containers
// carry no checksum, and a single flipped id must be rejected as
// ann::corrupt_data here rather than become an out-of-bounds read at search
// time.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/common.h"
#include "algorithms/hnsw.h"
#include "core/io.h"
#include "filter/label_store.h"

namespace ann {

namespace internal {

inline constexpr std::uint32_t kContainerMagic = 0x50414e58;     // "PANX"
inline constexpr std::uint32_t kDynamicStateMagic = 0x50414e44;  // "PAND"
inline constexpr std::uint32_t kLabelStoreMagic = 0x50414e4c;    // "PANL"
inline constexpr std::uint32_t kQuantStoreMagic = 0x50414e51;    // "PANQ"
inline constexpr std::uint32_t kChecksumTrailerMagic = 0x50414e43;  // "PANC"
// v2: per-section CRC32C checksum trailer + atomic save. v1 files (no
// trailer) remain loadable; the writer always emits v2.
inline constexpr std::uint32_t kContainerVersion = 2;
inline constexpr std::uint32_t kChecksumTrailerVersion = 1;
// The fixed tail that locates the trailer: [offset u64][magic u32].
inline constexpr std::uint64_t kChecksumTailBytes = 12;
// Corrupt-header guard: a container holds a handful of sections (header,
// backend payload, optional trailing payloads), never thousands.
inline constexpr std::uint32_t kMaxChecksumSections = 1024;
inline constexpr std::uint32_t kDynamicStateVersion = 1;
inline constexpr std::uint32_t kLabelStoreVersion = 1;
inline constexpr std::uint32_t kQuantStoreVersion = 1;

}  // namespace internal

// --- unified container header ------------------------------------------------

// Everything the registry needs to reconstruct an index: the (algorithm,
// metric, dtype) triple that keys the factory plus the build parameters as
// an ordered key/value map. The api layer converts IndexSpec <-> this.
struct IndexContainerHeader {
  std::string algorithm;
  std::string metric;
  std::string dtype;
  std::vector<std::pair<std::string, double>> params;
  // Format version the file was read with (1 = pre-checksum, 2 = current).
  // The writer ignores this field and always emits kContainerVersion.
  std::uint32_t version = internal::kContainerVersion;
};

inline void write_container_header(std::FILE* f,
                                   const IndexContainerHeader& h,
                                   const std::string& path) {
  ioutil::write_u32(f, internal::kContainerMagic, path);
  ioutil::write_u32(f, internal::kContainerVersion, path);
  ioutil::write_str(f, h.algorithm, path);
  ioutil::write_str(f, h.metric, path);
  ioutil::write_str(f, h.dtype, path);
  ioutil::write_u32(f, static_cast<std::uint32_t>(h.params.size()), path);
  for (const auto& [key, value] : h.params) {
    ioutil::write_str(f, key, path);
    ioutil::write_f64(f, value, path);
  }
}

inline IndexContainerHeader read_container_header(std::FILE* f,
                                                  const std::string& path) {
  if (ioutil::read_u32(f, path) != internal::kContainerMagic) {
    throw corrupt_data("not an ann index container: " + path);
  }
  IndexContainerHeader h;
  h.version = ioutil::read_u32(f, path);
  if (h.version != 1 && h.version != internal::kContainerVersion) {
    throw corrupt_data("unsupported container version: " + path);
  }
  h.algorithm = ioutil::read_str(f, path);
  h.metric = ioutil::read_str(f, path);
  h.dtype = ioutil::read_str(f, path);
  std::uint32_t count = ioutil::read_u32(f, path);
  h.params.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string key = ioutil::read_str(f, path);
    double value = ioutil::read_f64(f, path);
    h.params.emplace_back(std::move(key), value);
  }
  return h;
}

// --- v2 checksum trailer -----------------------------------------------------

namespace internal {

// Stream a CRC32C over `length` bytes at the current file position.
inline std::uint32_t crc_of_range(std::FILE* f, std::uint64_t length,
                                  const std::string& path) {
  unsigned char buf[1 << 16];
  std::uint32_t crc = 0;
  while (length != 0) {
    const std::size_t chunk =
        static_cast<std::size_t>(std::min<std::uint64_t>(length, sizeof(buf)));
    if (std::fread(buf, 1, chunk, f) != chunk) {
      throw corrupt_data("short read while checksumming: " + path);
    }
    crc = crc32c::extend(crc, buf, chunk);
    length -= chunk;
  }
  return crc;
}

inline void append_u32(std::vector<unsigned char>& out, std::uint32_t v) {
  unsigned char b[sizeof(v)];
  std::memcpy(b, &v, sizeof(v));
  out.insert(out.end(), b, b + sizeof(v));
}

inline void append_u64(std::vector<unsigned char>& out, std::uint64_t v) {
  unsigned char b[sizeof(v)];
  std::memcpy(b, &v, sizeof(v));
  out.insert(out.end(), b, b + sizeof(v));
}

}  // namespace internal

// Append the v2 checksum trailer to a container being written. `boundaries`
// are the section END offsets in ascending order (ftell after the header,
// after the backend payload, after each trailing payload) — sections tile
// [0, boundaries.back()) contiguously. The stream must be opened "w+b"
// (ioutil::AtomicFileWriter): the section CRCs are computed by re-reading
// the bytes just written, so what gets checksummed is what the file
// actually holds, not what the writer intended.
inline void write_checksum_trailer(std::FILE* f,
                                   const std::vector<long>& boundaries,
                                   const std::string& path) {
  if (boundaries.empty()) {
    throw std::logic_error("write_checksum_trailer: no sections: " + path);
  }
  std::vector<unsigned char> body;
  internal::append_u32(body, internal::kChecksumTrailerMagic);
  internal::append_u32(body, internal::kChecksumTrailerVersion);
  internal::append_u32(body, static_cast<std::uint32_t>(boundaries.size()));
  long start = 0;
  for (long end : boundaries) {
    if (end < start) {
      throw std::logic_error("write_checksum_trailer: unordered sections: " +
                             path);
    }
    const std::uint64_t length = static_cast<std::uint64_t>(end - start);
    if (std::fseek(f, start, SEEK_SET) != 0) {
      throw io_error("seek failed while checksumming: " + path);
    }
    internal::append_u64(body, length);
    internal::append_u32(body, internal::crc_of_range(f, length, path));
    start = end;
  }
  const std::uint64_t trailer_offset = static_cast<std::uint64_t>(start);
  if (std::fseek(f, start, SEEK_SET) != 0) {
    throw io_error("seek failed while checksumming: " + path);
  }
  ioutil::write_bytes(f, body.data(), body.size(), path);
  ioutil::write_u32(f, crc32c::value(body.data(), body.size()), path);
  ioutil::write_u64(f, trailer_offset, path);
  ioutil::write_u32(f, internal::kChecksumTrailerMagic, path);
}

// Verify every section of a v2 container against its trailer. Called with
// the stream anywhere; leaves it at the file start. Any mismatch between
// the trailer and the bytes on disk — torn write, truncation, bit flip, a
// corrupted trailer itself — throws ann::corrupt_data; nothing of the
// container is parsed before this passes.
inline void verify_container_checksums(std::FILE* f, const std::string& path) {
  if (std::fseek(f, 0, SEEK_END) != 0) {
    throw corrupt_data("cannot seek container: " + path);
  }
  const long size = std::ftell(f);
  // Smallest v2 container: 8-byte magic+version, a trailer with one
  // section (24 bytes), its crc, and the 12-byte tail.
  if (size < 0 ||
      static_cast<std::uint64_t>(size) <
          8 + 24 + 4 + internal::kChecksumTailBytes) {
    throw corrupt_data("container truncated (no checksum trailer): " + path);
  }
  if (std::fseek(f, size - static_cast<long>(internal::kChecksumTailBytes),
                 SEEK_SET) != 0) {
    throw corrupt_data("cannot seek container: " + path);
  }
  const std::uint64_t trailer_offset = ioutil::read_u64(f, path);
  if (ioutil::read_u32(f, path) != internal::kChecksumTrailerMagic) {
    throw corrupt_data("checksum trailer missing or corrupt: " + path);
  }
  if (trailer_offset >=
      static_cast<std::uint64_t>(size) - internal::kChecksumTailBytes) {
    throw corrupt_data("checksum trailer offset out of range: " + path);
  }
  if (std::fseek(f, static_cast<long>(trailer_offset), SEEK_SET) != 0) {
    throw corrupt_data("cannot seek container: " + path);
  }
  unsigned char head[12];
  ioutil::read_bytes(f, head, sizeof(head), path);
  std::uint32_t magic = 0, version = 0, num_sections = 0;
  std::memcpy(&magic, head, 4);
  std::memcpy(&version, head + 4, 4);
  std::memcpy(&num_sections, head + 8, 4);
  if (magic != internal::kChecksumTrailerMagic ||
      version != internal::kChecksumTrailerVersion || num_sections == 0 ||
      num_sections > internal::kMaxChecksumSections) {
    throw corrupt_data("checksum trailer corrupt: " + path);
  }
  const std::uint64_t body_bytes = 12 + 12ull * num_sections;
  if (trailer_offset + body_bytes + 4 + internal::kChecksumTailBytes !=
      static_cast<std::uint64_t>(size)) {
    throw corrupt_data("checksum trailer size mismatch: " + path);
  }
  std::vector<unsigned char> body(static_cast<std::size_t>(body_bytes));
  std::memcpy(body.data(), head, sizeof(head));
  ioutil::read_bytes(f, body.data() + sizeof(head),
                     body.size() - sizeof(head), path);
  if (ioutil::read_u32(f, path) != crc32c::value(body.data(), body.size())) {
    throw corrupt_data("checksum trailer failed its own checksum: " + path);
  }
  // Sections must tile [0, trailer_offset) exactly — no unchecked gap.
  std::uint64_t offset = 0;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> sections;
  sections.reserve(num_sections);
  for (std::uint32_t i = 0; i < num_sections; ++i) {
    std::uint64_t length = 0;
    std::uint32_t crc = 0;
    std::memcpy(&length, body.data() + 12 + 12ull * i, 8);
    std::memcpy(&crc, body.data() + 12 + 12ull * i + 8, 4);
    if (length > trailer_offset - offset) {
      throw corrupt_data("checksum section exceeds container: " + path);
    }
    sections.emplace_back(length, crc);
    offset += length;
  }
  if (offset != trailer_offset) {
    throw corrupt_data("checksum sections do not cover the container: " +
                       path);
  }
  if (std::fseek(f, 0, SEEK_SET) != 0) {
    throw corrupt_data("cannot seek container: " + path);
  }
  for (std::size_t i = 0; i < sections.size(); ++i) {
    if (internal::crc_of_range(f, sections[i].first, path) !=
        sections[i].second) {
      throw corrupt_data("checksum mismatch in container section " +
                         std::to_string(i) + " of " +
                         std::to_string(sections.size()) + ": " + path);
    }
  }
  if (std::fseek(f, 0, SEEK_SET) != 0) {
    throw corrupt_data("cannot seek container: " + path);
  }
}

// --- dynamic (mutable) index state -------------------------------------------

// The update state a mutable backend must persist beyond its points and
// graph: the entry point and the tombstone bitmap. The deleted count is
// derived from the bitmap on load, so the two can never disagree. Flags are
// packed 8-per-byte with deterministic zero padding in the last byte — the
// same erase schedule always produces byte-identical state.
struct DynamicIndexState {
  PointId start = kInvalidPoint;
  std::vector<unsigned char> deleted;  // one 0/1 flag per point
};

inline void write_dynamic_state_payload(std::FILE* f,
                                        const DynamicIndexState& state,
                                        const std::string& path) {
  ioutil::write_u32(f, internal::kDynamicStateMagic, path);
  ioutil::write_u32(f, internal::kDynamicStateVersion, path);
  ioutil::write_u32(f, state.start, path);
  const std::size_t n = state.deleted.size();
  ioutil::write_u64(f, n, path);
  std::vector<unsigned char> packed((n + 7) / 8, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (state.deleted[i]) packed[i / 8] |= static_cast<unsigned char>(1u << (i % 8));
  }
  ioutil::write_bytes(f, packed.data(), packed.size(), path);
}

inline DynamicIndexState read_dynamic_state_payload(std::FILE* f,
                                                    const std::string& path) {
  if (ioutil::read_u32(f, path) != internal::kDynamicStateMagic) {
    throw corrupt_data("not a dynamic-state payload: " + path);
  }
  if (ioutil::read_u32(f, path) != internal::kDynamicStateVersion) {
    throw corrupt_data("unsupported dynamic-state version: " + path);
  }
  DynamicIndexState state;
  state.start = ioutil::read_u32(f, path);
  std::uint64_t n = ioutil::read_u64(f, path);
  // Corrupt-header guard, same standard as the other payload readers.
  if (n > (1ull << 40)) {
    throw corrupt_data("corrupt dynamic-state header: " + path);
  }
  std::vector<unsigned char> packed((n + 7) / 8, 0);
  ioutil::read_bytes(f, packed.data(), packed.size(), path);
  state.deleted.resize(n, 0);
  for (std::uint64_t i = 0; i < n; ++i) {
    state.deleted[i] = (packed[i / 8] >> (i % 8)) & 1u;
  }
  return state;
}

// --- label store payload (filtered search) -----------------------------------

// The LabelStore of a filtered index: interned dictionary (names in id
// order) followed by each point's sorted label run. AnyIndex::save appends
// this after the backend payload when labels are attached; the absence of
// trailing bytes means "no labels", so unlabeled files are unchanged.
inline void write_label_store_payload(std::FILE* f, const LabelStore& store,
                                      const std::string& path) {
  ioutil::write_u32(f, internal::kLabelStoreMagic, path);
  ioutil::write_u32(f, internal::kLabelStoreVersion, path);
  ioutil::write_u32(f, static_cast<std::uint32_t>(store.num_labels()), path);
  for (std::size_t l = 0; l < store.num_labels(); ++l) {
    ioutil::write_str(f, store.label_name(static_cast<LabelId>(l)), path);
  }
  ioutil::write_u64(f, store.num_points(), path);
  for (std::size_t p = 0; p < store.num_points(); ++p) {
    auto run = store.labels_of(static_cast<PointId>(p));
    ioutil::write_u32(f, static_cast<std::uint32_t>(run.size()), path);
    ioutil::write_bytes(f, run.data(), run.size() * sizeof(LabelId), path);
  }
}

inline LabelStore read_label_store_payload(std::FILE* f,
                                           const std::string& path) {
  if (ioutil::read_u32(f, path) != internal::kLabelStoreMagic) {
    throw corrupt_data("not a label-store payload: " + path);
  }
  if (ioutil::read_u32(f, path) != internal::kLabelStoreVersion) {
    throw corrupt_data("unsupported label-store version: " + path);
  }
  std::uint32_t num_labels = ioutil::read_u32(f, path);
  // Corrupt-header guard, same standard as the other payload readers.
  if (num_labels > (1u << 28)) {
    throw corrupt_data("corrupt label-store header: " + path);
  }
  std::vector<std::string> names;
  names.reserve(num_labels);
  for (std::uint32_t l = 0; l < num_labels; ++l) {
    names.push_back(ioutil::read_str(f, path));
  }
  std::uint64_t num_points = ioutil::read_u64(f, path);
  if (num_points > (1ull << 40)) {
    throw corrupt_data("corrupt label-store header: " + path);
  }
  std::vector<std::uint64_t> offsets{0};
  offsets.reserve(num_points + 1);
  std::vector<LabelId> ids;
  std::vector<LabelId> run;
  for (std::uint64_t p = 0; p < num_points; ++p) {
    std::uint32_t count = ioutil::read_u32(f, path);
    if (count > num_labels) {
      throw corrupt_data("corrupt label-store payload: " + path);
    }
    run.resize(count);
    ioutil::read_bytes(f, run.data(), count * sizeof(LabelId), path);
    ids.insert(ids.end(), run.begin(), run.end());
    offsets.push_back(ids.size());
  }
  // from_parts re-validates the CSR invariants (known ids, strictly
  // increasing runs) and rebuilds the derived name map and counts.
  return LabelStore::from_parts(std::move(names), std::move(offsets),
                                std::move(ids));
}

// --- graph payloads ----------------------------------------------------------

inline void write_graph_payload(std::FILE* f, const Graph& g,
                                const std::string& path) {
  ioutil::write_u32(f, static_cast<std::uint32_t>(g.size()), path);
  ioutil::write_u32(f, g.max_degree(), path);
  for (std::size_t v = 0; v < g.size(); ++v) {
    auto neigh = g.neighbors(static_cast<PointId>(v));
    ioutil::write_u32(f, static_cast<std::uint32_t>(neigh.size()), path);
    ioutil::write_bytes(f, neigh.data(), neigh.size() * sizeof(PointId), path);
  }
}

inline Graph read_graph_payload(std::FILE* f, const std::string& path) {
  std::uint32_t n = ioutil::read_u32(f, path);
  std::uint32_t deg = ioutil::read_u32(f, path);
  // Corrupt-header guard (same standard as ioutil::read_points): fail with
  // the format's clean error, not a huge allocation's bad_alloc.
  if (static_cast<std::uint64_t>(n) * deg > (1ull << 40)) {
    throw corrupt_data("corrupt graph header: " + path);
  }
  Graph g(n, deg);
  std::vector<PointId> buf(deg);
  for (std::uint32_t v = 0; v < n; ++v) {
    std::uint32_t sz = ioutil::read_u32(f, path);
    if (sz > deg) throw corrupt_data("corrupt index: " + path);
    ioutil::read_bytes(f, buf.data(), sz * sizeof(PointId), path);
    for (std::uint32_t i = 0; i < sz; ++i) {
      if (buf[i] >= n) {
        throw corrupt_data("corrupt graph: neighbour id out of range: " + path);
      }
    }
    g.set_neighbors(v, {buf.data(), sz});
  }
  return g;
}

template <typename Metric, typename T>
void write_graph_index_payload(std::FILE* f, const GraphIndex<Metric, T>& index,
                               const std::string& path) {
  ioutil::write_u32(f, index.start, path);
  write_graph_payload(f, index.graph, path);
}

template <typename Metric, typename T>
GraphIndex<Metric, T> read_graph_index_payload(std::FILE* f,
                                               const std::string& path) {
  GraphIndex<Metric, T> index;
  index.start = ioutil::read_u32(f, path);
  index.graph = read_graph_payload(f, path);
  if (index.graph.size() > 0 && index.start >= index.graph.size()) {
    throw corrupt_data("corrupt graph index: start out of range: " + path);
  }
  return index;
}

template <typename Metric, typename T>
void write_hnsw_index_payload(std::FILE* f, const HNSWIndex<Metric, T>& index,
                              const std::string& path) {
  ioutil::write_u32(f, index.entry, path);
  ioutil::write_u32(f, index.entry_level, path);
  ioutil::write_u32(f, static_cast<std::uint32_t>(index.layers.size()), path);
  ioutil::write_u32(f, static_cast<std::uint32_t>(index.levels.size()), path);
  ioutil::write_bytes(f, index.levels.data(),
                      index.levels.size() * sizeof(std::uint32_t), path);
  for (const auto& layer : index.layers) {
    write_graph_payload(f, layer, path);
  }
}

template <typename Metric, typename T>
HNSWIndex<Metric, T> read_hnsw_index_payload(std::FILE* f,
                                             const std::string& path) {
  HNSWIndex<Metric, T> index;
  index.entry = ioutil::read_u32(f, path);
  index.entry_level = ioutil::read_u32(f, path);
  std::uint32_t num_layers = ioutil::read_u32(f, path);
  std::uint32_t n = ioutil::read_u32(f, path);
  if (num_layers > 64 || n > (1u << 31)) {
    throw corrupt_data("corrupt hnsw header: " + path);
  }
  index.levels.resize(n);
  ioutil::read_bytes(f, index.levels.data(), n * sizeof(std::uint32_t), path);
  index.layers.reserve(num_layers);
  for (std::uint32_t l = 0; l < num_layers; ++l) {
    index.layers.push_back(read_graph_payload(f, path));
    if (index.layers.back().size() != n) {
      throw corrupt_data("corrupt hnsw index: layer size mismatch: " + path);
    }
  }
  // An empty index has no layers and no entry; otherwise the entry must be
  // a point whose level reaches entry_level, and entry_level a real layer.
  if (n == 0 ? num_layers != 0 || index.entry != kInvalidPoint
             : num_layers == 0 || index.entry >= n ||
                   index.entry_level >= num_layers ||
                   index.levels[index.entry] < index.entry_level) {
    throw corrupt_data("corrupt hnsw index: entry out of range: " + path);
  }
  return index;
}

// --- file handles ------------------------------------------------------------

namespace internal {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

inline File open_index_file(const std::string& path, const char* mode) {
  if (faultinject::should_fail("io.open")) {
    throw io_error("injected open failure: " + path);
  }
  File f(std::fopen(path.c_str(), mode));
  if (!f) throw io_error("cannot open: " + path);
  return f;
}

}  // namespace internal

}  // namespace ann
