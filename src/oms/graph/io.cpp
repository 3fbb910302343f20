#include "oms/graph/io.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "oms/graph/graph_builder.hpp"
#include "oms/stream/metis_stream.hpp"
#include "oms/util/assert.hpp"
#include "oms/util/crc32.hpp"
#include "oms/util/io_error.hpp"

namespace oms {
namespace {

/// Binary graph cache, version 2: v1 plus a trailing CRC-32 over every
/// preceding byte and a strict (==, not >=) length check, so truncation,
/// appended garbage and bit flips all surface as IoError instead of a
/// silently wrong graph. v1 files ("OMSGRAP1") are refused with a message
/// telling the user to regenerate — caches are cheap, silent risk is not.
constexpr std::uint64_t kBinaryMagicV1 = 0x4f4d5347'52415031ULL; // "OMSGRAP1"
constexpr std::uint64_t kBinaryMagicV2 = 0x4f4d5347'52415032ULL; // "OMSGRAP2"

/// Input defects (malformed bytes, truncation, unopenable paths) raise
/// IoError with the file position so CLIs fail cleanly; OMS_ASSERT remains
/// only on the *write* side, where a failure means a broken environment, not
/// broken user input.
[[noreturn]] void io_fail(const std::string& path, std::uint64_t line_no,
                          const std::string& message) {
  if (line_no == 0) {
    throw IoError(path + ": " + message);
  }
  throw IoError(path + ":" + std::to_string(line_no) + ": " + message);
}

/// True when the parsed arrays already are exactly what GraphBuilder would
/// make of them: 2m arcs, every list strictly increasing without self-loops,
/// and every arc (u, v) matched by (v, u) with an equal weight. One
/// sequential O(n + m) pass: cursor[v] walks v's lower neighbours, which
/// the nodes u < v must claim in ascending order, so when v comes up its
/// cursor has to stand on its first higher neighbour.
bool is_canonical(const std::vector<EdgeIndex>& xadj, const std::vector<NodeId>& adjncy,
                  const std::vector<EdgeWeight>& adjwgt, EdgeIndex num_edges,
                  bool unit_weights) {
  if (adjncy.size() != 2 * num_edges) {
    return false;
  }
  std::vector<EdgeIndex> cursor(xadj.begin(), xadj.end() - 1);
  const auto n = static_cast<NodeId>(cursor.size());
  for (NodeId u = 0; u < n; ++u) {
    NodeId prev = u; // every remaining neighbour must lie above u, ascending
    for (EdgeIndex i = cursor[u]; i < xadj[u + 1]; ++i) {
      const NodeId v = adjncy[i];
      if (v <= prev) {
        return false; // unsorted, duplicate, self-loop or unmatched lower arc
      }
      EdgeIndex& slot = cursor[v];
      if (slot == xadj[v + 1] || adjncy[slot] != u ||
          (!unit_weights && adjwgt[slot] != adjwgt[i])) {
        return false; // v does not list u next, or lists it with another weight
      }
      ++slot;
      prev = v;
    }
  }
  return true;
}

template <typename T>
void release(std::vector<T>& v) {
  std::vector<T>().swap(v);
}

} // namespace

void write_metis(const CsrGraph& graph, const std::string& path) {
  std::ofstream out(path);
  OMS_ASSERT_MSG(out.good(), "cannot open file for writing");

  bool node_weights = false;
  bool edge_weights = false;
  for (NodeId u = 0; u < graph.num_nodes() && !node_weights; ++u) {
    node_weights = graph.node_weight(u) != 1;
  }
  for (const EdgeWeight w : graph.raw_adjwgt()) {
    if (w != 1) {
      edge_weights = true;
      break;
    }
  }

  out << graph.num_nodes() << ' ' << graph.num_edges();
  if (node_weights || edge_weights) {
    out << ' ' << (node_weights ? '1' : '0') << (edge_weights ? '1' : '0');
  }
  out << '\n';

  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    std::ostringstream line;
    if (node_weights) {
      line << graph.node_weight(u);
    }
    const auto neigh = graph.neighbors(u);
    const auto weights = graph.incident_weights(u);
    for (std::size_t i = 0; i < neigh.size(); ++i) {
      if (node_weights || i > 0) {
        line << ' ';
      }
      line << (neigh[i] + 1);
      if (edge_weights) {
        line << ' ' << weights[i];
      }
    }
    out << line.str() << '\n';
  }
  OMS_ASSERT_MSG(out.good(), "write failure");
}

void write_edge_list(const CsrGraph& graph, const std::string& path) {
  std::ofstream out(path);
  OMS_ASSERT_MSG(out.good(), "cannot open file for writing");

  bool edge_weights = false;
  for (const EdgeWeight w : graph.raw_adjwgt()) {
    if (w != 1) {
      edge_weights = true;
      break;
    }
  }

  out << "# edge list of " << graph.num_nodes() << " nodes, "
      << graph.num_edges() << " edges\n";
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    const auto neigh = graph.neighbors(u);
    const auto weights = graph.incident_weights(u);
    for (std::size_t i = 0; i < neigh.size(); ++i) {
      if (neigh[i] <= u) {
        continue; // each undirected edge once, u < v
      }
      out << u << ' ' << neigh[i];
      if (edge_weights) {
        out << ' ' << weights[i];
      }
      out << '\n';
    }
  }
  OMS_ASSERT_MSG(out.good(), "write failure");
}

CsrGraph read_metis(const std::string& path) {
  MetisNodeStream stream(path);
  const MetisHeader header = stream.header();
  const NodeId n = header.num_nodes;

  std::vector<EdgeIndex> xadj;
  std::vector<NodeWeight> vwgt;
  std::vector<NodeId> adjncy;
  std::vector<EdgeWeight> adjwgt;
  xadj.reserve(static_cast<std::size_t>(n) + 1);
  vwgt.reserve(n);
  // Every arc costs at least two bytes of text, so the file size caps what
  // a header may make us reserve: a lying m cannot cause bad_alloc.
  std::error_code size_error;
  if (std::filesystem::is_regular_file(path, size_error)) {
    const std::uintmax_t bytes = std::filesystem::file_size(path, size_error);
    if (!size_error) {
      const auto arcs = static_cast<std::size_t>(
          std::min<std::uintmax_t>(2 * header.num_edges, bytes / 2 + 1));
      adjncy.reserve(arcs);
      adjwgt.reserve(arcs);
    }
  }
  xadj.push_back(0);
  NodeWeight weight = 1;
  while (stream.next_into(weight, adjncy, adjwgt)) {
    vwgt.push_back(weight);
    xadj.push_back(adjncy.size());
  }

  if (is_canonical(xadj, adjncy, adjwgt, header.num_edges,
                   !header.has_edge_weights)) {
    return CsrGraph(std::move(xadj), std::move(adjncy), std::move(adjwgt),
                    std::move(vwgt));
  }

  // Anything else goes through GraphBuilder: METIS lists every edge from
  // both endpoints, so record the lower endpoint's listing only (duplicates
  // summed, self-loops dropped, the graph symmetrised from that side).
  GraphBuilder builder(n);
  for (NodeId u = 0; u < n; ++u) {
    builder.set_node_weight(u, vwgt[u]);
    for (EdgeIndex i = xadj[u]; i < xadj[u + 1]; ++i) {
      if (u < adjncy[i]) {
        builder.add_edge(u, adjncy[i], adjwgt[i]);
      }
    }
  }
  release(xadj);
  release(vwgt);
  release(adjncy);
  release(adjwgt);
  CsrGraph graph = std::move(builder).build();
  if (graph.num_edges() != header.num_edges) {
    io_fail(path, 0,
            "edge count disagrees with METIS header (header says " +
                std::to_string(header.num_edges) + ", file has " +
                std::to_string(graph.num_edges()) + ")");
  }
  return graph;
}

void write_binary(const CsrGraph& graph, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  OMS_ASSERT_MSG(out.good(), "cannot open file for writing");
  const std::uint64_t magic = kBinaryMagicV2;
  const std::uint64_t n = graph.num_nodes();
  const std::uint64_t arcs = graph.num_arcs();
  std::uint32_t crc = crc32_init();
  const auto write_raw = [&out, &crc](const void* data, std::size_t bytes) {
    crc = crc32_update(crc, data, bytes);
    out.write(static_cast<const char*>(data), static_cast<std::streamsize>(bytes));
  };
  write_raw(&magic, sizeof magic);
  write_raw(&n, sizeof n);
  write_raw(&arcs, sizeof arcs);
  write_raw(graph.raw_xadj().data(), graph.raw_xadj().size() * sizeof(EdgeIndex));
  write_raw(graph.raw_adjncy().data(), graph.raw_adjncy().size() * sizeof(NodeId));
  write_raw(graph.raw_adjwgt().data(), graph.raw_adjwgt().size() * sizeof(EdgeWeight));
  write_raw(graph.raw_vwgt().data(), graph.raw_vwgt().size() * sizeof(NodeWeight));
  const std::uint32_t checksum = crc32_final(crc);
  out.write(reinterpret_cast<const char*>(&checksum), sizeof checksum);
  OMS_ASSERT_MSG(out.good(), "write failure");
}

CsrGraph read_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    throw IoError("cannot open graph file '" + path + "'");
  }
  std::uint64_t magic = 0;
  std::uint64_t n = 0;
  std::uint64_t arcs = 0;
  std::uint32_t crc = crc32_init();
  const auto read_raw = [&in, &path, &crc](void* data, std::size_t bytes) {
    in.read(static_cast<char*>(data), static_cast<std::streamsize>(bytes));
    if (!in.good()) {
      io_fail(path, 0, "truncated binary graph file");
    }
    crc = crc32_update(crc, data, bytes);
  };
  read_raw(&magic, sizeof magic);
  if (magic == kBinaryMagicV1) {
    io_fail(path, 0,
            "binary graph file uses the unchecksummed v1 format; regenerate "
            "it with write_binary()");
  }
  if (magic != kBinaryMagicV2) {
    io_fail(path, 0, "bad magic in binary graph file");
  }
  read_raw(&n, sizeof n);
  read_raw(&arcs, sizeof arcs);
  // Sanity-check the advertised sizes against the actual payload before
  // allocating: a corrupt header must raise IoError, not bad_alloc. The 2^48
  // ceiling keeps the expected-bytes arithmetic below from wrapping.
  if (n >= (std::uint64_t{1} << 48) || arcs >= (std::uint64_t{1} << 48)) {
    io_fail(path, 0, "implausible sizes in binary graph header");
  }
  const auto payload_start = in.tellg();
  in.seekg(0, std::ios::end);
  const auto file_end = in.tellg();
  in.seekg(payload_start);
  const std::uint64_t expected_bytes =
      (n + 1) * sizeof(EdgeIndex) + arcs * sizeof(NodeId) +
      arcs * sizeof(EdgeWeight) + n * sizeof(NodeWeight);
  // Strict equality: payload + trailing CRC and nothing else. A too-long
  // file means the header does not describe this payload (e.g. concatenated
  // or half-overwritten caches), which the CRC alone could even pass if the
  // extra bytes were never read.
  if (n > static_cast<std::uint64_t>(std::numeric_limits<NodeId>::max()) ||
      static_cast<std::uint64_t>(file_end - payload_start) <
          expected_bytes + sizeof(std::uint32_t)) {
    io_fail(path, 0, "truncated binary graph file");
  }
  if (static_cast<std::uint64_t>(file_end - payload_start) >
      expected_bytes + sizeof(std::uint32_t)) {
    io_fail(path, 0, "binary graph file longer than its header describes");
  }
  std::vector<EdgeIndex> xadj(n + 1);
  std::vector<NodeId> adjncy(arcs);
  std::vector<EdgeWeight> adjwgt(arcs);
  std::vector<NodeWeight> vwgt(n);
  read_raw(xadj.data(), xadj.size() * sizeof(EdgeIndex));
  read_raw(adjncy.data(), adjncy.size() * sizeof(NodeId));
  read_raw(adjwgt.data(), adjwgt.size() * sizeof(EdgeWeight));
  read_raw(vwgt.data(), vwgt.size() * sizeof(NodeWeight));
  const std::uint32_t computed = crc32_final(crc);
  std::uint32_t stored = 0;
  in.read(reinterpret_cast<char*>(&stored), sizeof stored);
  if (!in.good() || stored != computed) {
    io_fail(path, 0, "CRC mismatch in binary graph file (corrupt bytes)");
  }
  return CsrGraph(std::move(xadj), std::move(adjncy), std::move(adjwgt),
                  std::move(vwgt));
}

} // namespace oms
