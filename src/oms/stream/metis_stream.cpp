#include "oms/stream/metis_stream.hpp"

#include <limits>

#include "oms/telemetry/metrics.hpp"
#include "oms/util/assert.hpp"

namespace oms {

MetisNodeStream::MetisNodeStream(const std::string& path, std::size_t buffer_bytes)
    : reader_(path, buffer_bytes) {
  read_header();
}

void MetisNodeStream::fail(const std::string& message) const {
  // ContentError (an IoError subclass) so the skip policy can distinguish a
  // malformed line from I/O machinery failures; every existing catch of
  // IoError still sees it.
  throw ContentError(reader_.path() + ":" + std::to_string(reader_.line_no()) +
                     ": " + message);
}

void MetisNodeStream::read_header() {
  std::string_view line;
  bool found = false;
  while (reader_.next_line(line)) {
    if (!line.empty() && line.front() != '%') {
      found = true;
      break;
    }
  }
  if (!found) {
    fail("missing METIS header");
  }
  const auto bad_header = [this] { fail("malformed METIS header"); };
  IntScanner tokens(line);
  std::int64_t n = 0;
  std::int64_t m = 0;
  std::int64_t fmt = 0;
  if (!tokens.next(n, bad_header) || !tokens.next(m, bad_header)) {
    bad_header();
  }
  tokens.next(fmt, bad_header);
  if (n < 0 || m < 0) {
    fail("negative sizes in METIS header");
  }
  if (n > static_cast<std::int64_t>(std::numeric_limits<NodeId>::max())) {
    fail("node count " + std::to_string(n) + " exceeds the supported maximum");
  }
  if (fmt / 100 != 0) {
    fail("multi-constraint METIS files are unsupported");
  }
  // An optional 4th token is the multi-constraint count; only 1 is workable.
  std::int64_t ncon = 1;
  if (tokens.next(ncon, bad_header) && ncon != 1) {
    fail("multi-constraint METIS files are unsupported");
  }
  std::int64_t junk = 0;
  if (tokens.next(junk, bad_header)) {
    fail("trailing tokens in METIS header");
  }
  header_.num_nodes = static_cast<NodeId>(n);
  header_.num_edges = static_cast<EdgeIndex>(m);
  header_.has_edge_weights = (fmt % 10) == 1;
  header_.has_node_weights = (fmt / 10 % 10) == 1;
  data_start_ = reader_.next_offset();
  header_line_no_ = reader_.line_no();
}

void MetisNodeStream::parse_data_line(std::string_view line, NodeWeight& weight,
                                      std::vector<NodeId>& neighbors,
                                      std::vector<EdgeWeight>& edge_weights) {
  IntScanner tokens(line);
  const auto bad_token = [this] { fail("malformed integer token"); };
  std::int64_t value = 0;
  if (header_.has_node_weights) {
    // A present line must carry its weight; only lines missing at end of
    // file default to unit weight (next_into never calls us for those).
    if (!tokens.next(value, bad_token)) {
      fail("missing node weight");
    }
    if (value < 0) {
      fail("negative node weight " + std::to_string(value));
    }
    weight = value;
  }
  while (tokens.next(value, bad_token)) {
    if (value < 1 || value > static_cast<std::int64_t>(header_.num_nodes)) {
      fail("neighbor id " + std::to_string(value) + " out of range [1, " +
           std::to_string(header_.num_nodes) + "]");
    }
    neighbors.push_back(static_cast<NodeId>(value - 1));
    if (header_.has_edge_weights) {
      EdgeWeight w = 0;
      if (!tokens.next(w, bad_token)) {
        fail("missing edge weight");
      }
      if (w <= 0) {
        fail("non-positive edge weight " + std::to_string(w));
      }
      edge_weights.push_back(w);
    }
  }
}

bool MetisNodeStream::next_into(NodeWeight& weight, std::vector<NodeId>& neighbors,
                                std::vector<EdgeWeight>& edge_weights) {
  if (next_id_ >= header_.num_nodes) {
    return false;
  }
  // Comment lines are skipped; an empty line is an isolated node, and so is
  // a line missing at end of file — which, unlike a present empty line,
  // owes no node weight.
  std::string_view line;
  bool present = false;
  while (reader_.next_line(line)) {
    if (line.empty() || line.front() != '%') {
      present = true;
      break;
    }
  }
  weight = 1;
  if (!present) {
    ++next_id_;
    return true;
  }
  const std::size_t neighbors_mark = neighbors.size();
  const std::size_t weights_mark = edge_weights.size();
  try {
    parse_data_line(line, weight, neighbors, edge_weights);
  } catch (const ContentError& error) {
    if (error_policy_.action != StreamErrorPolicy::Action::kSkip) {
      throw;
    }
    error_stats_.record(reader_.line_no(), error.what());
    if (error_stats_.lines_skipped > error_policy_.skip_budget) {
      throw IoError(reader_.path() + ": malformed-line skip budget (" +
                    std::to_string(error_policy_.skip_budget) +
                    ") exhausted; last: " + error.what());
    }
    // Roll back the partial appends and deliver the line as an isolated
    // unit-weight node: the id slot is still consumed, so every later node
    // keeps the id it would have had in a clean file.
    neighbors.resize(neighbors_mark);
    edge_weights.resize(weights_mark);
    weight = 1;
  }
  ++next_id_;
  return true;
}

bool MetisNodeStream::next(StreamedNode& out) {
  neighbor_buffer_.clear();
  weight_buffer_.clear();
  NodeWeight node_weight = 1;
  const NodeId id = next_id_;
  if (!next_into(node_weight, neighbor_buffer_, weight_buffer_)) {
    return false;
  }
  std::span<const EdgeWeight> edge_weights = weight_buffer_;
  if (!header_.has_edge_weights) {
    if (unit_weights_.size() < neighbor_buffer_.size()) {
      unit_weights_.resize(neighbor_buffer_.size(), EdgeWeight{1});
    }
    edge_weights = std::span<const EdgeWeight>(unit_weights_).first(neighbor_buffer_.size());
  }
  out = StreamedNode{id, node_weight, neighbor_buffer_, edge_weights};
  return true;
}

std::size_t MetisNodeStream::fill_batch(NodeBatch& batch, std::size_t max_nodes,
                                        std::size_t max_arcs) {
  batch.reset(next_id_);
  NodeWeight weight = 1;
  while (batch.size() < max_nodes &&
         (max_arcs == 0 || batch.num_arcs() < max_arcs)) {
    if (!next_into(weight, batch.neighbor_sink(), batch.edge_weight_sink())) {
      break;
    }
    batch.commit_node(weight);
  }
  telemetry::metric_add(telemetry::Counter::kStreamNodes, batch.size());
  return batch.size();
}

void MetisNodeStream::rewind() {
  reader_.seek(data_start_, header_line_no_);
  next_id_ = 0;
}

void MetisNodeStream::resume_at(std::uint64_t offset, std::uint64_t line_no,
                                NodeId next_id) {
  if (offset < data_start_ || next_id > header_.num_nodes) {
    fail("resume position lies outside the data section");
  }
  reader_.seek(offset, line_no);
  next_id_ = next_id;
}

} // namespace oms
