/// \file test_metis_load.cpp
/// \brief Oracle suite for read_metis. The oracle is a test-local copy of the
///        loader read_metis replaced: std::getline over the file, every edge
///        taken from its lower endpoint's listing into GraphBuilder. On seeded
///        mutations of generated METIS files (shuffled lists, dropped reverse
///        arcs, duplicate arcs, self-loops, asymmetric weights, comments,
///        blank lines, CRLF, missing trailing lines, a header m off by one)
///        both loaders must return identical CSR arrays, or both must throw
///        IoError. Reproduce a failure with OMS_TEST_SEED=<n>.
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "oms/graph/generators.hpp"
#include "oms/graph/graph_builder.hpp"
#include "oms/graph/io.hpp"
#include "oms/util/io_error.hpp"
#include "oms/util/random.hpp"
#include "tests/test_support.hpp"

namespace oms {
namespace {

// --- the oracle ---------------------------------------------------------------

[[noreturn]] void oracle_fail(const std::string& path, std::uint64_t line_no,
                              const std::string& message) {
  throw IoError(path + ":" + std::to_string(line_no) + ": " + message);
}

class OracleTokens {
public:
  explicit OracleTokens(std::string_view line) noexcept : rest_(line) {}

  template <typename OnError>
  bool next(std::int64_t& out, OnError&& on_error) {
    while (!rest_.empty() && (rest_.front() == ' ' || rest_.front() == '\t' ||
                              rest_.front() == '\r')) {
      rest_.remove_prefix(1);
    }
    if (rest_.empty()) {
      return false;
    }
    const auto [ptr, ec] = std::from_chars(rest_.data(), rest_.data() + rest_.size(), out);
    if (ec != std::errc{}) {
      on_error();
    }
    rest_.remove_prefix(static_cast<std::size_t>(ptr - rest_.data()));
    return true;
  }

private:
  std::string_view rest_;
};

bool oracle_content_line(std::istream& in, std::string& line, std::uint64_t& line_no) {
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.front() != '%') {
      return true;
    }
  }
  return false;
}

bool oracle_data_line(std::istream& in, std::string& line, std::uint64_t& line_no) {
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line.front() != '%') {
      return true;
    }
  }
  return false;
}

CsrGraph oracle_read_metis(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    throw IoError("cannot open graph file '" + path + "'");
  }
  std::uint64_t line_no = 0;
  std::string line;
  if (!oracle_content_line(in, line, line_no)) {
    oracle_fail(path, line_no, "missing METIS header");
  }
  const auto bad_header = [&] { oracle_fail(path, line_no, "bad header"); };
  OracleTokens header(line);
  std::int64_t n = 0;
  std::int64_t m = 0;
  std::int64_t fmt = 0;
  if (!header.next(n, bad_header) || !header.next(m, bad_header)) {
    bad_header();
  }
  header.next(fmt, bad_header);
  if (n < 0 || m < 0 || fmt / 100 != 0) {
    bad_header();
  }
  std::int64_t ncon = 1;
  if (header.next(ncon, bad_header) && ncon != 1) {
    bad_header();
  }
  std::int64_t junk = 0;
  if (header.next(junk, bad_header)) {
    bad_header();
  }
  const bool has_edge_weights = (fmt % 10) == 1;
  const bool has_node_weights = (fmt / 10 % 10) == 1;

  GraphBuilder builder(static_cast<NodeId>(n));
  const auto bad_token = [&] { oracle_fail(path, line_no, "bad token"); };
  for (NodeId u = 0; u < static_cast<NodeId>(n); ++u) {
    if (!oracle_data_line(in, line, line_no)) {
      break; // missing trailing lines are isolated nodes
    }
    OracleTokens tokens(line);
    std::int64_t value = 0;
    if (has_node_weights) {
      if (!tokens.next(value, bad_token)) {
        oracle_fail(path, line_no, "missing node weight");
      }
      builder.set_node_weight(u, value);
    }
    while (tokens.next(value, bad_token)) {
      if (value < 1 || value > n) {
        oracle_fail(path, line_no, "neighbor out of range");
      }
      const auto v = static_cast<NodeId>(value - 1);
      EdgeWeight w = 1;
      if (has_edge_weights) {
        std::int64_t wt = 0;
        if (!tokens.next(wt, bad_token)) {
          oracle_fail(path, line_no, "missing edge weight");
        }
        w = wt;
      }
      if (u < v) {
        builder.add_edge(u, v, w);
      }
    }
  }
  CsrGraph graph = std::move(builder).build();
  if (graph.num_edges() != static_cast<EdgeIndex>(m)) {
    oracle_fail(path, 0, "edge count disagrees with METIS header");
  }
  return graph;
}

// --- generated files and their mutations --------------------------------------

struct Entry {
  NodeId v;
  EdgeWeight w;
};

/// A METIS file before rendering: per-node lists that mutations may break.
struct MetisModel {
  bool node_weights = false;
  bool edge_weights = false;
  std::vector<NodeWeight> vwgt;
  std::vector<std::vector<Entry>> adj;
};

CsrGraph base_graph(Rng& rng) {
  const auto n = static_cast<NodeId>(4 + rng.next_below(60));
  const std::uint64_t seed = rng.next_below(1u << 30);
  switch (rng.next_below(3)) {
  case 0:
    // Rejection sampling needs density <= 1/2.
    return gen::erdos_renyi(
        n, rng.next_below(std::min<std::uint64_t>(3 * n, n * (n - 1) / 4) + 1), seed);
  case 1:
    return gen::barabasi_albert(n, 1 + static_cast<NodeId>(rng.next_below(3)), seed);
  default:
    return gen::grid_2d(1 + n / 8, 8);
  }
}

/// A canonical model of a generated graph, with random symmetric weights.
MetisModel canonical_model(Rng& rng) {
  const CsrGraph base = base_graph(rng);
  MetisModel model;
  model.node_weights = rng.next_below(3) == 0;
  model.edge_weights = rng.next_below(2) == 0;
  GraphBuilder builder(base.num_nodes());
  for (NodeId u = 0; u < base.num_nodes(); ++u) {
    if (model.node_weights) {
      builder.set_node_weight(u, static_cast<NodeWeight>(rng.next_below(10)));
    }
    for (const NodeId v : base.neighbors(u)) {
      if (u < v) {
        const EdgeWeight w =
            model.edge_weights ? 1 + static_cast<EdgeWeight>(rng.next_below(9)) : 1;
        builder.add_edge(u, v, w);
      }
    }
  }
  const CsrGraph graph = std::move(builder).build();
  model.vwgt.assign(graph.raw_vwgt().begin(), graph.raw_vwgt().end());
  model.adj.resize(graph.num_nodes());
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    for (std::size_t i = 0; i < graph.degree(u); ++i) {
      model.adj[u].push_back({graph.neighbors(u)[i], graph.incident_weights(u)[i]});
    }
  }
  return model;
}

/// A node with at least \p min_degree entries, if any.
std::optional<NodeId> pick_node(const MetisModel& model, Rng& rng, std::size_t min_degree) {
  const auto n = static_cast<NodeId>(model.adj.size());
  const auto start = static_cast<NodeId>(rng.next_below(n));
  for (NodeId i = 0; i < n; ++i) {
    const NodeId u = (start + i) % n;
    if (model.adj[u].size() >= min_degree) {
      return u;
    }
  }
  return std::nullopt;
}

/// Apply one structural mutation; appends its name to \p log.
void mutate_lists(MetisModel& model, Rng& rng, std::string& log) {
  const auto n = static_cast<NodeId>(model.adj.size());
  switch (rng.next_below(6)) {
  case 0:
    if (const auto u = pick_node(model, rng, 2)) {
      rng.shuffle(model.adj[*u]);
      log += " shuffle(" + std::to_string(*u) + ")";
    }
    break;
  case 1:
  case 2: // drop one direction of one or two edges: two higher arcs dropped
          // under m = arcs/2 is what the unmatched-lower-arc check must see
    for (std::uint64_t drops = 1 + rng.next_below(2); drops > 0; --drops) {
      const auto u = pick_node(model, rng, 1);
      if (!u) {
        break;
      }
      auto& list = model.adj[*u];
      const std::size_t i = rng.next_below(list.size());
      log += " drop(" + std::to_string(*u) + "->" + std::to_string(list[i].v) + ")";
      list.erase(list.begin() + static_cast<std::ptrdiff_t>(i));
    }
    break;
  case 3: // a parallel arc, possibly with another weight
    if (const auto u = pick_node(model, rng, 1)) {
      auto& list = model.adj[*u];
      Entry copy = list[rng.next_below(list.size())];
      if (model.edge_weights) {
        copy.w = 1 + static_cast<EdgeWeight>(rng.next_below(9));
      }
      list.insert(list.begin() + static_cast<std::ptrdiff_t>(rng.next_below(list.size() + 1)),
                  copy);
      log += " duplicate(" + std::to_string(*u) + "->" + std::to_string(copy.v) + ")";
    }
    break;
  case 4: { // a self-loop
    const auto u = static_cast<NodeId>(rng.next_below(n));
    auto& list = model.adj[u];
    list.insert(list.begin() + static_cast<std::ptrdiff_t>(rng.next_below(list.size() + 1)),
                Entry{u, 1 + static_cast<EdgeWeight>(rng.next_below(9))});
    log += " selfloop(" + std::to_string(u) + ")";
    break;
  }
  default: // one side of an edge changes weight
    if (!model.edge_weights) {
      break;
    }
    if (const auto u = pick_node(model, rng, 1)) {
      Entry& e = model.adj[*u][rng.next_below(model.adj[*u].size())];
      e.w += 1 + static_cast<EdgeWeight>(rng.next_below(5));
      log += " reweight(" + std::to_string(*u) + "->" + std::to_string(e.v) + ")";
    }
    break;
  }
}

/// Distinct edges the lower endpoints list: the edge count GraphBuilder ends
/// with, i.e. the header m under which the oracle succeeds.
EdgeIndex lower_listed_edges(const MetisModel& model) {
  std::set<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < model.adj.size(); ++u) {
    for (const Entry& e : model.adj[u]) {
      if (u < e.v) {
        edges.emplace(u, e.v);
      }
    }
  }
  return edges.size();
}

/// Render \p model with randomised header m, fmt spelling and text-level
/// mutations (comments, blank lines, CRLF, missing trailing lines).
std::string render(const MetisModel& model, Rng& rng, std::string& log) {
  EdgeIndex arcs = 0;
  for (const auto& list : model.adj) {
    arcs += list.size();
  }
  EdgeIndex m = lower_listed_edges(model);
  switch (rng.next_below(7)) {
  case 0:
  case 1: // agrees with the arc count: structural checks alone must decide
    m = arcs / 2;
    log += " m=arcs/2";
    break;
  case 2:
    m += 1;
    log += " m+1";
    break;
  case 3:
    if (m > 0) {
      m -= 1;
      log += " m-1";
    }
    break;
  default:
    break;
  }
  std::string header = std::to_string(model.adj.size()) + " " + std::to_string(m);
  if (model.node_weights || model.edge_weights) {
    header += model.node_weights ? (model.edge_weights ? " 11" : " 10") : " 1";
  } else if (rng.next_below(4) == 0) {
    header += " 0";
  }

  std::vector<std::string> lines{header};
  for (NodeId u = 0; u < model.adj.size(); ++u) {
    std::ostringstream line;
    bool first = true;
    if (model.node_weights) {
      line << model.vwgt[u];
      first = false;
    }
    for (const Entry& e : model.adj[u]) {
      line << (first ? "" : " ") << (e.v + 1);
      if (model.edge_weights) {
        line << ' ' << e.w;
      }
      first = false;
    }
    lines.push_back(line.str());
  }

  if (rng.next_below(4) == 0) { // missing trailing lines
    const std::size_t drop = 1 + rng.next_below(3);
    for (std::size_t i = 0; i < drop && lines.size() > 1; ++i) {
      lines.pop_back();
    }
    log += " truncate(" + std::to_string(drop) + ")";
  }
  if (rng.next_below(3) == 0) { // comments anywhere, the header included
    const std::size_t count = 1 + rng.next_below(3);
    for (std::size_t i = 0; i < count; ++i) {
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                       rng.next_below(lines.size() + 1)),
                   "% comment " + std::to_string(i));
    }
    log += " comments";
  }
  if (rng.next_below(4) == 0) { // a blank line: skipped before the header,
                                // an isolated node after it
    lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                     rng.next_below(lines.size() + 1)),
                 "");
    log += " blank";
  }
  const bool crlf = rng.next_below(4) == 0;
  if (crlf) {
    log += " crlf";
  }
  std::string text;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    text += lines[i];
    const bool last = i + 1 == lines.size();
    if (!last || rng.next_below(5) != 0) { // sometimes no final newline
      text += crlf ? "\r\n" : "\n";
    }
  }
  return text;
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  ASSERT_TRUE(out.good());
}

template <typename T>
bool same(std::span<const T> a, std::span<const T> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

bool identical_arrays(const CsrGraph& a, const CsrGraph& b) {
  return same(a.raw_xadj(), b.raw_xadj()) && same(a.raw_adjncy(), b.raw_adjncy()) &&
         same(a.raw_adjwgt(), b.raw_adjwgt()) && same(a.raw_vwgt(), b.raw_vwgt());
}

struct LoadOutcome {
  std::optional<CsrGraph> graph;
  std::string error;
};

template <typename Loader>
LoadOutcome load(Loader&& loader, const std::string& path) {
  LoadOutcome out;
  try {
    out.graph = loader(path);
  } catch (const IoError& e) {
    out.error = e.what();
  }
  return out;
}

/// The oracle contract on one file: identical arrays, or IoError from both.
/// Returns whether the loaders succeeded.
bool expect_agreement(const std::string& path, const std::string& what) {
  const LoadOutcome expected = load(oracle_read_metis, path);
  const LoadOutcome got = load(read_metis, path);
  EXPECT_EQ(expected.graph.has_value(), got.graph.has_value())
      << what << "\noracle: " << (expected.graph ? "graph" : expected.error)
      << "\nread_metis: " << (got.graph ? "graph" : got.error);
  if (expected.graph && got.graph) {
    const bool identical = identical_arrays(*expected.graph, *got.graph);
    EXPECT_TRUE(identical) << what;
    if (identical) {
      got.graph->validate(); // aborts on a broken graph, so only when it passed
    }
    return true;
  }
  return false;
}

// --- tests ----------------------------------------------------------------------

TEST(MetisLoadOracle, SeededMutationsAgreeWithTheGetlineLoader) {
  const std::string path = ::testing::TempDir() + "/oms_metis_load_oracle.graph";
  Rng rng(oms::testing::draw_seed(0x6d657469));
  int loaded = 0;
  int rejected = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    MetisModel model = canonical_model(rng);
    std::string log;
    const std::uint64_t mutations = rng.next_below(5);
    for (std::uint64_t i = 0; i < mutations; ++i) {
      mutate_lists(model, rng, log);
    }
    const std::string text = render(model, rng, log);
    write_text(path, text);
    const bool ok = expect_agreement(
        path, "trial " + std::to_string(trial) + " (seed " +
                  std::to_string(oms::testing::test_seed()) + "):" + log +
                  "\n--- file ---\n" + text);
    (ok ? loaded : rejected) += 1;
    if (::testing::Test::HasFailure()) {
      break; // one reproducible report beats hundreds
    }
  }
  // Both outcomes must be well represented, or the sweep proves little.
  EXPECT_GT(loaded, 250);
  EXPECT_GT(rejected, 100);
  std::remove(path.c_str());
}

TEST(MetisLoadOracle, WeightOfTheLowerEndpointWins) {
  // Node 2 lists edge {1, 2} with weight 7, node 1 with 4: the old loader
  // took node 1's listing for both directions.
  const std::string path = ::testing::TempDir() + "/oms_metis_load_asym.graph";
  write_text(path, "3 2 1\n2 4\n1 7 3 5\n2 5\n");
  ASSERT_TRUE(expect_agreement(path, "asymmetric weight"));
  const CsrGraph g = read_metis(path);
  EXPECT_EQ(g.incident_weights(1)[0], 4);
  std::remove(path.c_str());
}

TEST(MetisLoadOracle, UnmatchedLowerArcsFailEvenWhenTheArcCountFits) {
  // Nodes 3 and 4 list node 1, which lists nobody: 2 arcs for m = 1, but
  // no lower endpoint lists an edge, so the file has 0 edges.
  const std::string path = ::testing::TempDir() + "/oms_metis_load_lower.graph";
  write_text(path, "4 1\n\n\n1\n1\n");
  EXPECT_FALSE(expect_agreement(path, "unmatched lower arcs"));
  EXPECT_THROW((void)read_metis(path), IoError);
  std::remove(path.c_str());
}

TEST(MetisLoadOracle, CanonicalGeneratedGraphsLoadUnchanged) {
  for (const CsrGraph& g : {gen::barabasi_albert(2000, 4, 3), gen::grid_2d(30, 40),
                            gen::road_network(20, 20, 5)}) {
    const std::string path = ::testing::TempDir() + "/oms_metis_load_canonical.graph";
    write_metis(g, path);
    ASSERT_TRUE(expect_agreement(path, "canonical file"));
    EXPECT_TRUE(identical_arrays(read_metis(path), g));
    std::remove(path.c_str());
  }
}

} // namespace
} // namespace oms
