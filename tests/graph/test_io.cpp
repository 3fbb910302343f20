#include "oms/graph/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <utility>
#include <vector>

#include "oms/graph/generators.hpp"
#include "oms/graph/graph_builder.hpp"
#include "oms/util/io_error.hpp"
#include "tests/test_support.hpp"

namespace oms {
namespace {

class IoTest : public ::testing::Test {
protected:
  std::string temp_path(const char* name) {
    return ::testing::TempDir() + "/oms_io_" + name;
  }
};

void expect_graphs_equal(const CsrGraph& a, const CsrGraph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (NodeId u = 0; u < a.num_nodes(); ++u) {
    EXPECT_EQ(a.node_weight(u), b.node_weight(u));
    const auto na = a.neighbors(u);
    const auto nb = b.neighbors(u);
    ASSERT_EQ(na.size(), nb.size());
    for (std::size_t i = 0; i < na.size(); ++i) {
      EXPECT_EQ(na[i], nb[i]);
      EXPECT_EQ(a.incident_weights(u)[i], b.incident_weights(u)[i]);
    }
  }
}

TEST_F(IoTest, MetisRoundTripUnitWeights) {
  const CsrGraph original = gen::grid_2d(13, 17);
  const std::string path = temp_path("unit.graph");
  write_metis(original, path);
  const CsrGraph loaded = read_metis(path);
  expect_graphs_equal(original, loaded);
  std::remove(path.c_str());
}

TEST_F(IoTest, MetisRoundTripEdgeWeights) {
  GraphBuilder builder(4);
  builder.add_edge(0, 1, 5);
  builder.add_edge(1, 2, 7);
  builder.add_edge(2, 3, 2);
  const CsrGraph original = std::move(builder).build();
  const std::string path = temp_path("ew.graph");
  write_metis(original, path);
  const CsrGraph loaded = read_metis(path);
  expect_graphs_equal(original, loaded);
  std::remove(path.c_str());
}

TEST_F(IoTest, MetisRoundTripNodeAndEdgeWeights) {
  GraphBuilder builder(5);
  builder.set_node_weight(0, 3);
  builder.set_node_weight(4, 9);
  builder.add_edge(0, 1, 2);
  builder.add_edge(0, 4, 11);
  builder.add_edge(3, 4);
  const CsrGraph original = std::move(builder).build();
  const std::string path = temp_path("nwew.graph");
  write_metis(original, path);
  const CsrGraph loaded = read_metis(path);
  expect_graphs_equal(original, loaded);
  std::remove(path.c_str());
}

TEST_F(IoTest, MetisSkipsCommentLines) {
  const std::string path = temp_path("comments.graph");
  {
    std::ofstream out(path);
    out << "% a comment\n3 2\n% another\n2\n1 3\n2\n";
  }
  const CsrGraph g = read_metis(path);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.degree(1), 2u);
  std::remove(path.c_str());
}

TEST_F(IoTest, MetisIsolatedTrailingNodes) {
  const std::string path = temp_path("isolated.graph");
  {
    std::ofstream out(path);
    out << "4 1\n2\n1\n"; // nodes 3 and 4 have no lines
  }
  const CsrGraph g = read_metis(path);
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(2), 0u);
  EXPECT_EQ(g.degree(3), 0u);
  std::remove(path.c_str());
}

TEST_F(IoTest, MetisIsolatedMidStreamNodesKeepTheirSlot) {
  // Regression: an isolated node is written as an *empty* line; the reader
  // must consume it instead of skipping it, or every later adjacency list
  // shifts onto the wrong node.
  GraphBuilder builder(5);
  builder.add_edge(0, 1);
  builder.add_edge(3, 4); // node 2 is isolated, in the middle of the file
  const CsrGraph original = std::move(builder).build();
  const std::string path = temp_path("midiso.graph");
  write_metis(original, path);
  const CsrGraph loaded = read_metis(path);
  EXPECT_EQ(loaded.degree(2), 0u);
  EXPECT_EQ(loaded.degree(3), 1u);
  expect_graphs_equal(original, loaded);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// IoError channel: malformed input raises a recoverable exception carrying
// the file position — never an assertion abort (finishes the migration the
// streaming reader started).
// ---------------------------------------------------------------------------

TEST_F(IoTest, MetisHeaderMismatchThrows) {
  const std::string path = temp_path("badheader.graph");
  {
    std::ofstream out(path);
    out << "3 5\n2\n1 3\n2\n"; // claims 5 edges, has 2
  }
  EXPECT_THROW((void)read_metis(path), IoError);
  std::remove(path.c_str());
}

TEST_F(IoTest, MetisMalformedHeaderThrows) {
  const std::string path = temp_path("badheadertok.graph");
  // Includes the multi-constraint forms (fmt hundreds digit, ncon != 1) and
  // trailing junk — the same contract the streaming reader enforces, so one
  // file cannot parse cleanly on one path and corrupt on the other.
  for (const char* header : {"abc def\n", "5\n", "5 x\n", "-3 1\n", "4 2 110\n",
                             "4 2 10 2\n", "4 2 11 3\n", "5 2 0 1 9\n"}) {
    {
      std::ofstream out(path);
      out << header;
    }
    EXPECT_THROW((void)read_metis(path), IoError) << header;
  }
  // ncon == 1 stays accepted (it's the only workable value).
  {
    std::ofstream out(path);
    out << "3 2 10 1\n1 2\n2 1 3\n3 2\n";
  }
  const CsrGraph g = read_metis(path);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.node_weight(1), 2);
  std::remove(path.c_str());
}

TEST_F(IoTest, MetisNeighborOutOfRangeThrowsWithPosition) {
  const std::string path = temp_path("range.graph");
  {
    std::ofstream out(path);
    out << "% comment\n2 1\n2\n9\n"; // node 2 references neighbor 9 > n
  }
  try {
    (void)read_metis(path);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find(":4:"), std::string::npos) << what;
    EXPECT_NE(what.find("out of range"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST_F(IoTest, MetisMissingEdgeWeightThrows) {
  const std::string path = temp_path("noweight.graph");
  {
    std::ofstream out(path);
    out << "2 1 1\n2 5\n1\n"; // fmt=1 but node 2's weight is absent
  }
  EXPECT_THROW((void)read_metis(path), IoError);
  std::remove(path.c_str());
}

TEST_F(IoTest, MetisBadWeightsThrowWithPosition) {
  // Non-positive edge weights and negative node weights are typed content
  // errors on every line — also on the higher endpoint's line, whose
  // listing of an edge the loader otherwise does not use.
  const std::string path = temp_path("badweights.graph");
  const std::pair<const char*, const char*> cases[] = {
      {"2 1 1\n2 0\n1 0\n", ":2:"},
      {"2 1 10\n-3 2\n1 1\n", ":2:"},
      {"2 1 1\n2 5\n1 -5\n", ":3:"},
  };
  for (const auto& [content, position] : cases) {
    {
      std::ofstream out(path);
      out << content;
    }
    try {
      (void)read_metis(path);
      ADD_FAILURE() << "accepted: " << content;
    } catch (const IoError& e) {
      EXPECT_NE(std::string(e.what()).find(position), std::string::npos)
          << content << " -> " << e.what();
    }
  }
  std::remove(path.c_str());
}

TEST_F(IoTest, MetisMissingNodeWeightThrowsButMissingTrailingLinesDoNot) {
  const std::string path = temp_path("nodeweights.graph");
  {
    std::ofstream out(path);
    out << "3 1 10\n4 2\n\n5\n"; // node 2's line is present but empty
  }
  EXPECT_THROW((void)read_metis(path), IoError);
  {
    std::ofstream out(path);
    out << "4 1 10\n4 2\n5 1\n"; // nodes 3 and 4 have no lines at all
  }
  const CsrGraph g = read_metis(path);
  EXPECT_EQ(g.node_weight(0), 4);
  EXPECT_EQ(g.node_weight(1), 5);
  EXPECT_EQ(g.node_weight(2), 1);
  EXPECT_EQ(g.node_weight(3), 1);
  EXPECT_EQ(g.degree(3), 0u);
  std::remove(path.c_str());
}

TEST_F(IoTest, MetisNonCanonicalFileLoadsLikeTheBuilder) {
  // Unsorted lists, a duplicate and a self-loop: the builder route sums the
  // lower endpoint's duplicates and drops the loop.
  const std::string path = temp_path("noncanonical.graph");
  {
    std::ofstream out(path);
    out << "3 2 1\n3 2 2 4 1 1 2 6\n1 10\n1 1\n";
  }
  const CsrGraph g = read_metis(path);
  g.validate();
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.incident_weights(0)[0], 10); // 4 + 6 from node 1's listing
  EXPECT_EQ(g.incident_weights(1)[0], 10);
  EXPECT_EQ(g.incident_weights(0)[1], 2);
  std::remove(path.c_str());
}

TEST_F(IoTest, MetisNonNumericTokenThrows) {
  const std::string path = temp_path("garbage.graph");
  {
    std::ofstream out(path);
    out << "2 1\n2\nfoo\n";
  }
  EXPECT_THROW((void)read_metis(path), IoError);
  std::remove(path.c_str());
}

TEST_F(IoTest, BinaryRoundTrip) {
  const CsrGraph original = gen::barabasi_albert(500, 3, 4);
  const std::string path = temp_path("bin.graph");
  write_binary(original, path);
  const CsrGraph loaded = read_binary(path);
  expect_graphs_equal(original, loaded);
  std::remove(path.c_str());
}

TEST_F(IoTest, BinaryRejectsBadMagic) {
  const std::string path = temp_path("badmagic.bin");
  {
    std::ofstream out(path, std::ios::binary);
    const std::uint64_t junk = 0xDEAD;
    out.write(reinterpret_cast<const char*>(&junk), sizeof junk);
    out.write(reinterpret_cast<const char*>(&junk), sizeof junk);
    out.write(reinterpret_cast<const char*>(&junk), sizeof junk);
  }
  EXPECT_THROW((void)read_binary(path), IoError);
  std::remove(path.c_str());
}

TEST_F(IoTest, BinaryTruncatedFileThrows) {
  const CsrGraph original = gen::barabasi_albert(200, 3, 4);
  const std::string full = temp_path("full.bin");
  write_binary(original, full);
  std::ifstream in(full, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  // Cut at several depths: inside the header, inside xadj, inside the last
  // payload array. Every cut must raise IoError, never abort or misread.
  const std::string path = temp_path("truncated.bin");
  for (const std::size_t keep :
       {std::size_t{4}, std::size_t{20}, bytes.size() / 2, bytes.size() - 1}) {
    {
      std::ofstream out(path, std::ios::binary);
      out.write(bytes.data(), static_cast<std::streamsize>(keep));
    }
    EXPECT_THROW((void)read_binary(path), IoError) << "keep=" << keep;
  }
  std::remove(full.c_str());
  std::remove(path.c_str());
}

TEST_F(IoTest, BinaryImplausibleHeaderSizesThrow) {
  // A header advertising astronomically many arcs must be rejected before
  // any allocation happens (IoError, not bad_alloc).
  const std::string path = temp_path("implausible.bin");
  {
    std::ofstream out(path, std::ios::binary);
    const std::uint64_t magic = 0x4f4d5347'52415032ULL; // current v2 magic
    const std::uint64_t n = 4;
    const std::uint64_t arcs = std::uint64_t{1} << 60;
    out.write(reinterpret_cast<const char*>(&magic), sizeof magic);
    out.write(reinterpret_cast<const char*>(&n), sizeof n);
    out.write(reinterpret_cast<const char*>(&arcs), sizeof arcs);
  }
  EXPECT_THROW((void)read_binary(path), IoError);
  std::remove(path.c_str());
}

TEST_F(IoTest, BinaryRejectsUnchecksummedV1Files) {
  // A v1-era cache (valid layout, old magic, no CRC) must be refused with a
  // clear "regenerate" error, never silently parsed without validation.
  const std::string path = temp_path("v1.bin");
  {
    std::ofstream out(path, std::ios::binary);
    const std::uint64_t magic = 0x4f4d5347'52415031ULL; // "OMSGRAP1"
    const std::uint64_t n = 1;
    const std::uint64_t arcs = 0;
    const EdgeIndex xadj[2] = {0, 0};
    const NodeWeight vwgt[1] = {1};
    out.write(reinterpret_cast<const char*>(&magic), sizeof magic);
    out.write(reinterpret_cast<const char*>(&n), sizeof n);
    out.write(reinterpret_cast<const char*>(&arcs), sizeof arcs);
    out.write(reinterpret_cast<const char*>(xadj), sizeof xadj);
    out.write(reinterpret_cast<const char*>(vwgt), sizeof vwgt);
  }
  try {
    (void)read_binary(path);
    FAIL() << "v1 file accepted";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("v1"), std::string::npos) << e.what();
  }
  std::remove(path.c_str());
}

TEST_F(IoTest, BinarySingleFlippedByteThrows) {
  // Flip one byte at a time across the whole file (header, every payload
  // array, the checksum itself): the CRC must catch each flip. This is the
  // defect class the strict length check alone cannot see.
  const CsrGraph original = gen::barabasi_albert(60, 2, 4);
  const std::string full = temp_path("crc_full.bin");
  write_binary(original, full);
  std::ifstream in(full, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  const std::string path = temp_path("crc_flip.bin");
  // Every 37th byte keeps the sweep fast while still hitting each section.
  for (std::size_t at = 0; at < bytes.size(); at += 37) {
    std::vector<char> corrupt = bytes;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0x40);
    {
      std::ofstream out(path, std::ios::binary);
      out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
    }
    EXPECT_THROW((void)read_binary(path), IoError) << "flipped byte " << at;
  }
  std::remove(full.c_str());
  std::remove(path.c_str());
}

TEST_F(IoTest, BinaryTrailingGarbageThrows) {
  // Appended bytes (concatenated caches, partial overwrite of a longer file)
  // fail the strict length check even though the checksummed prefix is fine.
  const CsrGraph original = gen::barabasi_albert(60, 2, 4);
  const std::string path = temp_path("trailing.bin");
  write_binary(original, path);
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "junk";
  }
  EXPECT_THROW((void)read_binary(path), IoError);
  std::remove(path.c_str());
}

TEST_F(IoTest, MissingFileThrows) {
  EXPECT_THROW((void)read_metis("/nonexistent/surely/missing.graph"), IoError);
  EXPECT_THROW((void)read_binary("/nonexistent/surely/missing.bin"), IoError);
}

} // namespace
} // namespace oms
