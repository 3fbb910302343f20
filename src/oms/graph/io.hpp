/// \file io.hpp
/// \brief Graph serialization: METIS text format (the de-facto standard the
///        paper's benchmark graphs ship in) and a compact binary format used
///        by the disk-streaming experiments.
#pragma once

#include <string>

#include "oms/graph/csr_graph.hpp"

namespace oms {

/// Write in METIS format. The fmt field is chosen automatically:
/// "" for unit weights, "1" for edge weights, "10" for node weights, "11" for
/// both. Node ids are 1-based in the file, per the format.
void write_metis(const CsrGraph& graph, const std::string& path);

/// Read a METIS file produced by write_metis (or any well-formed METIS graph
/// with fmt in {"", "0", "1", "10", "11"}). Comment lines (%) are skipped;
/// lines missing at end of file are isolated unit-weight nodes.
///
/// Parses with MetisNodeStream (the one METIS grammar) straight into the CSR
/// arrays, then checks in one O(n + m) pass whether the file is already
/// canonical — sorted, simple, symmetric with equal weights, exactly 2m
/// arcs. If so the arrays become the graph as they are, with no edge list
/// and no sort. Otherwise the lower endpoint's listing of every edge goes
/// through GraphBuilder (duplicates summed, self-loops dropped, the graph
/// symmetrised from that side); both routes return identical arrays.
///
/// Throws oms::IoError (with file:line position) on unopenable paths and
/// malformed content — bad header, non-numeric token, out-of-range neighbor,
/// missing or non-positive edge weight, missing or negative node weight, and
/// an edge count disagreeing with the header.
[[nodiscard]] CsrGraph read_metis(const std::string& path);

/// Compact binary round-trip (little-endian host assumed; this is a cache
/// format, not an interchange format). Version 2 ("OMSGRAP2") appends a
/// CRC-32 over the whole file and the length must match the header exactly.
/// read_binary throws oms::IoError on unopenable paths, bad magic (including
/// unchecksummed v1 files, which must be regenerated), implausible sizes,
/// truncation, trailing garbage, and CRC mismatch.
void write_binary(const CsrGraph& graph, const std::string& path);
[[nodiscard]] CsrGraph read_binary(const std::string& path);

/// Write as a SNAP-style whitespace edge list (`u v` or `u v w` per line,
/// 0-based ids, each undirected edge once with u < v) — the input of
/// EdgeListStream and the vertex-cut partitioners. Unit weights omit the
/// third column.
void write_edge_list(const CsrGraph& graph, const std::string& path);

} // namespace oms
