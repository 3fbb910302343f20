/// \file omsbench.cpp
/// \brief The repository benchmark driver. One binary, three subcommands:
///
///   omsbench gen --workload W --seed S --out FILE [--tiny]
///       Generate the workload's input graph from the seed with the in-repo
///       generators and write it as METIS. Runs in its own process so that
///       generation never shows in a measured process's memory or time.
///
///   omsbench run --workload W --seed S --seconds T --trace 0|1
///                --input FILE --work DIR --bin DIR [--tiny]
///       Measure one workload through the public entry points
///       (oms::Partitioner, partition_tool, oms_serve + ServiceClient),
///       check every result, and print the result object as the last stdout
///       line. --trace 0 reports the end-to-end metrics; --trace 1 re-runs
///       the work with spans recorded around calls into each src/oms module
///       from this file and reports the per-layer metrics.
///
///   omsbench list
///       Print the workload and metric names this driver emits, as JSON.
///
/// run.py builds this binary and drives it; README.md
/// documents the workloads and metrics.
#include <sys/resource.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "oms/buffered/buffered_partitioner.hpp"
#include "oms/core/online_multisection.hpp"
#include "oms/graph/generators.hpp"
#include "oms/mapping/mapping_cost.hpp"
#include "oms/oms.hpp"
#include "oms/stream/buffered_stream_driver.hpp"
#include "oms/stream/checkpoint.hpp"
#include "oms/stream/metis_stream.hpp"
#include "oms/util/random.hpp"

extern char** environ;

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[nodiscard]] std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// --- workloads and their inputs ---------------------------------------------

constexpr const char* kMapping = "mapping-inmem-t1";
constexpr const char* kStream = "stream-disk-seq";
constexpr const char* kBuffered = "buffered-disk-ckpt";
constexpr const char* kServe = "serve-rank";

/// Generator parameters per workload. Full scale is what BENCHMARK.json
/// runs; tiny scale is the self-test, which runs every check in seconds.
struct InputSpec {
  std::string generator; ///< barabasi_albert | road_network | delaunay
  oms::NodeId n = 0;     ///< node count (ba, delaunay)
  oms::NodeId degree = 0; ///< edges per node (ba)
  oms::NodeId rows = 0, cols = 0; ///< grid (road_network)
};

[[nodiscard]] InputSpec input_spec(const std::string& workload, bool tiny) {
  InputSpec s;
  if (workload == kMapping || workload == kServe) {
    // The served artifact comes from a smaller graph of the same kind: the
    // daemon's lookups do not depend on n, and the run budget does.
    s.generator = "barabasi_albert";
    s.n = tiny ? 20000 : workload == kMapping ? 1000000 : 500000;
    s.degree = 8;
  } else if (workload == kStream) {
    s.generator = "road_network";
    s.rows = s.cols = tiny ? 200 : 1400;
  } else if (workload == kBuffered) {
    s.generator = "delaunay";
    // Above the 65,536-node checkpoint cadence even when tiny, so the
    // snapshot path and its read-back check always run.
    s.n = tiny ? 140000 : 2000000;
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  return s;
}

[[nodiscard]] std::string spec_json(const InputSpec& s) {
  std::ostringstream o;
  o << "{\"generator\":\"" << s.generator << "\"";
  if (s.generator == "road_network") {
    o << ",\"rows\":" << s.rows << ",\"cols\":" << s.cols;
  } else {
    o << ",\"n\":" << s.n;
  }
  if (s.generator == "barabasi_albert") {
    o << ",\"edges_per_node\":" << s.degree;
  }
  o << "}";
  return o.str();
}

[[nodiscard]] oms::CsrGraph generate(const InputSpec& s, std::uint64_t seed) {
  if (s.generator == "barabasi_albert") {
    return oms::gen::barabasi_albert(s.n, s.degree, seed);
  }
  if (s.generator == "road_network") {
    return oms::gen::road_network(s.rows, s.cols, seed);
  }
  return oms::gen::delaunay(s.n, seed);
}

// --- statistics ---------------------------------------------------------------

[[nodiscard]] double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest sample with at least q of the samples at or
  // below it.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

[[nodiscard]] double median(const std::vector<double>& v) {
  if (v.empty()) {
    return 0.0;
  }
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const std::size_t h = s.size() / 2;
  return s.size() % 2 == 1 ? s[h] : 0.5 * (s[h - 1] + s[h]);
}

[[nodiscard]] double sum(const std::vector<double>& v) {
  double total = 0.0;
  for (const double x : v) {
    total += x;
  }
  return total;
}

[[nodiscard]] std::string number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

// --- tracing ------------------------------------------------------------------

/// In-memory span recorder. Spans nest through an open-span stack; each span
/// carries its name, start, end, parent index and run id. Written out once,
/// when the benchmark ends. Not thread-safe: one Tracer per thread.
class Tracer {
public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;
    std::int32_t run;
  };

  class Scope {
  public:
    Scope(Tracer& tracer, const char* name) : tracer_(tracer) {
      index_ = static_cast<std::int32_t>(tracer_.spans_.size());
      tracer_.spans_.push_back({name, now_ns(), 0, tracer_.open_, tracer_.run_});
      tracer_.open_ = index_;
    }
    ~Scope() {
      Span& s = tracer_.spans_[static_cast<std::size_t>(index_)];
      s.end_ns = now_ns();
      tracer_.open_ = s.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Duration so far (the span is still open).
    [[nodiscard]] double elapsed_s() const {
      return static_cast<double>(
                 now_ns() - tracer_.spans_[static_cast<std::size_t>(index_)].start_ns) *
             1e-9;
    }

  private:
    Tracer& tracer_;
    std::int32_t index_;
  };

  void set_run(std::int32_t run) { run_ = run; }
  void reserve(std::size_t n) { spans_.reserve(n); }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time (duration minus the direct children's durations) summed per
  /// span name, for one run id.
  [[nodiscard]] std::map<std::string, double> self_seconds(std::int32_t run) const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].run == run) {
        out[spans_[i].name] +=
            static_cast<double>(spans_[i].end_ns - spans_[i].start_ns - child_ns[i]) *
            1e-9;
      }
    }
    return out;
  }

  /// One CSV line per span: id,parent,run,name,start_ns,end_ns. \p id_base
  /// offsets the ids so several tracers can share one file.
  void write_csv(std::ostream& out, std::int64_t id_base) const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << id_base + static_cast<std::int64_t>(i) << ','
          << (s.parent < 0 ? -1 : id_base + s.parent) << ',' << s.run << ','
          << s.name << ',' << s.start_ns << ',' << s.end_ns << '\n';
    }
  }

private:
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
  std::int32_t run_ = 0;
};

/// Median over runs of a span name's per-run self time.
[[nodiscard]] double median_self(const Tracer& t, const std::vector<std::int32_t>& runs,
                                 const char* name) {
  std::vector<double> v;
  for (const std::int32_t r : runs) {
    const auto self = t.self_seconds(r);
    const auto it = self.find(name);
    v.push_back(it == self.end() ? 0.0 : it->second);
  }
  return median(v);
}

// --- results ------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"partition_s", "s"},
    {"peak_rss_mb", "MB"},
    {"edge_cut_ratio", "ratio"},
    {"mapping_j_per_edge", "J/edge"},
    {"requests_per_s", "req/s"},
    {"request_p50_us", "us"},
    {"request_p99_us", "us"},
};

constexpr MetricDef kPerLayer[] = {
    {"graph.read_metis_s", "s"},
    {"stream.one_pass_s", "s"},
    {"partition.edge_cut_s", "s"},
    {"mapping.mapping_cost_s", "s"},
    {"stream.parse_s", "s"},
    {"stream.parse_mb_per_s", "MB/s"},
    {"core.assign_s", "s"},
    {"core.score_evaluations", "count"},
    {"core.neighbor_visits", "count"},
    {"core.layers_traversed", "count"},
    {"buffered.process_buffer_s", "s"},
    {"buffered.buffers", "count"},
    {"buffered.save_state_s", "s"},
    {"stream.checkpoint_write_s", "s"},
    {"stream.checkpoint_snapshots", "count"},
    {"stream.checkpoint_mb", "MB"},
    {"tool.stage.checkpoint_write_s", "s"},
    {"tool.stage.multilevel_s", "s"},
    {"tool.stage.buffer_build_place_s", "s"},
    {"tool.stage.buffer_refine_s", "s"},
    {"api.route_self_s", "s"},
    {"api.read_artifact_s", "s"},
    {"service.handle_us", "us"},
    {"service.transport_us", "us"},
    {"service.reconnects", "count"},
    {"trace.overhead_frac", "fraction"},
};

/// One checked operation (a partition run, a served request): it fails if
/// any of its checks fails, and every failure message is kept.
class OpCheck {
public:
  void require(bool ok, const std::string& what) {
    if (!ok) {
      failures_.push_back(what);
    }
  }
  [[nodiscard]] bool ok() const { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const { return failures_; }

private:
  std::vector<std::string> failures_;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures; ///< first few messages, for stderr
  std::map<std::string, double> metrics;
  std::vector<std::string> info; ///< extra JSON lines printed before the result

  void record(const OpCheck& op) {
    ++attempted;
    if (!op.ok()) {
      ++failed;
      for (const std::string& f : op.failures()) {
        if (failures.size() < 20) {
          failures.push_back(f);
        }
      }
    }
  }
  /// A failure outside any counted operation (set-up, reconciliation).
  void fail(const std::string& what) {
    OpCheck op;
    op.require(false, what);
    record(op);
  }
};

// --- options --------------------------------------------------------------------

struct Options {
  std::string command;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string input; ///< METIS file (run) or output path (gen)
  std::string work;  ///< scratch directory for this workload's run
  std::string bin;   ///< directory holding partition_tool and oms_serve
};

[[nodiscard]] Options parse_options(int argc, char** argv) {
  if (argc < 2) {
    throw std::invalid_argument("usage: omsbench gen|run [options]");
  }
  Options o;
  o.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      o.tiny = true;
      continue;
    }
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--input" || flag == "--out") {
      o.input = value;
    } else if (flag == "--work") {
      o.work = value;
    } else if (flag == "--bin") {
      o.bin = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  (void)input_spec(o.workload, o.tiny); // validates the workload name
  return o;
}

// --- child processes --------------------------------------------------------------

struct ChildExit {
  int exit_code = -1;
  double rss_mb = 0.0; ///< the child's VmHWM, where it was read
};

/// Start \p argv with stdout and stderr sent to files. Throws on failure.
[[nodiscard]] pid_t spawn(const std::vector<std::string>& argv,
                          const std::string& out_path, const std::string& err_path) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, out_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&actions, 2, err_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    throw std::runtime_error("cannot start " + argv[0] + ": " + std::strerror(rc));
  }
  return pid;
}

[[nodiscard]] ChildExit wait_child(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) {
      throw std::runtime_error(std::string("waitpid: ") + std::strerror(errno));
    }
  }
  ChildExit e;
  e.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  return e;
}

[[nodiscard]] std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

[[nodiscard]] double self_peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// --- checks shared by the partition workloads --------------------------------------

constexpr double kEpsilon = 0.03;
constexpr oms::BlockId kDiskK = 64;
/// The k = 64 disk workloads are scored as process mappings onto the
/// paper's two-level machine of that size (4 cores x 16 processors), so J
/// is comparable with the mapping workload's.
constexpr const char* kDiskHierarchy = "4:16";
constexpr const char* kDiskDistances = "1:10";

void check_partition(OpCheck& op, const oms::CsrGraph& g,
                     const std::vector<oms::BlockId>& a, oms::BlockId k) {
  op.require(a.size() == g.num_nodes(), "assignment size " + std::to_string(a.size()) +
                                            " != n " + std::to_string(g.num_nodes()));
  if (a.size() != g.num_nodes()) {
    return;
  }
  const bool in_range = std::all_of(a.begin(), a.end(), [k](oms::BlockId b) {
    return b >= 0 && b < k;
  });
  op.require(in_range, "a node has a block outside [0, k)");
  if (in_range) {
    op.require(oms::is_balanced(g, a, k, kEpsilon), "partition violates eps = 0.03");
  }
}

[[nodiscard]] oms::PartitionRequest mapping_request(const std::string& path) {
  oms::PartitionRequest r;
  r.graph_path = path;
  r.algo = "oms";
  r.hierarchy = "4:16:64";
  r.distances = "1:10:100";
  r.epsilon = kEpsilon;
  // One assignment thread: with more, the capacity check is load-then-add
  // and a block can end above L_max (ROADMAP 1a), which the strict balance
  // check below rejects. The workload moves to 4 threads once that is exact.
  r.threads = 1;
  return r;
}

/// Timed repetitions: at least \p min_reps, then until \p seconds passed.
void repeat_for(double seconds, int min_reps, const std::function<void()>& rep) {
  const auto start = Clock::now();
  for (int done = 0; done < min_reps || seconds_since(start) < seconds; ++done) {
    rep();
  }
}

/// The request metrics of a workload whose requests are partition runs.
void request_metrics(Outcome& out, const std::vector<double>& walls) {
  std::string list;
  for (const double w : walls) {
    list += (list.empty() ? "" : ",") + number(w);
  }
  out.info.push_back("{\"partition_samples\":" + std::to_string(walls.size()) +
                     ",\"partition_walls_s\":[" + list + "]}");
  out.metrics["partition_s"] = median(walls);
  out.metrics["requests_per_s"] = static_cast<double>(walls.size()) / sum(walls);
  out.metrics["request_p50_us"] = median(walls) * 1e6;
  out.metrics["request_p99_us"] = quantile(walls, 0.99) * 1e6;
}

/// read_metis, several times; returns the last graph and the median time.
[[nodiscard]] oms::CsrGraph load_graph(const std::string& path, int reps,
                                       std::vector<double>& times,
                                       Tracer* tracer = nullptr) {
  std::optional<oms::CsrGraph> g;
  for (int i = 0; i < reps; ++i) {
    g.reset();
    if (tracer != nullptr) {
      tracer->set_run(i);
    }
    const auto start = Clock::now();
    if (tracer != nullptr) {
      const Tracer::Scope span(*tracer, "graph.read_metis");
      g = oms::read_metis(path);
    } else {
      g = oms::read_metis(path);
    }
    times.push_back(seconds_since(start));
  }
  return std::move(*g);
}

// --- mapping-inmem-t1 --------------------------------------------------------------

void run_mapping(const Options& opt, Outcome& out) {
  const oms::PartitionRequest req = mapping_request(opt.input);
  const oms::SystemHierarchy topo =
      oms::SystemHierarchy::parse(*req.hierarchy, req.distances);
  const oms::BlockId k = topo.num_pes();
  const oms::Partitioner facade;

  Tracer tracer;
  std::vector<double> setup;
  const oms::CsrGraph g = load_graph(opt.input, 3, setup, opt.trace ? &tracer : nullptr);
  const double m = static_cast<double>(g.num_edges());

  std::vector<double> walls;
  std::vector<double> cut_ratio;
  std::vector<double> j_per_edge;
  const auto facade_run = [&](bool timed) {
    const auto start = Clock::now();
    const oms::PartitionArtifact art = facade.partition(g, req);
    const double wall = seconds_since(start);
    OpCheck op;
    check_partition(op, g, art.assignment, k);
    if (op.ok()) {
      const auto cut = static_cast<double>(oms::edge_cut(g, art.assignment));
      const auto j = static_cast<double>(oms::mapping_cost(g, topo, art.assignment, 4));
      op.require(art.metrics.edge_cut == cut, "facade edge_cut != recomputed edge_cut");
      op.require(art.metrics.mapping_j == j, "facade mapping_j != recomputed J");
      cut_ratio.push_back(cut / m);
      j_per_edge.push_back(j / m);
    }
    out.record(op);
    if (timed) {
      walls.push_back(wall);
    }
  };

  facade_run(false); // warm-up: checked, not timed
  if (!opt.trace) {
    repeat_for(opt.seconds, 3, [&] { facade_run(true); });
    out.metrics["setup_s"] = median(setup);
    request_metrics(out, walls);
    out.metrics["peak_rss_mb"] = self_peak_rss_mb();
    out.metrics["edge_cut_ratio"] = median(cut_ratio);
    out.metrics["mapping_j_per_edge"] = median(j_per_edge);
    return;
  }

  // Traced: untraced facade runs for the overhead base, then the facade's
  // steps called module by module under spans.
  repeat_for(opt.seconds / 2, 3, [&] { facade_run(true); });
  std::vector<std::int32_t> runs;
  std::vector<double> roots;
  std::vector<double> counts[3];
  const auto traced_start = Clock::now();
  for (std::int32_t run = 100; run < 103 || seconds_since(traced_start) < opt.seconds / 2;
       ++run) {
    tracer.set_run(run);
    runs.push_back(run);
    OpCheck op;
    oms::OmsConfig config;
    config.epsilon = req.epsilon;
    config.seed = req.seed;
    {
      const Tracer::Scope root(tracer, "api.partition");
      oms::OnlineMultisection assigner(g.num_nodes(), g.num_edges(),
                                       g.total_node_weight(), topo, config);
      oms::StreamResult res;
      {
        const Tracer::Scope span(tracer, "stream.one_pass");
        res = oms::run_one_pass(g, assigner, req.threads);
      }
      oms::PartitionArtifact art;
      art.k = k;
      art.hierarchy = topo;
      art.assignment = std::move(res.assignment);
      {
        const Tracer::Scope span(tracer, "partition.edge_cut");
        art.metrics.edge_cut = static_cast<double>(oms::edge_cut(g, art.assignment));
      }
      art.metrics.imbalance = oms::imbalance(g, art.assignment, k);
      {
        const Tracer::Scope span(tracer, "mapping.mapping_cost");
        art.metrics.mapping_j =
            static_cast<double>(oms::mapping_cost(g, topo, art.assignment, req.threads));
      }
      art.rebuild_tree();
      roots.push_back(root.elapsed_s());
      check_partition(op, g, art.assignment, k);
      counts[0].push_back(static_cast<double>(res.work.score_evaluations));
      counts[1].push_back(static_cast<double>(res.work.neighbor_visits));
      counts[2].push_back(static_cast<double>(res.work.layers_traversed));
    }
    out.record(op);
  }
  out.metrics["graph.read_metis_s"] = median_self(tracer, {0, 1, 2}, "graph.read_metis");
  out.metrics["stream.one_pass_s"] = median_self(tracer, runs, "stream.one_pass");
  out.metrics["partition.edge_cut_s"] = median_self(tracer, runs, "partition.edge_cut");
  out.metrics["mapping.mapping_cost_s"] =
      median_self(tracer, runs, "mapping.mapping_cost");
  out.metrics["api.route_self_s"] = median_self(tracer, runs, "api.partition");
  out.metrics["core.score_evaluations"] = median(counts[0]);
  out.metrics["core.neighbor_visits"] = median(counts[1]);
  out.metrics["core.layers_traversed"] = median(counts[2]);
  out.metrics["trace.overhead_frac"] = (median(roots) - median(walls)) / median(walls);
  std::ofstream csv(opt.work + "/spans.csv");
  tracer.write_csv(csv, 0);
}

// --- the two sequential disk workloads ------------------------------------------------

/// One partition_tool run: its facade time, peak RSS, printed work counters
/// and the assignment it wrote.
struct ToolRun {
  int exit_code = -1;
  double total_s = 0.0;
  double rss_mb = 0.0;
  oms::WorkCounters work;
  std::vector<oms::BlockId> assignment;
};

[[nodiscard]] std::vector<oms::BlockId> read_assignment(const std::string& path) {
  const std::string text = slurp(path);
  std::vector<oms::BlockId> a;
  const char* p = text.data();
  const char* end = p + text.size();
  while (p < end) {
    oms::BlockId b = 0;
    const auto res = std::from_chars(p, end, b);
    if (res.ec != std::errc()) {
      break;
    }
    a.push_back(b);
    p = res.ptr;
    while (p < end && *p == '\n') {
      ++p;
    }
  }
  return a;
}

[[nodiscard]] double parse_after(const std::string& text, const std::string& key) {
  const std::size_t at = text.find(key);
  if (at == std::string::npos) {
    return -1.0;
  }
  return std::strtod(text.c_str() + at + key.size(), nullptr);
}

[[nodiscard]] ToolRun run_tool(const Options& opt, std::vector<std::string> args) {
  const std::string out_file = opt.work + "/part.txt";
  std::filesystem::remove(out_file);
  args.insert(args.begin(), {opt.bin + "/partition_tool", opt.input});
  args.insert(args.end(), {"--output", out_file});
  const pid_t pid = spawn(args, opt.work + "/tool.out", opt.work + "/tool.err");
  const ChildExit e = wait_child(pid);
  ToolRun run;
  run.exit_code = e.exit_code;
  const std::string text = slurp(opt.work + "/tool.out");
  run.total_s = parse_after(text, "(total ");
  // The tool's own VmHWM report: wait4's ru_maxrss would also count this
  // process's memory, which the spawned child inherits until exec.
  run.rss_mb = parse_after(text, "(peak RSS ");
  run.work.score_evaluations =
      static_cast<std::uint64_t>(std::max(0.0, parse_after(text, "work: ")));
  run.work.neighbor_visits =
      static_cast<std::uint64_t>(std::max(0.0, parse_after(text, "score evals, ")));
  run.work.layers_traversed =
      static_cast<std::uint64_t>(std::max(0.0, parse_after(text, "neighbor visits, ")));
  run.assignment = read_assignment(out_file);
  return run;
}

[[nodiscard]] std::vector<std::string> tool_args(const Options& opt) {
  if (opt.workload == kStream) {
    return {"--algo", "oms", "--k", std::to_string(kDiskK), "--from-disk"};
  }
  return {"--algo",       "buffered", "--buffered-engine", "multilevel",
          "--k",          std::to_string(kDiskK), "--from-disk", "--checkpoint",
          opt.work + "/ckpt.bin"};
}

/// nodes_streamed of the last snapshot the buffered driver writes: at the
/// first buffer boundary at or past each multiple of the cadence.
[[nodiscard]] std::uint64_t last_snapshot_at(std::uint64_t n, std::uint64_t buffer,
                                             std::uint64_t every) {
  std::uint64_t streamed = 0;
  std::uint64_t next = every;
  std::uint64_t last = 0;
  while (streamed < n) {
    streamed += std::min(buffer, n - streamed);
    if (streamed >= next) {
      last = streamed;
      while (next <= streamed) {
        next += every;
      }
    }
  }
  return last;
}

void check_checkpoint(OpCheck& op, const Options& opt, std::uint64_t n) {
  const oms::PartitionRequest defaults;
  const std::uint64_t expected = last_snapshot_at(
      n, static_cast<std::uint64_t>(defaults.buffer_size), defaults.checkpoint_every);
  try {
    const oms::CheckpointState state = oms::read_checkpoint_file(opt.work + "/ckpt.bin");
    op.require(state.meta.nodes_streamed == expected,
               "final checkpoint nodes_streamed " +
                   std::to_string(state.meta.nodes_streamed) + " != expected " +
                   std::to_string(expected));
    op.require(state.meta.num_nodes == n && state.meta.k == kDiskK &&
                   state.meta.algo == "buffered:multilevel",
               "final checkpoint header does not match the run");
  } catch (const oms::IoError& e) {
    op.require(false, std::string("final checkpoint unreadable: ") + e.what());
  }
}

/// What the traced disk loop produced, for comparison with the tool run.
struct TracedPass {
  std::vector<oms::BlockId> assignment;
  oms::WorkCounters work;
  std::uint64_t buffers = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t snapshot_bytes = 0;
  double root_s = 0.0;
};

/// The facade's sequential disk route, driven from here with spans around
/// each module call: fill_batch, then assign (one-pass) or process_buffer
/// plus the checkpoint calls (buffered), exactly as the drivers order them.
[[nodiscard]] TracedPass traced_disk_pass(const Options& opt, Tracer& tracer) {
  TracedPass pass;
  const Tracer::Scope root(tracer, "api.partition");
  oms::MetisNodeStream stream(opt.input);
  const oms::MetisHeader header = stream.header();
  const auto n = header.num_nodes;
  oms::NodeBatch batch;
  if (opt.workload == kStream) {
    oms::OnlineMultisection assigner(n, header.num_edges,
                                     static_cast<oms::NodeWeight>(n), kDiskK,
                                     oms::OmsConfig{});
    assigner.prepare(1);
    for (;;) {
      std::size_t got = 0;
      {
        const Tracer::Scope span(tracer, "stream.parse");
        got = stream.fill_batch(batch, 4096);
      }
      if (got == 0) {
        break;
      }
      const Tracer::Scope span(tracer, "core.assign");
      for (std::size_t i = 0; i < batch.size(); ++i) {
        (void)assigner.assign(batch.node(i), 0, pass.work);
      }
    }
    pass.assignment = assigner.take_assignment();
  } else {
    oms::BufferedConfig config;
    config.engine = oms::BufferedEngine::kMultilevel;
    oms::BufferedPartitioner core(n, static_cast<oms::NodeWeight>(n), kDiskK, config);
    const std::uint64_t every = oms::PartitionRequest{}.checkpoint_every;
    std::uint64_t streamed = 0;
    std::uint64_t next_snapshot = every;
    for (;;) {
      std::size_t got = 0;
      {
        const Tracer::Scope span(tracer, "stream.parse");
        got = stream.fill_batch(batch, config.buffer_size);
      }
      if (got == 0) {
        break;
      }
      {
        const Tracer::Scope span(tracer, "buffered.process_buffer");
        core.process_buffer(batch);
      }
      streamed += batch.size();
      if (streamed < next_snapshot) {
        continue;
      }
      oms::CheckpointMeta meta;
      meta.algo = oms::buffered_checkpoint_algo_id(config);
      meta.k = static_cast<std::uint64_t>(kDiskK);
      meta.seed = config.seed;
      meta.num_nodes = n;
      meta.nodes_streamed = streamed;
      meta.input_offset = stream.next_offset();
      meta.input_line_no = stream.line_no();
      oms::CheckpointWriter w;
      {
        const Tracer::Scope span(tracer, "buffered.save_state");
        core.save_stream_state(w);
      }
      {
        const Tracer::Scope span(tracer, "stream.checkpoint_write");
        oms::write_checkpoint_file(opt.work + "/ckpt.bin", meta, w.bytes());
      }
      ++pass.snapshots;
      pass.snapshot_bytes += w.bytes().size();
      while (next_snapshot <= streamed) {
        next_snapshot += every;
      }
    }
    pass.buffers = core.buffers_processed();
    pass.assignment = core.take_assignment();
  }
  pass.root_s = root.elapsed_s();
  return pass;
}

void run_disk(const Options& opt, Outcome& out) {
  Tracer tracer;
  std::vector<double> setup;
  const oms::CsrGraph g = load_graph(opt.input, opt.trace ? 1 : 3, setup,
                                     opt.trace ? &tracer : nullptr);
  const double m = static_cast<double>(g.num_edges());
  const oms::SystemHierarchy topo =
      oms::SystemHierarchy::parse(kDiskHierarchy, kDiskDistances);

  // Reference for the sequential one-pass route: the in-memory facade on the
  // same graph must decide bit-identically.
  std::vector<oms::BlockId> reference;
  if (opt.workload == kStream) {
    oms::PartitionRequest req;
    req.graph_path = opt.input;
    req.algo = "oms";
    req.k = kDiskK;
    reference = oms::Partitioner().partition(g, req).assignment;
  }

  std::vector<oms::BlockId> first;
  std::vector<double> walls;
  std::vector<double> rss;
  double cut_ratio = 0.0;
  double j_per_edge = 0.0;
  oms::WorkCounters tool_work;
  const auto tool_run = [&](bool timed) {
    if (opt.workload == kBuffered) {
      std::filesystem::remove(opt.work + "/ckpt.bin");
    }
    ToolRun run = run_tool(opt, tool_args(opt));
    OpCheck op;
    op.require(run.exit_code == 0,
               "partition_tool exited " + std::to_string(run.exit_code));
    op.require(run.total_s > 0.0, "partition_tool printed no facade time");
    check_partition(op, g, run.assignment, kDiskK);
    if (opt.workload == kStream) {
      op.require(run.assignment == reference,
                 "disk assignment differs from the in-memory route's");
    } else {
      check_checkpoint(op, opt, g.num_nodes());
    }
    if (first.empty()) {
      first = run.assignment;
      tool_work = run.work;
      if (op.ok()) {
        cut_ratio = static_cast<double>(oms::edge_cut(g, first)) / m;
        j_per_edge = static_cast<double>(oms::mapping_cost(g, topo, first, 4)) / m;
      }
    } else {
      op.require(run.assignment == first, "assignment differs between runs");
    }
    out.record(op);
    if (timed) {
      walls.push_back(run.total_s);
      rss.push_back(run.rss_mb);
    }
  };

  tool_run(false); // warm-up: checked, not timed
  if (!opt.trace) {
    repeat_for(opt.seconds, 3, [&] { tool_run(true); });
    out.metrics["setup_s"] = median(setup);
    request_metrics(out, walls);
    out.metrics["peak_rss_mb"] = median(rss);
    out.metrics["edge_cut_ratio"] = cut_ratio;
    out.metrics["mapping_j_per_edge"] = j_per_edge;
    return;
  }

  // Traced: untraced tool runs for the overhead base; one instrumented tool
  // run for the program's own stage sums; then the traced loop.
  repeat_for(opt.seconds / 2, 3, [&] { tool_run(true); });
  {
    std::vector<std::string> args = tool_args(opt);
    args.insert(args.end(), {"--metrics-out", opt.work + "/metrics.json"});
    const ToolRun run = run_tool(opt, args);
    OpCheck op;
    op.require(run.exit_code == 0 && run.assignment == first,
               "instrumented partition_tool run differs");
    out.record(op);
    const std::string json = slurp(opt.work + "/metrics.json");
    const auto stage_s = [&json](const std::string& name) {
      const std::size_t at = json.find("\"" + name + "\":{");
      return at == std::string::npos ? 0.0 : parse_after(json.substr(at), "\"sum\":") * 1e-9;
    };
    out.metrics["tool.stage.checkpoint_write_s"] = stage_s("stage.checkpoint_write_ns");
    out.metrics["tool.stage.multilevel_s"] = stage_s("stage.multilevel_ns");
    out.metrics["tool.stage.buffer_build_place_s"] = stage_s("stage.buffer_build_place_ns");
    out.metrics["tool.stage.buffer_refine_s"] = stage_s("stage.buffer_refine_ns");
  }
  std::vector<std::int32_t> runs;
  std::vector<double> roots;
  TracedPass pass;
  const auto traced_start = Clock::now();
  for (std::int32_t run = 100; run < 103 || seconds_since(traced_start) < opt.seconds / 2;
       ++run) {
    tracer.set_run(run);
    runs.push_back(run);
    if (opt.workload == kBuffered) {
      std::filesystem::remove(opt.work + "/ckpt.bin");
    }
    pass = traced_disk_pass(opt, tracer);
    roots.push_back(pass.root_s);
    OpCheck op;
    op.require(pass.assignment == first,
               "traced loop assignment differs from the facade route's");
    if (opt.workload == kStream) {
      op.require(pass.work.score_evaluations == tool_work.score_evaluations &&
                     pass.work.neighbor_visits == tool_work.neighbor_visits &&
                     pass.work.layers_traversed == tool_work.layers_traversed,
                 "traced work counters differ from the tool's");
    } else {
      check_checkpoint(op, opt, g.num_nodes());
    }
    out.record(op);
  }
  const double file_mb =
      static_cast<double>(std::filesystem::file_size(opt.input)) / 1e6;
  const double parse = median_self(tracer, runs, "stream.parse");
  out.metrics["graph.read_metis_s"] = median(setup);
  out.metrics["stream.parse_s"] = parse;
  out.metrics["stream.parse_mb_per_s"] = file_mb / parse;
  out.metrics["api.route_self_s"] = median_self(tracer, runs, "api.partition");
  out.metrics["trace.overhead_frac"] = (median(roots) - median(walls)) / median(walls);
  if (opt.workload == kStream) {
    out.metrics["core.assign_s"] = median_self(tracer, runs, "core.assign");
    out.metrics["core.score_evaluations"] = static_cast<double>(pass.work.score_evaluations);
    out.metrics["core.neighbor_visits"] = static_cast<double>(pass.work.neighbor_visits);
    out.metrics["core.layers_traversed"] = static_cast<double>(pass.work.layers_traversed);
  } else {
    out.metrics["buffered.process_buffer_s"] =
        median_self(tracer, runs, "buffered.process_buffer");
    out.metrics["buffered.save_state_s"] = median_self(tracer, runs, "buffered.save_state");
    out.metrics["stream.checkpoint_write_s"] =
        median_self(tracer, runs, "stream.checkpoint_write");
    out.metrics["buffered.buffers"] = static_cast<double>(pass.buffers);
    out.metrics["stream.checkpoint_snapshots"] = static_cast<double>(pass.snapshots);
    out.metrics["stream.checkpoint_mb"] = static_cast<double>(pass.snapshot_bytes) / 1e6;
  }
  std::ofstream csv(opt.work + "/spans.csv");
  tracer.write_csv(csv, 0);
}

// --- serve-rank ------------------------------------------------------------------------

/// CPUs this process may run on, as captured at first use.
[[nodiscard]] const std::vector<int>& usable_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) {
          out.push_back(c);
        }
      }
    }
    return out;
  }();
  return cpus;
}

/// Restrict the calling thread, and what it starts afterwards, to \p count
/// usable CPUs from index \p first. serve-rank runs the daemon on the first
/// two CPUs and pins client connection i to the i-th of them, so each client
/// thread shares a CPU with the daemon thread answering it. Left unpinned,
/// the pairs sometimes share a CPU and sometimes not, and the round trip
/// flips between two modes from run to run. No-op below 4 CPUs.
void pin_this_thread(std::size_t first, std::size_t count) {
  const std::vector<int>& cpus = usable_cpus();
  if (cpus.size() < 4) {
    return;
  }
  cpu_set_t want;
  CPU_ZERO(&want);
  for (std::size_t i = first; i < std::min(first + count, cpus.size()); ++i) {
    CPU_SET(cpus[i], &want);
  }
  (void)::sched_setaffinity(0, sizeof want, &want);
}

/// A running oms_serve daemon on a Unix socket.
class Daemon {
public:
  Daemon(const Options& opt, const std::string& artifact, const std::string& socket)
      : socket_(socket) {
    std::filesystem::remove(socket_);
    pin_this_thread(0, 2); // inherited by the daemon
    pid_ = spawn({opt.bin + "/oms_serve", "--artifact", artifact, "--socket", socket_},
                 opt.work + "/serve.out", opt.work + "/serve.err");
    pin_this_thread(0, usable_cpus().size());
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      (void)wait_child(pid_);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Poll with STATS until the daemon answers; returns the reply. Throws if
  /// the daemon exits or does not answer within a minute.
  [[nodiscard]] oms::service::ClientStats wait_ready() {
    oms::service::ClientConfig config;
    config.max_attempts = 1;
    config.connect_timeout_ms = 1000;
    const auto start = Clock::now();
    for (;;) {
      try {
        oms::service::ServiceClient client(socket_, config);
        return client.stats();
      } catch (const oms::IoError&) {
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
          pid_ = -1;
          throw std::runtime_error("oms_serve exited before answering");
        }
        if (seconds_since(start) > 60.0) {
          throw std::runtime_error("oms_serve did not answer within 60 s");
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
  }

  /// SHUTDOWN, then reap: the daemon's exit code and peak RSS. The peak is
  /// read from /proc just before SHUTDOWN, which allocates nothing.
  [[nodiscard]] ChildExit shutdown() {
    const std::string status = slurp("/proc/" + std::to_string(pid_) + "/status");
    const double hwm_kb = parse_after(status, "VmHWM:");
    oms::service::ServiceClient client(socket_);
    const oms::service::ClientReply reply =
        client.request(oms::service::encode_shutdown());
    ChildExit e = wait_child(pid_);
    e.rss_mb = hwm_kb / 1024.0;
    pid_ = -1;
    if (reply.status != oms::service::Status::kOk) {
      e.exit_code = -1;
    }
    return e;
  }

private:
  std::string socket_;
  pid_t pid_ = -1;
};

/// Closed-loop RANK traffic from two connections, each with its own client.
struct LoadResult {
  std::vector<double> latencies_s;
  std::vector<double> done_at_s; ///< completion time of each request
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
  std::uint64_t reconnects = 0;
  double elapsed_s = 0.0;
  std::vector<std::string> failures;
};

constexpr int kConnections = 2;

[[nodiscard]] LoadResult rank_load(const std::string& socket,
                                   const oms::PartitionArtifact& local,
                                   std::uint64_t seed, double seconds,
                                   std::vector<Tracer>* tracers) {
  std::atomic<bool> stop{false};
  std::vector<LoadResult> per(kConnections);
  std::vector<std::thread> threads;
  const std::uint64_t items = local.assignment.size();
  const auto start = Clock::now();
  for (int t = 0; t < kConnections; ++t) {
    threads.emplace_back([&, t] {
      pin_this_thread(static_cast<std::size_t>(t), 1);
      LoadResult& r = per[static_cast<std::size_t>(t)];
      Tracer* tracer = tracers != nullptr ? &(*tracers)[static_cast<std::size_t>(t)] : nullptr;
      if (tracer != nullptr) {
        tracer->set_run(30 + t); // apart from the run ids of the main tracer
      }
      oms::Rng rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(t) + 1);
      oms::service::ServiceClient client(socket);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t id = rng.next_below(items);
        const auto begin = Clock::now();
        std::int64_t answer = -1;
        std::string error;
        try {
          if (tracer != nullptr) {
            const Tracer::Scope span(*tracer, "service.request");
            answer = client.rank(id);
          } else {
            answer = client.rank(id);
          }
        } catch (const oms::IoError& e) {
          error = e.what();
        }
        r.latencies_s.push_back(seconds_since(begin));
        r.done_at_s.push_back(seconds_since(start));
        ++r.sent;
        if (error.empty() && answer != local.rank_of(id)) {
          error = "RANK " + std::to_string(id) + " = " + std::to_string(answer) +
                  ", expected " + std::to_string(local.rank_of(id));
        }
        if (!error.empty()) {
          ++r.failed;
          if (r.failures.size() < 5) {
            r.failures.push_back(error);
          }
        }
      }
      r.reconnects = static_cast<std::uint64_t>(client.connects() - 1);
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (std::thread& t : threads) {
    t.join();
  }
  LoadResult all;
  all.elapsed_s = seconds_since(start);
  for (LoadResult& r : per) {
    all.latencies_s.insert(all.latencies_s.end(), r.latencies_s.begin(),
                           r.latencies_s.end());
    all.done_at_s.insert(all.done_at_s.end(), r.done_at_s.begin(), r.done_at_s.end());
    all.sent += r.sent;
    all.failed += r.failed;
    all.reconnects += r.reconnects;
    all.failures.insert(all.failures.end(), r.failures.begin(), r.failures.end());
  }
  return all;
}

/// The median over one-second windows of each window's 99th percentile.
/// A window holds tens of thousands of samples, so its p99 has hundreds
/// beyond it; the median over windows keeps one burst of host preemption
/// from setting the whole run's tail.
[[nodiscard]] double windowed_p99(const LoadResult& load) {
  std::vector<std::vector<double>> windows;
  for (std::size_t i = 0; i < load.latencies_s.size(); ++i) {
    const auto w = static_cast<std::size_t>(load.done_at_s[i]);
    if (w >= windows.size()) {
      windows.resize(w + 1);
    }
    windows[w].push_back(load.latencies_s[i]);
  }
  std::vector<double> p99s;
  for (const std::vector<double>& w : windows) {
    if (w.size() >= 1000) {
      p99s.push_back(quantile(w, 0.99));
    }
  }
  return p99s.empty() ? quantile(load.latencies_s, 0.99) : median(p99s);
}

/// Count the load's requests into the outcome; reconcile with the daemon's
/// STATS requests_served (the STATS probes it answered count too).
void record_load(Outcome& out, const LoadResult& load, std::uint64_t served,
                 std::uint64_t stats_probes) {
  out.attempted += load.sent;
  out.failed += load.failed;
  for (const std::string& f : load.failures) {
    out.failures.push_back(f);
  }
  const std::uint64_t expected = load.sent + stats_probes;
  // A retried request reaches the daemon twice; without reconnects the
  // counts must agree exactly.
  if (load.reconnects == 0 ? served != expected : served < expected) {
    out.fail("STATS requests_served " + std::to_string(served) + " != " +
             std::to_string(expected) + " requests sent");
  }
}

void run_serve(const Options& opt, Outcome& out) {
  Tracer tracer;
  // The mapping workload's request. It runs one thread, so the served
  // artifact, and with it every expected reply, is a function of the seed.
  const oms::PartitionRequest req = mapping_request(opt.input);
  const oms::SystemHierarchy topo =
      oms::SystemHierarchy::parse(*req.hierarchy, req.distances);
  const oms::BlockId k = topo.num_pes();
  const std::string artifact_path = opt.work + "/served.omspart";
  const std::string socket = opt.work + "/oms.sock";

  // The served artifact: the mapping workload's request on the same graph,
  // built through the facade and snapshotted.
  std::vector<double> walls;
  {
    std::vector<double> load_times;
    const oms::CsrGraph g =
        load_graph(opt.input, 1, load_times, opt.trace ? &tracer : nullptr);
    const double m = static_cast<double>(g.num_edges());
    std::optional<oms::PartitionArtifact> art;
    repeat_for(opt.trace ? 0.0 : opt.seconds / 3, 1, [&] {
      art.reset();
      const auto start = Clock::now();
      art = oms::Partitioner().partition(g, req);
      walls.push_back(seconds_since(start));
      OpCheck op;
      check_partition(op, g, art->assignment, k);
      op.require(art->metrics.edge_cut ==
                     static_cast<double>(oms::edge_cut(g, art->assignment)),
                 "facade edge_cut != recomputed edge_cut");
      out.record(op);
    });
    out.metrics["graph.read_metis_s"] = load_times.front();
    out.metrics["edge_cut_ratio"] = art->metrics.edge_cut / m;
    out.metrics["mapping_j_per_edge"] = art->metrics.mapping_j / m;
    oms::write_artifact(*art, artifact_path);
  }
  // The client's reference answers come from the same snapshot.
  std::vector<double> restore;
  std::optional<oms::PartitionArtifact> local;
  for (std::int32_t i = 0; i < 3; ++i) {
    local.reset();
    tracer.set_run(10 + i);
    const auto start = Clock::now();
    {
      const Tracer::Scope span(tracer, "api.read_artifact");
      local = oms::read_artifact(artifact_path);
    }
    restore.push_back(seconds_since(start));
  }
  const std::uint64_t items = local->assignment.size();

  // Set-up: daemon spawn until its first STATS reply, several times.
  std::vector<double> setup;
  std::optional<Daemon> daemon;
  constexpr int kStarts = 21;
  for (int i = 0; i < kStarts; ++i) {
    daemon.reset();
    const auto start = Clock::now();
    daemon.emplace(opt, artifact_path, socket);
    const oms::service::ClientStats stats = daemon->wait_ready();
    setup.push_back(seconds_since(start));
    OpCheck op;
    op.require(stats.items == items && stats.k == static_cast<std::uint32_t>(k) &&
                   stats.requests_served == 1,
               "daemon STATS does not describe the served artifact");
    if (i + 1 < kStarts) {
      const ChildExit e = daemon->shutdown();
      op.require(e.exit_code == 0, "oms_serve SHUTDOWN exit " + std::to_string(e.exit_code));
      daemon.reset();
    }
    out.record(op);
  }

  const auto finish = [&](const LoadResult& load) {
    oms::service::ServiceClient client(socket);
    const std::uint64_t served = client.stats().requests_served;
    record_load(out, load, served, 2);
    const ChildExit e = daemon->shutdown();
    daemon.reset();
    if (e.exit_code != 0) {
      out.fail("oms_serve SHUTDOWN exit " + std::to_string(e.exit_code));
    }
    return e;
  };

  if (!opt.trace) {
    const LoadResult load = rank_load(socket, *local, opt.seed, opt.seconds, nullptr);
    const ChildExit e = finish(load);
    out.metrics["setup_s"] = median(setup);
    out.metrics["partition_s"] = median(walls);
    out.metrics["peak_rss_mb"] = e.rss_mb;
    out.metrics["requests_per_s"] =
        static_cast<double>(load.sent - load.failed) / load.elapsed_s;
    out.metrics["request_p50_us"] = median(load.latencies_s) * 1e6;
    out.metrics["request_p99_us"] = windowed_p99(load) * 1e6;
    out.info.push_back("{\"latency_samples\":" + std::to_string(load.latencies_s.size()) +
                       "}");
    return;
  }

  // Traced: the service core in-process on pre-encoded RANK bodies (one
  // thread), then untraced and traced closed loops against the daemon.
  {
    const oms::service::PartitionService service(*local);
    oms::Rng rng(opt.seed);
    std::vector<std::vector<char>> bodies;
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 100000; ++i) {
      ids.push_back(rng.next_below(items));
      bodies.push_back(oms::service::encode_rank(ids.back()));
    }
    OpCheck op;
    for (std::size_t i = 0; i < bodies.size(); ++i) {
      const oms::service::Reply reply = service.handle(bodies[i].data(), bodies[i].size());
      std::uint32_t status = 1;
      std::uint32_t value = 0;
      if (reply.body.size() == 8) {
        std::memcpy(&status, reply.body.data(), 4);
        std::memcpy(&value, reply.body.data() + 4, 4);
      }
      if (status != 0 || static_cast<std::int64_t>(value) != local->rank_of(ids[i])) {
        op.require(false, "in-process RANK reply wrong for id " + std::to_string(ids[i]));
        break;
      }
    }
    out.record(op);
    std::vector<double> per_request;
    for (std::int32_t round = 0; round < 5; ++round) {
      tracer.set_run(20 + round);
      const auto start = Clock::now();
      {
        const Tracer::Scope span(tracer, "service.handle");
        for (const std::vector<char>& body : bodies) {
          const oms::service::Reply reply = service.handle(body.data(), body.size());
          if (reply.body.empty()) {
            op.require(false, "empty in-process reply");
          }
        }
      }
      per_request.push_back(seconds_since(start) / static_cast<double>(bodies.size()));
    }
    out.metrics["service.handle_us"] = median(per_request) * 1e6;
  }
  daemon.reset();
  daemon.emplace(opt, artifact_path, socket);
  (void)daemon->wait_ready();
  const LoadResult base = rank_load(socket, *local, opt.seed, opt.seconds / 2, nullptr);
  std::vector<Tracer> tracers(kConnections);
  for (Tracer& t : tracers) {
    t.reserve(static_cast<std::size_t>(base.sent));
  }
  const LoadResult traced = rank_load(socket, *local, opt.seed + 1, opt.seconds / 2,
                                      &tracers);
  LoadResult both = base;
  both.sent += traced.sent;
  both.failed += traced.failed;
  both.reconnects += traced.reconnects;
  both.failures.insert(both.failures.end(), traced.failures.begin(), traced.failures.end());
  (void)finish(both);
  const double p50 = median(base.latencies_s) * 1e6;
  out.metrics["api.read_artifact_s"] = median(restore);
  out.metrics["service.transport_us"] = p50 - out.metrics["service.handle_us"];
  out.metrics["service.reconnects"] = static_cast<double>(both.reconnects);
  out.metrics["trace.overhead_frac"] = (median(traced.latencies_s) * 1e6 - p50) / p50;
  std::ofstream csv(opt.work + "/spans.csv");
  tracer.write_csv(csv, 0);
  std::int64_t base_id = static_cast<std::int64_t>(tracer.spans().size());
  for (const Tracer& t : tracers) {
    t.write_csv(csv, base_id);
    base_id += static_cast<std::int64_t>(t.spans().size());
  }
}

// --- entry points -------------------------------------------------------------------

int gen_main(const Options& opt) {
  const InputSpec spec = input_spec(opt.workload, opt.tiny);
  const oms::CsrGraph g = generate(spec, opt.seed);
  const std::string tmp = opt.input + ".tmp";
  oms::write_metis(g, tmp);
  std::filesystem::rename(tmp, opt.input);
  return 0;
}

/// The workload and metric names this driver emits, for the self-test's
/// comparison with BENCHMARK.json.
int list_main() {
  const auto names = [](const auto& defs) {
    std::string s;
    for (const MetricDef& d : defs) {
      s += std::string(s.empty() ? "" : ", ") + "\"" + d.name + "\": \"" + d.unit + "\"";
    }
    return "{" + s + "}";
  };
  std::cout << "{\"workloads\": [\"" << kMapping << "\", \"" << kStream << "\", \""
            << kBuffered << "\", \"" << kServe << "\"], \"end_to_end\": "
            << names(kEndToEnd) << ", \"per_layer\": " << names(kPerLayer) << "}\n";
  return 0;
}

int run_main(const Options& opt) {
  std::filesystem::create_directories(opt.work);
  Outcome out;
  if (opt.workload == kMapping) {
    run_mapping(opt, out);
  } else if (opt.workload == kServe) {
    run_serve(opt, out);
  } else {
    run_disk(opt, out);
  }

  // Inputs as the program saw them: header counts and file size.
  const oms::MetisHeader header = oms::MetisNodeStream(opt.input).header();
  std::cout << "{\"workload\":\"" << opt.workload << "\",\"seed\":" << opt.seed
            << ",\"input\":{\"n\":" << header.num_nodes << ",\"m\":" << header.num_edges
            << ",\"file_bytes\":" << std::filesystem::file_size(opt.input)
            << ",\"params\":" << spec_json(input_spec(opt.workload, opt.tiny)) << "}}\n";
  for (const std::string& line : out.info) {
    std::cout << line << "\n";
  }
  for (const std::string& f : out.failures) {
    std::cerr << "check failed: " << f << "\n";
  }

  std::ostringstream metrics;
  bool first = true;
  const auto emit = [&](const MetricDef& def) {
    const auto it = out.metrics.find(def.name);
    // A layer the workload never calls reads 0.
    const double value = it == out.metrics.end() ? 0.0 : it->second;
    metrics << (first ? "" : ", ") << "\"" << def.name << "\": {\"value\": "
            << number(value) << ", \"unit\": \"" << def.unit << "\"}";
    first = false;
  };
  if (opt.trace) {
    for (const MetricDef& def : kPerLayer) {
      emit(def);
    }
  } else {
    for (const MetricDef& def : kEndToEnd) {
      if (out.metrics.find(def.name) == out.metrics.end()) {
        throw std::logic_error(std::string("end-to-end metric not measured: ") + def.name);
      }
      emit(def);
    }
  }
  const bool correct = out.failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
            << ", \"metrics\": {" << metrics.str() << "}}" << std::endl;
  return correct ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
  try {
    if (argc == 2 && std::string(argv[1]) == "list") {
      return list_main();
    }
    const Options opt = parse_options(argc, argv);
    if (opt.command == "gen") {
      return gen_main(opt);
    }
    if (opt.command == "run") {
      return run_main(opt);
    }
    throw std::invalid_argument("unknown command '" + opt.command + "'");
  } catch (const std::exception& e) {
    std::cerr << "omsbench: " << e.what() << "\n";
    return 2;
  }
}
