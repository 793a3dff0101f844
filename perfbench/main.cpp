// One repetition of one benchmark workload: runs every point of the named
// workload on fresh pools and prints one JSON object with the raw host
// timings, simulated counters and correctness checks of each point.
// perfbench/run.py runs this binary repeatedly and derives the metrics.
//
//   perfbench --workload tpcc-adr-8w --seed 42 [--trace]
//
// --trace wraps every worker context in a TracedContext and turns on the
// phase-latency telemetry; neither may change a simulated counter.
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "harness.h"
#include "stats/histogram.h"
#include "workloads/kv.h"
#include "workloads/tpcc.h"
#include "workloads/vacation.h"

namespace {

using perfbench::PointSpec;

// The L3 and DRAM-cache scale the Table I-III bench binaries use
// (bench::apply_model_scale).
nvm::SystemConfig table_scale(nvm::Domain domain) {
  nvm::SystemConfig sys;
  sys.media = nvm::Media::kOptane;
  sys.domain = domain;
  sys.l3_bytes = 2ull << 20;
  sys.dram_cache_bytes = 512ull << 20;
  return sys;
}

// Operation counts are sized so one repetition runs for a few host
// seconds, long enough that each counter is stable across seeds.
std::vector<PointSpec> workload_points(const std::string& name) {
  std::vector<PointSpec> out;
  if (name == "tpcc-adr-8w") {
    workloads::TpccParams tp;
    tp.index = workloads::TpccIndex::kHashTable;
    for (ptm::Algo algo : {ptm::Algo::kOrecLazy, ptm::Algo::kOrecEager}) {
      PointSpec p;
      p.label = std::string("TPCC-Hash/Optane_ADR_") + ptm::algo_suffix(algo);
      p.factory = workloads::tpcc_factory(tp);
      p.sys = table_scale(nvm::Domain::kAdr);
      p.algo = algo;
      p.threads = 8;
      p.ops_per_thread = 400;
      out.push_back(std::move(p));
    }
  } else if (name == "vacation-eadr-8w") {
    PointSpec p;
    p.label = "Vacation-high/Optane_eADR_R";
    p.factory = workloads::vacation_factory(workloads::vacation_high());
    p.sys = table_scale(nvm::Domain::kEadr);
    p.algo = ptm::Algo::kOrecLazy;
    p.threads = 8;
    p.ops_per_thread = 4000;
    out.push_back(std::move(p));
  } else if (name == "kv-pdram-1w") {
    // Fig 8 at 1/256 scale: a 640 MB working set of 1-KB values against a
    // 384 MB DRAM cache and a 160 KB L3.
    workloads::KvParams kp;
    kp.items = (640ull << 20) / kp.value_bytes;
    PointSpec p;
    p.label = "memcached-kv@160GB/PDRAM_R";
    p.factory = workloads::kv_factory(kp);
    p.sys.media = nvm::Media::kOptane;
    p.sys.domain = nvm::Domain::kPdram;
    p.sys.l3_bytes = 160ull << 10;
    p.sys.dram_cache_bytes = 384ull << 20;
    p.algo = ptm::Algo::kOrecLazy;
    p.threads = 1;
    p.ops_per_thread = 250000;
    out.push_back(std::move(p));
  }
  return out;
}

int usage() {
  std::cerr << "usage: perfbench --workload <tpcc-adr-8w|vacation-eadr-8w|kv-pdram-1w>"
               " --seed <n> [--trace]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 42;
  bool traced = false;
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    if (a == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else if (a == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--trace") {
      traced = true;
    } else {
      return usage();
    }
  }
  const std::vector<PointSpec> points = workload_points(workload);
  if (points.empty()) return usage();

  stats::set_telemetry_enabled(traced);
  stats::Histogram commit_ns;
  std::vector<perfbench::PointResult> results;
  for (const PointSpec& p : points) {
    results.push_back(perfbench::run_point(p, seed, traced));
    commit_ns.merge(results.back().totals.phases[stats::Phase::kCommit]);
  }

  stats::JsonWriter w(std::cout);
  w.begin_object();
  w.kv("workload", workload);
  w.kv("seed", seed);
  w.kv("traced", traced);
  w.key("points").begin_array();
  for (const perfbench::PointResult& r : results) {
    w.begin_object();
    perfbench::write_point_fields(w, r);
    w.end_object();
  }
  w.end_array();
  if (traced) {
    w.kv("commit_p50_sim_ns", commit_ns.p50());
    w.kv("commit_p99_sim_ns", commit_ns.p99());
  }
  w.end_object();
  std::cout << std::endl;
  return 0;
}
