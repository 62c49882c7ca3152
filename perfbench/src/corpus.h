// Workload inputs: the scaled paper chips and the oracle corpus — every net's OracleInstance built against warm prices and
// multipliers, as the Tables I/II harness builds them.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "api/cdst.h"
#include "report.h"
#include "route/netlist_gen.h"
#include "trace.h"

namespace perfbench {

/// Net-count scale of the paper chips (Table III) used by every workload.
inline constexpr double kChipScale = 0.001;
/// Lagrangean rounds of a Table V routing run.
inline constexpr int kTableVRounds = 5;

struct Chip {
  cdst::ChipConfig config;
  cdst::RoutingGrid grid;
  cdst::Netlist netlist;
  double dbif{0.0};
};

/// Paper chip c<number> (1..8) at kChipScale, with the table harnesses'
/// generator seeds. The benchmark seed does not change netlists: a netlist
/// drawn per seed moves route time by about 25% between seeds.
std::unique_ptr<Chip> make_chip(int number);

/// Library-default RouterOptions with only the Table V settings applied:
/// the CD method, the chip's dbif and the table harnesses' session seed.
/// The benchmark seed does not feed RouterOptions::seed: on c8 one seed in
/// about twenty changes sharded routing (TNS by 3.5%), and the quality
/// metrics must repeat exactly between runs.
cdst::RouterOptions table_v_options(const Chip& chip);

/// Routing quality of committed routes, summed over chips like the "all" row
/// of Table V, plus the Eq. (1) objective of every routed tree at the
/// committed prices and multipliers. Deterministic.
struct RoutingQuality {
  double ws{0.0};
  double tns{0.0};
  double ace4_sum{0.0};
  double objective{0.0};
  std::size_t chips{0};

  void add(const Chip& chip, const cdst::RouterResult& result);
  bool operator==(const RoutingQuality&) const = default;
};

/// Sink-count bucket of the Tables I/II (0: 3-5, 1: 6-14, 2: 15-29,
/// 3: >= 30), or -1 for nets with fewer than three sinks.
int sink_bucket(std::size_t sinks);

struct Corpus {
  std::vector<std::unique_ptr<Chip>> chips;
  /// One instance per net with sinks, chip by chip in net order.
  std::vector<cdst::OracleInstance> instances;
  /// Solver jobs pointing into `instances` (per-net future cost and seed).
  std::vector<cdst::CdSolver::Job> jobs;
  std::vector<std::size_t> sinks;  ///< sink count per instance
  std::vector<std::size_t> chip_end;  ///< one past each chip's instances
  cdst::SolverOptions solver_options;
  std::vector<double> window_build_ms;  ///< per instance construction
  RoutingQuality warm_quality;  ///< of the warm state the corpus is cut from
};

/// Routes each chip `warm_rounds` Table V rounds on `pool`, then builds every
/// net's OracleInstance with its own route ripped up. Warm-up failures are
/// counted in `outcome`; window builds are traced when `tracer` is set.
Corpus build_corpus(const std::vector<int>& chip_numbers, int warm_rounds, cdst::ThreadPool& pool, Outcome& outcome,
                    Tracer* tracer);

}  // namespace perfbench
