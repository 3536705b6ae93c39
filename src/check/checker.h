// Cross-shard happens-before race checker (paper §3.4, §5).
//
// Control replication claims to insert *exactly enough* copies and
// synchronization for the SPMD program to preserve the implicit
// program's sequential semantics. End-to-end data comparison cannot
// distinguish "correctly synchronized" from "accidentally ordered by
// the simulator's schedule"; this checker can. It takes
//   - the access log recorded during execution,
//   - the happens-before DAG recorded by sim::EventGraph (precondition
//     edges, merges, barrier-generation advances, collective gathers)
//     and the order in which its events fired,
// and verifies that every conflicting access pair on overlapping
// points of the same physical location is ordered by the graph in the
// direction the implicit program's dependence relation demands. An
// unordered pair is a race: the report names both sites, their IR
// statements, and the missing edge.
//
// Cost is linear in accesses. Each place's accesses are walked in
// implicit program order, and each is checked only against the
// frontier of its earlier conflicting accesses: per point and field,
// the writes of the last writing statement, the reads since, and the
// reductions since, by operator. Pieces of one statement are checked
// against each other exhaustively. Happens-before is transitive, so a
// place whose frontier pairs are all ordered has no race at all; a
// place with an unordered frontier pair is re-checked pair by pair so
// the report lists every race, exactly as an all-pairs check would.
//
// Precondition (what makes the frontier argument sound): every logged
// access's start anchors reach its done event in the recorded graph,
// and an access with done_uid 0 has no start anchors. The engine's
// wiring guarantees both; tests/check/checker_test.cc asserts them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/access_log.h"
#include "sim/event_graph.h"

namespace cr::check {

struct CheckStats {
  uint64_t accesses = 0;
  uint64_t hb_nodes = 0;  // distinct uids on edges or access anchors
  uint64_t hb_edges = 0;
  // Conflicting pairs whose order decided the verdict: the frontier
  // pairs of race-free places, every conflicting pair of a racy place.
  uint64_t pairs_checked = 0;
  uint64_t races = 0;
  std::string to_text() const;
};

struct Race {
  size_t first = 0;   // index into the access log: logically earlier op
  size_t second = 0;  // logically later (equal seq: concurrent) op
  std::string text;   // formatted report
};

struct CheckResult {
  CheckStats stats;
  std::vector<Race> races;
  bool ok() const { return races.empty(); }
  std::string to_text() const;
};

// `program` is the executed (transformed) program, used only to print
// the IR statements of racing accesses.
CheckResult check(const AccessLog& log, const sim::EventGraph& graph,
                  const ir::Program& program);

// The report text of a race between the log's accesses `earlier` and
// `later` (concurrent: pieces of one statement).
std::string race_text(const AccessLog& log, size_t earlier, size_t later,
                      bool concurrent, const ir::Program& program);

}  // namespace cr::check
