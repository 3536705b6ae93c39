// The exhaustive race checker the frontier checker is tested against:
// every conflicting pair of every place, and every reachability query
// answered by one Kahn-order sweep of per-node source bitsets over the
// whole graph. O(k^2) in a place's accesses and O(nodes x sources) in
// the sweep, so it is for tests only. Same conflict rules, same race
// order (by log index of the earlier, then the later access), same race
// text; its hb_nodes count the uids on edges or on a queried pair's
// anchors, and pairs_checked every conflicting pair.
#pragma once

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "check/checker.h"
#include "support/check.h"

namespace cr::check::testing {

inline bool brute_conflicting(const Access& a, const Access& b) {
  if (a.type == AccessType::kRead && b.type == AccessType::kRead) {
    return false;
  }
  if (a.type == AccessType::kReduce && b.type == AccessType::kReduce &&
      a.redop == b.redop) {
    return false;
  }
  bool fields = false;
  for (rt::FieldId x : *a.fields) {
    for (rt::FieldId y : *b.fields) fields |= x == y;
  }
  return fields && a.points->overlaps(*b.points);
}

inline CheckResult brute_force_check(const AccessLog& log,
                                     const sim::EventGraph& graph,
                                     const ir::Program& program) {
  struct Pair {
    size_t first = 0;
    size_t second = 0;
    bool concurrent = false;
    bool ordered = false;
  };
  CheckResult out;
  out.stats.accesses = log.accesses.size();

  std::map<uint64_t, std::vector<size_t>> by_place;
  for (size_t i = 0; i < log.accesses.size(); ++i) {
    by_place[log.accesses[i].place].push_back(i);
  }
  std::vector<Pair> pairs;
  for (const auto& [place, ids] : by_place) {
    for (size_t x = 0; x < ids.size(); ++x) {
      const Access& ax = log.accesses[ids[x]];
      for (size_t y = x + 1; y < ids.size(); ++y) {
        const Access& ay = log.accesses[ids[y]];
        if (ax.seq == ay.seq && ax.sub == ay.sub) continue;
        if (!brute_conflicting(ax, ay)) continue;
        Pair pc{ids[x], ids[y], ax.seq == ay.seq, false};
        if (ay.seq < ax.seq || (ay.seq == ax.seq && ay.sub < ax.sub)) {
          std::swap(pc.first, pc.second);
        }
        pairs.push_back(pc);
      }
    }
  }
  std::sort(pairs.begin(), pairs.end(), [](const Pair& a, const Pair& b) {
    return std::tie(a.first, a.second) < std::tie(b.first, b.second);
  });
  out.stats.pairs_checked = pairs.size();

  // Dense node ids for every uid on an edge or a queried anchor.
  std::map<uint64_t, uint32_t> ids;
  auto intern = [&](uint64_t uid) {
    return ids.try_emplace(uid, static_cast<uint32_t>(ids.size()))
        .first->second;
  };
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (const auto& [from, to] : graph.edges()) {
    edges.emplace_back(intern(from), intern(to));
  }
  out.stats.hb_edges = edges.size();

  // One query per direction: source access -> (pair, destination).
  struct Query {
    size_t pair = 0;
    size_t src = 0;
  };
  std::vector<Query> queries;
  std::map<size_t, size_t> bit_of;                  // src access -> bit
  std::map<uint32_t, std::vector<size_t>> bucket;   // node -> queries
  auto add_direction = [&](size_t p, size_t src, size_t dst) {
    const Access& a = log.accesses[src];
    const Access& b = log.accesses[dst];
    if (a.done_uid == 0) {
      pairs[p].ordered = true;
      return;
    }
    if (log.starts(b).empty()) return;
    const size_t qid = queries.size();
    queries.push_back({p, src});
    bit_of.try_emplace(src, bit_of.size());
    for (uint32_t s : log.starts(b)) bucket[intern(s)].push_back(qid);
  };
  for (size_t p = 0; p < pairs.size(); ++p) {
    add_direction(p, pairs[p].first, pairs[p].second);
    if (pairs[p].concurrent && !pairs[p].ordered) {
      add_direction(p, pairs[p].second, pairs[p].first);
    }
  }
  std::map<uint32_t, std::vector<size_t>> done_at;  // node -> source bits
  for (const auto& [src, bit] : bit_of) {
    done_at[intern(log.accesses[src].done_uid)].push_back(bit);
  }
  const uint32_t n = static_cast<uint32_t>(ids.size());
  out.stats.hb_nodes = n;

  // Kahn's algorithm with a full source bitset per node.
  std::vector<std::vector<uint32_t>> succ(n);
  std::vector<uint32_t> indeg(n, 0);
  for (const auto& [u, v] : edges) {
    succ[u].push_back(v);
    ++indeg[v];
  }
  const size_t words = (bit_of.size() + 63) / 64;
  std::vector<std::vector<uint64_t>> reach(n,
                                           std::vector<uint64_t>(words, 0));
  std::vector<uint32_t> ready;
  for (uint32_t u = 0; u < n; ++u) {
    if (indeg[u] == 0) ready.push_back(u);
  }
  uint32_t processed = 0;
  while (!ready.empty()) {
    const uint32_t u = ready.back();
    ready.pop_back();
    ++processed;
    std::vector<uint64_t>& bits = reach[u];
    if (auto it = done_at.find(u); it != done_at.end()) {
      for (size_t bit : it->second) bits[bit >> 6] |= uint64_t{1} << (bit & 63);
    }
    if (auto it = bucket.find(u); it != bucket.end()) {
      for (size_t qid : it->second) {
        const size_t bit = bit_of.at(queries[qid].src);
        if ((bits[bit >> 6] >> (bit & 63)) & 1) {
          pairs[queries[qid].pair].ordered = true;
        }
      }
    }
    for (uint32_t v : succ[u]) {
      for (size_t w = 0; w < words; ++w) reach[v][w] |= bits[w];
      if (--indeg[v] == 0) ready.push_back(v);
    }
  }
  CR_CHECK_MSG(processed == n, "happens-before graph has a cycle");

  for (const Pair& pc : pairs) {
    if (pc.ordered) continue;
    out.races.push_back(
        {pc.first, pc.second,
         race_text(log, pc.first, pc.second, pc.concurrent, program)});
  }
  out.stats.races = out.races.size();
  return out;
}

}  // namespace cr::check::testing
