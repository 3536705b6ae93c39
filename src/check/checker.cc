#include "check/checker.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <span>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "ir/printer.h"
#include "support/check.h"
#include "support/hash.h"

namespace cr::check {

namespace {

constexpr uint32_t kNone = UINT32_MAX;
constexpr size_t kReduceOps = static_cast<size_t>(rt::ReduceOp::kMax) + 1;

bool fields_overlap(const std::vector<rt::FieldId>& a,
                    const std::vector<rt::FieldId>& b) {
  for (rt::FieldId x : a) {
    for (rt::FieldId y : b) {
      if (x == y) return true;
    }
  }
  return false;
}

// Two accesses to one physical location conflict unless both are reads
// or both are folds of one reduction epoch (same operator, commuting).
bool conflicting(const Access& a, const Access& b) {
  if (a.type == AccessType::kRead && b.type == AccessType::kRead) {
    return false;
  }
  if (a.type == AccessType::kReduce && b.type == AccessType::kReduce &&
      a.redop == b.redop) {
    return false;
  }
  if (!fields_overlap(*a.fields, *b.fields)) return false;
  return a.points->overlaps(*b.points);
}

// A conflicting pair, stored with `first` logically earlier. Pairs with
// equal seq are logically concurrent pieces of one statement: no
// direction is demanded, but *some* order must exist.
struct PairCheck {
  uint32_t first = 0;
  uint32_t second = 0;
  bool concurrent = false;  // equal seq: either direction satisfies
  bool ordered = false;
};

// --- Reachability over the happens-before graph in fire order. -------

// The recorded graph, renumbered by position in a topological order:
// the fire order.
class HbOrder {
 public:
  HbOrder(const sim::EventGraph& graph, const AccessLog& log);

  uint32_t nodes() const { return static_cast<uint32_t>(mask_.size()); }

  // Marks every pair whose demanded order the graph contains: the
  // earlier access's done event reaches one of the later's start
  // anchors (either direction for a concurrent pair).
  void order(std::vector<PairCheck>& pairs, const AccessLog& log);

 private:
  // One direction of one pair: does position `src` (the earlier
  // access's done event) reach a start anchor of access `dst`?
  struct Ask {
    uint32_t src = 0;
    uint32_t pair = 0;
    uint32_t dst = 0;
  };
  struct Anchor {
    uint32_t pos = 0;
    uint32_t ask = 0;
    uint64_t bit = 0;  // the ask's source bit
  };

  // Answers the asks `anchors` name, whose sources are `sources`
  // (position, bit); `open` asks have an anchor.
  void sweep(const std::vector<std::pair<uint32_t, uint64_t>>& sources,
             std::vector<Anchor>& anchors, size_t open,
             const std::vector<Ask>& asks, std::vector<PairCheck>& pairs);
  // The first position in [from, limit) with a live mask, else limit.
  uint32_t next_live(uint32_t from, uint32_t limit) const;

  std::vector<uint32_t> pos_;   // uid -> position (seen uids only)
  std::vector<uint32_t> head_;  // CSR successors, by position
  std::vector<uint32_t> succ_;
  // Per position: the batch's sources that reach it, one bit each.
  std::vector<uint64_t> mask_;
  std::vector<uint64_t> live_;     // per position: mask nonzero, as bits
  std::vector<uint32_t> touched_;  // positions whose mask is nonzero
  std::vector<uint8_t> answered_;  // per ask
};

HbOrder::HbOrder(const sim::EventGraph& graph, const AccessLog& log) {
  uint32_t max_uid = 0;
  for (const auto& [from, to] : graph.edges()) {
    max_uid = std::max({max_uid, from, to});
  }
  for (uint32_t s : log.anchors) max_uid = std::max(max_uid, s);
  for (const Access& a : log.accesses) {
    max_uid = std::max(max_uid, a.done_uid);
  }
  CR_CHECK_MSG(max_uid < kNone,
               "happens-before anchor is not a 32-bit event uid");
  std::vector<uint8_t> seen(size_t{max_uid} + 1, 0);
  for (const auto& [from, to] : graph.edges()) seen[from] = seen[to] = 1;
  for (uint32_t s : log.anchors) seen[s] = 1;
  for (const Access& a : log.accesses) seen[a.done_uid] = 1;
  seen[0] = 0;  // the no-event: done_uid 0 means complete at time 0

  pos_.assign(seen.size(), kNone);
  uint32_t next = 0;
  for (uint32_t u : graph.fire_order()) {
    if (u <= max_uid && seen[u]) pos_[u] = next++;
  }
  for (size_t u = 1; u < seen.size(); ++u) {
    CR_CHECK_MSG(!seen[u] || pos_[u] != kNone,
                 "the happens-before graph names an event that never fired: "
                 "attach the EventGraph before the run and run to "
                 "completion");
  }

  head_.assign(size_t{next} + 1, 0);
  for (const auto& [from, to] : graph.edges()) {
    CR_CHECK_MSG(pos_[from] < pos_[to],
                 "happens-before graph has a cycle: an edge points "
                 "backward in fire order");
    ++head_[pos_[from] + 1];
  }
  for (uint32_t u = 0; u < next; ++u) head_[u + 1] += head_[u];
  succ_.resize(graph.edges().size());
  std::vector<uint32_t> fill(head_.begin(), head_.end() - 1);
  for (const auto& [from, to] : graph.edges()) {
    succ_[fill[pos_[from]]++] = pos_[to];
  }
  mask_.assign(next, 0);
  live_.assign((size_t{next} + 63) / 64, 0);
}

void HbOrder::order(std::vector<PairCheck>& pairs, const AccessLog& log) {
  std::vector<Ask> asks;
  auto ask = [&](uint32_t p, uint32_t from, uint32_t to) {
    const Access& a = log.accesses[from];
    if (a.done_uid == 0) {
      // Complete at the start of time: ordered before everything.
      pairs[p].ordered = true;
      return;
    }
    const std::span<const uint32_t> starts = log.starts(log.accesses[to]);
    if (std::find(starts.begin(), starts.end(), a.done_uid) != starts.end()) {
      pairs[p].ordered = true;  // waits on it directly
      return;
    }
    if (starts.empty()) return;  // waits on nothing
    asks.push_back({pos_[a.done_uid], p, to});
  };
  for (uint32_t p = 0; p < pairs.size(); ++p) {
    ask(p, pairs[p].first, pairs[p].second);
    if (pairs[p].concurrent && !pairs[p].ordered) {
      ask(p, pairs[p].second, pairs[p].first);
    }
  }
  std::sort(asks.begin(), asks.end(),
            [](const Ask& a, const Ask& b) { return a.src < b.src; });

  // Batches of 64 distinct sources, in fire order, one bit each.
  answered_.assign(asks.size(), 0);
  std::vector<std::pair<uint32_t, uint64_t>> sources;
  std::vector<Anchor> anchors;
  for (size_t b0 = 0; b0 < asks.size();) {
    sources.clear();
    anchors.clear();
    size_t open = 0;
    size_t b1 = b0;
    for (; b1 < asks.size(); ++b1) {
      const Ask& q = asks[b1];
      if (sources.empty() || sources.back().first != q.src) {
        if (sources.size() == 64) break;
        sources.push_back({q.src, uint64_t{1} << sources.size()});
      }
      const size_t before = anchors.size();
      for (uint32_t s : log.starts(log.accesses[q.dst])) {
        // An anchor before the source in fire order cannot be reached.
        const uint32_t p = pos_[s];
        if (p >= q.src) {
          anchors.push_back({p, static_cast<uint32_t>(b1),
                             sources.back().second});
        }
      }
      if (anchors.size() > before) ++open;
    }
    sweep(sources, anchors, open, asks, pairs);
    b0 = b1;
  }
}

void HbOrder::sweep(
    const std::vector<std::pair<uint32_t, uint64_t>>& sources,
    std::vector<Anchor>& anchors, size_t open, const std::vector<Ask>& asks,
    std::vector<PairCheck>& pairs) {
  if (open == 0) return;
  std::sort(anchors.begin(), anchors.end(),
            [](const Anchor& a, const Anchor& b) { return a.pos < b.pos; });
  const uint32_t end = anchors.back().pos;
  size_t k = 0;  // next source
  size_t a = 0;  // next anchor
  for (uint32_t u = sources[0].first;;) {
    uint64_t m = mask_[u];
    if (k < sources.size() && sources[k].first == u) m |= sources[k++].second;
    while (anchors[a].pos < u) ++a;  // skipped over: nothing reaches them
    for (; a < anchors.size() && anchors[a].pos == u; ++a) {
      const uint32_t q = anchors[a].ask;
      if ((m & anchors[a].bit) != 0 && !answered_[q]) {
        answered_[q] = 1;
        pairs[asks[q].pair].ordered = true;
        --open;
      }
    }
    if (open == 0 || a == anchors.size()) break;
    for (uint32_t e = head_[u]; m != 0 && e < head_[u + 1]; ++e) {
      const uint32_t v = succ_[e];
      if (v > end) continue;
      if (mask_[v] == 0) {
        live_[v >> 6] |= uint64_t{1} << (v & 63);
        touched_.push_back(v);
      }
      mask_[v] |= m;
    }
    // Jump to the next position a mask or a source reaches.
    u = next_live(u + 1, k < sources.size() ? sources[k].first : end + 1);
    if (u > end) break;
  }
  for (uint32_t v : touched_) {
    mask_[v] = 0;
    live_[v >> 6] = 0;
  }
  touched_.clear();
}

uint32_t HbOrder::next_live(uint32_t from, uint32_t limit) const {
  for (uint32_t w = from >> 6; (uint64_t{w} << 6) < limit; ++w) {
    uint64_t bits = live_[w];
    if (w == from >> 6) bits &= ~uint64_t{0} << (from & 63);
    if (bits != 0) {
      return std::min(limit, (w << 6) + static_cast<uint32_t>(
                                            std::countr_zero(bits)));
    }
  }
  return limit;
}

// --- The frontier walk over one place. --------------------------------

// Persistent singly linked lists of access ids, shared by every atom
// whose history agrees on them. All cells after one walked for an
// access were walked for it too, so a walk stops there.
class Lists {
 public:
  Lists() : cells_(1) {}  // cell 0 is the empty list

  uint32_t push(uint32_t head, uint32_t access) {
    // Atoms that push one access onto one list share the new cell.
    if (head == memo_head_ && access == memo_access_) return memo_cell_;
    cells_.push_back({access, head, kNone});
    memo_head_ = head;
    memo_access_ = access;
    memo_cell_ = static_cast<uint32_t>(cells_.size() - 1);
    return memo_cell_;
  }

  // Calls fn on each access of the list not yet walked for `by`.
  template <class Fn>
  void walk(uint32_t head, uint32_t by, Fn&& fn) {
    for (; head != 0 && cells_[head].walked_by != by;
         head = cells_[head].next) {
      cells_[head].walked_by = by;
      fn(cells_[head].access);
    }
  }

  void clear() {
    cells_.resize(1);
    memo_head_ = kNone;
  }

 private:
  struct Cell {
    uint32_t access = 0;
    uint32_t next = 0;
    uint32_t walked_by = kNone;
  };
  std::vector<Cell> cells_;
  uint32_t memo_head_ = kNone;
  uint32_t memo_access_ = kNone;
  uint32_t memo_cell_ = 0;
};

// The frontier of one atom of one field.
struct History {
  uint64_t written_by = 0;  // seq + 1 of the writing statement; 0: none
  uint32_t writes = 0;      // the writes of that statement
  uint32_t reads = 0;       // reads since
  std::array<uint32_t, kReduceOps> reds{};  // reductions since, by op
};

// One array of atom histories per field of a place.
using FieldHistories =
    std::vector<std::pair<rt::FieldId, std::vector<History>>>;

// A place's points partitioned into atoms: maximal point sets that each
// access of the place covers entirely or not at all. All points of an
// atom share one history, so the frontier is a flat array per field
// and an access costs its atom count, not its interval count. Accesses
// of one region share a shape (point set), whose atoms are found once;
// they share its address too, so a shape is looked up by address and
// compared by value only the first time an address is seen.
class Atoms {
 public:
  // `ids`: the place's accesses.
  void build(const std::vector<Access>& acc, const uint32_t* ids, size_t n) {
    intern(acc, ids, n);
    if (shapes_.size() == 1 && !shapes_[0]->empty()) {  // one atom
      atoms_ = 1;
      first_.assign({0, 1});
      atom_.assign(1, 0);
      return;
    }
    // Cut the points at every interval end, then refine one class of
    // segments per shape: the segments a shape covers move to a new
    // class, split off from the class they were in.
    std::sort(cuts_.begin(), cuts_.end());
    cuts_.erase(std::unique(cuts_.begin(), cuts_.end()), cuts_.end());
    class_.assign(cuts_.empty() ? 0 : cuts_.size() - 1, 0);
    split_into_.assign(1, 0);
    split_by_.assign(1, kNone);
    for (uint32_t s = 0; s < shapes_.size(); ++s) {
      for_each_segment(s, [&](uint32_t k) {
        const uint32_t c = class_[k];
        if (split_by_[c] != s) {
          split_by_[c] = s;
          split_into_[c] = static_cast<uint32_t>(split_into_.size());
          split_into_.push_back(0);
          split_by_.push_back(kNone);
        }
        class_[k] = split_into_[c];
      });
    }
    // Number the classes shapes cover densely: those are the atoms.
    std::vector<uint32_t>& atom_of = split_into_;
    atom_of.assign(split_into_.size(), kNone);
    split_by_.assign(split_into_.size(), kNone);
    atoms_ = 0;
    first_.assign(1, 0);
    atom_.clear();
    for (uint32_t s = 0; s < shapes_.size(); ++s) {
      for_each_segment(s, [&](uint32_t k) {
        const uint32_t c = class_[k];
        if (split_by_[c] == s) return;
        split_by_[c] = s;
        if (atom_of[c] == kNone) atom_of[c] = atoms_++;
        atom_.push_back(atom_of[c]);
      });
      first_.push_back(static_cast<uint32_t>(atom_.size()));
    }
  }

  uint32_t size() const { return atoms_; }

  // Calls fn on each atom of the place's i-th access.
  template <class Fn>
  void for_each(size_t i, Fn&& fn) const {
    const uint32_t s = shape_of_[i];
    for (uint32_t k = first_[s]; k < first_[s + 1]; ++k) fn(atom_[k]);
  }

 private:
  // Gives each access its shape and collects the shapes' interval ends.
  void intern(const std::vector<Access>& acc, const uint32_t* ids, size_t n) {
    shape_of_.resize(n);
    shapes_.clear();
    same_key_.clear();
    by_key_.clear();
    by_addr_.clear();
    cuts_.clear();
    for (size_t i = 0; i < n; ++i) {
      const support::IntervalSet& pts = *acc[ids[i]].points;
      auto [at, fresh] = by_addr_.try_emplace(&pts, kNone);
      if (!fresh) {
        shape_of_[i] = at->second;
        continue;
      }
      const std::vector<support::Interval>& ivs = pts.intervals();
      // A cheap key; the sets under one key are compared in full.
      uint64_t key = support::hash_mix(ivs.size());
      if (!ivs.empty()) {
        key = support::hash_mix(key ^ ivs.front().lo);
        key = support::hash_mix(key ^ ivs[ivs.size() / 2].hi);
        key = support::hash_mix(key ^ ivs.back().hi);
      }
      uint32_t& first = by_key_.try_emplace(key, kNone).first->second;
      uint32_t s = first;
      while (s != kNone && *shapes_[s] != pts) s = same_key_[s];
      if (s == kNone) {
        s = static_cast<uint32_t>(shapes_.size());
        shapes_.push_back(&pts);
        same_key_.push_back(first);
        first = s;
        for (const support::Interval& iv : ivs) {
          cuts_.push_back(iv.lo);
          cuts_.push_back(iv.hi);
        }
      }
      at->second = s;
      shape_of_[i] = s;
    }
  }

  template <class Fn>
  void for_each_segment(uint32_t s, Fn&& fn) const {
    for (const support::Interval& iv : shapes_[s]->intervals()) {
      const auto lo = std::lower_bound(cuts_.begin(), cuts_.end(), iv.lo);
      const auto hi = std::lower_bound(lo, cuts_.end(), iv.hi);
      for (auto k = lo; k != hi; ++k) {
        fn(static_cast<uint32_t>(k - cuts_.begin()));
      }
    }
  }

  std::vector<uint32_t> shape_of_;  // per access of the place
  std::vector<const support::IntervalSet*> shapes_;
  std::vector<uint32_t> same_key_;  // per shape: the next under its key
  std::unordered_map<uint64_t, uint32_t, support::U64Hash> by_key_;
  std::unordered_map<const support::IntervalSet*, uint32_t> by_addr_;
  std::vector<uint64_t> cuts_;
  std::vector<uint32_t> class_;       // per segment [cuts_[k], cuts_[k+1])
  std::vector<uint32_t> split_into_;  // per class (then: its atom)
  std::vector<uint32_t> split_by_;    // per class: the last shape seen
  std::vector<uint32_t> first_;       // per shape, into atom_
  std::vector<uint32_t> atom_;
  uint32_t atoms_ = 0;
};

// Emits each place's frontier pairs, each pair once.
class FrontierWalk {
 public:
  FrontierWalk(const std::vector<Access>& acc, std::vector<PairCheck>& pairs)
      : acc_(acc), pairs_(pairs), paired_with_(acc.size(), kNone) {}

  // `ids`: one place's accesses in implicit program order.
  void place(const uint32_t* ids, size_t n) {
    atoms_.build(acc_, ids, n);
    frontier_.clear();
    pieces_.clear();
    lists_.clear();
    for (size_t g0 = 0; g0 < n;) {
      const uint64_t seq = acc_[ids[g0]].seq;
      size_t g1 = g0 + 1;
      bool several = false;  // more than one operation in this statement
      for (; g1 < n && acc_[ids[g1]].seq == seq; ++g1) {
        several |= acc_[ids[g1]].sub != acc_[ids[g0]].sub;
      }
      // 1. Each access against the earlier statements' frontier.
      for (size_t i = g0; i < g1; ++i) {
        const Access& y = acc_[ids[i]];
        for (rt::FieldId f : *y.fields) {
          std::vector<History>& hist = histories(frontier_, f);
          atoms_.for_each(i, [&](uint32_t k) {
            against(hist[k], ids[i], /*concurrent=*/false);
          });
        }
      }
      // 2. The statement's pieces against each other, exhaustively.
      if (several) {
        for (size_t i = g0; i < g1; ++i) {
          const Access& y = acc_[ids[i]];
          for (rt::FieldId f : *y.fields) {
            std::vector<History>& hist = histories(pieces_, f);
            atoms_.for_each(i, [&](uint32_t k) {
              against(hist[k], ids[i], /*concurrent=*/true);
              add(hist[k], ids[i]);
            });
          }
        }
        for (size_t i = g0; i < g1; ++i) {
          for (rt::FieldId f : *acc_[ids[i]].fields) {
            std::vector<History>& hist = histories(pieces_, f);
            atoms_.for_each(i, [&](uint32_t k) { hist[k] = History{}; });
          }
        }
      }
      // 3. The statement's accesses join the frontier; its writes
      //    replace it.
      for (size_t i = g0; i < g1; ++i) {
        const Access& y = acc_[ids[i]];
        if (y.type != AccessType::kWrite) continue;
        for (rt::FieldId f : *y.fields) {
          std::vector<History>& hist = histories(frontier_, f);
          atoms_.for_each(i, [&](uint32_t k) {
            if (hist[k].written_by != seq + 1) {
              hist[k] = History{.written_by = seq + 1};
            }
            add(hist[k], ids[i]);
          });
        }
      }
      for (size_t i = g0; i < g1; ++i) {
        const Access& y = acc_[ids[i]];
        if (y.type == AccessType::kWrite) continue;
        for (rt::FieldId f : *y.fields) {
          std::vector<History>& hist = histories(frontier_, f);
          atoms_.for_each(i, [&](uint32_t k) { add(hist[k], ids[i]); });
        }
      }
      g0 = g1;
    }
  }

 private:
  std::vector<History>& histories(FieldHistories& fields, rt::FieldId f) {
    for (auto& [field, hist] : fields) {
      if (field == f) return hist;
    }
    return fields.emplace_back(f, std::vector<History>(atoms_.size())).second;
  }

  void add(History& h, uint32_t id) {
    const Access& a = acc_[id];
    switch (a.type) {
      case AccessType::kRead:
        h.reads = lists_.push(h.reads, id);
        return;
      case AccessType::kWrite:
        h.writes = lists_.push(h.writes, id);
        return;
      case AccessType::kReduce: {
        uint32_t& head = h.reds[static_cast<size_t>(a.redop)];
        head = lists_.push(head, id);
        return;
      }
    }
  }

  // Pairs access `y` with every access of `h` it conflicts with.
  void against(const History& h, uint32_t y, bool concurrent) {
    const Access& a = acc_[y];
    auto take = [&](uint32_t head) {
      lists_.walk(head, y, [&](uint32_t z) {
        if (paired_with_[z] == y) return;
        // Accesses of one operation are ordered by construction.
        if (concurrent && acc_[z].sub == a.sub) return;
        paired_with_[z] = y;
        pairs_.push_back({z, y, concurrent, false});
      });
    };
    take(h.writes);
    if (a.type != AccessType::kRead) take(h.reads);
    for (size_t op = 0; op < kReduceOps; ++op) {
      if (a.type != AccessType::kReduce ||
          op != static_cast<size_t>(a.redop)) {
        take(h.reds[op]);
      }
    }
  }

  const std::vector<Access>& acc_;
  std::vector<PairCheck>& pairs_;
  std::vector<uint32_t> paired_with_;  // per access: last partner, or kNone
  Atoms atoms_;
  Lists lists_;
  FieldHistories frontier_;  // the earlier statements', per field
  FieldHistories pieces_;    // the current statement's, per field
};

// Every conflicting pair among one place's accesses (`ids` ascending).
void all_pairs(const std::vector<Access>& acc, const std::vector<uint32_t>& ids,
               std::vector<PairCheck>& out) {
  for (size_t x = 0; x < ids.size(); ++x) {
    const Access& ax = acc[ids[x]];
    for (size_t y = x + 1; y < ids.size(); ++y) {
      const Access& ay = acc[ids[y]];
      // Accesses of one operation (a task's several arguments, a
      // copy's two sides) are internally ordered by construction.
      if (ax.seq == ay.seq && ax.sub == ay.sub) continue;
      if (!conflicting(ax, ay)) continue;
      PairCheck pc{ids[x], ids[y], ax.seq == ay.seq, false};
      if (ay.seq < ax.seq || (ay.seq == ax.seq && ay.sub < ax.sub)) {
        std::swap(pc.first, pc.second);
      }
      out.push_back(pc);
    }
  }
}

std::string uid_list(std::span<const uint32_t> uids) {
  std::string s = "{";
  for (size_t i = 0; i < uids.size(); ++i) {
    if (i > 0) s += ", ";
    if (i >= 6) {
      s += "...";
      break;
    }
    s += std::to_string(uids[i]);
  }
  return s + "}";
}

std::string site_text(const AccessLog& log, const Access& a,
                      const ir::Program& program) {
  std::string s = std::string(to_string(a.type)) + " " + a.what + " (seq " +
                  std::to_string(a.seq) + " sub " + std::to_string(a.sub) +
                  ", " +
                  (a.shard == UINT32_MAX ? std::string("main task")
                                         : "shard " + std::to_string(a.shard)) +
                  ")";
  s += "\n      anchors: starts=" + uid_list(log.starts(a)) +
       " done=" + std::to_string(a.done_uid);
  if (a.stmt != nullptr) {
    std::string stmt = ir::to_string(*a.stmt, program, 0);
    // Print only the statement's head line (shard bodies are long).
    const size_t nl = stmt.find('\n');
    if (nl != std::string::npos) stmt.resize(nl);
    s += "\n      stmt: " + stmt;
  }
  return s;
}

}  // namespace

std::string CheckStats::to_text() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "accesses %llu; hb graph %llu nodes / %llu edges; "
                "conflicting pairs %llu; races %llu",
                static_cast<unsigned long long>(accesses),
                static_cast<unsigned long long>(hb_nodes),
                static_cast<unsigned long long>(hb_edges),
                static_cast<unsigned long long>(pairs_checked),
                static_cast<unsigned long long>(races));
  return buf;
}

std::string CheckResult::to_text() const {
  std::string s = stats.to_text();
  for (const Race& r : races) {
    s += "\n" + r.text;
  }
  return s;
}

std::string race_text(const AccessLog& log, size_t earlier, size_t later,
                      bool concurrent, const ir::Program& program) {
  const Access& a = log.accesses[earlier];
  const Access& b = log.accesses[later];
  const support::IntervalSet overlap = a.points->set_intersect(*b.points);
  return "race on root " + std::to_string(a.root) + " place " +
         std::to_string(a.place) + " points " + overlap.to_string() +
         (concurrent ? " (concurrent within one statement)" : "") +
         "\n    earlier: " + site_text(log, a, program) +
         "\n    later:   " + site_text(log, b, program) +
         "\n    missing edge: " + std::to_string(a.done_uid) + " -> " +
         uid_list(log.starts(b));
}

CheckResult check(const AccessLog& log, const sim::EventGraph& graph,
                  const ir::Program& program) {
  const std::vector<Access>& acc = log.accesses;
  CR_CHECK_MSG(acc.size() < kNone, "access log exceeds 2^32 - 1 accesses");
  CheckResult out;
  out.stats.accesses = acc.size();
  out.stats.hb_edges = graph.edges().size();
  HbOrder hb(graph, log);
  out.stats.hb_nodes = hb.nodes();

  // --- 1. Frontier pairs, per place in implicit program order. --------
  std::vector<uint32_t> ids(acc.size());
  {
    struct Key {
      uint64_t place, seq, sub;
      uint32_t id;
    };
    std::vector<Key> keys(acc.size());
    for (uint32_t i = 0; i < acc.size(); ++i) {
      keys[i] = {acc[i].place, acc[i].seq, acc[i].sub, i};
    }
    std::sort(keys.begin(), keys.end(), [](const Key& x, const Key& y) {
      return std::tie(x.place, x.seq, x.sub, x.id) <
             std::tie(y.place, y.seq, y.sub, y.id);
    });
    for (size_t i = 0; i < keys.size(); ++i) ids[i] = keys[i].id;
  }
  std::vector<std::pair<size_t, size_t>> places;  // ranges of ids
  std::vector<PairCheck> pairs;
  FrontierWalk walk(acc, pairs);
  for (size_t b = 0; b < ids.size();) {
    size_t e = b + 1;
    while (e < ids.size() && acc[ids[e]].place == acc[ids[b]].place) ++e;
    walk.place(&ids[b], e - b);
    places.emplace_back(b, e);
    b = e;
  }

  // --- 2. One fire-ordered sweep per batch of sources orders them. ----
  hb.order(pairs, log);

  // --- 3. A place with an unordered frontier pair has a race: check
  //        all of its pairs, so the report lists every race. ----------
  std::vector<uint64_t> racy;
  for (const PairCheck& pc : pairs) {
    if (!pc.ordered) racy.push_back(acc[pc.first].place);
  }
  std::sort(racy.begin(), racy.end());
  racy.erase(std::unique(racy.begin(), racy.end()), racy.end());
  auto is_racy = [&](uint64_t place) {
    return std::binary_search(racy.begin(), racy.end(), place);
  };
  for (const PairCheck& pc : pairs) {
    if (!is_racy(acc[pc.first].place)) ++out.stats.pairs_checked;
  }
  std::vector<PairCheck> exhaustive;
  for (const auto& [b, e] : places) {
    if (!is_racy(acc[ids[b]].place)) continue;
    std::vector<uint32_t> in_log_order(ids.begin() + b, ids.begin() + e);
    std::sort(in_log_order.begin(), in_log_order.end());
    all_pairs(acc, in_log_order, exhaustive);
  }
  hb.order(exhaustive, log);
  out.stats.pairs_checked += exhaustive.size();
  std::sort(exhaustive.begin(), exhaustive.end(),
            [](const PairCheck& a, const PairCheck& b) {
              return std::tie(a.first, a.second) < std::tie(b.first, b.second);
            });

  // --- 4. Report unordered pairs. --------------------------------------
  for (const PairCheck& pc : exhaustive) {
    if (pc.ordered) continue;
    Race r;
    r.first = pc.first;
    r.second = pc.second;
    r.text = race_text(log, pc.first, pc.second, pc.concurrent, program);
    out.races.push_back(std::move(r));
  }
  out.stats.races = out.races.size();
  return out;
}

}  // namespace cr::check
