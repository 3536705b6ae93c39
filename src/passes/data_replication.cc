#include "passes/data_replication.h"

#include <algorithm>

#include "support/check.h"

namespace cr::passes {

namespace {

ir::Stmt make_copy(rt::PartitionId src, rt::PartitionId dst,
                   const FieldSet& fields, ir::Provenance prov) {
  ir::Stmt s;
  s.kind = ir::StmtKind::kCopy;
  s.copy_src = src;
  s.copy_dst = dst;
  s.copy_fields.assign(fields.begin(), fields.end());
  s.prov = std::move(prov);
  return s;
}

class DataReplicator {
 public:
  DataReplicator(ir::Program& program, const ir::StaticRegionTree& tree)
      : program_(program), forest_(*program.forest), tree_(tree) {}

  DataReplicationResult run(Fragment& fragment) {
    // Fragment-wide access summary: inner copies target any aliased
    // partition *read anywhere* in the fragment — a read earlier in the
    // loop body still consumes the write on the next iteration. At this
    // point the fragment is a source program, so every write in the
    // summary comes from a task or an explicit source copy.
    for (size_t i = fragment.begin; i < fragment.end; ++i) {
      AccessSummary sum = summarize(program_.body[i]);
      merge_into(all_.reads, sum.reads);
      merge_into(all_.writes, sum.writes);
      merge_into(all_.reduces, sum.reduces);
      note_provenance(program_.body[i]);
    }

    DataReplicationResult result;
    emit_init(result);
    for (size_t i = fragment.begin; i < fragment.end; ++i) {
      ir::Stmt& s = program_.body[i];
      if (!s.body.empty()) {
        result.inner_copies += insert_inner(s.body);
      }
      if (s.kind == ir::StmtKind::kIndexLaunch) {
        std::vector<ir::Stmt> copies = copies_for_writer(s);
        const size_t n = copies.size();
        program_.body.insert(program_.body.begin() + static_cast<long>(i) + 1,
                             std::make_move_iterator(copies.begin()),
                             std::make_move_iterator(copies.end()));
        i += n;
        fragment.end += n;
        result.inner_copies += n;
      }
    }
    emit_finalize(result);
    return result;
  }

 private:
  // Partitions aliased with (P, fields) that are read in the fragment;
  // returns (partition, shared read fields) in deterministic order.
  std::vector<std::pair<rt::PartitionId, FieldSet>> aliased_readers(
      rt::PartitionId p, const FieldSet& fields) const {
    std::vector<std::pair<rt::PartitionId, FieldSet>> out;
    const rt::RegionId root = root_of(forest_, p);
    for (const auto& [q, read_fields] : all_.reads) {
      if (q == p) continue;
      if (root_of(forest_, q) != root) continue;
      if (!tree_.partitions_may_alias(p, q)) continue;
      FieldSet shared = intersect_fields(fields, read_fields);
      if (!shared.empty()) out.emplace_back(q, std::move(shared));
    }
    return out;
  }

  // The copies required after one writing statement (Fig. 4a line 9).
  std::vector<ir::Stmt> copies_for_writer(const ir::Stmt& s) const {
    AccessSummary sum = summarize(s);
    std::vector<ir::Stmt> copies;
    for (const auto& [p, fields] : sum.writes) {
      for (auto& [q, shared] : aliased_readers(p, fields)) {
        copies.push_back(
            make_copy(p, q, shared, s.prov.derived("data-replication")));
      }
    }
    return copies;
  }

  // Recursively insert after-writer copies inside nested loop bodies.
  size_t insert_inner(std::vector<ir::Stmt>& body) {
    size_t inserted = 0;
    for (size_t i = 0; i < body.size(); ++i) {
      if (!body[i].body.empty()) inserted += insert_inner(body[i].body);
      if (body[i].kind != ir::StmtKind::kIndexLaunch) continue;
      std::vector<ir::Stmt> copies = copies_for_writer(body[i]);
      const size_t n = copies.size();
      body.insert(body.begin() + static_cast<long>(i) + 1,
                  std::make_move_iterator(copies.begin()),
                  std::make_move_iterator(copies.end()));
      i += n;
      inserted += n;
    }
    return inserted;
  }

  // Record, per accessed partition, the first accessing and the last
  // writing source statement: the init copy loading a partition exists
  // because of its first access, the finalize copy draining it because
  // of its last write.
  void note_provenance(const ir::Stmt& s) {
    if (s.kind == ir::StmtKind::kIndexLaunch) {
      for (const ir::RegionArg& a : s.args) {
        first_access_.try_emplace(a.partition,
                                  s.prov.derived("data-replication"));
        if (a.privilege != rt::Privilege::kReadOnly) {
          last_write_[a.partition] = s.prov.derived("data-replication");
        }
      }
    }
    for (const ir::Stmt& c : s.body) note_provenance(c);
  }

  ir::Provenance prov_of(const std::map<rt::PartitionId, ir::Provenance>& m,
                         rt::PartitionId p) const {
    const auto it = m.find(p);
    return it != m.end() ? it->second : ir::Provenance{};
  }

  void emit_init(DataReplicationResult& result) {
    // Figure 4a lines 2-4: load every accessed partition from its parent
    // region (reduce-only partitions excluded — they never read and the
    // region reduction pass gives them fresh storage).
    PartitionFields accessed = all_.reads;
    merge_into(accessed, all_.writes);
    for (const auto& [p, fields] : accessed) {
      ir::Stmt s;
      s.kind = ir::StmtKind::kCopy;
      s.src_root = root_of(forest_, p);
      s.copy_dst = p;
      s.copy_fields.assign(fields.begin(), fields.end());
      s.prov = prov_of(first_access_, p);
      result.init.push_back(std::move(s));
    }
  }

  void emit_finalize(DataReplicationResult& result) {
    // Figure 4a lines 14-15: task-written partitions flow back to their
    // parent regions. Aliased replicas agree at fragment exit (the inner
    // copies re-synchronize after every write), so emission order across
    // partitions does not affect the result.
    for (const auto& [p, fields] : all_.writes) {
      // A partition written only by source copies holds values copied
      // from another partition of its region: nothing new flows back,
      // and its replica may be older than the partition it came from.
      if (!last_write_.count(p)) continue;
      ir::Stmt s;
      s.kind = ir::StmtKind::kCopy;
      s.copy_src = p;
      s.dst_root = root_of(forest_, p);
      s.copy_fields.assign(fields.begin(), fields.end());
      s.prov = prov_of(last_write_, p);
      result.finalize.push_back(std::move(s));
    }
  }

  ir::Program& program_;
  const rt::RegionForest& forest_;
  const ir::StaticRegionTree& tree_;
  AccessSummary all_;
  std::map<rt::PartitionId, ir::Provenance> first_access_, last_write_;
};

}  // namespace

DataReplicationResult data_replication(ir::Program& program,
                                       Fragment& fragment,
                                       const ir::StaticRegionTree& tree) {
  DataReplicator rep(program, tree);
  return rep.run(fragment);
}

}  // namespace cr::passes
