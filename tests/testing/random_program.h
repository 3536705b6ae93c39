// Shared random-program generator for the property tests: arbitrary
// region sizes, aliased image partitions through random pointer maps,
// random task sequences with random privileges, optional region and
// scalar reductions, and loop-invariant copies. The fuzz test checks the
// generated programs against the sequential oracle.
#pragma once

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ir/builder.h"
#include "rt/partition.h"
#include "support/rng.h"

namespace cr::testing {

struct RandomProgram {
  struct RegionInfo {
    rt::RegionId region;
    rt::FieldId field;
    rt::PartitionId primary;                 // disjoint, complete
    std::vector<rt::PartitionId> images;     // aliased
  };
  std::vector<RegionInfo> regions;
  ir::Program program;
  std::vector<ir::ScalarId> scalars;
};

// `prefix` followed by `n` ("R3"). Appended, not `"R" + std::to_string(n)`:
// GCC 12 at -O3 reports a false -Wrestrict inside that operator+.
inline std::string numbered(std::string prefix, uint64_t n) {
  prefix += std::to_string(n);
  return prefix;
}

inline RandomProgram make_random_program(rt::RegionForest& forest,
                                  support::Rng& rng, uint64_t colors) {
  RandomProgram out;
  // At least two regions so tasks can read data they do not write (the
  // inner loops must be interference-free, paper §2.2).
  const size_t num_regions = 2 + rng.next_below(2);
  for (size_t r = 0; r < num_regions; ++r) {
    auto fs = std::make_shared<rt::FieldSpace>();
    rt::FieldId f = fs->add_field("v");
    const uint64_t n = colors * (3 + rng.next_below(6));
    RandomProgram::RegionInfo info;
    info.field = f;
    info.region = forest.create_region(rt::IndexSpace::dense(n), fs,
                                       numbered("R", r));
    info.primary = rt::partition_equal(forest, info.region, colors,
                                       numbered("P", r));
    const size_t num_images = rng.next_below(3);
    for (size_t k = 0; k < num_images; ++k) {
      const uint64_t stride = 1 + rng.next_below(n);
      const uint64_t offset = rng.next_below(n);
      const int fanout = 1 + static_cast<int>(rng.next_below(2));
      info.images.push_back(rt::partition_image(
          forest, info.region, info.primary,
          [n, stride, offset, fanout](uint64_t x,
                                      std::vector<uint64_t>& outp) {
            for (int d = 0; d < fanout; ++d) {
              outp.push_back((x * stride + offset + 7 * d) % n);
            }
          },
          numbered(numbered("Q", r) + "_", k)));
    }
    out.regions.push_back(info);
  }

  ir::ProgramBuilder b(forest, "fuzz");
  using P = rt::Privilege;
  using B = ir::ProgramBuilder;

  ir::ScalarId dt = b.scalar("dt", 1.0);
  ir::ScalarId red = b.scalar("red", 0.0);
  out.scalars = {dt, red};

  // Init tasks: deterministic content per region.
  std::vector<ir::TaskId> init_tasks;
  for (size_t r = 0; r < out.regions.size(); ++r) {
    const uint64_t salt = rng.next_below(1000);
    init_tasks.push_back(b.task(
        "Init" + std::to_string(r),
        {{P::kWriteDiscard, rt::ReduceOp::kSum, {out.regions[r].field}}},
        200, 0.5,
        [salt](ir::TaskContext& ctx) {
          ctx.domain().points().for_each_point([&](uint64_t p) {
            ctx.write_f64(0, 0, p,
                          1.0 + static_cast<double>((p * 13 + salt) % 23));
          });
        }));
  }

  // A pool of random compute tasks.
  struct TaskPlan {
    ir::TaskId id;
    size_t write_region;                      // writes primary of this
    std::vector<std::pair<size_t, size_t>> reads;  // (region, image idx+1;
                                                   // 0 = primary)
    bool has_scalar_red = false;
    bool reads_dt = false;
    int reduce_region = -1;  // >= 0: reduce (sum) into an image of this
    int reduce_image = -1;   // region (distinct from writes/reads)
  };
  std::vector<TaskPlan> plans;
  const size_t num_tasks = 2 + rng.next_below(3);
  for (size_t t = 0; t < num_tasks; ++t) {
    TaskPlan plan;
    plan.write_region = rng.next_below(out.regions.size());
    // Reads come from regions the task does not write (no intra-launch
    // interference); the reduction targets yet another region.
    std::vector<size_t> others;
    for (size_t r = 0; r < out.regions.size(); ++r) {
      if (r != plan.write_region) others.push_back(r);
    }
    const size_t num_reads = 1 + rng.next_below(2);
    for (size_t k = 0; k < num_reads; ++k) {
      const size_t rr = others[rng.next_below(others.size())];
      const size_t img =
          out.regions[rr].images.empty()
              ? 0
              : rng.next_below(out.regions[rr].images.size() + 1);
      plan.reads.push_back({rr, img});
    }
    plan.has_scalar_red = rng.next_bool(0.3);
    plan.reads_dt = rng.next_bool(0.4);
    // Reduce into an image of a region this task neither writes nor
    // reads, when one exists.
    if (rng.next_bool(0.35)) {
      for (size_t r : others) {
        bool read_too = false;
        for (auto& [rr, img] : plan.reads) read_too |= (rr == r);
        if (!read_too && !out.regions[r].images.empty()) {
          plan.reduce_region = static_cast<int>(r);
          plan.reduce_image = static_cast<int>(
              rng.next_below(out.regions[r].images.size()));
          break;
        }
      }
    }

    std::vector<ir::TaskParam> params;
    params.push_back(
        {P::kReadWrite, rt::ReduceOp::kSum,
         {out.regions[plan.write_region].field}});
    for (auto& [rr, img] : plan.reads) {
      params.push_back(
          {P::kReadOnly, rt::ReduceOp::kSum, {out.regions[rr].field}});
    }
    if (plan.reduce_image >= 0) {
      params.push_back(
          {P::kReduce, rt::ReduceOp::kSum,
           {out.regions[static_cast<size_t>(plan.reduce_region)].field}});
    }

    const size_t num_reads_copy = plan.reads.size();
    const bool scalar_red = plan.has_scalar_red;
    const bool reads_dt = plan.reads_dt;
    const bool has_reduce = plan.reduce_image >= 0;
    plan.id = b.task(
        numbered("T", t), params, 300, 0.7,
        [num_reads_copy, scalar_red, reads_dt, has_reduce](
            ir::TaskContext& ctx) {
          double local = 0;
          ctx.domain().points().for_each_point([&](uint64_t p) {
            double acc = ctx.read_f64(0, 0, p) * 0.5;
            for (size_t k = 0; k < num_reads_copy; ++k) {
              const auto& dom = ctx.param_domain(1 + k);
              if (dom.empty()) continue;
              // A deterministic in-domain neighbor of p.
              const uint64_t q = dom.point_at(p % dom.size());
              acc += 0.25 * ctx.read_f64(1 + k, 0, q);
            }
            if (reads_dt) acc += ctx.scalar(0);
            // Keep values bounded for tolerant float comparison.
            acc = std::fmod(acc, 97.0) + 1.0;
            ctx.write_f64(0, 0, p, acc);
            local += acc * 1e-3;
          });
          if (has_reduce) {
            const size_t red_param = 1 + num_reads_copy;
            const auto& dom = ctx.param_domain(red_param);
            dom.points().for_each_point([&](uint64_t q) {
              ctx.reduce_f64(red_param, 0, q,
                             1e-2 * static_cast<double>(q % 11));
            });
          }
          if (scalar_red) ctx.reduce_scalar(local);
        });
    plans.push_back(plan);
  }

  // Body: inits, then the time loop.
  for (size_t r = 0; r < out.regions.size(); ++r) {
    b.index_launch(init_tasks[r], colors,
                   {B::arg(out.regions[r].primary, P::kWriteDiscard,
                           {out.regions[r].field})});
  }
  const uint64_t steps = 2 + rng.next_below(2);
  b.begin_for_time(steps);
  for (const TaskPlan& plan : plans) {
    std::vector<ir::RegionArg> args;
    args.push_back(B::arg(out.regions[plan.write_region].primary,
                          P::kReadWrite,
                          {out.regions[plan.write_region].field}));
    for (auto& [rr, img] : plan.reads) {
      rt::PartitionId part = img == 0 ? out.regions[rr].primary
                                      : out.regions[rr].images[img - 1];
      if (img == 0 && rng.next_bool(0.3)) {
        // Exercise projection normalization: read p[(i+1) mod colors].
        args.push_back(B::arg_proj(
            part, P::kReadOnly, {out.regions[rr].field},
            [colors](uint64_t i) { return (i + 1) % colors; }, "(i+1)%N"));
        continue;
      }
      args.push_back(B::arg(part, P::kReadOnly, {out.regions[rr].field}));
    }
    if (plan.reduce_image >= 0) {
      const auto& rr = out.regions[static_cast<size_t>(plan.reduce_region)];
      args.push_back(
          B::arg(rr.images[static_cast<size_t>(plan.reduce_image)],
                 P::kReduce, {rr.field}, rt::ReduceOp::kSum));
    }
    std::vector<ir::ScalarId> scalar_args;
    if (plan.reads_dt) scalar_args.push_back(dt);
    if (plan.has_scalar_red) {
      b.index_launch_red(plan.id, colors, std::move(args),
                         {red, rt::ReduceOp::kSum}, std::move(scalar_args));
      // Update dt from the reduction (replicated scalar op).
      b.scalar_op({red}, {dt},
                  [](const std::vector<double>& in, std::vector<double>& o) {
                    o[0] = 1.0 + std::fmod(in[1], 3.0) * 0.125;
                  },
                  "dt_update");
    } else {
      b.index_launch(plan.id, colors, std::move(args),
                     std::move(scalar_args));
    }
  }
  // A loop-invariant copy from the primary of a region no task writes
  // or reduces into inside the loop to one of its images: copy placement
  // can hoist it (the source is never written in the loop and the copy
  // is the destination's only writer). Drawn after everything else, so
  // the rest of the program does not depend on whether one is emitted.
  std::vector<size_t> read_only;
  for (size_t r = 0; r < out.regions.size(); ++r) {
    bool modified = out.regions[r].images.empty();
    for (const TaskPlan& plan : plans) {
      modified |= plan.write_region == r ||
                  plan.reduce_region == static_cast<int>(r);
    }
    if (!modified) read_only.push_back(r);
  }
  if (!read_only.empty()) {
    const auto& rr = out.regions[read_only[rng.next_below(read_only.size())]];
    b.copy(rr.primary, rr.images[rng.next_below(rr.images.size())],
           {rr.field});
  }
  b.end_for_time();
  out.program = b.finish();
  return out;
}

}  // namespace cr::testing
