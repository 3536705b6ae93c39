// Quickstart: write an implicitly parallel program against the public
// API, control-replicate it, and run it two ways: the sequential oracle
// and SPMD.
//
// The program is the paper's Figure 2: two forall launches per timestep
// over a block partition and an aliased image partition ("halo"). We
// print the IR before and after control replication — compare the output
// to the paper's Figure 4 — and check that the distributed SPMD execution
// produces exactly the data the sequential semantics promise.
//
//   $ ./examples/quickstart
#include <cstdio>
#include <memory>

#include "exec/implicit_exec.h"
#include "exec/sequential_exec.h"
#include "ir/builder.h"
#include "ir/printer.h"
#include "rt/partition.h"

using namespace cr;

int main() {
  constexpr uint64_t kElements = 64;
  constexpr uint64_t kBlocks = 8;
  constexpr uint64_t kSteps = 4;
  constexpr uint32_t kNodes = 4;

  // --- a simulated 4-node machine --------------------------------------
  exec::CostModel cost;  // defaults; see exec/cost_model.h
  rt::Runtime runtime(exec::runtime_config(kNodes, /*cores_per_node=*/4,
                                           cost, /*real_data=*/true));
  rt::RegionForest& forest = runtime.forest();

  // --- regions and partitions (paper Figure 2, lines 16-22) ------------
  auto fields_a = std::make_shared<rt::FieldSpace>();
  const rt::FieldId va = fields_a->add_field("va");
  auto fields_b = std::make_shared<rt::FieldSpace>();
  const rt::FieldId vb = fields_b->add_field("vb");
  const rt::RegionId A =
      forest.create_region(rt::IndexSpace::dense(kElements), fields_a, "A");
  const rt::RegionId B =
      forest.create_region(rt::IndexSpace::dense(kElements), fields_b, "B");
  const rt::PartitionId PA = rt::partition_equal(forest, A, kBlocks, "PA");
  const rt::PartitionId PB = rt::partition_equal(forest, B, kBlocks, "PB");
  // QB = image(B, PB, h) with h(x) = (x + 5) mod N: an aliased partition
  // naming exactly what each TG task will read.
  auto h = [](uint64_t x) { return (x + 5) % kElements; };
  const rt::PartitionId QB = rt::partition_image(
      forest, B, PB,
      [h](uint64_t x, std::vector<uint64_t>& out) { out.push_back(h(x)); },
      "QB");

  // --- tasks ------------------------------------------------------------
  ir::ProgramBuilder builder(forest, "quickstart");
  using P = rt::Privilege;
  using B_ = ir::ProgramBuilder;

  const ir::TaskId t_init = builder.task(
      "TInit", {{P::kWriteDiscard, rt::ReduceOp::kSum, {va}}}, 500, 2.0,
      [](ir::TaskContext& ctx) {
        ctx.domain().points().for_each_point([&](uint64_t i) {
          ctx.write_f64(0, 0, i, static_cast<double>(i));
        });
      });
  // TF: B[i] = 2 * A[i]
  const ir::TaskId t_f = builder.task(
      "TF",
      {{P::kReadWrite, rt::ReduceOp::kSum, {vb}},
       {P::kReadOnly, rt::ReduceOp::kSum, {va}}},
      500, 2.0, [](ir::TaskContext& ctx) {
        ctx.domain().points().for_each_point([&](uint64_t i) {
          ctx.write_f64(0, 0, i, 2.0 * ctx.read_f64(1, 0, i));
        });
      });
  // TG: A[j] = B[h(j)] + 1   (reads through the halo partition QB)
  const ir::TaskId t_g = builder.task(
      "TG",
      {{P::kReadWrite, rt::ReduceOp::kSum, {va}},
       {P::kReadOnly, rt::ReduceOp::kSum, {vb}}},
      500, 2.0, [h](ir::TaskContext& ctx) {
        ctx.domain().points().for_each_point([&](uint64_t j) {
          ctx.write_f64(0, 0, j, ctx.read_f64(1, 0, h(j)) + 1.0);
        });
      });

  // --- the implicitly parallel main loop (Figure 2, lines 23-30) -------
  builder.index_launch(t_init, kBlocks,
                       {B_::arg(PA, P::kWriteDiscard, {va})});
  builder.begin_for_time(kSteps);
  builder.index_launch(t_f, kBlocks,
                       {B_::arg(PB, P::kReadWrite, {vb}),
                        B_::arg(PA, P::kReadOnly, {va})});
  builder.index_launch(t_g, kBlocks,
                       {B_::arg(PA, P::kReadWrite, {va}),
                        B_::arg(QB, P::kReadOnly, {vb})});
  builder.end_for_time();
  ir::Program program = builder.finish();

  std::printf("==== source program (implicitly parallel) ====\n%s\n",
              ir::to_string(program).c_str());

  // --- 1. the sequential oracle -----------------------------------------
  exec::SequentialResult oracle = exec::run_sequential(program);

  // --- 2. control replication + SPMD execution --------------------------
  exec::ExecConfig ecfg;
  ecfg.cost = cost;
  ecfg.mode = exec::ExecMode::kSpmd;
  exec::PreparedRun spmd = exec::prepare(runtime, program, ecfg);
  std::printf("==== after control replication (compare Figure 4d) ====\n%s\n",
              ir::to_string(*spmd.program).c_str());
  exec::ExecutionResult spmd_res = spmd.run();
  auto count = [&](const char* key) {
    return support::count_of(spmd_res.metrics, key);
  };

  bool ok = true;
  for (uint64_t i = 0; i < kElements; ++i) {
    if (spmd.engine->read_root_f64(A, va, i) != oracle.read_f64(A, va, i)) {
      ok = false;
    }
  }
  std::printf("SPMD result matches sequential semantics: %s\n",
              ok ? "YES" : "NO");
  std::printf(
      "virtual makespan %.3f ms, %llu point tasks, %llu copies, "
      "%llu bytes moved, %llu messages\n",
      static_cast<double>(spmd_res.makespan_ns) * 1e-6,
      (unsigned long long)count("exec.point_tasks"),
      (unsigned long long)count("exec.copies_issued"),
      (unsigned long long)count("exec.bytes_moved"),
      (unsigned long long)count("exec.messages"));
  std::printf("A[17] = %.1f (expected %.1f)\n",
              spmd.engine->read_root_f64(A, va, 17),
              oracle.read_f64(A, va, 17));
  return ok ? 0 : 1;
}
