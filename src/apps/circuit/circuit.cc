#include "apps/circuit/circuit.h"

#include <memory>

#include "ir/builder.h"
#include "rt/partition.h"
#include "support/check.h"

namespace cr::apps::circuit {

namespace {

// Deterministic per-id parameter values (pure functions of the id, so
// kernels stay pure and all executors agree).
double hash01(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

}  // namespace

App build(rt::Runtime& rt, const Config& config) {
  App app;
  app.config = config;
  app.pieces = static_cast<uint64_t>(config.nodes) * config.pieces_per_node;

  GraphConfig gc;
  gc.pieces = app.pieces;
  gc.nodes_per_piece = config.nodes_per_piece;
  gc.wires_per_piece = config.wires_per_piece;
  gc.pct_cross = config.pct_cross;
  gc.window = config.window;
  gc.seed = config.seed;
  const auto graph = std::make_shared<const Graph>(generate_graph(gc));
  app.graph = graph;

  rt::RegionForest& forest = rt.forest();

  // --- regions ---------------------------------------------------------
  auto nfs = std::make_shared<rt::FieldSpace>();
  app.f_voltage = nfs->add_field("voltage", rt::FieldType::kF64,
                                 config.voltage_virtual_bytes);
  app.f_charge = nfs->add_field("charge");
  app.f_cap = nfs->add_field("cap");
  app.rn = forest.create_region(
      rt::IndexSpace::dense(graph->num_nodes()), nfs, "N");

  auto wfs = std::make_shared<rt::FieldSpace>();
  app.f_current = wfs->add_field("current");
  app.f_res = wfs->add_field("res");
  app.f_in = wfs->add_field("in_ptr", rt::FieldType::kI64);
  app.f_out = wfs->add_field("out_ptr", rt::FieldType::kI64);
  app.rw = forest.create_region(
      rt::IndexSpace::dense(graph->num_wires()), wfs, "W");

  // --- partitions ------------------------------------------------------
  // Pieces own consecutive node and wire ids, so each piece is one run.
  // The private/shared flag is random per node: its runs end at the next
  // flip of g.shared.
  const Graph& g = *graph;
  app.top = rt::partition_by_color(
      forest, app.rn, 2,
      [&g](uint64_t n) {
        const bool shared = g.shared[n];
        uint64_t end = n + 1;
        while (end < g.num_nodes() && g.shared[end] == shared) ++end;
        return rt::ColorRun{shared ? 1u : 0u, end};
      },
      "pvg");
  app.all_private = forest.subregion(app.top, 0);
  app.all_shared = forest.subregion(app.top, 1);

  auto node_piece = [&g](uint64_t n) {
    const uint64_t piece = g.piece_of_node(n);
    return rt::ColorRun{piece, (piece + 1) * g.config.nodes_per_piece};
  };
  app.p_pvt = rt::partition_by_color(forest, app.all_private, app.pieces,
                                     node_piece, "pvt");
  app.p_shr = rt::partition_by_color(forest, app.all_shared, app.pieces,
                                     node_piece, "shr");

  // Ghosts: shared nodes of *other* pieces touched by my wires. An
  // in-node is always local, so they are the out-nodes of the cross
  // wires, which the generator recorded.
  {
    std::vector<std::vector<uint64_t>> ghost_pts(app.pieces);
    for (uint64_t w : g.cross_wires) {
      ghost_pts[g.piece_of_wire(w)].push_back(g.out_node[w]);
    }
    const rt::IndexSpace& shared_is =
        forest.region(app.all_shared).ispace;
    std::vector<rt::IndexSpace> subs;
    subs.reserve(app.pieces);
    for (auto& pts : ghost_pts) {
      subs.push_back(shared_is.subspace(
          support::IntervalSet::from_points(std::move(pts))));
    }
    app.p_gst = forest.create_partition(app.all_shared, std::move(subs),
                                        /*disjoint=*/false,
                                        /*complete=*/false, "gst");
  }

  app.p_wires = rt::partition_by_color(
      forest, app.rw, app.pieces,
      [&g](uint64_t w) {
        const uint64_t piece = g.piece_of_wire(w);
        return rt::ColorRun{piece, (piece + 1) * g.config.wires_per_piece};
      },
      "wires");

  // --- program ---------------------------------------------------------
  ir::ProgramBuilder b(forest, "circuit");
  using P = rt::Privilege;
  using B = ir::ProgramBuilder;

  const rt::FieldId fV = app.f_voltage, fQ = app.f_charge, fC = app.f_cap;
  const rt::FieldId fI = app.f_current, fR = app.f_res;
  const rt::FieldId fIn = app.f_in, fOut = app.f_out;
  const double dt = config.dt;
  const double leakage = config.leakage;

  ir::TaskId t_init_wires = b.task(
      "init_wires",
      {{P::kWriteDiscard, rt::ReduceOp::kSum, {fI, fR, fIn, fOut}}}, 800,
      0.5 * config.ns_per_wire,
      [graph, fI, fR, fIn, fOut](ir::TaskContext& ctx) {
        ctx.domain().points().for_each_point([&](uint64_t w) {
          ctx.write_i64(0, fIn, w,
                        static_cast<int64_t>(graph->in_node[w]));
          ctx.write_i64(0, fOut, w,
                        static_cast<int64_t>(graph->out_node[w]));
          ctx.write_f64(0, fR, w, 1.0 + 4.0 * hash01(w * 3 + 1));
          ctx.write_f64(0, fI, w, 0.0);
        });
      });

  ir::TaskId t_init_nodes = b.task(
      "init_nodes", {{P::kWriteDiscard, rt::ReduceOp::kSum, {fV, fQ, fC}}},
      800, 0.5 * config.ns_per_node,
      [fV, fQ, fC](ir::TaskContext& ctx) {
        ctx.domain().points().for_each_point([&](uint64_t n) {
          ctx.write_f64(0, fV, n, 2.0 * hash01(n * 7 + 3) - 1.0);
          ctx.write_f64(0, fQ, n, 0.0);
          ctx.write_f64(0, fC, n, 0.5 + hash01(n * 11 + 5));
        });
      });

  // calc_new_currents: I = (V_in - V_out) / R.
  ir::TaskId t_cnc = b.task(
      "calc_new_currents",
      {{P::kReadWrite, rt::ReduceOp::kSum, {fI}},
       {P::kReadOnly, rt::ReduceOp::kSum, {fR, fIn, fOut}},
       {P::kReadOnly, rt::ReduceOp::kSum, {fV}},    // private nodes
       {P::kReadOnly, rt::ReduceOp::kSum, {fV}},    // owned shared
       {P::kReadOnly, rt::ReduceOp::kSum, {fV}}},   // ghosts
      2000, config.ns_per_wire,
      [fV, fI, fR, fIn, fOut](ir::TaskContext& ctx) {
        auto voltage = [&](uint64_t n) {
          for (size_t k : {size_t{2}, size_t{3}, size_t{4}}) {
            if (ctx.param_domain(k).contains(n)) {
              return ctx.read_f64(k, fV, n);
            }
          }
          CR_CHECK_MSG(false, "node not covered by any voltage argument");
          return 0.0;
        };
        ctx.domain().points().for_each_point([&](uint64_t w) {
          const auto in = static_cast<uint64_t>(ctx.read_i64(1, fIn, w));
          const auto out = static_cast<uint64_t>(ctx.read_i64(1, fOut, w));
          const double r = ctx.read_f64(1, fR, w);
          ctx.write_f64(0, fI, w, (voltage(in) - voltage(out)) / r);
        });
      });

  // distribute_charge: deposit -I*dt at in, +I*dt at out (reductions
  // into shared/ghost nodes).
  ir::TaskId t_dc = b.task(
      "distribute_charge",
      {{P::kReadOnly, rt::ReduceOp::kSum, {fI, fIn, fOut}},
       {P::kReadWrite, rt::ReduceOp::kSum, {fQ}},             // private
       {P::kReduce, rt::ReduceOp::kSum, {fQ}},                // owned shared
       {P::kReduce, rt::ReduceOp::kSum, {fQ}}},               // ghosts
      2000, 0.6 * config.ns_per_wire,
      [fI, fIn, fOut, fQ, dt](ir::TaskContext& ctx) {
        auto deposit = [&](uint64_t n, double dq) {
          if (ctx.param_domain(1).contains(n)) {
            ctx.write_f64(1, fQ, n, ctx.read_f64(1, fQ, n) + dq);
          } else if (ctx.param_domain(2).contains(n)) {
            ctx.reduce_f64(2, fQ, n, dq);
          } else {
            ctx.reduce_f64(3, fQ, n, dq);
          }
        };
        ctx.domain().points().for_each_point([&](uint64_t w) {
          const double dq =
              dt * ctx.read_f64(0, fI, w);
          deposit(static_cast<uint64_t>(ctx.read_i64(0, fIn, w)), -dq);
          deposit(static_cast<uint64_t>(ctx.read_i64(0, fOut, w)), dq);
        });
      });

  // update_voltages: V += q/C, leak, reset charge.
  ir::TaskId t_uv = b.task(
      "update_voltages",
      {{P::kReadWrite, rt::ReduceOp::kSum, {fV, fQ, fC}}}, 1500,
      config.ns_per_node,
      [fV, fQ, fC, leakage](ir::TaskContext& ctx) {
        ctx.domain().points().for_each_point([&](uint64_t n) {
          const double v =
              ctx.read_f64(0, fV, n) +
              ctx.read_f64(0, fQ, n) / ctx.read_f64(0, fC, n);
          ctx.write_f64(0, fV, n, v * (1.0 - leakage));
          ctx.write_f64(0, fQ, n, 0.0);
        });
      });

  b.index_launch(t_init_wires, app.pieces,
                 {B::arg(app.p_wires, P::kWriteDiscard,
                         {fI, fR, fIn, fOut})});
  b.index_launch(t_init_nodes, app.pieces,
                 {B::arg(app.p_pvt, P::kWriteDiscard, {fV, fQ, fC})});
  b.index_launch(t_init_nodes, app.pieces,
                 {B::arg(app.p_shr, P::kWriteDiscard, {fV, fQ, fC})});
  b.begin_for_time(config.steps);
  b.index_launch(t_cnc, app.pieces,
                 {B::arg(app.p_wires, P::kReadWrite, {fI}),
                  B::arg(app.p_wires, P::kReadOnly, {fR, fIn, fOut}),
                  B::arg(app.p_pvt, P::kReadOnly, {fV}),
                  B::arg(app.p_shr, P::kReadOnly, {fV}),
                  B::arg(app.p_gst, P::kReadOnly, {fV})});
  b.index_launch(t_dc, app.pieces,
                 {B::arg(app.p_wires, P::kReadOnly, {fI, fIn, fOut}),
                  B::arg(app.p_pvt, P::kReadWrite, {fQ}),
                  B::arg(app.p_shr, P::kReduce, {fQ}, rt::ReduceOp::kSum),
                  B::arg(app.p_gst, P::kReduce, {fQ}, rt::ReduceOp::kSum)});
  b.index_launch(t_uv, app.pieces,
                 {B::arg(app.p_pvt, P::kReadWrite, {fV, fQ, fC})});
  b.index_launch(t_uv, app.pieces,
                 {B::arg(app.p_shr, P::kReadWrite, {fV, fQ, fC})});
  b.end_for_time();
  app.program = b.finish();
  return app;
}

}  // namespace cr::apps::circuit
