#include "exec/report.h"

#include <gtest/gtest.h>

namespace cr::exec {
namespace {

ScalingSeries series(const std::string& name,
                     std::vector<std::pair<uint32_t, double>> pts) {
  ScalingSeries s;
  s.name = name;
  for (auto& [nodes, seconds] : pts) {
    ScalingPoint p;
    p.nodes = nodes;
    p.seconds = seconds;
    p.work_per_node = 1000;
    p.iterations = 1;
    s.points.push_back(p);
  }
  return s;
}

TEST(Report, ThroughputPerNode) {
  ScalingPoint p;
  p.nodes = 4;
  p.seconds = 2.0;
  p.work_per_node = 1000;
  p.iterations = 4;
  EXPECT_DOUBLE_EQ(p.throughput_per_node(), 2000.0);
}

TEST(Report, EfficiencyRelativeToSmallestNodeCount) {
  ScalingSeries s = series("x", {{1, 1.0}, {4, 1.25}, {16, 2.0}});
  EXPECT_DOUBLE_EQ(s.efficiency_at(1), 1.0);
  EXPECT_DOUBLE_EQ(s.efficiency_at(4), 0.8);
  EXPECT_DOUBLE_EQ(s.efficiency_at(16), 0.5);
  EXPECT_DOUBLE_EQ(s.efficiency_at(64), 0.0);  // missing point
}

TEST(Report, TableContainsAllSeriesAndNodeCounts) {
  ScalingReport r{.title = "Fig", .unit = "u", .unit_scale = 1.0, .series = {}};
  r.series.push_back(series("A", {{1, 1.0}, {2, 1.0}}));
  r.series.push_back(series("B", {{2, 2.0}}));
  const std::string t = r.to_table();
  EXPECT_NE(t.find("A (eff)"), std::string::npos);
  EXPECT_NE(t.find("B (eff)"), std::string::npos);
  // B has no 1-node point: rendered as '-'.
  EXPECT_NE(t.find("-"), std::string::npos);
  EXPECT_NE(t.find("Fig"), std::string::npos);
}

TEST(Report, ToSeconds) {
  EXPECT_DOUBLE_EQ(to_seconds(1500000000ull), 1.5);
}

}  // namespace
}  // namespace cr::exec
