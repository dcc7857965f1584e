// RoutingMatrix::reroute against a full single_path rebuild: rerouting
// only the rows that cross a failed link must give the same matrix, bit
// for bit, as routing every row again around the union failure set.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "routing/routing_matrix.hpp"
#include "topo/hierarchical.hpp"
#include "traffic/fanout.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace netmon::routing {
namespace {

struct Instance {
  topo::Graph graph;
  std::vector<OdPair> ods;
};

// The smoke-sized hierarchical instance of core_scale_smoke_test: dual-
// homed tiers, so equal-cost ties are everywhere.
Instance hierarchical() {
  topo::HierarchyOptions shape;
  shape.cores = 4;
  shape.aggs_per_core = 3;
  shape.edges_per_agg = 40;
  topo::HierarchicalNetwork net = topo::make_hierarchical(shape);
  traffic::FanoutOptions fanout;
  fanout.od_count = 3000;
  fanout.max_sources = 24;
  Instance instance;
  for (const traffic::Demand& d : traffic::gravity_fanout(net, fanout))
    instance.ods.push_back(d.od);
  instance.graph = std::move(net.graph);
  return instance;
}

// GEANT with every OD pair of its scenario (background gravity plus the
// JANET task): many sources over a small mesh.
Instance geant() {
  core::GeantScenario scenario = core::make_geant_scenario();
  Instance instance;
  for (const traffic::Demand& d : scenario.demands)
    instance.ods.push_back(d.od);
  instance.graph = std::move(scenario.net.graph);
  return instance;
}

void expect_same(const RoutingMatrix& got, const RoutingMatrix& want) {
  EXPECT_EQ(got.ods(), want.ods());
  EXPECT_EQ(got.failed(), want.failed());
  EXPECT_TRUE(got.is_single_path());
  const auto same = [](const linalg::SparseCsr& a, const linalg::SparseCsr& b) {
    EXPECT_EQ(a.rows(), b.rows());
    EXPECT_EQ(a.cols(), b.cols());
    EXPECT_TRUE(std::ranges::equal(a.row_ptr(), b.row_ptr()));
    EXPECT_TRUE(std::ranges::equal(a.col_idx(), b.col_idx()));
    EXPECT_TRUE(std::ranges::equal(a.values(), b.values()));
  };
  same(got.csr(), want.csr());
  same(got.csc(), want.csc());
}

LinkSet merged(const LinkSet& a, const LinkSet& b) {
  LinkSet out = a;
  out.insert(b.begin(), b.end());
  return out;
}

// Reroutes `base` around `failed` and checks the result against a full
// rebuild: the same matrix, or the same netmon::Error when the union set
// disconnects an OD pair. Returns whether the rebuild succeeded.
bool check_reroute(const Instance& instance, const RoutingMatrix& base,
                   const LinkSet& failed) {
  const LinkSet all = merged(base.failed(), failed);
  std::string full_error;
  RoutingMatrix full;
  try {
    full = RoutingMatrix::single_path(instance.graph, instance.ods, all);
  } catch (const Error& e) {
    full_error = e.what();
  }
  if (!full_error.empty()) {
    try {
      (void)RoutingMatrix::reroute(base, instance.graph, failed);
      ADD_FAILURE() << "reroute did not throw: " << full_error;
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), full_error);
    }
    return false;
  }
  expect_same(RoutingMatrix::reroute(base, instance.graph, failed), full);
  return true;
}

// The link carried by the most OD pairs.
topo::LinkId busiest_link(const RoutingMatrix& matrix) {
  topo::LinkId best = 0;
  for (topo::LinkId id = 0; id < matrix.link_count(); ++id) {
    if (matrix.ods_on_link(id).size() > matrix.ods_on_link(best).size())
      best = id;
  }
  return best;
}

class Reroute : public ::testing::TestWithParam<const char*> {
 protected:
  Instance instance() const {
    return std::string(GetParam()) == "geant" ? geant() : hierarchical();
  }
};

TEST_P(Reroute, RandomFailureSetsMatchAFullRebuild) {
  const Instance inst = instance();
  const RoutingMatrix base = RoutingMatrix::single_path(inst.graph, inst.ods);
  const std::vector<topo::LinkId> used = base.links_used();
  Rng rng(12);
  int rebuilt = 0;
  for (int trial = 0; trial < 40; ++trial) {
    LinkSet failed;
    const std::uint64_t size = rng.below(4);  // 0..3 links
    while (failed.size() < size) {
      // Mostly links some OD crosses; sometimes any link of the graph.
      failed.insert(rng.bernoulli(0.8)
                        ? used[rng.below(used.size())]
                        : static_cast<topo::LinkId>(
                              rng.below(inst.graph.link_count())));
    }
    if (check_reroute(inst, base, failed)) ++rebuilt;
  }
  EXPECT_GT(rebuilt, 20);
}

TEST_P(Reroute, BusiestLinkMatchesAFullRebuild) {
  const Instance inst = instance();
  const RoutingMatrix base = RoutingMatrix::single_path(inst.graph, inst.ods);
  const topo::LinkId busiest = busiest_link(base);
  EXPECT_GT(base.ods_on_link(busiest).size(), 1u);
  EXPECT_TRUE(check_reroute(inst, base, {busiest}));
}

TEST_P(Reroute, EmptyFailureSetCopiesTheBase) {
  const Instance inst = instance();
  const RoutingMatrix base = RoutingMatrix::single_path(inst.graph, inst.ods);
  expect_same(RoutingMatrix::reroute(base, inst.graph, {}), base);
}

TEST_P(Reroute, BaseWithFailuresAndRepeatedLinks) {
  const Instance inst = instance();
  const RoutingMatrix plain = RoutingMatrix::single_path(inst.graph, inst.ods);
  const topo::LinkId first = busiest_link(plain);
  const RoutingMatrix base =
      RoutingMatrix::single_path(inst.graph, inst.ods, {first});
  const topo::LinkId second = busiest_link(base);
  ASSERT_NE(first, second);
  // A link already failed in the base, alone and beside a new one.
  EXPECT_TRUE(check_reroute(inst, base, {first}));
  EXPECT_TRUE(check_reroute(inst, base, {first, second}));
  // Chained: the base's own failure repeated at every step.
  const RoutingMatrix once = RoutingMatrix::reroute(plain, inst.graph, {first});
  expect_same(once, base);
  expect_same(RoutingMatrix::reroute(once, inst.graph, {first, second}),
              RoutingMatrix::single_path(inst.graph, inst.ods,
                                         {first, second}));
  // A new failure on the detour an OD took around the base's failure:
  // its reroute must still avoid the base's failed link.
  const std::size_t k = plain.ods_on_link(first)[0].first;
  const std::span<const linalg::SparseCsr::Index> before = plain.row(k).cols();
  topo::LinkId detour = topo::kInvalidId;
  for (topo::LinkId id : base.row(k).cols()) {
    if (!std::binary_search(before.begin(), before.end(), id)) detour = id;
  }
  ASSERT_NE(detour, topo::kInvalidId);
  EXPECT_TRUE(check_reroute(inst, base, {detour}));
  // An id outside the graph names no link, as in single_path.
  const auto beyond = static_cast<topo::LinkId>(inst.graph.link_count() + 5);
  EXPECT_TRUE(check_reroute(inst, base, {beyond, second}));
}

TEST_P(Reroute, DisconnectedDestinationThrowsTheSameError) {
  const Instance inst = instance();
  const RoutingMatrix base = RoutingMatrix::single_path(inst.graph, inst.ods);
  // Fail every link into the destination of the last OD pair.
  const topo::NodeId dst = inst.ods.back().dst;
  LinkSet failed;
  for (topo::LinkId id : inst.graph.in_links(dst)) failed.insert(id);
  EXPECT_FALSE(check_reroute(inst, base, failed));
  EXPECT_THROW((void)RoutingMatrix::reroute(base, inst.graph, failed), Error);
}

INSTANTIATE_TEST_SUITE_P(Instances, Reroute,
                         ::testing::Values("hierarchical", "geant"));

TEST(RerouteContract, NeedsASinglePathBaseOverTheSameGraph) {
  const Instance inst = geant();
  const RoutingMatrix ecmp = RoutingMatrix::ecmp(inst.graph, inst.ods);
  EXPECT_FALSE(ecmp.is_single_path());
  EXPECT_THROW((void)RoutingMatrix::reroute(ecmp, inst.graph, {}), Error);
  const Instance other = hierarchical();
  const RoutingMatrix base =
      RoutingMatrix::single_path(other.graph, other.ods);
  EXPECT_THROW((void)RoutingMatrix::reroute(base, inst.graph, {}), Error);
}

}  // namespace
}  // namespace netmon::routing
