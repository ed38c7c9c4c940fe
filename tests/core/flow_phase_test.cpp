// The fluid data plane's two phases (System::tick, F1 and F2):
//   * F1 resolves each out-link's child once: a link whose child no longer
//     takes the sub-stream from this parent has zero demand, so it is
//     granted no in-flow slot, and it is compacted away with the surviving
//     links kept in order;
//   * F2 applies a grant as one run of n whole blocks, taking n out of the
//     fluid credit at once — exact, so bit-identical to n single blocks.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/invariants.h"
#include "core/system.h"
#include "logging/log_server.h"
#include "sim/rng.h"
#include "workload/scenario.h"

namespace coolstream::core {
namespace {

bool serves(const Peer& parent, net::NodeId child, SubstreamId j) {
  for (const OutLink& l : parent.out_links()) {
    if (l.child == child && l.substream == j) return true;
  }
  return false;
}

TEST(FlowRatesTest, SwitchedChildGetsNoSlotAndIsCompactedInOrder) {
  workload::Scenario scenario =
      workload::Scenario::steady(80, units::Duration(600.0));
  scenario.system.server_count = 2;
  sim::Simulation simulation(5);
  logging::LogServer log;
  workload::ScenarioRunner runner(simulation, scenario, &log);
  runner.run_until(300.0);
  System& sys = runner.system();

  // A parent with at least three out-links whose middle link's child has
  // another live partner that does not serve it that sub-stream.
  Peer* parent = nullptr;
  Peer* child = nullptr;
  net::NodeId other = net::kInvalidNode;
  for (net::NodeId id = 0; id < sys.node_count() && child == nullptr; ++id) {
    Peer* p = sys.peer(id);
    if (p == nullptr || !p->alive() || p->out_links().size() < 3) continue;
    const OutLink mid = p->out_links()[1];
    Peer* c = sys.peer(mid.child);
    if (c == nullptr || !c->alive() || c->parent_of(mid.substream) != id) {
      continue;
    }
    for (const PartnerState& ps : c->partners()) {
      const Peer* q = sys.peer(ps.id);
      if (ps.id != id && q != nullptr && q->alive() &&
          !serves(*q, mid.child, mid.substream)) {
        parent = p;
        child = c;
        other = ps.id;
        break;
      }
    }
  }
  ASSERT_NE(child, nullptr) << "no parent with a switchable middle child";

  const std::vector<OutLink> before = parent->out_links();
  const OutLink stale = before[1];
  // The child switches the sub-stream to another partner without telling
  // the old parent: the old link is now stale.
  InvariantTestAccess::parents(*child)[stale.substream.index()] = other;
  const SeqNum head_before = child->head(stale.substream);

  // Exactly one tick.
  runner.run_until(simulation.now().value() + sys.params().flow_dt().value());

  // No slot: neither the old parent (stale link) nor the new one (no link)
  // pushed a block on that sub-stream.
  EXPECT_EQ(child->head(stale.substream), head_before);
  // The stale link is gone; the surviving links keep their order.
  EXPECT_FALSE(serves(*parent, stale.child, stale.substream));
  std::vector<OutLink> expected = before;
  expected.erase(expected.begin() + 1);
  std::vector<OutLink> survivors;
  for (const OutLink& l : parent->out_links()) {
    for (const OutLink& b : before) {
      if (b.child == l.child && b.substream == l.substream) {
        survivors.push_back(l);
      }
    }
  }
  ASSERT_EQ(survivors.size(), expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(survivors[k].child, expected[k].child) << k;
    EXPECT_EQ(survivors[k].substream, expected[k].substream) << k;
  }
}

TEST(FlowCreditTest, SpendingARunEqualsSpendingBlockByBlock) {
  // F2 takes n = min(floor(credit), backlog) blocks out of a credit capped
  // at 4.  For credit in [1, 4] and every n <= floor(credit), one
  // subtraction of n must equal n subtractions of 1.0, bit for bit.
  sim::Rng rng(23);
  std::vector<double> credits = {1.0, std::nextafter(1.0, 2.0), 2.0,
                                 std::nextafter(2.0, 1.0), 3.0,
                                 std::nextafter(4.0, 1.0), 4.0};
  for (int i = 0; i < 100'000; ++i) credits.push_back(rng.uniform(1.0, 4.0));
  for (const double credit : credits) {
    const BlockCount whole = units::whole_blocks(credit);
    ASSERT_EQ(whole, BlockCount(static_cast<std::int64_t>(std::floor(credit))));
    for (BlockCount n = BlockCount::zero(); n <= whole; n += BlockCount(1)) {
      double one_by_one = credit;
      for (BlockCount m = BlockCount::zero(); m < n; m += BlockCount(1)) {
        one_by_one -= 1.0;
      }
      double run = credit;
      units::spend(run, n);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(run),
                std::bit_cast<std::uint64_t>(one_by_one))
          << credit << " - " << n;
    }
  }
}

}  // namespace
}  // namespace coolstream::core
