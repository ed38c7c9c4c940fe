// Memory-layout audit layer (DESIGN.md §14).
//
// The ROADMAP's million-peer target requires per-peer protocol state to
// move from pointer-linked objects into ID-indexed struct-of-arrays slabs.
// Everything that will live in a slab must be trivially copyable (so slabs
// can be memcpy-grown and checkpointed), standard layout (so offsetof and
// column views are defined), heap-free, and padding-tight — and must STAY
// that way.  This header makes the contract a compile-time proof:
//
//   COOLSTREAM_LAYOUT_AUDIT(Type, budget)  proves trivially-copyable +
//       standard-layout + not over-aligned + sizeof within `budget`, and
//       registers the type (via an AuditTraits specialization) for the
//       census below.
//   COOLSTREAM_LAYOUT_PIN(Type, exact)     freezes sizeof exactly, so a
//       padding hole or member growth fails the build rather than silently
//       inflating every slab.
//
// The constexpr registry at the bottom is the single manifest of audited
// types.  tools/layout/layout_census walks it and emits
// tools/layout/layout_census.json (sizes, member offsets, padding holes,
// bytes/peer roll-up); the `layout_census` ctest byte-compares that file on
// gcc and clang, so layout drift is a visible, reviewed artifact.
// coolstream_lint's layout rule family (heap-in-audited, virtual-in-
// protocol, unaudited-member, padding-order, raw-aos) polices the source
// text side of the same contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "core/buffer_map.h"
#include "core/mcache.h"
#include "core/params.h"
#include "core/peer.h"
#include "logging/reports.h"
#include "net/address.h"

namespace coolstream::core::layout {

/// Primary template; COOLSTREAM_LAYOUT_AUDIT specializes it per type.
/// An unspecialized instantiation is a compile error: only audited types
/// can appear in the registry.
template <typename T>
struct AuditTraits;

}  // namespace coolstream::core::layout

/// Proves the slab contract for `Type` and registers it for the census.
/// Use at namespace scope with an unqualified (or alias) type name; the
/// stringized name is the census display name.
#define COOLSTREAM_LAYOUT_AUDIT(Type, budget_bytes)                          \
  static_assert(std::is_trivially_copyable_v<Type>,                          \
                #Type " must be trivially copyable (SoA slab contract: "     \
                      "no heap-owning or self-referential members)");        \
  static_assert(std::is_standard_layout_v<Type>,                             \
                #Type " must be standard layout (offsetof and column "      \
                      "views must be well-defined)");                        \
  static_assert(alignof(Type) <= alignof(std::max_align_t),                  \
                #Type " must not be over-aligned (slabs use the default "    \
                      "allocator alignment)");                               \
  static_assert(sizeof(Type) <= (budget_bytes),                              \
                #Type " exceeds its layout budget of " #budget_bytes         \
                      " bytes; shrink it or renegotiate the budget in "      \
                      "review (DESIGN.md §14)");                        \
  template <>                                                                \
  struct coolstream::core::layout::AuditTraits<Type> {                       \
    static constexpr const char* name = #Type;                               \
    static constexpr std::size_t size = sizeof(Type);                        \
    static constexpr std::size_t align = alignof(Type);                      \
    static constexpr std::size_t budget = (budget_bytes);                    \
  }

/// Freezes sizeof(Type) exactly.  Any drift — a new member, a reorder, a
/// padding hole — must regenerate the census and update the pin in the
/// same change, making layout cost visible in review.
#define COOLSTREAM_LAYOUT_PIN(Type, exact_bytes)                             \
  static_assert(sizeof(Type) == (exact_bytes),                               \
                #Type " layout drifted from its pinned " #exact_bytes        \
                      " bytes (padding regression or member change); "       \
                      "regenerate tools/layout/layout_census.json and "      \
                      "update the pin if the cost is accepted")

namespace coolstream::core::layout {

/// One recorded member of an audited type (offsets via offsetof, which the
/// standard-layout proof above makes well-defined).
struct MemberInfo {
  const char* name;
  std::size_t offset;
  std::size_t size;
};

/// One census entry.  `per_peer` is the instance count charged to the
/// bytes/peer roll-up (0: contained in another audited type, or a
/// transient message not resident per peer).
struct TypeLayout {
  const char* name;
  std::size_t size;
  std::size_t align;
  std::size_t budget;
  std::size_t per_peer;
  const MemberInfo* members;  ///< nullptr: opaque leaf (no public layout)
  std::size_t member_count;
};

// ---------------------------------------------------------------------------
// Audits.  Budgets are the negotiated ceilings (round figures a type may
// grow into without renegotiation); pins are today's exact sizes.
// ---------------------------------------------------------------------------

}  // namespace coolstream::core::layout

// Audits are invoked from namespace coolstream (which encloses
// core::layout, as AuditTraits specialization requires) with
// module-qualified names; the qualified name doubles as the census
// display name.
namespace coolstream {

COOLSTREAM_LAYOUT_AUDIT(core::BufferMap, 136);
COOLSTREAM_LAYOUT_PIN(core::BufferMap, 136);  // 2*4 + 16 lanes * 8

COOLSTREAM_LAYOUT_AUDIT(core::PartnerState, 192);
COOLSTREAM_LAYOUT_PIN(core::PartnerState, 168);

COOLSTREAM_LAYOUT_AUDIT(core::OutLink, 8);
COOLSTREAM_LAYOUT_PIN(core::OutLink, 8);

COOLSTREAM_LAYOUT_AUDIT(core::McacheEntry, 24);
COOLSTREAM_LAYOUT_PIN(core::McacheEntry, 24);

COOLSTREAM_LAYOUT_AUDIT(core::PeerSpec, 32);
COOLSTREAM_LAYOUT_PIN(core::PeerSpec, 24);

COOLSTREAM_LAYOUT_AUDIT(core::PeerStats, 96);
COOLSTREAM_LAYOUT_PIN(core::PeerStats, 96);  // hole-free: 7*8 + 10*4

COOLSTREAM_LAYOUT_AUDIT(core::PeerProtocolState, 448);
COOLSTREAM_LAYOUT_PIN(core::PeerProtocolState, 424);

// What a departed session keeps (System::leave): spec + stats + 3*8 +
// 16 lanes * 8.
COOLSTREAM_LAYOUT_AUDIT(core::DepartedPeer, 320);
COOLSTREAM_LAYOUT_PIN(core::DepartedPeer, 272);

COOLSTREAM_LAYOUT_AUDIT(net::Ipv4Address, 4);
COOLSTREAM_LAYOUT_PIN(net::Ipv4Address, 4);

// Transport message structs: the §V-A report payloads every peer emits.
// (ActivityReport and PartnerReport stay cold: they carry a string /
// vector by design and never enter a slab.)
COOLSTREAM_LAYOUT_AUDIT(logging::ReportHeader, 24);
COOLSTREAM_LAYOUT_PIN(logging::ReportHeader, 24);

COOLSTREAM_LAYOUT_AUDIT(logging::QosReport, 40);
COOLSTREAM_LAYOUT_PIN(logging::QosReport, 40);

COOLSTREAM_LAYOUT_AUDIT(logging::TrafficReport, 40);
COOLSTREAM_LAYOUT_PIN(logging::TrafficReport, 40);

COOLSTREAM_LAYOUT_AUDIT(logging::PartnerChange, 8);
COOLSTREAM_LAYOUT_PIN(logging::PartnerChange, 8);

}  // namespace coolstream

namespace coolstream::core::layout {

/// Member manifests.  Declared inside one struct so a single friend
/// declaration grants offsetof access to audited private members
/// (currently only BufferMap's).
struct Introspect {
  // NOLINTBEGIN -- offsetof on these types is sanctioned by their
  // standard-layout proofs above.
  static constexpr MemberInfo kBufferMap[] = {
      {"k_", offsetof(BufferMap, k_), sizeof(std::int32_t)},
      {"sub_bits_", offsetof(BufferMap, sub_bits_), sizeof(std::uint32_t)},
      {"latest_", offsetof(BufferMap, latest_),
       sizeof(SeqNum) * BufferMap::kMaxSubstreams},
  };

  static constexpr MemberInfo kPartnerState[] = {
      {"id", offsetof(PartnerState, id), sizeof(PartnerState::id)},
      {"incoming", offsetof(PartnerState, incoming),
       sizeof(PartnerState::incoming)},
      {"established", offsetof(PartnerState, established),
       sizeof(PartnerState::established)},
      {"bm", offsetof(PartnerState, bm), sizeof(PartnerState::bm)},
      {"bm_time", offsetof(PartnerState, bm_time),
       sizeof(PartnerState::bm_time)},
  };

  static constexpr MemberInfo kOutLink[] = {
      {"child", offsetof(OutLink, child), sizeof(OutLink::child)},
      {"substream", offsetof(OutLink, substream),
       sizeof(OutLink::substream)},
  };

  static constexpr MemberInfo kMcacheEntry[] = {
      {"first_seen", offsetof(McacheEntry, first_seen),
       sizeof(McacheEntry::first_seen)},
      {"updated", offsetof(McacheEntry, updated),
       sizeof(McacheEntry::updated)},
      {"id", offsetof(McacheEntry, id), sizeof(McacheEntry::id)},
      {"reachable", offsetof(McacheEntry, reachable),
       sizeof(McacheEntry::reachable)},
  };

  static constexpr MemberInfo kPeerSpec[] = {
      {"user_id", offsetof(PeerSpec, user_id), sizeof(PeerSpec::user_id)},
      {"kind", offsetof(PeerSpec, kind), sizeof(PeerSpec::kind)},
      {"type", offsetof(PeerSpec, type), sizeof(PeerSpec::type)},
      {"address", offsetof(PeerSpec, address), sizeof(PeerSpec::address)},
      {"upload_capacity", offsetof(PeerSpec, upload_capacity),
       sizeof(PeerSpec::upload_capacity)},
  };

  static constexpr MemberInfo kPeerStats[] = {
      {"blocks_due", offsetof(PeerStats, blocks_due),
       sizeof(PeerStats::blocks_due)},
      {"blocks_on_time", offsetof(PeerStats, blocks_on_time),
       sizeof(PeerStats::blocks_on_time)},
      {"bytes_up", offsetof(PeerStats, bytes_up),
       sizeof(PeerStats::bytes_up)},
      {"bytes_down", offsetof(PeerStats, bytes_down),
       sizeof(PeerStats::bytes_down)},
      {"stall_seconds", offsetof(PeerStats, stall_seconds),
       sizeof(PeerStats::stall_seconds)},
      {"capable_subscription_time",
       offsetof(PeerStats, capable_subscription_time),
       sizeof(PeerStats::capable_subscription_time)},
      {"weak_subscription_time",
       offsetof(PeerStats, weak_subscription_time),
       sizeof(PeerStats::weak_subscription_time)},
      {"adaptations", offsetof(PeerStats, adaptations),
       sizeof(PeerStats::adaptations)},
      {"parent_switches", offsetof(PeerStats, parent_switches),
       sizeof(PeerStats::parent_switches)},
      {"partnership_attempts", offsetof(PeerStats, partnership_attempts),
       sizeof(PeerStats::partnership_attempts)},
      {"partnership_rejections",
       offsetof(PeerStats, partnership_rejections),
       sizeof(PeerStats::partnership_rejections)},
      {"window_skips", offsetof(PeerStats, window_skips),
       sizeof(PeerStats::window_skips)},
      {"deadline_skips", offsetof(PeerStats, deadline_skips),
       sizeof(PeerStats::deadline_skips)},
      {"stalls", offsetof(PeerStats, stalls), sizeof(PeerStats::stalls)},
      {"resyncs", offsetof(PeerStats, resyncs),
       sizeof(PeerStats::resyncs)},
      {"capable_subscriptions_ended",
       offsetof(PeerStats, capable_subscriptions_ended),
       sizeof(PeerStats::capable_subscriptions_ended)},
      {"weak_subscriptions_ended",
       offsetof(PeerStats, weak_subscriptions_ended),
       sizeof(PeerStats::weak_subscriptions_ended)},
  };

  static constexpr MemberInfo kPeerProtocolState[] = {
      {"spec_", offsetof(PeerProtocolState, spec_),
       sizeof(PeerProtocolState::spec_)},
      {"session_id_", offsetof(PeerProtocolState, session_id_),
       sizeof(PeerProtocolState::session_id_)},
      {"joined_at_", offsetof(PeerProtocolState, joined_at_),
       sizeof(PeerProtocolState::joined_at_)},
      {"first_bm_at_", offsetof(PeerProtocolState, first_bm_at_),
       sizeof(PeerProtocolState::first_bm_at_)},
      {"play_start_seq_", offsetof(PeerProtocolState, play_start_seq_),
       sizeof(PeerProtocolState::play_start_seq_)},
      {"play_start_time_", offsetof(PeerProtocolState, play_start_time_),
       sizeof(PeerProtocolState::play_start_time_)},
      {"last_deadline_counted_",
       offsetof(PeerProtocolState, last_deadline_counted_),
       sizeof(PeerProtocolState::last_deadline_counted_)},
      {"stalled_on_", offsetof(PeerProtocolState, stalled_on_),
       sizeof(PeerProtocolState::stalled_on_)},
      {"next_bm_push_", offsetof(PeerProtocolState, next_bm_push_),
       sizeof(PeerProtocolState::next_bm_push_)},
      {"next_gossip_", offsetof(PeerProtocolState, next_gossip_),
       sizeof(PeerProtocolState::next_gossip_)},
      {"next_adaptation_", offsetof(PeerProtocolState, next_adaptation_),
       sizeof(PeerProtocolState::next_adaptation_)},
      {"next_refill_", offsetof(PeerProtocolState, next_refill_),
       sizeof(PeerProtocolState::next_refill_)},
      {"next_report_", offsetof(PeerProtocolState, next_report_),
       sizeof(PeerProtocolState::next_report_)},
      {"last_adaptation_", offsetof(PeerProtocolState, last_adaptation_),
       sizeof(PeerProtocolState::last_adaptation_)},
      {"last_resync_", offsetof(PeerProtocolState, last_resync_),
       sizeof(PeerProtocolState::last_resync_)},
      {"interval_due_", offsetof(PeerProtocolState, interval_due_),
       sizeof(PeerProtocolState::interval_due_)},
      {"interval_on_time_", offsetof(PeerProtocolState, interval_on_time_),
       sizeof(PeerProtocolState::interval_on_time_)},
      {"interval_bytes_up_",
       offsetof(PeerProtocolState, interval_bytes_up_),
       sizeof(PeerProtocolState::interval_bytes_up_)},
      {"interval_bytes_down_",
       offsetof(PeerProtocolState, interval_bytes_down_),
       sizeof(PeerProtocolState::interval_bytes_down_)},
      {"bm_cache_", offsetof(PeerProtocolState, bm_cache_),
       sizeof(PeerProtocolState::bm_cache_)},
      {"bm_cache_version_",
       offsetof(PeerProtocolState, bm_cache_version_),
       sizeof(PeerProtocolState::bm_cache_version_)},
      {"stats_", offsetof(PeerProtocolState, stats_),
       sizeof(PeerProtocolState::stats_)},
      {"phase_", offsetof(PeerProtocolState, phase_),
       sizeof(PeerProtocolState::phase_)},
      {"start_decided_", offsetof(PeerProtocolState, start_decided_),
       sizeof(PeerProtocolState::start_decided_)},
      {"start_sub_emitted_",
       offsetof(PeerProtocolState, start_sub_emitted_),
       sizeof(PeerProtocolState::start_sub_emitted_)},
      {"had_incoming_", offsetof(PeerProtocolState, had_incoming_),
       sizeof(PeerProtocolState::had_incoming_)},
      {"had_outgoing_", offsetof(PeerProtocolState, had_outgoing_),
       sizeof(PeerProtocolState::had_outgoing_)},
  };

  static constexpr MemberInfo kDepartedPeer[] = {
      {"spec", offsetof(DepartedPeer, spec), sizeof(DepartedPeer::spec)},
      {"stats", offsetof(DepartedPeer, stats), sizeof(DepartedPeer::stats)},
      {"play_start_seq", offsetof(DepartedPeer, play_start_seq),
       sizeof(DepartedPeer::play_start_seq)},
      {"playhead", offsetof(DepartedPeer, playhead),
       sizeof(DepartedPeer::playhead)},
      {"blocks_received", offsetof(DepartedPeer, blocks_received),
       sizeof(DepartedPeer::blocks_received)},
      {"heads", offsetof(DepartedPeer, heads), sizeof(DepartedPeer::heads)},
  };

  static constexpr MemberInfo kReportHeader[] = {
      {"user_id", offsetof(logging::ReportHeader, user_id),
       sizeof(logging::ReportHeader::user_id)},
      {"session_id", offsetof(logging::ReportHeader, session_id),
       sizeof(logging::ReportHeader::session_id)},
      {"time", offsetof(logging::ReportHeader, time),
       sizeof(logging::ReportHeader::time)},
  };

  static constexpr MemberInfo kQosReport[] = {
      {"header", offsetof(logging::QosReport, header),
       sizeof(logging::QosReport::header)},
      {"blocks_due", offsetof(logging::QosReport, blocks_due),
       sizeof(logging::QosReport::blocks_due)},
      {"blocks_on_time", offsetof(logging::QosReport, blocks_on_time),
       sizeof(logging::QosReport::blocks_on_time)},
  };

  static constexpr MemberInfo kTrafficReport[] = {
      {"header", offsetof(logging::TrafficReport, header),
       sizeof(logging::TrafficReport::header)},
      {"bytes_down", offsetof(logging::TrafficReport, bytes_down),
       sizeof(logging::TrafficReport::bytes_down)},
      {"bytes_up", offsetof(logging::TrafficReport, bytes_up),
       sizeof(logging::TrafficReport::bytes_up)},
  };

  static constexpr MemberInfo kPartnerChange[] = {
      {"partner", offsetof(logging::PartnerChange, partner),
       sizeof(logging::PartnerChange::partner)},
      {"added", offsetof(logging::PartnerChange, added),
       sizeof(logging::PartnerChange::added)},
      {"incoming", offsetof(logging::PartnerChange, incoming),
       sizeof(logging::PartnerChange::incoming)},
  };
  // NOLINTEND
};

namespace detail {

/// Default protocol parameters, evaluated at compile time: the roll-up
/// multiplicities below track Params defaults automatically.
inline constexpr Params kDefaultParams{};

template <typename T, std::size_t N>
constexpr TypeLayout entry(std::size_t per_peer, const MemberInfo (&m)[N]) {
  return {AuditTraits<T>::name, AuditTraits<T>::size, AuditTraits<T>::align,
          AuditTraits<T>::budget, per_peer, m, N};
}

template <typename T>
constexpr TypeLayout leaf_entry(std::size_t per_peer) {
  return {AuditTraits<T>::name, AuditTraits<T>::size, AuditTraits<T>::align,
          AuditTraits<T>::budget, per_peer, nullptr, 0};
}

}  // namespace detail

/// Bytes/peer multiplicities (worst-case provisioned working set).
inline constexpr std::size_t kPartnerSlots =
    static_cast<std::size_t>(detail::kDefaultParams.max_partners);
inline constexpr std::size_t kMcacheSlots =
    static_cast<std::size_t>(detail::kDefaultParams.mcache_size);
// A slot-count capacity, not a protocol sequence/index value.
inline constexpr std::size_t kSubstreamSlots =  // lint:allow(raw-protocol-int)
    static_cast<std::size_t>(detail::kDefaultParams.substream_count);

/// The census manifest.  Ordering is the census file ordering; keep new
/// entries grouped with their module.
inline constexpr TypeLayout kRegistry[] = {
    // core: resident per-peer protocol state
    detail::entry<PeerProtocolState>(1, Introspect::kPeerProtocolState),
    detail::entry<PartnerState>(kPartnerSlots, Introspect::kPartnerState),
    detail::entry<OutLink>(kSubstreamSlots, Introspect::kOutLink),
    detail::entry<McacheEntry>(kMcacheSlots, Introspect::kMcacheEntry),
    // core: contained in PeerProtocolState (charged through it)
    detail::entry<BufferMap>(0, Introspect::kBufferMap),
    detail::entry<PeerSpec>(0, Introspect::kPeerSpec),
    detail::entry<PeerStats>(0, Introspect::kPeerStats),
    // core: what a departed session keeps (not charged per live peer; the
    // census reports it as bytes per departed session)
    detail::entry<DepartedPeer>(0, Introspect::kDepartedPeer),
    // net: leaf value type (private rep; audited as opaque)
    detail::leaf_entry<net::Ipv4Address>(0),
    // logging: transient §V-A report messages (not resident per peer)
    detail::entry<logging::ReportHeader>(0, Introspect::kReportHeader),
    detail::entry<logging::QosReport>(0, Introspect::kQosReport),
    detail::entry<logging::TrafficReport>(0, Introspect::kTrafficReport),
    detail::entry<logging::PartnerChange>(0, Introspect::kPartnerChange),
};

inline constexpr std::size_t kRegistrySize =
    sizeof(kRegistry) / sizeof(kRegistry[0]);

/// The roll-up the census records and BENCH_sim_scale.json tracks: bytes
/// of audited slab state one peer is provisioned for at default Params.
constexpr std::size_t bytes_per_peer() {
  std::size_t total = 0;
  for (const TypeLayout& t : kRegistry) total += t.size * t.per_peer;
  return total;
}

/// The budget gate: the provisioned roll-up must stay within one 4 KiB
/// page per peer (the SoA PR's baseline to beat; renegotiate in review).
static_assert(bytes_per_peer() <= 4096,
              "audited bytes/peer exceeds the 4 KiB budget; shrink the hot "
              "state or renegotiate the gate (DESIGN.md §14)");

}  // namespace coolstream::core::layout
