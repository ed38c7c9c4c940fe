// Memory-layout audit layer (DESIGN.md §14).
//
// The ROADMAP's million-peer target requires per-peer protocol state to
// move from pointer-linked objects into ID-indexed struct-of-arrays slabs.
// Everything that will live in a slab must be trivially copyable (so slabs
// can be memcpy-grown and checkpointed), standard layout (so offsetof and
// column views are defined), heap-free, and padding-tight — and must STAY
// that way.  This header makes the contract a compile-time proof, and it
// is the contract's only enforcement:
//
//   COOLSTREAM_LAYOUT_AUDIT(Type, budget)  proves trivially-copyable +
//       standard-layout + not over-aligned + sizeof within `budget`, and
//       registers the type (via an AuditTraits specialization) for the
//       registry below.
//   COOLSTREAM_LAYOUT_PIN(Type, exact)     freezes sizeof exactly, so a
//       padding hole or member growth fails the build rather than silently
//       inflating every slab.
//
// The constexpr registry at the bottom is the single manifest of audited
// types.  Each entry states its data-member count and must be
// padding-tight: sizeof(T) equals its member bytes rounded up to
// alignof(T), so no reordering can shrink T.  The registry also rolls the per-peer
// bytes up against a 2,560-byte gate.  core/peer.cpp includes this header, so
// every build of coolstream_core compiles the proofs; none of it emits
// code.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

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

/// Proves the slab contract for `Type` and registers it for the registry.
/// Use at namespace scope with an unqualified (or alias) type name.
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
    static constexpr std::size_t size = sizeof(Type);                        \
  }

/// Freezes sizeof(Type) exactly.  Any drift — a new member, a reorder, a
/// padding hole — must update the pin in the same change, making layout
/// cost visible in review.
#define COOLSTREAM_LAYOUT_PIN(Type, exact_bytes)                             \
  static_assert(sizeof(Type) == (exact_bytes),                               \
                #Type " layout drifted from its pinned " #exact_bytes        \
                      " bytes (padding regression or member change); "       \
                      "update the pin if the cost is accepted")

namespace coolstream::core::layout {

/// One registry entry.  `per_peer` is the instance count charged to the
/// bytes/peer roll-up (0: contained in another audited type, or a
/// transient message not resident per peer).
struct TypeLayout {
  std::size_t size;
  std::size_t per_peer;
  bool padding_tight;  ///< see padding_tight() below; true for opaque leaves
};

// ---------------------------------------------------------------------------
// Audits.  Budgets are the negotiated ceilings (round figures a type may
// grow into without renegotiation); pins are today's exact sizes.
// ---------------------------------------------------------------------------

}  // namespace coolstream::core::layout

// Audits are invoked from namespace coolstream (which encloses
// core::layout, as AuditTraits specialization requires) with
// module-qualified names.
namespace coolstream {

COOLSTREAM_LAYOUT_AUDIT(core::BufferMap, 136);
COOLSTREAM_LAYOUT_PIN(core::BufferMap, 136);  // 2*4 + 16 lanes * 8

// The partner record keeps no buffer map: its K lanes live in the owning
// peer's lane array (one core::SeqNum entry per lane, charged below).
COOLSTREAM_LAYOUT_AUDIT(core::PartnerState, 48);
COOLSTREAM_LAYOUT_PIN(core::PartnerState, 40);  // 8 + 16 + 4 + 4 + 1, tail 7

COOLSTREAM_LAYOUT_AUDIT(core::SeqNum, 8);
COOLSTREAM_LAYOUT_PIN(core::SeqNum, 8);

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

// What a departed session keeps (System::leave): spec + stats + 3*8.  Its
// K final heads live out of line in System's departed-heads array (one
// core::SeqNum per lane, rolled up by bytes_per_departed_session below).
COOLSTREAM_LAYOUT_AUDIT(core::DepartedPeer, 160);
COOLSTREAM_LAYOUT_PIN(core::DepartedPeer, 144);

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

/// Sizes of a type's data members, carried in the type so the padding
/// check can read them without an object.
template <std::size_t... S>
struct MemberSizes {
  static constexpr std::size_t bytes = (S + ... + std::size_t{0});
};

template <typename... M>
constexpr MemberSizes<sizeof(M)...> member_sizes_of(const M&...) {
  return {};
}

// Binding names for the ladder below (they skip `t`, the parameter).
#define COOLSTREAM_LAYOUT_N8 a, b, c, d, e, f, g, h
#define COOLSTREAM_LAYOUT_N16 COOLSTREAM_LAYOUT_N8, i, j, k, l, m, n, o, p
#define COOLSTREAM_LAYOUT_N24 COOLSTREAM_LAYOUT_N16, q, r, s, u, v, w, x, y
#define COOLSTREAM_LAYOUT_BIND(count, ...)   \
  if constexpr (N == (count)) {              \
    auto& [__VA_ARGS__] = t;                 \
    return member_sizes_of(__VA_ARGS__);     \
  } else

/// Reads member sizes through a structured binding.  A struct so one
/// friend declaration grants access to audited private members
/// (currently only BufferMap's).
struct Introspect {
  /// Binds T's data members to exactly N names, which fails to compile
  /// unless T has exactly N data members, and returns their sizes.  Only
  /// ever named inside decltype.
  template <std::size_t N, typename T>
  static auto members(T& t) {
    COOLSTREAM_LAYOUT_BIND(1, a)
    COOLSTREAM_LAYOUT_BIND(2, a, b)
    COOLSTREAM_LAYOUT_BIND(3, a, b, c)
    COOLSTREAM_LAYOUT_BIND(4, a, b, c, d)
    COOLSTREAM_LAYOUT_BIND(5, a, b, c, d, e)
    COOLSTREAM_LAYOUT_BIND(6, a, b, c, d, e, f)
    COOLSTREAM_LAYOUT_BIND(7, a, b, c, d, e, f, g)
    COOLSTREAM_LAYOUT_BIND(8, COOLSTREAM_LAYOUT_N8)
    COOLSTREAM_LAYOUT_BIND(9, COOLSTREAM_LAYOUT_N8, i)
    COOLSTREAM_LAYOUT_BIND(10, COOLSTREAM_LAYOUT_N8, i, j)
    COOLSTREAM_LAYOUT_BIND(11, COOLSTREAM_LAYOUT_N8, i, j, k)
    COOLSTREAM_LAYOUT_BIND(12, COOLSTREAM_LAYOUT_N8, i, j, k, l)
    COOLSTREAM_LAYOUT_BIND(13, COOLSTREAM_LAYOUT_N8, i, j, k, l, m)
    COOLSTREAM_LAYOUT_BIND(14, COOLSTREAM_LAYOUT_N8, i, j, k, l, m, n)
    COOLSTREAM_LAYOUT_BIND(15, COOLSTREAM_LAYOUT_N8, i, j, k, l, m, n, o)
    COOLSTREAM_LAYOUT_BIND(16, COOLSTREAM_LAYOUT_N16)
    COOLSTREAM_LAYOUT_BIND(17, COOLSTREAM_LAYOUT_N16, q)
    COOLSTREAM_LAYOUT_BIND(18, COOLSTREAM_LAYOUT_N16, q, r)
    COOLSTREAM_LAYOUT_BIND(19, COOLSTREAM_LAYOUT_N16, q, r, s)
    COOLSTREAM_LAYOUT_BIND(20, COOLSTREAM_LAYOUT_N16, q, r, s, u)
    COOLSTREAM_LAYOUT_BIND(21, COOLSTREAM_LAYOUT_N16, q, r, s, u, v)
    COOLSTREAM_LAYOUT_BIND(22, COOLSTREAM_LAYOUT_N16, q, r, s, u, v, w)
    COOLSTREAM_LAYOUT_BIND(23, COOLSTREAM_LAYOUT_N16, q, r, s, u, v, w, x)
    COOLSTREAM_LAYOUT_BIND(24, COOLSTREAM_LAYOUT_N24)
    COOLSTREAM_LAYOUT_BIND(25, COOLSTREAM_LAYOUT_N24, z)
    COOLSTREAM_LAYOUT_BIND(26, COOLSTREAM_LAYOUT_N24, z, aa)
    COOLSTREAM_LAYOUT_BIND(27, COOLSTREAM_LAYOUT_N24, z, aa, ab)
    COOLSTREAM_LAYOUT_BIND(28, COOLSTREAM_LAYOUT_N24, z, aa, ab, ac)
    COOLSTREAM_LAYOUT_BIND(29, COOLSTREAM_LAYOUT_N24, z, aa, ab, ac, ad)
    COOLSTREAM_LAYOUT_BIND(30, COOLSTREAM_LAYOUT_N24, z, aa, ab, ac, ad, ae)
    COOLSTREAM_LAYOUT_BIND(31, COOLSTREAM_LAYOUT_N24, z, aa, ab, ac, ad, ae,
                           af)
    COOLSTREAM_LAYOUT_BIND(32, COOLSTREAM_LAYOUT_N24, z, aa, ab, ac, ad, ae,
                           af, ag) {
      static_assert(N >= 1 && N <= 32,
                    "member count outside 1..32; extend the binding ladder");
      return MemberSizes<>{};
    }
  }
};

#undef COOLSTREAM_LAYOUT_BIND
#undef COOLSTREAM_LAYOUT_N24
#undef COOLSTREAM_LAYOUT_N16
#undef COOLSTREAM_LAYOUT_N8

namespace detail {

/// Default protocol parameters, evaluated at compile time: the roll-up
/// multiplicities below track Params defaults automatically.
inline constexpr Params kDefaultParams{};

}  // namespace detail

/// The padding check, for a type T with N data members:
/// sizeof(T) == round_up(Σ sizeof(member), alignof(T)).  Then the only
/// padding is tail slack smaller than alignof(T), so sorting the members
/// by alignment cannot shrink T.  The sizes come from a structured
/// binding of exactly N names, so a wrong N (a member added, dropped or
/// miscounted) does not compile.  Members are charged at their own
/// sizeof, so an audited member type's tail padding is its own entry's
/// concern.
template <typename T, std::size_t N>
constexpr bool padding_tight() {
  constexpr std::size_t bytes =
      decltype(Introspect::members<N>(std::declval<T&>()))::bytes;
  return sizeof(T) == (bytes + alignof(T) - 1) / alignof(T) * alignof(T);
}

/// Registry entry for an audited type with N data members.
template <typename T, std::size_t N>
constexpr TypeLayout entry(std::size_t per_peer) {
  return {AuditTraits<T>::size, per_peer, padding_tight<T, N>()};
}

/// Registry entry for an audited type whose representation is private.
template <typename T>
constexpr TypeLayout leaf_entry(std::size_t per_peer) {
  return {AuditTraits<T>::size, per_peer, true};
}

/// Bytes/peer multiplicities (worst-case provisioned working set).
inline constexpr std::size_t kPartnerSlots =
    static_cast<std::size_t>(detail::kDefaultParams.max_partners);
inline constexpr std::size_t kMcacheSlots =
    static_cast<std::size_t>(detail::kDefaultParams.mcache_size);
// A slot-count capacity, not a protocol sequence/index value.
inline constexpr std::size_t kSubstreamSlots =  // lint:allow(raw-protocol-int)
    static_cast<std::size_t>(detail::kDefaultParams.substream_count);

/// The registry of audited types, each with its data-member count; keep
/// new entries grouped with their module.
inline constexpr TypeLayout kRegistry[] = {
    // core: resident per-peer protocol state
    entry<PeerProtocolState, 27>(1),
    entry<PartnerState, 5>(kPartnerSlots),
    // core: the partners' buffer-map lanes, K per partner slot, stored out
    // of line in Peer's lane array (leaf value type)
    leaf_entry<SeqNum>(kPartnerSlots * kSubstreamSlots),
    entry<OutLink, 2>(kSubstreamSlots),
    entry<McacheEntry, 4>(kMcacheSlots),
    // core: contained in PeerProtocolState (charged through it)
    entry<BufferMap, 3>(0),
    entry<PeerSpec, 5>(0),
    entry<PeerStats, 17>(0),
    // core: what a departed session keeps (never charged per live peer)
    entry<DepartedPeer, 5>(0),
    // net: leaf value type (private rep; audited as opaque)
    leaf_entry<net::Ipv4Address>(0),
    // logging: transient §V-A report messages (not resident per peer)
    entry<logging::ReportHeader, 3>(0),
    entry<logging::QosReport, 3>(0),
    entry<logging::TrafficReport, 3>(0),
    entry<logging::PartnerChange, 3>(0),
};

inline constexpr std::size_t kRegistrySize =
    sizeof(kRegistry) / sizeof(kRegistry[0]);

static_assert(
    [] {
      for (const TypeLayout& t : kRegistry) {
        if (!t.padding_tight) return false;
      }
      return true;
    }(),
    "an audited type is not padding-tight: reorder its members by "
    "decreasing alignment (DESIGN.md §14)");

/// The roll-up BENCH_sim_scale.json tracks: bytes of audited slab state
/// one peer is provisioned for at default Params.
constexpr std::size_t bytes_per_peer() {
  std::size_t total = 0;
  for (const TypeLayout& t : kRegistry) total += t.size * t.per_peer;
  return total;
}

/// Bytes one departed session keeps at default Params: its DepartedPeer
/// record plus its K out-of-line final heads.
constexpr std::size_t bytes_per_departed_session() {
  return AuditTraits<DepartedPeer>::size +
         kSubstreamSlots * AuditTraits<SeqNum>::size;
}

/// The budget gate: the provisioned roll-up (2,376 bytes at default
/// Params) rounded up to the next 256 bytes, so growth that gives back
/// the out-of-line partner lanes' saving fails the build.
static_assert(bytes_per_peer() <= 2560,
              "audited bytes/peer exceeds the 2,560-byte budget; shrink the "
              "hot state or renegotiate the gate (DESIGN.md §14)");

}  // namespace coolstream::core::layout
