// Control-plane message transport.
//
// Delivers callbacks between nodes after the pairwise latency.  Control
// messages (gossip, buffer maps, subscribe/unsubscribe) are small; we model
// their propagation delay but not their bandwidth, which is standard for
// overlay simulations — the data plane (sub-stream blocks) is where
// bandwidth is modelled (see core::FlowModel).
//
// The transport also keeps per-category message counters so benches can
// report control overhead.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <type_traits>
#include <utility>

#include "net/latency.h"
#include "net/types.h"
#include "sim/fault_injector.h"
#include "sim/simulation.h"

namespace coolstream::net {

/// Categories of control messages, for overhead accounting.
enum class MessageKind : unsigned char {
  kGossip = 0,        ///< membership gossip
  kBufferMap = 1,     ///< periodic BM exchange
  kSubscribe = 2,     ///< sub-stream subscription / unsubscription
  kPartnership = 3,   ///< partnership establishment / teardown
  kReport = 4,        ///< log reports to the log server
};

inline constexpr int kMessageKindCount = 5;

/// Name for a message kind ("gossip", "buffermap", ...).
std::string_view to_string(MessageKind kind) noexcept;

/// Latency-delayed delivery of callbacks between nodes.
class Transport {
 public:
  Transport(sim::Simulation& simulation, const LatencyModel& latency)
      : sim_(simulation), latency_(latency) {}

  /// Delivers `deliver` at the destination after the one-way delay from
  /// `from` to `to`.  The callback must internally route to the right
  /// recipient object; the transport does not keep a node registry (the
  /// System layer does).  Templated so the callable lands directly in the
  /// event engine's in-record storage instead of a std::function.
  ///
  /// With a fault injector attached the message may additionally be
  /// dropped, duplicated, or delayed by bounded jitter (independent jitter
  /// of back-to-back messages is what produces reordering).  Without one,
  /// the cost is a single null check and behaviour is bit-identical to the
  /// fault-free transport.
  template <typename F>
  void send(NodeId from, NodeId to, MessageKind kind, F&& deliver) {
    ++counts_[static_cast<std::size_t>(kind)];
    const auto base = latency_.delay(from, to);
    if (faults_ != nullptr) {
      const sim::MessageDecision d = faults_->on_message(sim_.now(), from, to);
      if (d.drop) return;
      if constexpr (std::is_copy_constructible_v<std::decay_t<F>>) {
        if (d.duplicate) {
          auto copy = deliver;
          sim_.after(base + d.extra_delay + d.duplicate_delay,
                     std::move(copy));
        }
      }
      sim_.after(base + d.extra_delay, std::forward<F>(deliver));
      return;
    }
    sim_.after(base, std::forward<F>(deliver));
  }

  /// Attaches (or detaches, with nullptr) a fault injector.  The injector
  /// must outlive the transport or be detached first.
  void attach_faults(sim::FaultInjector* injector) noexcept {
    faults_ = injector;
  }
  sim::FaultInjector* faults() const noexcept { return faults_; }

  /// Accounts for `n` messages whose delivery is modelled synchronously by
  /// the caller (e.g. the periodic buffer-map exchange).
  void count_only(MessageKind kind, std::uint64_t n = 1) noexcept {
    counts_[static_cast<std::size_t>(kind)] += n;
  }

  /// Messages sent so far, by kind.
  std::uint64_t sent(MessageKind kind) const noexcept {
    return counts_[static_cast<std::size_t>(kind)];
  }

  /// Total messages sent.
  std::uint64_t total_sent() const noexcept;

  sim::Simulation& simulation() noexcept { return sim_; }
  const LatencyModel& latency() const noexcept { return latency_; }

 private:
  sim::Simulation& sim_;
  const LatencyModel& latency_;
  sim::FaultInjector* faults_ = nullptr;
  std::array<std::uint64_t, kMessageKindCount> counts_{};
};

}  // namespace coolstream::net
