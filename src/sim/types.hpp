// Fundamental identifier types of the simulation model (paper §1.1).
#pragma once

#include <compare>
#include <cstdint>
#include <functional>

namespace ssps::sim {

/// Opaque node reference ("ID" in the paper).
///
/// The model requires compare-store-send usage only: protocols may compare
/// NodeIds, store them, and put them into messages, but never derive
/// information from them. Value 0 is reserved for "no node" (⊥).
struct NodeId {
  std::uint64_t value = 0;

  constexpr bool is_null() const { return value == 0; }
  constexpr explicit operator bool() const { return value != 0; }
  constexpr auto operator<=>(const NodeId&) const = default;

  /// The ⊥ reference.
  static constexpr NodeId null() { return NodeId{0}; }
};

/// Round index of the synchronous-round scheduler (one "timeout interval").
using Round = std::uint64_t;

/// Tick of the timed engine's virtual clock (sim::kTicksPerInterval ticks
/// make one interval, i.e. one round).
using Step = std::uint64_t;

}  // namespace ssps::sim

template <>
struct std::hash<ssps::sim::NodeId> {
  std::size_t operator()(const ssps::sim::NodeId& id) const noexcept {
    return std::hash<std::uint64_t>{}(id.value);
  }
};
