#include "core/system.hpp"

#include <sstream>

#include "core/skip_ring_spec.hpp"

namespace ssps::core {

SkipRingSystem::SkipRingSystem(const Options& options) : net_(options.seed) {
  supervisor_id_ = net_.spawn<SupervisorNode>();
  fd_ = std::make_unique<sim::FailureDetector>(net_, options.fd_delay);
  supervisor().set_failure_detector(fd_.get());
}

SupervisorProtocol& SkipRingSystem::supervisor() {
  return net_.node_as<SupervisorNode>(supervisor_id_).protocol();
}

const SupervisorProtocol& SkipRingSystem::supervisor() const {
  return const_cast<SkipRingSystem*>(this)->supervisor();
}

sim::NodeId SkipRingSystem::add_subscriber() {
  return net_.spawn<SubscriberNode>(supervisor_id_);
}

std::vector<sim::NodeId> SkipRingSystem::add_subscribers(std::size_t count) {
  std::vector<sim::NodeId> ids;
  ids.reserve(count);
  for (std::size_t i = 0; i < count; ++i) ids.push_back(add_subscriber());
  return ids;
}

SubscriberProtocol& SkipRingSystem::subscriber(sim::NodeId id) {
  return net_.node_as<SubscriberNode>(id).protocol();
}

const SubscriberProtocol& SkipRingSystem::subscriber(sim::NodeId id) const {
  return const_cast<SkipRingSystem*>(this)->subscriber(id);
}

std::vector<sim::NodeId> SkipRingSystem::subscriber_ids() const {
  std::vector<sim::NodeId> out;
  for (sim::NodeId id : net_.alive_ids()) {
    if (id != supervisor_id_) out.push_back(id);
  }
  return out;
}

std::vector<sim::NodeId> SkipRingSystem::active_ids() const {
  std::vector<sim::NodeId> out;
  for (sim::NodeId id : subscriber_ids()) {
    if (subscriber(id).phase() == SubscriberPhase::kActive) out.push_back(id);
  }
  return out;
}

void SkipRingSystem::request_unsubscribe(sim::NodeId id) {
  subscriber(id).request_unsubscribe();
}

void SkipRingSystem::crash(sim::NodeId id) { net_.crash(id); }

bool SkipRingSystem::recover_subscriber(sim::NodeId id) {
  return net_.recover(id, std::make_unique<SubscriberNode>(supervisor_id_));
}

std::optional<std::size_t> SkipRingSystem::run_until_legit(std::size_t max_rounds) {
  return net_.run_until([this] { return topology_legit(); }, max_rounds);
}

bool SkipRingSystem::topology_legit() const { return probe_legit(); }

std::size_t SkipRingSystem::nonconforming_count() const {
  probe_legit();  // refresh the conformance cache
  if (!probe_.db_ok) {
    // Database-level failure: no per-node attribution exists. Count every
    // alive subscriber (population minus the supervisor).
    const std::size_t alive = net_.alive_count();
    return alive > 0 ? alive - 1 : 0;
  }
  return probe_.nonconforming;
}

// ---------------------------------------------------------------------------
// Incremental legitimacy probe
//
// Layered caching, each layer keyed by a cheap monotone epoch:
//   - database layer: consistency, liveness of values, and the flat
//     label-index -> node assignment revalidate only when the supervisor's
//     db_version() or the network topology epoch (slot count, alive count)
//     moved;
//   - node layer: each subscriber's conformance to the cached SkipRingSpec
//     re-verifies only when its state_version() moved (or the database
//     layer was rebuilt under it);
//   - the probe answer itself is the live nonconforming count plus an O(1)
//     size compare, so the steady-state query costs one version sweep.
// The exhaustive reference checker below stays the semantic ground truth;
// tests/core/probe_differential_test.cpp pins the equivalence round by
// round under chaos, scramble and churn.
// ---------------------------------------------------------------------------

bool SkipRingSystem::revalidate_database() const {
  const SupervisorProtocol& sup = supervisor();
  probe_.by_index.clear();
  if (!sup.database_consistent()) return false;
  const auto& db = sup.database();
  const std::size_t n = db.size();
  probe_.by_index.assign(n, sim::NodeId::null());
  for (const auto& [label, node] : db) {
    if (!net_.alive(node) || node == supervisor_id_) return false;
    // Consistency guarantees the labels are exactly {l(0) ... l(n-1)}.
    probe_.by_index[label.to_index()] = node;
  }
  const std::size_t spec_n = n == 0 ? 1 : n;
  if (!spec_cache_ || spec_cache_->n() != spec_n) {
    spec_cache_ = std::make_unique<SkipRingSpec>(spec_n);
  }
  return true;
}

bool SkipRingSystem::node_conforms(sim::NodeId id, const SubscriberProtocol& sub,
                                   std::ostream* why) const {
  const std::optional<Label> assigned = supervisor().label_of(id);
  if (!assigned) {
    if (why) *why << "node " << id.value << " not recorded";
    return false;
  }
  if (!sub.label() || !(*sub.label() == *assigned)) {
    if (why) {
      *why << "node " << id.value << " label "
           << (sub.label() ? sub.label()->to_string() : "⊥") << " != db "
           << assigned->to_string();
    }
    return false;
  }
  // The flat assignment makes every neighbor resolution O(1), so one node
  // re-checks in O(log n) label compares total.
  auto node_of = [&](const Label& l) { return probe_.by_index[l.to_index()]; };
  auto slot_ok = [&](const char* what, const std::optional<LabeledRef>& got,
                     const std::optional<Label>& want) {
    if (want.has_value() != got.has_value()) {
      if (why) {
        *why << "node " << id.value << ": " << what
             << (want ? " missing" : " spurious");
      }
      return false;
    }
    if (want && !(got->label == *want && got->node == node_of(*want))) {
      if (why) {
        *why << "node " << id.value << ": " << what << " mismatch (have "
             << got->label.to_string() << "@" << got->node.value << ", want "
             << want->to_string() << "@" << node_of(*want).value << ")";
      }
      return false;
    }
    return true;
  };
  const NodeSpec& ns = spec_cache_->expected(*assigned);
  if (!slot_ok("left", sub.left(), ns.left)) return false;
  if (!slot_ok("right", sub.right(), ns.right)) return false;
  if (!slot_ok("ring", sub.ring(), ns.ring)) return false;

  const ShortcutTable& sc = sub.shortcuts();
  if (sc.size() != ns.shortcuts.size()) {
    if (why) {
      *why << "node " << id.value << " has " << sc.size()
           << " shortcut labels, want " << ns.shortcuts.size();
    }
    return false;
  }
  // Both sides are sorted by label (the table by construction, the spec's
  // expectation by r — identical orders on canonical labels), so the set
  // comparison is one lockstep walk; any junk key breaks the first compare.
  for (std::size_t i = 0; i < ns.shortcuts.size(); ++i) {
    const auto& [have, node] = sc.entry(i);
    const Label& want = ns.shortcuts[i];
    if (!(have == want)) {
      if (why) {
        *why << "node " << id.value << " missing shortcut label "
             << want.to_string();
      }
      return false;
    }
    if (node != node_of(want)) {
      if (why) {
        *why << "node " << id.value << " shortcut " << want.to_string()
             << " points to wrong node";
      }
      return false;
    }
  }
  return true;
}

bool SkipRingSystem::probe_legit() const {
  const SupervisorProtocol& sup = supervisor();
  const std::uint64_t dbv = sup.db_version();
  const std::size_t slots = net_.slot_count();
  const std::size_t alive = net_.alive_count();
  if (!probe_.db_checked || probe_.db_version != dbv ||
      probe_.slots_seen != slots || probe_.alive_seen != alive) {
    probe_.db_version = dbv;
    probe_.slots_seen = slots;
    probe_.alive_seen = alive;
    probe_.db_ok = revalidate_database();
    probe_.db_checked = true;
    // The assignment every cached conformance was judged against moved.
    probe_.nodes_valid = false;
  }
  if (!probe_.db_ok) return false;

  if (!probe_.nodes_valid) {
    probe_.nodes.assign(slots, ProbeState::Entry{});
    probe_.active_count = 0;
    probe_.nonconforming = 0;
    probe_.nodes_valid = true;
  }
  net_.for_each_alive([&](sim::NodeId id, const sim::Node& node) {
    if (id == supervisor_id_) return;
    SSPS_ASSERT(SubscriberNode::classof(node.kind()));
    const SubscriberProtocol& sub =
        static_cast<const SubscriberNode&>(node).protocol();
    ProbeState::Entry& e = probe_.nodes[static_cast<std::size_t>(id.value - 1)];
    const std::uint64_t version = sub.state_version();
    if (e.version == version) return;  // unchanged since its last check
    if (e.version != 0) {
      probe_.active_count -= e.active ? 1 : 0;
      probe_.nonconforming -= e.conforms ? 0 : 1;
    }
    e.version = version;
    e.active = sub.phase() == SubscriberPhase::kActive;
    // An active node must match its database slot and the spec; a leaving
    // or departed (but alive) node must have left the database.
    e.conforms = e.active ? node_conforms(id, sub, nullptr)
                          : !supervisor().label_of(id).has_value();
    probe_.active_count += e.active ? 1 : 0;
    probe_.nonconforming += e.conforms ? 0 : 1;
  });
  return probe_.nonconforming == 0 && probe_.active_count == sup.size();
}

std::string SkipRingSystem::legitimacy_violation() const {
  return topology_legit() ? std::string() : legitimacy_violation_full();
}

std::string SkipRingSystem::legitimacy_violation_full() const {
  std::ostringstream why;
  const auto active = active_ids();
  const std::size_t n = active.size();
  const auto& db = supervisor().database();

  // 1. Database: consistent and covering exactly the active subscribers.
  if (!supervisor().database_consistent()) return "database corrupted";
  if (db.size() != n) {
    why << "database size " << db.size() << " != active " << n;
    return why.str();
  }
  std::unordered_map<sim::NodeId, Label> assignment;
  for (const auto& [label, node] : db) {
    if (!net_.alive(node) || node == supervisor_id_) {
      why << "database references dead node " << node.value;
      return why.str();
    }
    if (subscriber(node).phase() != SubscriberPhase::kActive) {
      why << "database references non-active node " << node.value;
      return why.str();
    }
    assignment.emplace(node, label);
  }
  if (assignment.size() != n) return "database misses an active subscriber";

  // 2. Every subscriber state matches the SR(n) spec under the database's
  // label assignment.
  const std::size_t spec_n = n == 0 ? 1 : n;
  if (!spec_cache_ || spec_cache_->n() != spec_n) {
    spec_cache_ = std::make_unique<SkipRingSpec>(spec_n);
  }
  const SkipRingSpec& spec = *spec_cache_;
  auto ref_of = [&](const Label& l) -> LabeledRef {
    return LabeledRef{l, db.at(l)};
  };
  auto check_slot = [&](const char* what, sim::NodeId who,
                        const std::optional<LabeledRef>& got,
                        const std::optional<Label>& want) -> bool {
    if (want.has_value() != got.has_value()) {
      why << "node " << who.value << ": " << what << (want ? " missing" : " spurious");
      return false;
    }
    if (want && !(got->label == *want && got->node == ref_of(*want).node)) {
      why << "node " << who.value << ": " << what << " mismatch (have "
          << got->label.to_string() << "@" << got->node.value << ", want "
          << want->to_string() << "@" << ref_of(*want).node.value << ")";
      return false;
    }
    return true;
  };

  for (sim::NodeId id : active) {
    const SubscriberProtocol& sub = subscriber(id);
    auto it = assignment.find(id);
    if (it == assignment.end()) {
      why << "node " << id.value << " not recorded";
      return why.str();
    }
    if (!sub.label() || !(*sub.label() == it->second)) {
      why << "node " << id.value << " label "
          << (sub.label() ? sub.label()->to_string() : "⊥") << " != db "
          << it->second.to_string();
      return why.str();
    }
    const NodeSpec& ns = spec.expected(it->second);
    if (!check_slot("left", id, sub.left(), ns.left)) return why.str();
    if (!check_slot("right", id, sub.right(), ns.right)) return why.str();
    if (!check_slot("ring", id, sub.ring(), ns.ring)) return why.str();

    const auto& sc = sub.shortcuts();
    if (sc.size() != ns.shortcuts.size()) {
      why << "node " << id.value << " has " << sc.size() << " shortcut labels, want "
          << ns.shortcuts.size();
      return why.str();
    }
    for (const Label& l : ns.shortcuts) {
      auto jt = sc.find(l);
      if (jt == sc.end()) {
        why << "node " << id.value << " missing shortcut label " << l.to_string();
        return why.str();
      }
      if (jt->second != ref_of(l).node) {
        why << "node " << id.value << " shortcut " << l.to_string()
            << " points to wrong node";
        return why.str();
      }
    }
  }
  return "";
}

}  // namespace ssps::core
