#include "core/supervisor.hpp"

#include <algorithm>

namespace ssps::core {

SupervisorProtocol::SupervisorProtocol(sim::NodeId self, MessageSink& sink)
    : self_(self), sink_(&sink) {}

// ---------------------------------------------------------------------------
// Reverse index upkeep
// ---------------------------------------------------------------------------

void SupervisorProtocol::index_add(sim::NodeId node, const Label& label) {
  if (!node) return;
  index_[node].push_back(label);
}

void SupervisorProtocol::index_remove(sim::NodeId node, const Label& label) {
  if (!node) return;
  auto it = index_.find(node);
  if (it == index_.end()) return;
  auto& labels = it->second;
  labels.erase(std::remove(labels.begin(), labels.end(), label), labels.end());
  if (labels.empty()) index_.erase(it);
}

// ---------------------------------------------------------------------------
// Timeout (Algorithm 3)
// ---------------------------------------------------------------------------

void SupervisorProtocol::timeout() {
  check_labels();
  if (db_.empty()) return;
  next_ = (next_ + 1) % db_.size();
  // After check_labels the keys are exactly {l(0) … l(n−1)}.
  auto it = db_.find(Label::from_index(next_));
  if (it == db_.end()) return;  // only reachable mid-repair with chaos active
  // GetConfiguration path, including the duplicate sweep (Alg. 3 line 5).
  on_get_configuration(it->second);
}

// ---------------------------------------------------------------------------
// Message dispatch
// ---------------------------------------------------------------------------

bool SupervisorProtocol::handle(const sim::Message& m) {
  if (const auto* s = sim::msg_cast<msg::Subscribe>(m)) {
    on_subscribe(s->who);
    return true;
  }
  if (const auto* u = sim::msg_cast<msg::Unsubscribe>(m)) {
    on_unsubscribe(u->who);
    return true;
  }
  if (const auto* g = sim::msg_cast<msg::GetConfiguration>(m)) {
    on_get_configuration(g->subject, g->requester);
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Database repair (§3.1)
// ---------------------------------------------------------------------------

void SupervisorProtocol::check_labels() {
  // §3.3: evict subscribers the failure detector reports as crashed. The
  // eviction punches holes that the relabeling below repairs in the same
  // sweep. Crashes are consumed from the detector's log exactly once
  // (cursor): each newly-visible crash costs one O(1) index lookup, and a
  // call with no news costs a bounds check — the database itself is only
  // re-swept on the dirty path below, where a dead node may have re-entered
  // through a stale Subscribe or chaos injection.
  if (fd_ != nullptr) {
    const std::size_t visible = fd_->visible_crash_count();
    if (crash_cursor_ > visible) {
      // The detector's delay was raised: crashes the cursor already
      // consumed are temporarily invisible again, and a tuple for such a
      // node can re-enter while it is unsuspected (stale Subscribe,
      // chaos injection) without marking the labels dirty. Rewind so
      // each of those crashes is consumed again when it becomes visible
      // — restoring the pre-cursor full sweep's eventual-eviction
      // guarantee under detector retuning. Re-consuming a crash whose
      // tuples are already gone is a no-op (evict() is idempotent), so
      // runs that never re-admit a dead node keep their exact traces.
      crash_cursor_ = visible;
    }
    for (; crash_cursor_ < visible; ++crash_cursor_) {
      const sim::NodeId gone = fd_->visible_crash(crash_cursor_);
      // A crash-log entry is history, not a death sentence: the node may
      // have been recovered (Network::recover) by the time its entry
      // becomes visible. suspects() is the authority — never true for
      // alive nodes — so a recovered subscriber's tuple survives.
      if (fd_->suspects(gone)) evict(gone);
    }
  }
  if (labels_clean_) return;

  if (fd_ != nullptr) {
    // Dirty re-sweep: tuples inserted for already-dead nodes since the
    // cursor passed them (their insertion marked the labels dirty).
    for (auto it = db_.begin(); it != db_.end();) {
      if (it->second && fd_->suspects(it->second)) {
        index_remove(it->second, it->first);
        it = db_.erase(it);
        ++db_version_;
      } else {
        ++it;
      }
    }
  }

  // Case (i): drop tuples without a subscriber.
  for (auto it = db_.begin(); it != db_.end();) {
    if (!it->second) {
      it = db_.erase(it);
      ++db_version_;
    } else {
      ++it;
    }
  }

  // Cases (iii)/(iv): the n remaining tuples must carry exactly the labels
  // l(0) … l(n−1). Wrongly-labeled tuples (non-canonical, or index ≥ n)
  // fill the missing indices; per Algorithm 3 the tuple with the largest
  // index moves to the smallest missing one.
  const std::size_t n = db_.size();
  std::vector<std::uint64_t> missing;
  std::vector<std::pair<Label, sim::NodeId>> wrong;  // to be relabeled
  for (const auto& [label, node] : db_) {
    if (!label.is_canonical() || label.to_index() >= n) wrong.emplace_back(label, node);
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    if (!db_.contains(Label::from_index(i))) missing.push_back(i);
  }
  SSPS_ASSERT(missing.size() == wrong.size());
  // Largest owned index first. Canonical labels order by index along r?
  // They do not — so order explicitly by index, with non-canonical labels
  // ranked above all canonical ones (they are "i ≥ n" junk either way).
  std::sort(wrong.begin(), wrong.end(), [](const auto& a, const auto& b) {
    const bool ca = a.first.is_canonical();
    const bool cb = b.first.is_canonical();
    if (ca != cb) return !ca && cb;  // non-canonical first (treated as largest)
    if (!ca) return b.first < a.first;
    return a.first.to_index() > b.first.to_index();
  });
  for (std::size_t j = 0; j < wrong.size(); ++j) {
    const auto& [old_label, node] = wrong[j];
    db_.erase(old_label);
    index_remove(node, old_label);
    const Label fresh = Label::from_index(missing[j]);
    db_.emplace(fresh, node);
    index_add(node, fresh);
    ++db_version_;
  }
  labels_clean_ = true;
}

void SupervisorProtocol::evict(sim::NodeId dead) {
  auto it = index_.find(dead);
  if (it == index_.end()) return;
  // Copy: index_remove edits the vector we would be iterating.
  const std::vector<Label> labels = it->second;
  for (const Label& label : labels) {
    db_.erase(label);
    index_remove(dead, label);
    ++db_version_;
  }
  labels_clean_ = false;  // the eviction punched label holes
}

void SupervisorProtocol::check_multiple_copies(sim::NodeId who) {
  auto it = index_.find(who);
  if (it == index_.end() || it->second.size() <= 1) return;
  // Keep the lowest label (§3.1 case (ii)), drop the rest.
  std::vector<Label> labels = it->second;
  std::sort(labels.begin(), labels.end());
  for (std::size_t i = 1; i < labels.size(); ++i) {
    db_.erase(labels[i]);
    index_remove(who, labels[i]);
    ++db_version_;
  }
  labels_clean_ = false;  // dropping tuples leaves label holes
  check_labels();
}

bool SupervisorProtocol::database_consistent() const {
  std::size_t i = 0;
  for (const auto& [label, node] : db_) {
    if (!node) return false;
    if (!label.is_canonical()) return false;
    auto it = index_.find(node);
    if (it == index_.end() || it->second.size() != 1) return false;
    ++i;
  }
  for (std::uint64_t j = 0; j < db_.size(); ++j) {
    if (!db_.contains(Label::from_index(j))) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Configuration handling
// ---------------------------------------------------------------------------

std::optional<LabeledRef> SupervisorProtocol::pred_of(const Label& label) const {
  if (db_.size() < 2) return std::nullopt;
  auto it = db_.find(label);
  SSPS_ASSERT(it != db_.end());
  auto pit = (it == db_.begin()) ? std::prev(db_.end()) : std::prev(it);
  return LabeledRef{pit->first, pit->second};
}

std::optional<LabeledRef> SupervisorProtocol::succ_of(const Label& label) const {
  if (db_.size() < 2) return std::nullopt;
  auto it = db_.find(label);
  SSPS_ASSERT(it != db_.end());
  auto sit = std::next(it);
  if (sit == db_.end()) sit = db_.begin();
  return LabeledRef{sit->first, sit->second};
}

void SupervisorProtocol::send_configuration(
    std::map<Label, sim::NodeId>::const_iterator it) {
  sink_->emit<msg::SetData>(it->second, pred_of(it->first), it->first,
                            succ_of(it->first));
}

void SupervisorProtocol::on_get_configuration(sim::NodeId subject,
                                              sim::NodeId requester) {
  if (!subject) return;
  // §3.3: the supervisor holds the system's only failure detector. A
  // request about a crashed node is answered by telling the requester to
  // purge it — otherwise a dead neighbor with a plausible stale label
  // could be referenced forever (messages to it invoke no action).
  if (fd_ != nullptr && fd_->suspects(subject)) {
    if (auto idx = index_.find(subject); idx != index_.end()) {
      labels_clean_ = false;  // eviction handled by the next repair sweep
      check_labels();
    }
    if (requester && requester != subject) {
      sink_->emit<msg::RemoveConnections>(requester, subject);
    }
    return;
  }
  check_multiple_copies(subject);
  auto idx = index_.find(subject);
  if (idx == index_.end()) {
    // Unknown node (Alg. 3 line 30): evict it; it will re-subscribe.
    sink_->emit<msg::SetData>(subject, std::nullopt, std::nullopt, std::nullopt);
    return;
  }
  SSPS_ASSERT(idx->second.size() == 1);
  send_configuration(db_.find(idx->second.front()));
}

void SupervisorProtocol::on_subscribe(sim::NodeId who) {
  if (!who) return;
  if (index_.contains(who)) {
    // Already recorded: just resend its configuration (Alg. 3 line 12).
    on_get_configuration(who);
    return;
  }
  check_labels();  // l(n) must be free before appending
  const Label label = Label::from_index(db_.size());
  db_.emplace(label, who);
  index_add(who, label);
  ++db_version_;
  if (fd_ != nullptr && fd_->suspects(who)) {
    // A stale Subscribe from an already-dead node: the crash-log cursor has
    // passed it, so flag the labels dirty — the next check_labels re-sweep
    // evicts it (the same round the old full sweep would have).
    labels_clean_ = false;
  }
  send_configuration(db_.find(label));
}

void SupervisorProtocol::on_unsubscribe(sim::NodeId who) {
  if (!who) return;
  check_multiple_copies(who);
  if (!index_.contains(who)) {
    // Not recorded (repeat request after removal): grant permission anyway
    // so the subscriber can shut down (idempotence).
    sink_->emit<msg::SetData>(who, std::nullopt, std::nullopt, std::nullopt);
    return;
  }
  // check_labels() may relabel `who` while repairing a corrupted database,
  // rewriting its index entry — or evict it outright when the failure
  // detector already suspects it (a crashed node whose Unsubscribe was
  // still queued). Look the labels up only afterwards; an evicted node
  // gets the idempotent permission reply.
  check_labels();
  auto idx = index_.find(who);
  if (idx == index_.end()) {
    sink_->emit<msg::SetData>(who, std::nullopt, std::nullopt, std::nullopt);
    return;
  }
  const Label leaving_label = idx->second.front();
  const std::size_t n = db_.size();
  const Label last = Label::from_index(n - 1);
  db_.erase(leaving_label);
  index_remove(who, leaving_label);
  ++db_version_;
  if (n > 1 && leaving_label != last) {
    // Move the highest-labeled subscriber into the hole (§4.1) and tell it
    // — the only other message this operation costs (Theorem 7).
    auto lit = db_.find(last);
    SSPS_ASSERT(lit != db_.end());
    const sim::NodeId w = lit->second;
    db_.erase(lit);
    index_remove(w, last);
    db_.emplace(leaving_label, w);
    index_add(w, leaving_label);
    ++db_version_;
    send_configuration(db_.find(leaving_label));
  }
  // Permission to depart (Lemma 6).
  sink_->emit<msg::SetData>(who, std::nullopt, std::nullopt, std::nullopt);
}

// ---------------------------------------------------------------------------
// Introspection / chaos
// ---------------------------------------------------------------------------

std::optional<Label> SupervisorProtocol::label_of(sim::NodeId node) const {
  auto it = index_.find(node);
  if (it == index_.end() || it->second.empty()) return std::nullopt;
  return it->second.front();
}

void SupervisorProtocol::collect_refs(std::vector<sim::NodeId>& out) const {
  for (const auto& [label, node] : db_) {
    if (node) out.push_back(node);
  }
}

void SupervisorProtocol::chaos_insert(const Label& label, sim::NodeId node) {
  auto existing = db_.find(label);
  if (existing != db_.end()) index_remove(existing->second, label);
  db_.insert_or_assign(label, node);
  index_add(node, label);
  labels_clean_ = false;
  ++db_version_;
}

void SupervisorProtocol::chaos_insert_null(const Label& label) {
  auto existing = db_.find(label);
  if (existing != db_.end()) index_remove(existing->second, label);
  db_.insert_or_assign(label, sim::NodeId::null());
  labels_clean_ = false;
  ++db_version_;
}

void SupervisorProtocol::chaos_clear() {
  db_.clear();
  index_.clear();
  labels_clean_ = false;
  ++db_version_;
}

void SupervisorProtocol::encode_state(common::Encoder& enc) const {
  // std::map iterates in label order — already canonical. The reverse
  // index is pure memoization of db_ and is not encoded.
  enc.u64(db_.size());
  for (const auto& [label, node] : db_) {
    encode_label(enc, label);
    enc.u64(node.value);
  }
  enc.u64(next_);
  enc.u8(labels_clean_ ? 1 : 0);
  enc.u64(crash_cursor_);
}

bool SupervisorProtocol::decode_state(common::Decoder& dec) {
  std::uint64_t count = 0;
  if (!dec.u64(count)) return false;
  // Each tuple costs at least 17 bytes (label = u64 bits + u8 len, node =
  // u64): bound the declared count by the remaining input before building
  // anything, so a corrupted count cannot balloon memory.
  if (count > dec.remaining() / 17) return false;
  std::map<Label, sim::NodeId> db;
  for (std::uint64_t i = 0; i < count; ++i) {
    Label label;
    std::uint64_t node = 0;
    if (!decode_label(dec, label) || !dec.u64(node)) return false;
    // Canonical form is std::map iteration order: strictly ascending keys.
    if (!db.empty() && !(db.rbegin()->first < label)) return false;
    db.emplace_hint(db.end(), label, sim::NodeId{node});
  }
  std::uint64_t next = 0;
  std::uint8_t clean = 0;
  std::uint64_t cursor = 0;
  if (!dec.u64(next) || !dec.u8(clean) || clean > 1 || !dec.u64(cursor)) {
    return false;
  }
  db_ = std::move(db);
  index_.clear();
  for (const auto& [label, node] : db_) index_add(node, label);
  next_ = next;
  // Stale-snapshot safety: whatever cleanliness the snapshot claimed,
  // force the full dirty re-sweep — subscribers may have crashed while
  // this supervisor was down, with their crash-log entries already
  // consumed by the pre-crash cursor. (A corrupted-huge cursor is clamped
  // by check_labels' rewind.)
  labels_clean_ = false;
  crash_cursor_ = static_cast<std::size_t>(cursor);
  ++db_version_;
  return true;
}

void SupervisorProtocol::restore(const SupervisorProtocol& saved) {
  SSPS_ASSERT_MSG(saved.sink_ == sink_ && saved.fd_ == fd_,
                  "restore: saved state belongs to another instance");
  const std::uint64_t version = std::max(db_version_, saved.db_version_);
  *this = saved;
  db_version_ = version + 1;
}

}  // namespace ssps::core
