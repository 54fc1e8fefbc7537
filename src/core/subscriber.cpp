#include "core/subscriber.hpp"

#include <algorithm>

#include "core/shortcuts.hpp"

namespace ssps::core {

namespace {

/// Probability denominator of action (ii): request a configuration with
/// probability 1/(2^k · k²) where k = |label| (§3.2.1, Theorem 5).
/// Saturates for very long (necessarily corrupted) labels, for which the
/// probability is negligible anyway — those nodes are reached via actions
/// (iii)/(iv) instead, exactly the situation §3.2.1 discusses.
std::uint64_t action2_denominator(int k) {
  SSPS_ASSERT(k >= 1 && k <= Label::kMaxLen);
  if (k >= 50) return ~0ULL;
  const auto kk = static_cast<std::uint64_t>(k);
  return (1ULL << k) * kk * kk;
}

}  // namespace

SubscriberProtocol::SubscriberProtocol(sim::NodeId self, sim::NodeId supervisor,
                                       MessageSink& sink, ssps::Rng& rng)
    : self_(self), supervisor_(supervisor), sink_(&sink), rng_(&rng) {}

LabeledRef SubscriberProtocol::self_ref() const {
  SSPS_ASSERT(label_.has_value());
  return LabeledRef{*label_, self_};
}

// ---------------------------------------------------------------------------
// Timeout (Algorithm 4 + the Timeout parts of Algorithms 1–2)
// ---------------------------------------------------------------------------

void SubscriberProtocol::timeout() {
  if (phase_ == SubscriberPhase::kDeparted) return;

  // Supervisor contact (§3.2.1 / §4.1).
  if (phase_ == SubscriberPhase::kLeaving) {
    // Keep asking until the supervisor grants permission (SetData ⊥⊥⊥).
    sink_->emit<msg::Unsubscribe>(supervisor_, self_);
  } else if (!label_) {
    // Action (i): not yet labeled — subscribe.
    sink_->emit<msg::Subscribe>(supervisor_, self_);
  } else if (!left_) {
    // Action (iv): local information says our label may be minimal.
    if (rng_->chance(1, 2)) {
      sink_->emit<msg::GetConfiguration>(supervisor_, self_);
    }
  } else {
    // Action (ii): probabilistic refresh, rarer for longer labels.
    if (rng_->chance(1, action2_denominator(label_->length()))) {
      sink_->emit<msg::GetConfiguration>(supervisor_, self_);
    }
  }

  if (!label_) return;
  revalidate_sides();

  // BuildList self-introduction with label correction (Algorithm 1).
  const LabeledRef self = self_ref();
  if (left_) {
    sink_->emit<msg::Check>(left_->node, self, left_->label, IntroFlag::kLinear);
  }
  if (right_) {
    sink_->emit<msg::Check>(right_->node, self, right_->label, IntroFlag::kLinear);
  }

  // Ring-closure maintenance (Algorithm 2).
  if (left_ && right_ && ring_) {
    // An interior node must not hold a ring edge: re-linearize it.
    const LabeledRef stray = *ring_;
    ring_.reset();
    touch();
    consider_linear(stray);
  }
  if ((!left_ || !right_) && ring_) {
    send_check(*ring_, IntroFlag::kCyclic);
  }
  if (!left_ && !ring_ && right_) {
    // We believe we are the minimum but know no maximum: float our
    // reference towards the maximum along the right chain.
    sink_->emit<msg::Introduce>(right_->node, self_ref(), IntroFlag::kCyclic);
  }
  if (!right_ && !ring_ && left_) {
    sink_->emit<msg::Introduce>(left_->node, self_ref(), IntroFlag::kCyclic);
  }

  // Shortcut maintenance (§3.2.2).
  refresh_shortcuts();
  introduce_level_partners();
}

void SubscriberProtocol::send_check(const LabeledRef& to, IntroFlag flag) {
  sink_->emit<msg::Check>(to.node, self_ref(), to.label, flag);
}

// ---------------------------------------------------------------------------
// Message dispatch
// ---------------------------------------------------------------------------

bool SubscriberProtocol::handle(const sim::Message& m) {
  // Ordered by steady-state traffic mix: the periodic maintenance load is
  // almost entirely Check + IntroduceShortcut pairs.
  if (const auto* c = sim::msg_cast<msg::Check>(m)) {
    on_check(*c);
    return true;
  }
  if (const auto* is = sim::msg_cast<msg::IntroduceShortcut>(m)) {
    on_introduce_shortcut(*is);
    return true;
  }
  if (const auto* i = sim::msg_cast<msg::Introduce>(m)) {
    on_introduce(*i);
    return true;
  }
  if (const auto* s = sim::msg_cast<msg::SetData>(m)) {
    on_set_data(*s);
    return true;
  }
  if (const auto* rc = sim::msg_cast<msg::RemoveConnections>(m)) {
    purge(rc->who);
    return true;
  }
  return false;
}

void SubscriberProtocol::request_unsubscribe() {
  if (phase_ != SubscriberPhase::kActive) return;
  phase_ = SubscriberPhase::kLeaving;
  touch();
  sink_->emit<msg::Unsubscribe>(supervisor_, self_);
}

// ---------------------------------------------------------------------------
// Handlers
// ---------------------------------------------------------------------------

void SubscriberProtocol::on_check(const msg::Check& m) {
  if (m.sender.node == self_) return;
  if (phase_ == SubscriberPhase::kDeparted || !label_) {
    // Lemma 6: a label-less node asks introducers to drop it.
    sink_->emit<msg::RemoveConnections>(m.sender.node, self_);
    return;
  }
  if (m.believed != *label_) {
    // Label correction (extended BuildRing, Lemma 4): tell the sender our
    // true label. The sender keeps its reference to us, so no edge is lost.
    sink_->emit<msg::Introduce>(m.sender.node, self_ref(), m.flag);
    return;
  }
  consider(m.sender, m.flag);
}

void SubscriberProtocol::on_introduce(const msg::Introduce& m) {
  consider(m.cand, m.flag);
}

void SubscriberProtocol::on_introduce_shortcut(const msg::IntroduceShortcut& m) {
  if (m.cand.node == self_) return;
  if (phase_ == SubscriberPhase::kDeparted || !label_) {
    sink_->emit<msg::RemoveConnections>(m.cand.node, self_);
    return;
  }
  if (sim::NodeId* slot = shortcuts_.slot(m.cand.label)) {
    // Expected label: adopt, re-linearizing any displaced reference
    // (Algorithm 4, IntroduceShortcut). The steady-state common case is a
    // re-introduction of the node already stored — no state change.
    const sim::NodeId old = *slot;
    if (old != m.cand.node) {
      *slot = m.cand.node;
      touch();
      if (old) consider_linear(LabeledRef{m.cand.label, old});
    }
    return;
  }
  // Unexpected label: the candidate still is a real node — linearize it.
  consider(m.cand, IntroFlag::kLinear);
}

void SubscriberProtocol::on_set_data(const msg::SetData& m) {
  if (!m.label) {
    // Eviction: unknown to the supervisor, or unsubscribe permission.
    if (phase_ == SubscriberPhase::kLeaving) phase_ = SubscriberPhase::kDeparted;
    label_.reset();
    left_.reset();
    right_.reset();
    ring_.reset();
    shortcuts_.clear();
    derived_.valid = false;
    touch();
    return;
  }
  if (phase_ == SubscriberPhase::kDeparted) {
    // A stale Subscribe of ours (channels are non-FIFO) may have been
    // processed after our departure, re-inserting us into the database.
    // Answer every re-integration attempt with a fresh Unsubscribe so the
    // supervisor forgets us again (the departed counterpart of Lemma 6).
    sink_->emit<msg::Unsubscribe>(supervisor_, self_);
    return;
  }

  // Action (iii) of §3.2.1: if a currently stored neighbor is at least as
  // close as the proposed one (and differs from it), it may be a node the
  // supervisor does not know yet — request its configuration.
  const Dyadic me = m.label->r();
  auto closer_unknown = [&](const std::optional<LabeledRef>& stored,
                            const std::optional<LabeledRef>& proposed) {
    if (!stored || stored->node == self_) return;
    if (proposed && proposed->node == stored->node) return;
    if (!proposed ||
        !(ring_distance(proposed->label.r(), me) < ring_distance(stored->label.r(), me))) {
      sink_->emit<msg::GetConfiguration>(supervisor_, stored->node, self_);
    }
  };
  // Match each local slot with the proposal on its side of the new label.
  // pred normally sits left of us; if it sits right, we are the minimum
  // and pred is the wraparound partner (the maximum) — symmetrically for
  // succ.
  const std::uint64_t me_key = m.label->r_key();
  std::optional<LabeledRef> prop_left;
  std::optional<LabeledRef> prop_right;
  std::optional<LabeledRef> prop_ring;
  if (m.pred && m.pred->label.r_key() != me_key) {
    (m.pred->label.r_key() < me_key ? prop_left : prop_ring) = m.pred;
  }
  if (m.succ && m.succ->label.r_key() != me_key) {
    (m.succ->label.r_key() > me_key ? prop_right : prop_ring) = m.succ;
  }
  closer_unknown(left_, prop_left);
  closer_unknown(right_, prop_right);
  closer_unknown(ring_, prop_ring);

  // Adopt the authoritative label, then merge the proposed neighbors
  // (trusted: a configuration comes from the supervisor's database).
  if (!label_ || !(*label_ == *m.label)) {
    label_ = *m.label;
    touch();
  }
  revalidate_sides();
  if (prop_left && prop_left->node != self_) consider_linear(*prop_left, /*trusted=*/true);
  if (prop_right && prop_right->node != self_) {
    consider_linear(*prop_right, /*trusted=*/true);
  }
  if (prop_ring && prop_ring->node != self_) consider_cyclic(*prop_ring, /*trusted=*/true);
}

// ---------------------------------------------------------------------------
// Linearization core
// ---------------------------------------------------------------------------

void SubscriberProtocol::consider(const LabeledRef& c, IntroFlag flag) {
  if (!c.node || c.node == self_) return;
  if (phase_ == SubscriberPhase::kDeparted || !label_) {
    sink_->emit<msg::RemoveConnections>(c.node, self_);
    return;
  }
  // Stale-label update for already-stored direct neighbors (Algorithm 1,
  // the labelv ≠ u.left case): correct the label, then re-home the entry.
  // The steady-state common case — candidate already stored under its
  // current label — changes nothing, so the side revalidation (a pure
  // recheck) only runs when a label was actually corrected.
  bool matched = false;
  bool corrected = false;
  for (auto* slot : {&left_, &right_, &ring_}) {
    if (*slot && (*slot)->node == c.node) {
      if ((*slot)->label != c.label) {
        (*slot)->label = c.label;
        touch();
        corrected = true;
      }
      matched = true;
    }
  }
  if (matched) {
    if (corrected) revalidate_sides();
    return;
  }
  if (c.label.r_key() == label_->r_key()) {
    conflict(c);
    return;
  }
  if (flag == IntroFlag::kCyclic) {
    consider_cyclic(c);
  } else {
    consider_linear(c);
  }
}

void SubscriberProtocol::conflict(const LabeledRef& c) {
  // Two distinct nodes claim the same position. The supervisor's database
  // is the authority (§3.1); ask it to straighten the other node out, and
  // to re-send our own configuration (whose merge resolves the conflict
  // on our side, trusted).
  sink_->emit<msg::GetConfiguration>(supervisor_, c.node, self_);
  sink_->emit<msg::GetConfiguration>(supervisor_, self_);
}

void SubscriberProtocol::consider_linear(const LabeledRef& c, bool trusted) {
  if (!c.node || c.node == self_ || !label_) return;
  // Positions compare via r_key(), the shift-only order-embedding of r().
  const std::uint64_t me = label_->r_key();
  const std::uint64_t pos = c.label.r_key();
  if (pos == me) {
    conflict(c);
    return;
  }
  auto place = [&](std::optional<LabeledRef>& slot, bool is_left) {
    if (!slot) {
      slot = c;
      touch();
      return;
    }
    if (slot->node == c.node) {
      if (slot->label != c.label) {
        slot->label = c.label;
        touch();
      }
      revalidate_sides();
      return;
    }
    const std::uint64_t cur = slot->label.r_key();
    if (pos == cur) {
      if (trusted) {
        // The supervisor vouches for c; the incumbent may be crashed and
        // silent. Adopt c and let the supervisor deal with the incumbent.
        const LabeledRef old = *slot;
        slot = c;
        touch();
        sink_->emit<msg::GetConfiguration>(supervisor_, old.node, self_);
      } else {
        conflict(c);
      }
      return;
    }
    const bool closer = is_left ? (pos > cur) : (pos < cur);
    if (closer) {
      // Adopt c; delegate the displaced (farther) neighbor to c, which
      // lies between it and us.
      const LabeledRef displaced = *slot;
      slot = c;
      touch();
      sink_->emit<msg::Introduce>(c.node, displaced, IntroFlag::kLinear);
    } else {
      // c is farther out: delegate it towards that side.
      sink_->emit<msg::Introduce>(slot->node, c, IntroFlag::kLinear);
    }
  };
  if (pos < me) {
    place(left_, /*is_left=*/true);
  } else {
    place(right_, /*is_left=*/false);
  }
}

void SubscriberProtocol::consider_cyclic(const LabeledRef& c, bool trusted) {
  if (!c.node || c.node == self_ || !label_) return;
  const std::uint64_t me = label_->r_key();
  const std::uint64_t pos = c.label.r_key();
  if (pos == me) {
    conflict(c);
    return;
  }
  const bool candidate_is_smaller = pos < me;
  // Extremum holders adopt the best partner; interior nodes route the
  // candidate onwards (Algorithm 2): smaller-labelled candidates travel
  // right (towards the maximum), larger ones left (towards the minimum).
  const bool i_am_max = !right_;
  const bool i_am_min = !left_;
  auto adopt_extreme = [&](bool keep_smaller) {
    if (!ring_) {
      ring_ = c;
      touch();
      return;
    }
    if (ring_->node == c.node) {
      if (ring_->label != c.label) {
        ring_->label = c.label;
        touch();
      }
      revalidate_sides();
      return;
    }
    if (pos == ring_->label.r_key()) {
      if (trusted) {
        const LabeledRef old = *ring_;
        ring_ = c;
        touch();
        sink_->emit<msg::GetConfiguration>(supervisor_, old.node, self_);
      } else {
        conflict(c);
      }
      return;
    }
    const bool better =
        keep_smaller ? (pos < ring_->label.r_key()) : (pos > ring_->label.r_key());
    if (better) {
      // Better extremum partner: keep it, re-linearize the loser.
      const LabeledRef loser = *ring_;
      ring_ = c;
      touch();
      consider_linear(loser);
    } else {
      consider_linear(c);
    }
  };
  if (candidate_is_smaller && i_am_max) {
    adopt_extreme(/*keep_smaller=*/true);
    return;
  }
  if (!candidate_is_smaller && i_am_min) {
    adopt_extreme(/*keep_smaller=*/false);
    return;
  }
  // Interior (w.r.t. this candidate's direction): route towards the
  // extremum the candidate is looking for.
  if (candidate_is_smaller && right_) {
    sink_->emit<msg::Introduce>(right_->node, c, IntroFlag::kCyclic);
    return;
  }
  if (!candidate_is_smaller && left_) {
    sink_->emit<msg::Introduce>(left_->node, c, IntroFlag::kCyclic);
    return;
  }
  // No suitable chain to route along: fall back to linearization so the
  // reference is never dropped.
  consider_linear(c);
}

void SubscriberProtocol::revalidate_sides() {
  if (!label_) return;
  bool changed = false;
  // Self-references are meaningless edges and — because a node ignores
  // introductions from itself — would never be corrected: drop them
  // outright (they only arise in corrupted initial states).
  for (auto* slot : {&left_, &right_, &ring_}) {
    if (*slot && (*slot)->node == self_) {
      slot->reset();
      changed = true;
    }
  }
  const std::uint64_t me = label_->r_key();
  // Pop any neighbor that sits on the wrong side of our (possibly new)
  // label and feed it back through placement. Each entry is re-homed at
  // most once per call, so this terminates.
  std::vector<LabeledRef> rehome;
  if (left_ && !(left_->label.r_key() < me)) {
    rehome.push_back(*left_);
    left_.reset();
    changed = true;
  }
  if (right_ && !(right_->label.r_key() > me)) {
    rehome.push_back(*right_);
    right_.reset();
    changed = true;
  }
  if (ring_) {
    const bool valid_for_min = !left_ && ring_->label.r_key() > me;
    const bool valid_for_max = !right_ && ring_->label.r_key() < me;
    if (!(valid_for_min || valid_for_max)) {
      rehome.push_back(*ring_);
      ring_.reset();
      changed = true;
    }
  }
  if (changed) touch();
  for (const LabeledRef& c : rehome) {
    if (c.label.r_key() == me) {
      conflict(c);
    } else {
      consider_linear(c);
    }
  }
}

void SubscriberProtocol::purge(sim::NodeId who) {
  bool changed = false;
  for (auto* slot : {&left_, &right_, &ring_}) {
    if (*slot && (*slot)->node == who) {
      slot->reset();
      changed = true;
    }
  }
  for (auto& [lab, node] : shortcuts_) {
    if (node == who) {
      node = sim::NodeId::null();
      changed = true;
    }
  }
  if (changed) touch();
}

// ---------------------------------------------------------------------------
// Shortcut maintenance (§3.2.2)
// ---------------------------------------------------------------------------

std::optional<LabeledRef> SubscriberProtocol::side_source_ref(bool left_side) const {
  if (!label_) return std::nullopt;
  const std::uint64_t me = label_->r_key();
  if (left_side) {
    if (left_) return left_;
    if (ring_ && ring_->label.r_key() > me) return ring_;  // min: predecessor = max
    return std::nullopt;
  }
  if (right_) return right_;
  if (ring_ && ring_->label.r_key() < me) return ring_;  // max: successor = min
  return std::nullopt;
}

std::optional<Label> SubscriberProtocol::side_source_label(bool left_side) const {
  // Mirrors side_source_ref without materializing the 40-byte LabeledRef
  // optional — this runs several times per Timeout.
  if (!label_) return std::nullopt;
  if (left_side) {
    if (left_) return left_->label;
    if (ring_ && ring_->label.r_key() > label_->r_key()) return ring_->label;
    return std::nullopt;
  }
  if (right_) return right_->label;
  if (ring_ && ring_->label.r_key() < label_->r_key()) return ring_->label;
  return std::nullopt;
}

bool SubscriberProtocol::ensure_derived_cache() const {
  SSPS_ASSERT(label_.has_value());
  const std::optional<Label> left_src = side_source_label(true);
  const std::optional<Label> right_src = side_source_label(false);
  if (derived_.valid && derived_.self == *label_ && derived_.left == left_src &&
      derived_.right == right_src) {
    return false;  // cache hit: the derived labels are unchanged
  }
  derived_.self = *label_;
  derived_.left = left_src;
  derived_.right = right_src;
  derived_.expected = expected_shortcut_labels(*label_, left_src, right_src);
  derived_.partner_left =
      left_src ? std::optional<Label>(level_k_partner(*label_, *left_src))
               : std::nullopt;
  derived_.partner_right =
      right_src ? std::optional<Label>(level_k_partner(*label_, *right_src))
                : std::nullopt;
  auto index_of = [&](const std::optional<Label>& partner) -> std::int32_t {
    if (!partner) return -1;
    const auto it = std::lower_bound(derived_.expected.begin(),
                                     derived_.expected.end(), *partner);
    if (it == derived_.expected.end() || !(*it == *partner)) return -1;
    return static_cast<std::int32_t>(it - derived_.expected.begin());
  };
  derived_.partner_index_left = index_of(derived_.partner_left);
  derived_.partner_index_right = index_of(derived_.partner_right);
  derived_.valid = true;
  derived_.table_synced = false;
  return true;
}

void SubscriberProtocol::refresh_shortcuts() {
  if (!label_) {
    if (!shortcuts_.empty()) {
      shortcuts_.clear();
      touch();
    }
    derived_.valid = false;
    return;
  }
  // In a converged system the label and both neighbor labels are stable,
  // so this is one cache-key compare per Timeout — no allocation, no
  // mirror arithmetic, no table rebuild.
  ensure_derived_cache();
  if (derived_.table_synced) return;

  // Expected labels changed (or chaos touched the table): rebuild the
  // table against the cached expectation, keeping known references.
  std::vector<ShortcutTable::value_type> next;
  next.reserve(derived_.expected.size());
  for (const Label& l : derived_.expected) {
    auto it = shortcuts_.find(l);
    const sim::NodeId kept =
        (it == shortcuts_.end() || it->second == self_) ? sim::NodeId::null()
                                                        : it->second;
    next.emplace_back(l, kept);
  }
  // Evicted references re-enter the sorted ring instead of being dropped.
  std::vector<LabeledRef> evicted;
  for (const auto& [lab, node] : shortcuts_) {
    if (node && !std::binary_search(derived_.expected.begin(),
                                    derived_.expected.end(), lab)) {
      evicted.push_back(LabeledRef{lab, node});
    }
  }
  shortcuts_.assign_sorted(std::move(next));
  derived_.table_synced = true;
  touch();
  // Re-linearize evictions last: they can touch left_/right_ and thereby
  // stale the cache again; the next Timeout's key compare catches that.
  for (const LabeledRef& c : evicted) consider(c, IntroFlag::kLinear);
}

std::optional<LabeledRef> SubscriberProtocol::partner_ref(bool left_side) const {
  const auto src = side_source_ref(left_side);
  if (!src || !label_) return std::nullopt;
  // Caller guarantees a fresh derived cache (see introduce_level_partners).
  const std::optional<Label>& partner =
      left_side ? derived_.partner_left : derived_.partner_right;
  if (!partner) return std::nullopt;
  if (*partner == src->label) return src;  // chain empty: partner is the neighbor
  const std::int32_t index =
      left_side ? derived_.partner_index_left : derived_.partner_index_right;
  sim::NodeId node;
  if (derived_.table_synced && index >= 0) {
    // Table keys match `expected`, so the cached sorted position resolves
    // the partner without a search.
    node = shortcuts_.entry(static_cast<std::size_t>(index)).second;
  } else {
    auto it = shortcuts_.find(*partner);
    if (it == shortcuts_.end()) return std::nullopt;
    node = it->second;
  }
  if (!node) return std::nullopt;
  return LabeledRef{*partner, node};
}

void SubscriberProtocol::introduce_level_partners() {
  if (!label_) return;
  // One cache refresh covers both sides; refresh_shortcuts usually just
  // validated it, but its eviction re-linearization may have moved a
  // side, so re-ensure before deriving the partner labels.
  ensure_derived_cache();
  const auto lp = partner_ref(true);
  const auto rp = partner_ref(false);
  if (!lp || !rp) return;
  if (lp->node == rp->node || lp->node == self_ || rp->node == self_) return;
  sink_->emit<msg::IntroduceShortcut>(lp->node, *rp);
  sink_->emit<msg::IntroduceShortcut>(rp->node, *lp);
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

std::vector<sim::NodeId> SubscriberProtocol::ring_neighbors() const {
  std::array<sim::NodeId, 3> buf;
  const std::size_t n = ring_neighbors_into(buf);
  return std::vector<sim::NodeId>(buf.begin(), buf.begin() + n);
}

std::size_t SubscriberProtocol::ring_neighbors_into(
    std::array<sim::NodeId, 3>& out) const {
  std::size_t n = 0;
  for (const auto* slot : {&left_, &right_, &ring_}) {
    if (*slot && (*slot)->node && (*slot)->node != self_) out[n++] = (*slot)->node;
  }
  std::sort(out.begin(), out.begin() + n);
  return static_cast<std::size_t>(std::unique(out.begin(), out.begin() + n) -
                                  out.begin());
}

std::vector<sim::NodeId> SubscriberProtocol::overlay_neighbors() const {
  std::vector<sim::NodeId> out = ring_neighbors();
  for (const auto& [lab, node] : shortcuts_) {
    if (node && node != self_) out.push_back(node);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void SubscriberProtocol::collect_refs(std::vector<sim::NodeId>& out) const {
  for (const auto* slot : {&left_, &right_, &ring_}) {
    if (*slot && (*slot)->node) out.push_back((*slot)->node);
  }
  for (const auto& [lab, node] : shortcuts_) {
    if (node) out.push_back(node);
  }
}

void SubscriberProtocol::encode_state(common::Encoder& enc) const {
  enc.u8(static_cast<std::uint8_t>(phase_));
  enc.optional(label_, encode_label);
  enc.optional(left_, encode_ref);
  enc.optional(right_, encode_ref);
  enc.optional(ring_, encode_ref);
  // The table is sorted by label, so pair order is already canonical.
  enc.u64(shortcuts_.size());
  for (const auto& [label, node] : shortcuts_) {
    encode_label(enc, label);
    enc.u64(node.value);
  }
}

bool SubscriberProtocol::decode_state(common::Decoder& dec) {
  std::uint8_t phase = 0;
  std::optional<Label> label;
  std::optional<LabeledRef> left, right, ring;
  if (!dec.u8(phase) || phase > 2) return false;
  if (!dec.optional(label, decode_label) || !dec.optional(left, decode_ref) ||
      !dec.optional(right, decode_ref) || !dec.optional(ring, decode_ref)) {
    return false;
  }
  std::uint64_t count = 0;
  if (!dec.u64(count)) return false;
  // Label (9 bytes) + node (8 bytes) per entry: bound the declared count
  // by the remaining input before reserving.
  if (count > dec.remaining() / 17) return false;
  std::vector<ShortcutTable::value_type> table;
  table.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    Label key;
    std::uint64_t node = 0;
    if (!decode_label(dec, key) || !dec.u64(node)) return false;
    // Canonical form: strictly ascending keys (the table's sort order).
    if (!table.empty() && !(table.back().first < key)) return false;
    table.emplace_back(key, sim::NodeId{node});
  }
  phase_ = static_cast<SubscriberPhase>(phase);
  label_ = label;
  left_ = left;
  right_ = right;
  ring_ = ring;
  shortcuts_.assign_sorted(std::move(table));
  derived_.valid = false;
  touch();
  return true;
}

void SubscriberProtocol::restore(const SubscriberProtocol& saved) {
  SSPS_ASSERT_MSG(saved.sink_ == sink_ && saved.rng_ == rng_,
                  "restore: saved state belongs to another instance");
  const std::uint64_t version = std::max(version_, saved.version_);
  *this = saved;
  version_ = version;
  touch();
}

}  // namespace ssps::core
