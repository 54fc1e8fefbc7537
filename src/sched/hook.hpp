// HookScheduler: a transparent Scheduler wrapper that invokes a callback
// after every schedule unit of an inner scheduler.
//
// The multi-process deployment (src/proc) builds its round barrier on
// this seam: every process runs a full deterministic replica of the
// scenario, and the hook — firing at the unit boundary, after round_end
// but before Network::run_unit's snapshot/sample steps of the NEXT unit —
// is where a replica exchanges barrier frames, verifies relayed message
// bytes and applies lockstep restore events. Because the wrapper forwards
// every other virtual (unit shape, sampling, settle stride, metrics
// flush, held in-flight messages), installing it changes nothing about
// the execution the inner scheduler produces: same delivery order, same
// probe samples, same report bytes.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string_view>
#include <utility>

#include "sched/scheduler.hpp"

namespace ssps::sched {

class HookScheduler final : public Scheduler {
 public:
  /// Called after each completed unit with the 1-based count of units this
  /// wrapper has executed and the number of messages the unit delivered.
  using PostUnit =
      std::function<void(sim::Network& net, std::size_t unit, std::size_t delivered)>;

  HookScheduler(std::unique_ptr<Scheduler> inner, PostUnit post_unit)
      : inner_(std::move(inner)), post_unit_(std::move(post_unit)) {}

  std::size_t advance(sim::Network& net) override {
    const std::size_t delivered = inner_->advance(net);
    ++units_;
    if (post_unit_) post_unit_(net, units_, delivered);
    return delivered;
  }

  Unit unit() const override { return inner_->unit(); }
  void sample(sim::Network& net, std::size_t delivered) override {
    inner_->sample(net, delivered);
  }
  std::size_t settle_stride(const sim::Network& net) const override {
    return inner_->settle_stride(net);
  }
  void flush_metrics(sim::Network& net) override { inner_->flush_metrics(net); }
  void retire() override { inner_->retire(); }
  unsigned threads() const override { return inner_->threads(); }
  std::string_view name() const override { return inner_->name(); }
  std::size_t reserved_bytes() const override { return inner_->reserved_bytes(); }
  void for_each_held(const HeldVisitor& fn) const override { inner_->for_each_held(fn); }
  void drop_held_for(sim::Network& net, sim::NodeId to) override {
    inner_->drop_held_for(net, to);
  }

  /// Units executed so far (the barrier round counter).
  std::size_t units() const { return units_; }

 private:
  std::unique_ptr<Scheduler> inner_;
  PostUnit post_unit_;
  std::size_t units_ = 0;
};

}  // namespace ssps::sched
