#include "chaos/fault_injector.h"

#include <algorithm>

#include "util/logging.h"

namespace flowercdn {

FaultInjector::FaultInjector(Network* network, Rng rng, StatsRegistry* stats)
    : network_(network),
      loss_rng_(rng.Fork("loss")),
      jitter_rng_(rng.Fork("jitter")),
      dup_rng_(rng.Fork("dup")),
      stats_(stats) {
  FLOWERCDN_CHECK(network != nullptr);
  FLOWERCDN_CHECK(stats != nullptr);
}

void FaultInjector::Count(StatsCounter*& counter, std::string_view name) {
  if (counter == nullptr) counter = stats_->counter(name);
  counter->Add();
}

FaultInjector::Counts FaultInjector::counts() const {
  Counts counts;
  counts.loss_drops = stats_->Total("chaos.loss_drops");
  counts.partition_drops = stats_->Total("chaos.partition_drops");
  counts.delayed = stats_->Total("chaos.delayed");
  counts.dup_copies = stats_->Total("chaos.dup_copies");
  return counts;
}

void FaultInjector::SetBaseFaults(double loss_rate, double delay_jitter_ms,
                                  double duplicate_rate) {
  FLOWERCDN_CHECK(loss_rate >= 0 && loss_rate <= 1);
  FLOWERCDN_CHECK(delay_jitter_ms >= 0);
  FLOWERCDN_CHECK(duplicate_rate >= 0 && duplicate_rate <= 1);
  base_loss_rate_ = loss_rate;
  delay_jitter_ms_ = delay_jitter_ms;
  duplicate_rate_ = duplicate_rate;
}

void FaultInjector::SetLossRamp(double rate, SimTime t0, SimTime t1) {
  FLOWERCDN_CHECK(rate >= 0 && rate <= 1);
  FLOWERCDN_CHECK(t1 >= t0);
  ramp_rate_ = rate;
  ramp_t0_ = t0;
  ramp_t1_ = t1;
}

void FaultInjector::AddPartition(LocalityId a, LocalityId b) {
  FLOWERCDN_CHECK(a != b) << "partition needs two distinct localities";
  partitions_.push_back(Partition{a, b});
}

void FaultInjector::RemovePartition(LocalityId a, LocalityId b) {
  auto match = [&](const Partition& p) {
    return (p.a == a && p.b == b) || (p.a == b && p.b == a);
  };
  auto it = std::find_if(partitions_.begin(), partitions_.end(), match);
  if (it != partitions_.end()) partitions_.erase(it);
}

double FaultInjector::EffectiveLossRate(SimTime now) const {
  double rate = base_loss_rate_;
  if (ramp_rate_ > 0 && now >= ramp_t0_) {
    if (now >= ramp_t1_ || ramp_t1_ == ramp_t0_) {
      rate += ramp_rate_;
    } else {
      double progress = static_cast<double>(now - ramp_t0_) /
                        static_cast<double>(ramp_t1_ - ramp_t0_);
      rate += ramp_rate_ * progress;
    }
  }
  return std::min(rate, 1.0);
}

FaultDecision FaultInjector::OnSend(PeerId src, PeerId dst,
                                    const Message& msg) {
  (void)msg;
  FaultDecision decision;
  if (src == dst) return decision;  // local delivery, not on the wire

  if (!partitions_.empty()) {
    LocalityId src_loc = network_->LocalityOf(src);
    LocalityId dst_loc = network_->LocalityOf(dst);
    for (const Partition& p : partitions_) {
      if ((p.a == src_loc && p.b == dst_loc) ||
          (p.a == dst_loc && p.b == src_loc)) {
        Count(partition_drops_, "chaos.partition_drops");
        decision.drop = true;
        return decision;
      }
    }
  }

  double loss = EffectiveLossRate(network_->sim()->now());
  if (loss > 0 && loss_rng_.NextBool(loss)) {
    Count(loss_drops_, "chaos.loss_drops");
    decision.drop = true;
    return decision;
  }

  if (delay_jitter_ms_ > 0) {
    decision.extra_delay_ms = jitter_rng_.UniformDouble(0, delay_jitter_ms_);
    Count(delayed_, "chaos.delayed");
  }

  if (duplicate_rate_ > 0 && dup_rng_.NextBool(duplicate_rate_)) {
    decision.duplicates = 1;
    Count(dup_copies_, "chaos.dup_copies");
  }

  return decision;
}

}  // namespace flowercdn
