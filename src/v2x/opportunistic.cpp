#include "v2x/opportunistic.hpp"

#include "crypto/sha256.hpp"

namespace aseck::v2x {

DeferredSpduVerifier::DeferredSpduVerifier(sim::Scheduler& sched, Config cfg)
    : sched_(sched), cfg_(cfg) {
  engine_.set_batch_kernel(true);
}

void DeferredSpduVerifier::submit(const Spdu& msg, SimTime admitted_at,
                                  Verdict verdict) {
  ++submitted_;
  const Pending& p =
      pending_.emplace_back(Pending{msg, admitted_at, std::move(verdict)});
  items_.push_back({&p.msg.signer.verify_key,
                    crypto::sha256(p.msg.signed_portion()), &p.msg.signature});
}

void DeferredSpduVerifier::start() {
  flush_task_ = std::make_unique<sim::PeriodicTask>(
      sched_, cfg_.flush_period, [this] { flush(); }, cfg_.flush_period);
}

void DeferredSpduVerifier::stop() {
  flush_task_.reset();
  flush();  // nothing stays provisionally trusted forever
}

void DeferredSpduVerifier::flush() {
  if (pending_.empty()) return;
  const SimTime now = sched_.now();
  const std::vector<bool> ok = engine_.verify_batch(items_);
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const Pending& p = pending_[i];
    window_us_.add((now - p.admitted_at).seconds() * 1e6);
    if (ok[i]) {
      ++confirmed_;
    } else {
      ++revoked_;
    }
    if (p.verdict) p.verdict(ok[i], p.admitted_at, now);
  }
  pending_.clear();
  items_.clear();
}

}  // namespace aseck::v2x
