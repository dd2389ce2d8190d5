#include "v2x/opportunistic.hpp"

#include "crypto/sha256.hpp"

namespace aseck::v2x {

DeferredSpduVerifier::DeferredSpduVerifier(sim::Scheduler& sched, Config cfg)
    : sched_(sched), cfg_(cfg), pool_(cfg.pool) {}

void DeferredSpduVerifier::submit(std::size_t producer, const Spdu& msg,
                                  SimTime admitted_at, Verdict verdict) {
  ++submitted_;
  const Pending& p =
      pending_.emplace_back(Pending{msg, admitted_at, std::move(verdict)});
  pool_.queue().push(producer,
                     crypto::VerifyJob{&p.msg.signer.verify_key,
                                       crypto::sha256(p.msg.signed_portion()),
                                       &p.msg.signature, pending_.size() - 1});
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
  for (const crypto::VerifyOutcome& o : pool_.flush()) {
    const Pending& p = pending_[o.tag];
    window_us_.add((now - p.admitted_at).seconds() * 1e6);
    if (o.ok) {
      ++confirmed_;
    } else {
      ++revoked_;
    }
    if (p.verdict) p.verdict(o.ok, p.admitted_at, now);
  }
  pending_.clear();
}

}  // namespace aseck::v2x
