#include "controller/session.hpp"

#include <algorithm>
#include <cmath>

namespace sdt::controller {

SwitchSession::SwitchSession(sim::Simulator& sim, sim::ControlChannel& channel,
                             int numSwitches, Config config)
    : sim_(&sim),
      channel_(&channel),
      config_(std::move(config)),
      done_(static_cast<std::size_t>(numSwitches), 0),
      retries_(static_cast<std::size_t>(numSwitches), 0) {
  for (int sw = 0; sw < numSwitches; ++sw) {
    jitter_.push_back(jitterStream(config_.seed, config_.salt, sw));
  }
}

Rng SwitchSession::jitterStream(std::uint64_t seed, std::uint64_t salt, int sw) {
  std::uint64_t mix = seed ^ (salt + static_cast<std::uint64_t>(sw));
  return Rng(sdt::detail::splitmix64(mix));
}

TimeNs SwitchSession::backoff(int attempt, Rng& jitter) {
  // Capped in double, before the cast: the doubling passes 2^63 ns within
  // ~64 attempts, and casting a larger double to TimeNs is undefined.
  const double grown = std::ldexp(static_cast<double>(kBaseBackoff),
                                  std::clamp(attempt - 1, 0, 64));
  const double wait = grown * (1.0 - kJitter * jitter.uniform());
  return static_cast<TimeNs>(std::min(wait, static_cast<double>(kMaxBackoff)));
}

void SwitchSession::open(Attrs attrs) {
  if (config_.tracer == nullptr) return;
  spanRun_ = config_.tracer->begin(config_.op, sim_->now());
  for (const auto& [key, value] : attrs) config_.tracer->annotate(spanRun_, key, value);
}

void SwitchSession::phase(const char* name) {
  if (config_.tracer == nullptr) return;
  if (spanPhase_ != obs::kNoSpan) config_.tracer->end(spanPhase_, sim_->now());
  spanPhase_ = config_.tracer->begin(std::string(config_.op) + "." + name,
                                     sim_->now(), spanRun_);
}

void SwitchSession::close(const char* outcome, Attrs attrs,
                          const std::string& failure) {
  closed_ = true;
  ++gen_;
  obs::Tracer* tracer = config_.tracer;
  if (tracer == nullptr) return;
  if (spanPhase_ != obs::kNoSpan) tracer->end(spanPhase_, sim_->now());
  spanPhase_ = obs::kNoSpan;
  if (spanRun_ == obs::kNoSpan) return;
  tracer->annotate(spanRun_, "outcome", outcome);
  for (const auto& [key, value] : attrs) tracer->annotate(spanRun_, key, value);
  tracer->annotate(spanRun_, "retries", std::to_string(retriesTotal_));
  if (!failure.empty()) tracer->annotate(spanRun_, "failure", failure);
  tracer->end(spanRun_, sim_->now());
  spanRun_ = obs::kNoSpan;
}

void SwitchSession::beginRound(const char* label, int maxAttempts) {
  ++gen_;
  label_ = label;
  maxAttempts_ = maxAttempts;
  std::fill(done_.begin(), done_.end(), 0);
  doneCount_ = 0;
}

int SwitchSession::complete(int sw) {
  done_[index(sw)] = 1;
  return ++doneCount_;
}

void SwitchSession::attempt(int sw, int n) {
  if (closed_ || done(sw)) return;
  if (n > 1) {
    ++retriesTotal_;
    ++retries_[index(sw)];
    if (config_.metrics != nullptr) {
      config_.metrics
          ->counter("sdt_controller_retry_attempts_total",
                    {{"op", config_.op}, {"phase", label_}},
                    "Control-channel resends beyond the first attempt")
          .inc();
    }
  }
  // Every delivered copy of the request sends its own reply: applying is
  // idempotent at the switch, replying is not, so a lost reply is
  // recovered by resending the request.
  channel_->send(sw, [this, sw, request = config_.request(sw)]() {
    if (Reply reply = request()) channel_->send(sw, std::move(reply));
  });
  const std::uint64_t gen = gen_;
  sim_->schedule(kAttemptTimeout, [this, sw, n, gen]() { onTimeout(sw, n, gen); });
}

void SwitchSession::onTimeout(int sw, int n, std::uint64_t gen) {
  if (!current(gen) || done(sw)) return;
  if (n >= maxAttempts_) {
    config_.exhausted(sw, n);
    return;
  }
  sim_->schedule(backoff(n, jitter_[index(sw)]), [this, sw, n, gen]() {
    if (current(gen)) attempt(sw, n + 1);
  });
}

}  // namespace sdt::controller
