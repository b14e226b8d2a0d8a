#include "obs/deadline.h"

#include <limits>

namespace performa::obs {

namespace {

thread_local Deadline* t_current = nullptr;

}  // namespace

Deadline Deadline::after_seconds(double seconds) {
  return at(Clock::now() +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(seconds)));
}

Deadline Deadline::at(Clock::time_point at) {
  Deadline d;
  d.state_->has_expiry = true;
  d.state_->expires_at = at;
  return d;
}

bool Deadline::expired() const noexcept {
  if (state_->cancelled.load(std::memory_order_relaxed)) return true;
  return state_->has_expiry && Clock::now() >= state_->expires_at;
}

double Deadline::remaining_seconds() const noexcept {
  if (state_->cancelled.load(std::memory_order_relaxed)) return 0.0;
  if (!state_->has_expiry) return std::numeric_limits<double>::infinity();
  return std::chrono::duration<double>(state_->expires_at - Clock::now())
      .count();
}

DeadlineScope::DeadlineScope(Deadline d)
    : previous_(t_current), effective_(std::move(d)) {
  // A nested scope must not outlive its parent's budget: keep whichever
  // wall-clock expiry is earlier. Cancellation does not merge -- the
  // inner token stays independently cancellable -- but the solver polls
  // both through deadline_expired(), which checks the installed token,
  // and an expired outer scope re-asserts itself on scope exit.
  if (previous_ != nullptr && previous_->has_wall_deadline() &&
      (!effective_.has_wall_deadline() ||
       previous_->remaining_seconds() < effective_.remaining_seconds())) {
    effective_ = *previous_;
  }
  t_current = &effective_;
}

DeadlineScope::~DeadlineScope() { t_current = previous_; }

bool deadline_expired() noexcept {
  return t_current != nullptr && t_current->expired();
}

}  // namespace performa::obs
