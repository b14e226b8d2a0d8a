#include "obs/deadline.h"

#include <limits>
#include <utility>

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
  d.has_expiry_ = true;
  d.expires_at_ = at;
  return d;
}

bool Deadline::expired() const noexcept {
  return has_expiry_ && Clock::now() >= expires_at_;
}

double Deadline::remaining_seconds() const noexcept {
  if (!has_expiry_) return std::numeric_limits<double>::infinity();
  return std::chrono::duration<double>(expires_at_ - Clock::now()).count();
}

DeadlineScope::DeadlineScope(Deadline d)
    : previous_(t_current), effective_(std::move(d)) {
  // A nested scope must not outlive its parent's budget: keep whichever
  // wall-clock expiry is earlier.
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
