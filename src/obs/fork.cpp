#include "obs/fork.h"

#include <string>

#include "obs/flight.h"
#include "obs/trace.h"

namespace performa::obs {

void ForkHandoff::enter_child() noexcept {
  detail::discard_thread_spans();
  if (flight_enabled()) {
    // The parent's file stays; the child records under its own pid.
    const std::string path = flight_path();
    disable_flight(/*keep_file=*/true);
    init_flight(path.substr(0, path.rfind(".flight.")));
  }
}

void ForkHandoff::leave_child() noexcept {
  flush_trace();
  if (flight_enabled()) disable_flight(/*keep_file=*/false);
}

}  // namespace performa::obs
