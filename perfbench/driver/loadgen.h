// Open-loop performad client for the traced run's daemon session: a
// seeded stationary hot/never-seen key mix on a fixed schedule, latency
// from each request's due time, and the socket round trip of a hit.
#pragma once

#include <map>
#include <string>

namespace perfbench {

/// Options (all `--key value`): socket, refs-dir, workdir, seed, and
/// warm-only (touch every hot key once and exit). Prints "ready", then
/// one JSON object on stdout.
int run_loadgen(const std::map<std::string, std::string>& opts);

}  // namespace perfbench
