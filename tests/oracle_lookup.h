// Lookup of a replay-oracle table row by id, shared by the simfuzz and
// parallel test suites.
#pragma once

#include <stdexcept>
#include <string>

#include "simfuzz/oracle.h"

namespace hmr::simfuzz {

// The replay-oracle table row with this id. An unknown id (a row renamed
// or removed from the table) throws, which fails and stops the calling
// test, so a stale lookup can never quietly run another row instead.
inline const ReplayOracle& replay_oracle(const std::string& id) {
  for (const ReplayOracle& oracle : replay_oracles()) {
    if (oracle.id == id) return oracle;
  }
  throw std::out_of_range("no replay oracle " + id);
}

}  // namespace hmr::simfuzz
