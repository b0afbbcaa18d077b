// Chain-propagation model (paper, Section 5, Figure 5 and Equation 2).
//
// Setting: a new subscription s is issued at broker B1 of a chain
// B1-B2-...-Bn on which the covering set s1..sk has already propagated.
// The engine at B1 erroneously declares s covered with probability at most
// delta = (1 - rho_w)^d, so s is withheld. A publication p matching s (but
// no s_i) appears at each broker with probability rho. Equation 2 gives the
// probability that p is still found (i.e. reaches s's subscriber) despite
// the withheld forwarding:
//
//   P = sum_{i=1..n} rho * [ (1 - rho) * (1 - (1 - rho_w)^d) ]^(i-1)
//
// We provide the analytic evaluation plus a Monte-Carlo simulation of the
// same process so benchmarks can confirm the closed form on the simulator.
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "util/rng.hpp"

namespace psc::bench {

struct ChainParams {
  std::size_t broker_count = 10;  ///< n
  double rho = 0.1;               ///< P(matching publication at a broker)
  double rho_w = 0.01;            ///< witness probability of the instance
  std::uint64_t d = 100;          ///< RSPC trials the checker would run
};

namespace chain_detail {

inline void validate(const ChainParams& params) {
  if (params.broker_count == 0) {
    throw std::invalid_argument("ChainParams: broker_count must be > 0");
  }
  if (!(params.rho >= 0.0 && params.rho <= 1.0)) {
    throw std::invalid_argument("ChainParams: rho must be in [0, 1]");
  }
  if (!(params.rho_w >= 0.0 && params.rho_w <= 1.0)) {
    throw std::invalid_argument("ChainParams: rho_w must be in [0, 1]");
  }
}

/// 1 - (1 - rho_w)^d: probability one full RSPC round finds a witness.
inline double detect_probability(const ChainParams& params) {
  return 1.0 - std::pow(1.0 - params.rho_w, static_cast<double>(params.d));
}

}  // namespace chain_detail

/// Equation 2, evaluated in closed form.
[[nodiscard]] inline double chain_delivery_probability(const ChainParams& params) {
  chain_detail::validate(params);
  const double detect = chain_detail::detect_probability(params);
  const double ratio = (1.0 - params.rho) * detect;
  double sum = 0.0;
  double term = 1.0;  // ratio^(i-1), i = 1
  for (std::size_t i = 0; i < params.broker_count; ++i) {
    sum += params.rho * term;
    term *= ratio;
  }
  return sum;
}

/// Monte-Carlo estimate of the same quantity over `runs` simulated chains.
/// Each run walks the chain hop by hop: a broker holds a matching
/// publication with probability rho; the subscription is re-detected as
/// uncovered (and thus forwarded onward) when any of the d point guesses
/// hits a witness, which happens with probability 1 - (1 - rho_w)^d.
[[nodiscard]] inline double simulate_chain_delivery(const ChainParams& params,
                                                    std::uint64_t runs,
                                                    util::Rng& rng) {
  chain_detail::validate(params);
  if (runs == 0) throw std::invalid_argument("simulate_chain_delivery: runs == 0");
  const double detect = chain_detail::detect_probability(params);
  std::uint64_t found = 0;
  for (std::uint64_t run = 0; run < runs; ++run) {
    // Walk brokers B1..Bn. At each broker the publication is present with
    // probability rho — if so, it is found there and we stop. Otherwise
    // the subscription continues down the chain only if this hop's checker
    // detects non-coverage (probability `detect`).
    for (std::size_t hop = 0; hop < params.broker_count; ++hop) {
      if (rng.bernoulli(params.rho)) {
        ++found;
        break;
      }
      if (!rng.bernoulli(detect)) break;  // withheld: chain stops here
    }
  }
  return static_cast<double>(found) / static_cast<double>(runs);
}

}  // namespace psc::bench
