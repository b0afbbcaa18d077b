// Tests for the Section 5 chain-propagation model (Equation 2).
#include "bench/chain_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace psc::bench {
namespace {

TEST(ChainModel, SingleBrokerIsJustRho) {
  ChainParams params;
  params.broker_count = 1;
  params.rho = 0.3;
  EXPECT_DOUBLE_EQ(chain_delivery_probability(params), 0.3);
}

TEST(ChainModel, PerfectDetectionGeometricSeries) {
  // With rho_w = 1 and d >= 1, detection is certain: the sum telescopes to
  // 1 - (1 - rho)^n (the publication is found iff any broker has it).
  ChainParams params;
  params.broker_count = 8;
  params.rho = 0.25;
  params.rho_w = 1.0;
  params.d = 1;
  const double expected = 1.0 - std::pow(1.0 - params.rho,
                                         static_cast<double>(params.broker_count));
  EXPECT_NEAR(chain_delivery_probability(params), expected, 1e-12);
}

TEST(ChainModel, ZeroDetectionStopsAtFirstBroker) {
  // rho_w = 0: the subscription never propagates past B1.
  ChainParams params;
  params.broker_count = 10;
  params.rho = 0.4;
  params.rho_w = 0.0;
  EXPECT_DOUBLE_EQ(chain_delivery_probability(params), 0.4);
}

TEST(ChainModel, MonotoneInD) {
  ChainParams low, high;
  low.broker_count = high.broker_count = 10;
  low.rho = high.rho = 0.1;
  low.rho_w = high.rho_w = 0.01;
  low.d = 10;
  high.d = 1000;
  EXPECT_LT(chain_delivery_probability(low), chain_delivery_probability(high));
}

TEST(ChainModel, MonotoneInN) {
  ChainParams short_chain, long_chain;
  short_chain.broker_count = 2;
  long_chain.broker_count = 20;
  short_chain.rho = long_chain.rho = 0.05;
  short_chain.rho_w = long_chain.rho_w = 0.05;
  short_chain.d = long_chain.d = 100;
  EXPECT_LT(chain_delivery_probability(short_chain),
            chain_delivery_probability(long_chain));
}

TEST(ChainModel, BoundedByOne) {
  ChainParams params;
  params.broker_count = 100;
  params.rho = 0.9;
  params.rho_w = 0.5;
  params.d = 1000;
  const double p = chain_delivery_probability(params);
  EXPECT_GT(p, 0.0);
  EXPECT_LE(p, 1.0);
}

TEST(ChainModel, SimulationMatchesClosedForm) {
  util::Rng rng(2024);
  for (const double rho : {0.05, 0.2, 0.5}) {
    for (const std::uint64_t d : {10ull, 200ull}) {
      ChainParams params;
      params.broker_count = 12;
      params.rho = rho;
      params.rho_w = 0.01;
      params.d = d;
      const double analytic = chain_delivery_probability(params);
      const double simulated = simulate_chain_delivery(params, 200'000, rng);
      EXPECT_NEAR(simulated, analytic, 0.01)
          << "rho=" << rho << " d=" << d;
    }
  }
}

TEST(ChainModel, InvalidParamsThrow) {
  ChainParams params;
  params.broker_count = 0;
  EXPECT_THROW((void)chain_delivery_probability(params), std::invalid_argument);
  params.broker_count = 1;
  params.rho = 1.5;
  EXPECT_THROW((void)chain_delivery_probability(params), std::invalid_argument);
  params.rho = 0.5;
  params.rho_w = -0.1;
  EXPECT_THROW((void)chain_delivery_probability(params), std::invalid_argument);
  params.rho_w = 0.5;
  util::Rng rng(1);
  EXPECT_THROW((void)simulate_chain_delivery(params, 0, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace psc::bench
