// Figure 5 / Equation 2 — Chain-propagation delivery probability.
//
// The paper's Section 5 analyzes the cost of an erroneous "covered"
// verdict: a subscription withheld at B1 of a broker chain can still be
// served if a matching publication appears at an early broker. Equation 2
// gives the closed form; this harness prints it next to a Monte-Carlo
// simulation of the same process (they must agree).
#include "bench_common.hpp"
#include "chain_model.hpp"

int main(int argc, char** argv) {
  using namespace psc;
  const auto args = bench::HarnessArgs::parse(argc, argv);
  const auto runs = static_cast<std::uint64_t>(args.runs_or(100'000));
  bench::Timer timer;

  bench::print_banner(std::cout, "Figure 5 / Equation 2: chain-propagation delivery probability",
                     "closed form vs Monte-Carlo; runs/cell=" + std::to_string(runs));

  bench::TableWriter table(
      {"n", "rho", "rho_w", "d", "Eq.2", "simulated", "abs.err"}, 5);
  util::Rng rng(args.seed);

  const std::vector<std::size_t> chain_lengths{2, 5, 10, 20};
  const std::vector<double> rhos{0.05, 0.2, 0.5};
  const std::vector<std::uint64_t> ds{10, 100, 1000};

  for (const std::size_t n : chain_lengths) {
    for (const double rho : rhos) {
      for (const std::uint64_t d : ds) {
        bench::ChainParams params;
        params.broker_count = n;
        params.rho = rho;
        params.rho_w = 0.01;
        params.d = d;
        const double analytic = bench::chain_delivery_probability(params);
        const double simulated =
            bench::simulate_chain_delivery(params, runs, rng);
        table.add_row({static_cast<long long>(n), rho, 0.01,
                       static_cast<long long>(d), analytic, simulated,
                       std::abs(analytic - simulated)});
      }
    }
  }
  bench::finish(table, args, timer);
  return 0;
}
