// Quickstart — the 60-second tour of the psc public API.
//
// Builds the paper's worked example (Table 3): a new subscription s that no
// single existing subscription covers, but the union of s1 and s2 does.
// Shows the conflict table, the probabilistic verdict with full
// diagnostics, and the one-sided error contract.
//
// Run: ./quickstart
#include <iostream>

#include "core/conflict_table.hpp"
#include "core/engine.hpp"

int main() {
  using namespace psc::core;

  // A subscription is a conjunction of range predicates — a box. Attribute
  // order is the schema: here {x1, x2} (paper Table 3 uses rental-post ids
  // and dates; any ordered domain works).
  const Subscription s({Interval{830, 870}, Interval{1003, 1006}});
  const std::vector<Subscription> existing{
      Subscription({Interval{820, 850}, Interval{1001, 1007}}, /*id=*/1),
      Subscription({Interval{840, 880}, Interval{1002, 1009}}, /*id=*/2),
  };

  std::cout << "new subscription   " << s << "\n";
  for (const auto& si : existing) std::cout << "existing           " << si << "\n";

  // Neither s1 nor s2 covers s alone...
  for (const auto& si : existing) {
    std::cout << "covered by s" << si.id() << " alone? "
              << (si.covers(s) ? "yes" : "no") << "\n";
  }

  // ...which the conflict table (Definition 2) makes visible: each row
  // lists where s sticks out of that subscription.
  const ConflictTable table(s, existing);
  table.print(std::cout);

  // The engine answers the GROUP question: is s inside the union?
  EngineConfig config;
  config.delta = 1e-6;  // accepted probability of a wrong "covered"
  SubsumptionEngine engine(config, /*seed=*/42);
  const SubsumptionResult result = engine.check(s, existing);

  std::cout << "\ncovered by the union? " << (result.covered ? "YES" : "NO")
            << (result.is_definite ? " (definite)" : " (probabilistic)") << "\n"
            << "decision path:        " << to_string(result.path) << "\n"
            << "candidates after MCS: " << result.reduced_set_size << " of "
            << result.original_set_size << "\n"
            << "estimated rho_w:      " << result.rho_w << "\n"
            << "trial bound d:        " << result.trial_budget << "\n"
            << "trials executed:      " << result.iterations << "\n"
            << "residue fragments:    " << result.residue_fragments
            << " (non-zero: decided by exact subtraction)\n";

  // The error contract is one-sided: a NO is always correct, a YES is
  // wrong with probability at most delta. Flip the instance to a genuine
  // non-cover (paper Table 6) and the engine proves it deterministically.
  const Subscription wider({Interval{830, 890}, Interval{1003, 1006}});
  const std::vector<Subscription> narrow{
      Subscription({Interval{820, 850}, Interval{1002, 1009}}, 1),
      Subscription({Interval{840, 870}, Interval{1001, 1007}}, 2),
  };
  const SubsumptionResult no = engine.check(wider, narrow);
  std::cout << "\nnon-cover instance:   " << (no.covered ? "YES" : "NO")
            << " via " << to_string(no.path) << "\n";
  return 0;
}
