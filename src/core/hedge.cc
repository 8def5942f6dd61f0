#include "core/hedge.h"

#include "core/budget.h"

namespace odr::core {

bool HedgeCoordinator::try_charge_clone(std::uint64_t user_id, SimTime now) {
  if (budget_ != nullptr && !budget_->try_acquire(user_id, now)) {
    ++budget_denied_;
    return false;
  }
  return true;
}

void HedgeCoordinator::settle(Winner winner) {
  switch (winner) {
    case Winner::kPrimary: ++primary_wins_; break;
    case Winner::kSecondary: ++secondary_wins_; break;
    case Winner::kNone: ++both_failed_; break;
  }
}

}  // namespace odr::core
