#include "map/kron_aggregate.h"

#include "linalg/kron.h"

namespace performa::map {

Mmpp heterogeneous_aggregate(const std::vector<ServerModel>& servers) {
  PERFORMA_EXPECTS(!servers.empty(),
                   "heterogeneous_aggregate: need at least 1 server");
  Matrix q = servers.front().mmpp().generator();
  Vector rates = servers.front().mmpp().rates();
  for (std::size_t s = 1; s < servers.size(); ++s) {
    const Mmpp& next = servers[s].mmpp();
    q = linalg::kron_sum(q, next.generator());
    // Rates are the diagonal of L_{s+1} = L_s ⊕ L: they add across servers.
    Vector combined(rates.size() * next.dim());
    for (std::size_t i = 0; i < rates.size(); ++i)
      for (std::size_t j = 0; j < next.dim(); ++j)
        combined[i * next.dim() + j] = rates[i] + next.rates()[j];
    rates = std::move(combined);
  }
  return Mmpp(std::move(q), std::move(rates));
}

}  // namespace performa::map
