// The serve tests' oracle for the template cache: whatever path a serve
// took (cache hit or miss), its route, view and refusal list must be what
// best_view_match returns on the snapshot it ran on.
#pragma once

#include <string>
#include <vector>

#include "src/optimizer/view_rewrite.hpp"
#include "src/serve/server.hpp"

namespace mvd {

/// Empty when `r` (served for `q` on `snap`) carries best_view_match's
/// decision; otherwise what differs.
inline std::string decision_mismatch(const MvServer& server,
                                     const ServeSnapshot& snap,
                                     const QuerySpec& q,
                                     const ServeResult& r) {
  std::vector<ViewRefusal> refusals;
  const auto best = best_view_match(q, snap.registry.matchable(),
                                    server.catalog(), &refusals);
  if (r.rewritten != best.has_value()) {
    return r.rewritten ? "rewritten onto " + r.view + ", matcher refuses"
                       : "fell back, matcher picks " + best->view;
  }
  if (best.has_value()) {
    return r.view == best->view ? "" : "view " + r.view + " vs " + best->view;
  }
  if (r.refusals.size() != refusals.size()) return "refusal count";
  for (std::size_t i = 0; i < refusals.size(); ++i) {
    if (r.refusals[i].view != refusals[i].view ||
        r.refusals[i].reason != refusals[i].reason) {
      return "refusal " + r.refusals[i].view + ": " + r.refusals[i].reason +
             " vs " + refusals[i].view + ": " + refusals[i].reason;
    }
  }
  return "";
}

}  // namespace mvd
