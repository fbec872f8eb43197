#include "opt/search_space.h"

#include <algorithm>
#include <stdexcept>

#include "place/policy.h"

namespace nocbt::opt {

namespace {

template <typename T>
bool has_duplicates(std::vector<T> values) {
  std::sort(values.begin(), values.end());
  return std::adjacent_find(values.begin(), values.end()) != values.end();
}

}  // namespace

std::string to_string(const Candidate& c) {
  return c.placement + "/" + ordering::short_mode_name(c.mode) + "/w" +
         std::to_string(c.window) + "/" + to_string(c.format);
}

std::size_t SearchSpace::size() const {
  return placements.size() * modes.size() * windows.size() * formats.size();
}

void SearchSpace::validate() const {
  if (placements.empty() || modes.empty() || windows.empty() ||
      formats.empty())
    throw std::invalid_argument(
        "SearchSpace: every axis (placements, modes, windows, formats) "
        "needs at least one value");
  for (const std::string& p : placements)
    (void)place::policies().get(p);  // throws listing registered names
  if (has_duplicates(placements))
    throw std::invalid_argument("SearchSpace: duplicate placement in axis");
  if (has_duplicates(modes))
    throw std::invalid_argument("SearchSpace: duplicate ordering mode in axis");
  if (has_duplicates(windows))
    throw std::invalid_argument("SearchSpace: duplicate window in axis");
  if (has_duplicates(formats))
    throw std::invalid_argument("SearchSpace: duplicate format in axis");
}

SearchSpace SearchSpace::full(std::vector<std::uint32_t> windows,
                              std::vector<DataFormat> formats) {
  SearchSpace space;
  space.placements = place::registered_policy_names();
  space.modes = ordering::all_ordering_modes();
  space.windows = std::move(windows);
  space.formats = std::move(formats);
  space.validate();
  return space;
}

SearchSpace SearchSpace::from_campaign(const sim::CampaignSpec& camp,
                                       std::vector<std::string> placements) {
  SearchSpace space;
  space.placements = std::move(placements);
  space.modes = camp.modes;
  space.windows = camp.windows;
  space.formats = camp.formats;
  space.validate();
  return space;
}

}  // namespace nocbt::opt
