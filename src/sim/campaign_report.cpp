#include "sim/campaign_report.h"

#include <fstream>
#include <stdexcept>

#include "common/csv.h"
#include "common/json_writer.h"
#include "common/table.h"

namespace nocbt::sim {

std::string render_table(const CampaignResult& result) {
  AsciiTable table({"scenario", "O0 BT", "ordered BT", "reduction",
                    "energy (pJ)", "O0 mW", "mW", "cycles", "flits", "backlog",
                    "status"});
  for (const ScenarioResult& row : result.rows) {
    if (!row.error.empty() && !row.drained && row.cycles == 0 &&
        row.bt_baseline == 0) {
      table.add_row({row.spec.name, "-", "-", "-", "-", "-", "-", "-", "-",
                     "-", "error: " + row.error});
      continue;
    }
    table.add_row({row.spec.name, std::to_string(row.bt_baseline),
                   std::to_string(row.bt_ordered),
                   format_percent(row.reduction),
                   format_double(row.energy_pj, 1),
                   format_double(row.power_baseline_mw, 3),
                   format_double(row.power_mw, 3), std::to_string(row.cycles),
                   std::to_string(row.flits), std::to_string(row.peak_backlog),
                   row.drained ? "ok" : "stalled"});
  }
  return table.render();
}

std::size_t write_csv_report(const std::string& path,
                             const CampaignSpec& campaign,
                             const CampaignResult& result) {
  (void)campaign;
  CsvWriter csv(path,
                {"scenario", "generator", "format", "mode", "rows", "cols",
                 "window", "seed", "bt_baseline", "bt_ordered", "reduction",
                 "energy_baseline_pj", "energy_pj", "power_baseline_mw",
                 "power_mw", "cycles", "packets", "flits", "peak_backlog",
                 "avg_latency", "avg_hops", "drained", "error"});
  for (const ScenarioResult& row : result.rows) {
    const ScenarioSpec& s = row.spec;
    csv.add_row({s.name, to_string(s.generator), to_string(s.format),
                 ordering::to_string(s.mode), std::to_string(s.rows),
                 std::to_string(s.cols), std::to_string(s.window),
                 std::to_string(s.seed), std::to_string(row.bt_baseline),
                 std::to_string(row.bt_ordered),
                 format_double(row.reduction, 6),
                 format_double(row.energy_baseline_pj, 3),
                 format_double(row.energy_pj, 3),
                 format_double(row.power_baseline_mw, 6),
                 format_double(row.power_mw, 6), std::to_string(row.cycles),
                 std::to_string(row.packets), std::to_string(row.flits),
                 std::to_string(row.peak_backlog),
                 format_double(row.avg_latency, 3),
                 format_double(row.avg_hops, 3), row.drained ? "1" : "0",
                 row.error});
  }
  return csv.rows_written();
}

std::size_t write_profile_csv(const std::string& path,
                              const CampaignSpec& campaign,
                              const CampaignResult& result) {
  (void)campaign;
  CsvWriter csv(path,
                {"scenario", "engine", "wall_ms_baseline", "wall_ms_ordered",
                 "cycles", "cycles_stepped", "idle_cycles_skipped",
                 "components_stepped", "components_skipped", "skip_ratio",
                 "engine_reason"});
  for (const ScenarioResult& row : result.rows) {
    // row.sim.engine is the backend that actually ran the ordered variant
    // (auto-selection may pick analytical over the spec's cycle engine).
    csv.add_row({row.spec.name, noc::to_string(row.sim.engine),
                 format_double(row.wall_ms_baseline, 3),
                 format_double(row.wall_ms_ordered, 3),
                 std::to_string(row.cycles),
                 std::to_string(row.sim.cycles_stepped),
                 std::to_string(row.sim.idle_cycles_skipped),
                 std::to_string(row.sim.components_stepped),
                 std::to_string(row.sim.components_skipped),
                 format_double(row.sim.skip_ratio(), 6), row.engine_reason});
  }
  return csv.rows_written();
}

std::size_t write_link_heatmap_csv(const std::string& path,
                                   const CampaignSpec& campaign,
                                   const CampaignResult& result) {
  (void)campaign;
  CsvWriter csv(path, {"scenario", "link_id", "kind", "src", "dst", "src_port",
                       "flits", "bt", "energy_pj"});
  for (const ScenarioResult& row : result.rows)
    for (const hw::LinkEnergyRow& link : row.links)
      csv.add_row({row.spec.name, std::to_string(link.link_id),
                   noc::to_string(link.info.kind),
                   std::to_string(link.info.src),
                   std::to_string(link.info.dst),
                   std::to_string(link.info.src_port),
                   std::to_string(link.flits), std::to_string(link.transitions),
                   format_double(link.energy_pj, 3)});
  return csv.rows_written();
}

std::string json_report(const CampaignSpec& campaign,
                        const CampaignResult& result) {
  JsonWriter json;
  json.begin_object()
      .key("campaign").value(campaign.name)
      .key("root_seed").value(std::to_string(campaign.root_seed))
      .key("scenario_count").value(static_cast<std::uint64_t>(result.rows.size()))
      .key("scenarios").begin_array();
  for (const ScenarioResult& row : result.rows) {
    const ScenarioSpec& s = row.spec;
    json.begin_object()
        .key("name").value(s.name)
        .key("generator").value(to_string(s.generator))
        .key("format").value(to_string(s.format))
        .key("mode").value(ordering::to_string(s.mode))
        .key("rows").value(static_cast<std::int64_t>(s.rows))
        .key("cols").value(static_cast<std::int64_t>(s.cols))
        .key("window").value(static_cast<std::uint64_t>(s.window))
        // As a string: 64-bit seeds exceed the 2^53 exact-integer range of
        // double-based JSON consumers (jq, JavaScript) and would round.
        .key("seed").value(std::to_string(s.seed))
        .key("energy_per_transition_pj").value(s.energy_per_transition_pj)
        .key("frequency_mhz").value(s.frequency_mhz)
        .key("bt_baseline").value(row.bt_baseline)
        .key("bt_ordered").value(row.bt_ordered)
        .key("reduction").value(row.reduction)
        .key("energy_baseline_pj").value(row.energy_baseline_pj)
        .key("energy_pj").value(row.energy_pj)
        .key("power_baseline_mw").value(row.power_baseline_mw)
        .key("power_mw").value(row.power_mw)
        .key("cycles").value(row.cycles)
        .key("packets").value(row.packets)
        .key("flits").value(row.flits)
        .key("peak_backlog").value(row.peak_backlog)
        .key("avg_latency").value(row.avg_latency)
        .key("avg_hops").value(row.avg_hops)
        .key("drained").value(row.drained);
    json.key("error");
    if (row.error.empty())
      json.null();
    else
      json.value(row.error);
    json.end_object();
  }
  json.end_array().end_object();
  return json.take();
}

void write_json_report(const std::string& path, const CampaignSpec& campaign,
                       const CampaignResult& result) {
  std::ofstream out(path, std::ios::binary);
  if (!out)
    throw std::runtime_error("write_json_report: cannot open " + path);
  out << json_report(campaign, result) << '\n';
  if (!out)
    throw std::runtime_error("write_json_report: write failed for " + path);
}

}  // namespace nocbt::sim
