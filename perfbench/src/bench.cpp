#include "bench.h"

namespace perfbench {

void Checks::item(bool ok, const std::string& what) {
  items(1, ok ? 0 : 1, what);
}

void Checks::items(std::uint64_t n, std::uint64_t failed,
                   const std::string& what) {
  attempted_ += n;
  failed_ += failed;
  if (failed > 0 && messages_.size() < 10) messages_.push_back(what);
}

void close_layer_table(Report& r, double wall_s) {
  double rows = 0.0;
  for (const LayerRow& row : r.table) rows += row.seconds;
  r.table.push_back({"residual", wall_s - rows, false});
  r.layer["table.residual_frac"] = wall_s > 0.0 ? (wall_s - rows) / wall_s : 0.0;
  r.checks.item(wall_s > 0.0 && rows <= 1.05 * wall_s,
                "layer rows cover more than the traced wall time by over 5% "
                "(they overlap or an estimate is too high)");
}

}  // namespace perfbench
