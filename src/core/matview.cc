#include "core/matview.h"

#include "common/string_util.h"

namespace popdb {

void MatViewRegistry::Register(TableSet set, std::vector<Row> rows,
                               std::vector<int> sorted_positions) {
  for (auto& stored : stored_) {
    if (stored->set == set) {
      stored->rows = std::move(rows);
      stored->sorted_positions = std::move(sorted_positions);
      RebuildViews();
      return;
    }
  }
  auto stored = std::make_unique<Stored>();
  stored->name = StrFormat("tmpmv_%zu_0x%llx", stored_.size(),
                           static_cast<unsigned long long>(set));
  stored->set = set;
  stored->rows = std::move(rows);
  stored->sorted_positions = std::move(sorted_positions);
  stored_.push_back(std::move(stored));
  RebuildViews();
}

void MatViewRegistry::RebuildViews() {
  views_.clear();
  views_.reserve(stored_.size());
  for (const auto& stored : stored_) {
    AvailableMatView view;
    view.name = stored->name;
    view.set = stored->set;
    view.card = static_cast<double>(stored->rows.size());
    view.rows = &stored->rows;
    view.sorted_positions = stored->sorted_positions;
    views_.push_back(std::move(view));
  }
}

int64_t MatViewRegistry::total_rows() const {
  int64_t total = 0;
  for (const auto& stored : stored_) {
    total += static_cast<int64_t>(stored->rows.size());
  }
  return total;
}

void MatViewRegistry::Clear() {
  stored_.clear();
  views_.clear();
}

}  // namespace popdb
