#pragma once

// Minimal ASCII table printer used by the benchmark harness to emit
// paper-style tables (Table 1, Fig. 6 series, ablation sweeps).

#include <cstddef>
#include <string>
#include <vector>

namespace lopass {

class TextTable {
 public:
  // Sets the header row. Column count is fixed by this call.
  void set_header(std::vector<std::string> cells);

  // Appends a data row; must match the header's column count.
  void add_row(std::vector<std::string> cells);

  // Appends a horizontal separator line.
  void add_separator();

  // Renders with column-aligned padding and | separators.
  std::string ToString() const;

  std::size_t row_count() const { return rows_.size(); }

 private:
  struct Row {
    bool separator = false;
    std::vector<std::string> cells;
  };

  std::vector<std::string> header_;
  std::vector<Row> rows_;
};

}  // namespace lopass
