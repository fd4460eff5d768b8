#include "common/table.h"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "common/error.h"

namespace lopass {

void TextTable::set_header(std::vector<std::string> cells) {
  header_ = std::move(cells);
}

void TextTable::add_row(std::vector<std::string> cells) {
  LOPASS_CHECK(header_.empty() || cells.size() == header_.size(),
               "row width must match header width");
  rows_.push_back(Row{false, std::move(cells)});
}

void TextTable::add_separator() { rows_.push_back(Row{true, {}}); }

std::string TextTable::ToString() const {
  const std::size_t ncol = header_.size();
  std::vector<std::size_t> width(ncol, 0);
  for (std::size_t c = 0; c < ncol; ++c) width[c] = header_[c].size();
  for (const Row& r : rows_) {
    if (r.separator) continue;
    for (std::size_t c = 0; c < r.cells.size(); ++c) {
      width[c] = std::max(width[c], r.cells[c].size());
    }
  }

  auto emit_sep = [&](std::ostringstream& os) {
    os << '+';
    for (std::size_t c = 0; c < ncol; ++c) {
      os << std::string(width[c] + 2, '-') << '+';
    }
    os << '\n';
  };
  auto emit_row = [&](std::ostringstream& os, const std::vector<std::string>& cells) {
    os << '|';
    for (std::size_t c = 0; c < ncol; ++c) {
      const std::string& s = c < cells.size() ? cells[c] : std::string();
      os << ' ' << s << std::string(width[c] - s.size() + 1, ' ') << '|';
    }
    os << '\n';
  };

  std::ostringstream os;
  emit_sep(os);
  if (!header_.empty()) {
    emit_row(os, header_);
    emit_sep(os);
  }
  for (const Row& r : rows_) {
    if (r.separator) {
      emit_sep(os);
    } else {
      emit_row(os, r.cells);
    }
  }
  emit_sep(os);
  return os.str();
}

}  // namespace lopass
