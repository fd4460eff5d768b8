#include "runner/journal.h"

#include <array>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>

#include "common/error.h"
#include "common/file.h"

namespace lopass::runner {
namespace {

std::array<std::uint32_t, 256> BuildCrcTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

std::string HexCrc(std::uint32_t crc) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", crc);
  return buf;
}

// Finds the start of `"key":` inside a flat record, returning the
// offset just past the colon (skipping spaces), or npos.
std::size_t FindValue(std::string_view record, std::string_view key) {
  std::string needle(1, '"');
  needle += key;
  needle += "\":";
  const std::size_t at = record.find(needle);
  if (at == std::string_view::npos) return std::string_view::npos;
  std::size_t pos = at + needle.size();
  while (pos < record.size() && record[pos] == ' ') ++pos;
  return pos;
}

// Cuts the journal at `path` back to one byte past its last newline,
// dropping the torn final line a crash mid-append leaves behind (the
// reader has already skipped it with a warning), so the next append
// starts a line of its own instead of continuing the fragment. A file
// with no newline is emptied; a missing file is left to fopen.
void CutTornTail(const std::string& path) {
  std::string content;
  if (!ReadFile(path, content, "journal")) return;
  const std::size_t keep = content.rfind('\n') + 1;  // npos + 1 == 0
  if (keep == content.size()) return;
  std::error_code ec;
  std::filesystem::resize_file(path, keep, ec);
  if (ec) {
    throw Error("cannot cut the torn tail of journal '" + path + "': " + ec.message());
  }
}

}  // namespace

std::uint32_t Crc32(std::string_view data) {
  static const std::array<std::uint32_t, 256> kTable = BuildCrcTable();
  std::uint32_t crc = 0xffffffffu;
  for (const char ch : data) {
    crc = kTable[(crc ^ static_cast<unsigned char>(ch)) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

std::optional<std::string> JsonStringField(std::string_view record, std::string_view key) {
  std::size_t pos = FindValue(record, key);
  if (pos == std::string_view::npos || pos >= record.size() || record[pos] != '"') {
    return std::nullopt;
  }
  ++pos;
  std::string out;
  while (pos < record.size() && record[pos] != '"') {
    char ch = record[pos];
    if (ch == '\\' && pos + 1 < record.size()) {
      ++pos;
      const char esc = record[pos];
      switch (esc) {
        case 'n':
          ch = '\n';
          break;
        case 'r':
          ch = '\r';
          break;
        case 't':
          ch = '\t';
          break;
        case 'u': {
          // JsonEscape writes control bytes as \u00XX. Exactly four hex
          // digits; code points past ASCII would need a UTF-8 encoding
          // the dialect never writes, so they count as malformed too.
          unsigned code = 0;
          const std::string_view hex = record.substr(pos + 1, 4);
          const char* last = hex.data() + hex.size();
          const auto [end, ec] = std::from_chars(hex.data(), last, code, 16);
          if (hex.size() != 4 || ec != std::errc() || end != last || code > 0x7f) {
            return std::nullopt;
          }
          ch = static_cast<char>(code);
          pos += 4;
          break;
        }
        default:
          ch = esc;
      }
    }
    out += ch;
    ++pos;
  }
  if (pos >= record.size()) return std::nullopt;  // unterminated string
  return out;
}

std::optional<double> JsonNumberField(std::string_view record, std::string_view key) {
  const std::size_t pos = FindValue(record, key);
  if (pos == std::string_view::npos || pos >= record.size()) return std::nullopt;
  const char first = record[pos];
  if (first != '-' && std::isdigit(static_cast<unsigned char>(first)) == 0) {
    return std::nullopt;
  }
  const std::string text(record.substr(pos, 64));
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || errno == ERANGE) return std::nullopt;
  return value;
}

std::optional<std::int64_t> JsonIntField(std::string_view record, std::string_view key) {
  const std::size_t pos = FindValue(record, key);
  if (pos == std::string_view::npos || pos >= record.size()) return std::nullopt;
  const char first = record[pos];
  if (first != '-' && std::isdigit(static_cast<unsigned char>(first)) == 0) {
    return std::nullopt;
  }
  const std::string text(record.substr(pos, 32));
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || errno == ERANGE) return std::nullopt;
  return static_cast<std::int64_t>(value);
}

std::string WrapRecord(const std::string& record_json) {
  std::ostringstream line;
  line << "{\"crc32\":\"" << HexCrc(Crc32(record_json)) << "\",\"record\":" << record_json << "}";
  return line.str();
}

JournalWriter::JournalWriter(const std::string& path, bool truncate) : path_(path) {
  if (!truncate) CutTornTail(path);
  file_ = std::fopen(path.c_str(), truncate ? "wb" : "ab");
  if (file_ == nullptr) {
    throw Error("cannot open journal '" + path + "': " + std::strerror(errno));
  }
}

JournalWriter::~JournalWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void JournalWriter::Append(const std::string& record_json) {
  const std::string line = WrapRecord(record_json) + "\n";
  std::lock_guard<std::mutex> lock(mu_);
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
      std::fflush(file_) != 0) {
    throw Error("cannot append to journal '" + path_ + "': " + std::strerror(errno));
  }
  lines_written_.fetch_add(1, std::memory_order_acq_rel);
}

JournalLoad LoadJournal(const std::string& path) {
  JournalLoad load;
  std::string content;
  if (!ReadFile(path, content, "journal")) return load;  // no journal yet: fresh start

  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start < content.size()) {
    std::size_t end = content.find('\n', start);
    const bool torn = end == std::string::npos;  // no trailing newline: interrupted append
    if (torn) end = content.size();
    const std::string_view line(content.data() + start, end - start);
    ++line_no;
    start = end + 1;
    if (line.empty()) continue;

    const auto warn = [&](const std::string& why) {
      ++load.corrupt;
      load.warnings.push_back("journal '" + path + "' line " + std::to_string(line_no) +
                              ": " + why + "; skipping");
    };

    // Wrapper shape: {"crc32":"xxxxxxxx","record":<payload>}
    static constexpr std::string_view kPrefix = "{\"crc32\":\"";
    static constexpr std::string_view kMid = "\",\"record\":";
    if (torn) {
      warn("truncated final line (no newline)");
      continue;
    }
    if (line.substr(0, kPrefix.size()) != kPrefix ||
        line.size() < kPrefix.size() + 8 + kMid.size() + 1 || line.back() != '}') {
      warn("malformed wrapper");
      continue;
    }
    const std::string_view crc_hex = line.substr(kPrefix.size(), 8);
    if (line.substr(kPrefix.size() + 8, kMid.size()) != kMid) {
      warn("malformed wrapper");
      continue;
    }
    const std::string_view record =
        line.substr(kPrefix.size() + 8 + kMid.size(),
                    line.size() - kPrefix.size() - 8 - kMid.size() - 1);
    std::uint32_t expect = 0;
    {
      const std::string hex(crc_hex);
      errno = 0;
      char* endp = nullptr;
      const unsigned long parsed = std::strtoul(hex.c_str(), &endp, 16);
      if (endp != hex.c_str() + 8 || errno == ERANGE) {
        warn("malformed checksum");
        continue;
      }
      expect = static_cast<std::uint32_t>(parsed);
    }
    if (Crc32(record) != expect) {
      warn("checksum mismatch (corrupt record)");
      continue;
    }
    load.records.emplace_back(record);
  }
  if (load.corrupt > 0) {
    load.warnings.push_back("journal '" + path + "': skipped " +
                            std::to_string(load.corrupt) + " corrupt records");
  }
  return load;
}

}  // namespace lopass::runner
