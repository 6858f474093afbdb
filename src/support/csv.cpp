#include "support/csv.h"

#include <fstream>
#include <sstream>

#include "support/error.h"

namespace mood::support {

std::vector<std::string> parse_csv_line(std::string_view line) {
  // CRLF tolerance: std::getline splits on '\n' only, so every line of a
  // Windows-exported file (streamed event logs included) arrives with a
  // trailing '\r'. Strip exactly that one; a '\r' anywhere else is field
  // content and is preserved.
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '\0') throw IoError("CSV: embedded NUL byte");
    if (current.size() >= kMaxCsvFieldBytes) {
      throw IoError("CSV: field exceeds " +
                    std::to_string(kMaxCsvFieldBytes) + " bytes");
    }
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (in_quotes) throw IoError("CSV: unterminated quoted field");
  fields.push_back(std::move(current));
  return fields;
}

std::string format_csv_line(const std::vector<std::string>& fields) {
  std::string line;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) line.push_back(',');
    const std::string& f = fields[i];
    // '\r' is quoted too: parse_csv_line strips one trailing '\r' from
    // an unquoted line, which would drop it from a last field.
    const bool needs_quoting =
        f.find_first_of(",\"\n\r") != std::string::npos ||
        (!f.empty() && (f.front() == ' ' || f.back() == ' '));
    if (needs_quoting) {
      line.push_back('"');
      for (char c : f) {
        if (c == '"') line.push_back('"');
        line.push_back(c);
      }
      line.push_back('"');
    } else {
      line += f;
    }
  }
  return line;
}

std::vector<std::vector<std::string>> read_csv(std::istream& in) {
  std::vector<std::vector<std::string>> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line == "\r") continue;
    rows.push_back(parse_csv_line(line));
  }
  return rows;
}

std::vector<std::vector<std::string>> read_csv_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw IoError("CSV: cannot open for reading: " + path);
  return read_csv(in);
}

void write_csv(std::ostream& out,
               const std::vector<std::vector<std::string>>& rows) {
  for (const auto& row : rows) out << format_csv_line(row) << '\n';
}

void write_csv_file(const std::string& path,
                    const std::vector<std::vector<std::string>>& rows) {
  std::ofstream out(path);
  if (!out) throw IoError("CSV: cannot open for writing: " + path);
  write_csv(out, rows);
  if (!out) throw IoError("CSV: write failed: " + path);
}

}  // namespace mood::support
