#pragma once

/// \file csv.h
/// Minimal CSV reading/writing used for trace import/export and bench output.
///
/// Supports the RFC-4180 subset MooD needs: comma separator, optional
/// double-quote quoting with "" escapes, one record per line, optional
/// header row. No embedded newlines inside quoted fields (mobility exports
/// never contain them).
///
/// The parser is the gateway's first line of defence against hostile or
/// truncated input (fuzzed rows reach it via `mood replay --input`), so it
/// rejects two classes a well-formed export can never produce: embedded
/// NUL bytes (binary garbage spliced into a text file) and fields longer
/// than kMaxCsvFieldBytes (a missing delimiter turning the rest of the
/// file into one "field"). Both throw typed IoError, never truncate.

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace mood::support {

/// Upper bound on one field's decoded length. Far above any real trace
/// field (user ids, coordinates, timestamps) yet small enough to stop a
/// quote-desync from swallowing a whole file into one allocation.
inline constexpr std::size_t kMaxCsvFieldBytes = 64 * 1024;

/// Splits one CSV line into fields, honouring double-quote quoting.
/// Throws IoError on unterminated quotes, embedded NUL bytes, and fields
/// longer than kMaxCsvFieldBytes.
std::vector<std::string> parse_csv_line(std::string_view line);

/// Joins fields into a CSV line, quoting any field containing a comma,
/// quote, line feed or carriage return, or leading/trailing space.
/// parse_csv_line reads back the same fields for any non-empty field list
/// without '\n' or NUL bytes.
std::string format_csv_line(const std::vector<std::string>& fields);

/// Reads an entire CSV document from a stream. Skips blank lines.
/// Throws IoError on malformed content.
std::vector<std::vector<std::string>> read_csv(std::istream& in);

/// Reads an entire CSV file from disk. Throws IoError if unreadable.
std::vector<std::vector<std::string>> read_csv_file(const std::string& path);

/// Writes rows to a stream as CSV.
void write_csv(std::ostream& out,
               const std::vector<std::vector<std::string>>& rows);

/// Writes rows to a file on disk. Throws IoError on failure.
void write_csv_file(const std::string& path,
                    const std::vector<std::vector<std::string>>& rows);

}  // namespace mood::support
