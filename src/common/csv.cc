#include "common/csv.h"

#include <fstream>
#include <stdexcept>

namespace memfp {
namespace {

bool needs_quoting(const std::string& field) {
  return field.find_first_of(",\"\n\r") != std::string::npos;
}

std::string encode_field(const std::string& field) {
  if (!needs_quoting(field)) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void encode_row(std::string& out, const std::vector<std::string>& row) {
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i != 0) out += ',';
    out += encode_field(row[i]);
  }
  out += '\n';
}

}  // namespace

CsvWriter::CsvWriter(std::vector<std::string> header)
    : header_(std::move(header)) {}

void CsvWriter::add_row(std::vector<std::string> row) {
  if (row.size() != header_.size()) {
    throw std::runtime_error("CsvWriter: row width " +
                             std::to_string(row.size()) +
                             " != header width " +
                             std::to_string(header_.size()));
  }
  rows_.push_back(std::move(row));
}

std::string CsvWriter::to_string() const {
  std::string out;
  encode_row(out, header_);
  for (const auto& row : rows_) encode_row(out, row);
  return out;
}

void CsvWriter::save(const std::string& path) const {
  std::ofstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("CsvWriter: cannot open " + path);
  file << to_string();
  if (!file) throw std::runtime_error("CsvWriter: write failed for " + path);
}

}  // namespace memfp
