// CSV writing for dataset export: RFC-4180 quoting (fields holding a comma,
// quote or line break are quoted, embedded quotes doubled), LF line ends.
#pragma once

#include <string>
#include <vector>

namespace memfp {

class CsvWriter {
 public:
  explicit CsvWriter(std::vector<std::string> header);

  void add_row(std::vector<std::string> row);
  std::size_t rows() const { return rows_.size(); }

  std::string to_string() const;
  /// Writes to the given path; throws std::runtime_error on IO failure.
  void save(const std::string& path) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace memfp
