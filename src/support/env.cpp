#include "support/env.h"

#include <cstdlib>
#include <stdexcept>

#include "support/record_reader.h"

namespace aheft {

std::string to_string(Scale scale) {
  switch (scale) {
    case Scale::kSmoke:
      return "smoke";
    case Scale::kDefault:
      return "default";
    case Scale::kPaper:
      return "paper";
  }
  return "unknown";
}

std::optional<Scale> parse_scale(const std::string& text) {
  if (text == "smoke") return Scale::kSmoke;
  if (text == "default") return Scale::kDefault;
  if (text == "paper" || text == "full") return Scale::kPaper;
  return std::nullopt;
}

std::optional<std::string> get_env(const std::string& name) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr || *value == '\0') {
    return std::nullopt;
  }
  return std::string(value);
}

std::optional<std::uint64_t> parse_unsigned(std::string_view text) {
  // An unsigned target takes no sign, and overflow is reported, not
  // wrapped.
  return parse_number<std::uint64_t>(text);
}

ArgParser::ArgParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        options_[arg.substr(2)] = "";
      } else {
        options_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    } else {
      positional_.push_back(arg);
    }
  }
}

bool ArgParser::has(const std::string& name) const {
  return options_.count(name) > 0;
}

std::string ArgParser::get(const std::string& name,
                           const std::string& fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end() || it->second.empty()) {
    return fallback;
  }
  return it->second;
}

std::int64_t ArgParser::get_int(const std::string& name,
                                std::int64_t fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end() || it->second.empty()) {
    return fallback;
  }
  return std::stoll(it->second);
}

double ArgParser::get_double(const std::string& name, double fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end() || it->second.empty()) {
    return fallback;
  }
  return std::stod(it->second);
}

Scale ArgParser::scale() const {
  if (const auto it = options_.find("scale"); it != options_.end()) {
    if (const auto parsed = parse_scale(it->second)) {
      return *parsed;
    }
    throw std::invalid_argument("unknown --scale value: " + it->second);
  }
  if (const auto env = get_env("AHEFT_SCALE")) {
    if (const auto parsed = parse_scale(*env)) {
      return *parsed;
    }
  }
  return Scale::kDefault;
}

}  // namespace aheft
