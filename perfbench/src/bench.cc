#include "src/bench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "util/hash.h"
#include "workloads/tpch.h"

namespace perfbench {

void Report::Set(const std::string& name, double value,
                 const std::string& unit, uint64_t samples) {
  std::lock_guard<std::mutex> lock(mutex_);
  metrics_[name] = MetricValue{value, unit, samples};
}

double Report::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = metrics_.find(name);
  return it == metrics_.end() ? 0 : it->second.value;
}

std::map<std::string, MetricValue> Report::metrics() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return metrics_;
}

void Report::Check(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failed_ <= 20) std::cerr << "perfbench: check failed: " << what << "\n";
}

bool Report::CheckStatus(const pdgf::Status& status, const std::string& what) {
  Check(status.ok(), what + ": " + status.ToString());
  return status.ok();
}

void Report::Absorb(const Report& other,
                    const std::vector<std::string>& prefixes) {
  const std::map<std::string, MetricValue> theirs = other.metrics();
  const uint64_t attempted = other.attempted();
  const uint64_t failed = other.failed();
  std::lock_guard<std::mutex> lock(mutex_);
  attempted_ += attempted;
  failed_ += failed;
  for (const auto& [name, metric] : theirs) {
    for (const std::string& prefix : prefixes) {
      if (name.compare(0, prefix.size(), prefix) == 0) {
        metrics_.emplace(name, metric);
        break;
      }
    }
  }
}

uint64_t Report::attempted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return attempted_;
}

uint64_t Report::failed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failed_;
}

pdgf::StatusOr<std::unique_ptr<Model>> BuildTpchModel(const std::string& sf) {
  auto model = std::make_unique<Model>();
  model->schema = workloads::BuildTpchSchema();
  auto session =
      pdgf::GenerationSession::Create(&model->schema, {{"SF", sf}});
  if (!session.ok()) return session.status();
  model->session = std::move(session).value();
  return model;
}

std::vector<std::string> TableNames(const pdgf::SchemaDef& schema) {
  std::vector<std::string> names;
  for (const pdgf::TableDef& table : schema.tables) names.push_back(table.name);
  return names;
}

namespace {

// Reads one "Key:   value kB" line of /proc/<pid>/status.
double ProcStatusKb(pid_t pid, const std::string& key) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size() + 1, key + ":") == 0) {
      return std::strtod(line.c_str() + key.size() + 1, nullptr);
    }
  }
  return 0;
}

}  // namespace

double PeakRssMb(pid_t pid) { return ProcStatusKb(pid, "VmHWM") / 1024.0; }

void CpuSeconds(pid_t pid, double* user, double* sys) {
  *user = *sys = 0;
  if (pid == 0) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    *user = static_cast<double>(usage.ru_utime.tv_sec) +
            static_cast<double>(usage.ru_utime.tv_usec) / 1e6;
    *sys = static_cast<double>(usage.ru_stime.tv_sec) +
           static_cast<double>(usage.ru_stime.tv_usec) / 1e6;
    return;
  }
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields overall, i.e. the 12th and 13th after it.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
  for (int i = 1; i <= 13 && fields >> field; ++i) {
    if (i == 12) *user = std::strtod(field.c_str(), nullptr) / ticks;
    if (i == 13) *sys = std::strtod(field.c_str(), nullptr) / ticks;
  }
}

uint64_t FileBytes(const std::string& path) {
  std::error_code error;
  const auto size = std::filesystem::file_size(path, error);
  return error ? 0 : static_cast<uint64_t>(size);
}

uint64_t TreeBytes(const std::string& dir, const std::string& suffix) {
  uint64_t total = 0;
  std::error_code error;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, error)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (!suffix.empty() &&
        (name.size() < suffix.size() ||
         name.compare(name.size() - suffix.size(), suffix.size(),
                      suffix) != 0)) {
      continue;
    }
    total += static_cast<uint64_t>(entry.file_size());
  }
  return total;
}

std::string HashFileHex(const std::string& path) {
  FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return "missing";
  pdgf::ByteStreamHash hash;
  std::vector<char> buffer(1 << 20);
  size_t got = 0;
  while ((got = std::fread(buffer.data(), 1, buffer.size(), file)) > 0) {
    hash.Update(std::string_view(buffer.data(), got));
  }
  std::fclose(file);
  return hash.Finish().Hex();
}

std::map<std::string, std::string> ReadExpected(const std::string& path) {
  std::map<std::string, std::string> values;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    values[line.substr(0, space)] = line.substr(space + 1);
  }
  return values;
}

bool WriteExpected(const std::string& path,
                   const std::map<std::string, std::string>& values,
                   const std::string& header) {
  std::ofstream out(path, std::ios::trunc);
  out << "# " << header << "\n";
  for (const auto& [key, value] : values) out << key << " " << value << "\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
