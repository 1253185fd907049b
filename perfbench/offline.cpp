// pb_offline: input generation for the `spec` workload, through the
// repository's workload library.
//
//   pb_offline tracegen <seed> <out-dir>
//       The 12 workload::spec_profiles() traces from
//       workload::make_trace(profile, seed), each written as a pb_loadgen
//       trace file <i>.trace, plus its patch file <i>.cfg under the paper's
//       protocol (OVERFLOW on the trace's 5 median-frequency CCIDs, for each
//       of malloc, calloc and realloc), and names.tsv.
#include <algorithm>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "workload/alloc_trace.hpp"
#include "workload/spec_profiles.hpp"

namespace {

using namespace pb;

void put_u32(std::string& out, std::uint32_t v) { out.append(reinterpret_cast<char*>(&v), 4); }
void put_u16(std::string& out, std::uint16_t v) { out.append(reinterpret_cast<char*>(&v), 2); }
void put_u64(std::string& out, std::uint64_t v) { out.append(reinterpret_cast<char*>(&v), 8); }

void write_file(const std::string& path, const std::string& data) {
  std::ofstream f(path, std::ios::binary);
  f.write(data.data(), static_cast<std::streamsize>(data.size()));
  if (!f) throw std::runtime_error("cannot write " + path);
}

// Encodes one profile's trace in pb_loadgen's format and its patch file.
void write_profile(const ht::workload::SpecProfile& profile, std::uint64_t seed,
                   const std::string& stem) {
  using ht::workload::TraceOp;
  const ht::workload::Trace trace = ht::workload::make_trace(profile, seed);
  const std::vector<std::uint64_t> hot = ht::workload::median_frequency_ccids(trace, 5);

  std::unordered_map<std::uint64_t, std::uint32_t> site_of;
  std::vector<std::uint64_t> sites;
  for (const TraceOp& op : trace.ops) {
    if (op.kind != TraceOp::Kind::kFree && site_of.emplace(op.ccid, sites.size()).second) {
      sites.push_back(op.ccid);
    }
  }
  if (trace.slot_count > 65536 || sites.size() >= (1u << 14) || sites.empty()) {
    throw std::runtime_error("trace of " + profile.name + " does not fit the trace format");
  }
  std::string out = "PBTR";
  put_u32(out, trace.slot_count);
  put_u32(out, trace.work_per_op);
  put_u32(out, static_cast<std::uint32_t>(sites.size()));
  put_u32(out, static_cast<std::uint32_t>(trace.ops.size()));
  put_u32(out, 0);  // pads the site table to 8 bytes
  for (std::uint64_t ccid : sites) {
    put_u64(out, ccid);
    put_u32(out, std::find(hot.begin(), hot.end(), ccid) != hot.end() ? 1u : 0u);  // OVERFLOW
    put_u32(out, 0);
  }
  for (const TraceOp& op : trace.ops) {
    const std::uint32_t site = op.kind == TraceOp::Kind::kFree ? 0 : site_of[op.ccid];
    put_u32(out, op.size);
    put_u16(out, static_cast<std::uint16_t>(op.slot));
    put_u16(out, static_cast<std::uint16_t>((static_cast<std::uint32_t>(op.kind) << 14) | site));
  }
  write_file(stem + ".trace", out);

  std::string cfg = "version 1\n";
  for (std::uint64_t ccid : hot) {
    for (const char* fn : {"malloc", "calloc", "realloc"}) {
      char line[96];
      std::snprintf(line, sizeof(line), "patch %s 0x%016llx OVERFLOW\n", fn,
                    static_cast<unsigned long long>(ccid));
      cfg += line;
    }
  }
  write_file(stem + ".cfg", cfg);
}

int tracegen(std::uint64_t seed, const std::string& dir) {
  const auto& profiles = ht::workload::spec_profiles();
  // make_trace dominates input generation (seconds for the three
  // allocation-heavy profiles), so the profiles are generated in parallel.
  const unsigned workers = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  std::vector<std::exception_ptr> errors(workers);
  std::vector<std::thread> pool;
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      try {
        for (std::size_t i = w; i < profiles.size(); i += workers) {
          write_profile(profiles[i], seed, dir + "/" + std::to_string(i));
        }
      } catch (...) {
        errors[w] = std::current_exception();
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  std::string names;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    names += std::to_string(i) + "\t" + profiles[i].name + "\n";
  }
  write_file(dir + "/names.tsv", names);
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  if (argc == 4 && std::strcmp(argv[1], "tracegen") == 0) {
    return tracegen(std::strtoull(argv[2], nullptr, 10), argv[3]);
  }
  die("usage: pb_offline tracegen <seed> <out-dir>");
} catch (const std::exception& e) {
  die("pb_offline: %s", e.what());
}
