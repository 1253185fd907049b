// Helpers shared by pb_loadgen and pb_offline: the clock, fatal errors,
// bookkeeping memory, the JSON result line, order statistics and the span
// file of a traced run.
//
// Nothing here calls the interposed malloc family: bookkeeping memory comes
// from glibc's __libc_calloc and output goes through write(2), so under the
// preload shim the load generator makes no call it does not count.
#pragma once

#include <fcntl.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdarg>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

extern "C" {
void* __libc_malloc(size_t);
void* __libc_calloc(size_t, size_t);
void* __libc_realloc(void*, size_t);
void __libc_free(void*);
}

namespace pb {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;

inline u64 now_ns() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<u64>(ts.tv_sec) * 1000000000ULL + static_cast<u64>(ts.tv_nsec);
}

// Prints the message and a newline to standard error and exits with code 2.
[[noreturn]] inline void die(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf) - 1, fmt, ap);
  va_end(ap);
  const size_t len = n < 0 ? 0 : std::min<size_t>(static_cast<size_t>(n), sizeof(buf) - 2);
  buf[len] = '\n';
  (void)!write(2, buf, len + 1);
  _exit(2);
}

// Zeroed bookkeeping memory from glibc, outside the shim.
template <class T>
T* native_array(size_t n) {
  void* p = __libc_calloc(n, sizeof(T));
  if (p == nullptr) die("perfbench: out of memory");
  return static_cast<T*>(p);
}

// As native_array, with every page faulted in now, so that bookkeeping
// memory counts in the pre-run RSS baseline and not in the run's growth.
template <class T>
T* touched_array(size_t n) {
  T* p = native_array<T>(n);
  std::memset(static_cast<void*>(p), 0, n * sizeof(T));
  return p;
}

inline void write_all(int fd, const char* p, size_t n) {
  while (n > 0) {
    const ssize_t w = write(fd, p, n);
    if (w <= 0) die("perfbench: write failed");
    p += w;
    n -= static_cast<size_t>(w);
  }
}

// A field of /proc/self/status in KiB ("VmRSS:", "VmHWM:").
inline u64 rss_kib(const char* field) {
  char buf[4096];
  const int fd = open("/proc/self/status", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return 0;
  const ssize_t n = read(fd, buf, sizeof(buf) - 1);
  close(fd);
  if (n <= 0) return 0;
  buf[n] = '\0';
  const char* p = std::strstr(buf, field);
  return p != nullptr ? std::strtoull(p + std::strlen(field), nullptr, 10) : 0;
}

// The result line: one flat JSON object of numbers and number arrays,
// written to standard output with write(2).
class JsonOut {
 public:
  JsonOut() : buf_(native_array<char>(kCap)) { put("{"); }
  ~JsonOut() { __libc_free(buf_); }
  JsonOut(const JsonOut&) = delete;
  JsonOut& operator=(const JsonOut&) = delete;

  void num(const char* key, double v) { put("%s\"%s\": %.9g", sep(), key, v); }
  void num(const char* key, u64 v) {
    put("%s\"%s\": %llu", sep(), key, static_cast<unsigned long long>(v));
  }
  void array(const char* key, const u64* v, size_t n) {
    put("%s\"%s\": [", sep(), key);
    for (size_t i = 0; i < n; ++i) {
      put("%s%llu", i == 0 ? "" : ", ", static_cast<unsigned long long>(v[i]));
    }
    put("]");
  }
  void emit() {
    put("}\n");
    write_all(1, buf_, len_);
  }

 private:
  static constexpr size_t kCap = 1 << 16;
  const char* sep() {
    const char* s = first_ ? "" : ", ";
    first_ = false;
    return s;
  }
  void put(const char* fmt, ...) {
    va_list ap;
    va_start(ap, fmt);
    const int n = std::vsnprintf(buf_ + len_, kCap - len_, fmt, ap);
    va_end(ap);
    if (n < 0 || len_ + static_cast<size_t>(n) >= kCap) die("perfbench: output overflow");
    len_ += static_cast<size_t>(n);
  }
  char* buf_;
  size_t len_ = 0;
  bool first_ = true;
};

// Order statistics of n values; both sort v in place. quantile_of takes the
// value at rank floor(q * (n - 1)).
template <class T>
double quantile_of(T* v, size_t n, double q) {
  if (n == 0) return 0;
  std::sort(v, v + n);
  return static_cast<double>(v[static_cast<size_t>(q * static_cast<double>(n - 1))]);
}

template <class T>
double median_of(T* v, size_t n) {
  if (n == 0) return 0;
  std::sort(v, v + n);
  return n % 2 ? static_cast<double>(v[n / 2])
               : (static_cast<double>(v[n / 2 - 1]) + static_cast<double>(v[n / 2])) / 2;
}

// Host contention only ever adds time, and on a shared machine it comes and
// goes within seconds. An absolute figure is therefore taken from the
// fastest tenth of its samples: the 10th percentile of times, or the 90th
// of rates. A ratio of interleaved arms is their median.
constexpr double kFastShare = 0.10;

// Per-window values of a run.
template <u32 kCap>
struct Series {
  double v[kCap];
  u32 n;
  void add(double x) {
    if (n < kCap) v[n++] = x;
  }
  void append(const Series& o) {
    for (u32 i = 0; i < o.n; ++i) add(o.v[i]);
  }
  double median() { return median_of(v, n); }
  double fast_time() { return quantile_of(v, n, kFastShare); }
  double fast_rate() { return quantile_of(v, n, 1 - kFastShare); }
};

// ---- Spans of a traced run ----
// A request or trace replay is a parent span (parent == kNoParent); each
// call into an interposed allocation function is its child. Each thread
// keeps up to kSpanCap spans in preallocated memory; later spans are
// aggregated only.
struct Span {
  u64 start_ns;
  u64 dur_ns;
  u32 parent;
  u32 kind;  // index into the writer's name table
};
constexpr u32 kNoParent = ~u32{0};
constexpr u32 kSpanCap = 1 << 16;

struct Spans {
  Span* buf = nullptr;  // kSpanCap entries; null when not traced
  u32 n = 0;
  void enable() { buf = touched_array<Span>(kSpanCap); }
  u32 add(u32 parent, u32 kind, u64 start, u64 dur) {
    if (buf == nullptr || n >= kSpanCap) return kNoParent;
    buf[n] = {start, dur, parent, kind};
    return n++;
  }
  void close(u32 id, u64 end) {
    if (id != kNoParent) buf[id].dur_ns = end - buf[id].start_ns;
  }
};

// Writes the span file: a header, then one line per span with the columns
// thread, id, parent (-1 for a parent span), name, start_ns and dur_ns.
inline void write_spans(const char* path, const Spans* spans, u32 threads,
                        const char* const* names) {
  if (path == nullptr || std::strcmp(path, "-") == 0) return;
  const int fd = open(path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) die("perfbench: cannot write %s", path);
  const char* head = "thread\tid\tparent\tname\tstart_ns\tdur_ns\n";
  write_all(fd, head, std::strlen(head));
  char line[160];
  for (u32 t = 0; t < threads; ++t) {
    for (u32 i = 0; i < spans[t].n; ++i) {
      const Span& s = spans[t].buf[i];
      const int n = std::snprintf(line, sizeof(line), "%u\t%u\t%d\t%s\t%llu\t%llu\n", t, i,
                                  s.parent == kNoParent ? -1 : static_cast<int>(s.parent),
                                  names[s.kind], static_cast<unsigned long long>(s.start_ns),
                                  static_cast<unsigned long long>(s.dur_ns));
      write_all(fd, line, static_cast<size_t>(n));
    }
  }
  close(fd);
}

}  // namespace pb
