// pb_loadgen: the benchmark's load generator.
//
// It runs with libheaptherapy_preload.so in LD_PRELOAD and reaches the
// runtime only the way a deployed host does: through the interposed malloc
// family and the `ht_cc_current` calling-context register, which it looks
// up at run time. Each workload runs two arms in this one process over the
// same generated inputs:
//   protected - malloc/calloc/realloc/free as the dynamic linker resolves
//               them, i.e. the shim's;
//   native    - glibc's __libc_malloc/__libc_calloc/__libc_realloc/
//               __libc_free, which the shim itself forwards to.
// The arms alternate in chunks, so host drift cancels in their ratio.
// Both arms call through function pointers, which also keeps the compiler
// from eliding malloc/free pairs: every call the generator counts is a call
// the shim sees, and the driver checks the shim's exit dump against these
// counts.
//
// The generator's own memory (inputs, histograms, span buffers) comes from
// the native arm and it prints through write(2), so the shim sees no call
// the generator does not count.
//
// Modes (input files are written by perfbench/run.py and pb_offline):
//   pb_loadgen ready <fd>        exit at the ready point, after one byte to fd
//   pb_loadgen probe <spawns> <shim.so>
//   pb_loadgen idle <threads>    start and join threads, issue no call
//   pb_loadgen service <inputs> <seconds> <trace 0|1> <spans-file>
//   pb_loadgen spec <trace-file> <seconds> <trace 0|1> <spans-file>
// Every mode but `ready` prints one JSON object of results as the last line
// of standard output.
#include <dlfcn.h>
#include <pthread.h>
#include <sched.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>

#include <atomic>

#include "common.hpp"

extern "C" {
extern char** environ;
}

namespace {

using namespace pb;

// Patch-mask bits of a context, as the patch file spells them.
constexpr u32 kOverflow = 1;
constexpr u32 kUaf = 2;
constexpr u32 kUninit = 4;

// Log-linear histogram: 128 linear sub-buckets per power of two, so a
// percentile is exact to within 0.8% without keeping samples.
class Hist {
 public:
  void add(u64 v) {
    ++counts_[index(v)];
    ++n_;
  }
  void merge(const Hist& o) {
    for (u32 i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
  }
  [[nodiscard]] u64 count() const { return n_; }
  void reset() { std::memset(this, 0, sizeof(*this)); }
  // Value at quantile q: the midpoint of the bucket holding that rank.
  [[nodiscard]] double quantile(double q) const {
    if (n_ == 0) return 0;
    const u64 rank = static_cast<u64>(q * static_cast<double>(n_ - 1));
    u64 seen = 0;
    for (u32 i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen > rank) return midpoint(i);
    }
    return midpoint(kBuckets - 1);
  }

 private:
  static constexpr u32 kSub = 128;
  static constexpr u32 kBuckets = 44 * kSub;
  static u32 index(u64 v) {
    if (v < kSub) return static_cast<u32>(v);
    const u32 e = 63 - static_cast<u32>(__builtin_clzll(v));  // >= 7
    const u32 i = (e - 6) * kSub + static_cast<u32>((v >> (e - 7)) & (kSub - 1));
    return std::min(i, kBuckets - 1);
  }
  static double midpoint(u32 i) {
    if (i < kSub) return i;
    const u32 shift = i / kSub - 1;
    const double lo = static_cast<double>((u64{kSub} + i % kSub) << shift);
    return lo + static_cast<double>(u64{1} << shift) / 2;
  }
  // No initializers: histograms live in zeroed native-arm memory.
  u64 counts_[kBuckets];
  u64 n_;
};

// ---- The two arms ----
struct Arm {
  void* (*malloc)(size_t);
  void* (*calloc)(size_t, size_t);
  void* (*realloc)(void*, size_t);
  void (*free)(void*);
};

const Arm kNativeArm = {&__libc_malloc, &__libc_calloc, &__libc_realloc, &__libc_free};
Arm g_protected_arm;

// The calling thread's context register: the shim's TLS `ht_cc_current`
// when the shim is loaded, else a stand-in so the run still completes (the
// driver then finds no exit dump and fails the run).
thread_local u64 t_cc_standin = 0;
bool g_shim_present = false;  // written once, before any thread starts

u64* resolve_cc_register() {
  void* p = dlsym(RTLD_DEFAULT, "ht_cc_current");
  return p != nullptr ? static_cast<u64*>(p) : &t_cc_standin;
}

void resolve_protected_arm() {
  Arm& arm = g_protected_arm;
  arm.malloc = reinterpret_cast<void* (*)(size_t)>(dlsym(RTLD_DEFAULT, "malloc"));
  arm.calloc = reinterpret_cast<void* (*)(size_t, size_t)>(dlsym(RTLD_DEFAULT, "calloc"));
  arm.realloc = reinterpret_cast<void* (*)(void*, size_t)>(dlsym(RTLD_DEFAULT, "realloc"));
  arm.free = reinterpret_cast<void (*)(void*)>(dlsym(RTLD_DEFAULT, "free"));
  if (!arm.malloc || !arm.calloc || !arm.realloc || !arm.free) {
    die("pb_loadgen: cannot resolve the malloc family");
  }
  g_shim_present = resolve_cc_register() != &t_cc_standin;
}

// ---- Inputs ----
struct Site {
  u64 ccid;
  u32 mask;  // patch mask the driver gave this context
  u32 pad;
};

struct Blob {
  const u8* data = nullptr;
  size_t size = 0;
};

Blob read_file(const char* path) {
  const int fd = open(path, O_RDONLY | O_CLOEXEC);
  if (fd < 0) die("pb_loadgen: cannot open %s", path);
  struct stat st;
  if (fstat(fd, &st) != 0) die("pb_loadgen: cannot stat %s", path);
  const size_t n = static_cast<size_t>(st.st_size);
  u8* buf = native_array<u8>(n + 1);
  size_t off = 0;
  while (off < n) {
    const ssize_t r = read(fd, buf + off, n - off);
    if (r <= 0) die("pb_loadgen: cannot read %s", path);
    off += static_cast<size_t>(r);
  }
  close(fd);
  return {buf, n};
}

// Bounds-checked reader over an input file.
class Reader {
 public:
  explicit Reader(Blob b) : b_(b) {}
  template <class T>
  const T* take(size_t count) {
    if (count > (b_.size - off_) / sizeof(T)) die("pb_loadgen: truncated input");
    if (off_ % alignof(T) != 0) die("pb_loadgen: misaligned input");
    const T* p = reinterpret_cast<const T*>(b_.data + off_);
    off_ += count * sizeof(T);
    return p;
  }
  u32 u32v() {
    u32 v;
    std::memcpy(&v, take<u8>(4), 4);
    return v;
  }
  void expect_magic(const char* magic) {
    if (std::memcmp(take<char>(4), magic, 4) != 0) die("pb_loadgen: bad input magic");
  }
  [[nodiscard]] bool done() const { return off_ == b_.size; }

 private:
  Blob b_;
  size_t off_ = 0;
};

// ---- Per-call classes: the runtime path a protected call takes, by the
// patch mask of its context.
enum CallClass : u32 {
  kMallocPlain,
  kCallocPlain,
  kReallocPlain,
  kFreePlain,
  kMallocGuard,
  kFreeGuard,
  kMallocZero,
  kFreeQuarantine,
  kOtherProtected,  // enhanced, but none of the paths above (UAF malloc)
  kNativeMalloc,
  kNativeFree,
  kNativeOther,
  kClassCount
};
// Span names: the call classes, then the parent span of a request or replay.
constexpr u32 kOpSpan = kClassCount;
const char* const kSpanNames[kClassCount + 1] = {
    "malloc_plain", "calloc_plain", "realloc_plain", "free_plain",
    "malloc_guard", "free_guard",   "malloc_zero",   "free_quarantine",
    "other",        "native_malloc", "native_free",  "native_other",
    "op"};

enum Fn : u32 { kFnMalloc, kFnCalloc, kFnRealloc };

CallClass alloc_class(bool prot, Fn fn, u32 mask) {
  if (!prot) return fn == kFnMalloc ? kNativeMalloc : kNativeOther;
  if (mask & kOverflow) return kMallocGuard;
  if (mask & kUninit) return kMallocZero;
  if (mask != 0) return kOtherProtected;
  return fn == kFnMalloc ? kMallocPlain : fn == kFnCalloc ? kCallocPlain : kReallocPlain;
}

CallClass free_class(bool prot, u32 mask) {
  if (!prot) return kNativeFree;
  if (mask & kUaf) return kFreeQuarantine;
  if (mask & kOverflow) return kFreeGuard;
  return kFreePlain;
}

// Latency percentiles are taken per window: one client's protected chunk of
// a round (one CPU), or one replay in spec.
constexpr u32 kWindowCap = 1 << 15;
constexpr u32 kRoundCap = 1 << 16;

// What one measuring phase (untraced or traced) of one thread records.
// Lives in zeroed memory, so it has no initializers.
struct Phase {
  Hist window;  // protected per-op latency of the open window (ns)
  Series<kWindowCap> win_p50, win_p99;
  u64 samples;  // latency samples over all windows
  u64 p_ns;     // protected time inside requests / replays
  u64 n_ns;     // native time over the same inputs
  u64 ops;      // protected requests (service) or replays (spec)
  u64 round_p_ns, round_n_ns;  // the current round's share of p_ns / n_ns
  // Traced only.
  Hist calls[kClassCount];
  Hist self;    // protected request time minus its calls (ns)
  u64 busy_ns;

  void close_window() {
    if (window.count() == 0) return;
    win_p50.add(window.quantile(0.50));
    win_p99.add(window.quantile(0.99));
    samples += window.count();
    window.reset();
  }
};

// The gate's view: calls the protected arm issued, by the defense the
// shim should apply to each.
struct Issued {
  u64 malloc = 0, calloc = 0, realloc = 0, realloc_moved = 0, free = 0;
  u64 enhanced = 0, guard = 0, zero = 0, quarantine = 0;
  u64 nulls = 0, mismatches = 0, checks = 0;
  void add(const Issued& o) {
    malloc += o.malloc;
    calloc += o.calloc;
    realloc += o.realloc;
    realloc_moved += o.realloc_moved;
    free += o.free;
    enhanced += o.enhanced;
    guard += o.guard;
    zero += o.zero;
    quarantine += o.quarantine;
    nulls += o.nulls;
    mismatches += o.mismatches;
    checks += o.checks;
  }
};

// The allocator interface a request or replay sees: one arm, the context
// register, and, when traced, a timed child span around every call.
template <bool kTraced>
class Heap {
 public:
  Heap(const Arm& arm, bool prot, u64* cc, const Site* sites, Issued& issued,
       Phase* phase, Spans& spans)
      : arm_(arm), prot_(prot), cc_(cc), sites_(sites), issued_(issued),
        phase_(phase), spans_(spans) {}

  void* alloc(Fn fn, u32 site, size_t n, void* old = nullptr) {
    const Site& s = sites_[site];
    *cc_ = s.ccid;
    const u64 t0 = kTraced ? now_ns() : 0;
    void* p = fn == kFnMalloc   ? arm_.malloc(n)
              : fn == kFnCalloc ? arm_.calloc(1, n)
                                : arm_.realloc(old, n);
    if (kTraced) record(alloc_class(prot_, fn, s.mask), t0);
    if (p == nullptr) ++issued_.nulls;
    if (prot_) {
      (fn == kFnMalloc ? issued_.malloc : fn == kFnCalloc ? issued_.calloc : issued_.realloc)++;
      if (fn == kFnRealloc && old != nullptr && p != nullptr) ++issued_.realloc_moved;
      if (s.mask != 0) ++issued_.enhanced;
      if (s.mask & kOverflow) {
        ++issued_.guard;
      } else if (s.mask & kUninit) {
        ++issued_.zero;
      }
    }
    return p;
  }

  void free(u32 site, void* p) {
    if (p == nullptr) return;
    const u32 mask = sites_[site].mask;
    const u64 t0 = kTraced ? now_ns() : 0;
    arm_.free(p);
    if (kTraced) record(free_class(prot_, mask), t0);
    if (prot_) {
      ++issued_.free;
      if (mask & kUaf) ++issued_.quarantine;
    }
  }

  // Brackets one request or replay: the parent span.
  void begin(u64 start) {
    if (kTraced) {
      parent_ = prot_ ? spans_.add(kNoParent, kOpSpan, start, 0) : kNoParent;
      busy_at_begin_ = phase_->busy_ns;
    }
  }
  void end(u64 start, u64 end) {
    if (kTraced && prot_) {
      spans_.close(parent_, end);
      phase_->self.add(end - start - (phase_->busy_ns - busy_at_begin_));
    }
  }

 private:
  void record(CallClass cls, u64 t0) {
    const u64 dur = now_ns() - t0;
    phase_->calls[cls].add(dur);
    if (prot_) {
      phase_->busy_ns += dur;
      if (parent_ != kNoParent) spans_.add(parent_, cls, t0, dur);
    }
  }

  const Arm& arm_;
  bool prot_;
  u64* cc_;
  const Site* sites_;
  Issued& issued_;
  Phase* phase_;
  Spans& spans_;
  u32 parent_ = kNoParent;
  u64 busy_at_begin_ = 0;
};

void emit_phase(JsonOut& out, const char* prefix, Phase& ph, bool traced) {
  char key[96];
  const auto k = [&](const char* name) {
    std::snprintf(key, sizeof(key), "%s%s", prefix, name);
    return key;
  };
  out.num(k("ops"), ph.ops);
  out.num(k("p_ns"), ph.p_ns);
  out.num(k("n_ns"), ph.n_ns);
  out.num(k("lat_samples"), ph.samples);
  out.num(k("lat_windows"), u64{ph.win_p50.n});
  out.num(k("lat_p50_ns"), ph.win_p50.fast_time());
  out.num(k("lat_p99_ns"), ph.win_p99.fast_time());
  if (!traced) return;
  for (u32 c = 0; c < kClassCount; ++c) {
    char name[64];
    std::snprintf(name, sizeof(name), "%s_n", kSpanNames[c]);
    out.num(k(name), ph.calls[c].count());
    std::snprintf(name, sizeof(name), "%s_p50_ns", kSpanNames[c]);
    out.num(k(name), ph.calls[c].quantile(0.50));
    std::snprintf(name, sizeof(name), "%s_p99_ns", kSpanNames[c]);
    out.num(k(name), ph.calls[c].quantile(0.99));
  }
  out.num(k("busy_ns"), ph.busy_ns);
  out.num(k("self_p50_ns"), ph.self.quantile(0.50));
}

void emit_issued(JsonOut& out, const Issued& is) {
  out.num("shim", u64{g_shim_present ? 1u : 0u});
  out.num("issued_malloc", is.malloc);
  out.num("issued_calloc", is.calloc);
  out.num("issued_realloc", is.realloc);
  out.num("issued_realloc_moved", is.realloc_moved);
  out.num("issued_free", is.free);
  out.num("issued_enhanced", is.enhanced);
  out.num("issued_guard", is.guard);
  out.num("issued_zero", is.zero);
  out.num("issued_quarantine", is.quarantine);
  out.num("nulls", is.nulls);
  out.num("mismatches", is.mismatches);
  out.num("checks", is.checks);
}

// =====================================================================
// service / patched: closed-loop clients over nginx-like and mysql-like
// requests. Request shapes and per-request work are the repository's
// §VIII-B2 model (src/workload/service_workload.cpp).
// =====================================================================

// Sites of the request mix, in input order.
enum ServiceSite : u32 { kHdr, kBody, kBodyRare, kResp, kConn, kQuery, kRow, kServiceSites };

constexpr u32 kMaxRows = 8;

struct Req {
  u8 kind;   // 0 nginx, 1 mysql
  u8 flags;  // nginx: bit 0 = body from the rare context
  u8 rows;   // mysql: result rows
  u8 pad;
  u32 bytes;                // nginx: body bytes; mysql: query bytes
  u16 row_bytes[kMaxRows];  // mysql: size of each result row
};
static_assert(sizeof(Req) == 24);

constexpr u32 kHeaderBytes = 1024;
constexpr u32 kResponseExtra = 512;
constexpr u32 kStateBytes = 4096;
constexpr u32 kRowTouchBytes = 128;
constexpr u32 kNginxParseRounds = 300;
constexpr u32 kMysqlRounds = 500;

struct ServiceInputs {
  u32 clients, reqs, warmup, chunk;
  const Site* sites;
  const Req* reqs_of[64];
};

ServiceInputs load_service(const char* path) {
  Reader r(read_file(path));
  r.expect_magic("PBSV");
  ServiceInputs in{};
  in.clients = r.u32v();
  in.reqs = r.u32v();
  in.warmup = r.u32v();
  in.chunk = r.u32v();
  (void)r.u32v();  // pads the site table to 8 bytes
  if (in.clients == 0 || in.clients > 64 || in.reqs == 0 || in.chunk == 0) {
    die("pb_loadgen: bad service header");
  }
  in.sites = r.take<Site>(kServiceSites);
  for (u32 t = 0; t < in.clients; ++t) {
    in.reqs_of[t] = r.take<Req>(in.reqs);
    for (u32 i = 0; i < in.reqs; ++i) {
      const Req& q = in.reqs_of[t][i];
      bool ok = q.bytes > 0 && (q.kind == 0 || (q.kind == 1 && q.rows >= 1 && q.rows <= kMaxRows));
      for (u32 k = 0; ok && q.kind == 1 && k < q.rows; ++k) ok = q.row_bytes[k] >= kRowTouchBytes;
      if (!ok) die("pb_loadgen: bad request %u of client %u", i, t);
    }
  }
  if (!r.done()) die("pb_loadgen: trailing input");
  return in;
}

// Writes a strided sample of the buffer and folds it into acc.
inline u64 touch(char* p, size_t n, u64 acc) {
  auto* bytes = reinterpret_cast<unsigned char*>(p);
  const size_t step = n > 256 ? n / 128 : 1;
  for (size_t i = 0; i < n; i += step) {
    bytes[i] = static_cast<unsigned char>(acc + i);
    acc = acc * 31 + bytes[i];
  }
  return acc;
}

// Header, body and response buffers, all freed at the end of the request.
template <class H>
u64 nginx_request(H& h, const Req& q, u64 acc) {
  const u32 body_site = (q.flags & 1) ? kBodyRare : kBody;
  char* hdr = static_cast<char*>(h.alloc(kFnMalloc, kHdr, kHeaderBytes));
  char* body = static_cast<char*>(h.alloc(kFnMalloc, body_site, q.bytes));
  char* resp = nullptr;
  if (hdr != nullptr && body != nullptr) {
    acc = touch(hdr, kHeaderBytes, acc);
    acc = touch(body, q.bytes, acc);
    for (u32 i = 0; i < kNginxParseRounds; ++i) acc = acc * 6364136223846793005ULL + 1;
    resp = static_cast<char*>(h.alloc(kFnMalloc, kResp, q.bytes + kResponseExtra));
    if (resp != nullptr) {
      std::memcpy(resp, body, q.bytes);
      acc = touch(resp, q.bytes + kResponseExtra, acc);
    }
  }
  h.free(kHdr, hdr);
  h.free(body_site, body);
  h.free(kResp, resp);
  return acc;
}

// A client's one connection: state block and query buffer live as long as
// the connection, and the query buffer grows by realloc only when a query
// does not fit.
struct MysqlConn {
  char* state;
  char* query;
  u32 capacity;
};

template <class H>
u64 mysql_request(H& h, const Req& q, MysqlConn& conn, u64 acc) {
  if (conn.state == nullptr) {
    conn.state = static_cast<char*>(h.alloc(kFnMalloc, kConn, kStateBytes));
    if (conn.state == nullptr) return acc;
  } else {
    acc += static_cast<u8>(conn.state[0]);  // written by the previous request
  }
  acc = touch(conn.state, kStateBytes, acc);
  if (q.bytes > conn.capacity) {
    char* grown = static_cast<char*>(h.alloc(kFnRealloc, kQuery, q.bytes, conn.query));
    if (grown == nullptr) return acc;
    if (conn.capacity > 0) acc += static_cast<u8>(grown[0]);  // survives the move
    conn.query = grown;
    conn.capacity = q.bytes;
  }
  acc = touch(conn.query, q.bytes, acc);
  for (u32 i = 0; i < kMysqlRounds; ++i) acc = acc * 2862933555777941757ULL + 3037000493ULL;
  for (u32 r = 0; r < q.rows; ++r) {
    char* row = static_cast<char*>(h.alloc(kFnMalloc, kRow, q.row_bytes[r]));
    if (row == nullptr) continue;
    acc = touch(row, kRowTouchBytes, acc);
    h.free(kRow, row);
  }
  return acc;
}

struct ServiceClient;

// The CPUs the process may run on. On a shared VM one vCPU can run a third
// slower than another for tens of seconds, depending on what shares its
// physical core, so each client moves to the next CPU every round: a run
// then samples every vCPU instead of whichever one the client started on.
struct CpuRing {
  int cpus[CPU_SETSIZE];
  u32 n;

  void load() {
    cpu_set_t set;
    CPU_ZERO(&set);
    n = 0;
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus[n++] = c;
    }
  }
  // Moves the calling thread to the CPU of slot k (mod n); no allocation.
  void pin(u32 k) const {
    if (n < 2) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus[k % n], &set);
    pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
  }
};

struct ServiceShared {
  const ServiceInputs* in;
  CpuRing cpus;
  ServiceClient* clients;
  pthread_barrier_t barrier;
  std::atomic<bool> stop{false};
  bool traced;
  double seconds;
  // Per round, over all clients: the sum of their protected request rates,
  // and protected / native time. [0] untraced, [1] traced.
  Series<kRoundCap>* rate[2];
  Series<kRoundCap>* norm[2];
};

struct ServiceClient {
  ServiceShared* shared;
  u32 id;
  u64* cc;
  Issued issued;
  Phase* phases;  // [0] untraced, [1] traced
  Spans spans;
  MysqlConn conn[2];  // [arm], protected = 0
};

// Runs on one thread while every client waits at the barrier.
void record_round(ServiceShared& sh, u32 phase) {
  double rate = 0, p = 0, n = 0;
  for (u32 t = 0; t < sh.in->clients; ++t) {
    const Phase& ph = sh.clients[t].phases[phase];
    if (ph.round_p_ns == 0 || ph.round_n_ns == 0) return;
    rate += static_cast<double>(sh.in->chunk) * 1e9 / static_cast<double>(ph.round_p_ns);
    p += static_cast<double>(ph.round_p_ns);
    n += static_cast<double>(ph.round_n_ns);
  }
  sh.rate[phase]->add(rate);
  sh.norm[phase]->add(p / n);
}

template <bool kTraced>
u64 run_chunk(ServiceClient& c, bool prot, Phase* ph, u32 first, u32 count, bool timed) {
  const ServiceInputs& in = *c.shared->in;
  const Req* reqs = in.reqs_of[c.id];
  Heap<kTraced> h(prot ? g_protected_arm : kNativeArm, prot, c.cc, in.sites, c.issued, ph,
                  c.spans);
  MysqlConn& conn = c.conn[prot ? 0 : 1];
  u64 cs = 0;
  for (u32 i = 0; i < count; ++i) {
    const Req& q = reqs[(first + i) % in.reqs];
    const u64 t0 = now_ns();
    h.begin(t0);
    const u64 salt = first + i;
    const u64 r = q.kind == 0 ? nginx_request(h, q, salt) : mysql_request(h, q, conn, salt);
    const u64 t1 = now_ns();
    h.end(t0, t1);
    cs = cs * 31 + r;
    if (!timed) continue;
    if (prot) {
      ph->p_ns += t1 - t0;
      ph->round_p_ns += t1 - t0;
      ph->window.add(t1 - t0);
      ++ph->ops;
    } else {
      ph->n_ns += t1 - t0;
      ph->round_n_ns += t1 - t0;
    }
  }
  return cs;
}

// Runs both arms over the same chunk, in the given order, and checks that
// their checksums agree.
template <bool kTraced>
void run_pair(ServiceClient& c, Phase* ph, u32 first, u32 count, bool prot_first,
              bool timed, pthread_barrier_t* barrier) {
  u64 cs[2];
  for (int k = 0; k < 2; ++k) {
    const bool prot = (k == 0) == prot_first;
    cs[prot ? 0 : 1] = run_chunk<kTraced>(c, prot, ph, first, count, timed);
    if (barrier != nullptr && k == 0) pthread_barrier_wait(barrier);
  }
  ++c.issued.checks;
  if (cs[0] != cs[1]) ++c.issued.mismatches;
}

template <bool kTraced>
u32 run_phase(ServiceClient& c, u32 phase, u32 first, double seconds) {
  ServiceShared& sh = *c.shared;
  Phase* ph = &c.phases[phase];
  const u32 chunk = sh.in->chunk;
  const u64 deadline = now_ns() + static_cast<u64>(seconds * 1e9);
  for (u32 round = 0;; ++round) {
    if (pthread_barrier_wait(&sh.barrier) == PTHREAD_BARRIER_SERIAL_THREAD) {
      if (round > 0) record_round(sh, phase);
      sh.stop.store(now_ns() >= deadline, std::memory_order_relaxed);
    }
    pthread_barrier_wait(&sh.barrier);
    if (sh.stop.load(std::memory_order_relaxed)) break;
    sh.cpus.pin(c.id + round);
    ph->round_p_ns = ph->round_n_ns = 0;
    run_pair<kTraced>(c, ph, first, chunk, round % 2 == 0, true, &sh.barrier);
    first = (first + chunk) % sh.in->reqs;
    ph->close_window();
  }
  return first;
}

void* service_client(void* arg) {
  ServiceClient& c = *static_cast<ServiceClient*>(arg);
  ServiceShared& sh = *c.shared;
  c.cc = resolve_cc_register();
  // Warm-up: fills the quarantine to its quota and the arenas to their
  // working size; counted by the gate, not timed.
  const u32 warm = sh.in->warmup;
  for (u32 done = 0; done < warm; done += sh.in->chunk) {
    run_pair<false>(c, &c.phases[0], done % sh.in->reqs,
                    std::min(sh.in->chunk, warm - done), true, false, nullptr);
  }
  u32 next = warm % sh.in->reqs;
  if (sh.traced) {
    next = run_phase<false>(c, 0, next, sh.seconds / 2);
    run_phase<true>(c, 1, next, sh.seconds / 2);
  } else {
    run_phase<false>(c, 0, next, sh.seconds);
  }
  for (int arm = 0; arm < 2; ++arm) {
    Heap<false> h(arm == 0 ? g_protected_arm : kNativeArm, arm == 0, c.cc, sh.in->sites,
                  c.issued, &c.phases[0], c.spans);
    h.free(kConn, c.conn[arm].state);
    h.free(kQuery, c.conn[arm].query);
  }
  // Allocations the thread's exit makes are not the workload's.
  *c.cc = 0;
  return nullptr;
}

int run_service(const char* input, double seconds, bool traced, const char* spans_path) {
  const ServiceInputs in = load_service(input);
  ServiceShared sh;
  const u32 phases = traced ? 2 : 1;
  sh.in = &in;
  sh.cpus.load();
  sh.traced = traced;
  sh.seconds = seconds;
  pthread_barrier_init(&sh.barrier, nullptr, in.clients);
  ServiceClient* clients = native_array<ServiceClient>(in.clients);
  sh.clients = clients;
  for (u32 p = 0; p < phases; ++p) {
    sh.rate[p] = touched_array<Series<kRoundCap>>(1);
    sh.norm[p] = touched_array<Series<kRoundCap>>(1);
  }
  for (u32 t = 0; t < in.clients; ++t) {
    ServiceClient& c = clients[t];
    c.shared = &sh;
    c.id = t;
    c.phases = touched_array<Phase>(phases);
    if (traced) c.spans.enable();
  }
  const u64 rss_base = rss_kib("VmRSS:");
  pthread_t* threads = native_array<pthread_t>(in.clients);
  for (u32 t = 0; t < in.clients; ++t) {
    if (pthread_create(&threads[t], nullptr, service_client, &clients[t]) != 0) {
      die("pb_loadgen: pthread_create failed");
    }
  }
  for (u32 t = 0; t < in.clients; ++t) pthread_join(threads[t], nullptr);
  const u64 rss_hwm = rss_kib("VmHWM:");

  JsonOut out;
  Issued issued;
  Phase* merged = native_array<Phase>(phases);
  Spans* spans = native_array<Spans>(in.clients);
  for (u32 t = 0; t < in.clients; ++t) {
    issued.add(clients[t].issued);
    spans[t] = clients[t].spans;
    for (u32 p = 0; p < phases; ++p) {
      const Phase& ph = clients[t].phases[p];
      Phase& m = merged[p];
      m.win_p50.append(ph.win_p50);
      m.win_p99.append(ph.win_p99);
      m.samples += ph.samples;
      m.p_ns += ph.p_ns;
      m.n_ns += ph.n_ns;
      m.ops += ph.ops;
      m.busy_ns += ph.busy_ns;
      m.self.merge(ph.self);
      for (u32 k = 0; k < kClassCount; ++k) m.calls[k].merge(ph.calls[k]);
    }
  }
  emit_issued(out, issued);
  out.num("clients", u64{in.clients});
  out.num("rss_base_kib", rss_base);
  out.num("rss_hwm_kib", rss_hwm);
  for (u32 p = 0; p < phases; ++p) {
    const char* prefix = p == 0 ? "" : "t_";
    char key[64];
    std::snprintf(key, sizeof(key), "%sthroughput", prefix);
    out.num(key, sh.rate[p]->fast_rate());
    std::snprintf(key, sizeof(key), "%snorm_median", prefix);
    out.num(key, sh.norm[p]->median());
    std::snprintf(key, sizeof(key), "%srounds", prefix);
    out.num(key, u64{sh.norm[p]->n});
    emit_phase(out, prefix, merged[p], p == 1);
  }
  out.emit();
  write_spans(spans_path, spans, in.clients, kSpanNames);
  return 0;
}

// =====================================================================
// spec: op-by-op replay of a workload::make_trace() allocation trace.
// =====================================================================

struct TraceOp {
  u32 size;
  u16 slot;
  u16 kind_site;  // kind in the top 2 bits (malloc, calloc, realloc, free)
};
static_assert(sizeof(TraceOp) == 8);

struct TraceInputs {
  u32 slots, work, n_sites, n_ops;
  const Site* sites;
  const TraceOp* ops;
};

TraceInputs load_trace(const char* path) {
  Reader r(read_file(path));
  r.expect_magic("PBTR");
  TraceInputs t{};
  t.slots = r.u32v();
  t.work = r.u32v();
  t.n_sites = r.u32v();
  t.n_ops = r.u32v();
  (void)r.u32v();  // pads the site table to 8 bytes
  if (t.slots == 0 || t.slots > 65536 || t.n_sites == 0 || t.n_sites > (1u << 14)) {
    die("pb_loadgen: bad trace header");
  }
  t.sites = r.take<Site>(t.n_sites);
  t.ops = r.take<TraceOp>(t.n_ops);
  for (u32 i = 0; i < t.n_ops; ++i) {
    if (t.ops[i].slot >= t.slots || (t.ops[i].kind_site & 0x3fff) >= t.n_sites) {
      die("pb_loadgen: bad trace op %u", i);
    }
  }
  if (!r.done()) die("pb_loadgen: trailing input");
  return t;
}

inline u64 lcg(u64 x) { return x * 6364136223846793005ULL + 1442695040888963407ULL; }

// The per-op compute of the paper's Fig. 8 harness: touch the buffer, then
// rounds of integer mixing standing in for the program's own work.
inline u64 compute_kernel(char* p, u32 size, u32 rounds, u64 cs) {
  if (p != nullptr && size > 0) {
    const u32 touch = std::min<u32>(size, 512);
    std::memset(p, static_cast<int>(cs & 0xff), touch);
    cs += static_cast<u8>(p[touch / 2]);
  }
  for (u32 i = 0; i < rounds; ++i) cs = lcg(cs);
  return cs;
}

constexpr u32 kWindowOps = 64;  // per-op latency is timed over 64-op windows

template <bool kTraced>
u64 replay(const TraceInputs& t, Heap<kTraced>& h, char** slot_ptr, u32* slot_site,
           Hist& windows) {
  u64 cs = 0;
  u64 window_start = now_ns();
  for (u32 i = 0; i < t.n_ops; ++i) {
    const TraceOp& op = t.ops[i];
    const u32 kind = op.kind_site >> 14;
    const u32 site = op.kind_site & 0x3fff;
    char*& p = slot_ptr[op.slot];
    if (kind == 3) {
      h.free(slot_site[op.slot], p);
      p = nullptr;
      cs = compute_kernel(nullptr, 0, t.work, cs);
    } else {
      void* fresh = kind == 2 ? h.alloc(kFnRealloc, site, op.size, p)
                              : h.alloc(kind == 0 ? kFnMalloc : kFnCalloc, site, op.size);
      if (fresh != nullptr || kind != 2) p = static_cast<char*>(fresh);
      slot_site[op.slot] = site;
      cs = compute_kernel(p, op.size, t.work, cs);
    }
    if (i % kWindowOps == kWindowOps - 1) {
      const u64 now = now_ns();
      windows.add((now - window_start) / kWindowOps);
      window_start = now;
    }
  }
  return cs;
}

struct ReplayLog {
  static constexpr u32 kCap = 4096;
  double* ratio;   // protected / native per pair
  u64* p_ns;       // protected replay times
  u32 n = 0;
};

template <bool kTraced>
void spec_phase(const TraceInputs& t, u64* cc, Issued& issued, Phase& ph, Spans& spans,
                ReplayLog& log, double seconds, bool warm) {
  char** slots = native_array<char*>(t.slots);
  u32* slot_site = native_array<u32>(t.slots);
  Hist* scratch = touched_array<Hist>(1);
  const u64 deadline = now_ns() + static_cast<u64>(seconds * 1e9);
  for (u32 pair = 0; warm ? pair < 1 : now_ns() < deadline; ++pair) {
    u64 took[2] = {0, 0};
    u64 cs[2] = {0, 0};
    for (int k = 0; k < 2; ++k) {
      const bool prot = (k == 0) == (pair % 2 == 0);
      Heap<kTraced> h(prot ? g_protected_arm : kNativeArm, prot, cc, t.sites, issued, &ph,
                      spans);
      const u64 t0 = now_ns();
      h.begin(t0);
      cs[prot ? 0 : 1] = replay(t, h, slots, slot_site, prot && !warm ? ph.window : *scratch);
      const u64 t1 = now_ns();
      h.end(t0, t1);
      took[prot ? 0 : 1] = t1 - t0;
      if (prot && !warm) ph.close_window();
      scratch->reset();
    }
    ++issued.checks;
    if (cs[0] != cs[1]) ++issued.mismatches;
    if (warm) continue;
    ph.p_ns += took[0];
    ph.n_ns += took[1];
    ++ph.ops;
    if (log.n < ReplayLog::kCap) {
      log.ratio[log.n] = static_cast<double>(took[0]) / static_cast<double>(took[1]);
      log.p_ns[log.n] = took[0];
      ++log.n;
    }
  }
  __libc_free(scratch);
  __libc_free(slot_site);
  __libc_free(slots);
}

int run_spec(const char* input, double seconds, bool traced, const char* spans_path) {
  const TraceInputs t = load_trace(input);
  u64* cc = resolve_cc_register();
  Issued issued;
  Phase* phases = touched_array<Phase>(traced ? 2 : 1);
  Spans spans;
  if (traced) spans.enable();
  ReplayLog logs[2];
  for (ReplayLog& log : logs) {
    log.ratio = touched_array<double>(ReplayLog::kCap);
    log.p_ns = touched_array<u64>(ReplayLog::kCap);
  }
  const u64 rss_base = rss_kib("VmRSS:");
  // One unmeasured pair first: the arenas grow to the trace's live set.
  spec_phase<false>(t, cc, issued, phases[0], spans, logs[0], 0, true);
  if (traced) {
    spec_phase<false>(t, cc, issued, phases[0], spans, logs[0], seconds / 2, false);
    spec_phase<true>(t, cc, issued, phases[1], spans, logs[1], seconds / 2, false);
  } else {
    spec_phase<false>(t, cc, issued, phases[0], spans, logs[0], seconds, false);
  }
  // The shim's exit flush allocates on this thread; it is not the trace's.
  *cc = 0;
  const u64 rss_hwm = rss_kib("VmHWM:");

  u64 calls_per_replay = 0;
  for (u32 i = 0; i < t.n_ops; ++i) calls_per_replay += (t.ops[i].kind_site >> 14) != 3;
  JsonOut out;
  emit_issued(out, issued);
  out.num("rss_base_kib", rss_base);
  out.num("rss_hwm_kib", rss_hwm);
  out.num("calls_per_replay", calls_per_replay);
  for (u32 p = 0; p < (traced ? 2u : 1u); ++p) {
    const char* prefix = p == 0 ? "" : "t_";
    char key[64];
    std::snprintf(key, sizeof(key), "%snorm_median", prefix);
    out.num(key, median_of(logs[p].ratio, logs[p].n));
    std::snprintf(key, sizeof(key), "%sp_ns_fast", prefix);
    out.num(key, quantile_of(logs[p].p_ns, logs[p].n, kFastShare));
    emit_phase(out, prefix, phases[p], p == 1);
  }
  out.emit();
  write_spans(spans_path, &spans, 1, kSpanNames);
  return 0;
}

// =====================================================================
// probe: spawn-to-ready time of fresh processes, with and without the shim.
// =====================================================================

int run_probe(u32 spawns, const char* shim) {
  char preload[4096];
  std::snprintf(preload, sizeof(preload), "LD_PRELOAD=%s", shim);
  size_t n_env = 0;
  while (environ[n_env] != nullptr) ++n_env;
  char** env[2];  // [0] protected, [1] native
  env[0] = native_array<char*>(n_env + 2);
  env[1] = native_array<char*>(n_env + 1);
  size_t k = 0;
  for (size_t i = 0; i < n_env; ++i) {
    if (std::strncmp(environ[i], "LD_PRELOAD=", 11) == 0) continue;
    env[0][k] = env[1][k] = environ[i];
    ++k;
  }
  env[0][k] = preload;
  u64* took[2] = {native_array<u64>(spawns), native_array<u64>(spawns)};
  char arg0[] = "pb_loadgen", arg1[] = "ready", arg2[] = "3";
  char* argv[] = {arg0, arg1, arg2, nullptr};
  for (u32 i = 0; i < 2 * spawns; ++i) {
    const int arm = static_cast<int>((i + i / 2) % 2);  // ABBA order
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) die("pb_loadgen: pipe failed");
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], 3);
    pid_t pid;
    const u64 t0 = now_ns();
    if (posix_spawn(&pid, "/proc/self/exe", &fa, nullptr, argv, env[arm]) != 0) {
      die("pb_loadgen: posix_spawn failed");
    }
    close(fds[1]);
    char byte;
    const bool ready = read(fds[0], &byte, 1) == 1;
    const u64 t1 = now_ns();
    close(fds[0]);
    posix_spawn_file_actions_destroy(&fa);
    int status = 0;
    waitpid(pid, &status, 0);
    if (!ready || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      die("pb_loadgen: probe child failed");
    }
    took[arm][i / 2] = t1 - t0;
  }
  JsonOut out;
  out.array("protected_ns", took[0], spawns);
  out.array("native_ns", took[1], spawns);
  out.emit();
  return 0;
}

// The calls a process of this shape makes without issuing any: the shim's
// own start-up and glibc's per-thread set-up. The driver subtracts them
// from a run's exit dump before comparing it with the issued counts.
void* idle_thread(void*) { return nullptr; }

int run_idle(u32 threads) {
  pthread_t* ids = native_array<pthread_t>(threads);
  for (u32 t = 0; t < threads; ++t) {
    if (pthread_create(&ids[t], nullptr, idle_thread, nullptr) != 0) {
      die("pb_loadgen: pthread_create failed");
    }
  }
  for (u32 t = 0; t < threads; ++t) pthread_join(ids[t], nullptr);
  JsonOut out;
  out.num("threads", u64{threads});
  out.emit();
  return 0;
}

double parse_seconds(const char* s) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !(v > 0) || v > 3600) die("pb_loadgen: bad seconds '%s'", s);
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  // The ready point: the shim (if preloaded) has been constructed and the
  // protected arm and context register are resolved.
  resolve_protected_arm();
  if (argc >= 3 && std::strcmp(argv[1], "ready") == 0) {
    const int fd = std::atoi(argv[2]);
    write_all(fd, "r", 1);
    return 0;
  }
  if (argc == 4 && std::strcmp(argv[1], "probe") == 0) {
    const long spawns = std::atol(argv[2]);
    if (spawns < 1 || spawns > 1000) die("pb_loadgen: bad spawn count");
    return run_probe(static_cast<u32>(spawns), argv[3]);
  }
  if (argc == 3 && std::strcmp(argv[1], "idle") == 0) {
    const long threads = std::atol(argv[2]);
    if (threads < 0 || threads > 64) die("pb_loadgen: bad thread count");
    return run_idle(static_cast<u32>(threads));
  }
  if (argc == 6 && (std::strcmp(argv[1], "service") == 0 || std::strcmp(argv[1], "spec") == 0)) {
    const double seconds = parse_seconds(argv[3]);
    const bool traced = std::strcmp(argv[4], "1") == 0;
    return std::strcmp(argv[1], "service") == 0 ? run_service(argv[2], seconds, traced, argv[5])
                                                : run_spec(argv[2], seconds, traced, argv[5]);
  }
  die("usage: pb_loadgen ready <fd> | probe <spawns> <shim.so> | idle <threads> | "
      "service|spec <inputs> <seconds> <trace 0|1> <spans-file|->");
}
