// End-to-end benchmark driver (see README.md). One process starts the
// ThreatRaptor HTTP server in-process on loopback, configured as
// examples/web_ui.cpp configures it, feeds it audit log text generated from
// --seed, and drives one workload with closed-loop clients:
//
//   hunt_paper   2 clients POST the two paper reports to /api/hunt
//   query_mix    1 client POSTs hand-written TBQL to /api/query
//   live_ingest  1 client alternates IngestLiveText batches with hunts
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> [--spans <path>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// per-layer procedure and prints the per-layer metrics. The last line of
// stdout is one JSON object {correct, attempted, failed, metrics}. Every
// response is checked against a reference computed in-process.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <latch>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "audit/cpr.h"
#include "audit/generator.h"
#include "audit/parser.h"
#include "common/json.h"
#include "common/strings.h"
#include "core/threat_raptor.h"
#include "engine/engine.h"
#include "metrics.h"
#include "server/api.h"
#include "storage/graph/graph_store.h"
#include "storage/relational/database.h"
#include "tbql/analyzer.h"
#include "tbql/parser.h"
#include "tbql/printer.h"

namespace perfbench {
namespace {

using raptor::Json;
using raptor::StrFormat;
using raptor::ThreatRaptor;
namespace audit = raptor::audit;
namespace engine = raptor::engine;
using Clock = std::chrono::steady_clock;
using Rows = std::vector<std::vector<std::string>>;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

// ---------------------------------------------------------------------------
// Workload sizes. Fixed per workload: the seed picks the data, not the mix.

constexpr size_t kPaperEvents = 400'000;  // hunt_paper, query_mix
constexpr size_t kPaperClients = 2;       // hunt_paper
constexpr size_t kQueryCount = 384;       // 3x the plan cache's 128 entries
constexpr size_t kLiveBaseEvents = 100'000;
constexpr size_t kLiveBatches = 32;
constexpr size_t kLiveBatchEvents = 2'000;
constexpr size_t kLiveChunkRounds = 7;  // 224 hunts per percentile chunk
constexpr size_t kSetupRepeats = 5;     // set-ups per run, for setup_s
constexpr size_t kWarmupRequests = 4;   // per client, dropped from latency
constexpr int kRequestTimeoutS = 30;
// The layer spans of an in-process hunt must add up to ThreatRaptor::Hunt's
// wall time within this share (plus kLayerSumSlackMs): Hunt also records
// its own trace, journals and histograms, which no layer span covers.
constexpr double kLayerSumTolerance = 0.15;
constexpr double kLayerSumSlackMs = 0.25;

// ---------------------------------------------------------------------------
// Arguments.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--spans") {
      args.spans_path = value;
    } else {
      Fail("unknown argument " + key);
    }
  }
  if (argc % 2 != 1) Fail("arguments come in --key value pairs");
  if (args.seconds <= 0) Fail("--seconds must be positive");
  return args;
}

// ---------------------------------------------------------------------------
// Loopback HTTP client: one request per connection, as the server closes
// every connection after its response.

struct HttpReply {
  int status = 0;  ///< 0 when the transport failed (connect, send, timeout).
  std::string body;
  double latency_ms = 0;  ///< Connect to last response byte.
};

HttpReply HttpCall(uint16_t port, const std::string& method,
                   const std::string& path, const std::string& body) {
  HttpReply reply;
  std::string request = StrFormat(
      "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: %zu\r\n"
      "Connection: close\r\n\r\n",
      method.c_str(), path.c_str(), body.size());
  request += body;
  Clock::time_point start = Clock::now();
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  struct Closer {
    int fd;
    ~Closer() { ::close(fd); }
  } closer{fd};
  timeval timeout{kRequestTimeoutS, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return reply;
  }
  for (size_t sent = 0; sent < request.size();) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) return reply;
    sent += static_cast<size_t>(n);
  }
  std::string data;
  char buffer[16384];
  while (true) {
    ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n < 0) return reply;
    if (n == 0) break;
    data.append(buffer, static_cast<size_t>(n));
  }
  reply.latency_ms = MsBetween(start, Clock::now());
  size_t head_end = data.find("\r\n\r\n");
  if (data.compare(0, 9, "HTTP/1.1 ") != 0 || head_end == std::string::npos) {
    return reply;
  }
  reply.status = std::atoi(data.c_str() + 9);
  reply.body = data.substr(head_end + 4);
  return reply;
}

// ---------------------------------------------------------------------------
// Generated inputs.

std::string FormatEvents(const audit::AuditLog& log, size_t begin,
                         size_t end) {
  std::string out;
  for (size_t i = begin; i < end; ++i) {
    out += audit::LogParser::FormatEvent(log, log.event(i));
    out += '\n';
  }
  return out;
}

/// Fixed-size benign batches that continue `gen`'s timeline, as log text.
std::vector<std::string> GenerateBatches(audit::WorkloadGenerator* gen) {
  audit::AuditLog log;
  std::vector<std::string> batches;
  for (size_t b = 0; b < kLiveBatches; ++b) {
    size_t begin = log.event_count();
    gen->GenerateBenign(kLiveBatchEvents, &log);
    batches.push_back(FormatEvents(log, begin, log.event_count()));
  }
  return batches;
}

/// live_ingest: a 100k-event base store and fixed batches after it; the
/// leakage attack lands in the middle batch.
struct LiveData {
  std::string base_text;
  std::vector<std::string> batches;
  size_t attack_batch = kLiveBatches / 2;
  audit::AttackTrace leakage;  ///< Ids relative to the first batch event.
};

LiveData GenerateLiveData(uint64_t seed) {
  LiveData data;
  audit::GeneratorOptions options;
  options.seed = seed;
  audit::WorkloadGenerator gen(options);
  audit::AuditLog log;
  gen.GenerateBenign(kLiveBaseEvents, &log);
  data.base_text = FormatEvents(log, 0, log.event_count());
  const size_t base = log.event_count();
  for (size_t b = 0; b < kLiveBatches; ++b) {
    size_t begin = log.event_count();
    if (b == data.attack_batch) {
      gen.GenerateBenign(kLiveBatchEvents / 2, &log);
      data.leakage = gen.InjectDataLeakageAttack(&log);
      gen.GenerateBenign(kLiveBatchEvents / 2, &log);
    } else {
      gen.GenerateBenign(kLiveBatchEvents, &log);
    }
    data.batches.push_back(FormatEvents(log, begin, log.event_count()));
  }
  for (audit::EventId& id : data.leakage.core_event_ids) id -= base;
  return data;
}

/// query_mix: distinct hand-written TBQL over entity names and time ranges
/// that occur in `log`, five shapes interleaved so that any stretch of the
/// list carries the same mix.
struct MixQuery {
  const char* shape;
  std::string text;
};

std::vector<MixQuery> BuildQueryMix(const audit::AuditLog& log) {
  std::vector<std::string> exes;
  std::vector<std::string> files;
  std::vector<std::string> ips;
  std::set<std::string> seen;
  for (const audit::SystemEntity& e : log.entities()) {
    const std::string& name =
        e.type == audit::EntityType::kProcess ? e.exename
        : e.type == audit::EntityType::kFile  ? e.path
                                              : e.dst_ip;
    if (!seen.insert(name).second) continue;
    if (e.type == audit::EntityType::kProcess) {
      exes.push_back(name);
    } else if (e.type == audit::EntityType::kFile) {
      if (name.rfind("/home/user/data/", 0) == 0) files.push_back(name);
    } else {
      ips.push_back(name);
    }
  }
  if (exes.empty() || files.empty() || ips.empty()) {
    Fail("generated log lacks entities for the query mix");
  }
  // Time windows `width_events` events wide, starting at one of `of`
  // evenly spread events.
  const size_t n_events = log.event_count();
  auto window = [&](size_t i, size_t of, size_t width_events) {
    size_t at = (n_events - width_events - 1) * (i % of) / of;
    audit::Timestamp from = log.event(at).start_time;
    audit::Timestamp to = log.event(at + width_events).start_time;
    return StrFormat("from %llu to %llu",
                     static_cast<unsigned long long>(from),
                     static_cast<unsigned long long>(to));
  };
  // Basename without the directory: a LIKE needle.
  auto base = [](const std::string& path) {
    return path.substr(path.rfind('/') + 1);
  };
  static const char* kFileOps[] = {"read", "write"};
  static const char* kNetOps[] = {"connect", "send", "recv"};
  // Broad scans cost several times any other shape, so they take one slot
  // in nine and every other shape two: no shape takes half the time.
  static const std::string_view kCycle[] = {"like", "with", "window",
                                            "path", "scan", "like",
                                            "with", "window", "path"};
  constexpr size_t kSlots = std::size(kCycle);
  std::vector<MixQuery> queries;
  std::set<std::string> texts;
  for (size_t i = 0; queries.size() < kQueryCount; ++i) {
    const std::string_view shape = kCycle[i % kSlots];
    const std::string& exe = exes[i % exes.size()];
    const std::string& file = files[i % files.size()];
    const std::string& ip = ips[i % ips.size()];
    const size_t variant = i / kSlots * 2 + (i % kSlots >= kSlots / 2 ? 1 : 0);
    std::string text;
    if (shape == "like") {  // One pattern, LIKE filters on both entities.
      text = StrFormat(
          "proc p[\"%%%s%%\"] %s file f[\"%%%s%%\"]\nreturn p, f\nlimit %zu",
          base(exe).c_str(), kFileOps[variant % 2], base(file).c_str(),
          20 + variant % 50);
    } else if (shape == "with") {  // Shared process, ordered by `with`.
      std::string range = window(variant, 97, 2000);
      text = StrFormat(
          "evt1: proc p[\"%s\"] read file f1 %s\n"
          "evt2: proc p write file f2 %s\n"
          "with evt1 before evt2\nreturn p, f1, f2\nlimit %zu",
          exe.c_str(), range.c_str(), range.c_str(), 10 + variant % 40);
    } else if (shape == "window") {  // Zone maps prune all but a few segments.
      text = StrFormat("proc p %s file f %s\nreturn p, f\nlimit %zu",
                       kFileOps[variant % 2],
                       window(variant, 89, 1000).c_str(), 50 + variant % 50);
    } else if (shape == "path") {  // Variable-length path on the graph store.
      text = StrFormat(
          "proc p[\"%s\"] ~>(1~3)[connect] net n[\"%s\"] %s\n"
          "return p, n\nlimit %zu",
          exe.c_str(), ip.c_str(), window(variant, 83, 20000).c_str(),
          10 + variant % 40);
    } else {  // Broad operation scan bounded by limit.
      text = StrFormat("proc p %s net n[\"%s\"]\nreturn p, n\nlimit %zu",
                       kNetOps[variant % 3], ip.c_str(), 30 + variant % 70);
    }
    if (!texts.insert(text).second) Fail("query_mix repeats a query:\n" + text);
    queries.push_back({shape.data(), std::move(text)});
  }
  return queries;
}

/// The 400k-event store of hunt_paper and query_mix: benign activity with
/// both paper attacks injected, as log text. The generated AuditLog is
/// released before any set-up, so peak_rss_mb does not count it.
struct PaperData {
  std::string text;
  audit::AttackTrace leakage;
  audit::AttackTrace password;
  std::vector<MixQuery> queries;  ///< query_mix only.
  /// Continues the timeline for the batches ingested after the measured
  /// loop, for ingest_events_per_s.
  audit::WorkloadGenerator gen;
};

PaperData GeneratePaperData(uint64_t seed, bool with_queries) {
  PaperData data;
  audit::GeneratorOptions options;
  options.seed = seed;
  data.gen = audit::WorkloadGenerator(options);
  audit::AuditLog log;
  data.gen.GenerateBenign(kPaperEvents * 2 / 5, &log);
  data.leakage = data.gen.InjectDataLeakageAttack(&log);
  data.gen.GenerateBenign(kPaperEvents / 5, &log);
  data.password = data.gen.InjectPasswordCrackingAttack(&log);
  data.gen.GenerateBenign(kPaperEvents * 2 / 5, &log);
  data.text = FormatEvents(log, 0, log.event_count());
  if (with_queries) data.queries = BuildQueryMix(log);
  return data;
}

// ---------------------------------------------------------------------------
// The served system: ThreatRaptor with default options behind HttpServer
// with the full API registered, as examples/web_ui.cpp serves it.

class Served {
 public:
  /// Builds the store from `text` and serves it on an ephemeral loopback
  /// port. setup_s() is the time from log text in hand to /api/readyz
  /// answering 200.
  explicit Served(const std::string& text) {
    Clock::time_point start = Clock::now();
    system_ = std::make_unique<ThreatRaptor>();
    if (raptor::Status st = system_->IngestLogText(text); !st.ok()) {
      Fail("IngestLogText: " + st.ToString());
    }
    if (raptor::Status st = system_->FinalizeStorage(); !st.ok()) {
      Fail("FinalizeStorage: " + st.ToString());
    }
    raptor::server::RegisterThreatRaptorApi(&server_, system_.get());
    if (raptor::Status st = server_.Start(0); !st.ok()) {
      Fail("server start: " + st.ToString());
    }
    for (int attempt = 0;; ++attempt) {
      if (HttpCall(port(), "GET", "/api/readyz", "").status == 200) break;
      if (attempt == 100) Fail("/api/readyz never answered 200");
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    setup_s_ = MsBetween(start, Clock::now()) / 1000.0;
  }

  Served(const Served&) = delete;
  Served& operator=(const Served&) = delete;

  ThreatRaptor& system() { return *system_; }
  uint16_t port() const { return server_.port(); }
  double setup_s() const { return setup_s_; }

  /// Runs `batch` (one event per line) through IngestLiveText; returns its
  /// events per second.
  double IngestBatch(const std::string& batch) {
    Clock::time_point start = Clock::now();
    if (raptor::Status st = system_->IngestLiveText(batch); !st.ok()) {
      Fail("IngestLiveText: " + st.ToString());
    }
    double ms = MsBetween(start, Clock::now());
    return static_cast<double>(std::count(batch.begin(), batch.end(), '\n')) *
           1000.0 / ms;
  }

 private:
  double setup_s_ = 0;
  // Declared before the server so the server stops before the system dies.
  std::unique_ptr<ThreatRaptor> system_;
  raptor::server::HttpServer server_;
};

// ---------------------------------------------------------------------------
// Response checks.

/// Rows of an /api/hunt (result.rows) or /api/query (rows) response body.
std::optional<Rows> ResponseRows(const std::string& body, bool hunt) {
  raptor::Result<Json> json = Json::Parse(body);
  if (!json.ok()) return std::nullopt;
  const Json& rows = hunt ? (*json)["result"]["rows"] : (*json)["rows"];
  if (!rows.is_array()) return std::nullopt;
  Rows out;
  for (const Json& row : rows.AsArray()) {
    std::vector<std::string> cells;
    for (const Json& cell : row.AsArray()) cells.push_back(cell.AsString());
    out.push_back(std::move(cells));
  }
  return out;
}

/// One request of a workload script and the rows its response must carry.
struct Request {
  const char* shape = "";  ///< Report or query shape, for the traced run.
  std::string path;
  std::string body;
  Rows expected;
  bool hunt = false;
};


/// Setup check of a paper hunt: the in-process serial hunt returns exactly
/// the narrated attack events, so precision and recall are 1.
Rows ReferenceHunt(ThreatRaptor& system, const audit::AttackTrace& attack,
                   const std::vector<audit::EventId>& truth, bool* correct) {
  raptor::HuntOptions options;
  options.num_threads = 1;
  auto hunt = system.Hunt(attack.report_text, options);
  if (!hunt.ok()) Fail("reference hunt failed: " + hunt.status().ToString());
  if (hunt->result.MatchedEvents() != truth || hunt->result.rows.size() != 1) {
    std::fprintf(stderr, "perfbench: %s hunt matched %zu events in %zu rows\n",
                 attack.name.c_str(), hunt->result.MatchedEvents().size(),
                 hunt->result.rows.size());
    *correct = false;
  }
  return hunt->result.rows;
}

// ---------------------------------------------------------------------------
// Closed loop. Each client sends its next request only after the previous
// response arrived. Client c sends script[(c + i) % n] as its i-th request;
// after warm-up it stops at the first multiple of `cycle` requests past the
// deadline, so every run measures whole cycles of the script.

struct LoopOutcome {
  LoopTally tally;
  /// Requests per latency-percentile chunk.
  size_t chunk = LoopTally::kChunk;
  size_t wrong = 0;  ///< Responses with the wrong rows (a subset of failed).
  double measured_s = 0;
  double response_bytes = 0;  ///< Summed over measured responses.
  /// live_ingest: events per second of each IngestLiveText call.
  std::vector<double> batch_rates;
  /// live_ingest: completed hunts per second of each measured round.
  std::vector<double> round_rates;

  /// Checks `reply` against the rows `request` expects and accounts it;
  /// `done_s` is its completion time in measured seconds.
  void Record(const HttpReply& reply, const Request& request,
              const Rows& expected, bool warmup, double done_s) {
    bool transport_ok = reply.status >= 200 && reply.status < 300;
    std::optional<Rows> rows;
    if (transport_ok) rows = ResponseRows(reply.body, request.hunt);
    bool ok = rows.has_value() && *rows == expected;
    if (transport_ok && !ok) ++wrong;
    tally.Record(ok, reply.latency_ms, warmup, done_s);
    if (!warmup) response_bytes += static_cast<double>(reply.body.size());
  }
};

LoopOutcome RunClosedLoop(uint16_t port, const std::vector<Request>& script,
                          size_t clients, size_t cycle, double seconds) {
  std::vector<LoopOutcome> per_client(clients);
  std::vector<Clock::time_point> finished(clients);
  std::latch warmed(static_cast<std::ptrdiff_t>(clients));
  std::latch go(1);
  Clock::time_point measure_start;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LoopOutcome& out = per_client[c];
      auto send = [&](size_t i, bool warmup) {
        const Request& request = script[(c + i) % script.size()];
        HttpReply reply = HttpCall(port, "POST", request.path, request.body);
        // measure_start is set only once every client has warmed up.
        double done_s =
            warmup ? 0 : MsBetween(measure_start, Clock::now()) / 1000.0;
        out.Record(reply, request, request.expected, warmup, done_s);
      };
      size_t i = 0;
      for (; i < kWarmupRequests; ++i) send(i, /*warmup=*/true);
      warmed.count_down();
      go.wait();
      Clock::time_point deadline =
          measure_start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
      for (size_t k = 0;; ++k, ++i) {
        if (k % cycle == 0 && k > 0 && Clock::now() >= deadline) break;
        send(i, /*warmup=*/false);
      }
      finished[c] = Clock::now();
    });
  }
  warmed.wait();
  measure_start = Clock::now();
  go.count_down();
  for (std::thread& t : threads) t.join();
  LoopOutcome total;
  for (size_t c = 0; c < clients; ++c) {
    total.tally.Merge(per_client[c].tally);
    total.wrong += per_client[c].wrong;
    total.response_bytes += per_client[c].response_bytes;
    total.measured_s = std::max(
        total.measured_s, MsBetween(measure_start, finished[c]) / 1000.0);
  }
  return total;
}

// ---------------------------------------------------------------------------
// Traced-run bookkeeping: spans recorded by this file around calls into each
// layer's public functions.

class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  /// RAII span; the innermost open span is the parent of the next one.
  class Scope {
   public:
    Scope(SpanLog* log, std::string name) : log_(log) {
      span_.id = ++log_->next_id_;
      span_.parent = log_->open_.empty() ? 0 : log_->open_.back();
      span_.request = log_->request_;
      span_.name = std::move(name);
      log_->open_.push_back(span_.id);
      span_.start_ms = log_->Now();
    }
    ~Scope() {
      span_.end_ms = log_->Now();
      log_->open_.pop_back();
      log_->spans_.push_back(std::move(span_));
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    Span span_;
  };

  /// Starts a new request id for the spans that follow.
  void NextRequest() { ++request_; }

  const std::vector<Span>& spans() const { return spans_; }
  /// Durations of every span named `name`.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(s.duration_ms());
    }
    return out;
  }
  /// Summed duration of the spans named `name` among the first `limit`.
  double Total(const std::string& name, size_t limit) const {
    double sum = 0;
    for (size_t i = 0; i < std::min(limit, spans_.size()); ++i) {
      if (spans_[i].name == name) sum += spans_[i].duration_ms();
    }
    return sum;
  }

  void Write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << StrFormat(
          "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,\"name\":\"%s\","
          "\"start_ms\":%.6f,\"end_ms\":%.6f}\n",
          static_cast<unsigned long long>(s.id),
          static_cast<unsigned long long>(s.parent),
          static_cast<unsigned long long>(s.request), s.name.c_str(),
          s.start_ms, s.end_ms);
    }
    if (!out) Fail("cannot write spans to " + path);
  }

  /// Prints each span name's and each layer's self time.
  void PrintSelfTimes() const {
    std::map<uint64_t, double> self = SelfTimes(spans_);
    std::map<std::string, std::pair<size_t, double>> by_name;
    std::map<std::string, double> by_layer;
    for (const Span& s : spans_) {
      auto& [count, total] = by_name[s.name];
      ++count;
      total += self[s.id];
      by_layer[LayerOf(s.name)] += self[s.id];
    }
    std::printf("%-24s %8s %12s %12s\n", "span", "count", "self_ms",
                "self_ms/call");
    for (const auto& [name, entry] : by_name) {
      std::printf("%-24s %8zu %12.3f %12.4f\n", name.c_str(), entry.first,
                  entry.second, entry.second / entry.first);
    }
    std::printf("%-24s %12s\n", "layer", "self_ms");
    for (const auto& [layer, total] : by_layer) {
      std::printf("%-24s %12.3f\n", layer.c_str(), total);
    }
  }

 private:
  double Now() const { return MsBetween(origin_, Clock::now()); }

  Clock::time_point origin_;
  uint64_t next_id_ = 0;
  uint64_t request_ = 0;
  std::vector<uint64_t> open_;
  std::vector<Span> spans_;
};

/// Execution counters summed over the traced executions of a workload.
struct EngineTally {
  size_t executions = 0;
  size_t cache_hits = 0;
  double patterns_ms = 0;
  double join_ms = 0;
  double rows_examined = 0;
  double result_rows = 0;
  double segments_scanned = 0;
  double segments_pruned = 0;
  double graph_edges = 0;

  void Add(const engine::QueryResult& result) {
    const engine::ExecutionStats& s = result.stats;
    ++executions;
    cache_hits += s.plan_cache_hit ? 1 : 0;
    double patterns = 0;
    for (double ms : s.per_pattern_ms) patterns += ms;
    patterns_ms += patterns;
    join_ms += s.total_ms - patterns;
    for (uint64_t r : s.pattern_rows_examined) rows_examined += r;
    result_rows += static_cast<double>(result.rows.size());
    for (uint64_t n : s.pattern_segments_scanned) segments_scanned += n;
    for (uint64_t n : s.pattern_segments_pruned) segments_pruned += n;
    graph_edges += static_cast<double>(s.graph_edges_traversed);
  }
};

// ---------------------------------------------------------------------------
// Result output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string line = StrFormat(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
      correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    line += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", metrics[i].name.c_str(),
                      metrics[i].value, metrics[i].unit.c_str());
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  Fail("VmHWM missing from /proc/self/status");
}

/// Peak bytes per component from the /api/stats `mem` block, as metrics.
std::vector<Metric> MemoryMetrics(uint16_t port) {
  HttpReply reply = HttpCall(port, "GET", "/api/stats", "");
  raptor::Result<Json> json = Json::Parse(reply.body);
  if (reply.status != 200 || !json.ok()) Fail("/api/stats failed");
  std::vector<Metric> out;
  for (const auto& [component, entry] : (*json)["mem"].AsObject()) {
    out.push_back({"mem." + component + "_mb",
                   entry["peak_bytes"].AsNumber() / (1024.0 * 1024.0), "MB"});
  }
  return out;
}

void Summarize(const char* label, const LoopOutcome& loop) {
  const LoopTally& tally = loop.tally;
  ChunkedPercentile p50 = tally.LatencyPercentile(0.50, loop.chunk);
  ChunkedPercentile p95 = tally.LatencyPercentile(0.95, loop.chunk);
  std::printf(
      "%s: p50 %.3f ms, p95 %.3f ms, lower quartiles over %zu chunks of "
      "consecutive requests (%zu samples, at least %zu beyond p95 per chunk); "
      "%zu attempted, %zu failed\n",
      label, p50.value, p95.value, p95.chunks, p95.samples, p95.beyond,
      tally.attempted(), tally.failed());
}

// ---------------------------------------------------------------------------
// In-process calls, decomposed into layer spans.

/// ThreatRaptor::Hunt's layers, called one by one: extraction, synthesis,
/// printing and execution. Runs against `engine_call`, which executes on
/// the served facade or on an owned engine.
engine::QueryResult TracedHunt(
    SpanLog* spans, ThreatRaptor& system, const std::string& report,
    const std::function<raptor::Result<engine::QueryResult>(
        const raptor::tbql::Query&)>& engine_call) {
  SpanLog::Scope root(spans, "core.hunt");
  raptor::nlp::ExtractionResult extraction;
  {
    SpanLog::Scope span(spans, "nlp.extract");
    extraction = system.ExtractBehavior(report);
  }
  raptor::Result<raptor::synth::SynthesisResult> synthesis =
      raptor::Status::Internal("unset");
  {
    SpanLog::Scope span(spans, "synthesis.synthesize");
    synthesis = system.SynthesizeQuery(extraction.graph);
  }
  if (!synthesis.ok()) Fail("synthesis: " + synthesis.status().ToString());
  {
    SpanLog::Scope span(spans, "tbql.print");
    std::string text = raptor::tbql::Print(synthesis->query);
    if (text.empty()) Fail("empty synthesized query");
  }
  raptor::Result<engine::QueryResult> result =
      raptor::Status::Internal("unset");
  {
    SpanLog::Scope span(spans, "engine.execute");
    result = engine_call(synthesis->query);
  }
  if (!result.ok()) Fail("execute: " + result.status().ToString());
  return *std::move(result);
}

/// ThreatRaptor::ExecuteTbql's layers: parse, analyze, execute.
engine::QueryResult TracedQuery(SpanLog* spans, ThreatRaptor& system,
                                const std::string& text) {
  SpanLog::Scope root(spans, "core.query");
  raptor::Result<raptor::tbql::Query> query = raptor::Status::Internal("unset");
  {
    SpanLog::Scope span(spans, "tbql.parse");
    query = raptor::tbql::Parse(text);
  }
  if (!query.ok()) Fail("parse: " + query.status().ToString());
  raptor::Status analyzed;
  {
    SpanLog::Scope span(spans, "tbql.analyze");
    analyzed = raptor::tbql::Analyze(&*query);
  }
  if (!analyzed.ok()) Fail("analyze: " + analyzed.ToString());
  raptor::Result<engine::QueryResult> result =
      raptor::Status::Internal("unset");
  {
    SpanLog::Scope span(spans, "engine.execute");
    result = system.ExecuteQuery(*query);
  }
  if (!result.ok()) Fail("execute: " + result.status().ToString());
  return *std::move(result);
}

/// The load path on copies the traced run owns: parse, CPR, relational
/// load and graph construction, serially, each in its own span.
struct OwnedStore {
  audit::AuditLog log;
  std::unique_ptr<raptor::rel::RelationalDatabase> rel;
  std::unique_ptr<raptor::graph::GraphStore> graph;
  std::unique_ptr<engine::QueryEngine> engine;
  double cpr_ratio = 0;

  OwnedStore(SpanLog* spans, const std::string& text) {
    SpanLog::Scope root(spans, "core.load");
    {
      SpanLog::Scope span(spans, "audit.parse");
      if (raptor::Status st = audit::LogParser::ParseText(text, &log);
          !st.ok()) {
        Fail("parse: " + st.ToString());
      }
    }
    {
      SpanLog::Scope span(spans, "audit.cpr");
      cpr_ratio = audit::ReduceLog(&log).ReductionRatio();
    }
    {
      SpanLog::Scope span(spans, "rel.load");
      rel = std::make_unique<raptor::rel::RelationalDatabase>();
      rel->Load(log);
    }
    {
      SpanLog::Scope span(spans, "graph.load");
      graph = std::make_unique<raptor::graph::GraphStore>(log);
    }
    engine = std::make_unique<engine::QueryEngine>(&log, rel.get(),
                                                   graph.get());
  }

  /// The live path: parse a batch, then sync both backends.
  void Ingest(SpanLog* spans, const std::string& batch) {
    SpanLog::Scope root(spans, "core.ingest");
    {
      SpanLog::Scope span(spans, "audit.batch_parse");
      if (raptor::Status st = audit::LogParser::ParseText(batch, &log);
          !st.ok()) {
        Fail("batch parse: " + st.ToString());
      }
    }
    {
      SpanLog::Scope span(spans, "rel.sync");
      rel->SyncWith(log);
    }
    {
      SpanLog::Scope span(spans, "graph.sync");
      graph->SyncWithLog();
    }
  }
};

/// The paper-hunt checks of the traced run, on the served system while no
/// client is active. For each report, alternately: the layer-decomposed
/// hunt with spans, the same calls without spans, ThreatRaptor::Hunt, and
/// the execution with scheduling off and on. Reports the layer-sum check,
/// the tracing overhead and the scheduling speedup.
struct HuntCheck {
  bool layer_sum_ok = true;
  double layer_sum_error = 0;  ///< Worst |sum - Hunt| / Hunt over reports.
  double trace_overhead_ms = 0;
  double sched_speedup = 0;
};

HuntCheck CheckPaperHunts(SpanLog* spans, ThreatRaptor& system,
                          const std::vector<const Request*>& hunts,
                          size_t repeats) {
  HuntCheck check;
  engine::ExecutionOptions scheduled = system.options().execution;
  engine::ExecutionOptions unscheduled = scheduled;
  unscheduled.use_pruning_scores = false;
  unscheduled.propagate_constraints = false;
  double traced_total = 0;
  double untraced_total = 0;
  double sched_total = 0;
  double unsched_total = 0;
  for (const Request* request : hunts) {
    std::vector<double> layer_sums, traced, untraced, hunt_wall, sched,
        unsched;
    auto facade = [&](const raptor::tbql::Query& q) {
      return system.ExecuteQuery(q);
    };
    for (size_t r = 0; r < repeats; ++r) {
      spans->NextRequest();
      size_t first = spans->spans().size();
      engine::QueryResult result =
          TracedHunt(spans, system, request->body, facade);
      if (result.rows != request->expected) check.layer_sum_ok = false;
      double sum = 0;
      for (size_t i = first; i < spans->spans().size(); ++i) {
        const Span& s = spans->spans()[i];
        if (s.name == "core.hunt") {
          traced.push_back(s.duration_ms());
        } else {
          sum += s.duration_ms();
        }
      }
      layer_sums.push_back(sum);

      Clock::time_point t0 = Clock::now();
      auto extraction = system.ExtractBehavior(request->body);
      auto synthesis = system.SynthesizeQuery(extraction.graph);
      if (!synthesis.ok()) Fail("synthesis failed");
      std::string text = raptor::tbql::Print(synthesis->query);
      auto plain = system.ExecuteQuery(synthesis->query);
      untraced.push_back(MsBetween(t0, Clock::now()));
      if (!plain.ok() || text.empty()) Fail("untraced hunt failed");

      t0 = Clock::now();
      auto hunt = system.Hunt(request->body);
      hunt_wall.push_back(MsBetween(t0, Clock::now()));
      if (!hunt.ok() || hunt->result.rows != request->expected) {
        check.layer_sum_ok = false;
      }

      t0 = Clock::now();
      auto off = system.ExecuteQuery(synthesis->query, unscheduled);
      unsched.push_back(MsBetween(t0, Clock::now()));
      t0 = Clock::now();
      auto on = system.ExecuteQuery(synthesis->query, scheduled);
      sched.push_back(MsBetween(t0, Clock::now()));
      if (!off.ok() || !on.ok() || off->rows != request->expected ||
          on->rows != request->expected) {
        check.layer_sum_ok = false;
      }
    }
    double sum = Median(layer_sums);
    double wall = Median(hunt_wall);
    double error = std::abs(sum - wall) / wall;
    check.layer_sum_error = std::max(check.layer_sum_error, error);
    bool within =
        std::abs(sum - wall) <= kLayerSumTolerance * wall + kLayerSumSlackMs;
    std::printf(
        "layer sum %.3f ms vs ThreatRaptor::Hunt %.3f ms (%.1f%%; tolerance "
        "%.0f%% + %.2f ms): %s\n",
        sum, wall, 100 * error, 100 * kLayerSumTolerance, kLayerSumSlackMs,
        within ? "ok" : "MISMATCH");
    if (!within) check.layer_sum_ok = false;
    traced_total += Median(traced);
    untraced_total += Median(untraced);
    sched_total += Median(sched);
    unsched_total += Median(unsched);
  }
  check.trace_overhead_ms =
      (traced_total - untraced_total) / static_cast<double>(hunts.size());
  check.sched_speedup = unsched_total / sched_total;
  return check;
}

// ---------------------------------------------------------------------------
// Workloads.

/// The script and reference results of hunt_paper or query_mix, checked
/// against ground truth on the served system.
struct PaperScript {
  std::vector<Request> requests;
  size_t clients = 1;
  size_t cycle = 1;
  bool correct = true;
};

PaperScript MakePaperScript(const std::string& workload, Served& served,
                            const PaperData& data) {
  PaperScript script;
  ThreatRaptor& system = served.system();
  if (workload == "hunt_paper") {
    for (const audit::AttackTrace* attack : {&data.leakage, &data.password}) {
      Request r;
      r.shape = attack == &data.leakage ? "leakage" : "password";
      r.path = "/api/hunt";
      r.body = attack->report_text;
      r.hunt = true;
      r.expected =
          ReferenceHunt(system, *attack,
                        system.TranslateEventIds(attack->core_event_ids),
                        &script.correct);
      script.requests.push_back(std::move(r));
    }
    script.clients = kPaperClients;
    script.cycle = 2;
    return script;
  }
  engine::ExecutionOptions reference = system.options().execution;
  reference.num_threads = 1;
  reference.use_plan_cache = false;
  for (const MixQuery& query : data.queries) {
    auto result = system.ExecuteTbql(query.text, reference);
    if (!result.ok()) {
      Fail("query_mix query failed: " + result.status().ToString() + "\n" +
           query.text);
    }
    if (result->truncated) Fail("query_mix query truncated:\n" + query.text);
    Request r;
    r.shape = query.shape;
    r.path = "/api/query";
    r.body = query.text;
    r.expected = std::move(result->rows);
    script.requests.push_back(std::move(r));
  }
  script.clients = 1;
  script.cycle = script.requests.size();
  return script;
}

Clock::time_point Deadline(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

/// End-to-end metrics of an untraced run.
std::vector<Metric> EndToEndMetrics(const std::vector<double>& setups,
                                    const LoopOutcome& loop,
                                    double peak_rss_mb,
                                    double ingest_events_per_s) {
  Summarize("measured", loop);
  std::printf("set-ups (s):");
  for (double s : setups) std::printf(" %.3f", s);
  std::printf("\n");
  return {
      {"setup_s", LowerQuartile(setups), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"p50_ms", loop.tally.LatencyPercentile(0.50, loop.chunk).value, "ms"},
      {"p95_ms", loop.tally.LatencyPercentile(0.95, loop.chunk).value, "ms"},
      {"ops_per_s",
       loop.round_rates.empty() ? loop.tally.OpsPerSecond(loop.measured_s)
                                : UpperQuartile(loop.round_rates),
       "1/s"},
      {"ingest_events_per_s", ingest_events_per_s, "1/s"},
  };
}

/// What the traced in-process pass measured, beside its spans.
struct TracedPass {
  SpanLog spans;
  EngineTally engine;
  size_t requests = 0;  ///< Hunts or queries.
  size_t batches = 0;   ///< live_ingest batches.
  std::vector<double> request_ms;  ///< Root span of each hunt or query.
  /// Spans of the workload pass; later spans (the paper-hunt check, the
  /// load ledger) do not count toward per-request layer times.
  size_t workload_spans = 0;
  struct ShapeTally {
    size_t calls = 0;
    double ms = 0;
    size_t rows = 0;
  };
  std::map<std::string, ShapeTally> by_shape;
  bool correct = true;
  double cpr_ratio = 0;

  /// Accounts one traced hunt or query whose root span just closed.
  void Count(const char* shape, const engine::QueryResult& result,
             const Rows& expected) {
    if (result.rows != expected) correct = false;
    double ms = spans.spans().back().duration_ms();
    request_ms.push_back(ms);
    ShapeTally& tally = by_shape[shape];
    ++tally.calls;
    tally.ms += ms;
    tally.rows += result.rows.size();
    engine.Add(result);
    ++requests;
  }

  double Total(const char* span_name) const {
    return spans.Total(span_name, workload_spans);
  }

  void PrintShapes() const {
    double all = 0;
    for (const auto& [shape, t] : by_shape) all += t.ms;
    for (const auto& [shape, t] : by_shape) {
      std::printf(
          "shape %-10s %6zu calls %9.3f ms/call %8.1f rows/call %5.1f%% of "
          "time\n",
          shape.c_str(), t.calls, t.ms / t.calls,
          static_cast<double>(t.rows) / t.calls, 100 * t.ms / all);
    }
  }
};

/// Per-layer metrics of a traced run: the HTTP passes at 1 client and, for
/// a workload with more clients, at its client count (`at_n`, else null),
/// the traced in-process pass, the paper-hunt check and the /api/stats
/// memory block.
std::vector<Metric> PerLayerMetrics(const LoopOutcome* at_n,
                                    const LoopOutcome& at_1,
                                    const TracedPass& pass,
                                    const HuntCheck& check,
                                    const std::vector<Metric>& mem) {
  if (at_n != nullptr) Summarize("untraced, workload clients", *at_n);
  Summarize("untraced, 1 client", at_1);
  pass.PrintShapes();
  pass.spans.PrintSelfTimes();
  double p50_1 = at_1.tally.LatencyPercentile(0.5, at_1.chunk).value;
  // With one client there is no queue beyond the 1-client pass.
  double queue_ms =
      at_n == nullptr
          ? 0
          : at_n->tally.LatencyPercentile(0.5, at_n->chunk).value - p50_1;
  std::vector<Metric> metrics = {
      {"server.overhead_ms",
       p50_1 - ChunkedNearestRank(pass.request_ms, 0.5, at_1.chunk).value,
       "ms"},
      {"server.queue_ms", queue_ms, "ms"},
      {"server.response_kb",
       at_1.response_bytes / 1024.0 /
           static_cast<double>(std::max<size_t>(1, at_1.tally.completed())),
       "KB"},
  };
  auto per = [](double total, size_t n) {
    return n == 0 ? 0 : total / static_cast<double>(n);
  };
  auto median = [&](const char* name) {
    std::vector<double> d = pass.spans.Durations(name);
    return d.empty() ? 0 : Median(d);
  };
  const EngineTally& eng = pass.engine;
  std::vector<Metric> layers = {
      {"nlp.extract_ms", per(pass.Total("nlp.extract"), pass.requests),
       "ms"},
      {"synthesis.synthesize_ms",
       per(pass.Total("synthesis.synthesize"), pass.requests), "ms"},
      {"tbql.print_ms", per(pass.Total("tbql.print"), pass.requests), "ms"},
      {"tbql.parse_ms", per(pass.Total("tbql.parse"), pass.requests), "ms"},
      {"tbql.analyze_ms", per(pass.Total("tbql.analyze"), pass.requests),
       "ms"},
      {"engine.execute_ms",
       per(pass.Total("engine.execute"), pass.requests), "ms"},
      {"engine.patterns_ms", per(eng.patterns_ms, eng.executions), "ms"},
      {"engine.join_ms", per(eng.join_ms, eng.executions), "ms"},
      {"engine.rows_examined_per_row",
       eng.rows_examined / std::max(1.0, eng.result_rows), "ratio"},
      {"engine.segments_pruned_ratio",
       eng.segments_pruned /
           std::max(1.0, eng.segments_scanned + eng.segments_pruned),
       "ratio"},
      {"engine.graph_edges", per(eng.graph_edges, eng.executions), "count"},
      {"engine.plan_cache_hit_ratio",
       per(static_cast<double>(eng.cache_hits), eng.executions), "ratio"},
      {"engine.sched_speedup", check.sched_speedup, "x"},
      {"audit.parse_ms", median("audit.parse"), "ms"},
      {"audit.cpr_ms", median("audit.cpr"), "ms"},
      {"audit.cpr_ratio", pass.cpr_ratio, "ratio"},
      {"rel.load_ms", median("rel.load"), "ms"},
      {"graph.load_ms", median("graph.load"), "ms"},
      {"audit.batch_parse_ms",
       per(pass.Total("audit.batch_parse"), pass.batches), "ms"},
      {"rel.sync_ms", per(pass.Total("rel.sync"), pass.batches), "ms"},
      {"graph.sync_ms", per(pass.Total("graph.sync"), pass.batches), "ms"},
      {"trace.overhead_ms", check.trace_overhead_ms, "ms"},
      {"trace.layer_sum_error", check.layer_sum_error, "ratio"},
  };
  metrics.insert(metrics.end(), layers.begin(), layers.end());
  metrics.insert(metrics.end(), mem.begin(), mem.end());
  return metrics;
}

void FinishTraced(const Args& args, const LoopOutcome* at_n,
                  const LoopOutcome& at_1, const TracedPass& pass,
                  const HuntCheck& check, const std::vector<Metric>& mem,
                  bool setup_correct) {
  if (!args.spans_path.empty()) pass.spans.Write(args.spans_path);
  std::vector<Metric> metrics = PerLayerMetrics(at_n, at_1, pass, check, mem);
  LoopOutcome http = at_1;
  if (at_n != nullptr) {
    http.tally.Merge(at_n->tally);
    http.wrong += at_n->wrong;
  }
  bool correct =
      setup_correct && pass.correct && check.layer_sum_ok && http.wrong == 0;
  PrintResult(correct, http.tally.attempted(), http.tally.failed(), metrics);
}

/// Repeats the layer-sum check this many times per paper report.
constexpr size_t kHuntCheckRepeats = 20;

int RunPaperWorkload(const Args& args) {
  const bool hunts = args.workload == "hunt_paper";
  PaperData data = GeneratePaperData(args.seed, /*with_queries=*/!hunts);

  if (!args.trace) {
    std::vector<double> setups;
    std::unique_ptr<Served> served;
    for (size_t i = 0; i < kSetupRepeats; ++i) {
      served.reset();
      served = std::make_unique<Served>(data.text);
      setups.push_back(served->setup_s());
    }
    PaperScript script = MakePaperScript(args.workload, *served, data);
    LoopOutcome loop = RunClosedLoop(served->port(), script.requests,
                                     script.clients, script.cycle,
                                     args.seconds);
    // After the loop, so neither the measured requests nor the peak resident
    // set see the ingested batches.
    const double peak_rss_mb = PeakRssMb();
    std::vector<double> rates;
    for (const std::string& batch : GenerateBatches(&data.gen)) {
      rates.push_back(served->IngestBatch(batch));
    }
    PrintResult(script.correct && loop.wrong == 0, loop.tally.attempted(),
                loop.tally.failed(),
                EndToEndMetrics(setups, loop, peak_rss_mb,
                                UpperQuartile(rates)));
    return 0;
  }

  Served served(data.text);
  ThreatRaptor& system = served.system();
  PaperScript script = MakePaperScript(args.workload, served, data);
  // Timed passes: HTTP at the workload's client count (when above 1), HTTP
  // at 1 client, and the traced in-process pass.
  const bool multi = script.clients > 1;
  const double share = args.seconds / (multi ? 3 : 2);
  std::optional<LoopOutcome> at_n;
  if (multi) {
    at_n = RunClosedLoop(served.port(), script.requests, script.clients,
                         script.cycle, share);
  }
  LoopOutcome at_1 =
      RunClosedLoop(served.port(), script.requests, 1, script.cycle, share);
  std::vector<Metric> mem = MemoryMetrics(served.port());

  TracedPass pass;
  auto facade = [&](const raptor::tbql::Query& q) {
    return system.ExecuteQuery(q);
  };
  // Same order as a closed-loop client: warm-up, then whole cycles.
  Clock::time_point deadline = Deadline(share);
  for (size_t i = 0;; ++i) {
    size_t k = i - std::min(i, kWarmupRequests);
    if (i >= kWarmupRequests && k % script.cycle == 0 && k > 0 &&
        Clock::now() >= deadline) {
      break;
    }
    const Request& request = script.requests[i % script.requests.size()];
    if (i < kWarmupRequests) {  // untraced, so it leaves no spans
      Rows rows;
      if (hunts) {
        if (auto hunt = system.Hunt(request.body); hunt.ok()) {
          rows = hunt->result.rows;
        }
      } else if (auto result = system.ExecuteTbql(request.body); result.ok()) {
        rows = result->rows;
      }
      if (rows != request.expected) pass.correct = false;
      continue;
    }
    pass.spans.NextRequest();
    pass.Count(request.shape,
               hunts ? TracedHunt(&pass.spans, system, request.body, facade)
                     : TracedQuery(&pass.spans, system, request.body),
               request.expected);
  }
  pass.workload_spans = pass.spans.spans().size();

  PaperScript paper =
      hunts ? PaperScript{} : MakePaperScript("hunt_paper", served, data);
  std::vector<const Request*> paper_hunts;
  for (const Request& r : (hunts ? script : paper).requests) {
    paper_hunts.push_back(&r);
  }
  HuntCheck check =
      CheckPaperHunts(&pass.spans, system, paper_hunts, kHuntCheckRepeats);
  pass.spans.NextRequest();
  pass.cpr_ratio = OwnedStore(&pass.spans, data.text).cpr_ratio;
  FinishTraced(args, at_n ? &*at_n : nullptr, at_1, pass, check, mem,
               script.correct && paper.correct);
  return 0;
}

// live_ingest: every round starts from a fresh 100k-event store and runs the
// same fixed batches, so a faster ingest cannot grow the store its own hunts
// search.

struct LiveScript {
  Request hunt;               ///< The leakage report, POSTed after each batch.
  std::vector<Rows> expected;  ///< Hunt rows after each batch.
  bool correct = true;
};

/// The reference round, in-process and serial: after each batch the hunt
/// returns no rows before the attack batch and exactly the attack's narrated
/// events from it on.
LiveScript MakeLiveScript(const LiveData& data, std::vector<double>* setups) {
  LiveScript script;
  Served served(data.base_text);
  setups->push_back(served.setup_s());
  ThreatRaptor& system = served.system();
  const audit::EventId base = system.log().event_count();
  std::vector<audit::EventId> truth;
  for (audit::EventId id : data.leakage.core_event_ids) {
    truth.push_back(base + id);
  }
  std::sort(truth.begin(), truth.end());
  script.hunt.shape = "leakage";
  script.hunt.path = "/api/hunt";
  script.hunt.body = data.leakage.report_text;
  script.hunt.hunt = true;
  raptor::HuntOptions serial;
  serial.num_threads = 1;
  for (size_t b = 0; b < data.batches.size(); ++b) {
    if (raptor::Status st = system.IngestLiveText(data.batches[b]); !st.ok()) {
      Fail("IngestLiveText: " + st.ToString());
    }
    auto hunt = system.Hunt(data.leakage.report_text, serial);
    if (!hunt.ok()) Fail("reference hunt: " + hunt.status().ToString());
    bool ok = b < data.attack_batch
                  ? hunt->result.rows.empty()
                  : hunt->result.rows.size() == 1 &&
                        hunt->result.MatchedEvents() == truth;
    if (!ok) {
      std::fprintf(stderr, "perfbench: batch %zu hunt returned %zu rows\n", b,
                   hunt->result.rows.size());
      script.correct = false;
    }
    script.expected.push_back(hunt->result.rows);
  }
  return script;
}

/// Runs rounds until `seconds` have passed (at least one). Each round sets
/// up a served store, then alternates IngestLiveText of a batch with one
/// hunt POST. Returns the last round's server, still serving.
std::unique_ptr<Served> RunLiveRounds(const LiveData& data,
                                      const LiveScript& script, bool warmup,
                                      double seconds,
                                      std::vector<double>* setups,
                                      LoopOutcome* out) {
  std::unique_ptr<Served> served;
  Clock::time_point deadline = Deadline(seconds);
  do {
    served.reset();
    served = std::make_unique<Served>(data.base_text);
    setups->push_back(served->setup_s());
    Clock::time_point round_start = Clock::now();
    const size_t completed_before = out->tally.completed();
    for (size_t b = 0; b < data.batches.size(); ++b) {
      out->batch_rates.push_back(served->IngestBatch(data.batches[b]));
      HttpReply reply = HttpCall(served->port(), "POST", script.hunt.path,
                                 script.hunt.body);
      // Completion time on the axis of measured loop time (set-ups excluded).
      double done_s =
          out->measured_s + MsBetween(round_start, Clock::now()) / 1000.0;
      out->Record(reply, script.hunt, script.expected[b], warmup, done_s);
    }
    if (!warmup) {
      const double round_s = MsBetween(round_start, Clock::now()) / 1000.0;
      out->measured_s += round_s;
      out->round_rates.push_back(
          static_cast<double>(out->tally.completed() - completed_before) /
          round_s);
    }
  } while (Clock::now() < deadline);
  return served;
}

int RunLiveIngest(const Args& args) {
  LiveData data = GenerateLiveData(args.seed);
  std::vector<double> setups;
  LiveScript script = MakeLiveScript(data, &setups);

  LoopOutcome loop;
  // Percentile chunks of whole rounds, so every chunk holds the same mix of
  // batch positions.
  loop.chunk = kLiveChunkRounds * kLiveBatches;
  if (!args.trace) {
    RunLiveRounds(data, script, /*warmup=*/true, 0, &setups, &loop);
    loop.batch_rates.clear();
    RunLiveRounds(data, script, /*warmup=*/false, args.seconds, &setups, &loop);
    PrintResult(script.correct && loop.wrong == 0, loop.tally.attempted(),
                loop.tally.failed(),
                EndToEndMetrics(setups, loop, PeakRssMb(),
                                UpperQuartile(loop.batch_rates)));
    return 0;
  }

  // Timed passes: 1-client HTTP rounds, then the traced in-process rounds.
  const double share = args.seconds / 2;
  std::unique_ptr<Served> served =
      RunLiveRounds(data, script, /*warmup=*/false, share, &setups, &loop);
  std::vector<Metric> mem = MemoryMetrics(served->port());

  // The traced pass replays rounds on stores it owns, so the load and sync
  // layers can be timed call by call.
  TracedPass pass;
  ThreatRaptor& system = served->system();
  Clock::time_point deadline = Deadline(share);
  do {
    pass.spans.NextRequest();
    OwnedStore owned(&pass.spans, data.base_text);
    pass.cpr_ratio = owned.cpr_ratio;
    auto owned_engine = [&](const raptor::tbql::Query& q) {
      return owned.engine->Execute(q, system.options().execution);
    };
    for (size_t b = 0; b < data.batches.size(); ++b) {
      pass.spans.NextRequest();
      owned.Ingest(&pass.spans, data.batches[b]);
      ++pass.batches;
      pass.spans.NextRequest();
      pass.Count(script.hunt.shape,
                 TracedHunt(&pass.spans, system, script.hunt.body,
                            owned_engine),
                 script.expected[b]);
    }
  } while (Clock::now() < deadline);
  pass.workload_spans = pass.spans.spans().size();

  Request final_hunt = script.hunt;
  final_hunt.expected = script.expected.back();
  HuntCheck check =
      CheckPaperHunts(&pass.spans, system, {&final_hunt}, kHuntCheckRepeats);
  FinishTraced(args, /*at_n=*/nullptr, loop, pass, check, mem,
               script.correct);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args = perfbench::ParseArgs(argc, argv);
  if (args.workload == "hunt_paper" || args.workload == "query_mix") {
    return perfbench::RunPaperWorkload(args);
  }
  if (args.workload == "live_ingest") return perfbench::RunLiveIngest(args);
  perfbench::Fail("unknown workload '" + args.workload + "'");
}
