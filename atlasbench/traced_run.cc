#include "traced_run.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "loadgen.h"
#include "src/codec/codec.h"
#include "src/common/rng.h"
#include "src/msg/message.h"
#include "src/sim/latency.h"
#include "src/sim/simulator.h"
#include "src/smr/deployment.h"

namespace atlasbench {

namespace {

enum SpanName : uint8_t { kSubmit, kOnMessage, kOnTimer, kApply, kEncode, kDecode, kNames };
constexpr const char* kSpanNames[kNames] = {"core.submit", "core.on_message",
                                            "core.on_timer", "smr.apply",
                                            "codec.encode", "codec.decode"};

// What a span's (a, b) pair identifies.
enum class IdKind : uint8_t { kNone, kClient, kDot, kToken };

// Spans written to the JSON file; the rest are counted, not written.
constexpr size_t kMaxSpansWritten = 50000;
// Simulated runs with spans off and with spans on, alternating; the overhead
// compares their median wall times.
constexpr int kRunsPerMode = 3;
constexpr size_t kKinds = std::variant_size_v<msg::Message::Body>;

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t child_ns = 0;  // time covered by direct children
  uint64_t a = 0;
  uint64_t b = 0;
  int32_t parent = -1;
  SpanName name = kSubmit;
  uint8_t replica = 0;
  IdKind id = IdKind::kNone;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  int32_t Begin(SpanName name, uint32_t replica, IdKind id, uint64_t a, uint64_t b) {
    if (!on_) {
      return -1;
    }
    Span s;
    s.a = a;
    s.b = b;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.name = name;
    s.replica = static_cast<uint8_t>(replica);
    s.id = id;
    auto idx = static_cast<int32_t>(spans_.size());
    spans_.push_back(s);
    stack_.push_back(idx);
    spans_.back().start_ns = NowNs();
    return idx;
  }

  void End(int32_t idx) {
    if (idx < 0) {
      return;
    }
    Span& s = spans_[static_cast<size_t>(idx)];
    s.end_ns = NowNs();
    stack_.pop_back();
    int64_t dur = s.end_ns - s.start_ns;
    self_ns_[s.name] += dur - s.child_ns;
    if (s.parent >= 0) {
      spans_[static_cast<size_t>(s.parent)].child_ns += dur;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }
  int64_t self_ns(SpanName n) const { return self_ns_[n]; }

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
  int64_t self_ns_[kNames] = {};
};

class Scope {
 public:
  Scope(Tracer& t, SpanName name, uint32_t replica, IdKind id, uint64_t a, uint64_t b)
      : t_(t), idx_(t.Begin(name, replica, id, a, b)) {}
  ~Scope() { t_.End(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int32_t idx_;
};

template <class T, class = void>
struct HasDot : std::false_type {};
template <class T>
struct HasDot<T, std::void_t<decltype(std::declval<const T&>().dot)>> : std::true_type {};

common::Dot DotOf(const msg::Message& m) {
  return std::visit(
      [](const auto& body) -> common::Dot {
        if constexpr (HasDot<std::decay_t<decltype(body)>>::value) {
          return body.dot;
        } else {
          return common::Dot{};
        }
      },
      m.body);
}

// State shared by every replica of one simulated run.
struct RunState {
  explicit RunState(bool tracing) : tracer(tracing), value(kValueSize, 'x') {}

  Tracer tracer;
  uint64_t msgs[kKinds] = {};
  const char* kind_names[kKinds] = {};
  std::unordered_map<uint64_t, bool> pending;  // (client, seq) -> is a get
  uint64_t answered = 0;
  uint64_t duplicates = 0;
  uint64_t dropped = 0;
  uint64_t bad_values = 0;
  std::string value;
  codec::Writer wire;

  static uint64_t Key(uint64_t client, uint64_t seq) { return (client << 32) | seq; }

  void Complete(const smr::Command& sub, const std::string& result, bool was_dropped) {
    auto it = pending.find(Key(sub.client, sub.seq));
    if (it == pending.end()) {
      duplicates++;
      return;
    }
    bool is_get = it->second;
    pending.erase(it);
    answered++;
    if (was_dropped) {
      dropped++;
    } else if (is_get ? !(result.empty() || result == value) : !result.empty()) {
      bad_values++;
    }
  }
};

// Decorates one replica's engine: spans around the driver's calls into the
// engine, and the engine's own context calls routed back through here.
class TracingEngine final : public smr::Engine, private smr::Context {
 public:
  TracingEngine(smr::Deployment* d, RunState* s) : d_(d), s_(s) {}

  void OnStart() override {
    d_->engine().Bind(self_, n_, this);
    d_->engine().OnStart();
  }

  void Submit(smr::Command cmd) override {
    Scope span(s_->tracer, kSubmit, self_, IdKind::kClient, cmd.client, cmd.seq);
    d_->engine().Submit(std::move(cmd));
  }

  void OnMessage(common::ProcessId from, const msg::Message& m) override {
    common::Dot dot = DotOf(m);
    Scope span(s_->tracer, kOnMessage, self_, IdKind::kDot, dot.proc, dot.seq);
    d_->engine().OnMessage(from, m);
  }

  void OnTimer(uint64_t token) override {
    Scope span(s_->tracer, kOnTimer, self_, IdKind::kToken, token, 0);
    d_->engine().OnTimer(token);
  }

 private:
  // smr::Context of the wrapped engine. Messages cross the codec both ways,
  // as on a socket; the decoded copy is what the peer receives.
  void Send(common::ProcessId to, msg::Message m) override {
    size_t kind = m.index();
    s_->msgs[kind]++;
    s_->kind_names[kind] = msg::TypeName(m);
    common::Dot dot = DotOf(m);
    {
      Scope span(s_->tracer, kEncode, self_, IdKind::kDot, dot.proc, dot.seq);
      s_->wire.Clear();
      msg::Encode(s_->wire, m);
    }
    msg::Message decoded;
    bool ok;
    {
      Scope span(s_->tracer, kDecode, self_, IdKind::kDot, dot.proc, dot.seq);
      codec::Reader r(s_->wire.buffer());
      ok = msg::Decode(r, decoded);
    }
    CHECK(ok);
    ctx_->Send(to, std::move(decoded));
  }

  common::Time Now() const override { return ctx_->Now(); }

  void SetTimer(common::Duration delay, uint64_t token) override {
    ctx_->SetTimer(delay, token);
  }

  void Executed(const common::Dot& dot, const smr::Command& cmd) override {
    Scope span(s_->tracer, kApply, self_, IdKind::kDot, dot.proc, dot.seq);
    d_->ApplyExecuted(dot, cmd,
                      [this](uint32_t, const smr::Command& sub, std::string&& result) {
                        if (sub.client != 0 && HomeReplica(sub.client) == self_) {
                          s_->Complete(sub, result, /*was_dropped=*/false);
                        }
                      });
  }

  void Dropped(const common::Dot& dot, const smr::Command& original) override {
    d_->ForEachDropped(original, [this](const smr::Command& sub) {
      if (sub.client != 0 && HomeReplica(sub.client) == self_) {
        s_->Complete(sub, "", /*was_dropped=*/true);
      }
    });
  }

  smr::Deployment* d_;
  RunState* s_;
};

struct OneRun {
  std::unique_ptr<RunState> state;
  double wall_sec = 0;
  smr::EngineStats stats;  // summed over replicas
  // Every count that must repeat exactly for a given seed.
  std::vector<uint64_t> fingerprint;
  std::string error;
};

OneRun RunOnce(const WorkloadSpec& spec, uint64_t seed, uint64_t ops,
               const std::string& data_dir, bool tracing) {
  OneRun run;
  run.state = std::make_unique<RunState>(tracing);
  RunState& st = *run.state;

  std::vector<std::unique_ptr<smr::Deployment>> replicas;
  std::vector<std::unique_ptr<TracingEngine>> engines;
  sim::Simulator::Options so;
  so.seed = seed;
  sim::Simulator sim(std::make_unique<sim::UniformLatency>(0, 0), so);
  for (uint32_t i = 0; i < spec.n; i++) {
    replicas.push_back(std::make_unique<smr::Deployment>(
        DeploymentFor(spec, i, data_dir, /*threaded=*/false)));
    engines.push_back(std::make_unique<TracingEngine>(replicas.back().get(), &st));
    sim.AddEngine(engines.back().get());
  }
  sim.Start();

  // The open-loop schedule of the TCP run, in simulated microseconds.
  std::unique_ptr<wl::Workload> gen = MakeGenerator(spec);
  common::Rng arrivals(StreamSeed(seed, 0));
  std::vector<common::Rng> rngs;
  std::vector<uint64_t> seqs(static_cast<size_t>(kConnections) * kOpenClientsPerConn, 1);
  for (size_t i = 0; i < seqs.size(); i++) {
    rngs.emplace_back(StreamSeed(seed, i + 1));
  }
  const double mean_gap_us = 1e6 / spec.open_rate;
  double t = 0;
  for (uint64_t i = 0; i < ops; i++) {
    t += arrivals.Exponential(mean_gap_us);
    uint64_t client = OpenLoopClient(i);
    smr::Command cmd = gen->Next(client, seqs[client - 1]++, rngs[client - 1]);
    st.pending.emplace(RunState::Key(cmd.client, cmd.seq), cmd.op == smr::Op::kGet);
    sim.PostSubmitIn(static_cast<common::Duration>(t), HomeReplica(client), std::move(cmd));
  }

  int64_t t0 = NowNs();
  sim.RunUntil(static_cast<common::Time>(t) + 2 * common::kSecond);
  run.wall_sec = static_cast<double>(NowNs() - t0) * 1e-9;

  if (!st.pending.empty() || st.duplicates != 0 || st.dropped != 0 ||
      st.bad_values != 0) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "traced run: %zu unanswered, %llu duplicate, %llu dropped, "
                  "%llu wrong replies",
                  st.pending.size(), static_cast<unsigned long long>(st.duplicates),
                  static_cast<unsigned long long>(st.dropped),
                  static_cast<unsigned long long>(st.bad_values));
    run.error = buf;
  }
  for (uint32_t i = 0; i < spec.n; i++) {
    run.stats += replicas[i]->stats();
    for (uint32_t s = 0; s < spec.partitions; s++) {
      uint64_t digest = replicas[i]->store(s).StateDigest();
      uint64_t applied = replicas[i]->applied_count(s);
      if (run.error.empty() && (digest != replicas[0]->store(s).StateDigest() ||
                                applied != replicas[0]->applied_count(s))) {
        run.error = "traced run: replicas diverged on shard " + std::to_string(s);
      }
      run.fingerprint.push_back(digest);
      run.fingerprint.push_back(applied);
    }
  }
  run.fingerprint.insert(run.fingerprint.end(), std::begin(st.msgs), std::end(st.msgs));
  const smr::EngineStats& es = run.stats;
  run.fingerprint.insert(run.fingerprint.end(),
                         {es.submitted, es.committed, es.executed, es.fast_paths,
                          es.slow_paths, es.recoveries_started, es.messages_sent,
                          st.answered});
  return run;
}

double MedianOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

void WriteSpans(const std::string& path, const WorkloadSpec& spec, uint64_t seed,
                uint64_t ops, const std::vector<Span>& spans, size_t count) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return;
  }
  std::fprintf(f,
               "{\"workload\": \"%s\", \"seed\": %llu, \"ops\": %llu, "
               "\"spans_total\": %zu, \"spans_written\": %zu,\n \"spans\": [\n",
               spec.name, static_cast<unsigned long long>(seed),
               static_cast<unsigned long long>(ops), spans.size(), count);
  int64_t origin = spans.empty() ? 0 : spans[0].start_ns;
  for (size_t i = 0; i < count; i++) {
    const Span& s = spans[i];
    char id[64] = "";
    switch (s.id) {
      case IdKind::kClient:
        std::snprintf(id, sizeof(id), "c%llu:%llu", static_cast<unsigned long long>(s.a),
                      static_cast<unsigned long long>(s.b));
        break;
      case IdKind::kDot:
        if (s.a != common::kInvalidProcess) {
          std::snprintf(id, sizeof(id), "%llu.%llu", static_cast<unsigned long long>(s.a),
                        static_cast<unsigned long long>(s.b));
        }
        break;
      case IdKind::kToken:
        std::snprintf(id, sizeof(id), "t%llu", static_cast<unsigned long long>(s.a));
        break;
      case IdKind::kNone:
        break;
    }
    std::fprintf(f,
                 "  {\"i\": %zu, \"name\": \"%s\", \"replica\": %u, \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"id\": \"%s\"}%s\n",
                 i, kSpanNames[s.name], s.replica,
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin), s.parent, id,
                 i + 1 < count ? "," : "");
  }
  std::fprintf(f, " ]}\n");
  std::fclose(f);
}

}  // namespace

TraceResult RunTraced(const WorkloadSpec& spec, uint64_t seed, uint64_t ops,
                      const std::string& data_root, const std::string& json_path) {
  TraceResult res;
  res.ops = ops;
  std::error_code ec;
  const std::string data_dir = data_root + "/trace";
  std::vector<double> wall[2];  // by spans off / on
  std::vector<uint64_t> reference;
  OneRun on;
  for (int i = 0; i < 2 * kRunsPerMode; i++) {
    const bool tracing = i % 2 == 1;
    std::filesystem::remove_all(data_dir, ec);  // a durable run must not recover
    OneRun run = RunOnce(spec, seed, ops, data_dir, tracing);
    std::filesystem::remove_all(data_dir, ec);
    if (!run.error.empty()) {
      res.error = run.error;
      return res;
    }
    if (i == 0) {
      reference = run.fingerprint;
    } else if (run.fingerprint != reference) {
      res.error = "traced run: counts differ between runs of one seed";
      return res;
    }
    wall[tracing].push_back(run.wall_sec);
    if (tracing) {
      on = std::move(run);
    }
  }

  const double n_ops = static_cast<double>(ops);
  const Tracer& tr = on.state->tracer;
  for (int k = 0; k < kNames; k++) {
    double us = static_cast<double>(tr.self_ns(static_cast<SpanName>(k))) * 1e-3 / n_ops;
    res.self_us_per_op[kSpanNames[k]] = us;
    res.total_us_per_op += us;
  }
  const double wall_off = MedianOf(wall[0]);
  res.overhead_pct = (MedianOf(wall[1]) - wall_off) / wall_off * 100.0;
  for (size_t k = 0; k < kKinds; k++) {
    if (on.state->msgs[k] != 0) {
      res.msgs_per_op[on.state->kind_names[k]] =
          static_cast<double>(on.state->msgs[k]) / n_ops;
    }
  }
  const smr::EngineStats& es = on.stats;
  res.ops_per_batch = n_ops / static_cast<double>(es.submitted);
  res.fast_path_ratio = static_cast<double>(es.fast_paths) /
                        static_cast<double>(es.fast_paths + es.slow_paths);
  res.spans = tr.spans().size();
  res.spans_written = std::min(tr.spans().size(), kMaxSpansWritten);
  WriteSpans(json_path, spec, seed, ops, tr.spans(), res.spans_written);
  res.ok = true;
  return res;
}

}  // namespace atlasbench
