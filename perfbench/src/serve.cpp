// Serving workloads: open-loop price requests from one generator thread
// into a MechanismServer with nproc − 1 workers and an 8-node mechanism.
// Every request goes through the serve/protocol codec the way
// `chiron_serve serve` handles it: the client encodes a frame, the server
// side decodes and submits it, and each response is encoded. A hot
// reload() is issued every 100 ms, so weight writes run alongside reads.
//
// serve_1k and serve_20k send on a fixed schedule. serve_20k then keeps
// the server saturated (a fixed number of requests outstanding) to measure
// its throughput, and steps the offered rate up to the highest one that
// meets the latency limit. Latency is measured from each request's due
// time, so a generator stall shows up as latency of the requests it
// delayed.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <sstream>

#include "bench.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "probes.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "tracer.h"

namespace perfbench {

using namespace chiron;

namespace {

constexpr std::int64_t kNodes = 8;
constexpr std::int64_t kHidden = 64;
constexpr std::int64_t kObsDim = 2 * 3 * kNodes + 2;  // L·3N + 2, L = 2
constexpr int kWeightSets = 4;
constexpr int kStatePool = 4096;
constexpr double kReloadPeriodS = 0.1;
constexpr int kSetups = 40;
// Queue of the fixed-rate and saturated phases: deep enough that a host
// stall of seconds at 20k requests/s queues instead of shedding. The
// max-rate search keeps the server's default cap, so an overloaded probe
// sheds rather than growing a backlog.
constexpr std::size_t kDeepQueueCap = std::size_t{1} << 16;
constexpr std::size_t kProbeQueueCap = 1024;
// Saturated chunks: requests per chunk, and requests kept outstanding so
// every worker always finds a full batch.
constexpr std::uint64_t kSaturatedChunk = 40000;
constexpr std::uint64_t kWindow = 512;
// A search probe sends at most this many requests, so the memory a probe
// needs does not grow with the rate the search reaches.
constexpr std::uint64_t kProbeMaxRequests = 40000;
// Latency limit of the max-rate search: the p99 a rate must meet.
constexpr double kLimitP99Ms = 5.0;

std::int64_t mlp_params(std::int64_t in, std::int64_t h, std::int64_t out) {
  return (in * h + h) + (h * h + h) + (h * out + out);
}

// A mechanism checkpoint with seeded random parameters.
serve::MechanismWeights make_weights(Rng& rng) {
  serve::MechanismWeights w;
  w.info.exterior_obs_dim = kObsDim;
  w.info.num_nodes = kNodes;
  w.info.hidden = kHidden;
  w.info.price_cap = 40.0;
  auto fill = [&](std::int64_t n) {
    std::vector<float> v(static_cast<std::size_t>(n));
    for (float& x : v) x = static_cast<float>(rng.normal(0.0, 0.15));
    return v;
  };
  w.exterior_policy = fill(mlp_params(kObsDim, kHidden, 1) + 1);
  w.exterior_critic = fill(mlp_params(kObsDim, kHidden, 1));
  w.inner_policy = fill(mlp_params(1, kHidden, kNodes) + kNodes);
  w.inner_critic = fill(mlp_params(1, kHidden, 1));
  return w;
}

struct Inputs {
  std::vector<serve::MechanismWeights> weights;  // cycled by reloads
  std::vector<std::vector<float>> states;        // request i uses i % size
  std::uint64_t sample_salt = 0;
};

Inputs make_inputs(std::uint64_t seed) {
  Rng rng(seed);
  Inputs in;
  for (int k = 0; k < kWeightSets; ++k) in.weights.push_back(make_weights(rng));
  in.states.assign(kStatePool, std::vector<float>(kObsDim));
  for (auto& s : in.states) {
    for (float& v : s) v = static_cast<float>(rng.uniform());
  }
  in.sample_salt = seed * 0x9E3779B97F4A7C15ull + 1;
  return in;
}

serve::ServerConfig server_config(int nproc, std::size_t queue_cap) {
  serve::ServerConfig c;
  c.workers = std::max(1, nproc - 1);
  c.batch_max = 32;
  c.queue_cap = queue_cap;
  return c;
}

// About one request in 64, chosen by a seeded hash of its index.
bool sampled(const Inputs& in, std::uint64_t i) {
  std::uint64_t x = (i + 1) * in.sample_salt;
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 29;
  return (x & 63) == 0;
}

// Weight set serving version v (1 = the initial snapshot).
const serve::MechanismWeights& weights_of(const Inputs& in, std::uint64_t v) {
  return in.weights[static_cast<std::size_t>((v - 1) % kWeightSets)];
}

std::vector<std::uint8_t> expected_response(serve::PricingEngine& engine,
                                            std::uint64_t id,
                                            const std::vector<float>& state) {
  const serve::PriceQuote q = engine.price_one(state);
  serve::Message m;
  m.type = serve::MsgType::kPriceResponse;
  m.id = id;
  m.status = serve::Status::kOk;
  m.p_total = q.p_total;
  m.prices = q.prices;
  return serve::encode(m);
}

struct Phase {
  double offered = 0.0;
  std::uint64_t sent = 0;
  std::vector<double> latency_ms;  // answered kOk, from due (or submit) time
  std::vector<double> lateness_us;
  double achieved_per_s = 0.0;
  double gen_wall_s = 0.0;
  std::uint64_t not_ok = 0;  // unanswered, answered twice, or not kOk
  std::uint64_t shed = 0;
  std::uint64_t mismatched = 0;  // sampled responses that differ
  std::uint64_t samples = 0;
  bool backlog_growing = false;
  serve::ServerStats stats;
  int workers = 0;
};

std::uint64_t requests_for(double rate, double seconds) {
  return std::max<std::uint64_t>(1, DueSchedule{0, rate}.count_for(seconds));
}

// Sends `n` requests to a fresh server: open loop at `rate` requests/s, or
// saturated (rate 0: each request sent as soon as fewer than kWindow are
// outstanding, latency from submit).
Phase run_phase(const Inputs& in, int nproc, double rate, std::uint64_t n,
                std::size_t queue_cap = kDeepQueueCap) {
  Phase ph;
  ph.offered = rate;
  const bool saturated = rate <= 0.0;
  const serve::ServerConfig cfg = server_config(nproc, queue_cap);
  ph.workers = cfg.workers;
  const DueSchedule sched{now_ns() + 2'000'000, saturated ? 1.0 : rate};
  ph.sent = n;

  auto answers = std::make_unique<std::atomic<std::uint32_t>[]>(n);
  auto status = std::make_unique<std::atomic<std::uint8_t>[]>(n);
  auto resp_ns = std::make_unique<std::atomic<std::int64_t>[]>(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    answers[i].store(0, std::memory_order_relaxed);
    status[i].store(0, std::memory_order_relaxed);
    resp_ns[i].store(0, std::memory_order_relaxed);
  }
  std::vector<std::uint64_t> submit_version(n, 0);
  std::vector<std::int64_t> due_ns(n, 0);
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> stray{0};
  std::mutex sample_mu;
  std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>> samples;
  std::vector<std::int64_t> reload_ns{0, 0};  // by version; v1 = initial

  {
    serve::MechanismServer server(
        weights_of(in, 1), cfg, [&](const serve::Message& m) {
          std::vector<std::uint8_t> bytes;
          {
            Span span("serve.codec.response");
            bytes = serve::encode(m);
          }
          const std::int64_t t = now_ns();
          if (m.id == 0 || m.id > n) {
            stray.fetch_add(1, std::memory_order_relaxed);
            return;
          }
          const std::uint64_t i = m.id - 1;
          answers[i].fetch_add(1, std::memory_order_relaxed);
          status[i].store(static_cast<std::uint8_t>(m.status),
                          std::memory_order_relaxed);
          resp_ns[i].store(t, std::memory_order_relaxed);
          answered.fetch_add(1, std::memory_order_release);
          if (m.status == serve::Status::kOk && sampled(in, i)) {
            std::lock_guard<std::mutex> lock(sample_mu);
            samples.emplace_back(i, std::move(bytes));
          }
        });

    ph.lateness_us.reserve(saturated ? 0 : n);
    std::uint64_t version = 1;
    const std::int64_t gen_t0 = now_ns();
    const std::int64_t start_ns = saturated ? gen_t0 : sched.start_ns;
    std::int64_t next_reload =
        start_ns + static_cast<std::int64_t>(kReloadPeriodS * 1e9);
    for (std::uint64_t i = 0; i < n; ++i) {
      std::int64_t due = 0;
      {
        // Spin rather than sleep: a sleep's wake-up delay would be
        // generator lateness, not server latency.
        Span span("gen.wait");
        if (saturated) {
          while (i - answered.load(std::memory_order_acquire) >= kWindow) {
          }
          due = now_ns();
        } else {
          due = sched.due_ns(i);
          std::int64_t now = now_ns();
          while (now < due) now = now_ns();
          ph.lateness_us.push_back(static_cast<double>(now - due) * 1e-3);
        }
      }
      due_ns[i] = due;
      if (due >= next_reload) {
        Span span("serve.reload");
        reload_ns.push_back(now_ns());
        server.reload(weights_of(in, version + 1));
        ++version;
        next_reload += static_cast<std::int64_t>(kReloadPeriodS * 1e9);
      }
      submit_version[i] = version;
      serve::Message req;
      req.type = serve::MsgType::kPriceRequest;
      req.id = i + 1;
      req.state = in.states[i % kStatePool];
      serve::Message decoded;
      {
        Span span("serve.codec.request");
        const std::vector<std::uint8_t> frame = serve::encode(req);
        decoded = serve::decode(frame);
      }
      {
        Span span("serve.submit");
        server.submit(std::move(decoded));
      }
    }
    ph.gen_wall_s = static_cast<double>(now_ns() - gen_t0) * 1e-9;
    server.drain();
    server.stop();
    ph.stats = server.stats();
  }

  // Every request answered exactly once with kOk; latency from due time.
  std::int64_t last_resp = 0;
  ph.latency_ms.reserve(n);
  std::vector<double> first_fifth, last_fifth;
  for (std::uint64_t i = 0; i < n; ++i) {
    const bool ok = answers[i].load() == 1 &&
                    status[i].load() == static_cast<std::uint8_t>(serve::Status::kOk);
    if (!ok) {
      ++ph.not_ok;
      continue;
    }
    const std::int64_t t = resp_ns[i].load();
    last_resp = std::max(last_resp, t);
    const double ms = static_cast<double>(t - due_ns[i]) * 1e-6;
    ph.latency_ms.push_back(ms);
    if (i < n / 5) first_fifth.push_back(ms);
    if (i >= n - n / 5) last_fifth.push_back(ms);
  }
  ph.not_ok += stray.load();
  ph.shed = ph.stats.shed;
  const double span_s =
      static_cast<double>(std::max<std::int64_t>(1, last_resp - due_ns[0])) * 1e-9;
  ph.achieved_per_s = static_cast<double>(ph.latency_ms.size()) / span_s;
  if (!first_fifth.empty() && !last_fifth.empty()) {
    ph.backlog_growing =
        median(last_fifth) > 2.0 * median(first_fifth) + 1.0;
  }

  // A seeded sample of responses must be byte-equal to price_one on a
  // weights version that was live between the request's submit and its
  // response.
  std::vector<std::unique_ptr<serve::PricingEngine>> engines;
  for (const auto& w : in.weights) {
    engines.push_back(std::make_unique<serve::PricingEngine>(w.info));
    engines.back()->adopt(w);
  }
  for (const auto& [i, bytes] : samples) {
    ++ph.samples;
    const std::int64_t t = resp_ns[i].load();
    bool match = false;
    for (std::uint64_t v = submit_version[i];
         v < reload_ns.size() && !match && (v == submit_version[i] || reload_ns[v] <= t);
         ++v) {
      serve::PricingEngine& e = *engines[static_cast<std::size_t>((v - 1) % kWeightSets)];
      match = expected_response(e, i + 1, in.states[i % kStatePool]) == bytes;
    }
    if (!match) ++ph.mismatched;
  }
  return ph;
}

// Meets the limit: p99 within kLimitP99Ms, ≥ 99% of the offered rate
// achieved, nothing shed or failed, and no growing backlog.
bool meets_limit(const Phase& ph) {
  return ph.not_ok == 0 && ph.shed == 0 && ph.mismatched == 0 &&
         !ph.latency_ms.empty() &&
         quantile(ph.latency_ms, 0.99) <= kLimitP99Ms &&
         ph.achieved_per_s >= 0.99 * ph.offered && !ph.backlog_growing;
}

void check_phase(const Phase& ph, Checks& checks) {
  // One item per request: answered exactly once with kOk.
  checks.items(ph.sent, std::min(ph.sent, ph.not_ok),
               std::to_string(ph.not_ok) +
                   " requests not answered exactly once with kOk");
  checks.item(ph.mismatched == 0,
              std::to_string(ph.mismatched) + " of " +
                  std::to_string(ph.samples) +
                  " sampled responses differ from PricingEngine::price_one");
  checks.item(ph.samples > 0, "no response was sampled for verification");
}

std::string rate_tag(double rate) {
  std::ostringstream s;
  s << "r" << static_cast<long long>(std::llround(rate / 1000.0)) << "k";
  return s.str();
}

Report set_up(const Options& opt, Inputs& in) {
  Report r;
  r.op_name = "request";
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t t0 = now_ns();
    in = make_inputs(opt.seed);
    serve::MechanismServer server(weights_of(in, 1),
                                  server_config(opt.nproc, kDeepQueueCap),
                                  [](const serve::Message&) {});
    server.stop();
    r.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  // Deterministic outputs: price_one of every weight set on the first
  // states, as response frames.
  Digest d;
  for (const auto& w : in.weights) {
    serve::PricingEngine e(w.info);
    e.adopt(w);
    for (int s = 0; s < 64; ++s) {
      const auto bytes = expected_response(e, static_cast<std::uint64_t>(s) + 1,
                                           in.states[static_cast<std::size_t>(s)]);
      d.bytes(bytes.data(), bytes.size());
    }
  }
  r.digest.push_back("price_one_responses=" + d.hex());
  r.info["workers"] =
      std::to_string(server_config(opt.nproc, kDeepQueueCap).workers);
  r.info["generator_threads"] = "1";
  r.info["batch_max"] = "32";
  r.info["queue_cap"] = std::to_string(kDeepQueueCap);
  r.info["search_queue_cap"] = std::to_string(kProbeQueueCap);
  r.info["reload_period_ms"] = std::to_string(static_cast<int>(kReloadPeriodS * 1e3));
  return r;
}

void serve_layers(const Options& opt, const Inputs& in, const Phase& traced,
                  Report& r) {
  const auto spans = Tracer::instance().totals();
  auto mean_us = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() || it->second.count == 0
               ? 0.0
               : it->second.total_s * 1e6 / static_cast<double>(it->second.count);
  };
  auto total_s = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total_s;
  };
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::instance().snapshot();
  double batch_us = 0.0;
  for (const auto& h : snap.histograms) {
    if (h.name == "span.serve_batch.us" && h.count > 0) {
      batch_us = h.sum / static_cast<double>(h.count);
    }
  }
  r.traced_wall_s = traced.gen_wall_s;
  // The generator thread's timeline.
  r.table = {
      {"gen.wait (idle until due)", total_s("gen.wait"), false},
      {"serve.codec (request encode+decode)", total_s("serve.codec.request"),
       false},
      {"serve.submit", total_s("serve.submit"), false},
      {"serve.reload", total_s("serve.reload"), false},
  };
  close_layer_table(r, traced.gen_wall_s);
  auto& L = r.layer;
  L["serve.batch_size_mean"] =
      traced.stats.batches == 0
          ? 0.0
          : static_cast<double>(traced.stats.served) /
                static_cast<double>(traced.stats.batches);
  L["serve.batch_us"] = batch_us;
  L["serve.submit_us"] = mean_us("serve.submit");
  L["serve.codec_us"] =
      mean_us("serve.codec.request") + mean_us("serve.codec.response");
  L["serve.reload_us"] = mean_us("serve.reload");
  L["serve.price_batch_us.b1"] = probe_price_batch_us(in.weights[0], 1, opt.seed + 21);
  L["serve.price_batch_us.b32"] =
      probe_price_batch_us(in.weights[0], 32, opt.seed + 22);
  L["serve.worker_busy_frac"] =
      batch_us * static_cast<double>(traced.stats.batches) * 1e-6 /
      (static_cast<double>(traced.workers) * traced.gen_wall_s);
}

void trace_on(bool on) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  if (on) reg.reset();
  reg.set_enabled(on);
  Tracer::instance().set_enabled(on);
}

}  // namespace

Report run_serve(const Options& opt, double rate, bool find_max) {
  Inputs in;
  Report r = set_up(opt, in);
  // Untraced: the fixed rate, then (find_max, untraced runs only) a third
  // of the run saturated and the max-rate search. Traced: half the time
  // untraced and half traced at the fixed rate.
  const bool search = find_max && !opt.trace;
  const double fixed_s =
      search ? opt.seconds / 3 : opt.trace ? opt.seconds / 2 : opt.seconds;
  const Phase ph = run_phase(in, opt.nproc, rate, requests_for(rate, fixed_s));
  check_phase(ph, r.checks);
  r.op_ms = ph.latency_ms;
  const std::string tag = rate_tag(rate);
  if (!ph.latency_ms.empty()) {
    r.named.push_back({"serve.p50_us." + tag, "us", median(ph.latency_ms) * 1e3});
    r.named.push_back(
        {"serve.p99_us." + tag, "us", quantile(ph.latency_ms, 0.99) * 1e3});
  }
  r.named.push_back({"serve.achieved_per_s." + tag, "1/s", ph.achieved_per_s});
  r.named.push_back({"gen.lateness_us.p99", "us", quantile(ph.lateness_us, 0.99)});
  r.info["offered_per_s"] = std::to_string(static_cast<long long>(rate));
  r.info["shed"] = std::to_string(ph.shed);

  if (search) {
    // Throughput: chunks of kSaturatedChunk requests with kWindow kept
    // outstanding; the median over chunks. A host stall costs one chunk,
    // not the whole figure.
    std::vector<double> saturated_per_s;
    repeat_for(opt.seconds / 3, 3, [&](int) {
      const Phase p = run_phase(in, opt.nproc, 0.0, kSaturatedChunk);
      check_phase(p, r.checks);
      saturated_per_s.push_back(p.achieved_per_s);
    });
    r.unit_ops_per_s = saturated_per_s;
    r.named.push_back({"serve.saturated_per_s", "1/s", median(saturated_per_s)});
    r.info["saturated_chunks"] = std::to_string(saturated_per_s.size());

    // Step up ×1.5 from the fixed rate, then bisect five times. Each
    // probe runs a fresh server for 1/40 of the run, at most
    // kProbeMaxRequests requests. A rate that misses the limit gets a
    // second try, so one host stall of a few ms cannot end the search
    // early. The limit is a latency target, not a check: on a loaded host
    // no rate may meet it, and serve.max_qps then reads 0.
    const double probe_s = std::clamp(opt.seconds / 40.0, 0.05, 1.0);
    auto meets = [&](double offered) {
      const Phase p =
          run_phase(in, opt.nproc, offered,
                    std::min(kProbeMaxRequests, requests_for(offered, probe_s)),
                    kProbeQueueCap);
      // Above the limit a probe may shed by design; a wrong answer is a
      // failure at any rate.
      r.checks.item(p.mismatched == 0,
                    "sampled responses differ from PricingEngine::price_one");
      const bool ok = meets_limit(p);
      if (ok) check_phase(p, r.checks);
      return ok;
    };
    const RateSearchResult found = step_up_search(
        rate, 1.5, 2e6, 1000.0, 5,
        [&](double offered) { return meets(offered) || meets(offered); });
    r.named.push_back({"serve.max_qps", "1/s", found.max_ok});
    std::ostringstream probes;
    for (const RateProbe& p : found.probes) {
      probes << static_cast<long long>(p.offered) << (p.ok ? "+ " : "- ");
    }
    r.info["max_qps_search"] = probes.str();
  } else {
    r.unit_ops_per_s.push_back(ph.achieved_per_s);
  }
  if (!opt.trace) return r;

  trace_on(true);
  const Phase traced =
      run_phase(in, opt.nproc, rate, requests_for(rate, opt.seconds / 2));
  trace_on(false);
  check_phase(traced, r.checks);
  r.untraced_op_ms = median(ph.latency_ms);
  r.traced_op_ms = traced.latency_ms.empty() ? 0.0 : median(traced.latency_ms);
  serve_layers(opt, in, traced, r);
  r.layer["gen.lateness_us"] = quantile(ph.lateness_us, 0.99);
  return r;
}

}  // namespace perfbench
