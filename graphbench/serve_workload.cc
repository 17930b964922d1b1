// serve-journal: an in-process `graphguard serve` with the write-ahead
// journal on and four closed-loop client connections, one tenant each.
//
// Every client sends mostly cheap attack jobs (random or DICE, each
// writing its poisoned graph), a PEEGA campaign every 32nd job, one GCN
// eval per run, and a `stats` read after every second job. Attacks run on
// one small cached graph made from the workload seed, evals on a second
// one made from a fixed seed. It is the one workload that reaches src/serve,
// the protocol, the journal and the graph cache; it puts journal fsyncs
// and output files beside cache hits and inline `stats` reads, and
// heavy jobs ahead of cheap ones on the single FIFO scheduler.
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "eval/pipeline.h"
#include "eval/registry.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "harness.h"
#include "linalg/random.h"
#include "obs/json.h"
#include "obs/stopwatch.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace graphbench {
namespace {

using repro::attack::Flip;
using repro::graph::Graph;
using repro::obs::Json;
using repro::obs::StopWatch;

constexpr int kClients = 4;
/// One set-up (two small graphs, a server start, four connects) costs
/// about 10 ms; 100 of them make setup_s a median over about a second
/// rather than over a few timer-scale samples.
constexpr int kSetupRepeats = 100;
/// Job templates: a cycle of kCycle attack templates, plus one eval.
/// Client c's job k uses cycle template (k + 8 * c) % kCycle, so the
/// clients' heavy jobs are staggered, except job kEvalJob + 8 * c, which
/// is the client's one GCN eval of the run.
constexpr int kCycle = 32;
constexpr int kEvalTemplate = kCycle;
constexpr int kEvalJob = 40;
/// The eval's graph and training seed do not follow the workload seed:
/// GCN training stops early, so its epoch count, and with it the time an
/// eval holds the one scheduler, would otherwise change with the seed.
constexpr uint64_t kEvalGraphSeed = 20220901;
constexpr uint64_t kEvalSeed = 7;
constexpr char kGraphPath[] = "graph.txt";
constexpr char kEvalGraphPath[] = "eval_graph.txt";

std::string Tenant(int client) { return "tenant" + std::to_string(client); }

/// What a job template asks for. Jobs that share a template must get
/// identical results, which is what the verification relies on.
struct Template {
  std::string op;        // "attack" or "eval"
  std::string attacker;  // attack only
  double rate = 0.0;
  uint64_t seed = 0;
};

/// The last template of the cycle is a PEEGA campaign, the rest cheap
/// random/DICE attacks. A heavy job blocks the other three clients'
/// jobs, so about 3/32 of the jobs wait behind one: the median job
/// stays in the cheap mode. A heavy job every eighth job would put
/// nearly half the jobs behind one, and the median would flip between
/// the modes from run to run. The GCN eval runs a fixed four times per
/// run, on the fixed eval graph with a fixed seed.
Template MakeTemplate(int t, uint64_t workload_seed) {
  Template spec;
  if (t == kEvalTemplate) {
    spec.op = "eval";
    spec.seed = kEvalSeed;
    return spec;
  }
  spec.seed = workload_seed * 1000 + static_cast<uint64_t>(t);
  spec.op = "attack";
  if (t == kCycle - 1) {
    spec.attacker = "peega";
    spec.rate = 0.005;
  } else {
    spec.attacker = t % 2 == 0 ? "random" : "dice";
    spec.rate = 0.05;
  }
  return spec;
}

Json Request(int64_t id, int client, const std::string& op) {
  Json request = Json::MakeObject();
  request.object["id"] = Json::MakeNumber(static_cast<double>(id));
  request.object["tenant"] = Json::MakeString(Tenant(client));
  request.object["op"] = Json::MakeString(op);
  return request;
}

Json JobRequest(int64_t id, int client, const Template& spec,
                const std::string& out) {
  Json request = Request(id, client, spec.op);
  request.object["graph"] =
      Json::MakeString(spec.op == "eval" ? kEvalGraphPath : kGraphPath);
  request.object["seed"] = Json::MakeNumber(static_cast<double>(spec.seed));
  if (spec.op == "eval") {
    request.object["defender"] = Json::MakeString("gcn");
    request.object["runs"] = Json::MakeNumber(1);
    return request;
  }
  request.object["attacker"] = Json::MakeString(spec.attacker);
  request.object["rate"] = Json::MakeNumber(spec.rate);
  request.object["return_flips"] = Json::MakeBool(true);
  if (!out.empty()) request.object["out"] = Json::MakeString(out);
  return request;
}

/// Empty when `response` is an OK answer to a job or stats request.
std::string CheckResponse(const repro::status::StatusOr<Json>& response) {
  if (!response.ok()) return "transport: " + response.status().ToString();
  const std::string code = repro::serve::GetString(*response, "code", "");
  if (code != "OK") {
    return "code " + code + ": " +
           repro::serve::GetString(*response, "error", "");
  }
  if (response->Find("result") == nullptr) return "response has no result";
  return "";
}

std::vector<Flip> ResponseFlips(const Json& response) {
  std::vector<Flip> flips;
  const Json* result = response.Find("result");
  const Json* list = result == nullptr ? nullptr : result->Find("flips");
  if (list == nullptr) return flips;
  for (const Json& triple : list->array) {
    if (triple.array.size() != 3) continue;
    flips.push_back({triple.array[0].number_value != 0.0,
                     static_cast<int>(triple.array[1].number_value),
                     static_cast<int>(triple.array[2].number_value)});
  }
  return flips;
}

struct JobRecord {
  int template_id = 0;
  double rtt_ms = 0.0;
  double done_s = 0.0;  // completion time since the load window opened
  std::string error;  // gate failure from the response itself
  std::vector<Flip> flips;
  double accuracy = 0.0;
  std::string out;
};

struct ClientLog {
  std::vector<JobRecord> jobs;
  std::vector<double> stats_ms;
  std::vector<std::string> stats_errors;
  int jobs_sent = 0;  // including the warm-up job
};

void RunClient(repro::serve::Client* client, int index, uint64_t seed,
               double seconds, const StopWatch& window, ClientLog* log) {
  for (int k = 0; window.Seconds() < seconds; ++k) {
    JobRecord record;
    record.template_id = k == kEvalJob + 8 * index ? kEvalTemplate
                                                       : (k + 8 * index) % kCycle;
    const Template spec = MakeTemplate(record.template_id, seed);
    if (spec.op == "attack" && spec.attacker != "peega") {
      record.out =
          "out/c" + std::to_string(index) + "_" + std::to_string(k) + ".txt";
    }
    const Json request = JobRequest(1000 + k, index, spec, record.out);
    const StopWatch rtt;
    const repro::status::StatusOr<Json> response = client->Call(request);
    record.rtt_ms = rtt.Millis();
    record.done_s = window.Seconds();
    ++log->jobs_sent;
    record.error = CheckResponse(response);
    if (record.error.empty()) {
      record.flips = ResponseFlips(*response);
      record.accuracy = repro::serve::GetNumber(
          *response->Find("result"), "accuracy_mean", -1.0);
    }
    log->jobs.push_back(std::move(record));
    if (!response.ok()) return;  // the connection is gone
    if (k % 2 == 1) {
      const StopWatch stats_rtt;
      const repro::status::StatusOr<Json> stats =
          client->Call(Request(5000 + k, index, "stats"));
      log->stats_ms.push_back(stats_rtt.Millis());
      const std::string error = CheckResponse(stats);
      if (!error.empty()) log->stats_errors.push_back(error);
    }
  }
}

/// Sums a per-tenant stats field over the benchmark's tenants.
double TenantSum(const Json& stats, const std::string& field) {
  double total = 0.0;
  const Json* result = stats.Find("result");
  const Json* tenants = result == nullptr ? nullptr : result->Find("tenants");
  for (int c = 0; c < kClients && tenants != nullptr; ++c) {
    const Json* entry = tenants->Find(Tenant(c));
    if (entry != nullptr) total += repro::serve::GetNumber(*entry, field, 0.0);
  }
  return total;
}

/// One started server with its connected clients.
struct Deployment {
  std::unique_ptr<repro::serve::Server> server;
  std::vector<std::unique_ptr<repro::serve::Client>> clients;

  void Stop() {
    clients.clear();
    if (server != nullptr) {
      server->Shutdown();
      server->Wait();
      server.reset();
    }
  }
};

Deployment StartDeployment(int repeat, RunResult* result) {
  Deployment deployment;
  repro::serve::ServerOptions options;
  options.socket_path = "serve" + std::to_string(repeat) + ".sock";
  options.journal_dir = "journal" + std::to_string(repeat);
  deployment.server = std::make_unique<repro::serve::Server>(options);
  ++result->attempted;
  const repro::status::Status started = deployment.server->Start();
  if (!started.ok()) {
    result->Fail("Server::Start: " + started.ToString());
    deployment.server.reset();
    return deployment;
  }
  for (int c = 0; c < kClients; ++c) {
    auto client = std::make_unique<repro::serve::Client>();
    const repro::status::Status connected =
        client->Connect(options.socket_path);
    if (!connected.ok()) {
      result->Fail("Client::Connect: " + connected.ToString());
      break;
    }
    deployment.clients.push_back(std::move(client));
  }
  return deployment;
}

/// Direct-call results of every template the clients used, compared
/// with each job's response and output file.
void VerifyJobs(const Graph& g, const Graph& eval_graph, uint64_t seed,
                const std::vector<ClientLog>& logs, RunResult* result) {
  std::map<int, std::vector<Flip>> expected_flips;
  std::map<int, uint64_t> expected_out;
  std::map<int, double> expected_accuracy;
  for (const ClientLog& log : logs) {
    for (const JobRecord& job : log.jobs) {
      ++result->attempted;
      if (!job.error.empty()) {
        result->Fail("job template " + std::to_string(job.template_id) +
                     ": " + job.error);
        continue;
      }
      const Template spec = MakeTemplate(job.template_id, seed);
      if (spec.op == "eval") {
        if (expected_accuracy.count(job.template_id) == 0) {
          const auto defender = repro::eval::MakeDefenderByName("gcn");
          repro::eval::PipelineOptions options;
          options.runs = 1;
          options.seed = spec.seed;
          expected_accuracy[job.template_id] =
              repro::eval::EvaluateDefense(defender.get(), eval_graph,
                                           options)
                  .accuracy.mean;
        }
        const std::string diff =
            ComparePinned("eval accuracy vs direct EvaluateDefense",
                          expected_accuracy[job.template_id], job.accuracy);
        if (!diff.empty()) result->Fail(diff);
        continue;
      }
      if (expected_flips.count(job.template_id) == 0) {
        repro::eval::AttackerSpec attacker_spec;
        attacker_spec.name = spec.attacker;
        const auto attacker = repro::eval::MakeAttackerByName(attacker_spec);
        repro::attack::AttackOptions options;
        options.perturbation_rate = spec.rate;
        const repro::attack::AttackResult direct =
            repro::eval::RunAttack(attacker.get(), g, options, spec.seed);
        expected_flips[job.template_id] = direct.flips;
        if (!job.out.empty()) {
          const std::string path =
              "out/expected" + std::to_string(job.template_id) + ".txt";
          const repro::status::Status saved =
              repro::graph::SaveGraph(direct.poisoned, path);
          expected_out[job.template_id] = saved.ok() ? FileHash(path) : 0;
        }
      }
      std::string diff =
          CompareFlips(expected_flips[job.template_id], job.flips);
      if (diff.empty() && expected_flips[job.template_id].empty()) {
        diff = "direct call committed no flips";
      }
      if (diff.empty() && !job.out.empty() &&
          FileHash(job.out) != expected_out[job.template_id]) {
        diff = job.out + " differs from the direct call's poisoned graph";
      }
      if (!diff.empty()) {
        result->Fail(spec.attacker + " job vs direct RunAttack: " + diff);
      }
    }
    for (const std::string& error : log.stats_errors) {
      result->Fail("stats: " + error);
    }
    result->attempted += static_cast<int64_t>(log.stats_ms.size());
  }
}

}  // namespace

void RunServeJournal(const RunConfig& config, RunResult* result) {
  std::filesystem::create_directories("out");
  SetupTimes setup;
  SetupTimes eval_setup;  // timed into setup.total, not the graph.* metrics
  Graph g;
  Graph eval_graph;
  Deployment deployment;
  for (int i = 0; i < kSetupRepeats; ++i) {
    deployment.Stop();
    const StopWatch watch;
    g = GenerateSaveLoad(
        [&] {
          repro::linalg::Rng rng(config.seed);
          return repro::graph::MakeCoraLike(&rng, 1.0);
        },
        kGraphPath, &setup, result);
    eval_graph = GenerateSaveLoad(
        [] {
          repro::linalg::Rng rng(kEvalGraphSeed);
          return repro::graph::MakeCoraLike(&rng, 1.0);
        },
        kEvalGraphPath, &eval_setup, result);
    deployment = StartDeployment(i, result);
    setup.total.back() = watch.Seconds();
  }
  if (deployment.clients.size() != static_cast<size_t>(kClients)) {
    deployment.Stop();
    return;
  }

  // Warm-up: one cheap job per client fills the graph cache.
  std::vector<ClientLog> logs(kClients);
  for (int c = 0; c < kClients; ++c) {
    const Json warm = JobRequest(1, c, MakeTemplate(0, config.seed), "");
    ++result->attempted;
    ++logs[c].jobs_sent;
    const std::string error =
        CheckResponse(deployment.clients[c]->Call(warm));
    if (!error.empty()) result->Fail("warm-up job: " + error);
  }
  repro::serve::Client& control = *deployment.clients[0];
  const repro::status::StatusOr<Json> before =
      control.Call(Request(9000, 0, "stats"));
  CounterDelta counters({"serve.journal.appends", "serve.graph_cache.hit",
                         "serve.graph_cache.miss"});

  const StopWatch window;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back(RunClient, deployment.clients[c].get(), c,
                         config.seed, config.seconds, std::cref(window),
                         &logs[c]);
  }
  for (std::thread& thread : threads) thread.join();
  const double window_s = window.Seconds();

  const repro::status::StatusOr<Json> after =
      control.Call(Request(9001, 0, "stats"));
  const double appends = counters.Get("serve.journal.appends");
  const double hits = counters.Get("serve.graph_cache.hit");
  const double lookups = hits + counters.Get("serve.graph_cache.miss");

  // Per-tenant accepted/completed must equal the clients' own tallies.
  ++result->attempted;
  if (!CheckResponse(before).empty() || !CheckResponse(after).empty()) {
    result->Fail("stats read around the load window failed");
  } else {
    const Json* tenants = after->Find("result")->Find("tenants");
    for (int c = 0; c < kClients; ++c) {
      const Json* entry =
          tenants == nullptr ? nullptr : tenants->Find(Tenant(c));
      const double accepted =
          entry == nullptr ? -1 : repro::serve::GetNumber(*entry, "accepted", -1);
      const double completed =
          entry == nullptr ? -1
                           : repro::serve::GetNumber(*entry, "completed", -1);
      if (accepted != logs[c].jobs_sent || completed != logs[c].jobs_sent) {
        result->Fail(Tenant(c) + ": stats accepted/completed " +
                     std::to_string(accepted) + "/" +
                     std::to_string(completed) + ", client sent " +
                     std::to_string(logs[c].jobs_sent));
      }
    }
  }
  deployment.Stop();
  VerifyJobs(g, eval_graph, config.seed, logs, result);

  std::vector<double> job_ms;
  std::vector<double> stats_ms;
  std::map<std::string, std::vector<double>> rtt_by_op;
  for (const ClientLog& log : logs) {
    for (const JobRecord& job : log.jobs) {
      job_ms.push_back(job.rtt_ms);
      rtt_by_op[MakeTemplate(job.template_id, config.seed).op].push_back(
          job.rtt_ms);
    }
    stats_ms.insert(stats_ms.end(), log.stats_ms.begin(), log.stats_ms.end());
  }
  const double jobs = static_cast<double>(job_ms.size());
  std::vector<double> per_second(static_cast<size_t>(window_s) + 1, 0.0);
  for (const ClientLog& log : logs) {
    for (const JobRecord& job : log.jobs) {
      per_second[static_cast<size_t>(job.done_s)] += 1.0;
    }
  }
  per_second.pop_back();  // the last, partial second
  result->meta["jobs_per_second"] = JoinSeconds(per_second);
  result->meta["jobs"] = std::to_string(job_ms.size());
  result->meta["setup_samples_s"] = JoinSeconds(setup.total);
  result->meta["stats_reads"] = std::to_string(stats_ms.size());
  result->meta["job_p90_beyond"] =
      std::to_string(static_cast<int>(jobs * 0.1));
  if (!config.trace) {
    result->Set("setup_s", Median(setup.total));
    result->Set("op_s", Median(job_ms) / 1e3);
    result->Set("ops_per_s", jobs / window_s);
    result->Set("peak_rss_mb", PeakRssMb());
    return;
  }
  const auto mean = [](const std::vector<double>& v) {
    double total = 0.0;
    for (const double x : v) total += x;
    return v.empty() ? 0.0 : total / static_cast<double>(v.size());
  };
  double queue_ms = 0.0;
  double run_ms = 0.0;
  if (before.ok() && after.ok()) {
    const double counted =
        TenantSum(*after, "run_ms_count") - TenantSum(*before, "run_ms_count");
    if (counted > 0) {
      queue_ms = (TenantSum(*after, "queue_ms_sum") -
                  TenantSum(*before, "queue_ms_sum")) /
                 counted;
      run_ms = (TenantSum(*after, "run_ms_sum") -
                TenantSum(*before, "run_ms_sum")) /
               counted;
    }
  }
  result->Set("serve.rtt_ms.attack", mean(rtt_by_op["attack"]));
  result->Set("serve.rtt_ms.eval", mean(rtt_by_op["eval"]));
  result->Set("serve.rtt_ms.stats", mean(stats_ms));
  result->Set("serve.queue_ms", queue_ms);
  result->Set("serve.run_ms", run_ms);
  result->Set("serve.overhead_ms", mean(job_ms) - queue_ms - run_ms);
  result->Set("serve.journal_appends_per_job", jobs > 0 ? appends / jobs : 0);
  result->Set("serve.graph_cache_hit_ratio",
              lookups > 0 ? hits / lookups : 0.0);
  result->Set("serve.job_p50_ms", Median(job_ms));
  result->Set("serve.job_p90_ms", Percentile(job_ms, 90.0));
  result->Set("serve.jobs_per_s", jobs / window_s);
  result->Set("serve.stats_p50_ms", Median(stats_ms));
  SetGraphLayerMetrics(setup, result);
  result->Set("trace.op_s", Median(job_ms) / 1e3);
}

int SelfTestServeGate() {
  int missed = 0;
  RunResult scratch;
  {
    repro::linalg::Rng rng(5);
    repro::graph::SaveGraph(repro::graph::MakeCoraLike(&rng, 0.4),
                            kGraphPath)
        .IgnoreError();
  }
  Deployment deployment = StartDeployment(99, &scratch);
  if (deployment.clients.empty()) {
    std::fprintf(stderr, "self-test: serve gate could not start a server\n");
    deployment.Stop();
    return 1;
  }
  repro::serve::Client& client = *deployment.clients[0];
  const std::string clean =
      CheckResponse(client.Call(JobRequest(1, 0, MakeTemplate(0, 1), "")));
  if (!clean.empty()) {
    std::fprintf(stderr, "self-test: serve gate rejects an OK job: %s\n",
                 clean.c_str());
    ++missed;
  }
  // Planted non-OK response: an attacker the server does not know.
  Template bad = MakeTemplate(0, 1);
  bad.attacker = "no-such-attacker";
  const std::string planted =
      CheckResponse(client.Call(JobRequest(2, 0, bad, "")));
  std::fprintf(stderr, "self-test: planted non-OK serve response %s (%s)\n",
               planted.empty() ? "MISSED" : "caught", planted.c_str());
  if (planted.empty()) ++missed;
  deployment.Stop();
  return missed;
}

}  // namespace graphbench
