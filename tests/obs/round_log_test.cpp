#include "obs/round_log.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/env.h"
#include "runtime/runtime.h"
#include "test_util.h"

namespace chiron::obs {
namespace {

// Every key a round record must carry, in emission order.
const std::vector<std::string>& required_keys() {
  static const std::vector<std::string> keys = {
      "episode",        "round",
      "aborted",        "p_total",
      "p_posted",       "payment",
      "budget_remaining",
      "round_time",     "idle_time",
      "time_efficiency", "accuracy",
      "accuracy_gain",  "raw_exterior_reward",
      "reward_exterior", "reward_inner",
      "participants",   "offline",
      "delivered",      "crashed",
      "late",           "rejected",
      "node_prices",    "node_zetas",
      "node_participates", "node_times",
      "node_payments"};
  return keys;
}

// Structural JSONL validation (the repo deliberately has no JSON parser):
// object braces, and every required key present in emission order.
void expect_valid_record(const std::string& line) {
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  std::size_t pos = 0;
  for (const std::string& key : required_keys()) {
    const std::size_t at = line.find("\"" + key + "\":", pos);
    ASSERT_NE(at, std::string::npos) << "missing key " << key << " in\n"
                                     << line;
    pos = at;
  }
}

RoundRecord sample_record() {
  RoundRecord r;
  r.episode = 2;
  r.round = 7;
  r.p_total = 12.5;
  r.p_posted = 14.0;
  r.payment = 3.25;
  r.budget_remaining = 40.0;
  r.accuracy = 0.75;
  r.participants = 2;
  r.delivered = 2;
  r.node_prices = {1.5, 2.0};
  r.node_zetas = {1e9, 2e9};
  r.node_participates = {1, 0};
  r.node_times = {10.0, 0.0};
  r.node_payments = {3.25, 0.0};
  return r;
}

TEST(JsonlRoundSink, WritesOneValidRecordPerLine) {
  std::ostringstream os;
  JsonlRoundSink sink(os);
  sink.write(sample_record());
  sink.write(sample_record());
  std::istringstream lines(os.str());
  std::string line;
  int n = 0;
  while (std::getline(lines, line)) {
    expect_valid_record(line);
    ++n;
  }
  EXPECT_EQ(n, 2);
  EXPECT_NE(os.str().find("\"node_prices\":[1.5,2]"), std::string::npos);
  EXPECT_NE(os.str().find("\"aborted\":false"), std::string::npos);
  // p_total is the effective (post-screening) sum, p_posted the raw posted
  // sum — the regression fixed by DESIGN.md §5.11 keeps them distinct.
  EXPECT_NE(os.str().find("\"p_total\":12.5,\"p_posted\":14,"),
            std::string::npos);
}

TEST(CsvRoundSink, QuotesListCellsAndWritesHeaderOnce) {
  std::ostringstream os;
  CsvRoundSink sink(os);
  sink.write(sample_record());
  sink.write(sample_record());
  std::istringstream lines(os.str());
  std::string header, row;
  ASSERT_TRUE(std::getline(lines, header));
  ASSERT_TRUE(std::getline(lines, row));
  EXPECT_EQ(header.rfind("episode,round,aborted,", 0), 0u) << header;
  EXPECT_NE(header.find(",p_total,p_posted,payment,"), std::string::npos)
      << header;
  // The two-node price list must survive as one RFC-4180 quoted cell.
  EXPECT_NE(row.find("\"1.5,2\""), std::string::npos) << row;
  std::string second_row;
  ASSERT_TRUE(std::getline(lines, second_row));
  EXPECT_EQ(row, second_row);
}

TEST(MakeRoundSink, DispatchesOnExtension) {
  const std::string base = testing_util::temp_path("round_log");
  const std::string csv_path = base + ".csv";
  const std::string jsonl_path = base + ".jsonl";
  make_round_sink(csv_path)->write(sample_record());
  make_round_sink(jsonl_path)->write(sample_record());
  std::string first;
  std::getline(std::ifstream(csv_path) >> std::ws, first);
  EXPECT_EQ(first.rfind("episode,", 0), 0u);
  std::getline(std::ifstream(jsonl_path) >> std::ws, first);
  EXPECT_EQ(first.front(), '{');
  std::remove(csv_path.c_str());
  std::remove(jsonl_path.c_str());
}

// --- Environment integration: schema and thread-count byte-identity. ---

core::EnvConfig blobs_config() {
  core::EnvConfig c;
  c.num_nodes = 4;
  c.budget = 40.0;
  c.backend = core::BackendKind::kRealBlobs;
  c.samples_per_node = 16;
  c.test_samples = 32;
  c.blob_dims = 8;
  c.blob_classes = 3;
  c.local.epochs = 2;
  c.local.batch_size = 8;
  c.seed = 42;
  return c;
}

// Runs two episodes with a fixed pricing policy and returns the log text.
std::string run_round_log(int threads) {
  runtime::set_threads(threads);
  std::ostringstream os;
  JsonlRoundSink sink(os);
  core::EdgeLearnEnv env(blobs_config());
  env.set_round_sink(&sink);
  for (int episode = 0; episode < 2; ++episode) {
    env.reset();
    while (!env.done()) {
      std::vector<double> prices;
      for (int i = 0; i < env.num_nodes(); ++i)
        prices.push_back(env.per_node_price_cap(i) * 0.5);
      env.step(prices);
    }
  }
  runtime::set_threads(0);
  return os.str();
}

TEST(RoundLogSchema, EveryEnvRecordIsValidAndEpisodesRestart) {
  const std::string log = run_round_log(0);
  std::istringstream lines(log);
  std::string line;
  int records = 0;
  bool saw_episode1 = false;
  while (std::getline(lines, line)) {
    expect_valid_record(line);
    if (line.find("\"episode\":1,\"round\":1,") != std::string::npos)
      saw_episode1 = true;
    ++records;
  }
  EXPECT_GE(records, 4);
  EXPECT_TRUE(saw_episode1) << "second episode must restart round numbering";
}

TEST(RoundLogSchema, ByteIdenticalAcrossThreadCounts) {
  const std::string serial = run_round_log(1);
  const std::string parallel = run_round_log(8);
  EXPECT_EQ(serial, parallel);
}

TEST(RoundLog, AbortedRoundIsLoggedWithZeroedEconomics) {
  std::ostringstream os;
  JsonlRoundSink sink(os);
  core::EnvConfig c = blobs_config();
  c.backend = core::BackendKind::kSurrogate;
  c.budget = 1e-3;  // far below one saturation-price round
  core::EdgeLearnEnv env(c);
  env.set_round_sink(&sink);
  env.reset();
  std::vector<double> prices;
  for (int i = 0; i < env.num_nodes(); ++i)
    prices.push_back(env.per_node_price_cap(i));
  core::StepResult res = env.step(prices);
  ASSERT_TRUE(res.aborted);
  std::istringstream lines(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  expect_valid_record(line);
  EXPECT_NE(line.find("\"aborted\":true"), std::string::npos);
  EXPECT_NE(line.find("\"round\":1,"), std::string::npos);
  EXPECT_NE(line.find("\"payment\":0,"), std::string::npos);
  EXPECT_NE(line.find("\"participants\":0,"), std::string::npos);
  EXPECT_NE(line.find("\"node_prices\":[],"), std::string::npos);
  EXPECT_FALSE(std::getline(lines, line)) << "exactly one record";
}

}  // namespace
}  // namespace chiron::obs
