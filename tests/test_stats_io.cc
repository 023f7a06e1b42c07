/**
 * @file
 * Serialization round-trip coverage for stats_io: a RunStats written
 * as JSON and read back must compare exactly equal, including doubles
 * (written at full precision) and the backing-store time series. The
 * field tables are walked so every key, merge rule and equality leaf
 * is covered, and hostile values must be parse failures.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <type_traits>

#include "arch/stall.hh"
#include "common/sim_error.hh"
#include "sim/experiment.hh"
#include "sim/job_cache.hh"
#include "sim/stats_io.hh"
#include "workloads/rodinia.hh"

namespace regless
{
namespace
{

/*
 * Table walkers for the field-table tests: they recurse through nested
 * rows (energy terms, stall causes, tenant lanes) the way the library's
 * generated code does, so every leaf of the table is covered.
 */

/** Give every stored leaf of @a s a distinct value, two tenant lanes
 *  included; @a next supplies the values. */
template <typename S>
void
fillDistinct(S &s, std::uint64_t &next)
{
    sim::forEachField<S>([&](const auto &row) {
        using T = sim::FieldType<decltype(row)>;
        if constexpr (!std::is_function_v<T>) {
            T &v = s.*row.member;
            if constexpr (sim::HasFields<T>) {
                fillDistinct(v, next);
            } else if constexpr (sim::kIsTableVector<T>) {
                v.resize(2);
                for (auto &item : v)
                    fillDistinct(item, next);
            } else if constexpr (std::is_same_v<T, sim::StallCounts>) {
                for (auto &c : v)
                    c = ++next;
            } else if constexpr (std::is_same_v<T, std::string>) {
                v = "name" + std::to_string(++next);
            } else if constexpr (std::is_same_v<T, sim::ProviderKind>) {
                v = sim::ProviderKind::RegDem;
            } else if constexpr (std::is_same_v<T, std::vector<double>>) {
                v = {static_cast<double>(++next) + 0.25,
                     static_cast<double>(++next) + 0.5};
            } else if constexpr (std::is_floating_point_v<T>) {
                v = static_cast<double>(++next) + 0.125;
            } else {
                v = static_cast<T>(++next);
            }
        }
    });
}

/** Every JSON key of @a s, derived ones included, in emission order. */
template <typename S>
void
collectKeys(const S &s, const std::string &prefix,
            std::vector<std::string> &keys)
{
    sim::forEachField<S>([&](const auto &row) {
        using T = sim::FieldType<decltype(row)>;
        const std::string key = prefix + std::string(row.key);
        if constexpr (std::is_function_v<T>) {
            keys.push_back(key);
        } else if constexpr (sim::HasFields<T>) {
            collectKeys(s.*row.member, key, keys);
        } else if constexpr (sim::kIsTableVector<T>) {
            keys.push_back(key + "_count");
            for (std::size_t i = 0; i < (s.*row.member).size(); ++i)
                collectKeys((s.*row.member)[i],
                            key + std::to_string(i) + "_", keys);
        } else if constexpr (std::is_same_v<T, sim::StallCounts>) {
            for (std::size_t c = 0; c < arch::kNumStallCauses; ++c)
                keys.push_back(key + arch::stallCauseName(
                                         static_cast<arch::StallCause>(c)));
        } else {
            keys.push_back(key);
        }
    });
}

template <typename T>
T
mergedByRule(sim::Merge rule, T a, T b)
{
    switch (rule) {
      case sim::Merge::Sum:
        return a + b;
      case sim::Merge::Max:
        return std::max(a, b);
      case sim::Merge::First:
        break;
    }
    return a;
}

/** Check each leaf of @a merged == accumulate(@a a, @a b) against its
 *  row's rule. */
template <typename S>
void
expectMerged(const S &merged, const S &a, const S &b,
             const std::string &prefix)
{
    sim::forEachField<S>([&](const auto &row) {
        using T = sim::FieldType<decltype(row)>;
        const std::string key = prefix + std::string(row.key);
        if constexpr (!std::is_function_v<T>) {
            const T &m = merged.*row.member;
            const T &x = a.*row.member;
            const T &y = b.*row.member;
            if constexpr (sim::HasFields<T>) {
                expectMerged(m, x, y, key);
            } else if constexpr (sim::kIsTableVector<T>) {
                ASSERT_EQ(m.size(), x.size()) << key;
                for (std::size_t i = 0; i < m.size(); ++i)
                    expectMerged(m[i], x[i], y[i],
                                 key + std::to_string(i) + "_");
            } else if constexpr (std::is_same_v<T, sim::StallCounts>) {
                for (std::size_t c = 0; c < m.size(); ++c)
                    EXPECT_EQ(m[c], mergedByRule(row.merge, x[c], y[c]))
                        << key << c;
            } else if constexpr (std::is_arithmetic_v<T>) {
                EXPECT_EQ(m, mergedByRule(row.merge, x, y)) << key;
            } else {
                EXPECT_EQ(row.merge, sim::Merge::First) << key;
                EXPECT_TRUE(m == x) << key;
            }
        }
    });
}

/** Change the @a k-th stored leaf of @a s in table order; false (with
 *  @a k reduced by the leaf count) when @a s has no such leaf. */
template <typename S>
bool
perturbLeaf(S &s, std::size_t &k)
{
    bool done = false;
    sim::forEachField<S>([&](const auto &row) {
        using T = sim::FieldType<decltype(row)>;
        if constexpr (!std::is_function_v<T>) {
            T &v = s.*row.member;
            if (done) {
                return;
            } else if constexpr (sim::HasFields<T>) {
                done = perturbLeaf(v, k);
            } else if constexpr (sim::kIsTableVector<T>) {
                for (auto &item : v)
                    done = done || perturbLeaf(item, k);
            } else if constexpr (std::is_same_v<T, sim::StallCounts>) {
                for (auto &c : v) {
                    if (!done && k-- == 0) {
                        ++c;
                        done = true;
                    }
                }
            } else if (k-- == 0) {
                if constexpr (std::is_same_v<T, std::string>)
                    v += "x";
                else if constexpr (std::is_same_v<T, sim::ProviderKind>)
                    v = sim::ProviderKind::Rfh;
                else if constexpr (std::is_same_v<T, std::vector<double>>)
                    v.push_back(1.0);
                else
                    v += 1;
                done = true;
            }
        }
    });
    return done;
}

sim::RunStats
distinctStats(std::uint64_t first)
{
    sim::RunStats stats;
    fillDistinct(stats, first);
    return stats;
}

TEST(StatsIoFieldTable, EveryKeyIsWrittenAndRoundTrips)
{
    const sim::RunStats stats = distinctStats(0);
    const std::string json = sim::toJson(stats);
    std::vector<std::string> keys;
    collectKeys(stats, "", keys);
    for (const std::string &key : keys)
        EXPECT_NE(json.find("\"" + key + "\":"), std::string::npos)
            << key;
    // ...and nothing else: one "key": per key.
    std::size_t written = 0;
    for (std::size_t at = json.find("\":"); at != std::string::npos;
         at = json.find("\":", at + 1))
        ++written;
    EXPECT_EQ(written, keys.size());
    ASSERT_EQ(stats.tenants.size(), 2u);
    EXPECT_TRUE(sim::fromJson(json) == stats);
}

TEST(StatsIoFieldTable, AccumulateAppliesEachRowsRule)
{
    const sim::RunStats a = distinctStats(0);
    const sim::RunStats b = distinctStats(1000);
    sim::RunStats merged = a;
    sim::accumulate(merged, b);
    expectMerged(merged, a, b, "");
}

TEST(StatsIoFieldTable, EqualityFailsOnEveryLeaf)
{
    const sim::RunStats stats = distinctStats(0);
    std::size_t leaves = 0;
    for (;; ++leaves) {
        sim::RunStats perturbed = stats;
        std::size_t k = leaves;
        if (!perturbLeaf(perturbed, k))
            break;
        EXPECT_FALSE(perturbed == stats) << "leaf " << leaves;
    }
    // Every stored field, each stall cause, each energy term and both
    // lanes' fields: all keys but energy_total and tenant_count.
    std::vector<std::string> keys;
    collectKeys(stats, "", keys);
    EXPECT_EQ(leaves, keys.size() - 2);
}

TEST(StatsIoHostile, BadValuesAreParseFailures)
{
    sim::JobRecord record;
    record.schema = sim::kJobCacheSchemaVersion;
    record.stats.kernel = "k";
    std::ostringstream oss;
    sim::writeJson(oss, record);
    const std::string body = oss.str().substr(0, oss.str().size() - 1);

    sim::JobRecord out;
    ASSERT_TRUE(sim::tryRecordFromJson(body + "}", out));
    for (const char *hostile :
         {"\"tenant_count\":1e18", "\"cycles\":-5", "\"cycles\":1e300",
          "\"insns\":\"abc\"", "\"num_regions\":1e20"}) {
        const std::string json = body + "," + hostile + "}";
        std::string error;
        EXPECT_FALSE(sim::tryRecordFromJson(json, out, &error))
            << hostile;
        EXPECT_THROW(sim::fromJson(json), sim::SimError) << hostile;
    }
}

TEST(StatsIoRoundTrip, RealRunSurvivesWriteRead)
{
    sim::RunStats stats = sim::runKernel(workloads::makeRodinia("nn"),
                                         sim::ProviderKind::Regless);
    sim::RunStats back = sim::fromJson(sim::toJson(stats));
    EXPECT_TRUE(stats == back);
    // Spot-check a few fields so a broken operator== cannot hide a
    // parser bug behind a vacuous comparison.
    EXPECT_EQ(back.kernel, "nn");
    EXPECT_EQ(back.provider, sim::ProviderKind::Regless);
    EXPECT_EQ(back.cycles, stats.cycles);
    EXPECT_EQ(back.backingSeries.size(), stats.backingSeries.size());
    EXPECT_DOUBLE_EQ(back.energy.total(), stats.energy.total());
}

TEST(StatsIoRoundTrip, BaselineProviderSurvives)
{
    sim::RunStats stats = sim::runKernel(workloads::makeRodinia("bfs"),
                                         sim::ProviderKind::Baseline);
    sim::RunStats back = sim::fromJson(sim::toJson(stats));
    EXPECT_TRUE(stats == back);
    EXPECT_EQ(back.rfReads, stats.rfReads);
    EXPECT_EQ(back.rfWrites, stats.rfWrites);
}

TEST(StatsIoRoundTrip, HandMadeCornerCases)
{
    sim::RunStats stats;
    stats.kernel = "weird \"name\" with \\escapes\\";
    stats.provider = sim::ProviderKind::ReglessNoCompressor;
    stats.cycles = 123456789;
    stats.insns = 987654321;
    stats.renameLookups = 42;
    stats.lrfAccesses = 7;
    stats.orfAccesses = 8;
    stats.mrfAccesses = 9;
    stats.regionInsnsMean = 17.125;
    // A value that truncated 6-digit formatting would corrupt.
    stats.meanWorkingSetBytes = 1234.5678901234567;
    stats.backingSeries = {0.0, 1.5, 2.25, 1e-17, 3e8};

    sim::RunStats back = sim::fromJson(sim::toJson(stats));
    EXPECT_TRUE(stats == back);
    EXPECT_EQ(back.kernel, stats.kernel);
    EXPECT_EQ(back.meanWorkingSetBytes, stats.meanWorkingSetBytes);
    EXPECT_EQ(back.backingSeries, stats.backingSeries);
}

TEST(StatsIoRoundTrip, SlotAttributionSurvives)
{
    // The issue-slot fields land in the flat schema as issued_slots
    // plus one stall_<cause> key each; distinct per-cause values catch
    // any prefix-matching mix-up between causes.
    sim::RunStats stats;
    stats.kernel = "slots";
    stats.issuedSlots = 1000001;
    for (std::size_t c = 0; c < arch::kNumStallCauses; ++c)
        stats.stallSlots[c] = 100 + 7 * c;

    const std::string json = sim::toJson(stats);
    for (std::size_t c = 0; c < arch::kNumStallCauses; ++c) {
        const std::string key =
            std::string("stall_") +
            arch::stallCauseName(static_cast<arch::StallCause>(c));
        EXPECT_NE(json.find("\"" + key + "\""), std::string::npos)
            << key;
    }
    sim::RunStats back = sim::fromJson(json);
    EXPECT_TRUE(stats == back);
    EXPECT_EQ(back.issuedSlots, stats.issuedSlots);
    for (std::size_t c = 0; c < arch::kNumStallCauses; ++c)
        EXPECT_EQ(back.stallSlots[c], stats.stallSlots[c]) << c;
}

TEST(StatsIoRoundTrip, ArrayOfRunsSurvives)
{
    std::vector<sim::RunStats> runs;
    runs.push_back(sim::runKernel(workloads::makeRodinia("nn"),
                                  sim::ProviderKind::Baseline));
    runs.push_back(sim::runKernel(workloads::makeRodinia("nn"),
                                  sim::ProviderKind::Regless));

    std::ostringstream oss;
    sim::writeJson(oss, runs);
    std::vector<sim::RunStats> back = sim::runsFromJson(oss.str());
    ASSERT_EQ(back.size(), runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i)
        EXPECT_TRUE(runs[i] == back[i]) << "run " << i;
}

TEST(StatsIoRoundTrip, EmptyArrayAndUnknownKeys)
{
    EXPECT_TRUE(sim::runsFromJson("[]").empty());
    // Unknown keys are skipped; known ones still land.
    sim::RunStats parsed = sim::fromJson(
        "{\"future_field\":3.5,\"cycles\":77,"
        "\"future_array\":[1,2],\"kernel\":\"k\"}");
    EXPECT_EQ(parsed.cycles, 77u);
    EXPECT_EQ(parsed.kernel, "k");
}

TEST(JobRecordForwardCompat, NewerSchemaParsesIntactForTheGate)
{
    // Forward-compatibility contract split: the *parser* tolerates a
    // record written by a newer build (unknown keys skipped, known
    // fields landed, the foreign schema stamp preserved verbatim);
    // *rejecting* it is the cache's schema gate, which needs exactly
    // this intact record.schema to diagnose "newer build shares this
    // directory" instead of serving a half-parsed record.
    sim::JobRecord record;
    std::string error;
    const std::string json =
        "{\"record_schema\":" +
        std::to_string(sim::kJobCacheSchemaVersion + 1) +
        ",\"record_status\":\"ok\",\"record_attempts\":2,"
        "\"stat_from_the_future\":[1,2,3],"
        "\"kernel\":\"tomorrow\",\"cycles\":42}";
    ASSERT_TRUE(sim::tryRecordFromJson(json, record, &error)) << error;
    EXPECT_EQ(record.schema, sim::kJobCacheSchemaVersion + 1);
    EXPECT_EQ(record.status, sim::JobStatus::Ok);
    EXPECT_EQ(record.attempts, 2u);
    EXPECT_EQ(record.stats.kernel, "tomorrow");
    EXPECT_EQ(record.stats.cycles, 42u);
}

TEST(JobRecordForwardCompat, SkippedStatusRoundTrips)
{
    // JobStatus::Skipped exists for --shard runs; it is never cached,
    // but the name must still round-trip for reports and for any
    // record that does carry it.
    EXPECT_STREQ(sim::jobStatusName(sim::JobStatus::Skipped),
                 "skipped");
    sim::JobStatus status = sim::JobStatus::Ok;
    ASSERT_TRUE(sim::tryJobStatusFromName("skipped", status));
    EXPECT_EQ(status, sim::JobStatus::Skipped);
    EXPECT_FALSE(sim::tryJobStatusFromName("postponed", status));
}

} // namespace
} // namespace regless
