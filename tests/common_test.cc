/**
 * @file
 * Unit tests for dbscore/common: SimTime, Rng, ThreadPool, ClaimableTask,
 * stats, strings, tables, and CSV parsing.
 */
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "dbscore/common/csv.h"
#include "dbscore/common/error.h"
#include "dbscore/common/rng.h"
#include "dbscore/common/sim_time.h"
#include "dbscore/common/stats.h"
#include "dbscore/common/string_util.h"
#include "dbscore/common/table_printer.h"
#include "dbscore/common/thread_pool.h"

namespace dbscore {
namespace {

TEST(SimTimeTest, UnitConversionsRoundTrip)
{
    SimTime t = SimTime::Millis(1.5);
    EXPECT_DOUBLE_EQ(t.seconds(), 1.5e-3);
    EXPECT_DOUBLE_EQ(t.micros(), 1500.0);
    EXPECT_DOUBLE_EQ(t.nanos(), 1.5e6);
    EXPECT_DOUBLE_EQ(SimTime::Nanos(250.0).micros(), 0.25);
}

TEST(SimTimeTest, Arithmetic)
{
    SimTime a = SimTime::Micros(10);
    SimTime b = SimTime::Micros(30);
    EXPECT_DOUBLE_EQ((a + b).micros(), 40.0);
    EXPECT_DOUBLE_EQ((b - a).micros(), 20.0);
    EXPECT_DOUBLE_EQ((a * 3).micros(), 30.0);
    EXPECT_DOUBLE_EQ((3.0 * a).micros(), 30.0);
    EXPECT_DOUBLE_EQ(b / a, 3.0);
    EXPECT_LT(a, b);
    EXPECT_EQ(Max(a, b), b);
    EXPECT_EQ(Min(a, b), a);
}

TEST(SimTimeTest, CyclesAtClock)
{
    // 250 MHz: 1 cycle = 4 ns, matching the paper's FPGA clock.
    EXPECT_DOUBLE_EQ(SimTime::Cycles(1.0, 250e6).nanos(), 4.0);
    EXPECT_DOUBLE_EQ(SimTime::Cycles(1e6, 250e6).millis(), 4.0);
}

TEST(SimTimeTest, ToStringPicksUnit)
{
    EXPECT_EQ(SimTime::Seconds(2.0).ToString(), "2 s");
    EXPECT_NE(SimTime::Millis(1.5).ToString().find("ms"), std::string::npos);
    EXPECT_NE(SimTime::Nanos(12.0).ToString().find("ns"), std::string::npos);
    EXPECT_EQ(SimTime::Millis(999.4).ToString(), "999 ms");
    // A value that rounds up to 1000 of its unit prints in the next
    // unit, and no value prints an exponent.
    EXPECT_EQ(SimTime::Millis(999.7).ToString(), "1 s");
    EXPECT_EQ(SimTime::Micros(999.7).ToString(), "1 ms");
    EXPECT_EQ(SimTime::Nanos(999.7).ToString(), "1 us");
    EXPECT_EQ(SimTime::Millis(-999.7).ToString(), "-1 s");
    EXPECT_EQ(SimTime::Seconds(999.7).ToString(), "1000 s");
    EXPECT_EQ(SimTime::Seconds(1000.0).ToString(), "1000 s");
    EXPECT_EQ(SimTime::Seconds(123456.0).ToString(), "123456 s");
    EXPECT_EQ(SimTime::Nanos(0.000015).ToString(), "0.000015 ns");
    EXPECT_EQ(SimTime().ToString(), "0 ns");
}

TEST(SimTimeTest, TransferTime)
{
    // 12 GB/s moving 12 MB takes 1 ms.
    SimTime t = TransferTime(12'000'000, 12e9);
    EXPECT_NEAR(t.millis(), 1.0, 1e-9);
}

TEST(RngTest, DeterministicForSameSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.Next(), b.Next());
    }
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.Next() == b.Next()) {
            ++same;
        }
    }
    EXPECT_EQ(same, 0);
}

TEST(RngTest, NextDoubleInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        double v = rng.NextDouble();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(RngTest, NextBelowRespectsBound)
{
    Rng rng(9);
    for (int i = 0; i < 10000; ++i) {
        EXPECT_LT(rng.NextBelow(17), 17u);
    }
    // A bound of 1 always yields 0.
    EXPECT_EQ(rng.NextBelow(1), 0u);
}

TEST(RngTest, NextBelowIsRoughlyUniform)
{
    Rng rng(11);
    constexpr int kBuckets = 8;
    constexpr int kDraws = 80000;
    int counts[kBuckets] = {};
    for (int i = 0; i < kDraws; ++i) {
        ++counts[rng.NextBelow(kBuckets)];
    }
    for (int c : counts) {
        EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
    }
}

TEST(RngTest, GaussianMoments)
{
    Rng rng(13);
    RunningStats stats;
    for (int i = 0; i < 200000; ++i) {
        stats.Add(rng.NextGaussian());
    }
    EXPECT_NEAR(stats.mean(), 0.0, 0.02);
    EXPECT_NEAR(stats.Stddev(), 1.0, 0.02);
}

TEST(RngTest, ForkProducesIndependentStream)
{
    Rng a(77);
    Rng child = a.Fork();
    // The fork should not replay the parent's future outputs.
    EXPECT_NE(child.Next(), a.Next());
}

TEST(RngTest, ShufflePreservesElements)
{
    Rng rng(5);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto original = v;
    rng.Shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, original);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices)
{
    ThreadPool pool(4);
    constexpr std::size_t kN = 10000;
    std::vector<std::atomic<int>> hits(kN);
    pool.ParallelFor(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kN; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPoolTest, ChunkedCoversRangeOnce)
{
    ThreadPool pool(3);
    constexpr std::size_t kN = 5000;
    std::vector<std::atomic<int>> hits(kN);
    pool.ParallelForChunked(kN, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
            hits[i].fetch_add(1);
        }
    });
    for (std::size_t i = 0; i < kN; ++i) {
        ASSERT_EQ(hits[i].load(), 1);
    }
}

TEST(ThreadPoolTest, EmptyRangeIsNoop)
{
    ThreadPool pool(2);
    bool called = false;
    pool.ParallelFor(0, [&](std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, PropagatesExceptions)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.ParallelFor(100,
                         [](std::size_t i) {
                             if (i == 57) {
                                 throw InvalidArgument("boom");
                             }
                         }),
        InvalidArgument);
}

TEST(ThreadPoolTest, ShutdownIsIdempotent)
{
    ThreadPool pool(3);
    EXPECT_FALSE(pool.stopped());
    pool.Shutdown();
    EXPECT_TRUE(pool.stopped());
    pool.Shutdown();  // second call must be a harmless no-op
    pool.Shutdown();
    EXPECT_TRUE(pool.stopped());
    // The destructor runs Shutdown() a fourth time; must not hang.
}

TEST(ThreadPoolTest, SubmitAfterShutdownThrowsAndParallelForRunsInline)
{
    ThreadPool pool(2);
    pool.Shutdown();
    EXPECT_THROW(pool.Submit([] {}), InvalidArgument);
    // Parallel loops on a dead pool degrade to inline execution rather
    // than hanging on a queue no worker will ever drain.
    std::atomic<int> count{0};
    pool.ParallelFor(100, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, SubmitRunsStandaloneTasks)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 8; ++i) {
            pool.Submit([&count] { ++count; });
        }
        // Destructor = Shutdown(): drains queued tasks before joining.
    }
    EXPECT_EQ(count.load(), 8);
}

/** Occupies the only worker of @p pool until @p release is set. */
void
BlockOnlyWorker(ThreadPool& pool, std::atomic<bool>& release)
{
    std::atomic<bool> blocked{false};
    pool.Submit([&blocked, &release] {
        blocked = true;
        while (!release) {
            std::this_thread::yield();
        }
    });
    while (!blocked) {
        std::this_thread::yield();
    }
}

TEST(ClaimableTaskTest, JoinRunsWorkNoWorkerHasStarted)
{
    std::atomic<bool> release{false};
    ThreadPool pool(1);
    BlockOnlyWorker(pool, release);
    std::thread::id ran_on;
    int runs = 0;
    ClaimableTask task(pool, [&] {
        ran_on = std::this_thread::get_id();
        ++runs;
    });
    task.Join();  // the only worker is busy: Join must not wait for it
    EXPECT_EQ(ran_on, std::this_thread::get_id());
    ClaimableTask failing(pool, [] { throw InvalidArgument("inline"); });
    EXPECT_THROW(failing.Join(), InvalidArgument);
    release = true;
    pool.Shutdown();  // the queued copies find their work taken
    EXPECT_EQ(runs, 1);
}

TEST(ClaimableTaskTest, JoinWaitsForARunningWorkerAndRethrowsItsError)
{
    ThreadPool pool(2);
    std::atomic<bool> started{false};
    std::atomic<bool> release{false};
    ClaimableTask task(pool, [&] {
        started = true;
        while (!release) {
            std::this_thread::yield();
        }
        throw InvalidArgument("worker");
    });
    while (!started) {
        std::this_thread::yield();
    }
    std::thread releaser([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        release = true;
    });
    EXPECT_THROW(task.Join(), InvalidArgument);
    releaser.join();
}

TEST(ClaimableTaskTest, DestructorCancelsQueuedWorkAndWaitsForRunningWork)
{
    std::atomic<bool> release{false};
    std::atomic<int> runs{0};
    {
        ThreadPool pool(1);
        BlockOnlyWorker(pool, release);
        { ClaimableTask queued(pool, [&runs] { ++runs; }); }
        release = true;
    }  // joined: the queued copy ran and found its work cancelled
    EXPECT_EQ(runs.load(), 0);

    ThreadPool pool(1);
    std::atomic<bool> started{false};
    bool finished = false;  // plain: the destructor must order it
    {
        ClaimableTask running(pool, [&] {
            started = true;
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            finished = true;
        });
        while (!started) {
            std::this_thread::yield();
        }
    }
    EXPECT_TRUE(finished);
}

TEST(ClaimableTaskTest, OwnersOnPoolThreadsNeverWaitOnQueuedWork)
{
    // Every worker runs an owner whose tasks queue behind the other
    // owners; each owner claims its own tasks back instead of waiting.
    ThreadPool pool(2);
    std::atomic<int> runs{0};
    pool.ParallelFor(8, [&](std::size_t) {
        std::deque<ClaimableTask> tasks;
        for (int i = 0; i < 4; ++i) {
            tasks.emplace_back(pool, [&runs] { ++runs; });
        }
        for (ClaimableTask& task : tasks) {
            task.Join();
        }
    });
    EXPECT_EQ(runs.load(), 32);
}

TEST(RunningStatsTest, BasicMoments)
{
    RunningStats s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
        s.Add(v);
    }
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.Stddev(), 2.138, 1e-3);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(QuantileSketchTest, MedianAndExtremes)
{
    QuantileSketch q;
    for (int i = 1; i <= 101; ++i) {
        q.Add(i);
    }
    EXPECT_DOUBLE_EQ(q.Median(), 51.0);
    EXPECT_DOUBLE_EQ(q.Quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(q.Quantile(1.0), 101.0);

    // Samples added after a query still count.
    q.Add(0.0);
    q.Add(0.5);
    EXPECT_DOUBLE_EQ(q.Median(), 50.0);
    EXPECT_DOUBLE_EQ(q.Quantile(0.0), 0.0);
}

TEST(StringUtilTest, TrimAndSplit)
{
    EXPECT_EQ(Trim("  abc \t\n"), "abc");
    EXPECT_EQ(Trim(""), "");
    auto parts = Split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
}

TEST(StringUtilTest, CaseHelpers)
{
    EXPECT_EQ(ToLower("SeLeCt"), "select");
    EXPECT_EQ(ToUpper("abc"), "ABC");
    EXPECT_TRUE(EqualsIgnoreCase("SELECT", "select"));
    EXPECT_FALSE(EqualsIgnoreCase("SELECT", "selec"));
    EXPECT_TRUE(StartsWith("dbscore", "dbs"));
}

TEST(StringUtilTest, HumanCountAndBytes)
{
    EXPECT_EQ(HumanCount(1), "1");
    EXPECT_EQ(HumanCount(1000), "1K");
    EXPECT_EQ(HumanCount(1000000), "1M");
    EXPECT_EQ(HumanCount(1234), "1234");
    EXPECT_EQ(HumanBytes(512), "512 B");
    EXPECT_EQ(HumanBytes(MiB(4)), "4.0 MiB");
}

TEST(StringUtilTest, StrFormat)
{
    EXPECT_EQ(StrFormat("%d-%s-%.1f", 3, "x", 2.5), "3-x-2.5");
}

TEST(TablePrinterTest, AlignsColumns)
{
    TablePrinter table({"name", "value"});
    table.AddRow({"a", "1"});
    table.AddRow({"longer", "22"});
    std::string out = table.ToString();
    EXPECT_NE(out.find("| name   |"), std::string::npos);
    EXPECT_NE(out.find("| longer |"), std::string::npos);
}

TEST(CsvTest, ParsesSimpleDocument)
{
    std::istringstream in("a,b,c\n1,2,3\n4,5,6\n");
    CsvDocument doc = ReadCsv(in);
    ASSERT_EQ(doc.header.size(), 3u);
    ASSERT_EQ(doc.rows.size(), 2u);
    EXPECT_EQ(doc.rows[1][2], "6");
}

TEST(CsvTest, HandlesQuotedFields)
{
    std::istringstream in("x,y\n\"a,b\",\"he said \"\"hi\"\"\"\n");
    CsvDocument doc = ReadCsv(in);
    ASSERT_EQ(doc.rows.size(), 1u);
    EXPECT_EQ(doc.rows[0][0], "a,b");
    EXPECT_EQ(doc.rows[0][1], "he said \"hi\"");
}

TEST(CsvTest, SkipsBlankLinesAndCrlf)
{
    std::istringstream in("h1,h2\r\n\r\n1,2\r\n");
    CsvDocument doc = ReadCsv(in);
    ASSERT_EQ(doc.rows.size(), 1u);
    EXPECT_EQ(doc.rows[0][0], "1");
}

TEST(CsvTest, ThrowsOnUnterminatedQuote)
{
    std::istringstream in("a\n\"unterminated\n");
    EXPECT_THROW(ReadCsv(in), ParseError);
}

TEST(CsvTest, RoundTripsThroughWriter)
{
    std::ostringstream out;
    WriteCsvRow(out, {"plain", "with,comma", "with\"quote"});
    std::istringstream in("c1,c2,c3\n" + out.str());
    CsvDocument doc = ReadCsv(in);
    ASSERT_EQ(doc.rows.size(), 1u);
    EXPECT_EQ(doc.rows[0][1], "with,comma");
    EXPECT_EQ(doc.rows[0][2], "with\"quote");
}

TEST(CsvStreamTest, CallbackSeesEveryRecordWithoutMaterializing)
{
    std::istringstream in("h1,h2\n1,2\n3,4\n");
    std::vector<std::vector<std::string>> records;
    ForEachCsvRecord(in, [&](std::vector<std::string>& record) {
        records.push_back(record);
    });
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[0][0], "h1");
    EXPECT_EQ(records[2][1], "4");
}

TEST(CsvStreamTest, QuotedFieldsSurviveChunkBoundaries)
{
    // The streaming reader refills a 64 KiB buffer; build a document
    // whose quoted field (with an embedded doubled quote) straddles
    // that boundary, so the quote_pending lookahead must carry state
    // across refills.
    // "a,b\n\"" is 5 bytes, so quoted content starts at offset 5; a
    // filler of chunk - 6 places the doubled quote's first '"' on the
    // last byte of the first chunk and its second on the first byte of
    // the next one.
    const std::size_t chunk = 64 * 1024;
    std::string filler(chunk - 6, 'x');
    std::string csv = "a,b\n\"" + filler + "\"\"hi\"\", twice\",tail\n";
    std::istringstream in(csv);
    std::vector<std::vector<std::string>> records;
    ForEachCsvRecord(in, [&](std::vector<std::string>& record) {
        records.push_back(record);
    });
    ASSERT_EQ(records.size(), 2u);
    ASSERT_EQ(records[1].size(), 2u);
    EXPECT_EQ(records[1][0], filler + "\"hi\", twice");
    EXPECT_EQ(records[1][1], "tail");
    // The batch reader is built on the streaming one: same answer.
    std::istringstream again(csv);
    CsvDocument doc = ReadCsv(again);
    ASSERT_EQ(doc.rows.size(), 1u);
    EXPECT_EQ(doc.rows[0][0], records[1][0]);
}

TEST(CsvStreamTest, UnterminatedQuoteAtEofThrows)
{
    std::istringstream in("a\n\"open field\n");
    EXPECT_THROW(ForEachCsvRecord(in, [](std::vector<std::string>&) {}),
                 ParseError);
}

TEST(ErrorTest, ExceptionHierarchy)
{
    EXPECT_THROW(throw InvalidArgument("x"), Error);
    EXPECT_THROW(throw CapacityError("x"), Error);
    EXPECT_THROW(throw ParseError("x"), Error);
    try {
        throw CapacityError("tree too deep");
    } catch (const Error& e) {
        EXPECT_STREQ(e.what(), "tree too deep");
    }
}

}  // namespace
}  // namespace dbscore
