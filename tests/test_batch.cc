/**
 * @file
 * Batch-evaluation tests: list-file parsing, per-input JSON/CSV report
 * round-trips, failure isolation, and the interaction with the
 * persistent cache — a second batch pass over the same configs must be
 * served from disk and produce byte-identical reports.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "array/array_cache.hh"
#include "chip/component_memo.hh"
#include "common/logging.hh"
#include "study/batch.hh"
#include "test_paths.hh"

using namespace mcpat;
namespace fs = std::filesystem;

namespace {

fs::path
scratchDir(const std::string &tag)
{
    static int counter = 0;
    const fs::path dir = fs::temp_directory_path() /
        ("mcpat_batch_" + tag + "_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter++));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
writeList(const fs::path &dir, const std::vector<std::string> &lines)
{
    const std::string path = (dir / "list.txt").string();
    std::ofstream out(path);
    for (const auto &l : lines)
        out << l << "\n";
    return path;
}

} // namespace

TEST(BatchList, ParsesCommentsBlanksAndRelativePaths)
{
    const fs::path dir = scratchDir("list");
    std::ofstream(dir / "a.xml") << "<x/>";
    const std::string list = writeList(dir,
        {"# leading comment", "", "a.xml  # trailing comment",
         "  /abs/b.xml  ", "\t"});
    const auto configs = study::readBatchList(list);
    ASSERT_EQ(configs.size(), 2u);
    EXPECT_EQ(configs[0], (dir / "a.xml").string());
    EXPECT_EQ(configs[1], "/abs/b.xml");
    fs::remove_all(dir);
}

TEST(BatchList, MissingOrEmptyListThrows)
{
    EXPECT_THROW(study::readBatchList("/nonexistent/list.txt"),
                 ConfigError);
    const fs::path dir = scratchDir("emptylist");
    const std::string list = writeList(dir, {"# only comments", ""});
    EXPECT_THROW(study::readBatchList(list), ConfigError);
    fs::remove_all(dir);
}

TEST(Batch, WritesOneJsonAndCsvReportPerInput)
{
    const fs::path dir = scratchDir("reports");
    const std::string list = writeList(dir,
        {configPath("niagara.xml"), configPath("alpha21364.xml")});

    study::BatchOptions opts;
    opts.outputDir = (dir / "out").string();
    std::ostringstream log;
    const auto res = study::runBatch(list, opts, log);

    EXPECT_TRUE(res.ok());
    ASSERT_EQ(res.items.size(), 2u);
    for (const auto &item : res.items) {
        EXPECT_TRUE(item.ok) << item.input << ": " << item.error;
        EXPECT_GT(item.area, 0.0);
        EXPECT_GT(item.peakPower, 0.0);

        // JSON report: parseable shape with the chip node present.
        const std::string json = slurp(item.jsonPath);
        EXPECT_EQ(json.front(), '{') << item.jsonPath;
        EXPECT_NE(json.find("\"name\""), std::string::npos);
        EXPECT_NE(json.find("\"area"), std::string::npos);

        // CSV report: header plus at least one data row.
        const std::string csv = slurp(item.csvPath);
        EXPECT_EQ(csv.rfind("path,area_mm2,", 0), 0u) << item.csvPath;
        EXPECT_GT(std::count(csv.begin(), csv.end(), '\n'), 1);
    }
    // Distinct inputs produced distinct report stems.
    EXPECT_NE(res.items[0].jsonPath, res.items[1].jsonPath);

    const std::string summary = log.str();
    EXPECT_NE(summary.find("batch summary: 2 configs, 2 ok"),
              std::string::npos)
        << summary;
    EXPECT_NE(summary.find("hit rate"), std::string::npos) << summary;
    fs::remove_all(dir);
}

TEST(Batch, DuplicateStemsGetUniqueOutputs)
{
    const fs::path dir = scratchDir("dupes");
    const std::string cfg = configPath("niagara.xml");
    const std::string list = writeList(dir, {cfg, cfg});

    study::BatchOptions opts;
    opts.outputDir = (dir / "out").string();
    opts.writeCsv = false;
    std::ostringstream log;
    const auto res = study::runBatch(list, opts, log);
    ASSERT_EQ(res.items.size(), 2u);
    EXPECT_TRUE(res.ok());
    EXPECT_NE(res.items[0].jsonPath, res.items[1].jsonPath);
    // Identical configs in one process must produce identical bytes.
    EXPECT_EQ(slurp(res.items[0].jsonPath), slurp(res.items[1].jsonPath));
    fs::remove_all(dir);
}

TEST(Batch, FailingInputIsIsolatedAndCounted)
{
    const fs::path dir = scratchDir("failure");
    std::ofstream(dir / "broken.xml") << "this is not xml";
    const std::string list = writeList(dir,
        {(dir / "broken.xml").string(), configPath("niagara.xml"),
         (dir / "missing.xml").string()});

    study::BatchOptions opts;
    opts.outputDir = (dir / "out").string();
    std::ostringstream log;
    const auto res = study::runBatch(list, opts, log);

    ASSERT_EQ(res.items.size(), 3u);
    EXPECT_EQ(res.failures, 2u);
    EXPECT_FALSE(res.ok());
    EXPECT_FALSE(res.items[0].ok);
    EXPECT_FALSE(res.items[0].error.empty());
    EXPECT_TRUE(res.items[1].ok);
    EXPECT_FALSE(res.items[2].ok);
    EXPECT_NE(log.str().find("FAILED"), std::string::npos);
    fs::remove_all(dir);
}

TEST(Batch, SecondPassHitsDiskAndReproducesBytes)
{
    const fs::path dir = scratchDir("twopasses");
    const std::string list = writeList(dir,
        {configPath("niagara.xml"), configPath("niagara2.xml")});

    auto &cache = array::ArrayResultCache::instance();
    const bool was_enabled = cache.enabled();
    cache.clear();
    cache.setEnabled(true);
    cache.setCacheDir((dir / "cache").string());
    chip::ComponentMemo::instance().clear();

    study::BatchOptions opts;
    opts.outputDir = (dir / "out1").string();
    opts.writeCsv = true;
    std::ostringstream log1;
    const auto pass1 = study::runBatch(list, opts, log1);
    ASSERT_TRUE(pass1.ok()) << log1.str();
    EXPECT_EQ(pass1.cacheStats.diskHits, 0u);
    EXPECT_GT(pass1.cacheStats.diskMisses, 0u);

    // Fresh process simulation: drop every in-memory tier — the
    // component memo above the arrays and the array memory cache —
    // and keep only the disk.
    cache.setCacheDir((dir / "cache").string());  // zero disk counters
    cache.clear();
    chip::ComponentMemo::instance().clear();

    opts.outputDir = (dir / "out2").string();
    std::ostringstream log2;
    const auto pass2 = study::runBatch(list, opts, log2);
    ASSERT_TRUE(pass2.ok()) << log2.str();
    EXPECT_GT(pass2.cacheStats.diskHits, 0u);
    EXPECT_EQ(pass2.cacheStats.diskCorrupt, 0u);

    ASSERT_EQ(pass1.items.size(), pass2.items.size());
    for (std::size_t i = 0; i < pass1.items.size(); ++i) {
        EXPECT_EQ(slurp(pass1.items[i].jsonPath),
                  slurp(pass2.items[i].jsonPath))
            << pass1.items[i].input;
        EXPECT_EQ(slurp(pass1.items[i].csvPath),
                  slurp(pass2.items[i].csvPath))
            << pass1.items[i].input;
        EXPECT_EQ(pass1.items[i].area, pass2.items[i].area);
        EXPECT_EQ(pass1.items[i].peakPower, pass2.items[i].peakPower);
    }

    cache.setCacheDir("");
    cache.setEnabled(was_enabled);
    cache.clear();
    fs::remove_all(dir);
}

namespace {

/**
 * A copy of niagara.xml with an unknown param injected, so the load
 * produces a Warning diagnostic (and therefore sidecar files) while
 * the model still evaluates.
 */
std::string
writeWarningConfig(const fs::path &dir)
{
    const std::string src = configPath("niagara.xml");
    std::string text = slurp(src);
    const std::string anchor = "<param name=\"technology_node\"";
    const auto pos = text.find(anchor);
    EXPECT_NE(pos, std::string::npos);
    text.insert(pos,
                "<param name=\"definitely_unknown_param\" "
                "value=\"1\"/>\n  ");
    const std::string path = (dir / "warned.xml").string();
    std::ofstream(path) << text;
    return path;
}

} // namespace

TEST(Batch, SidecarWriteFailureIsRecordedNotSilent)
{
    const fs::path dir = scratchDir("sidecar_fail");
    const std::string list = writeList(dir, {writeWarningConfig(dir)});

    study::BatchOptions opts;
    opts.outputDir = (dir / "out").string();
    // Block both sidecar paths: an ofstream cannot open a path that
    // is already a directory, which is how we force the failure even
    // when running as root (chmod is a no-op for root).
    fs::create_directories(fs::path(opts.outputDir) /
                           "warned.diagnostics.json");
    fs::create_directories(fs::path(opts.outputDir) /
                           "warned.diagnostics.csv");

    std::ostringstream log;
    const auto res = study::runBatch(list, opts, log);
    ASSERT_EQ(res.items.size(), 1u);
    const auto &item = res.items[0];

    // The evaluation itself succeeded; the lost sidecars are recorded
    // in the error field and as located warning diagnostics instead
    // of disappearing.
    EXPECT_TRUE(item.ok) << item.error;
    EXPECT_NE(item.error.find("cannot write"), std::string::npos)
        << item.error;
    EXPECT_TRUE(item.diagnosticsJsonPath.empty());
    EXPECT_TRUE(item.diagnosticsCsvPath.empty());
    bool json_warned = false, csv_warned = false;
    for (const auto &d : item.diagnostics) {
        if (d.component == "batch" && d.key == "diagnostics_json")
            json_warned = true;
        if (d.component == "batch" && d.key == "diagnostics_csv")
            csv_warned = true;
    }
    EXPECT_TRUE(json_warned);
    EXPECT_TRUE(csv_warned);

    // The summary CSV row carries the failure too.
    const std::string summary = slurp(res.summaryCsvPath);
    EXPECT_NE(summary.find("cannot write"), std::string::npos)
        << summary;
    fs::remove_all(dir);
}

TEST(Batch, SidecarsWrittenOnSuccessStillWork)
{
    const fs::path dir = scratchDir("sidecar_ok");
    const std::string list = writeList(dir, {writeWarningConfig(dir)});

    study::BatchOptions opts;
    opts.outputDir = (dir / "out").string();
    std::ostringstream log;
    const auto res = study::runBatch(list, opts, log);
    ASSERT_EQ(res.items.size(), 1u);
    EXPECT_TRUE(res.items[0].ok);
    EXPECT_TRUE(res.items[0].error.empty()) << res.items[0].error;
    EXPECT_FALSE(res.items[0].diagnosticsJsonPath.empty());
    EXPECT_FALSE(res.items[0].diagnosticsCsvPath.empty());
    fs::remove_all(dir);
}

TEST(Batch, SummaryCsvFailureIsFlaggedAndWarned)
{
    const fs::path dir = scratchDir("summary_fail");
    const std::string list = writeList(dir, {configPath("niagara.xml")});

    study::BatchOptions opts;
    opts.outputDir = (dir / "out").string();
    // A directory squatting on the summary path forces the open to
    // fail.
    fs::create_directories(fs::path(opts.outputDir) /
                           "batch_summary.csv");

    std::ostringstream log;
    const auto res = study::runBatch(list, opts, log);
    EXPECT_TRUE(res.summaryCsvPath.empty());
    EXPECT_FALSE(res.summaryError.empty());
    EXPECT_NE(res.summaryError.find("batch_summary.csv"),
              std::string::npos) << res.summaryError;
    EXPECT_NE(log.str().find("warning"), std::string::npos)
        << log.str();
    // The failure is about the summary only; the batch itself is fine.
    EXPECT_TRUE(res.ok());
    fs::remove_all(dir);
}

TEST(Batch, SummaryCsvSuccessSetsPathAndNoError)
{
    const fs::path dir = scratchDir("summary_ok");
    const std::string list = writeList(dir, {configPath("niagara.xml")});

    study::BatchOptions opts;
    opts.outputDir = (dir / "out").string();
    std::ostringstream log;
    const auto res = study::runBatch(list, opts, log);
    EXPECT_FALSE(res.summaryCsvPath.empty());
    EXPECT_TRUE(res.summaryError.empty()) << res.summaryError;
    EXPECT_NE(slurp(res.summaryCsvPath).find("input,name,ok"),
              std::string::npos);
    fs::remove_all(dir);
}
