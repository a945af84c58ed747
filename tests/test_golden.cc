/**
 * @file
 * Golden report digests: a byte-identity oracle across commits.
 *
 * Every shipped config is evaluated through study::evaluate and the
 * FNV-1a digest of its JSON report (figures at max_digits10, so any
 * change to any bit of any figure moves the digest) is compared with
 * tests/golden/report_digests.txt.  In-build on/off comparisons (memo,
 * threads, cache tiers) cannot catch a change that moves both paths;
 * this test can.  tests/golden/artifact_digests.txt pins the other JSON
 * writers the same way: the reference sweep-search document and the
 * diagnostics arrays of a broken config whose messages need escaping.
 * See tests/golden/README.md before regenerating.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/diagnostics.hh"
#include "common/logging.hh"
#include "common/serialize.hh"
#include "study/eval_core.hh"
#include "study/sweep_search.hh"
#include "test_paths.hh"

using namespace mcpat;
namespace fs = std::filesystem;

namespace {

/** "<name> <16 hex digits>" lines; '#' starts a comment. */
std::map<std::string, std::string>
readGoldenDigests(const std::string &file)
{
    const std::string path = sourcePath("tests/golden/" + file);
    std::ifstream in(path);
    if (!in)
        throw ConfigError("cannot read " + path);
    std::map<std::string, std::string> digests;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string config, digest;
        fields >> config >> digest;
        digests[config] = digest;
    }
    return digests;
}

std::string
digestOf(const std::string &bytes)
{
    return common::toHex64(common::fnv1a64(
        reinterpret_cast<const std::uint8_t *>(bytes.data()),
        bytes.size()));
}

/** Compare @p bytes with the artifact_digests.txt line for @p name. */
void
expectArtifactDigest(const std::string &name, const std::string &bytes)
{
    const auto golden = readGoldenDigests("artifact_digests.txt");
    const auto it = golden.find(name);
    const std::string expected =
        it == golden.end() ? "<missing>" : it->second;
    EXPECT_EQ(digestOf(bytes), expected)
        << name << ": artifact digest changed; replacement line:\n"
        << name << " " << digestOf(bytes);
}

} // namespace

TEST(GoldenReports, ShippedConfigDigestsUnchanged)
{
    const fs::path config_dir = sourcePath("configs");
    const auto golden = readGoldenDigests("report_digests.txt");

    std::vector<std::string> configs;
    for (const auto &e : fs::directory_iterator(config_dir))
        if (e.path().extension() == ".xml")
            configs.push_back(e.path().filename().string());
    std::sort(configs.begin(), configs.end());
    ASSERT_EQ(configs.size(), 6u);

    for (const auto &config : configs) {
        study::EvalRequest req;
        req.configPath = (config_dir / config).string();
        const study::EvalResult r = study::evaluate(req);
        ASSERT_TRUE(r.ok) << config << ": " << r.error;

        const std::string digest = digestOf(r.reportJson);
        const auto it = golden.find(config);
        const std::string expected =
            it == golden.end() ? "<missing>" : it->second;
        EXPECT_EQ(digest, expected)
            << config << ": report digest changed; replacement line:\n"
            << config << " " << digest;
    }
}

TEST(GoldenArtifacts, SweepSearchJsonUnchanged)
{
    const study::SweepSpace space = study::SweepSpace::reference();
    const study::SweepSearchOptions opts;
    std::ostringstream os;
    study::writeSweepSearchJson(os, space,
                                study::runSweepSearch(space, opts),
                                opts.work);
    expectArtifactDigest("sweep_search_reference", os.str());
}

TEST(GoldenArtifacts, DiagnosticsJsonUnchanged)
{
    // A backslash, a control byte and a tab in a value, a backslash and
    // a tab in an unknown key, and the quotes of the missing-core
    // message: every escape path of the writers.
    study::EvalRequest req;
    req.configXml = "<component id=\"sys\" type=\"System\">\n"
                    "  <param name=\"technology_node\" "
                    "value=\"4\\5\x01\tnm\"/>\n"
                    "  <param name=\"core_count\" value=\"1\"/>\n"
                    "  <param name=\"bo\\gus\tx\" value=\"1\"/>\n"
                    "</component>\n";
    const study::EvalResult r = study::evaluate(req);
    ASSERT_FALSE(r.ok);
    ASSERT_EQ(r.diagnostics.size(), 3u);

    std::ostringstream os;
    writeDiagnosticsJson(os, r.diagnostics, 2);
    os << "\n";
    writeDiagnosticsJsonLine(os, r.diagnostics);
    expectArtifactDigest("diagnostics_broken_config", os.str());
}
