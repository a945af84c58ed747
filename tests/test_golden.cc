/**
 * @file
 * Golden report digests: a byte-identity oracle across commits.
 *
 * Every shipped config is evaluated through study::evaluate and the
 * FNV-1a digest of its JSON report (figures at max_digits10, so any
 * change to any bit of any figure moves the digest) is compared with
 * tests/golden/report_digests.txt.  In-build on/off comparisons (memo,
 * threads, cache tiers) cannot catch a change that moves both paths;
 * this test can.  See tests/golden/README.md before regenerating.
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

#include "common/logging.hh"
#include "common/serialize.hh"
#include "study/eval_core.hh"

using namespace mcpat;
namespace fs = std::filesystem;

namespace {

fs::path
findDir(const std::string &name)
{
    for (const std::string prefix : {"", "../", "../../"}) {
        if (fs::is_directory(prefix + name))
            return fs::absolute(prefix + name);
    }
    throw ConfigError("cannot find " + name);
}

/** "<config file name> <16 hex digits>" lines; '#' starts a comment. */
std::map<std::string, std::string>
readGoldenDigests(const fs::path &path)
{
    std::ifstream in(path);
    if (!in)
        throw ConfigError("cannot read " + path.string());
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

} // namespace

TEST(GoldenReports, ShippedConfigDigestsUnchanged)
{
    const fs::path config_dir = findDir("configs");
    const auto golden =
        readGoldenDigests(findDir("tests/golden") / "report_digests.txt");

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

        const std::string digest = common::toHex64(common::fnv1a64(
            reinterpret_cast<const std::uint8_t *>(r.reportJson.data()),
            r.reportJson.size()));
        const auto it = golden.find(config);
        const std::string expected =
            it == golden.end() ? "<missing>" : it->second;
        EXPECT_EQ(digest, expected)
            << config << ": report digest changed; replacement line:\n"
            << config << " " << digest;
    }
}
