/**
 * @file
 * Locations of the source tree's data files for the test binary.
 *
 * tests/CMakeLists.txt compiles the repository root in as
 * MCPAT_SOURCE_DIR, so the tests find configs/ and tests/golden/ from
 * any working directory, including a build tree outside the
 * repository.
 */

#ifndef MCPAT_TESTS_TEST_PATHS_HH
#define MCPAT_TESTS_TEST_PATHS_HH

#include <string>

/** Absolute path of @p rel, relative to the repository root. */
inline std::string
sourcePath(const std::string &rel)
{
    return std::string(MCPAT_SOURCE_DIR) + "/" + rel;
}

/** Absolute path of a shipped config, e.g. configPath("niagara.xml"). */
inline std::string
configPath(const std::string &name)
{
    return sourcePath("configs/" + name);
}

#endif // MCPAT_TESTS_TEST_PATHS_HH
