#include "perfbench/inputs.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "config/xml_loader.hh"
#include "config/xml_parser.hh"

namespace perfbench {

namespace {

const char *const kShipped[] = {
    "alpha21364", "manycore_22nm", "niagara",
    "niagara2",   "niagara_runtime", "xeon_tulsa",
};

/** [begin, end) of the parameter block owned by the first @p type. */
bool
paramRegion(const std::string &xml, const std::string &type,
            std::size_t &begin, std::size_t &end)
{
    const std::size_t at = xml.find("type=\"" + type + "\"");
    if (at == std::string::npos)
        return false;
    begin = xml.find('>', at);
    if (begin == std::string::npos)
        return false;
    ++begin;
    // A component's own params precede its first child component.
    end = std::min(xml.find("<component", begin),
                   xml.find("</component>", begin));
    return end != std::string::npos;
}

/** The parameter's value, or "" when the component does not list it. */
std::string
paramOf(const std::string &xml, const std::string &type,
        const std::string &name)
{
    std::size_t begin, end;
    if (!paramRegion(xml, type, begin, end))
        return "";
    const std::size_t at = xml.find("name=\"" + name + "\"", begin);
    if (at == std::string::npos || at >= end)
        return "";
    const std::size_t v = xml.find("value=\"", at) + 7;
    return xml.substr(v, xml.find('"', v) - v);
}

/**
 * @p xml with parameter @p name of the first component of @p type set
 * to @p value (added when the component does not list it).
 */
std::string
withParam(const std::string &xml, const std::string &type,
          const std::string &name, const std::string &value)
{
    std::size_t begin, end;
    if (!paramRegion(xml, type, begin, end))
        throw std::runtime_error("no component of type " + type);
    const std::size_t at = xml.find("name=\"" + name + "\"", begin);
    if (at != std::string::npos && at < end) {
        const std::size_t v = xml.find("value=\"", at) + 7;
        return xml.substr(0, v) + value + xml.substr(xml.find('"', v));
    }
    return xml.substr(0, begin) + "\n  <param name=\"" + name +
        "\" value=\"" + value + "\"/>" + xml.substr(begin);
}

std::string
fmt(double v, int decimals)
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(decimals);
    os << v;
    return os.str();
}

double
numberOf(const std::string &xml, const std::string &type,
         const std::string &name, double dflt)
{
    const std::string v = paramOf(xml, type, name);
    return v.empty() ? dflt : std::stod(v);
}

/** Capacity scaled by 2 or 1/2, in whole KiB. */
std::string
scaledCapacity(const std::string &xml, const std::string &type, Rng &rng)
{
    const double kb = numberOf(xml, type, "size_kb", 0.0);
    return fmt(rng.below(2) ? kb * 2 : kb / 2, 0);
}

/** Throw std::runtime_error when any grid point fails validation. */
void
validateSpace(const mcpat::study::SweepSpace &space)
{
    for (std::size_t i = 0; i < space.size(); ++i) {
        const auto cfg = space.at(i);
        try {
            if (!mcpat::study::makeCaseStudySystem(cfg).check().hasErrors())
                continue;
        } catch (const std::exception &) {
        }
        throw std::runtime_error("generated sweep point '" + cfg.label() +
                                 "' does not validate");
    }
}

} // namespace

std::vector<ConfigInput>
shippedConfigs()
{
    std::vector<ConfigInput> out;
    for (const char *name : kShipped) {
        const std::string path = std::string("configs/") + name + ".xml";
        std::ifstream f(path);
        if (!f)
            throw std::runtime_error("cannot read " + path +
                                     " (run from the repository root)");
        std::ostringstream text;
        text << f.rdbuf();
        out.push_back({name, text.str()});
    }
    return out;
}

std::vector<ConfigInput>
cliInputs(std::uint64_t seed)
{
    Rng rng(seed ^ 0xc11c0f165ULL);
    std::vector<ConfigInput> out = shippedConfigs();
    const std::size_t shipped = out.size();
    // Every shipped config gets every kind of variant, and the seed
    // draws only the values, so the work per pass (and which inputs
    // are slowest) stays close across seeds.
    for (std::size_t b = 0; b < shipped; ++b) {
        const ConfigInput base = out[b];  // a copy: out grows below
        const std::string cache =
            paramOf(base.xml, "L3", "size_kb").empty() ? "L2" : "L3";
        const double mhz = numberOf(base.xml, "Core", "clock_rate_mhz", 0.0);
        const double kb = numberOf(base.xml, cache, "size_kb", 0.0);
        const double cores = numberOf(base.xml, "System", "core_count", 1.0);
        const std::string flavor =
            paramOf(base.xml, "System", "device_type");
        const char *const flavors[] = {"HP", "LSTP", "LOP"};
        std::string pick;
        do {
            pick = flavors[rng.below(3)];
        } while (pick == (flavor.empty() ? "HP" : flavor));

        const std::string mhzVariant =
            fmt(std::round(mhz * rng.uniform(0.8, 1.2) / 10) * 10, 0);
        const struct
        {
            const char *suffix, *type, *param;
            std::string value;
        } variants[] = {
            {"-clock", "Core", "clock_rate_mhz", mhzVariant},
            {"-cache-x2", cache.c_str(), "size_kb", fmt(kb * 2, 0)},
            {"-cache-half", cache.c_str(), "size_kb", fmt(kb / 2, 0)},
            {"-cores-x2", "System", "core_count", fmt(cores * 2, 0)},
            {"-flavor", "System", "device_type", pick},
        };
        for (const auto &v : variants)
            out.push_back({base.name + v.suffix,
                           withParam(base.xml, v.type, v.param, v.value)});
    }
    for (const ConfigInput &in : out)
        validateInput(in);
    return out;
}

ConfigInput
freshVariant(const ConfigInput &base, Rng &rng)
{
    // Draw weights per kind.  Clock and temperature move the operating
    // point of every array, so such a variant re-runs the whole array
    // search; they stay rare so that the search is a minority of the
    // server's time, as for a simulator that mostly varies the uncore.
    static const unsigned kWeights[] = {1, 1, 8, 8, 8, 6, 4};
    const bool hasIo = !paramOf(base.xml, "ChipIo", "pins").empty();
    ConfigInput v{base.name, base.xml};
    const std::size_t params = 1 + rng.below(2);
    std::size_t last = 99;
    for (std::size_t p = 0; p < params; ++p) {
        std::size_t kind;
        do {
            std::size_t r = rng.below(36);
            for (kind = 0; r >= kWeights[kind]; ++kind)
                r -= kWeights[kind];
        } while (kind == last || (kind == 3 && !hasIo));
        last = kind;
        switch (kind) {
          case 0: {
            const double mhz =
                numberOf(base.xml, "Core", "clock_rate_mhz", 0.0);
            v.xml = withParam(v.xml, "Core", "clock_rate_mhz",
                              fmt(std::round(mhz * rng.uniform(0.7, 1.3)), 0));
            break;
          }
          case 1:
            v.xml = withParam(v.xml, "System", "temperature",
                              fmt(330 + rng.below(61), 0));
            break;
          case 2:
            v.xml = withParam(v.xml, "Noc", "link_length_mm",
                              fmt(rng.uniform(0.5, 9.0), 2));
            break;
          case 3:
            v.xml = withParam(v.xml, "ChipIo", "toggle_rate",
                              fmt(rng.uniform(0.05, 0.5), 3));
            break;
          case 4:
            v.xml = withParam(v.xml, "System", "white_space",
                              fmt(rng.uniform(0.02, 0.5), 3));
            break;
          case 5:
            v.xml = withParam(v.xml, "MemoryController", "channels",
                              fmt(1 << rng.below(4), 0));
            break;
          default:
            v.xml = withParam(v.xml, "L2", "size_kb",
                              scaledCapacity(base.xml, "L2", rng));
            break;
        }
    }
    return v;
}

mcpat::study::SweepSpace
sweepSpace(std::uint64_t seed)
{
    Rng rng(seed ^ 0x5eedf00dULL);
    mcpat::study::SweepSpace s = mcpat::study::SweepSpace::reference();
    // Whole 64 KiB steps keep every cluster L2 a whole number of sets;
    // 10 MHz steps keep clocks readable.  Each value moves well within
    // its reference neighbours' gaps, so the axis keeps its length, and
    // little enough that the search's work barely changes with the seed.
    const double step = 64.0 * 1024;
    for (double &b : s.l2BytesPerCore)
        b = std::max(step,
                     std::round(b * rng.uniform(0.97, 1.03) / step) * step);
    for (double &c : s.clockRates)
        c = std::round(c * rng.uniform(0.99, 1.01) / 1e7) * 1e7;
    for (auto *axis : {&s.l2BytesPerCore, &s.clockRates}) {
        std::sort(axis->begin(), axis->end());
        axis->erase(std::unique(axis->begin(), axis->end()), axis->end());
    }
    validateSpace(s);
    return s;
}

void
validateInput(const ConfigInput &in)
{
    try {
        const auto root = mcpat::config::parseXmlString(in.xml);
        const auto loaded = mcpat::config::loadSystemParams(root);
        mcpat::DiagnosticList diags = loaded.diagnostics;
        diags.merge(loaded.system.check());
        if (diags.hasErrors()) {
            std::ostringstream os;
            diags.print(os);
            throw std::runtime_error(os.str());
        }
    } catch (const std::exception &e) {
        throw std::runtime_error("generated input '" + in.name +
                                 "' does not validate: " + e.what());
    }
}

} // namespace perfbench
