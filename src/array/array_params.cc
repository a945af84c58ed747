/**
 * @file
 * ArrayParams derived quantities and validation.
 */

#include "array/array_params.hh"

#include <cmath>

#include "common/logging.hh"

namespace mcpat {
namespace array {

double
ArrayParams::totalBits() const
{
    if (sizeBytes > 0.0)
        return sizeBytes * 8.0;
    return static_cast<double>(rows) * bits;
}

int
ArrayParams::totalRows() const
{
    if (sizeBytes > 0.0)
        return static_cast<int>(std::ceil(sizeBytes * 8.0 /
                                          blockWidthBits));
    return rows;
}

int
ArrayParams::rowBits() const
{
    if (sizeBytes > 0.0)
        return blockWidthBits;
    return bits;
}

int
ArrayParams::totalPorts() const
{
    return readWritePorts + readPorts + writePorts;
}

void
ArrayParams::validate() const
{
    const bool form1 = sizeBytes > 0.0;
    const bool form2 = rows > 0;
    if (form1 == form2)
        throw ConfigError("array '" + name + "': specify exactly one of "
                          "sizeBytes or rows x bits");
    if (form1 && blockWidthBits <= 0)
        throw ConfigError("array '" + name +
                          "': sizeBytes form requires blockWidthBits");
    if (form2 && bits <= 0)
        throw ConfigError("array '" + name +
                          "': rows form requires bits > 0");
    if (totalPorts() <= 0)
        throw ConfigError("array '" + name + "': needs at least one port");
    if (banks <= 0)
        throw ConfigError("array '" + name + "': banks must be positive");
    if (searchPorts > 0 && cellType != CellType::CAM)
        throw ConfigError("array '" + name +
                          "': search ports require CAM cells");
    if (cellType == CellType::CAM && searchPorts <= 0)
        throw ConfigError("array '" + name +
                          "': CAM arrays need at least 1 search port");
    if (targetCycleTime < 0.0)
        throw ConfigError("array '" + name +
                          "': negative cycle-time target");
}

} // namespace array
} // namespace mcpat
