/**
 * @file
 * Technology operating-point logic: DVFS, temperature, and density helpers.
 */

#include "tech/technology.hh"

#include <cmath>

namespace mcpat {
namespace tech {

Technology::Technology(int node_nm, DeviceFlavor flavor, double temperature_k)
    : _node(&lookupTechNode(node_nm)),
      _flavor(flavor),
      _vdd(_node->device[static_cast<int>(flavor)].vdd),
      _temperature(temperature_k)
{
    fatalIf(temperature_k < 233.0 || temperature_k > 420.0,
            "junction temperature outside the modeled 233-420 K range");
    updateScales();
}

const DeviceParams &
Technology::device() const
{
    return _node->device[static_cast<int>(_flavor)];
}

const DeviceParams &
Technology::device(DeviceFlavor f) const
{
    return _node->device[static_cast<int>(f)];
}

void
Technology::setVdd(double vdd)
{
    fatalIf(vdd < device().vth + 0.1,
            "DVFS supply voltage too close to Vth for the delay model");
    fatalIf(vdd > device().vdd * 1.4,
            "DVFS supply voltage more than 40% above nominal");
    _vdd = vdd;
    updateScales();
}

void
Technology::setTemperature(double t)
{
    _temperature = t;
    updateScales();
}

void
Technology::updateScales()
{
    const double vnom = device().vdd;
    const double vth = device().vth;
    const double v = _vdd / vnom;

    // Subthreshold leakage roughly doubles every 20 K; DIBL makes Ioff
    // approximately linear in Vdd around the nominal point.
    _leakageScale = std::pow(2.0, (_temperature - 300.0) / 20.0) * v;
    _gateLeakageScale = v * v;

    constexpr double alpha = 1.3;
    const double nominal = vnom / std::pow(vnom - vth, alpha);
    const double actual = _vdd / std::pow(_vdd - vth, alpha);
    _delayScale = actual / nominal;
}

double
Technology::energyScale() const
{
    const double v = _vdd / device().vdd;
    return v * v;
}

const WireParams &
Technology::wire(WireLayer layer) const
{
    return wire(layer, _projection);
}

const WireParams &
Technology::wire(WireLayer layer, WireProjection p) const
{
    return _node->wire[static_cast<int>(layer)][static_cast<int>(p)];
}

double
Technology::sramCellArea() const
{
    const double f = _node->feature;
    return _node->sramCellAreaF2 * f * f;
}

double
Technology::camCellArea() const
{
    const double f = _node->feature;
    return _node->camCellAreaF2 * f * f;
}

double
Technology::dffArea() const
{
    const double f = _node->feature;
    return _node->dffAreaF2 * f * f;
}

double
Technology::logicGateArea() const
{
    const double f = _node->feature;
    return _node->logicGateAreaF2 * f * f;
}

} // namespace tech
} // namespace mcpat
