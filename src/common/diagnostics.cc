/**
 * @file
 * Diagnostic formatting and serialization.
 */

#include "common/diagnostics.hh"

#include <algorithm>
#include <sstream>

namespace mcpat {

const char *
severityName(Severity s)
{
    return s == Severity::Error ? "error" : "warning";
}

std::string
Diagnostic::format() const
{
    std::string out = severityName(severity);
    out += ": ";
    if (!component.empty())
        out += "component '" + component + "'";
    if (!key.empty())
        out += std::string(component.empty() ? "" : ", ") + "key '" +
               key + "'";
    if (line > 0)
        out += " (line " + std::to_string(line) + ")";
    if (!component.empty() || !key.empty() || line > 0)
        out += ": ";
    out += message;
    return out;
}

bool
DiagnosticList::hasErrors() const
{
    return errorCount() > 0;
}

bool
DiagnosticList::hasWarnings() const
{
    return std::any_of(_items.begin(), _items.end(), [](const auto &d) {
        return d.severity == Severity::Warning;
    });
}

std::size_t
DiagnosticList::errorCount() const
{
    return static_cast<std::size_t>(
        std::count_if(_items.begin(), _items.end(), [](const auto &d) {
            return d.severity == Severity::Error;
        }));
}

void
DiagnosticList::print(std::ostream &os) const
{
    for (const auto &d : _items)
        os << "mcpat: " << d.format() << "\n";
}

void
DiagnosticList::throwIfErrors(const std::string &subject) const
{
    if (hasErrors())
        throw ValidationError(subject, *this);
}

namespace {

/** Exception message: subject + every error diagnostic, one per line. */
std::string
summarize(const std::string &subject, const DiagnosticList &diags)
{
    std::ostringstream os;
    const std::size_t n = diags.errorCount();
    os << subject << ": " << n << " validation error"
       << (n == 1 ? "" : "s");
    for (const auto &d : diags)
        if (d.severity == Severity::Error)
            os << "\n  " << d.format();
    return os.str();
}

} // namespace

ValidationError::ValidationError(const std::string &subject,
                                 DiagnosticList diags)
    : ConfigError(summarize(subject, diags)), _diags(std::move(diags))
{}

namespace {

/** One diagnostic as a JSON object, without surrounding whitespace. */
void
writeDiagnosticJson(std::ostream &os, const Diagnostic &d)
{
    os << "{\"severity\": \"" << severityName(d.severity)
       << "\", \"component\": \"" << common::jsonEscape(d.component)
       << "\", \"key\": \"" << common::jsonEscape(d.key)
       << "\", \"line\": " << d.line << ", \"message\": \""
       << common::jsonEscape(d.message) << "\"}";
}

} // namespace

void
writeDiagnosticsJson(std::ostream &os, const DiagnosticList &diags,
                     int indent)
{
    const std::string pad(indent, ' ');
    if (diags.empty()) {
        os << "[]";
        return;
    }
    os << "[\n";
    const auto &items = diags.items();
    for (std::size_t i = 0; i < items.size(); ++i) {
        os << pad << "  ";
        writeDiagnosticJson(os, items[i]);
        os << (i + 1 < items.size() ? ",\n" : "\n");
    }
    os << pad << "]";
}

void
writeDiagnosticsJsonLine(std::ostream &os, const DiagnosticList &diags)
{
    os << "[";
    const char *sep = "";
    for (const Diagnostic &d : diags) {
        os << sep;
        writeDiagnosticJson(os, d);
        sep = ", ";
    }
    os << "]";
}

namespace {

std::string
csvEscapeField(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += "\"\"";
        else
            out += c;
    }
    return out + "\"";
}

} // namespace

void
writeDiagnosticsCsv(std::ostream &os, const DiagnosticList &diags)
{
    os << "severity,component,key,line,message\n";
    for (const auto &d : diags) {
        os << severityName(d.severity) << ','
           << csvEscapeField(d.component) << ',' << csvEscapeField(d.key)
           << ',' << d.line << ',' << csvEscapeField(d.message) << '\n';
    }
}

} // namespace mcpat
