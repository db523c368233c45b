#include "service/job.h"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "base/number.h"

namespace fsmoe::service {

namespace {

constexpr const char *kHeader = "fsmoe-job v1";

bool
validName(const std::string &name)
{
    if (name.empty())
        return false;
    for (char c : name) {
        if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '_' &&
            c != '-')
            return false;
    }
    return true;
}

std::vector<std::string>
splitWords(const std::string &line)
{
    std::vector<std::string> words;
    std::istringstream iss(line);
    std::string w;
    while (iss >> w)
        words.push_back(w);
    return words;
}

/**
 * A batch size: a number (base/number.h) that is > 0. The one batch
 * parser behind job specs and the CLIs' --batches flags.
 */
bool
parsePositiveInt(const std::string &text, int64_t *out)
{
    int64_t v = 0;
    if (!parseNumber(text, &v) || v <= 0)
        return false;
    *out = v;
    return true;
}

} // namespace

bool
parseJobSpec(const std::string &text, JobSpec *out, std::string *error)
{
    const auto fail = [&](const std::string &msg) {
        if (error != nullptr)
            *error = "job spec: " + msg;
        return false;
    };

    JobSpec job;
    std::istringstream iss(text);
    std::string line;
    bool sawHeader = false;
    bool sawSchedules = false;
    int lineno = 0;
    while (std::getline(iss, line)) {
        ++lineno;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (!sawHeader) {
            if (line != kHeader)
                return fail("line 1 must be '" + std::string(kHeader) +
                            "', got '" + line + "'");
            sawHeader = true;
            continue;
        }
        const std::vector<std::string> words = splitWords(line);
        if (words.empty())
            continue;
        const std::string &key = words[0];
        if (key == "name") {
            if (words.size() != 2 || !validName(words[1]))
                return fail("line " + std::to_string(lineno) +
                            ": 'name' wants one [A-Za-z0-9_-] identifier");
            job.name = words[1];
        } else if (key == "batches") {
            job.batches.clear();
            for (size_t i = 1; i < words.size(); ++i) {
                int64_t b = 0;
                if (!parsePositiveInt(words[i], &b))
                    return fail("line " + std::to_string(lineno) +
                                ": bad batch '" + words[i] +
                                "' (want a positive integer)");
                job.batches.push_back(b);
            }
            if (job.batches.empty())
                return fail("line " + std::to_string(lineno) +
                            ": 'batches' wants at least one value");
        } else if (key == "schedules") {
            // "schedules" with no values is the explicit spelling of
            // the default (all registered schedules).
            sawSchedules = true;
            job.schedules.assign(words.begin() + 1, words.end());
        } else if (key == "out") {
            if (words.size() != 2)
                return fail("line " + std::to_string(lineno) +
                            ": 'out' wants exactly one path (no spaces)");
            job.outPath = words[1];
        } else {
            return fail("line " + std::to_string(lineno) +
                        ": unknown key '" + key +
                        "' (want name, batches, schedules, out)");
        }
    }
    if (!sawHeader)
        return fail("empty document (line 1 must be '" +
                    std::string(kHeader) + "')");
    if (job.name.empty())
        return fail("missing mandatory key 'name'");
    if (job.batches.empty())
        return fail("missing mandatory key 'batches'");
    if (job.outPath.empty())
        return fail("missing mandatory key 'out'");
    (void)sawSchedules;
    *out = job;
    return true;
}

bool
parseBatchList(const std::string &text, std::vector<int64_t> *out)
{
    std::vector<int64_t> batches;
    size_t pos = 0;
    for (;;) {
        const size_t comma = std::min(text.find(',', pos), text.size());
        int64_t b = 0;
        if (!parsePositiveInt(text.substr(pos, comma - pos), &b))
            return false;
        batches.push_back(b);
        if (comma == text.size())
            break;
        pos = comma + 1;
    }
    *out = batches;
    return true;
}

std::string
serializeJobSpec(const JobSpec &job)
{
    std::ostringstream oss;
    oss << kHeader << "\n";
    oss << "name " << job.name << "\n";
    oss << "batches";
    for (int64_t b : job.batches)
        oss << " " << b;
    oss << "\n";
    if (!job.schedules.empty()) {
        oss << "schedules";
        for (const std::string &s : job.schedules)
            oss << " " << s;
        oss << "\n";
    }
    oss << "out " << job.outPath << "\n";
    return oss.str();
}

std::vector<runtime::Scenario>
buildJobGrid(const JobSpec &job)
{
    return runtime::demoGrid(job.batches, job.schedules);
}

} // namespace fsmoe::service
