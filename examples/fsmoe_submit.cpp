/**
 * @file
 * fsmoe_submit — submit sweep jobs to a fsmoe_sweepd queue.
 *
 * Builds a plain-text job spec (service/job.h) and enqueues it
 * crash-safely in the daemon's queue directory (service/job_queue.h):
 * the spec lands via atomic rename, and the job only becomes visible
 * to the daemon when its state file commits, so a submitter killed at
 * any instant never leaves a half-submitted job.
 *
 * Options:
 *
 *   --queue DIR       queue directory shared with fsmoe_sweepd
 *                     (required; created if missing)
 *   --name NAME       job identifier ([A-Za-z0-9_-]; required unless
 *                     --spec)
 *   --out FILE        merged result destination (required unless
 *                     --spec)
 *   --batches LIST    comma-separated batch sizes (default 1,2)
 *   --schedules LIST  comma-separated schedule specs (default: every
 *                     registered schedule — the demo grid)
 *   --spec FILE       submit an existing job-spec file instead of
 *                     building one from the flags above
 *   --wait            poll the job's state until it reaches "done"
 *                     (exit 0) or "failed" (exit 1, message printed)
 *   --list            print every job in the queue with its state and
 *                     exit
 *
 * The job id ("0001-NAME") is printed on success — it names the
 * job's spec/state/journal files under DIR/jobs/.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "base/fileio.h"
#include "service/job.h"
#include "service/job_queue.h"

namespace {

using namespace fsmoe;

std::vector<std::string>
parseSchedules(const char *arg)
{
    std::vector<std::string> out;
    std::string cur;
    for (const char *p = arg;; ++p) {
        if (*p == ',' || *p == '\0') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
            if (*p == '\0')
                break;
        } else {
            cur += *p;
        }
    }
    if (out.empty()) {
        std::fprintf(stderr, "--schedules needs at least one spec\n");
        std::exit(2);
    }
    return out;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --queue DIR --name NAME --out FILE\n"
                 "          [--batches LIST] [--schedules LIST] [--wait]\n"
                 "       %s --queue DIR --spec FILE [--wait]\n"
                 "       %s --queue DIR --list\n",
                 argv0, argv0, argv0);
    return 2;
}

/** --wait: poll until the job leaves the queued/active states. */
int
waitForJob(service::JobQueue &queue, const std::string &jobId)
{
    for (;;) {
        std::string state;
        for (const service::JobEntry &e : queue.scan(nullptr)) {
            if (e.id == jobId) {
                if (e.state == "done") {
                    std::printf("job %s: done\n", jobId.c_str());
                    return 0;
                }
                if (e.state == "failed") {
                    std::fprintf(stderr, "job %s: failed: %s\n",
                                 jobId.c_str(), e.error.c_str());
                    return 1;
                }
                state = e.state;
            }
        }
        if (state.empty()) {
            std::fprintf(stderr, "job %s: vanished from the queue\n",
                         jobId.c_str());
            return 1;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const char *queue_dir = nullptr;
    const char *spec_file = nullptr;
    const char *name = nullptr;
    const char *out_path = nullptr;
    std::vector<int64_t> batches = {1, 2};
    std::vector<std::string> schedules;
    bool wait = false;
    bool list = false;

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--queue") == 0 && i + 1 < argc) {
            queue_dir = argv[++i];
        } else if (std::strcmp(argv[i], "--spec") == 0 && i + 1 < argc) {
            spec_file = argv[++i];
        } else if (std::strcmp(argv[i], "--name") == 0 && i + 1 < argc) {
            name = argv[++i];
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else if (std::strcmp(argv[i], "--batches") == 0 && i + 1 < argc) {
            if (!service::parseBatchList(argv[++i], &batches)) {
                std::fprintf(stderr, "bad --batches list '%s'\n", argv[i]);
                return 2;
            }
        } else if (std::strcmp(argv[i], "--schedules") == 0 &&
                   i + 1 < argc) {
            schedules = parseSchedules(argv[++i]);
        } else if (std::strcmp(argv[i], "--wait") == 0) {
            wait = true;
        } else if (std::strcmp(argv[i], "--list") == 0) {
            list = true;
        } else {
            return usage(argv[0]);
        }
    }
    if (queue_dir == nullptr) {
        std::fprintf(stderr, "%s: --queue DIR is required\n", argv[0]);
        return usage(argv[0]);
    }

    service::JobQueue queue;
    std::string error;
    if (!queue.open(queue_dir, &error)) {
        std::fprintf(stderr, "fsmoe_submit: %s\n", error.c_str());
        return 2;
    }

    if (list) {
        for (const service::JobEntry &e : queue.scan(&error)) {
            std::printf("%-24s %s%s%s\n", e.id.c_str(), e.state.c_str(),
                        e.error.empty() ? "" : ": ", e.error.c_str());
        }
        if (!error.empty()) {
            std::fprintf(stderr, "fsmoe_submit: %s\n", error.c_str());
            return 2;
        }
        return 0;
    }

    service::JobSpec job;
    if (spec_file != nullptr) {
        std::string text;
        if (!fileio::readTextFile(spec_file, &text, &error) ||
            !service::parseJobSpec(text, &job, &error)) {
            std::fprintf(stderr, "fsmoe_submit: %s\n", error.c_str());
            return 2;
        }
    } else {
        if (name == nullptr || out_path == nullptr) {
            std::fprintf(stderr,
                         "%s: --name and --out are required (or --spec)\n",
                         argv[0]);
            return usage(argv[0]);
        }
        job.name = name;
        job.batches = batches;
        job.schedules = schedules;
        job.outPath = out_path;
        // Round-trip through the parser so flag-built jobs obey the
        // exact constraints a hand-written spec file would.
        if (!service::parseJobSpec(service::serializeJobSpec(job), &job,
                                   &error)) {
            std::fprintf(stderr, "fsmoe_submit: %s\n", error.c_str());
            return 2;
        }
    }

    std::string jobId;
    if (!queue.submit(job, &jobId, &error)) {
        std::fprintf(stderr, "fsmoe_submit: %s\n", error.c_str());
        return 2;
    }
    std::printf("submitted %s (queue %s)\n", jobId.c_str(), queue_dir);
    std::fflush(stdout);
    return wait ? waitForJob(queue, jobId) : 0;
}
